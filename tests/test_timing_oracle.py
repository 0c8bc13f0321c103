"""What the simulated clock must read, derived without the simulator.

Every figure pins ``sim_ns``, which proves a change left it *unchanged*,
never that it was *right*.  Two independent statements of the data
plane's timing live here:

* a closed form for the warm raw READ (ROADMAP item 3(a), first slice),
  asserted to 1e-12 relative over transfer size x packet size x credits
  x channels, each cell naming its regime from the configuration;
* a golden grid of four concurrent mixed flows under credit windows of
  1-3 and non-power-of-two packets — the contention cell the default
  configuration's pins do not have — recorded on the commit before the
  data plane went to plain callbacks and held to exact equality;
* golden cells for a lone flow's downlink train — cut mid-stream by a
  second flow, by a link fault and by an abandoned connection, bound by
  its credit window, and read by a run stopped inside it — recorded on
  the commit before trains, when every packet hop was a loop callback;
* golden cells for a DRAM burst's hand-off on round-number timings,
  where a landing shares its instant with another flow's hops — two
  READs, a READ beside a selection, runs stopped mid-scan, a crash and a
  memory fault mid-scan — recorded on the commit before the hand-off was
  callbacks, when a reader process fed a consumer process.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.common.config import FarviewConfig, MemoryConfig, NetworkConfig
from repro.common.errors import FarviewError
from repro.common.records import default_schema
from repro.core.api import FarviewClient
from repro.core.faults import FaultEvent, FaultInjector, FaultPlan
from repro.core.node import FarviewNode
from repro.core.query import select_star
from repro.core.table import FTable
from repro.network.packet import CONTROL_PACKET_BYTES, split_lengths
from repro.operators.selection import Compare
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * 1024


def _node(packet_size, credits, channels):
    sim = Simulator()
    return sim, FarviewNode(sim, FarviewConfig(
        network=NetworkConfig(packet_size=packet_size,
                              initial_credits=credits),
        memory=MemoryConfig(channels=channels, channel_capacity=16 * MB)))


# -- the raw READ in closed form ------------------------------------------------

def _occupancy(net, payload):
    return ((payload + net.header_overhead) / net.line_rate
            + net.per_packet_overhead_ns)


def _credits_bind(net):
    """The regime, from the configuration alone: a full window of
    packets leaves the wire before its first packet's credit is back
    (one occupancy on the wire, one propagation to land)."""
    occupancy = _occupancy(net, net.packet_size)
    return net.initial_credits * occupancy < occupancy + net.one_way_latency_ns


def read_response_ns(config: FarviewConfig, allocator, burst_bytes, length):
    """Closed-form response time of a warm ``table_read`` of ``length``
    bytes on an otherwise idle node.

    Request packet up, the request front end, then the first DRAM burst
    (one TLB hit, the slowest channel's stripe share, the access
    latency); from there the response is a stream of packets of which
    every one but the last is full:

    * **wire-bound** — DRAM refills faster than the wire drains and the
      credit window never closes, so the wire is busy from the first
      packet to the last: the sum of the packets' occupancies, then one
      propagation.
    * **credit-bound** — packet ``k`` is submitted when packet
      ``k - credits`` lands and finds the wire idle, so after the first
      window every packet lands one ``occupancy + one_way`` cycle after
      the packet ``credits`` before it.
    """
    net, mem = config.network, config.memory
    request = ((CONTROL_PACKET_BYTES + net.header_overhead) / net.line_rate
               + net.one_way_latency_ns)
    first_burst = (mem.tlb_hit_ns
                   + allocator.channel_extent(min(burst_bytes, length))
                   / mem.effective_channel_bandwidth
                   + mem.access_latency_ns)
    start = request + net.request_overhead_ns + first_burst
    packets = split_lengths(length, net.packet_size)
    full = _occupancy(net, net.packet_size)
    last = _occupancy(net, packets[-1])
    credits = net.initial_credits
    before_last = len(packets) - 1
    if not _credits_bind(net) or before_last < credits:
        return start + before_last * full + last + net.one_way_latency_ns
    cycles, slot = divmod(before_last - credits, credits)
    landed = (start + (slot + 1) * full + net.one_way_latency_ns
              + cycles * (full + net.one_way_latency_ns))
    return landed + last + net.one_way_latency_ns


READ_LENGTHS = (64, 1_000, 16 * KB, 16 * KB + 64, 100_000, MB)


@pytest.mark.parametrize("channels", [1, 2, 4])
@pytest.mark.parametrize("credits", [1, 2, 8, 32])
@pytest.mark.parametrize("packet_size", [256, 1024, 4096])
def test_raw_read_equals_its_closed_form(packet_size, credits, channels):
    sim, node = _node(packet_size, credits, channels)
    # The regime is a property of the cell, stated before anything runs.
    assert _credits_bind(node.config.network) == (
        (credits, packet_size) in {(1, 256), (1, 1024), (1, 4096),
                                   (2, 256), (2, 1024), (2, 4096),
                                   (8, 256), (8, 1024)})
    # The wire-bound form also needs DRAM to refill a burst faster than
    # the wire drains one; true of every cell (16.2 B/ns a channel
    # against 12.5 B/ns less headers), checked rather than assumed.
    mem, net = node.config.memory, node.config.network
    burst = node.mmu.burst_bytes
    assert (mem.tlb_hit_ns + node.mmu.allocator.channel_extent(burst)
            / mem.effective_channel_bandwidth + mem.access_latency_ns
            < burst // packet_size * _occupancy(net, packet_size))

    client = FarviewClient(node, buffer_capacity=MB + KB)
    client.open_connection()
    schema = default_schema()
    table = FTable("t", schema, MB // schema.row_width)
    client.alloc_table_mem(table)
    rows = schema.empty(table.num_rows)
    rows["a"] = np.arange(table.num_rows)
    client.table_write(table, rows)        # fills the TLB: reads run warm
    image = schema.to_bytes(rows)
    misses = node.mmu.tlb.misses
    for length in READ_LENGTHS:
        data, elapsed = client.table_read(table, 0, length)
        assert data == image[:length]
        expected = read_response_ns(node.config, node.mmu.allocator, burst,
                                    length)
        assert elapsed == pytest.approx(expected, rel=1e-12, abs=0), (
            length, elapsed - expected)
    assert node.mmu.tlb.misses == misses


def test_raw_read_of_four_mebibytes_at_the_default_configuration():
    """The ``scan_stream`` read: two pages, 256 bursts, 4,096 packets."""
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(
        memory=MemoryConfig(channel_capacity=16 * MB)))
    client = FarviewClient(node, buffer_capacity=4 * MB + KB)
    client.open_connection()
    schema = default_schema()
    table = FTable("t", schema, 4 * MB // schema.row_width)
    client.alloc_table_mem(table)
    client.table_write(table, schema.empty(table.num_rows))
    _data, elapsed = client.table_read(table)
    assert not _credits_bind(node.config.network)
    assert elapsed == pytest.approx(read_response_ns(
        node.config, node.mmu.allocator, node.mmu.burst_bytes, 4 * MB),
        rel=1e-12, abs=0)


def test_the_node_charges_the_configured_request_overhead():
    """The request front end pays ``NetworkConfig.request_overhead_ns``:
    doubling it makes the same warm 16 KiB read exactly 1,200 ns
    slower."""
    def warm_read(overhead_ns):
        sim = Simulator()
        node = FarviewNode(sim, FarviewConfig(
            network=NetworkConfig(request_overhead_ns=overhead_ns),
            memory=MemoryConfig(channel_capacity=16 * MB)))
        client = FarviewClient(node, buffer_capacity=MB)
        client.open_connection()
        schema = default_schema()
        table = FTable("t", schema, 16 * KB // schema.row_width)
        client.alloc_table_mem(table)
        client.table_write(table, schema.empty(table.num_rows))
        _data, elapsed = client.table_read(table)
        assert elapsed == pytest.approx(read_response_ns(
            node.config, node.mmu.allocator, node.mmu.burst_bytes, 16 * KB),
            rel=1e-12, abs=0)
        return elapsed

    base = warm_read(1_200.0)
    assert base == pytest.approx(4_723.65, abs=0.005)
    assert warm_read(2_400.0) - base == pytest.approx(1_200.0, rel=1e-12)


# -- four mixed flows under small credit windows: the golden grid ---------------

GRID_ROWS = (16, 1_000, 5_000, 333)
GRID_STAGGER_NS = 137.5
#: Both waves complete in this client order in every cell, and the
#: result bytes cannot depend on the cell at all.
GRID_COMPLETION_ORDER = (0, 3, 1, 2, 0, 3, 1, 2)
GRID_DIGEST = "f73096673f778de4"
#: packet size -> (responses landed per QP, packets granted the
#: downlink), deploy runs included.
GRID_PACKETS = {
    256: ((9, 500, 1875, 168), 2552),
    1000: ((3, 128, 480, 44), 655),
    1024: ((3, 126, 471, 42), 642),
    4096: ((3, 32, 120, 12), 167),
}
#: (credits, packet size, channels) -> (``sim.now`` as each of the eight
#: operations completed, ``downlink.occupied_ns`` at the end), as the
#: commit before the callback data plane (04f7bfe) printed them.
GRID_GOLDEN = {
    (1, 256, 1): (
        (8581273.60691362, 8647191.75111122, 8774146.475061974,
         9071974.231111651, 9076487.574321529, 9142443.218519129,
         9269397.942469882, 9567225.69851956),
        68520.95999999772),
    (1, 256, 2): (
        (8568165.45876546, 8632613.611851944, 8760567.051852081,
         9057872.091852374, 9062369.882222744, 9126839.483210465,
         9254792.923210602, 9552097.963210896),
        68520.95999999772),
    (1, 256, 4): (
        (8561645.261234598, 8625322.541234665, 8753773.141728628,
         9050828.141235095, 9055294.077037565, 9119042.733580843,
         9247493.334074806, 9544548.333581273),
        68520.95999999772),
    (1, 1000, 1): (
        (8217898.646913601, 8238432.79111114, 8271655.431111154,
         8357445.431111188, 8360445.974321064, 8381017.618518602,
         8414240.258518618, 8500030.258518651),
        56380.16000000062),
    (1, 1000, 2): (
        (8204790.4987654565, 8223839.210864231, 8258011.6928395545,
         8343340.492839587, 8346309.431111191, 8365395.643209966,
         8399568.12518529, 8484896.92518532),
        56380.16000000062),
    (1, 1000, 4): (
        (8198236.424691387, 8216563.581234604, 8251286.221234619,
         8336239.821234652, 8339192.957037121, 8357557.613580338,
         8392280.253580352, 8477233.853580385),
        56380.16000000062),
    (1, 1024, 1): (
        (8215530.88691356, 8235308.631111097, 8268525.511111109,
         8352791.191111134, 8355791.73432101, 8375606.978518547,
         8408823.858518558, 8493089.538518585),
        56296.95999999983),
    (1, 1024, 2): (
        (8202422.738765415, 8220718.652839496, 8254968.572839507,
         8338590.652839531, 8341559.591111136, 8359893.005185217,
         8394142.925185226, 8477765.005185252),
        56296.95999999983),
    (1, 1024, 4): (
        (8195868.664691346, 8213439.42123456, 8248156.301234572,
         8331583.661234598, 8334536.797037067, 8352145.053580281,
         8386861.933580293, 8470289.29358032),
        56296.95999999983),
    (1, 4096, 1): (
        (8121795.446913586, 8130514.500740745, 8139500.7071605,
         8168077.140740748, 8171077.6839506235, 8179834.237777783,
         8188820.444197537, 8217396.877777785),
        53256.96000000018),
    (1, 4096, 2): (
        (8108687.298765441, 8115633.610864208, 8125862.650864209,
         8153114.410864211, 8156083.349135815, 8163067.161234582,
         8173296.201234583, 8200547.961234584),
        53256.96000000018),
    (1, 4096, 4): (
        (8102133.224691372, 8108499.301728409, 8118810.18172841,
         8146061.941728411, 8149015.07753088, 8155418.654567917,
         8165729.534567918, 8192981.294567919),
        53256.96000000018),
    (2, 256, 1): (
        (8338540.246913362, 8372660.071110888, 8435133.755061552,
         8588898.955061708, 8592635.418271584, 8626792.742469152,
         8689266.426419837, 8843031.626419993),
        68520.95999999772),
    (2, 256, 2): (
        (8325432.098765217, 8358039.610863979, 8421554.331851663,
         8574798.41185182, 8578503.270123426, 8611148.282222223,
         8674663.003209947, 8827907.083210103),
        68520.95999999772),
    (2, 256, 4): (
        (8318890.74074053, 8350790.861234353, 8414760.421728203,
         8567748.741728358, 8571437.797530828, 8603388.134074073,
         8667357.69456797, 8820346.014568124),
        68520.95999999772),
    (2, 1000, 1): (
        (8153955.446913578, 8165519.191111114, 8181191.831111121,
         8229833.031111141, 8232833.574321017, 8244434.818518553,
         8260107.45851856, 8308748.65851858),
        56380.16000000062),
    (2, 1000, 2): (
        (8140847.298765433, 8150982.33185186, 8167563.371851867,
         8215570.571851885, 8218539.510123489, 8228712.043209916,
         8245293.0832099235, 8293300.283209941),
        56380.16000000062),
    (2, 1000, 4): (
        (8134293.224691364, 8143592.781234577, 8160823.021234584,
         8208541.421234603, 8211494.557037072, 8220831.613580286,
         8238061.853580292, 8285780.253580311),
        56380.16000000062),
    (2, 1024, 1): (
        (8151731.686913542, 8163189.191111077, 8178729.351111082,
         8225387.511111097, 8228388.054320973, 8239883.0585185075,
         8255423.218518513, 8302081.378518528),
        56296.95999999983),
    (2, 1024, 2): (
        (8138623.538765397, 8148654.251851821, 8165265.051851828,
         8211286.891851842, 8214255.830123447, 8224324.043209871,
         8240934.843209878, 8286956.683209892),
        56296.95999999983),
    (2, 1024, 4): (
        (8132069.464691328, 8141257.021234539, 8158432.141234546,
         8204163.66123456, 8207116.79703703, 8216341.853580241,
         8233516.973580248, 8279248.493580262),
        56296.95999999983),
    (2, 4096, 1): (
        (8102913.926913585, 8109600.151111116, 8115035.441975312,
         8133241.521975313, 8136242.065185189, 8142965.78938272,
         8148401.080246917, 8166607.160246918),
        53256.96000000018),
    (2, 4096, 2): (
        (8089805.77876544, 8096342.890864207, 8101647.130864209,
         8117745.1308642095, 8120714.069135814, 8127288.681234581,
         8132592.921234583, 8148690.9212345835),
        53256.96000000018),
    (2, 4096, 4): (
        (8083251.704691371, 8088540.421728408, 8094972.261728409,
         8110736.18172841, 8113689.317530879, 8119015.534567916,
         8125447.374567917, 8141211.2945679175),
        53256.96000000018),
    (3, 256, 1): (
        (8260236.646913374, 8284257.031110901, 8325651.835061513,
         8434487.995061552, 8437501.33827143, 8461559.222468987,
         8502954.02641965, 8611790.186419759),
        68520.95999999772),
    (3, 256, 2): (
        (8247128.498765228, 8269636.570863992, 8312068.01185164,
         8420390.250864008, 8423371.989135616, 8445917.561234402,
         8488349.0022221, 8596671.241234558),
        68520.95999999772),
    (3, 256, 4): (
        (8240574.424691159, 8262387.821234365, 8305278.501728186,
         8413337.7817282, 8416303.717530672, 8438154.614073906,
         8481045.29456778, 8589104.574567888),
        68520.95999999772),
    (3, 1000, 1): (
        (8135236.646913571, 8144088.791111108, 8153934.631111114,
         8192625.43111113, 8195625.974321006, 8204515.6185185425,
         8214361.458518549, 8253052.2585185645),
        56380.16000000062),
    (3, 1000, 2): (
        (8122128.498765427, 8129682.731851851, 8140364.971851857,
         8178219.371851873, 8181188.310123477, 8188780.043209901,
         8199462.283209908, 8237316.683209923),
        56380.16000000062),
    (3, 1000, 4): (
        (8115574.424691358, 8122234.381234571, 8133666.621234578,
         8171434.621234593, 8174387.757037062, 8181085.213580276,
         8192517.453580283, 8230285.4535802975),
        56380.16000000062),
    (3, 1024, 1): (
        (8134965.2869135365, 8143404.711111072, 8153236.951111076,
         8192085.271111088, 8195085.814320964, 8203562.7385185,
         8213394.978518504, 8252243.298518515),
        56296.95999999983),
    (3, 1024, 2): (
        (8121857.138765391, 8128985.211851815, 8139735.05185182,
         8177745.051851831, 8180713.990123436, 8187879.56320986,
         8198629.403209865, 8236639.403209876),
        56296.95999999983),
    (3, 1024, 4): (
        (8115303.064691322, 8121499.6612345325, 8132876.781234539,
         8170886.78123455, 8173839.9170370195, 8180074.01358023,
         8191451.133580237, 8229461.133580248),
        56296.95999999983),
    (3, 4096, 1): (
        (8100484.85135802, 8107171.075555551, 8111391.235555552,
         8128406.096790111, 8131406.639999987, 8138130.364197518,
         8142350.524197519, 8159365.385432078),
        53256.96000000018),
    (3, 4096, 2): (
        (8086464.978765439, 8093002.090864207, 8097890.410864208,
         8111649.850864208, 8114618.789135813, 8121193.40123458,
         8126081.721234581, 8139841.161234582),
        53256.96000000018),
    (3, 4096, 4): (
        (8079910.90469137, 8085867.781728407, 8091424.261728409,
         8104638.421728409, 8107591.557530878, 8113585.934567915,
         8119142.414567917, 8132356.574567917),
        53256.96000000018),
    (32, 256, 1): (
        (8114728.378271392, 8123364.042468899, 8129869.002468872,
         8147854.922468854, 8150868.265678729, 8159541.429876236,
         8166046.389876209, 8184032.309876191),
        68520.95999999772),
    (32, 256, 2): (
        (8101539.538765222, 8109452.492839266, 8116306.892839237,
         8133647.772839215, 8136629.511110818, 8144579.965184862,
         8151434.365184833, 8168775.245184811),
        68520.95999999772),
    (32, 256, 4): (
        (8094985.464691153, 8102016.261728161, 8109892.101728128,
         8126856.661728107, 8129822.5975305755, 8136890.894567584,
         8144766.734567551, 8161731.29456753),
        68520.95999999772),
    (32, 1000, 1): (
        (8102455.49135799, 8109658.835555539, 8114151.635555558,
         8130388.976790085, 8133389.519999961, 8140630.36419751,
         8145123.16419753, 8161360.505432057),
        56380.16000000062),
    (32, 1000, 2): (
        (8087894.898765408, 8094675.05283951, 8099945.452839533,
         8111121.052839538, 8114089.991111143, 8120907.645185244,
         8126178.045185267, 8137353.645185272),
        56380.16000000062),
    (32, 1000, 4): (
        (8081340.824691339, 8087192.7417284, 8093499.941728427,
         8103997.141728434, 8106950.277530903, 8112839.6945679635,
         8119146.894567991, 8129644.094567997),
        56380.16000000062),
    (32, 1024, 1): (
        (8102355.011357959, 8109429.075555503, 8114157.3955555195,
         8130252.016790054, 8133252.55999993, 8140364.124197474,
         8145092.44419749, 8161187.065432024),
        56296.95999999983),
    (32, 1024, 2): (
        (8087794.418765377, 8094491.372839472, 8099837.9328394905,
         8110843.292839494, 8113812.231111098, 8120546.685185193,
         8125893.245185211, 8136898.605185214),
        56296.95999999983),
    (32, 1024, 4): (
        (8081240.344691308, 8086993.701728363, 8093400.101728384,
         8103782.101728389, 8106735.237530858, 8112526.094567913,
         8118932.494567934, 8129314.494567939),
        56296.95999999983),
    (32, 4096, 1): (
        (8100403.01135802, 8107089.235555551, 8111309.395555552,
         8128242.416790111, 8131242.959999987, 8137966.684197518,
         8142186.844197519, 8159119.865432078),
        53256.96000000018),
    (32, 4096, 2): (
        (8085842.418765439, 8092704.492839514, 8096924.652839515,
         8107909.280987663, 8110878.219259268, 8117777.793333343,
         8121997.953333344, 8132982.581481492),
        53256.96000000018),
    (32, 4096, 4): (
        (8079288.34469137, 8085245.221728407, 8090801.701728408,
         8100230.861234578, 8103183.9970370475, 8109178.374074085,
         8114734.854074086, 8124164.013580256),
        53256.96000000018),
}


def _run_contention_cell(credits, packet_size, channels):
    """Four connections on one node, tables of 16 / 1,000 / 5,000 / 333
    rows; odd clients ``table_read``, even clients ``SELECT * WHERE
    a < 50`` (deployed beforehand, so both waves run warm); all four
    issued at once, then again ``i * 137.5`` ns apart."""
    sim, node = _node(packet_size, credits, channels)
    schema = default_schema()
    query = select_star(Compare("a", "<", 50))
    clients, tables = [], []
    for i, nrows in enumerate(GRID_ROWS):
        client = FarviewClient(node, buffer_capacity=MB)
        client.open_connection()
        rows = schema.empty(nrows)
        rows["a"] = (np.arange(nrows) * 7 + i) % 100
        rows["b"] = np.arange(nrows) * 0.25
        table = FTable(f"t{i}", schema, nrows)
        client.alloc_table_mem(table)
        client.table_write(table, rows)
        if i % 2 == 0:
            client.far_view(table, query)
        clients.append(client)
        tables.append(table)
    ends, images = [], []

    def issue(i, delay):
        if delay:
            yield sim.timeout(delay)
        if i % 2:
            image = yield from clients[i].table_read_proc(tables[i])
        else:
            image = (yield from clients[i].far_view_proc(tables[i],
                                                         query)).data
        ends.append((i, sim.now))
        images.append((i, image))

    for stagger in (0.0, GRID_STAGGER_NS):
        procs = [sim.process(issue(i, i * stagger)) for i in range(4)]
        sim.run()
        assert all(proc.triggered and proc.ok for proc in procs)
    digest = hashlib.sha256()
    for _i, image in sorted(images, key=lambda entry: entry[0]):
        digest.update(image)
    return (tuple(i for i, _now in ends), tuple(now for _i, now in ends),
            digest.hexdigest()[:16],
            tuple(c.connection.qp.responses_received for c in clients),
            node.link.downlink.transfers, node.link.downlink.occupied_ns)


@pytest.mark.parametrize("cell", sorted(GRID_GOLDEN), ids=str)
def test_contention_grid_matches_the_recorded_run(cell):
    order, ends, digest, responses, transfers, occupied = (
        _run_contention_cell(*cell))
    golden_ends, golden_occupied = GRID_GOLDEN[cell]
    assert order == GRID_COMPLETION_ORDER and digest == GRID_DIGEST
    assert (responses, transfers) == GRID_PACKETS[cell[1]]
    # Exact equality, not a tolerance: repr(float) round-trips.
    assert ends == golden_ends
    assert occupied == golden_occupied


# -- a lone flow's train, cut and stopped: golden cells -----------------------

def _reader(node, nbytes, seed):
    """A warm client holding a table of ``nbytes`` (``a`` cycles 0..99)."""
    schema = default_schema()
    client = FarviewClient(node, buffer_capacity=nbytes + KB)
    client.open_connection()
    table = FTable(f"r{seed}", schema, nbytes // schema.row_width)
    rows = schema.empty(table.num_rows)
    rows["a"] = (np.arange(table.num_rows) * 7 + seed) % 100
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    return client, table


def _cut_by_a_second_flow(credits, delay):
    """A 256 KiB raw READ; ``delay`` ns after it is issued, a second
    connection's 50 % selection starts, its response mid-stream."""
    sim, node = _node(1024, credits, 2)
    read, big = _reader(node, 256 * KB, 1)
    scan, small = _reader(node, 16 * KB, 2)
    query = select_star(Compare("a", "<", 50))
    scan.far_view(small, query)                 # deployed: both run warm
    ends = []

    def issue(tag, delay, proc):
        yield sim.timeout(delay)
        yield from proc
        ends.append((tag, sim.now))

    sim.process(issue("read", 0.0, read.table_read_proc(big)))
    sim.process(issue("scan", delay, scan.far_view_proc(small, query)))
    sim.run()
    return tuple(ends), node.link.downlink.occupied_ns.hex()


def _cut_by_a_link_fault(credits, loss):
    """The same READ; a fault plan degrades the link 6 µs in and
    restores it 8 µs later."""
    sim, node = _node(1024, credits, 2)
    read, big = _reader(node, 256 * KB, 1)
    FaultInjector(node, FaultPlan([
        FaultEvent(sim.now + 6_000.0, "link_degrade", latency_add_ns=300.0,
                   rate_factor=0.5, loss=loss),
        FaultEvent(sim.now + 14_000.0, "link_restore")])).install()
    _data, _elapsed = read.table_read(big)
    return (sim.now,), node.link.downlink.occupied_ns.hex()


def _abandoned_mid_stream(credits):
    """The same READ; 8 µs in its connection is abandoned, and 1 µs
    later a second connection reads 16 KiB."""
    sim, node = _node(1024, credits, 2)
    read, big = _reader(node, 256 * KB, 1)
    other, small = _reader(node, 16 * KB, 2)
    ends = []

    def issue(tag, delay, make):
        yield sim.timeout(delay)
        if make is None:
            read.abandon_connection()
        else:
            yield from make()
        ends.append((tag, sim.now))

    sim.process(issue("read", 0.0, lambda: read.table_read_proc(big)))
    sim.process(issue("abandon", 8_000.0, None))
    sim.process(issue("other", 9_000.0, lambda: other.table_read_proc(small)))
    sim.run()
    return tuple(ends), node.link.downlink.occupied_ns.hex()


def _bound_by_the_window(credits, packet_size, verb):
    """A 64 KiB READ or selection, twice, alone under a credit window of
    one or two packets."""
    sim, node = _node(packet_size, credits, 2)
    client, table = _reader(node, 64 * KB, 1)
    query = select_star(Compare("a", "<", 50))
    if verb == "select":
        client.far_view(table, query)
    ends = []
    for _ in range(2):
        if verb == "select":
            client.far_view(table, query)
        else:
            client.table_read(table)
        ends.append(sim.now)
    return tuple(ends), node.link.downlink.occupied_ns.hex()


def _stopped_inside(credits):
    """The same READ, warm, run to 10 %, 37 %, 50 % and 99 % of its
    time: what the loop reads at each stop."""
    sim, node = _node(1024, credits, 2)
    read, big = _reader(node, 256 * KB, 1)
    start = sim.now
    read.table_read(big)
    took, qp, down = sim.now - start, read.connection.qp, node.link.downlink
    start = sim.now
    proc = sim.process(read.table_read_proc(big))
    seen = []
    for share in (0.1, 0.37, 0.5, 0.99):
        sim.run(until=start + took * share)
        seen.append((qp.responses_received, down.transfers,
                     down.bytes_transferred, down.occupied_ns.hex()))
    sim.run()
    assert proc.ok
    return (sim.now, *seen), down.occupied_ns.hex()


#: credits -> four clients on one node (KiB, verb, first issue at ns,
#: repeats, gap after each ns) under a link fault (degrade at ns, added
#: latency, rate factor, loss, restore after ns); in each, one flow's
#: submit falls on the very instant of a train's grant, so the cut must
#: run the hops due then in the per-packet loop's ticket order.
TIE_SCENARIOS = {
    32: (1024, 4, ((64, "select", 0.0, 2, 137.5),
                   (4, "select", 500.0, 3, 0.0),
                   (4, "read", 0.0, 1, 0.0),
                   (16, "select", 0.0, 3, 137.5)),
         (10371.036940668027, 250.0, 1.0, 0.05, 16738.08965947789)),
    4: (1000, 1, ((256, "select", 500.0, 2, 2000.0),
                  (64, "read", 0.0, 3, 2000.0),
                  (4, "select", 0.0, 3, 137.5),
                  (100, "select", 0.0, 3, 0.0)),
        (22707.165049733045, 0.0, 0.8, 0.05, 3713.895453553846)),
    # Here the grant falls on a credit wait's last landing, whose
    # hand-off restarts the pump after the other flow's submit.
    3: (1000, 2, ((4, "select", 275.0, 4, 137.5),
                  (8, "read", 0.0, 4, 0.0),
                  (8, "read", 275.0, 2, 0.0)),
        (22.61966976436991, 250.0, 0.5, 0.0, 137.5)),
}


def _cut_at_a_tie(credits):
    packet_size, channels, clients, fault = TIE_SCENARIOS[credits]
    sim, node = _node(packet_size, credits, channels)
    query = select_star(Compare("a", "<", 100))
    ends = []

    def issue(i, client, table, verb, delay, repeats, gap):
        if delay:
            yield sim.timeout(delay)
        for repeat in range(repeats):
            if verb == "select":
                yield from client.far_view_proc(table, query)
            else:
                yield from client.table_read_proc(table)
            ends.append((i, repeat, sim.now))
            if gap:
                yield sim.timeout(gap)

    procs = []
    for i, (kib, verb, *timing) in enumerate(clients):
        client, table = _reader(node, kib * KB, i)
        if verb == "select":
            client.far_view(table, query)
        procs.append((i, client, table, verb, *timing))
    at, latency, rate, loss, restore = fault
    start = sim.now
    FaultInjector(node, FaultPlan([
        FaultEvent(start + at, "link_degrade", latency_add_ns=latency,
                   rate_factor=rate, loss=loss),
        FaultEvent(start + at + restore, "link_restore")])).install()
    for args in procs:
        sim.process(issue(*args))
    sim.run()
    return tuple(ends), node.link.downlink.occupied_ns.hex()


#: credits -> (when a fault plan is installed mid-stream, its link
#: degrades as (at ns, rate factor, loss)).  Under 2 credits the fault
#: strikes at the very landing that ends the producer's credit wait for
#: its chunk: after that landing was scheduled, before its hand-off
#: sizes the next packet.  Under 32 a no-op degrade cuts the train 30 ns
#: after a grant, and the fault strikes at the very next grant: after
#: that grant was scheduled, so at the old rate.
STRIKES = {
    2: (45_000.0, ((49_354.436543209806, 0.5, 0.1),)),
    32: (45_533.31654320978, ((45_553.31654320978, 1.0, 0.0),
                              (45_611.63654320978, 0.5, 0.0))),
}


def _struck_at_a_train_hop(credits):
    """The 256 KiB READ, and a link fault that falls on one of its
    train's hops (``STRIKES``)."""
    sim, node = _node(1024, credits, 2)
    read, big = _reader(node, 256 * KB, 1)
    install, degrades = STRIKES[credits]
    ends = []

    def issue():
        yield from read.table_read_proc(big)
        ends.append(sim.now)

    def strike():
        yield sim.timeout(install - sim.now)
        FaultInjector(node, FaultPlan([
            FaultEvent(at, "link_degrade", rate_factor=rate, loss=loss)
            for at, rate, loss in degrades])).install()

    sim.process(issue())
    sim.process(strike())
    sim.run()
    return tuple(ends), node.link.downlink.occupied_ns.hex()


TRAIN_CELLS = {"second_flow": _cut_by_a_second_flow,
               "struck": _struck_at_a_train_hop,
               "tie": _cut_at_a_tie,
               "link_fault": _cut_by_a_link_fault,
               "abandoned": _abandoned_mid_stream,
               "window": _bound_by_the_window,
               "stopped": _stopped_inside}

#: cell -> (what completed and when, or what a stopped run read, and
#: ``downlink.occupied_ns.hex()`` at the end), as the commit before
#: trains (584bed0) printed them.
TRAIN_GOLDEN = {
    ('second_flow', 2, 0.0): (
        (('scan', 4054049.926913579), ('read', 4155828.406913558)),
        '0x1.77b851eb851dbp+14'),
    ('second_flow', 2, 5000.0): (
        (('scan', 4058565.127901232), ('read', 4155798.7279012124)),
        '0x1.77b851eb851dbp+14'),
    ('second_flow', 2, 9137.5): (
        (('scan', 4062756.727901231), ('read', 4155798.7279012124)),
        '0x1.77b851eb851dbp+14'),
    ('second_flow', 32, 0.0): (
        (('scan', 4049523.1279012277), ('read', 4069836.727901189)),
        '0x1.77b851eb851dbp+14'),
    ('second_flow', 32, 5000.0): (
        (('scan', 4054027.447901219), ('read', 4069836.727901189)),
        '0x1.77b851eb851dbp+14'),
    ('second_flow', 32, 9137.5): (
        (('scan', 4058178.4879012113), ('read', 4069836.727901189)),
        '0x1.77b851eb851dbp+14'),
    ('link_fault', 2, 0.0): (
        (146802.8365432105,),
        '0x1.733851eb851dap+14'),
    ('link_fault', 2, 0.1): (
        (146940.59654321047,),
        '0x1.7737ae147ae03p+14'),
    ('link_fault', 32, 0.0): (
        (64113.95654320972,),
        '0x1.a0c28f5c28f4ep+14'),
    ('link_fault', 32, 0.1): (
        (64596.596543209824,),
        '0x1.a84d1eb851eacp+14'),
    ('abandoned', 16): (
        (('abandon', 46129.58320987647),
         ('other', 53186.67555555545),
         ('read', 65463.15555555541)),
        '0x1.775c28f5c28e5p+14'),
    ('abandoned', 32): (
        (('abandon', 46129.58320987647),
         ('other', 53186.67555555545),
         ('read', 65463.15555555541)),
        '0x1.775c28f5c28e5p+14'),
    ('window', 1, 1024, 'read'): (
        (66238.20839506171, 122451.22074074116),
        '0x1.6147ae147ae09p+13'),
    ('window', 1, 1024, 'select'): (
        (4073526.1007407317, 4105276.553086406),
        '0x1.0a851eb851eb2p+13'),
    ('window', 1, 4096, 'read'): (
        (29623.80839506175, 49529.62074074079),
        '0x1.4e147ae147ae1p+13'),
    ('window', 1, 4096, 'select'): (
        (4035797.6207407424, 4048837.4330864223),
        '0x1.f83d70a3d70a3p+12'),
    ('window', 2, 1024, 'read'): (
        (39500.28839506172, 68975.38074074076),
        '0x1.6147ae147ae09p+13'),
    ('window', 2, 1024, 'select'): (
        (4047229.780740736, 4065832.0730864126),
        '0x1.0a851eb851eb2p+13'),
    ('window', 2, 4096, 'read'): (
        (21285.24839506174, 32852.50074074077),
        '0x1.4e147ae147ae1p+13'),
    ('window', 2, 4096, 'select'): (
        (4027672.980740742, 4036650.4730864214),
        '0x1.f83d70a3d70a3p+12'),
    ('tie', 32): (
        ((2, 0, 12039997.288888892),
         (1, 0, 12040998.817777783),
         (3, 0, 12043736.737777792),
         (1, 1, 12044796.577777795),
         (0, 0, 12049049.297777802),
         (1, 2, 12049142.3377778),
         (3, 1, 12050351.85777779),
         (3, 2, 12057971.93061727),
         (0, 1, 12061228.330617238)),
        '0x1.844147ae147bcp+14'),
    ('tie', 4): (
        ((2, 0, 12181117.514074111),
         (2, 1, 12187966.872098822),
         (2, 2, 12194506.952098843),
         (1, 0, 12195852.232098848),
         (3, 0, 12209866.012098853),
         (1, 1, 12218227.503456892),
         (1, 2, 12241355.10345695),
         (3, 1, 12241748.62345695),
         (0, 0, 12254279.15481498),
         (3, 2, 12271464.966173016),
         (0, 1, 12324875.68617304)),
        '0x1.deda28f5c2819p+16'),
    ('tie', 3): (
        ((0, 0, 4017382.644444443),
         (1, 0, 4017822.324444442),
         (2, 0, 4018313.1244444423),
         (0, 1, 4021730.4972839486),
         (1, 1, 4022849.9775308617),
         (2, 1, 4023238.1772839483),
         (0, 2, 4026180.950370368),
         (1, 2, 4027875.5103703677),
         (0, 3, 4030458.6034567878),
         (1, 3, 4032800.5632098736)),
        '0x1.7bc28f5c28f57p+12'),
    ('struck', 2): (
        (156288.59654321047,),
        '0x1.6e7bd70a3d702p+15'),
    ('struck', 32): (
        (73652.5165432097,),
        '0x1.1ae6666666659p+15'),
    ('stopped', 2): (
        (254038.40888889035,
         (275, 277, 305808, '0x1.7e428f5c28f4bp+14'),
         (346, 348, 384192, '0x1.e03d70a3d708dp+14'),
         (380, 382, 421728, '0x1.07947ae147ad5p+15'),
         (508, 510, 563040, '0x1.5fe6666666655p+15')),
        '0x1.6147ae147ae03p+15'),
    ('stopped', 32): (
        (85971.68888889029,
         (256, 257, 283728, '0x1.62a8f5c28f5b3p+14'),
         (327, 336, 370944, '0x1.cfae147ae1465p+14'),
         (365, 374, 412896, '0x1.020f5c28f5c1dp+15'),
         (509, 512, 565248, '0x1.6147ae147ae03p+15')),
        '0x1.6147ae147ae03p+15'),
}


@pytest.mark.parametrize("cell", sorted(TRAIN_GOLDEN, key=repr), ids=repr)
def test_a_cut_or_stopped_train_matches_the_per_packet_run(cell):
    kind, *args = cell
    assert TRAIN_CELLS[kind](*args) == TRAIN_GOLDEN[cell]


#: credits -> :func:`_abandoned_mid_stream` under a window narrow enough
#: that packets still wait in the stream's backlog when its flow's queue
#: empties.  Recorded on the change that drains that backlog like the
#: queue: before it, the credit the next landing handed to the backlog
#: submitted to the dropped flow and raised ``SimulationError: unknown
#: flow`` out of ``sim.run``.
ABANDONED_UNDER_A_NARROW_WINDOW = {
    2: ((('abandon', 46129.58320987647), ('other', 56484.995555555484),
         ('read', 148083.39555555617)), '0x1.775c28f5c28e5p+14'),
    4: ((('abandon', 46129.58320987647), ('other', 53396.675555555485),
         ('read', 94739.31555555573)), '0x1.775c28f5c28e5p+14'),
    8: ((('abandon', 46129.58320987647), ('other', 53487.875555555474),
         ('read', 69327.63555555549)), '0x1.775c28f5c28e5p+14'),
}


@pytest.mark.parametrize("credits", sorted(ABANDONED_UNDER_A_NARROW_WINDOW))
def test_an_abandoned_read_completes_under_any_credit_window(credits):
    """The abandoned READ completes whatever its credit window, as it
    does at 16 and 32 (``TRAIN_GOLDEN``): a dropped flow keeps draining
    until its open stream has."""
    assert (_abandoned_mid_stream(credits)
            == ABANDONED_UNDER_A_NARROW_WINDOW[credits])


# -- a burst's hand-off at a tie: golden cells ---------------------------------

#: scenario -> (credits, packet size, one-way ns, DRAM channel B/ns, DRAM
#: access latency ns, TLB hit ns, TLB miss ns) on a node with an 8 B/ns
#: wire, no packet header or per-packet cost, a 1,024 ns request front
#: end and two DRAM channels; then per client (KiB, verb, first issue at
#: ns, repeats).  On these round numbers a burst lands, and its consumer
#: and next fetch are handed off, at the instant of another flow's DRAM
#: hop or downlink callback.
HAND_OFF_SCENARIOS = {
    "a": ((32, 512, 512.0, 16.0, 0.0, 0.0, 64.0),
          ((128, "read", 512.0, 2), (96, "read", 1024.0, 2))),
    "b": ((8, 1024, 256.0, 32.0, 128.0, 0.0, 128.0),
          ((48, "read", 512.0, 2), (48, "read", 0.0, 3))),
    "c": ((32, 1024, 256.0, 8.0, 0.0, 0.0, 128.0),
          ((96, "read", 0.0, 3), (128, "select", 1024.0, 1))),
    "d": ((4, 512, 512.0, 32.0, 64.0, 16.0, 64.0),
          ((96, "read", 1024.0, 3), (64, "select", 0.0, 2))),
    "e": ((4, 512, 512.0, 32.0, 64.0, 16.0, 64.0),
          ((96, "read", 1024.0, 1), (64, "select", 0.0, 1))),
}


def _hand_off_node(scenario):
    timings, clients = HAND_OFF_SCENARIOS[scenario]
    credits, packet_size, one_way, bandwidth, latency, hit, miss = timings
    sim = Simulator()
    node = FarviewNode(sim, FarviewConfig(
        network=NetworkConfig(line_rate=8.0, packet_size=packet_size,
                              header_overhead=0, one_way_latency_ns=one_way,
                              request_overhead_ns=1024.0,
                              per_packet_overhead_ns=0.0,
                              initial_credits=credits),
        memory=MemoryConfig(channels=2, channel_bandwidth=bandwidth,
                            efficiency=1.0, access_latency_ns=latency,
                            tlb_hit_ns=hit, tlb_miss_ns=miss,
                            channel_capacity=16 * MB)))
    query = select_star(Compare("a", "<", 50))
    issued = []
    for i, (kib, verb, delay, repeats) in enumerate(clients):
        client, table = _reader(node, kib * KB, i)
        if verb == "select":
            client.far_view(table, query)       # deployed: every scan warm

        def scans(client=client, table=table, verb=verb, repeats=repeats):
            for _ in range(repeats):
                if verb == "select":
                    yield from client.far_view_proc(table, query)
                else:
                    yield from client.table_read_proc(table)

        issued.append((f"{verb}{i}", delay, client, table, scans))
    return sim, node, issued


def _pool_state(node):
    """Both DRAM read pipes' and the downlink's occupancy, and the TLB's
    hits and misses."""
    return (*(channel.read_pipe.occupied_ns.hex()
              for channel in node.mmu.channels),
            node.link.downlink.occupied_ns.hex(),
            node.mmu.tlb.hits, node.mmu.tlb.misses)


def _issue(sim, ends, tag, delay, make):
    """Process: ``make()`` after ``delay`` ns; its completion, or the
    typed error it raised, goes into ``ends`` with the time."""
    if delay:
        yield sim.timeout(delay)
    try:
        yield from make()
    except FarviewError as exc:
        ends.append((tag, type(exc).__name__, sim.now))
    else:
        ends.append((tag, sim.now))


def _run_issued(sim, node, issued, more=()):
    """Run every client's scans and the ``(tag, delay, make)`` processes
    of ``more``: what completed or failed, and when."""
    ends = []
    for tag, delay, _client, _table, scans in issued:
        sim.process(_issue(sim, ends, tag, delay, scans))
    for tag, delay, make in more:
        sim.process(_issue(sim, ends, tag, delay, make))
    sim.run()
    return tuple(ends), _pool_state(node)


def _hand_off_at_a_tie(scenario):
    """Every client's scans, as the scenario issues them."""
    return _run_issued(*_hand_off_node(scenario))


def _hand_off_stopped(scenario):
    """The same scans, the run stopped every 4,096 ns up to 16 µs: what
    each stop reads."""
    sim, node, issued = _hand_off_node(scenario)
    ends, start, seen = [], sim.now, []
    for tag, delay, _client, _table, scans in issued:
        sim.process(_issue(sim, ends, tag, delay, scans))
    for stop in range(1, 5):
        sim.run(until=start + stop * 4096.0)
        seen.append((tuple(client.connection.qp.responses_received
                           for _tag, _delay, client, _table, _scans
                           in issued), *_pool_state(node)))
    sim.run()
    return (tuple(ends), *seen), _pool_state(node)


def _hand_off_crashed(scenario, at):
    """The same scans, the node crashed ``at`` ns after they are issued."""
    sim, node, issued = _hand_off_node(scenario)
    FaultInjector(node, FaultPlan([FaultEvent(sim.now + at, "node_crash")])
                  ).install()
    return _run_issued(sim, node, issued)


def _hand_off_faulted(scenario, at):
    """The same scans, every scanned table freed ``at`` ns after they are
    issued: the next burst's translation faults."""
    sim, node, issued = _hand_off_node(scenario)

    def free(client, table):
        node.free_table_mem(client.connection, table)
        yield from ()

    return _run_issued(sim, node, issued, [
        (f"free{i}", at, partial(free, client, table))
        for i, (_tag, _delay, client, table, _scans) in enumerate(issued)])


HAND_OFF_CELLS = {"tie": _hand_off_at_a_tie, "stopped": _hand_off_stopped,
                  "crashed": _hand_off_crashed,
                  "memory_fault": _hand_off_faulted}

HAND_OFF_GRID = (("tie", "a"), ("tie", "b"), ("tie", "c"), ("tie", "d"),
                 ("stopped", "c"), ("stopped", "d"),
                 ("crashed", "a", 8192.0), ("crashed", "c", 8192.0),
                 ("crashed", "d", 6144.0), ("memory_fault", "e", 2048.0),
                 ("memory_fault", "e", 4096.0))

#: cell -> (what completed or failed and when, or what each stop of a
#: stopped run read, then both DRAM read pipes' and the downlink's
#: ``occupied_ns.hex()`` and the TLB's hits and misses at the end), as the
#: commit before the hand-off was callbacks (51c24a8) printed them, where
#: a reader process fed a consumer process through a two-slot queue.
HAND_OFF_GOLDEN = {
    ('tie', 'a'):
        ((('read1', 91720.0), ('read0', 99464.0)),
         ('0x1.c000000000000p+13',
          '0x1.c000000000000p+13',
          '0x1.c000000000000p+15',
          28,
          2)),
    ('tie', 'b'):
        ((('read0', 45072.0), ('read1', 52248.0)),
         ('0x1.e000000000000p+11',
          '0x1.e000000000000p+11',
          '0x1.e000000000000p+14',
          15,
          2)),
    ('tie', 'c'):
        ((('select1', 4079680.0), ('read0', 4110416.0)),
         ('0x1.1000000000000p+15',
          '0x1.1000000000000p+15',
          '0x1.a040000000000p+15',
          34,
          2)),
    ('tie', 'd'):
        ((('select1', 4071384.0), ('read0', 4132280.0)),
         ('0x1.e000000000000p+12',
          '0x1.e000000000000p+12',
          '0x1.8060000000000p+15',
          30,
          2)),
    ('stopped', 'c'):
        (((('select1', 4079680.0), ('read0', 4110416.0)),
          ((11, 65),
           '0x1.8000000000000p+13',
           '0x1.8000000000000p+13',
           '0x1.3880000000000p+13',
           12,
           2),
          ((33, 75),
           '0x1.0000000000000p+14',
           '0x1.0000000000000p+14',
           '0x1.b880000000000p+13',
           16,
           2),
          ((49, 91),
           '0x1.3000000000000p+14',
           '0x1.3000000000000p+14',
           '0x1.1c40000000000p+14',
           19,
           2),
          ((65, 107),
           '0x1.6000000000000p+14',
           '0x1.6000000000000p+14',
           '0x1.5c40000000000p+14',
           22,
           2)),
         ('0x1.1000000000000p+15',
          '0x1.1000000000000p+15',
          '0x1.a040000000000p+15',
          34,
          2)),
    ('stopped', 'd'):
        (((('select1', 4071384.0), ('read0', 4132280.0)),
          ((5, 69),
           '0x1.8000000000000p+11',
           '0x1.8000000000000p+11',
           '0x1.4500000000000p+12',
           12,
           2),
          ((33, 93),
           '0x1.a000000000000p+11',
           '0x1.a000000000000p+11',
           '0x1.0a80000000000p+13',
           13,
           2),
          ((61, 113),
           '0x1.c000000000000p+11',
           '0x1.c000000000000p+11',
           '0x1.6480000000000p+13',
           14,
           2),
          ((89, 130),
           '0x1.c000000000000p+11',
           '0x1.c000000000000p+11',
           '0x1.bb00000000000p+13',
           14,
           2)),
         ('0x1.e000000000000p+12',
          '0x1.e000000000000p+12',
          '0x1.8060000000000p+15',
          30,
          2)),
    ('crashed', 'a', 8192.0):
        ((('read0', 'NodeFailedError', 62024.0),
          ('read1', 'NodeFailedError', 66696.0)),
         ('0x1.8000000000000p+12',
          '0x1.8000000000000p+12',
          '0x1.8000000000000p+14',
          12,
          2)),
    ('crashed', 'c', 8192.0):
        ((('select1', 'NodeFailedError', 4067120.0),
          ('read0', 'NodeFailedError', 4069424.0)),
         ('0x1.0000000000000p+14',
          '0x1.0000000000000p+14',
          '0x1.5040000000000p+14',
          16,
          2)),
    ('crashed', 'd', 6144.0):
        ((('select1', 'NodeFailedError', 4056480.0),
          ('read0', 'NodeFailedError', 4062736.0)),
         ('0x1.8000000000000p+11',
          '0x1.8000000000000p+11',
          '0x1.0080000000000p+14',
          12,
          2)),
    ('memory_fault', 'e', 2048.0):
        ((('free0', 4043512.0),
          ('free1', 4043512.0),
          ('read0', 'TranslationFault', 4044032.0),
          ('select1', 'TranslationFault', 4049248.0)),
         ('0x1.8000000000000p+10',
          '0x1.8000000000000p+10',
          '0x1.8100000000000p+12',
          6,
          2)),
    ('memory_fault', 'e', 4096.0):
        ((('free0', 4045560.0),
          ('free1', 4045560.0),
          ('select1', 4056480.0),
          ('read0', 'TranslationFault', 4062736.0)),
         ('0x1.8000000000000p+11',
          '0x1.8000000000000p+11',
          '0x1.0080000000000p+14',
          12,
          2)),
}


@pytest.mark.parametrize("cell", HAND_OFF_GRID, ids=repr)
def test_a_burst_hand_off_at_a_tie_matches_the_process_run(cell):
    """Run inline only where the loop would run it next, a burst's
    hand-off keeps every completion, stop reading, pipe occupancy and
    TLB count; a crash or a fault mid-scan still fails the verb with
    its typed error."""
    kind, *args = cell
    assert HAND_OFF_CELLS[kind](*args) == HAND_OFF_GOLDEN[cell]


def test_a_dropped_flow_leaves_the_arbiter_once_its_streams_end():
    """A flow dropped mid-response drains only while a stream on it is
    open: once a crash has failed both scans mid-stream (each abandoning
    its response stream) and both connections are abandoned, the
    downlink arbiter keeps no trace of either flow."""
    sim, node, issued = _hand_off_node("d")
    FaultInjector(node, FaultPlan([
        FaultEvent(sim.now + 6144.0, "node_crash")])).install()
    ends, _state = _run_issued(sim, node, issued)
    assert [end[1] for end in ends] == ["NodeFailedError"] * 2
    for _tag, _delay, client, _table, _scans in issued:
        client.abandon_connection()
    sim.run()
    arbiter = node.link.down_arbiter
    assert (arbiter._order, arbiter._open, arbiter._draining) == ([], {},
                                                                  set())
