"""The 100 Gbps network link between clients and the Farview node.

Each direction is an independent :class:`BandwidthPipe` at line rate (full
duplex), with a fixed one-way propagation latency.  Wire occupancy charges
payload plus RoCE framing overhead; per-packet processing time at the
sender is added as extra occupancy.
"""

from __future__ import annotations

import math

from ..common.config import NetworkConfig
from ..common.errors import QueryError
from ..sim.engine import Event, Simulator
from ..sim.resources import BandwidthPipe, RoundRobinArbiter


class Link:
    """Full-duplex link: ``uplink`` (client->server), ``downlink`` (server->client).

    The fault layer can :meth:`degrade` a link — added propagation
    latency, reduced rate, and packet loss — and :meth:`restore` it.
    Loss is modeled deterministically: a loss probability ``p`` means
    retransmissions inflate the bytes on the wire by ``1/(1-p)`` (the
    expected transmission count), reducing goodput without ever
    corrupting or dropping payload bytes.  An undegraded link takes the
    exact pre-fault-layer code path: ``loss == 0`` short-circuits the
    wire-size branch and the pipes keep their construction-time rates.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig, name: str = "link"):
        self.sim = sim
        self.config = config
        self.name = name
        self.uplink = BandwidthPipe(sim, config.line_rate,
                                    latency_ns=config.one_way_latency_ns,
                                    name=f"{name}.up")
        self.downlink = BandwidthPipe(sim, config.line_rate,
                                      latency_ns=config.one_way_latency_ns,
                                      name=f"{name}.down")
        #: Fair-share arbitration of the downlink between QPs (§4.3).
        self.down_arbiter = RoundRobinArbiter(sim, self.downlink,
                                              name=f"{name}.down_arb")
        self.loss = 0.0
        self.degraded = False
        self.degradations = 0

    # -- fault layer -------------------------------------------------------
    def degrade(self, latency_add_ns: float = 0.0, rate_factor: float = 1.0,
                loss: float = 0.0) -> None:
        """Degrade both directions; affects future transfers only (queued
        transfers already priced are untouched — deterministic).  A
        downlink train is cut first: its packets granted so far keep the
        old rate."""
        if rate_factor <= 0:
            raise QueryError(f"rate_factor must be positive: {rate_factor}")
        if not 0.0 <= loss < 1.0:
            raise QueryError(f"loss must be in [0, 1): {loss}")
        if latency_add_ns < 0:
            raise QueryError(f"negative latency spike: {latency_add_ns}")
        base_latency = self.config.one_way_latency_ns
        self.down_arbiter.cut()
        for pipe in (self.uplink, self.downlink):
            pipe.rate = self.config.line_rate * rate_factor
            pipe.latency_ns = base_latency + latency_add_ns
        self.loss = loss
        self.degraded = True
        self.degradations += 1

    def restore(self) -> None:
        """Undo any degradation, returning the link to its line rate."""
        self.down_arbiter.cut()
        for pipe in (self.uplink, self.downlink):
            pipe.rate = self.config.line_rate
            pipe.latency_ns = self.config.one_way_latency_ns
        self.loss = 0.0
        self.degraded = False

    def wire_size(self, payload_bytes: int) -> int:
        """Bytes on the wire for one packet with ``payload_bytes`` payload."""
        size = payload_bytes + self.config.header_overhead
        if self.loss:
            # Expected retransmissions under loss p: every byte crosses
            # the wire 1/(1-p) times on average.
            size = math.ceil(size / (1.0 - self.loss))
        return size

    def send_up(self, payload_bytes: int) -> Event:
        """Transmit one client->server packet; fires on arrival at server."""
        return self.uplink.transfer(self.wire_size(payload_bytes))

    def register_flow(self, flow_id: int) -> None:
        self.down_arbiter.register_flow(flow_id)

    def unregister_flow(self, flow_id: int) -> None:
        self.down_arbiter.unregister_flow(flow_id)
