"""FPGA fabric: dynamic regions, resource model (Table 1)."""

import pytest

from repro.common.config import OperatorStackConfig
from repro.common.errors import ConfigurationError, OperatorError, RegionUnavailableError
from repro.fpga.region import DynamicRegion, RegionManager, RegionState
from repro.fpga.resource_model import (
    OPERATOR_COSTS,
    PER_REGION,
    SHELL,
    SYSTEM_6_REGIONS,
    ResourceModel,
    ResourceVector,
    operator_cost,
    render_table1,
    system_cost,
)
from repro.sim.engine import Simulator


# --- dynamic regions ----------------------------------------------------------

@pytest.fixture
def manager(sim):
    return RegionManager(sim, OperatorStackConfig(regions=3))


def test_acquire_assigns_free_regions(sim, manager):
    r1 = manager.acquire(qp_id=10)
    r2 = manager.acquire(qp_id=11)
    assert r1.index != r2.index
    assert manager.free_count == 1
    assert manager.region_of(10) is r1


def test_exhaustion_raises(sim, manager):
    for i in range(3):
        manager.acquire(qp_id=i)
    with pytest.raises(RegionUnavailableError):
        manager.acquire(qp_id=99)


def test_release_recycles(sim, manager):
    region = manager.acquire(qp_id=1)
    manager.release(region)
    assert manager.free_count == 3
    again = manager.acquire(qp_id=2)
    assert again.owner_qp == 2


def test_reconfiguration_takes_milliseconds(sim, manager):
    region = manager.acquire(qp_id=1)

    def proc():
        yield sim.process(region.load_pipeline("selection"))
        return sim.now

    elapsed = sim.run_process(proc())
    assert elapsed == pytest.approx(OperatorStackConfig().reconfiguration_ns)
    assert region.state is RegionState.READY
    assert region.loaded_pipeline == "selection"
    assert region.reconfigurations == 1


def test_reloading_same_pipeline_is_free(sim, manager):
    region = manager.acquire(qp_id=1)

    def proc():
        yield sim.process(region.load_pipeline("selection"))
        t0 = sim.now
        yield sim.process(region.load_pipeline("selection"))
        return sim.now - t0

    assert sim.run_process(proc()) == 0.0
    assert region.reconfigurations == 1


def test_swap_pipeline_reconfigures_again(sim, manager):
    region = manager.acquire(qp_id=1)

    def proc():
        yield sim.process(region.load_pipeline("selection"))
        yield sim.process(region.load_pipeline("groupby"))

    sim.run_process(proc())
    assert region.reconfigurations == 2
    assert region.loaded_pipeline == "groupby"


def test_load_without_owner_rejected(sim):
    region = DynamicRegion(sim, OperatorStackConfig(), 0)
    with pytest.raises(OperatorError):
        next(region.load_pipeline("x"))


def test_region_of_unknown_qp(manager):
    with pytest.raises(OperatorError):
        manager.region_of(12345)


# --- resource model (Table 1) ----------------------------------------------------

def test_shell_plus_regions_reproduces_table1_row():
    total = system_cost(6)
    assert total.luts == pytest.approx(SYSTEM_6_REGIONS.luts)
    assert total.regs == pytest.approx(SYSTEM_6_REGIONS.regs)
    assert total.bram == pytest.approx(SYSTEM_6_REGIONS.bram)
    assert total.dsps == 0.0


def test_no_operator_uses_dsps():
    assert all(v.dsps == 0.0 for v in OPERATOR_COSTS.values())


def test_operator_rows_match_paper():
    assert operator_cost("regex").luts == pytest.approx(0.023)
    assert operator_cost("distinct").bram == pytest.approx(0.08)
    assert operator_cost("distinct").regs == pytest.approx(0.013)
    assert operator_cost("encryption").luts == pytest.approx(0.036)
    assert operator_cost("selection").luts < 0.01


def test_unknown_operator_rejected():
    with pytest.raises(OperatorError):
        operator_cost("teleport")


def test_full_deployment_stays_under_30_percent():
    """§6.1: 'Farview does not utilize more than 30% of the total
    on-chip resources' — with the evaluation's six selection pipelines."""
    model = ResourceModel(regions=6)
    for i in range(6):
        # One combined proj/sel/agg stage plus the packing/sending stage —
        # the granularity of Table 1's operator rows.
        model.deploy(i, ["selection", "packing"])
    total = model.total()
    assert total.luts <= 0.30
    assert total.regs <= 0.30
    assert model.fits(0.35)


def test_heavy_deployment_exceeds_budget():
    model = ResourceModel(regions=6)
    for i in range(6):
        model.deploy(i, ["decryption", "regex", "distinct", "groupby",
                         "encryption", "packing", "sending"])
    assert not model.fits(0.30)  # BRAM-hungry pipelines blow the budget


def test_undeploy_restores(sim):
    model = ResourceModel(regions=2)
    base = model.total()
    model.deploy(0, ["distinct"])
    assert model.total().bram > base.bram
    model.undeploy(0)
    assert model.total().bram == pytest.approx(base.bram)


def test_deploy_validates_region_and_ops():
    model = ResourceModel(regions=2)
    with pytest.raises(OperatorError):
        model.deploy(5, ["selection"])
    with pytest.raises(OperatorError):
        model.deploy(0, ["bogus"])


def test_resource_vector_validation():
    with pytest.raises(ConfigurationError):
        ResourceVector(luts=1.5)
    with pytest.raises(ConfigurationError):
        ResourceVector(regs=-0.1)


def test_vector_addition_saturates():
    v = ResourceVector(luts=0.8) + ResourceVector(luts=0.8)
    assert v.luts == 1.0


def test_render_table1_contains_paper_values():
    text = render_table1()
    assert "6 regions" in text
    assert "24%" in text
    assert "29%" in text
    assert "2.3%" in text   # regex LUTs
    assert "3.6%" in text   # encryption LUTs
    assert "<1%" in text
    assert "8%" in text     # distinct BRAM
