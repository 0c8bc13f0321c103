"""Dynamic regions: allocation and runtime partial reconfiguration (§3.2, §4.5).

The FPGA is divided into pre-defined, fixed-size dynamic regions.  Each
serves one client connection and hosts one operator pipeline.  Pipelines
are swapped at runtime ("on the order of milliseconds, depending on the
size of the region") without disturbing other regions.
"""

from __future__ import annotations

import enum

from ..common.config import OperatorStackConfig
from ..common.errors import (OperatorError, RegionFailedError,
                             RegionUnavailableError)
from ..sim.engine import Simulator


class RegionState(enum.Enum):
    FREE = "free"
    CONFIGURING = "configuring"
    READY = "ready"
    #: The region hardware failed (fault injection): it serves nothing and
    #: is never allocated until repaired.
    FAILED = "failed"


class DynamicRegion:
    """One isolated, reconfigurable slot in the operator stack."""

    def __init__(self, sim: Simulator, config: OperatorStackConfig, index: int):
        self.sim = sim
        self.config = config
        self.index = index
        self.state = RegionState.FREE
        self.loaded_pipeline: str | None = None
        #: ``(build handle, build key, build epoch)``: see :meth:`refuse`.
        self.refused: tuple | None = None
        self.owner_qp: int | None = None
        self.reconfigurations = 0

    def holds(self, signature: str) -> bool:
        """Is ``signature`` resident, or must the region reconfigure?"""
        return self.loaded_pipeline == signature

    def refuse(self, build, key: str, epoch: int) -> None:
        """Record that join build ``build`` (a Query's handle) on ``key``
        overflowed the on-chip hash here at ``epoch``: ``auto`` keeps the
        join on the client until :meth:`unload` or :meth:`forget`."""
        self.refused = build, key, epoch

    def refuses(self, build, key: str, epoch: int) -> bool:
        """Did exactly this build overflow here, at this epoch?"""
        return self.refused == (build, key, epoch)

    def forget(self) -> None:
        """Forget a refused build: the node recovered, its pool empty."""
        self.refused = None

    def unload(self) -> None:
        """Forget the resident pipeline, and with it a refused build."""
        self.loaded_pipeline = self.refused = None

    def release(self) -> None:
        # A failed region drops its owner but stays failed until
        # repaired — it must never be handed to the next connection.
        if self.state is not RegionState.FAILED:
            self.state = RegionState.FREE
        self.unload()
        self.owner_qp = None

    def fail(self) -> None:
        """Fault injection: the region hardware dies mid-pipeline.  Any
        resident pipeline is lost; queries touching it raise
        :class:`~repro.common.errors.RegionFailedError`."""
        self.state = RegionState.FAILED
        self.unload()

    def repair(self) -> None:
        """Fault injection: bring a failed region back (empty — the owner,
        if still connected, reconfigures on its next query)."""
        if self.state is not RegionState.FAILED:
            return
        self.state = (RegionState.FREE if self.owner_qp is None
                      else RegionState.READY)

    def load_pipeline(self, pipeline_name: str):
        """Process: partial reconfiguration of this region (ms-scale).

        Loading the pipeline that is already resident is free — the paper's
        pipelines are precompiled bitstreams cached per query shape.
        """
        if self.state is RegionState.FAILED:
            raise RegionFailedError(f"region {self.index} has failed")
        if self.owner_qp is None:
            raise OperatorError(f"region {self.index} has no owner")
        if self.state is RegionState.CONFIGURING:
            raise OperatorError(f"region {self.index} is mid-reconfiguration")
        if self.holds(pipeline_name):
            self.state = RegionState.READY
            return
        self.state = RegionState.CONFIGURING
        yield self.sim.timeout(self.config.reconfiguration_ns)
        if self.state is RegionState.FAILED:
            # The region died during reconfiguration.
            raise RegionFailedError(
                f"region {self.index} failed mid-reconfiguration")
        self.unload()
        self.loaded_pipeline = pipeline_name
        self.state = RegionState.READY
        self.reconfigurations += 1

class RegionManager:
    """Allocates the fixed pool of dynamic regions to client connections."""

    def __init__(self, sim: Simulator, config: OperatorStackConfig):
        self.regions = [DynamicRegion(sim, config, i)
                        for i in range(config.regions)]

    def acquire(self, qp_id: int) -> DynamicRegion:
        """Assign a free region to a connection, or raise."""
        for region in self.regions:
            if region.state is RegionState.FREE and region.owner_qp is None:
                region.owner_qp = qp_id
                return region
        raise RegionUnavailableError(
            f"all {len(self.regions)} dynamic regions are in use")

    def release(self, region: DynamicRegion) -> None:
        region.release()

    @property
    def free_count(self) -> int:
        return sum(1 for r in self.regions
                   if r.state is RegionState.FREE and r.owner_qp is None)
