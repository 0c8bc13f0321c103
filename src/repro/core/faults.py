"""Deterministic fault injection for the simulated Farview pool.

Disaggregation turns every dereference into a distributed failure mode
(see the surveys in PAPERS.md), yet discrete-event models default to a
perfect world.  This module closes that gap without perturbing it:

* :class:`FaultPlan` — an immutable, seed-reproducible schedule of fault
  events (node crashes/recoveries, link degradation and restoration,
  region failures/repairs, slow-node stragglers).
* :class:`FaultInjector` — installs a plan onto a node, cluster, or node
  sequence by scheduling each event through the ordinary
  :meth:`~repro.sim.engine.Simulator.schedule` path, so faults interleave
  with queries exactly like any other simulator callback and the whole
  run is deterministic: same plan + same workload → identical event
  sequence, ``sim_ns`` and per-query outcomes.
* :class:`RetryPolicy` — per-request deadlines plus capped exponential
  backoff, shared by both client classes.

The contract the perf baselines rely on: **with no plan installed the
fault layer is pure bookkeeping** — a handful of always-true boolean
checks on the hot paths, zero extra simulator events, zero timing
change — so fig6–fig16 ``sim_ns``/``sha256`` stay byte-identical
(enforced by ``bench_perf.py --check``).

Failure semantics are fail-stop with amnesia: a crashed node loses the
contents of its pool (modeled at the placement layer — every shard,
replica, and broadcast-cache entry records the node *incarnation* it was
written under, and a mismatch means the bytes are gone).  Recovery
brings the node back empty under a new incarnation; it never silently
serves pre-crash data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.errors import QueryError
from .cluster import pool_nodes

#: Every fault kind a plan may schedule.
KINDS = ("node_crash", "node_recover",
         "link_degrade", "link_restore",
         "region_fail", "region_repair",
         "node_slow", "node_normal")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *kind* strikes *node* at ``at_ns``.

    ``latency_add_ns`` / ``rate_factor`` / ``loss`` parameterize link
    degradation (and the ``node_slow`` straggler, which is modeled as the
    node's link slowing down); ``region`` selects the dynamic region for
    region faults.
    """

    at_ns: float
    kind: str
    node: int = 0
    region: int = 0
    latency_add_ns: float = 0.0
    rate_factor: float = 1.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise QueryError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.at_ns < 0:
            raise QueryError(f"fault scheduled in the past: {self.at_ns}")
        if self.rate_factor <= 0:
            raise QueryError(f"rate_factor must be positive: {self.rate_factor}")
        if not 0.0 <= self.loss < 1.0:
            raise QueryError(f"loss must be in [0, 1): {self.loss}")


class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultEvent`\\ s.

    Events are kept sorted by ``(at_ns, insertion order)`` so two plans
    built from the same inputs are identical.  An empty plan is valid and
    has strictly no effect on a simulation.
    """

    def __init__(self, events: Sequence[FaultEvent] = (), seed: Optional[int] = None):
        indexed = list(enumerate(events))
        indexed.sort(key=lambda pair: (pair[1].at_ns, pair[0]))
        self.events: tuple[FaultEvent, ...] = tuple(ev for _i, ev in indexed)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def random(cls, seed: int, num_nodes: int, horizon_ns: float,
               crashes: int = 0, degrades: int = 0, region_fails: int = 0,
               stragglers: int = 0, regions_per_node: int = 6,
               mean_outage_ns: float = 50_000.0,
               latency_spike_ns: float = 5_000.0,
               rate_factor: float = 0.25, loss: float = 0.05,
               permanent: bool = False) -> "FaultPlan":
        """A reproducible chaos schedule from one integer seed.

        Each fault strikes a uniformly random node at a uniformly random
        time in ``[0.05, 0.85) * horizon_ns`` and (unless ``permanent``)
        heals after an outage of ``[0.5, 1.5) * mean_outage_ns``.  The
        same ``(seed, arguments)`` always yields the same plan.
        """
        if num_nodes <= 0:
            raise QueryError(f"need at least one node, got {num_nodes}")
        if horizon_ns <= 0:
            raise QueryError(f"horizon must be positive: {horizon_ns}")
        rng = random.Random(seed)
        events: list[FaultEvent] = []

        def strike(start_kind: str, end_kind: str, count: int, **params) -> None:
            for _ in range(count):
                node = rng.randrange(num_nodes)
                at = rng.uniform(0.05, 0.85) * horizon_ns
                outage = rng.uniform(0.5, 1.5) * mean_outage_ns
                extra = dict(params)
                if start_kind == "region_fail":
                    extra["region"] = rng.randrange(max(regions_per_node, 1))
                events.append(FaultEvent(at_ns=at, kind=start_kind,
                                         node=node, **extra))
                if not permanent:
                    events.append(FaultEvent(at_ns=at + outage, kind=end_kind,
                                             node=node,
                                             region=extra.get("region", 0)))

        strike("node_crash", "node_recover", crashes)
        strike("link_degrade", "link_restore", degrades,
               latency_add_ns=latency_spike_ns, rate_factor=rate_factor,
               loss=loss)
        strike("region_fail", "region_repair", region_fails)
        strike("node_slow", "node_normal", stragglers,
               latency_add_ns=latency_spike_ns, rate_factor=rate_factor)
        return cls(events, seed=seed)

    def describe(self) -> str:
        if not self.events:
            return "FaultPlan(empty)"
        kinds: dict[str, int] = {}
        for ev in self.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        summary = ", ".join(f"{k}×{n}" for k, n in sorted(kinds.items()))
        return (f"FaultPlan({len(self.events)} events, seed={self.seed}, "
                f"{summary})")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request deadline + capped exponential backoff (no jitter —
    determinism beats thundering-herd avoidance in a simulator).

    ``deadline_ns`` is checked against the request's *completion* time:
    a late result is discarded (never returned) and the request retried,
    so a timeout can never surface stale or partial bytes.
    """

    max_attempts: int = 3
    base_backoff_ns: float = 2_000.0
    max_backoff_ns: float = 64_000.0
    deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise QueryError(f"need >= 1 attempt, got {self.max_attempts}")
        if self.base_backoff_ns < 0 or self.max_backoff_ns < 0:
            raise QueryError("backoff must be non-negative")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise QueryError(f"deadline must be positive: {self.deadline_ns}")

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): capped exponential."""
        return min(self.base_backoff_ns * (2.0 ** max(attempt - 1, 0)),
                   self.max_backoff_ns)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a node pool as simulator events.

    ``target`` is a :class:`~repro.core.node.FarviewNode`, a
    :class:`~repro.core.cluster.FarviewCluster`, or a sequence of nodes.
    :meth:`install` schedules every plan event; the direct methods
    (:meth:`crash`, :meth:`degrade_link`, …) apply a fault immediately and
    are what the scheduled callbacks dispatch to, so tests can drive
    faults by hand with identical semantics.

    ``applied`` logs ``(sim_ns, kind, node)`` for every fault actually
    applied — the determinism tests compare these logs across runs.
    """

    def __init__(self, target, plan: Optional[FaultPlan] = None):
        self.nodes = pool_nodes(target, "FaultInjector")
        self.sim = self.nodes[0].sim
        self.plan = plan if plan is not None else FaultPlan()
        self.applied: list[tuple[float, str, int]] = []
        self.installed = False

    # -- plan scheduling ---------------------------------------------------
    def install(self) -> "FaultInjector":
        """Schedule every plan event on the simulator (idempotent guard)."""
        if self.installed:
            raise QueryError("fault plan already installed")
        self.installed = True
        now = self.sim.now
        for ev in self.plan.events:
            self.sim.schedule(max(ev.at_ns - now, 0.0), self._apply, ev)
        return self

    def _apply(self, ev: FaultEvent) -> None:
        if ev.kind == "node_crash":
            self.crash(ev.node)
        elif ev.kind == "node_recover":
            self.recover(ev.node)
        elif ev.kind in ("link_degrade", "node_slow"):
            self.degrade_link(ev.node, latency_add_ns=ev.latency_add_ns,
                              rate_factor=ev.rate_factor, loss=ev.loss)
        elif ev.kind in ("link_restore", "node_normal"):
            self.restore_link(ev.node)
        elif ev.kind == "region_fail":
            self.fail_region(ev.node, ev.region)
        else:  # region_repair
            self.repair_region(ev.node, ev.region)

    # -- direct fault application -----------------------------------------
    def _node(self, index: int):
        if not 0 <= index < len(self.nodes):
            raise QueryError(f"fault targets node {index} of "
                             f"{len(self.nodes)}")
        return self.nodes[index]

    def _log(self, kind: str, node: int) -> None:
        self.applied.append((self.sim.now, kind, node))

    def crash(self, index: int) -> None:
        """Fail-stop the node: in-flight and future requests raise
        :class:`~repro.common.errors.NodeFailedError`; pool contents are
        lost (incarnation bump)."""
        self._node(index).fail()
        self._log("node_crash", index)

    def recover(self, index: int) -> None:
        """Bring a crashed node back — empty, under a new incarnation."""
        self._node(index).recover()
        self._log("node_recover", index)

    def degrade_link(self, index: int, latency_add_ns: float = 0.0,
                     rate_factor: float = 1.0, loss: float = 0.0) -> None:
        """Degrade the node's link: added latency, reduced rate, and a
        deterministic loss model (lost packets are retransmitted, so loss
        ``p`` inflates wire bytes by ``1/(1-p)``; payloads are never
        corrupted)."""
        self._node(index).link.degrade(latency_add_ns=latency_add_ns,
                                       rate_factor=rate_factor, loss=loss)
        self._log("link_degrade", index)

    def restore_link(self, index: int) -> None:
        self._node(index).link.restore()
        self._log("link_restore", index)

    def fail_region(self, index: int, region: int) -> None:
        """Fail one dynamic region mid-pipeline; queries on it raise
        :class:`~repro.common.errors.RegionFailedError` and planners fall
        back to the ship path."""
        node = self._node(index)
        regions = node.regions.regions
        if not 0 <= region < len(regions):
            raise QueryError(f"node {index} has no region {region}")
        regions[region].fail()
        self._log("region_fail", index)

    def repair_region(self, index: int, region: int) -> None:
        node = self._node(index)
        regions = node.regions.regions
        if not 0 <= region < len(regions):
            raise QueryError(f"node {index} has no region {region}")
        regions[region].repair()
        self._log("region_repair", index)
