"""Figure 17 (repo extension): availability under deterministic fault injection.

The paper evaluates a healthy Farview node; a disaggregated pool, however,
lives or dies by what happens when a memory node does (§1's TCO argument
assumes failures are survivable).  This experiment injects seed-reproducible
node crashes (:mod:`repro.core.faults`) into the six-client scatter-gather
scan workload and measures what the recovery machinery — k-replica shard
placement, candidate failover, typed errors, capped-backoff retries —
buys:

* **fig17a** — successful-query throughput (queries/ms) vs the number of
  injected crash/recover pairs on a 4-node pool, with (``k=2``) and
  without (``k=1``) replication.
* **fig17b** — p99 latency (µs) of the *successful* queries on the same
  sweep: failover and retries cost tail latency, not correctness.
* **fig17c** — availability (% of queries that succeed) vs pool size when
  one node permanently crashes mid-workload.

Correctness is asserted inline, not just plotted:

* every successful query's merged result is sha256-identical to the
  no-fault reference (replicas are byte-identical copies and failover
  preserves shard order — wrong bytes are impossible, only typed errors);
* with ``k=2``, a single node crash loses **zero** queries;
* without replication, affected queries fail with typed
  :class:`~repro.common.errors.FaultError` subclasses — never hangs,
  never silent corruption.

Crashes are fail-stop with amnesia: a recovered node comes back empty
under a new incarnation, so ``k=1`` queries on its shard keep failing
after recovery (the bytes are gone) while ``k=2`` keeps serving from the
replica.  Every run is deterministic: same seed → same fault schedule →
same per-query outcomes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..common.errors import FarviewError
from ..core.api import ClusterClient, canonical_result_bytes
from ..core.cluster import FarviewCluster
from ..core.faults import FaultEvent, FaultInjector, FaultPlan, RetryPolicy
from ..core.partition import PartitionSpec
from ..core.query import select_star
from ..sim.engine import Simulator
from ..sim.stats import Series
from ..workloads.generator import selection_workload
from .common import EXPERIMENT_CONFIG, ExperimentResult, us

KB = 1024

NUM_CLIENTS = 6
ROUNDS = 6                    # sequential queries per client
TABLE_KB = 32                 # per client (small: many queries per run)
SELECTIVITY = 0.5
CRASH_COUNTS = (0, 1, 2, 3)   # injected crash/recover pairs (fig17a/b)
NODE_COUNTS = (1, 2, 4, 8)    # pool sizes (fig17c)
BASE_SEED = 170

#: Typed errors a faulty run is allowed to surface (anything else — or a
#: hang — is a bug the in-experiment asserts catch).
_TYPED_ERRORS = {"NodeFailedError", "RequestTimeoutError",
                 "DegradedResultError", "RegionFailedError"}


def _trial(num_nodes: int, replicas: int, plan: FaultPlan | None = None,
           rounds: int = ROUNDS):
    """One deterministic run of the 6-client workload.

    Builds a fresh pool, uploads each client's table under ``replicas``-way
    placement, warms every pipeline, then runs ``rounds`` sequential
    scans per client concurrently — under ``plan``'s faults, if given.
    Returns ``(workload_start_ns, duration_ns, outcomes)`` where
    ``outcomes[i]`` is a list of ``("ok", latency_ns, sha256)`` or
    ``("err", latency_ns, error_type_name)`` per query of client ``i``.
    """
    sim = Simulator()
    cluster = FarviewCluster(sim, num_nodes, EXPERIMENT_CONFIG)
    clients, tables, queries = [], [], []
    num_rows = TABLE_KB * KB // 64
    for i in range(NUM_CLIENTS):
        cc = ClusterClient(cluster)
        cc.open_connection()
        cc.retry_policy = RetryPolicy(max_attempts=3,
                                      base_backoff_ns=2_000.0,
                                      max_backoff_ns=32_000.0)
        workload = selection_workload(num_rows, SELECTIVITY,
                                      seed=BASE_SEED + i)
        table = cc.create_table(f"T{i}", workload.schema, workload.rows,
                                PartitionSpec(replicas=replicas))
        clients.append(cc)
        tables.append(table)
        queries.append(select_star(workload.predicate))
    # Deploy all shard pipelines before measuring (§3.2: reconfiguration
    # is excluded from response times).
    for cc, table, query in zip(clients, tables, queries):
        cc.far_view(table, query)

    start = sim.now
    if plan is not None:
        FaultInjector(cluster, plan).install()
    outcomes: list[list[tuple]] = [[] for _ in range(NUM_CLIENTS)]

    def worker(i):
        for _round in range(rounds):
            t0 = sim.now
            try:
                result = yield from clients[i].far_view_proc(tables[i],
                                                             queries[i])
            except FarviewError as exc:
                outcomes[i].append(("err", sim.now - t0,
                                    type(exc).__name__))
            else:
                sha = hashlib.sha256(
                    canonical_result_bytes(result)).hexdigest()
                outcomes[i].append(("ok", sim.now - t0, sha))

    procs = [sim.process(worker(i), name=f"fig17.client{i}")
             for i in range(NUM_CLIENTS)]
    sim.run()
    assert all(p.triggered for p in procs), "a worker never completed (hang)"
    return start, sim.now - start, outcomes


def _shift(plan: FaultPlan, offset_ns: float) -> FaultPlan:
    """Rebase a plan's (relative) event times onto an absolute start."""
    from dataclasses import replace
    return FaultPlan([replace(ev, at_ns=ev.at_ns + offset_ns)
                      for ev in plan], seed=plan.seed)


def _check_outcomes(outcomes, reference_shas, label: str):
    """The experiment's correctness teeth (see module docstring)."""
    oks, errs = 0, 0
    latencies = []
    for i, per_client in enumerate(outcomes):
        for tag, latency, detail in per_client:
            if tag == "ok":
                assert detail == reference_shas[i], (
                    f"{label}: client {i} got wrong bytes under faults")
                oks += 1
                latencies.append(latency)
            else:
                assert detail in _TYPED_ERRORS, (
                    f"{label}: untyped failure {detail}")
                errs += 1
    return oks, errs, latencies


def _reference(num_nodes: int, replicas: int):
    """No-fault run: workload timing + per-client reference sha256s."""
    start, duration, outcomes = _trial(num_nodes, replicas)
    shas = []
    for per_client in outcomes:
        assert all(tag == "ok" for tag, _l, _d in per_client)
        client_shas = {d for _t, _l, d in per_client}
        assert len(client_shas) == 1, "no-fault run must be stable"
        shas.append(client_shas.pop())
    return start, duration, shas


def run_fault_sweep(crash_counts=CRASH_COUNTS,
                    num_nodes: int = 4) -> tuple[ExperimentResult,
                                                 ExperimentResult]:
    """fig17a (throughput) + fig17b (p99 latency) vs injected crashes."""
    throughput = {1: Series("k=1"), 2: Series("k=2")}
    p99 = {1: Series("k=1"), 2: Series("k=2")}
    for replicas in (1, 2):
        start, duration, shas = _reference(num_nodes, replicas)
        for crashes in crash_counts:
            if crashes == 0:
                _s, dur, outcomes = _trial(num_nodes, replicas)
            else:
                plan = _shift(
                    FaultPlan.random(BASE_SEED + crashes, num_nodes,
                                     horizon_ns=duration, crashes=crashes,
                                     mean_outage_ns=duration / 4.0),
                    start)
                _s, dur, outcomes = _trial(num_nodes, replicas, plan)
            oks, errs, latencies = _check_outcomes(
                outcomes, shas, f"fig17a[k={replicas},c={crashes}]")
            assert oks + errs == NUM_CLIENTS * ROUNDS
            throughput[replicas].add(crashes, oks / (dur / 1e6))
            p99[replicas].add(
                crashes,
                us(float(np.percentile(latencies, 99))) if latencies
                else 0.0)
    result_a = ExperimentResult(
        experiment_id="fig17a",
        title=f"fault injection: successful-query throughput, "
              f"{num_nodes}-node pool",
        x_label="crash/recover pairs", y_label="queries/ms",
        series=[throughput[1], throughput[2]],
        notes=[f"{NUM_CLIENTS} clients x {ROUNDS} scans of {TABLE_KB} KiB "
               f"tables; crashes are fail-stop with amnesia",
               "k=2 fails over to ring replicas; k=1 queries on a dead "
               "shard fail typed (never wrong bytes, never hangs)"])
    result_b = ExperimentResult(
        experiment_id="fig17b",
        title="fault injection: p99 latency of successful queries",
        x_label="crash/recover pairs", y_label="p99 us",
        series=[p99[1], p99[2]],
        notes=["failover + capped-backoff retries buy availability with "
               "tail latency, not correctness: every success is "
               "sha256-identical to the no-fault run"])
    return result_a, result_b


def run_availability(node_counts=NODE_COUNTS) -> ExperimentResult:
    """fig17c: availability vs pool size under one permanent crash."""
    series = {1: Series("k=1"), 2: Series("k=2")}
    for num_nodes in node_counts:
        for replicas in (1, 2):
            k = min(replicas, num_nodes)
            start, duration, shas = _reference(num_nodes, k)
            plan = FaultPlan([FaultEvent(at_ns=start + 0.3 * duration,
                                         kind="node_crash",
                                         node=num_nodes - 1)])
            _s, _dur, outcomes = _trial(num_nodes, k, plan)
            oks, errs, _lat = _check_outcomes(
                outcomes, shas, f"fig17c[n={num_nodes},k={k}]")
            if replicas == 2 and num_nodes >= 2:
                # The headline guarantee: with k=2 a single node crash
                # loses zero queries.
                assert errs == 0, (
                    f"fig17c: lost {errs} queries despite k=2 replication")
            series[replicas].add(num_nodes,
                                 100.0 * oks / (oks + errs))
    return ExperimentResult(
        experiment_id="fig17c",
        title="availability under one permanent node crash (30% into the "
              "workload)",
        x_label="nodes", y_label="% queries ok",
        series=[series[1], series[2]],
        notes=["k=2 with >= 2 nodes: 100% — every shard keeps a live "
               "byte-identical replica",
               "k=1: the dead node's shards are gone (amnesia), queries "
               "touching them fail with typed errors until re-created"])


def run() -> list[ExperimentResult]:
    result_a, result_b = run_fault_sweep()
    return [result_a, result_b, run_availability()]
