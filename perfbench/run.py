#!/usr/bin/env python3
"""The repo benchmark: one workload, one process, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs and the serial reference are made from ``--seed`` before any clock
starts.  A *round* is ``setup`` (simulator, nodes, connections, upload,
deploy) then ``measure`` (the queries/commits), each timed step by step
with ``time.perf_counter``; every check runs after the clock stops.  Rounds
repeat, single-threaded and closed loop, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  Host times are the sum, over
the steps of a round, of each step's fastest time in any round: the work
is deterministic and CPU-bound, so noise only ever adds.  ``--trace 1``
prints the per-layer metrics: exact counters read off public attributes in
untraced rounds, then three rounds under ``cProfile`` folded by source
module (``fv_layers.py``).  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Rounds profiled by ``--trace 1`` and the least any run measures.
TRACED_ROUNDS = 3
MIN_ROUNDS = 3


def _repeatable_memory() -> None:
    """Two process-wide settings without which peak RSS does not repeat;
    called by ``main`` before numpy loads, never on import.

    * Transparent huge pages make numpy's resident size depend on where
      ASLR put each array: sql_join peaked anywhere in 450-498 MB over
      identical runs, and at 429-430 MB without them.
    * glibc moves its mmap threshold at run time, so whether an 8 MiB
      landing buffer is fresh (untouched pages not resident) or recycled
      heap (zero-filled, resident) differs between identical runs:
      scan_stream peaked at 115 MB in one run of five and 129 MB in the
      rest.  Pinned at its maximum, every buffer comes from the heap.
      Timings do not move (pool_scatter setup 0.237-0.256 s before,
      0.238-0.262 s after).
    """
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):      # not glibc: nothing to pin
        return
    mallopt(-3, 32 * 2**20)                # M_MMAP_THRESHOLD


def _load_program():
    """Import the program under test from this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program to measure: {SRC}/repro "
                         f"is missing")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import fv_layers
    import fv_workloads
    return fv_workloads, fv_layers


def snapshot(st) -> dict:
    """Cumulative counters, read off public attributes only."""
    nodes = st.nodes
    hits = sum(n.mmu.tlb.hits for n in nodes)
    misses = sum(n.mmu.tlb.misses for n in nodes)
    return {
        "sim.events": st.sim.events_processed,
        "memory.bytes_read": sum(n.mmu.bytes_read for n in nodes),
        "memory.bytes_written": sum(n.mmu.bytes_written for n in nodes),
        "tlb.hits": hits,
        "tlb.lookups": hits + misses,
        "network.up_bytes": sum(n.link.uplink.bytes_transferred
                                for n in nodes),
        "network.down_bytes": sum(n.link.downlink.bytes_transferred
                                  for n in nodes),
        "network.packets": sum(conn.qp.responses_received for n in nodes
                               for conn in n.connections.values()),
        "fpga.reconfigurations": sum(region.reconfigurations for n in nodes
                                     for region in n.regions.regions),
        "core.node.queries_served": sum(n.queries_served for n in nodes),
        "core.cluster.replica_bytes_moved": sum(
            c.replica_bytes_moved for c in st.cluster_clients),
        "core.versioning.commits": sum(vt.epoch for vt in st.versioned),
    }


class Round:
    """One setup + measure, with everything the checks need.

    ``fold`` (``fv_layers.fold``) runs the two halves under ``cProfile``
    and keeps their per-layer self seconds and call counts.
    """

    def __init__(self, workload, fold=None):
        gc.collect()
        self.setup_steps, st, setup_fold = self._timed(workload.setup, fold)
        # Collect again so that no full collection of setup's garbage
        # lands, at a seed-dependent step, inside the measured phase.
        gc.collect()
        before, sim0 = snapshot(st), st.sim.now

        def measure(lap):
            try:
                return workload.measure(st, lap)
            except Exception:          # an operation raised: the round fails
                traceback.print_exc()
                return None

        self.steps, raw, measure_fold = self._timed(measure, fold)
        if fold:
            self.seconds = {"setup_share": setup_fold[0],
                            "self_share": measure_fold[0]}
            self.calls = measure_fold[1]
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self.setup_s, self.wall_s = sum(self.setup_steps), sum(self.steps)
        self.sim_ns = st.sim.now - sim0
        after = snapshot(st)
        self.counters = {k: after[k] - before[k] for k in after}
        self.attempted = sum(workload.ops.values())
        if raw is None:
            self.failed, self.digest = self.attempted, None
            return

        out = workload.outputs(st, raw)
        wrong = [label for label, image in workload.expected.items()
                 if out.get(label) != image]
        for label in wrong:
            print(f"WRONG: {workload.name} {label} differs from the "
                  f"serial reference", file=sys.stderr)
        # A failed check that covers no operation of its own (an
        # invariant over the whole round) still fails one operation.
        self.failed = max(sum(workload.ops[label] for label in wrong),
                          min(len(wrong), 1))
        digest = hashlib.sha256()
        for label in sorted(out):
            digest.update(out[label])
        self.digest = digest.hexdigest()

    @staticmethod
    def _timed(call, fold):
        """``(seconds per step, result, folded profile)`` of ``call(lap)``;
        the workload calls ``lap()`` at each step boundary."""
        profile = cProfile.Profile() if fold else None
        laps = [time.perf_counter()]
        if profile:
            profile.enable()
        try:
            result = call(lambda: laps.append(time.perf_counter()))
        finally:
            if profile:
                profile.disable()
        laps.append(time.perf_counter())
        steps = [b - a for a, b in zip(laps, laps[1:])]
        return steps, result, fold(profile) if fold else None


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"rounds": len(values), "min": min(values), "q1": q1,
            "median": q2, "q3": q3}


def fastest(step_lists) -> float:
    """Sum over the steps of each step's fastest time in any round."""
    return sum(map(min, zip(*step_lists)))


def end_to_end(workload, rounds) -> dict:
    wall_s = fastest(r.steps for r in rounds)
    return {
        "setup_s": (fastest(r.setup_steps for r in rounds), "s"),
        "wall_s": (wall_s, "s"),
        "scan_mb_per_s": (workload.scan_bytes / 2**20 / wall_s, "MB/s"),
        "sim_ns": (rounds[0].sim_ns, "ns"),
        # Of the process after its first round: later rounds only add
        # allocator history (freed landing buffers glibc has yet to trim).
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
    }


def per_layer(rounds, traced, layers, problems) -> dict:
    wall_s = fastest(r.steps for r in rounds)
    counters = dict(rounds[0].counters)
    hits, lookups = counters.pop("tlb.hits"), counters.pop("tlb.lookups")
    metrics = {name: (value, "B" if "bytes" in name else "count")
               for name, value in counters.items()}
    metrics["sim.host_us_per_event"] = (
        wall_s * 1e6 / max(counters["sim.events"], 1), "us")
    metrics["memory.tlb_hit_ratio"] = (hits / max(lookups, 1), "ratio")
    metrics["core.node.scan_bytes_per_result_byte"] = (
        counters["memory.bytes_read"]
        / max(counters["network.down_bytes"], 1), "ratio")
    metrics["trace.overhead_ratio"] = (
        fastest(r.steps for r in traced) / wall_s, "ratio")

    if any(r.calls != traced[0].calls for r in traced):
        problems.append("a layer's calls differ between traced rounds")
    for share in ("self_share", "setup_share"):
        seconds = {layer: sum(r.seconds[share][layer] for r in traced)
                   for layer in layers}
        total = sum(seconds.values())
        for layer in layers:
            metrics[f"{layer}.{share}"] = (seconds[layer] / total, "share")
    for layer in layers:
        metrics[f"{layer}.calls"] = (traced[0].calls[layer], "count")
    return metrics


def run(args) -> dict:
    loadavg = os.getloadavg()
    fv_workloads, fv_layers = _load_program()
    import numpy

    if args.workload not in fv_workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(fv_workloads.WORKLOADS)}")
    workload = fv_workloads.WORKLOADS[args.workload](args.seed, args.size)

    # A traced run spends a third of its time on untraced rounds (exact
    # counters, and the wall time the tracing overhead is measured
    # against), then profiles TRACED_ROUNDS more.
    rounds, traced = [], []
    deadline = time.perf_counter() + (args.seconds / 3 if args.trace
                                      else args.seconds)
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(Round(workload))
    first, problems = rounds[0], []
    if args.trace:
        traced = [Round(workload, fv_layers.fold)
                  for _ in range(TRACED_ROUNDS)]
        metrics = per_layer(rounds, traced, fv_layers.LAYERS, problems)
    else:
        metrics = end_to_end(workload, rounds)
    if any((r.sim_ns, r.digest, r.counters)
           != (first.sim_ns, first.digest, first.counters)
           for r in rounds + traced):
        problems.append("sim_ns, a counter or a result differs between "
                        "rounds (traced ones included)")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        # Everything below is for reports (--json); the last line of
        # standard output carries only the four keys above.
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "fail_share": failed / attempted,
        "result_digest": first.digest,
        "problems": problems,
        "rounds": {"setup_s": quartiles([r.setup_s for r in rounds]),
                   "wall_s": quartiles([r.wall_s for r in rounds])},
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_at_start": loadavg,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the contract test only")
    parser.add_argument("--json", type=Path,
                        help="also write the full report here")
    args = parser.parse_args(argv)

    _repeatable_memory()
    report = run(args)
    for name, metric in report["metrics"].items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
