#!/usr/bin/env python3
"""Run every workload of the repo benchmark, or compare two such runs.

    python3 perfbench/suite.py [--seed N] [--workload NAME] [--json OUT]
    python3 perfbench/suite.py --compare A.json B.json

A suite run calls ``run.py`` once per workload per pass, one process at a
time: three untraced passes interleaved across the workloads (so a noisy
neighbour cannot cover one workload's whole sample), then one traced pass.
Host times keep the fastest pass, peak RSS the largest; ``sim_ns`` and the
result digest must agree between passes (``run.py`` already holds every
round of a pass, traced ones included, to the same ``sim_ns``, counters and
digest).

``--compare`` prints each end-to-end metric of each workload with both
values, B as a ratio of A, and the bound from ``BENCHMARK.json``; then every
count that differs.  It exits 1 if B is worse than A by more than a bound,
if either side failed an operation, or - for two runs of one seed - if
``sim_ns``, the result digest or any count differs at all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PASSES = 3
#: Units of per-layer metrics that repeat exactly run to run.
EXACT_UNITS = ("count", "B")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report = Path(tmp) / "report.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--json", str(report)],
            check=True, stdout=subprocess.DEVNULL)
        return json.loads(report.read_text())


def run_suite(workloads, seed: int, seconds: float) -> dict:
    passes = {name: [] for name in workloads}
    for _ in range(PASSES):
        for name in workloads:
            passes[name].append(run_one(name, seed, seconds / PASSES, 0))
    better = {m["name"]: min if m["better"] == "lower" else max
              for m in SPEC["end_to_end"]}
    better["peak_rss_mb"] = max        # a peak: the worst pass counts
    out = {}
    for name in workloads:
        traced = run_one(name, seed, seconds, 1)
        reports = passes[name] + [traced]
        agree = (len({r["result_digest"] for r in reports}) == 1
                 and len({r["metrics"]["sim_ns"]["value"]
                          for r in passes[name]}) == 1)
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        out[name] = {
            "correct": agree and all(r["correct"] for r in reports),
            "attempted": attempted, "failed": failed,
            "fail_share": failed / attempted,
            "result_digest": reports[0]["result_digest"],
            "end_to_end": {
                metric: {"value": pick(r["metrics"][metric]["value"]
                                       for r in passes[name]),
                         "unit": passes[name][0]["metrics"][metric]["unit"],
                         "passes": [r["metrics"][metric]["value"]
                                    for r in passes[name]]}
                for metric, pick in better.items()},
            "per_layer": traced["metrics"],
            "rounds": [r["rounds"] for r in passes[name]],
        }
    return {"seed": seed, "seconds": seconds,
            "environment": passes[workloads[0]][0]["environment"],
            "workloads": out}


def print_suite(result: dict) -> None:
    for name, w in result["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            for metric, m in w[group].items():
                print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} fail_share {w['fail_share']!r} share "
              f"({w['failed']} of {w['attempted']} operations)")
        if not w["correct"]:
            print(f"{name} NOT CORRECT")


def compare(a: dict, b: dict) -> int:
    """Print B against A; the number of findings that fail the check."""
    bad = 0
    same_seed = a["seed"] == b["seed"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from B")
            bad += 1
            continue
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            va, vb = (w["end_to_end"][metric]["value"] for w in (wa, wb))
            ratio = vb / va
            worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            exact = same_seed and metric == "sim_ns"
            over = vb != va if exact else worse > bound
            bad += over
            print(f"{name:13s} {metric:14s} A {va:<12.6g} B {vb:<12.6g} "
                  f"B/A {ratio:.4f} (base A)  bound "
                  f"{'exact' if exact else format(bound, '.0%')}"
                  f"{'  EXCEEDED' if over else ''}")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"] or not w["correct"]:
                print(f"{name:13s} {side} failed {w['failed']} of "
                      f"{w['attempted']} operations, correct={w['correct']}")
                bad += 1
        differing = [
            (metric, m["value"], wb["per_layer"][metric]["value"])
            for metric, m in wa["per_layer"].items()
            if m["unit"] in EXACT_UNITS
            and wb["per_layer"][metric]["value"] != m["value"]]
        if wa["result_digest"] != wb["result_digest"]:
            differing.append(("result_digest", wa["result_digest"][:12],
                              wb["result_digest"][:12]))
        for metric, va, vb in differing:
            print(f"{name:13s} {metric} differs: A {va} B {vb}")
        bad += same_seed and bool(differing)
    print(f"compare: {bad} finding(s) beyond the bounds"
          + ("" if same_seed else
             " (seeds differ: sim_ns and counts are not held to exact)"))
    return bad


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="per workload, split over the untraced passes")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--json", type=Path, help="write the result here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        return 1 if compare(a, b) else 0
    result = run_suite([args.workload] if args.workload else names,
                       args.seed, args.seconds)
    print_suite(result)
    if args.json:
        args.json.write_text(json.dumps(result, indent=2) + "\n")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
