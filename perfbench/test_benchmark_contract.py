"""The benchmark keeps its own contract (tiny sizes, a few seconds).

Every metric ``BENCHMARK.json`` names is reported for every workload, the
simulated results repeat exactly and match the serial reference, the layer
shares account for all the profiled time, and call counts agree between
traced runs — in this process and in a fresh one.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def tiny(workload: str, trace: int) -> dict:
    return bench.run(argparse.Namespace(
        workload=workload, seed=11, seconds=0.0, trace=trace, size="tiny"))


def test_spec_names_are_well_formed_and_unique():
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert SPEC["paths"] == [HERE.name]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report = tiny(workload, trace=0)
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    # correct covers: every result equals the serial reference, and
    # sim_ns, counters and result digest are identical in every round.
    assert report["correct"] and not report["problems"]
    assert report["fail_share"] == 0 and report["attempted"] >= 1
    assert report["rounds"]["wall_s"]["rounds"] >= bench.MIN_ROUNDS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    report = tiny(workload, trace=1)
    metrics = report["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Tracing perturbed nothing simulated, and calls repeated exactly
    # over the traced rounds: both are "problems" otherwise.
    assert report["correct"] and not report["problems"]
    for share in ("self_share", "setup_share"):
        total = sum(m["value"] for name, m in metrics.items()
                    if name.endswith("." + share))
        assert abs(total - 1.0) <= 0.01
    assert metrics["bench.self_share"]["value"] < 0.02
    assert metrics["sim.events"]["value"] > 0
    assert metrics["sim.calls"]["value"] > 0


def test_command_line_contract_and_calls_repeat_across_processes():
    """The driver's view: last stdout line, exactly four keys; a second
    traced run in a fresh process counts the same calls."""
    def traced_run():
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "scan_stream", "--seed", "12", "--seconds", "0", "--trace",
             "1", "--size", "tiny"],
            check=True, capture_output=True, text=True)
        return json.loads(done.stdout.splitlines()[-1])

    first, second = traced_run(), traced_run()
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in ("count", "B")]
    assert {n: first["metrics"][n] for n in exact} == {
        n: second["metrics"][n] for n in exact}


def test_unknown_workload_exits_nonzero_without_a_result():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope"],
        capture_output=True, text=True)
    assert done.returncode != 0 and not done.stdout.strip()
