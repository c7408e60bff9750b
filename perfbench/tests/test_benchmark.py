"""Tests of the benchmark itself: output contract, counter determinism of
the traced run, and refusal to run without the program's source.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_lists_exactly_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_untraced_and_traced_results_follow_the_contract():
    plain = result_of(bench("--workload", "cloning-circuits", "--seed", "5",
                            "--seconds", "1", "--trace", "0"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = [result_of(bench("--workload", "cloning-circuits", "--seed", "5",
                              "--seconds", "1", "--trace", "1")) for _ in range(2)]
    assert list(traced[0]["metrics"]) == [name for name, _, _ in PER_LAYER]
    counts = [json.dumps({k: t["metrics"][k] for k in COUNTS}) for t in traced]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    """Two traced passes over the same seeded inputs count the same work.
    The (3,4) operations are left out to keep the test short."""
    ops, _ = run.setup(workload, 11, tmp_path)
    ops = [op for op in ops if "3x4" not in op.name]
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            records, _ = run.run_passes(ops, 0.0, tracer, max_passes=1)
        finally:
            tracer.uninstall()
        assert all(r.expected for r in records)
        metrics = tracer.metrics(report_bytes=0, optimizer_gap=0.0, overhead_s=0.0)
        counts.append(json.dumps({k: metrics[k] for k in COUNTS}))
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "rule-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
