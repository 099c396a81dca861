"""Smoke test for the benchmark: a few ops per workload, no wall-time gates.

Run from the root of a checkout:  python3 -m pytest bench/test_bench_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run_bench

run_bench._use_checkout()

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Calls per op that the code implies for one build_dilation + run_simulation.
SIMULATE_FRESH_CALLS = {
    "linalg.orthonormal_extension": 6,
    "completion.unitary_completion": 2,
    "linalg.matrix_exp": 2,
    "completion.post_select": 3,
    "ptcore.classify": 2,
    "dilation.build_dilation": 1,
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return {name: run_bench.measure(name, seed=7, n=4, ops=1, trace=True, workdir=workdir)
            for name in WORKLOADS}


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_ops_all_pass(traced, name):
    for phase in ("untraced", "traced"):
        loop = traced[name][phase]
        assert len(loop["latencies"]) == run_bench.TRACE_BLOCKS
        assert loop["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metric_names(traced, name):
    metrics = run_bench.per_layer_metrics(traced[name])
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["trace.coverage"] >= 0.95


def test_simulate_fresh_exact_call_counts(traced):
    metrics = run_bench.per_layer_metrics(traced["simulate_fresh"])
    for span, calls in SIMULATE_FRESH_CALLS.items():
        assert metrics[f"{span}.calls_per_op"] == calls, span


def test_recorder_restores_every_patched_name(traced):
    import ptsim.completion
    import ptsim.linalg

    assert ptsim.completion.orthonormal_extension is ptsim.linalg.orthonormal_extension
    assert not hasattr(ptsim.linalg.orthonormal_extension, "__wrapped__")


def test_accuracy_digits_covers_a_fixed_prefix_of_ops():
    loop = {"latencies": [0.1] * 40, "residuals": [1e-12] * 30 + [1e-3] * 10,
            "reference": [0.01], "failed": 0, "wall_s": 4.0}
    assert run_bench.end_to_end_metrics(loop, [0.5, 0.4], 30)["accuracy_digits"] == pytest.approx(12.0)


def test_paper_checks_op_without_output_fails(tmp_path):
    w = WORKLOADS["paper_checks"](1, 4, tmp_path)
    (tmp_path / "paper_checks.json").write_text('{"all_pass": true, "checks": []}')  # an earlier op's file
    inp = w.next_input()
    assert w.check(inp, 1) == (1.0, False)


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_contract_json(trace):
    proc = _run_cli(ROOT, "--workload", "nosignal_sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "nosignal_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
