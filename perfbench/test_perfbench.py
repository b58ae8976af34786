"""Tests of the benchmark itself, on the reduced-size smoke inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("backtest-small", "backtest-wide", "validate-sweep")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace, spec):
    done = bench("--workload", workload, "--seed", 0, "--seconds", 1,
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert "failed_ratio = 0 (0 failed of" in done.stdout
    assert '"blas_threads"' in done.stdout


def test_traced_run_sees_the_layers():
    done = bench("--workload", "backtest-wide", "--seed", 0, "--seconds", 1,
                 "--trace", 1, "--smoke")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    # window 60 at width 120: Granger's early windows are underdetermined
    assert value["backtest.fallback_calls"] == 6
    assert value["backtest.steps"] == value["panel.head_calls"]
    assert value["backtest.select_calls"] + value["backtest.reuse_steps"] == value["backtest.steps"]
    assert value["ingest.bytes_in"] > 0 and value["ingest.bytes_out"] > 0
    assert value["numerics.ols_fit.calls"] > 0 and value["selectors.granger.calls"] > 0
    assert value["trace.overhead_ratio"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "backtest-small", "--seed", 1, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_reference_mismatch_counts_failed_operations():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import compare_outputs

    want = {"selected": ["X1", "", "X2;X3"], "y_pred": [0.5, 0.25, -1.0]}
    assert compare_outputs(dict(want), want) == 0
    moved = {"selected": want["selected"], "y_pred": [0.5, 0.25 + 1e-12, -1.0]}
    assert compare_outputs(moved, want) == 0
    wrong = {"selected": ["X1", "X4", "X2;X3"], "y_pred": [0.5, 0.25, -1.5]}
    assert compare_outputs(wrong, want) == 2
    # with reselection every 12 steps both differing steps share one call
    assert compare_outputs(wrong, want, reselect_every=12) == 1
    assert compare_outputs({"f1": [0.5, 1.0], "n_selected": [2, 3]},
                           {"f1": [0.5, 0.8], "n_selected": [2, 3]}) == 1


def test_benchmark_spec_matches_the_harness(spec):
    sys.path.insert(0, str(HERE))
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
