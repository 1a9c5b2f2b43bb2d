"""Smoke test of the benchmark: every workload at the tiny scale.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced. The test checks the
result schema, that every metric of BENCHMARK.json and every workload
metric is printed with its unit, that nothing failed, that traced and
untraced runs give the same output digests, and that the per-layer
counts land on the layers each workload is meant to exercise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = ROOT / ".perfbench_out"

# Printed before the result line, besides the BENCHMARK.json metrics.
WORKLOAD_METRICS = {
    "boost-pairs": {"train_s"},
    "lags-48": {"train_s", "pipeline_s"},
    "serve-explain": {"predict_rows_per_s", "explain_p50_ms", "explain_p99_ms",
                      "explain_samples", "pfi_s"},
    "cli-benchmark": {"benchmark_s"},
}

# Printed by every workload: the unscaled timings, the host-speed probe
# they are scaled by, and the failures.
COMMON_METRICS = {"op_raw_s", "setup_raw_s", "op_median_s", "probe_min_s",
                  "probe_median_s", "fail_ratio"}

# Per-layer counts that must be non-zero (on the path) or zero (bypassed).
ON_PATH = {
    "boost-pairs": ["trees.restricted_tree_from_histogram.calls", "glassbox.boost_steps",
                    "glassbox.train_interactions.rounds"],
    "lags-48": ["data.load_csv.rows", "model_io.bytes", "glassbox.boost_steps",
                "data.apply_bins.calls"],
    "serve-explain": ["glassbox.predict_with_breakdown.calls", "glassbox.predict.rows",
                      "explain.pfi.predict_calls", "data.apply_bins.rows"],
    "cli-benchmark": ["cli.fits", "trees.fit_cart.calls", "data.load_csv.rows",
                      "glassbox.boost_steps"],
}
BYPASSED = {
    "boost-pairs": ["data.load_csv.rows", "model_io.bytes", "cli.fits",
                    "glassbox.predict_with_breakdown.calls"],
    "lags-48": ["cli.fits", "trees.fit_cart.calls", "glassbox.predict_with_breakdown.calls"],
    "serve-explain": ["trees.restricted_tree_from_histogram.calls", "glassbox.boost_steps",
                      "data.load_csv.rows", "model_io.bytes", "cli.fits"],
    "cli-benchmark": ["model_io.bytes", "glassbox.predict_with_breakdown.calls"],
}


def bench(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload(workload):
    reports = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = parse(bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), name
            assert printed[name] == (metric["value"], metric["unit"])
        for name in WORKLOAD_METRICS[workload] | COMMON_METRICS:
            assert name in printed, name
        assert printed["fail_ratio"][0] == 0.0
        report = json.loads(
            (OUT_DIR / f"report-{workload}-seed0-trace{trace}.json").read_text())
        for item in report["inputs"]:
            assert item["digest_recorded"] in (None, item["digest"]), item
        reports.append(report)
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for name in ON_PATH[workload]:
                assert values[name] > 0, name
            for name in BYPASSED[workload]:
                assert values[name] == 0, name
        else:
            assert all(result["metrics"][m["name"]]["value"] > 0
                       for m in BENCH["end_to_end"])
    plain, traced = reports
    assert plain["inputs"] == traced["inputs"]


def test_refuses_without_sources():
    """Given only BENCHMARK.json and the benchmark, it exits non-zero silently."""
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("boost-pairs", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
