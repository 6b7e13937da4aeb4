"""Tests of the benchmark itself, at the tiny smoke scale (seconds, not minutes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import driver  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_runs():
    results = {}
    for workload in workloads.WORKLOADS:
        proc = run_benchmark(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_benchmark(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_report_every_layer_and_module(traced_runs):
    layer_units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced_runs.values():
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == layer_units
    for module in driver.MODULES:
        assert any(r["metrics"][f"{module}.self_s"]["value"] > 0
                   for r in traced_runs.values()), module
    scan = traced_runs["scan-eigvals"]["metrics"]
    assert scan["spectrum.eigvals_1t_s"]["value"] > 0
    warm = traced_runs["sweep-warm"]["metrics"]
    assert warm["cache.hit_ratio"]["value"] == 1.0 and warm["cache.misses"]["value"] == 0


def test_seed_changes_parameters_but_not_grid_shape_or_dim():
    for workload in workloads.WORKLOADS:
        a, b = (workloads.generate(workload, seed) for seed in (1, 2))
        assert (a["kappas"], a["lambdas"]) != (b["kappas"], b["lambdas"])
        assert (len(a["kappas"]), len(a["lambdas"])) == (len(b["kappas"]), len(b["lambdas"]))
        assert (a["j"], a["n_cutoff"]) == (b["j"], b["n_cutoff"])
        dims = {driver.checks.sector_dim(driver.base_params(spec)) for spec in (a, b)}
        assert dims == {5297 if workload != "sweep-warm" else 1369}
        half = len(a["lambdas"]) // 2
        assert all(workloads.REGULAR_BAND[0] <= x <= workloads.REGULAR_BAND[1]
                   for x in a["lambdas"][:half])
        assert all(workloads.CHAOTIC_BAND[0] <= x <= workloads.CHAOTIC_BAND[1]
                   for x in a["lambdas"][half:])
        assert workloads.generate(workload, 1) == a


def test_perturbed_eigenvalue_counts_as_failed(tmp_path):
    spec = driver.setup("scan-eigvals", 1, "smoke", tmp_path)
    output = driver.scan_pass(spec, tmp_path, 0, NullTracer())
    assert driver.check(spec, tmp_path, [output])["failed"] == 0
    output["rows"][1]["energies"][7] += 1e-3
    result = driver.check(spec, tmp_path, [output])
    assert result["failed"] / result["attempted"] > 0


def test_flipped_csv_byte_counts_as_failed(tmp_path):
    spec = driver.setup("sweep-warm", 1, "smoke", tmp_path)
    output = driver.warm_pass(spec, tmp_path, 0, NullTracer())
    assert driver.check(spec, tmp_path, [output])["failed"] == 0
    csv = output["dir"] / "sweep.csv"
    data = bytearray(csv.read_bytes())
    last = data.index(b"\n", data.index(b"\n") + 1) - 1  # n_degenerate_dropped of row 1
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    csv.write_bytes(bytes(data))
    result = driver.check(spec, tmp_path, [output])
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_benchmark("scan-eigvals", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
