"""The command line across processes.  Each call runs ``python -m dicke_chaos.cli`` in a
fresh process with a timeout, so a hung sweep fails its test instead of stalling
the suite.  The grid's lambda = kappa = 0 point has no mean_r, so a sweep also writes
its errors sidecar."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from dicke_chaos import Parity, SpectrumCache
from dicke_chaos.cache import KIND_ENERGIES, KIND_TAIL_WEIGHTS
from dicke_chaos.cli import main
from dicke_chaos.spectrum import DEFAULT_TAIL_WIDTH
from dicke_chaos.sweep import read_config

from child_process import child_env, run_cli
from histogram_io import read_strict_json

COMMANDS = ("spectrum", "spacing", "ratio", "eigstats", "sweep", "boundary")
#: The cores this process may run on; none where the platform cannot pin a process.
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


@pytest.fixture()
def configs(tmp_path):
    """A point config and a 2 x 2 grid config."""
    point, grid = tmp_path / "point.json", tmp_path / "sweep.json"
    point.write_text(json.dumps({"j": 6, "n_cutoff": 80, "lambda": 0.9}))
    grid.write_text(json.dumps({"j": 6, "n_cutoff": 80, "kappa_grid": [0, 0.7],
                                "lambda_grid": [0, 0.9]}))
    return point, grid


def files(directory) -> dict[str, bytes]:
    """Every file in ``directory``, by name; there must be some."""
    found = {path.name: path.read_bytes() for path in directory.iterdir()}
    assert found, f"{directory} is empty"
    return found


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero_and_prints_the_usage(command):
    if command is None:
        usage = run_cli("--help").stdout
        assert usage.startswith("usage: dicke-chaos ") and all(name in usage for name in COMMANDS)
    else:
        assert run_cli(command, "--help").stdout.startswith(f"usage: dicke-chaos {command} ")


@pytest.mark.skipif(len(CORES) < 2, reason="pinning to one core needs at least two")
def test_one_core_and_every_core_write_the_same_bytes(tmp_path, configs):
    """A cold eigstats and a cold one-worker sweep solve in a thread per core the process
    may run on: pinned to one core they write the outputs and cache entries of a run
    on every core, and every JSON file they write is strict JSON."""
    point, grid = configs
    probe = "from dicke_chaos.spectrum import available_cores; print(available_cores())"
    for cores, pin in (("one", lambda: os.sched_setaffinity(0, CORES[:1])), ("every", None)):
        seen = subprocess.run([sys.executable, "-c", probe], env=child_env(), preexec_fn=pin,
                              capture_output=True, text=True, check=True, timeout=120)
        assert int(seen.stdout) == (1 if pin else len(CORES))
        run = tmp_path / cores
        run_cli("eigstats", "--config", point, "--out", run / "out",
                "--set", f"cache_dir={run / 'eig_cache'}", preexec_fn=pin)
        run_cli("sweep", "--config", grid, "--workers", 1, "--out", run / "out",
                "--set", f"cache_dir={run / 'sweep_cache'}", preexec_fn=pin)
    for name in ("out", "eig_cache", "sweep_cache"):
        assert files(tmp_path / "one" / name) == files(tmp_path / "every" / name), name
    written = sorted((tmp_path / "one" / "out").glob("*.json"))
    assert [path.name for path in written] == ["hist_coeff_0_0.9.json", "sweep_errors.json"]
    for path in written:
        read_strict_json(path)


def test_a_real_pool_heals_a_partial_cache(tmp_path, configs):
    """With every tail_weights entry and the last point's energies deleted, each point goes
    to a thread of the sweep's 2-thread pool, which reads what it can and remakes the rest:
    the sweep writes the cold outputs, and every cache entry comes back byte for byte."""
    _, grid = configs
    cache_dir = tmp_path / "cache"
    run_cli("sweep", "--config", grid, "--out", tmp_path / "cold",
            "--set", f"cache_dir={cache_dir}")
    cold = files(cache_dir)
    config = read_config(grid, [("cache_dir", str(cache_dir))])
    cache = SpectrumCache(config.cache_dir)
    points = [replace(config.base, kappa=kappa, lambda_=lam)
              for kappa in config.kappa_grid for lam in config.lambda_grid]
    for params in points:
        cache.path(params, Parity.EVEN, KIND_TAIL_WEIGHTS, DEFAULT_TAIL_WIDTH).unlink()
    cache.path(points[-1], Parity.EVEN, KIND_ENERGIES).unlink()
    assert len(files(cache_dir)) == 11
    run_cli("sweep", "--config", grid, "--workers", 2, "--out", tmp_path / "healed",
            "--set", f"cache_dir={cache_dir}")
    assert files(tmp_path / "healed") == files(tmp_path / "cold")
    assert files(cache_dir) == cold


def test_in_process_calls_write_what_fresh_processes_write(tmp_path, configs):
    """This process serves a sweep, a boundary with a threshold override and a plain
    boundary: each boundary set is what a fresh process writes from the same sweep,
    and the override does not outlive its call."""
    _, grid = configs
    one, eta02 = tmp_path / "one", ["--set", "thresholds.eta_max=0.2"]
    args = ["--config", str(grid), "--out", str(one)]
    assert main(["sweep", *args, "--set", f"cache_dir={tmp_path / 'cache'}"]) == 0
    for fresh, overrides in (("fresh_eta02", eta02), ("fresh_plain", [])):
        shutil.copytree(one, tmp_path / fresh)
        run_cli("boundary", "--config", grid, "--out", tmp_path / fresh, *overrides)
    assert main(["boundary", *args, *eta02]) == 0
    shutil.copytree(one, tmp_path / "one_eta02")
    assert main(["boundary", *args]) == 0
    assert files(tmp_path / "one_eta02") == files(tmp_path / "fresh_eta02")
    assert files(one) == files(tmp_path / "fresh_plain")
    # on this grid eta_max=0.2 moves the eta boundary, so the two sets are told apart
    assert files(one)["boundary_eta.csv"] != files(tmp_path / "one_eta02")["boundary_eta.csv"]
