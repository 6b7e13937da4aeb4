"""One point pipeline: the sweep's point data agrees with the library route."""

import json

import pytest

import dicke_chaos.sweep as sweep
from dicke_chaos import (
    ModelParams,
    Parity,
    SpectrumCache,
    build_hamiltonian,
    check_convergence,
    collect_coefficients,
    compute_point,
    diagonalize,
    filter_energy_window,
    kl_divergence,
)
from dicke_chaos.cli import main

# chaotic, regular and degenerate (integer spectrum) points
POINTS = [(0.9, 0.0), (0.3, 0.7), (0.0, 0.0)]


@pytest.mark.parametrize("lam, kappa", POINTS)
def test_compute_point_matches_library_route(lam, kappa):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    row = compute_point(params)
    eig = diagonalize(build_hamiltonian(params, Parity.EVEN), want_vectors=True)
    ds = filter_energy_window(eig, params)
    _, fraction = check_convergence(ds)
    assert row.n_levels == ds.energies.size
    assert row.d_kl == kl_divergence(collect_coefficients(ds))
    assert row.converged_fraction == fraction


def test_cache_hit_builds_no_hamiltonian(tmp_path, monkeypatch):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0)
    cache = SpectrumCache(tmp_path)
    cold = compute_point(params, cache=cache)

    def no_build(*args, **kwargs):
        raise AssertionError("cache hit built a Hamiltonian")

    monkeypatch.setattr(sweep, "build_hamiltonian", no_build)
    assert compute_point(params, cache=cache) == cold


def test_cold_and_warm_cache_write_identical_files(tmp_path):
    cache_dir = tmp_path / "cache"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "j": 6.0, "n_cutoff": 80, "kappa_grid": [0.0, 0.7], "lambda_grid": [0.0, 0.9],
        "cache_dir": str(cache_dir),
    }))
    outputs, entries = [], []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        # the lambda = kappa = 0 point has no mean_r, so the sidecar must exist
        outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "sweep_errors.json")])
        entries.append(sorted(p.name for p in cache_dir.iterdir()))
    assert outputs[0] == outputs[1]
    assert entries[0] == entries[1] and len(entries[0]) == 12
