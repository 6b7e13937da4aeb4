"""One point pipeline: the sweep's point data agrees with the library route."""

import json
import math

import numpy as np
import pytest

import dicke_chaos.sweep as sweep
from dicke_chaos import (
    HamiltonianMatrix,
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
    windowed_eigenvectors,
)
from dicke_chaos.cli import main
from dicke_chaos.sweep import compute_point_data

from histogram_io import read_histogram

# chaotic, regular and degenerate (integer spectrum) points
POINTS = [(0.9, 0.0), (0.3, 0.7), (0.0, 0.0)]


@pytest.mark.parametrize("lam, kappa", POINTS)
def test_compute_point_matches_library_route(lam, kappa):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    row = compute_point(params)
    h = build_hamiltonian(params, Parity.EVEN)
    eig = diagonalize(h)
    ds = filter_energy_window(eig, params)
    ds.coefficients = windowed_eigenvectors(h.band, eig.energies, ds.window_indices)
    _, fraction = check_convergence(ds)
    assert row.n_levels == ds.energies.size
    assert row.d_kl == kl_divergence(collect_coefficients(ds))
    assert row.converged_fraction == fraction


def test_vector_route_makes_no_dense_matrix(monkeypatch):
    def no_dense(self):
        raise AssertionError("the vector route built a dense matrix")

    monkeypatch.setattr(HamiltonianMatrix, "entries", property(no_dense))
    row = compute_point(ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0))
    assert row.error is None and row.d_kl > 0


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


@pytest.mark.parametrize("lam, kappa", POINTS)
def test_values_only_and_vector_solves_give_equal_energies(lam, kappa):
    """The one cached eigenvalue entry rests on this: if it fails, the routes need two."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    assert np.array_equal(compute_point_data(params, want_vectors=False).energies,
                          compute_point_data(params).energies)


def test_values_only_and_vector_commands_share_one_cache_entry(tmp_path):
    """spacing and sweep write one eigenvalue entry: a sweep after spacing writes what a
    sweep on a fresh cache writes, and ratio on that cache what an uncached ratio writes."""
    def run(command, name, cache_dir):
        doc = {"j": 6.0, "n_cutoff": 80, "kappa": 0.0, "lambda": 0.9,
               "kappa_grid": [0.0], "lambda_grid": [0.9], "cache_dir": str(cache_dir)}
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    fresh = run("sweep", "fresh", tmp_path / "fresh_cache")
    run("spacing", "spacing", tmp_path / "shared")
    assert run("sweep", "first", tmp_path / "shared") == fresh
    assert run("sweep", "second", tmp_path / "shared") == fresh
    # "" is no cache; the shared cache now holds the sweep's eigenvalues
    assert run("ratio", "uncached", "") == run("ratio", "cached", tmp_path / "shared")


def test_point_commands_read_the_sweeps_cache_entry(tmp_path, monkeypatch):
    """On a cache a sweep filled, spectrum, spacing and ratio solve nothing, store
    nothing, and write what an uncached run writes."""
    cache_dir = tmp_path / "cache"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"j": 6.0, "n_cutoff": 80, "kappa": 0.7, "lambda": 0.9,
                                  "kappa_grid": [0.7], "lambda_grid": [0.9]}))
    commands = ("spectrum", "spacing", "ratio")

    def run(name, *extra):
        out = tmp_path / name
        for command in commands:
            assert main([command, "--config", str(config), "--out", str(out), *extra]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    uncached = run("uncached")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep"),
                 "--set", f"cache_dir={cache_dir}"]) == 0
    entries = sorted(p.name for p in cache_dir.iterdir())

    def no_build(*args, **kwargs):
        raise AssertionError("a cached point built a Hamiltonian")

    monkeypatch.setattr(sweep, "build_hamiltonian", no_build)
    assert run("cached", "--set", f"cache_dir={cache_dir}") == uncached
    assert sorted(p.name for p in cache_dir.iterdir()) == entries


@pytest.mark.parametrize("lam, kappa", POINTS)
def test_point_commands_report_the_sweep_row(tmp_path, lam, kappa):
    """spacing, ratio and eigstats share compute_point's data and indicator code, so
    their meta equal its row exactly."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"j": 6.0, "n_cutoff": 80, "lambda": lam, "kappa": kappa}))
    for command in ("spacing", "ratio", "eigstats"):
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    row = compute_point(ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa))
    name = f"{format(kappa, 'g')}_{format(lam, 'g')}.json"
    _, spacing = read_histogram(tmp_path / f"hist_spacing_{name}")
    _, ratio = read_histogram(tmp_path / f"hist_ratio_{name}")
    _, coeff = read_histogram(tmp_path / f"hist_coeff_{name}")
    reported = [spacing["eta"], spacing["beta"], ratio["mean_r"], ratio["n_degenerate_dropped"],
                coeff["d_kl"]]
    expected = [row.eta, row.beta, row.mean_r, row.n_degenerate_dropped, row.d_kl]
    # NaN is written as null
    assert [None if isinstance(v, float) and math.isnan(v) else v for v in expected] == reported
