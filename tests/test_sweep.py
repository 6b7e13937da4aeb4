"""Grid sweeps: determinism, caching, error isolation and file round-trips."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dicke_chaos
from dicke_chaos import (
    ModelParams,
    Parity,
    SpectrumCache,
    SweepConfig,
    SweepResultRow,
    Thresholds,
    boundary_from_rows,
    compute_point,
    read_csv,
    run_sweep,
    write_csv,
    write_histogram,
)
from dicke_chaos.cache import KIND_ENERGIES
from dicke_chaos.cli import main
from dicke_chaos.errors import UsageError
from dicke_chaos.sweep import (
    CSV_HEADER,
    check_grids,
    histogram_name,
    load_config,
    read_config,
    write_boundary_csv,
    write_errors_sidecar,
)

from histogram_io import read_histogram

# small but statistically meaningful: 527 even-sector states, ~280 in window
BASE = ModelParams(j=6.0, n_cutoff=80)


def small_config(tmp_path, **kwargs):
    defaults = dict(
        base=BASE,
        kappa_grid=(0.0, 0.7),
        lambda_grid=(0.2, 0.9),
        workers=1,
        output_dir=tmp_path,
    )
    defaults.update(kwargs)
    return SweepConfig(**defaults)


GRID = [(0.0, 0.2), (0.0, 0.9), (0.7, 0.2), (0.7, 0.9)]  # small_config's points in grid order


def fill_cache(root, points):
    """A cache holding the given (kappa, lambda) points of BASE, solved in this process."""
    cache = SpectrumCache(root)
    for kappa, lam in points:
        compute_point(replace(BASE, kappa=kappa, lambda_=lam), cache=cache)
    return cache.root


def sweep_csv(out, **kwargs):
    """The sweep.csv bytes of run_sweep on small_config, written under ``out``."""
    out.mkdir()
    write_csv(run_sweep(small_config(out, **kwargs)), out / "sweep.csv")
    return (out / "sweep.csv").read_bytes()


def sweep_config_file(tmp_path, cache_dir, **extra):
    """A CLI config for small_config's grid on the given cache."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"j": BASE.j, "n_cutoff": BASE.n_cutoff, "kappa_grid": [0.0, 0.7],
                                "lambda_grid": [0.2, 0.9], "cache_dir": str(cache_dir), **extra}))
    return path


class TestComputePoint:
    def test_full_row_at_chaotic_point(self):
        params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0)
        row = compute_point(params)
        assert row.dim == 527
        assert row.n_levels > 200
        assert 0.0 <= row.eta <= 1.0
        assert 0.0 <= row.beta <= 1.0
        assert 0.0 <= row.mean_r <= 1.0
        assert row.d_kl >= 0.0
        assert 0.0 <= row.converged_fraction <= 1.0
        assert row.error is None

    def test_degenerate_point_isolates_indicator_failures(self):
        # lambda = kappa = 0 has an integer spectrum: almost all spacings vanish
        # and every ratio pair touches a zero spacing
        params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.0, kappa=0.0)
        row = compute_point(params)
        assert row.n_degenerate_dropped > 200
        assert math.isnan(row.mean_r)
        assert "mean_r" in row.error
        assert 0.0 <= row.beta <= 1.0  # fit proceeds on the surviving spacings

    def test_unreachable_window_is_an_error_row(self):
        params = ModelParams(j=1.0, n_cutoff=4, lambda_=0.1,
                             energy_window=(50.0, 60.0))
        row = compute_point(params)
        assert row.n_levels == 0
        assert math.isnan(row.eta) and math.isnan(row.mean_r) and math.isnan(row.d_kl)
        assert "window" in row.error


class TestRunSweep:
    def test_rows_ordered_and_complete(self, tmp_path):
        rows = run_sweep(small_config(tmp_path))
        assert [(r.kappa, r.lambda_) for r in rows] == [
            (0.0, 0.2), (0.0, 0.9), (0.7, 0.2), (0.7, 0.9),
        ]
        assert all(r.dim == 527 for r in rows)

    def test_rows_keep_grid_order_when_points_finish_out_of_order(self, tmp_path):
        # the first point is solved in a worker; the sweep builds the cached later ones itself
        cache = SpectrumCache(tmp_path / "cache")
        for kappa, lam in [(0.0, 0.9), (0.7, 0.2), (0.7, 0.9)]:
            compute_point(replace(BASE, kappa=kappa, lambda_=lam), cache=cache)
        rows = run_sweep(small_config(tmp_path, workers=2, cache_dir=cache.root))
        assert [(r.kappa, r.lambda_) for r in rows] == [
            (0.0, 0.2), (0.0, 0.9), (0.7, 0.2), (0.7, 0.9),
        ]

    def test_single_point_grid_matches_direct_call(self, tmp_path):
        config = small_config(tmp_path, kappa_grid=(0.7,), lambda_grid=(0.9,))
        (row,) = run_sweep(config)
        direct = compute_point(ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.7))
        assert row == direct

    def test_worker_count_never_changes_bytes(self, tmp_path):
        csvs = {}
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            rows = run_sweep(small_config(out, workers=workers))
            write_csv(rows, out / "sweep.csv")
            csvs[workers] = (out / "sweep.csv").read_bytes()
        assert csvs[1] == csvs[4]

    def test_cache_hit_reproduces_cold_run(self, tmp_path):
        cache_dir = tmp_path / "cache"
        config = small_config(tmp_path, kappa_grid=(0.3,), lambda_grid=(0.5, 1.1),
                              cache_dir=cache_dir)
        cold = run_sweep(config)
        assert any(cache_dir.iterdir())
        warm = run_sweep(config)
        assert warm == cold

    def test_failed_points_do_not_abort(self, tmp_path):
        # a window nothing reaches: every point must come back as an error row
        base = ModelParams(j=1.0, n_cutoff=4, energy_window=(50.0, 60.0))
        rows = run_sweep(small_config(tmp_path, base=base))
        assert len(rows) == 4
        assert all(r.error for r in rows)
        assert all(math.isnan(r.eta) for r in rows)


class TestCacheHitsInParent:
    """A sweep reads its cache hits itself and spawns workers only for the misses."""

    def test_bytes_independent_of_workers_and_cache_warmth(self, tmp_path):
        csvs = {}
        for workers in (1, 2):
            cache = tmp_path / f"cache{workers}"
            for warmth in ("cold", "warm"):
                csvs[warmth, workers] = sweep_csv(tmp_path / f"{warmth}{workers}",
                                                  workers=workers, cache_dir=cache)
            mixed = fill_cache(tmp_path / f"mixed_cache{workers}", GRID[1:3])
            csvs["mixed", workers] = sweep_csv(tmp_path / f"mixed{workers}",
                                               workers=workers, cache_dir=mixed)
        assert len(set(csvs.values())) == 1, sorted(csvs)

    def test_all_hit_sweep_starts_no_process(self, tmp_path, monkeypatch):
        cache = fill_cache(tmp_path / "cache", GRID)
        expected = sweep_csv(tmp_path / "uncached")

        def no_processes(*args, **kwargs):
            raise AssertionError("an all-hit sweep started a process")

        monkeypatch.setattr(multiprocessing, "get_context", no_processes)
        assert sweep_csv(tmp_path / "warm", workers=2, cache_dir=cache) == expected

    @pytest.mark.parametrize("workers, cached, pool_size", [(2, 1, 2), (4, 3, 1)])
    def test_pool_gets_one_process_per_miss_up_to_workers(self, tmp_path, monkeypatch,
                                                          workers, cached, pool_size):
        cache = fill_cache(tmp_path / "cache", GRID[:cached])
        sizes = []

        class SpyExecutor(ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                super().__init__(max_workers, mp_context=mp_context)

        monkeypatch.setattr(dicke_chaos.sweep, "ProcessPoolExecutor", SpyExecutor)
        rows = run_sweep(small_config(tmp_path, workers=workers, cache_dir=cache))
        assert sizes == [pool_size]
        assert [(r.kappa, r.lambda_) for r in rows] == GRID
        assert all(r.dim == 527 for r in rows)

    def test_blas_thread_count_never_changes_warm_bytes(self, tmp_path):
        """Warm rows are computed in the sweep's own process, whatever its BLAS threads."""
        config = sweep_config_file(tmp_path, fill_cache(tmp_path / "cache", GRID))
        src = str(Path(dicke_chaos.__file__).resolve().parent.parent)
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "dicke_chaos.cli", "sweep", "--config",
                            str(config), "--out", str(out)],
                           env=env, capture_output=True, check=True, timeout=300)
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("corruption", ["truncated", "mangled key"])
    def test_corrupt_entry_is_a_miss_and_its_solve_rewrites_it(self, tmp_path, monkeypatch,
                                                               corruption):
        cache_dir = fill_cache(tmp_path / "cache", GRID)
        config = sweep_config_file(tmp_path, cache_dir, workers=2)
        args = ["sweep", "--config", str(config), "--out"]
        assert main([*args, str(tmp_path / "clean")]) == 0
        clean = (tmp_path / "clean" / "sweep.csv").read_bytes()

        cache = SpectrumCache(cache_dir)
        bad = replace(BASE, kappa=0.7, lambda_=0.2)
        payload = cache.load(bad, Parity.EVEN, KIND_ENERGIES)
        path = cache._path(cache._key_json(bad, Parity.EVEN, KIND_ENERGIES))
        blob = path.read_bytes()
        path.write_bytes({
            "truncated": blob[:-8],
            "mangled key": blob[:16] + b"\xff" + blob[17:],  # not UTF-8
        }[corruption])
        out = tmp_path / "corrupt"
        assert main([*args, str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == clean
        assert not (out / "sweep_errors.json").exists()
        assert np.array_equal(cache.load(bad, Parity.EVEN, KIND_ENERGIES), payload)

        def no_processes(*args, **kwargs):
            raise AssertionError("a sweep on a healed cache started a process")

        monkeypatch.setattr(multiprocessing, "get_context", no_processes)
        assert main([*args, str(tmp_path / "rerun")]) == 0
        assert (tmp_path / "rerun" / "sweep.csv").read_bytes() == clean

    def test_killed_worker_fails_the_sweep_instead_of_hanging(self, tmp_path):
        """A worker that dies mid-point breaks the pool: the sweep exits 2 at once."""
        config = sweep_config_file(tmp_path, "", workers=2)
        paths = [str(Path(dicke_chaos.__file__).resolve().parent.parent),
                 str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")]
        run = "import sys, dying_worker; sys.exit(dying_worker.run(sys.argv[1:]))"
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", run, "sweep", "--config", str(config),
                               "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "BrokenProcessPool" in proc.stderr
        assert not (out / "sweep.csv").exists()


class TestCsv:
    def test_header_and_roundtrip_exact(self, tmp_path):
        rows = [
            SweepResultRow(kappa=0.1, lambda_=np.pi, dim=10, n_levels=7,
                           eta=0.123456789012345678, beta=1 / 3, mean_r=0.5,
                           d_kl=2.0, converged_fraction=1.0, n_degenerate_dropped=3),
            SweepResultRow(kappa=0.2, lambda_=0.4),
        ]
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        parsed = read_csv(path)
        assert parsed[0].lambda_ == np.pi  # 17 significant digits round-trip
        assert parsed[0].eta == rows[0].eta
        assert math.isnan(parsed[1].eta)
        assert parsed[1].dim == 0

    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(UsageError):
            read_csv(path)


class TestHistogramFiles:
    def test_roundtrip_preserves_normalization(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(size=4000)
        from dicke_chaos import build_histogram

        hist = build_histogram(values, bins=31)
        path = tmp_path / "hist.json"
        write_histogram(hist, path, {"kind": "test"})
        loaded, meta = read_histogram(path)
        widths = np.diff(loaded.edges)
        assert np.sum(loaded.densities * widths) == pytest.approx(1.0, abs=1e-10)
        assert meta == {"kind": "test"}
        np.testing.assert_array_equal(loaded.counts, hist.counts)

    def test_histogram_name(self):
        assert histogram_name("spacing", 0.5, 0.25) == "hist_spacing_0.5_0.25"


class TestErrorsSidecar:
    def test_written_only_on_failure(self, tmp_path):
        ok = SweepResultRow(kappa=0.0, lambda_=0.1)
        bad = SweepResultRow(kappa=0.0, lambda_=0.2, error="boom")
        path = tmp_path / "sweep_errors.json"
        assert not write_errors_sidecar([ok], path)
        assert not path.exists()
        assert write_errors_sidecar([ok, bad], path)
        entries = json.loads(path.read_text())
        assert entries == [{"kappa": 0.0, "lambda": 0.2, "error": "boom"}]


class TestBoundaryOutput:
    def test_boundary_from_rows_and_csv(self, tmp_path):
        rows = []
        for kappa, values in ((0.0, (0.39, 0.43, 0.49, 0.53)),
                              (1.0, (0.43, 0.50, 0.52, 0.54))):
            for lam, v in zip((0.1, 0.3, 0.5, 0.7), values):
                rows.append(SweepResultRow(kappa=kappa, lambda_=lam, eta=1 - v,
                                           beta=v, mean_r=v))
        curves = boundary_from_rows(rows, Thresholds())
        assert {p.kappa: p.lambda_star for p in curves["mean_r"]} == {0.0: 0.5, 1.0: 0.3}
        path = tmp_path / "boundary_mean_r.csv"
        write_boundary_csv(curves["mean_r"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kappa,lambda_star,crossed"
        assert lines[1].startswith("0,0.5") and lines[1].endswith(",true")

    def test_uncrossed_writes_nan(self, tmp_path):
        rows = [SweepResultRow(kappa=0.0, lambda_=lam, mean_r=0.4)
                for lam in (0.1, 0.3)]
        curves = boundary_from_rows(rows, Thresholds())
        path = tmp_path / "b.csv"
        write_boundary_csv(curves["mean_r"], path)
        assert path.read_text().splitlines()[1] == "0,nan,false"


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        doc = {
            "omega": 1.0, "omega0": 1.0, "j": 6.0, "n_cutoff": 80,
            "energy_window": [0.4, 4.0], "mid_window": [1.75, 2.25],
            "kappa_grid": [0.0, 0.5], "lambda_grid": [0.1, 0.2],
            "fit_degree": 8, "bins": 101,
            "thresholds": {"eta_max": 0.3, "beta_min": 0.7, "mean_r_min": 0.48},
            "workers": 2, "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = check_grids(read_config(load_config(path)))
        assert config.base.j == 6.0
        assert config.kappa_grid == (0.0, 0.5)
        assert config.fit_degree == 8
        assert config.thresholds.mean_r_min == 0.48

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"omega": 1.0, "bogus": 2}))
        with pytest.raises(UsageError):
            load_config(path)

    def test_unknown_threshold_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"thresholds": {"nope": 0.5}}))
        with pytest.raises(UsageError):
            load_config(path)

    def test_point_params_maps_lambda(self):
        params = read_config({"lambda": 0.8, "kappa": 0.2, "j": 2.0,
                              "n_cutoff": 10}).base
        assert params.lambda_ == 0.8 and params.kappa == 0.2

    def test_grids_required_for_sweeps(self):
        with pytest.raises(UsageError):
            check_grids(read_config({"omega": 1.0}))

    def test_descending_grid_rejected(self):
        with pytest.raises(UsageError):
            check_grids(read_config({"kappa_grid": [0.5, 0.0], "lambda_grid": [0.1]}))

    @pytest.mark.parametrize("key, value", [("bins", 5), ("fit_degree", -1)])
    def test_bad_bins_or_fit_degree_rejected(self, key, value):
        with pytest.raises(UsageError):
            check_grids(read_config({"kappa_grid": [0.0], "lambda_grid": [0.1], key: value}))

    @pytest.mark.parametrize("value", [80, 80.0, "80"])
    def test_integral_values_accepted(self, value):
        params = read_config({"j": 6.0, "n_cutoff": value}).base
        assert params.n_cutoff == 80 and isinstance(params.n_cutoff, int)

    @pytest.mark.parametrize("key, value", [
        ("workers", 1.9), ("n_cutoff", True), ("bins", "abc"), ("output_dir", 5),
        ("kappa", float("nan")), ("mid_window", [1.0]),
    ])
    def test_malformed_value_rejected_by_key(self, key, value):
        with pytest.raises(UsageError, match=key):
            check_grids(read_config({"kappa_grid": [0.0], "lambda_grid": [0.1], key: value}))

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(mean_r_min=1.5)
