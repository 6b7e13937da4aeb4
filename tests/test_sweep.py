"""Grid sweeps: determinism, caching, error isolation and file round-trips."""

import collections
import contextlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

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
from dicke_chaos.cache import KIND_ENERGIES, KIND_MID_COEFFS, KIND_MID_HISTOGRAM, KIND_TAIL_WEIGHTS
from dicke_chaos.cli import main
from dicke_chaos.eigenstate_stats import DEFAULT_BINS
from dicke_chaos.errors import UsageError
from dicke_chaos.spectrum import DEFAULT_TAIL_WIDTH
from dicke_chaos.sweep import (
    CSV_HEADER,
    check_grids,
    histogram_name,
    read_config,
    write_boundary_csv,
    write_errors_sidecar,
)

from child_process import child_env
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


def no_processes(*args, **kwargs):
    """Stands in for ``multiprocessing.get_context`` where a sweep must start no process."""
    raise AssertionError("a sweep started a process")


def no_pool(*args, **kwargs):
    """Stands in for the sweep's ``ThreadPoolExecutor`` where every point is on disk."""
    raise AssertionError("a sweep sent a point on disk to its pool")


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
        # the first point is solved in the pool; the sweep builds the cached later ones itself
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
    """A sweep computes the points whose needed entries are on disk in its calling thread
    and sends only the rest to its thread pool."""

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

    def test_cold_sweep_starts_no_process(self, tmp_path, monkeypatch):
        expected = sweep_csv(tmp_path / "uncached")

        monkeypatch.setattr(multiprocessing, "get_context", no_processes)
        assert sweep_csv(tmp_path / "cold", workers=2, cache_dir=tmp_path / "cache") == expected

    def test_warm_sweep_makes_each_key_once(self, tmp_path, monkeypatch):
        """The test of which points are on disk and the points' own reads share one key
        document per entry: three per warm point."""
        cache = fill_cache(tmp_path / "cache", GRID)
        made = []
        key = dicke_chaos.cache.cache_key
        monkeypatch.setattr(dicke_chaos.cache, "cache_key",
                            lambda *args: made.append(args[2]) or key(*args))
        run_sweep(small_config(tmp_path, cache_dir=cache))
        assert sorted(made) == sorted(
            [KIND_ENERGIES, KIND_TAIL_WEIGHTS, KIND_MID_HISTOGRAM] * len(GRID))

    def test_warm_pass_checks_and_builds_each_point_once(self, tmp_path, monkeypatch):
        """A warm 3 x 4 sweep plus boundary checks each point's unfolded spacings once,
        splits the degenerate ones from its spacings twice (raw, then unfolded), and
        builds one ModelParams per config read plus one per point."""
        grid = dict(kappa_grid=[0.0, 0.35, 0.7], lambda_grid=[0.2, 0.5, 0.9, 1.2])
        points = [(kappa, lam) for kappa in grid["kappa_grid"] for lam in grid["lambda_grid"]]
        config = sweep_config_file(tmp_path, fill_cache(tmp_path / "cache", points), **grid)
        calls = collections.Counter()

        def count(owner, name):
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or inner(*args))

        for name in ("_checked_spacings", "split_degenerate"):
            for module in (dicke_chaos.spectral_stats, dicke_chaos.sweep):
                if hasattr(module, name):
                    count(module, name)
        count(ModelParams, "__post_init__")
        args = ["--config", str(config), "--out", str(tmp_path / "out")]
        assert main(["sweep", *args]) == 0 and main(["boundary", *args]) == 0
        assert calls == {"_checked_spacings": 12, "split_degenerate": 24, "__post_init__": 14}

    @pytest.mark.parametrize("workers, cached, pool_size", [(2, 1, 2), (4, 3, 1)])
    def test_pool_gets_one_thread_per_miss_up_to_workers(self, tmp_path, monkeypatch,
                                                         workers, cached, pool_size):
        cache = fill_cache(tmp_path / "cache", GRID[:cached])
        sizes = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(dicke_chaos.sweep, "ThreadPoolExecutor", SpyExecutor)
        rows = run_sweep(small_config(tmp_path, workers=workers, cache_dir=cache))
        assert sizes == [pool_size]
        assert [(r.kappa, r.lambda_) for r in rows] == GRID
        assert all(r.dim == 527 for r in rows)

    @pytest.mark.parametrize("workers, cached, cores",
                             [(2, 1, 4), (4, 3, 4), (2, 0, 1), (2, 0, 3), (4, 0, 4)])
    def test_every_miss_solves_over_every_core(self, tmp_path, monkeypatch,
                                               workers, cached, cores):
        """Each miss's inverse iteration slices its states over every available core,
        however many pool threads solve beside it."""
        cache = fill_cache(tmp_path / "cache", GRID[:cached])
        slices = []

        def spy(windowed, tol, count):
            slices.append(count)
            return slice_bounds(windowed, tol, count)

        slice_bounds = dicke_chaos.spectrum._slice_bounds
        monkeypatch.setattr(dicke_chaos.spectrum, "_slice_bounds", spy)
        monkeypatch.setattr(dicke_chaos.spectrum, "available_cores", lambda: cores)
        rows = run_sweep(small_config(tmp_path, workers=workers, cache_dir=cache))
        assert slices == [cores] * (len(GRID) - cached)
        assert [(r.kappa, r.lambda_) for r in rows] == GRID and all(r.dim == 527 for r in rows)

    def test_blas_thread_count_never_changes_warm_bytes(self, tmp_path):
        """Warm rows are computed in the sweep's own process, whatever its BLAS threads."""
        config = sweep_config_file(tmp_path, fill_cache(tmp_path / "cache", GRID))
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "dicke_chaos.cli", "sweep", "--config",
                            str(config), "--out", str(out)],
                           env=env, capture_output=True, check=True, timeout=300)
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("kind, corruption", [(KIND_ENERGIES, "truncated"),
                                                  (KIND_ENERGIES, "mangled key"),
                                                  (KIND_TAIL_WEIGHTS, "truncated"),
                                                  (KIND_MID_COEFFS, "truncated")],
                             ids=["truncated", "mangled key", "tail_weights", "mid_coeffs"])
    def test_corrupt_entry_is_a_miss_and_its_solve_rewrites_it(self, tmp_path, monkeypatch,
                                                               kind, corruption):
        """A corrupt payload a run reads is remade and rewritten by the sweep's own process,
        and no other entry of its point is rewritten.  A warm sweep never reads the pooled
        components, so a corrupt components entry stays until a sweep at new bins heals it."""
        cache_dir = fill_cache(tmp_path / "cache", GRID)
        config = sweep_config_file(tmp_path, cache_dir, workers=2)
        args = ["sweep", "--config", str(config), "--out"]
        assert main([*args, str(tmp_path / "clean")]) == 0
        clean = (tmp_path / "clean" / "sweep.csv").read_bytes()

        cache = SpectrumCache(cache_dir)
        bad = replace(BASE, kappa=0.7, lambda_=0.2)
        payload = cache.load(bad, Parity.EVEN, kind, tail_width=DEFAULT_TAIL_WIDTH)
        path = cache.path(bad, Parity.EVEN, kind, tail_width=DEFAULT_TAIL_WIDTH)
        others = [cache.path(bad, Parity.EVEN, other, DEFAULT_TAIL_WIDTH, DEFAULT_BINS)
                  for other in (KIND_ENERGIES, KIND_TAIL_WEIGHTS, KIND_MID_COEFFS,
                                KIND_MID_HISTOGRAM) if other != kind]
        kept = [(other.stat().st_ino, other.read_bytes()) for other in others]
        blob = path.read_bytes()
        damaged = {
            "truncated": blob[:-8],
            "mangled key": blob[:16] + b"\xff" + blob[17:],  # not UTF-8
        }[corruption]
        path.write_bytes(damaged)

        # the corrupt entry is on disk, so the sweep's calling thread heals it
        monkeypatch.setattr(dicke_chaos.sweep, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "corrupt"
        assert main([*args, str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == clean
        assert not (out / "sweep_errors.json").exists()
        if kind == KIND_MID_COEFFS:  # read only to make a histogram at new bins
            assert path.read_bytes() == damaged
            assert main([*args, str(tmp_path / "bins57"), "--set", "bins=57"]) == 0
        assert np.array_equal(cache.load(bad, Parity.EVEN, kind, tail_width=DEFAULT_TAIL_WIDTH),
                              payload)
        assert [(other.stat().st_ino, other.read_bytes()) for other in others] == kept
        assert main([*args, str(tmp_path / "rerun")]) == 0
        assert (tmp_path / "rerun" / "sweep.csv").read_bytes() == clean

    def test_cache_without_pooled_components_stays_warm(self, tmp_path, monkeypatch):
        """A point's pooled components are read only to make a histogram at new bins:
        with every components entry deleted, a warm sweep at the cached bins solves
        nothing and writes nothing, and the next sweep at new bins remakes them."""
        cache_dir = fill_cache(tmp_path / "cache", GRID)
        config = sweep_config_file(tmp_path, cache_dir, workers=2)
        args = ["sweep", "--config", str(config), "--out"]
        assert main([*args, str(tmp_path / "clean")]) == 0
        cache = SpectrumCache(cache_dir)
        components = [cache.path(replace(BASE, kappa=kappa, lambda_=lam), Parity.EVEN,
                                 KIND_MID_COEFFS) for kappa, lam in GRID]
        blobs = [path.read_bytes() for path in components]
        for path in components:
            path.unlink()
        left = {path.name: (path.stat().st_ino, path.read_bytes())
                for path in cache_dir.iterdir()}

        solves = []

        def no_solve(*args, **kwargs):
            solves.append(args)
            raise AssertionError("a warm sweep solved for eigenvectors")

        with monkeypatch.context() as patched:
            patched.setattr(dicke_chaos.sweep, "ThreadPoolExecutor", no_pool)
            patched.setattr(dicke_chaos.sweep, "windowed_eigenvectors", no_solve)
            assert main([*args, str(tmp_path / "warm")]) == 0
        assert solves == []
        assert (tmp_path / "warm" / "sweep.csv").read_bytes() == (
            tmp_path / "clean" / "sweep.csv").read_bytes()
        assert {path.name: (path.stat().st_ino, path.read_bytes())
                for path in cache_dir.iterdir()} == left

        bins = ["--set", "bins=57"]
        assert main([*args, str(tmp_path / "bins_warm"), *bins]) == 0
        assert main([*args, str(tmp_path / "bins_cold"), *bins,
                     "--set", f"cache_dir={tmp_path / 'cold_cache'}"]) == 0
        assert (tmp_path / "bins_warm" / "sweep.csv").read_bytes() == (
            tmp_path / "bins_cold" / "sweep.csv").read_bytes()
        assert [path.read_bytes() for path in components] == blobs

    def test_killed_sweep_resumes_without_rewriting_finished_entries(self, tmp_path):
        """A sweep killed mid-grid resumes when rerun on the same cache: it writes the
        bytes of a clean run and rewrites no entry the killed run left, so no finished
        payload is made again.  Temporary files a kill leaves are not entries."""
        cache_dir, out = tmp_path / "cache", tmp_path / "out"
        config = sweep_config_file(tmp_path, cache_dir, workers=2)
        with running_sweep(config, out, lambda: any(cache_dir.glob("*.spec"))) as proc:
            proc.kill()
        assert not (out / "sweep.csv").exists()

        written = {p.name: p.stat().st_ino for p in cache_dir.glob("*.spec")}
        assert written
        args = ["sweep", "--config", str(config), "--out"]
        assert main([*args, str(tmp_path / "resumed")]) == 0
        assert main([*args, str(tmp_path / "clean"), "--set", "cache_dir="]) == 0
        assert ((tmp_path / "resumed" / "sweep.csv").read_bytes()
                == (tmp_path / "clean" / "sweep.csv").read_bytes())
        assert {name: (cache_dir / name).stat().st_ino for name in written} == written

    @pytest.mark.parametrize("terminal", [False, True], ids=["first entry", "terminal"])
    def test_interrupted_sweep_exits_130_and_leaves_no_process(self, tmp_path, terminal):
        """SIGINT while the pool solves ends the sweep with exit 130 and one line on stderr,
        and no process is left: sent to the sweep once its first entry is written, or to
        its whole process group, as a terminal's Ctrl-C is, 0.1 s after it makes --out."""
        cache_dir, out = tmp_path / "cache", tmp_path / "out"
        config = sweep_config_file(tmp_path, cache_dir, workers=2, kappa_grid=[0.0, 0.3, 0.7],
                                   lambda_grid=[0.2, 0.5, 0.9, 1.2])
        ready = out.exists if terminal else lambda: any(cache_dir.glob("*.spec"))
        with running_sweep(config, out, ready) as proc:
            if terminal:  # a terminal's Ctrl-C signals the whole foreground process group
                time.sleep(0.1)
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 130, err
            assert err == "error: interrupted\n"
            assert not (out / "sweep.csv").exists()
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a process outlived the interrupted sweep"
                time.sleep(0.05)


@contextlib.contextmanager
def running_sweep(config, out, ready):
    """A CLI sweep in a fresh process that leads its own process group, handed over once
    ``ready()`` holds, within 120 s and before it exits; the group is killed afterwards."""
    proc = subprocess.Popen([sys.executable, "-m", "dicke_chaos.cli", "sweep", "--config",
                             str(config), "--out", str(out)],
                            env=child_env(), stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not ready():
            assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
            time.sleep(0.01)
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


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

    def test_nan_meta_is_strict_json_null(self, tmp_path):
        """A library call with a NaN meta value writes null, never the token NaN."""
        from dicke_chaos import build_histogram

        path = tmp_path / "hist.json"
        write_histogram(build_histogram([0.1, 0.4, 0.4], bins=10), path,
                        {"eta": math.nan, "beta": 0.5, "n": 3})
        assert "NaN" not in path.read_text()
        _, meta = read_histogram(path)  # a parser that rejects NaN and Infinity
        assert meta == {"eta": None, "beta": 0.5, "n": 3}

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
        assert not write_errors_sidecar([ok], path)  # an earlier run's sidecar goes
        assert not path.exists()


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


def read_doc(tmp_path, doc, overrides=()):
    """``read_config`` on ``doc`` written as a config file."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return read_config(path, overrides)


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
        config = check_grids(read_doc(tmp_path, doc))
        assert config.base.j == 6.0
        assert config.kappa_grid == (0.0, 0.5)
        assert config.fit_degree == 8
        assert config.thresholds.mean_r_min == 0.48

    @pytest.mark.parametrize("name", [f.name for f in fields(Thresholds)])
    def test_every_threshold_field_is_a_config_key(self, tmp_path, name):
        """The config reader accepts exactly the Thresholds fields."""
        config = read_doc(tmp_path, {"thresholds": {name: 0.25}},
                          [(f"thresholds.{name}", 0.5)])
        assert getattr(config.thresholds, name) == 0.5
        with pytest.raises(UsageError, match=f"thresholds.{name}x"):
            read_doc(tmp_path, {"thresholds": {f"{name}x": 0.25}})

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            read_doc(tmp_path, {"omega": 1.0, "bogus": 2})

    def test_unknown_threshold_key_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            read_doc(tmp_path, {"thresholds": {"nope": 0.5}})

    def test_point_params_maps_lambda(self, tmp_path):
        params = read_doc(tmp_path, {"lambda": 0.8, "kappa": 0.2, "j": 2.0,
                                     "n_cutoff": 10}).base
        assert params.lambda_ == 0.8 and params.kappa == 0.2

    def test_grids_required_for_sweeps(self, tmp_path):
        with pytest.raises(UsageError):
            check_grids(read_doc(tmp_path, {"omega": 1.0}))

    def test_descending_grid_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            check_grids(read_doc(tmp_path, {"kappa_grid": [0.5, 0.0], "lambda_grid": [0.1]}))

    @pytest.mark.parametrize("grids, message", [
        (dict(kappa_grid=(0.0, math.inf), lambda_grid=(0.1,)), "kappa_grid: kappa must be finite"),
        (dict(kappa_grid=(0.0,), lambda_grid=(0.1, math.nan, 0.3)),
         "lambda_grid: lambda_ must be finite"),
    ], ids=["inf kappa", "nan lambda"])
    def test_every_grid_value_is_checked(self, grids, message):
        """A run_sweep point is never a ModelParams the config could not make."""
        with pytest.raises(ValueError, match=message):
            SweepConfig(base=BASE, **grids)

    @pytest.mark.parametrize("key, value", [("bins", 5), ("fit_degree", -1)])
    def test_bad_bins_or_fit_degree_rejected(self, tmp_path, key, value):
        with pytest.raises(UsageError):
            check_grids(read_doc(tmp_path, {"kappa_grid": [0.0], "lambda_grid": [0.1],
                                            key: value}))

    @pytest.mark.parametrize("value", [80, 80.0, "80"])
    def test_integral_values_accepted(self, tmp_path, value):
        params = read_doc(tmp_path, {"j": 6.0, "n_cutoff": value}).base
        assert params.n_cutoff == 80 and isinstance(params.n_cutoff, int)

    @pytest.mark.parametrize("key, value", [
        ("workers", 1.9), ("n_cutoff", True), ("bins", "abc"), ("output_dir", 5),
        ("kappa", float("nan")), ("mid_window", [1.0]),
    ])
    def test_malformed_value_rejected_by_key(self, tmp_path, key, value):
        with pytest.raises(UsageError, match=key):
            check_grids(read_doc(tmp_path, {"kappa_grid": [0.0], "lambda_grid": [0.1],
                                            key: value}))

    def test_overrides_apply_in_order(self, tmp_path):
        config = read_doc(tmp_path, {"j": 6.0, "thresholds": {"eta_max": 0.2}},
                          [("j", 4), ("j", 5), ("thresholds.beta_min", 0.6)])
        assert config.base.j == 5
        assert config.thresholds == Thresholds(eta_max=0.2, beta_min=0.6)

    @pytest.mark.parametrize("overrides", [(), [("thresholds.eta_max", 0.2)]])
    def test_malformed_thresholds_rejected(self, tmp_path, overrides):
        with pytest.raises(UsageError, match="thresholds must be an object"):
            read_doc(tmp_path, {"thresholds": 5}, overrides)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(mean_r_min=1.5)
