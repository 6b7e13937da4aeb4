"""One point pipeline: the sweep's point data agrees with the library route."""

import contextlib
import ctypes
import itertools
import json
import math
import os
import shutil

import numpy as np
import pytest

import dicke_chaos.spectrum as spectrum
import dicke_chaos.sweep as sweep
from dicke_chaos import (
    HamiltonianMatrix,
    ModelParams,
    Parity,
    SpectrumCache,
    SweepConfig,
    build_hamiltonian,
    build_histogram,
    collect_coefficients,
    compute_point,
    diagonalize,
    filter_energy_window,
    kl_divergence,
    run_sweep,
    windowed_eigenvectors,
)
from dicke_chaos.cache import (KIND_ENERGIES, KIND_MID_COEFFS, KIND_MID_HISTOGRAM,
                               KIND_TAIL_WEIGHTS)
from dicke_chaos.cli import main
from dicke_chaos.eigenstate_stats import DEFAULT_BINS
from dicke_chaos.errors import ConvergenceFailure
from dicke_chaos.spectral_stats import (DEFAULT_FIT_DEGREE, spacing_ratios, split_degenerate,
                                        unfold)
from dicke_chaos.spectrum import DEFAULT_TAIL_TOL, DEFAULT_TAIL_WIDTH, tail_weights
from dicke_chaos.sweep import compute_point_data

from histogram_io import read_histogram

# chaotic, regular and degenerate (integer spectrum) points
POINTS = [(0.9, 0.0), (0.3, 0.7), (0.0, 0.0)]


def library_dataset(params):
    """The analysis-window dataset of one point, vectors included, by the library calls."""
    h = build_hamiltonian(params, Parity.EVEN)
    eig = diagonalize(h)
    ds = filter_energy_window(eig, params)
    ds.coefficients = windowed_eigenvectors(h.band, eig.energies, ds.window_indices)
    return ds


@pytest.mark.parametrize("lam, kappa", POINTS)
def test_compute_point_matches_library_route(lam, kappa):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    row = compute_point(params)
    ds = library_dataset(params)
    assert row.n_levels == ds.energies.size
    assert row.d_kl == kl_divergence(collect_coefficients(ds))
    assert row.converged_fraction == np.mean(tail_weights(ds) < DEFAULT_TAIL_TOL)


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
    # 4 points x 4 entries: energies, mid-window coefficients, tail weights, histogram
    assert entries[0] == entries[1] and len(entries[0]) == 16


def test_thread_count_never_changes_a_row_or_a_cache_byte(tmp_path, monkeypatch):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.7)
    rows, entries, real = [], [], spectrum.available_cores
    for cores in (1, None, 3):  # None: the cores this process may run on
        monkeypatch.setattr(spectrum, "available_cores", real if cores is None else lambda: cores)
        cache_dir = tmp_path / f"cores{cores}"
        rows.append(compute_point(params, cache=SpectrumCache(cache_dir)))
        entries.append({p.name: p.read_bytes() for p in cache_dir.iterdir()})
    assert rows[0].error is None and len(entries[0]) == 4
    assert rows[0] == rows[1] == rows[2]
    assert entries[0] == entries[1] == entries[2]


def test_vector_run_reuses_the_cached_eigenvalues(tmp_path, monkeypatch):
    """A vector run on a point whose eigenvalues alone are cached (eigstats or sweep
    after spacing) solves no eigenvalues and leaves their entry as it is."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0)
    solves = []

    def spy(h, *args, **kwargs):
        solves.append(h.dim)
        return diagonalize(h, *args, **kwargs)

    monkeypatch.setattr(sweep, "diagonalize", spy)
    cache = SpectrumCache(tmp_path)
    compute_point_data(params, cache, want_vectors=False)
    energies_entry = cache.path(params, Parity.EVEN, KIND_ENERGIES)
    inode = os.stat(energies_entry).st_ino
    data = compute_point_data(params, cache)
    assert solves == [527]
    assert os.stat(energies_entry).st_ino == inode  # os.replace would give a new inode
    uncached = compute_point_data(params)
    assert np.array_equal(data.tail, uncached.tail)
    assert np.array_equal(cache.load(params, Parity.EVEN, KIND_MID_COEFFS),
                          collect_coefficients(library_dataset(params)).values)


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


def point_config(tmp_path, name, **doc):
    """A config file at j = 6, n_cutoff = 80 with the keys of ``doc``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"j": 6.0, "n_cutoff": 80, **doc}))
    return path


GRID = {"kappa_grid": [0.0, 0.7], "lambda_grid": [0.0, 0.9]}


@pytest.mark.parametrize("bins", [201, 57])
@pytest.mark.parametrize("lam, kappa", [(0.3, 0.7), (0.9, 0.0)], ids=["regular", "chaotic"])
def test_warm_d_kl_and_p_of_c_equal_the_pooled_components_route(tmp_path, lam, kappa, bins):
    """A warm point reads D_KL and P(c) off its cached histogram: bit for bit what the
    cold and the uncached runs give, and what histogramming the components gives."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    cache = SpectrumCache(tmp_path / "cache")
    cold = compute_point(params, bins=bins, cache=cache)
    warm = compute_point(params, bins=bins, cache=cache)
    sample = collect_coefficients(library_dataset(params))
    assert cold.d_kl == warm.d_kl == kl_divergence(sample, bins)
    config = point_config(tmp_path, "point", **{"lambda": lam, "kappa": kappa, "bins": bins})
    name = f"hist_coeff_{format(kappa, 'g')}_{format(lam, 'g')}.json"
    written = {}
    for run, cache_dir in (("uncached", ""), ("warm", cache.root)):
        assert main(["eigstats", "--config", str(config), "--out", str(tmp_path / run),
                     "--set", f"cache_dir={cache_dir}"]) == 0
        written[run] = (tmp_path / run / name).read_bytes()
    assert written["warm"] == written["uncached"]
    hist, meta = read_histogram(tmp_path / "warm" / name)
    reference = build_histogram(sample.values, bins, (sample.c_min, sample.c_max))
    for field in ("edges", "densities", "counts"):
        assert np.array_equal(getattr(hist, field), getattr(reference, field))
    assert meta["d_kl"] == warm.d_kl


@pytest.mark.parametrize("bins", [201, 57])
@pytest.mark.parametrize("lam, kappa", POINTS)
def test_histogram_files_hold_np_histogram_bins(tmp_path, lam, kappa, bins):
    """Each P(s), P(r) and P(c) file holds np.histogram's own edges and counts of the
    values it describes, and densities counts / (total * width), pinned independently
    of the package's Histogram record."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=kappa)
    ds = library_dataset(params)
    spacings, _ = split_degenerate(unfold(ds.energies, DEFAULT_FIT_DEGREE).spacings)
    coefficients = collect_coefficients(ds).values
    described = {
        "spacing": (spacings, (0.0, float(spacings.max()))),
        "ratio": (spacing_ratios(ds.energies)[0], (0.0, 1.0)),
        "coeff": (coefficients, (float(coefficients.min()), float(coefficients.max()))),
    }
    config = point_config(tmp_path, "point", **{"lambda": lam, "kappa": kappa, "bins": bins})
    for kind, (values, value_range) in described.items():
        command = "eigstats" if kind == "coeff" else kind
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        name = f"hist_{kind}_{format(kappa, 'g')}_{format(lam, 'g')}.json"
        hist, _ = read_histogram(tmp_path / name)
        counts, edges = np.histogram(values, bins, value_range)
        assert np.array_equal(hist.edges, edges)
        assert np.array_equal(hist.counts, counts)
        total = counts.sum()
        expected = counts / (total * np.diff(edges)) if total else np.zeros(bins)
        assert np.array_equal(hist.densities, expected)


def test_empty_mid_window_is_still_a_d_kl_note(tmp_path, capsys):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0, mid_window=(6.5, 7.0))
    cache = SpectrumCache(tmp_path / "cache")
    cold, warm = (compute_point(params, cache=cache) for _ in range(2))
    assert cold == warm
    assert math.isnan(warm.d_kl) and "d_kl: mid window empty" in warm.error.split("; ")
    assert cache.load(params, Parity.EVEN, KIND_MID_HISTOGRAM, bins=DEFAULT_BINS).size == 0
    config = point_config(tmp_path, "point", **{"lambda": 0.9, "mid_window": [6.5, 7.0],
                                                 "cache_dir": str(cache.root)})
    assert main(["eigstats", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: EmptyWindow: no eigenstate inside the mid-spectrum window\n")


@pytest.mark.parametrize("ulps", [0, 2], ids=["one value", "two ulps apart"])
def test_collapsed_coefficient_range_is_still_a_degenerate_range(tmp_path, capsys, ulps):
    """Components planted with (nearly) one value: the histogram made from them keeps
    the row's DegenerateRange note and eigstats' exit 2, and np.histogram, which cannot
    split two ulps into bins, is never asked to."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0)
    cache = SpectrumCache(tmp_path / "cache")
    data = compute_point_data(params, cache)
    values = np.full(data.energies.size * data.coefficients.n_states, 0.25)
    for _ in range(ulps):
        values[-1] = np.nextafter(values[-1], 1.0)
    cache.store(params, Parity.EVEN, KIND_MID_COEFFS, values)
    cache.path(params, Parity.EVEN, KIND_MID_HISTOGRAM, bins=DEFAULT_BINS).unlink()
    row = compute_point(params, cache=cache)
    assert math.isnan(row.d_kl)
    assert "d_kl: coefficient range collapsed to a point" in row.error.split("; ")
    config = point_config(tmp_path, "point", **{"lambda": 0.9, "cache_dir": str(cache.root)})
    assert main(["eigstats", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: DegenerateRange: coefficient range collapsed to a point\n")


def test_warm_sweep_reads_no_pooled_components(tmp_path, monkeypatch):
    config = point_config(tmp_path, "sweep", cache_dir=str(tmp_path / "cache"), **GRID)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "cold")]) == 0
    kinds = []
    load = SpectrumCache.load

    def spy(self, params, sector, kind, *args, **kwargs):
        kinds.append(kind)
        return load(self, params, sector, kind, *args, **kwargs)

    monkeypatch.setattr(SpectrumCache, "load", spy)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "warm")]) == 0
    assert sorted(kinds) == sorted([KIND_ENERGIES, KIND_TAIL_WEIGHTS, KIND_MID_HISTOGRAM] * 4)
    assert ((tmp_path / "warm" / "sweep.csv").read_bytes()
            == (tmp_path / "cold" / "sweep.csv").read_bytes())


def test_new_bins_on_a_warm_cache_adds_one_histogram_per_point(tmp_path, monkeypatch):
    """A warm sweep at bins it has no histograms for makes them from the cached
    components in its own process, rewrites no entry, and writes a cold sweep's bytes."""
    cache_dir = tmp_path / "cache"
    config = point_config(tmp_path, "sweep", **GRID)

    def sweep_csv(name, *overrides):
        args = ["sweep", "--config", str(config), "--out", str(tmp_path / name)]
        assert main([*args, *(x for o in overrides for x in ("--set", o))]) == 0
        return (tmp_path / name / "sweep.csv").read_bytes()

    at_201 = sweep_csv("first", f"cache_dir={cache_dir}")
    cold = sweep_csv("cold", f"cache_dir={tmp_path / 'fresh'}", "bins=57")
    entries = {p.name: (p.stat().st_ino, p.read_bytes()) for p in cache_dir.iterdir()}

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm sweep started a pool")

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", no_pool)
    assert sweep_csv("warm", f"cache_dir={cache_dir}", "bins=57") == cold != at_201
    after = {p.name: (p.stat().st_ino, p.read_bytes()) for p in cache_dir.iterdir()}
    assert {name: after[name] for name in entries} == entries
    grid = [ModelParams(j=6.0, n_cutoff=80, kappa=kappa, lambda_=lam)
            for kappa in GRID["kappa_grid"] for lam in GRID["lambda_grid"]]
    cache = SpectrumCache(cache_dir)
    assert set(after) - set(entries) == {
        cache.path(params, Parity.EVEN, KIND_MID_HISTOGRAM, bins=57).name for params in grid}


def test_truncated_histogram_is_remade_from_the_cached_components(tmp_path, monkeypatch):
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.0)
    cache = SpectrumCache(tmp_path)
    cold = compute_point(params, cache=cache)
    entry = cache.path(params, Parity.EVEN, KIND_MID_HISTOGRAM, bins=DEFAULT_BINS)
    blob = entry.read_bytes()
    entry.write_bytes(blob[:-8])

    def no_solve(*args, **kwargs):
        raise AssertionError("a point with its components cached solved for vectors")

    monkeypatch.setattr(sweep, "windowed_eigenvectors", no_solve)
    monkeypatch.setattr(sweep, "build_hamiltonian", no_solve)
    assert compute_point(params, cache=cache) == cold
    assert entry.read_bytes() == blob


KINDS = (KIND_ENERGIES, KIND_TAIL_WEIGHTS, KIND_MID_COEFFS, KIND_MID_HISTOGRAM)
DAMAGE = ([("deleted", kinds) for n in range(len(KINDS) + 1)
           for kinds in itertools.combinations(KINDS, n)]
          + [("truncated", (kind,)) for kind in KINDS])


@pytest.fixture(scope="module")
def warm_point(tmp_path_factory):
    """A chaotic j = 6 point: its warm cache directory, uncached data and uncached row."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.7)
    root = tmp_path_factory.mktemp("warm")
    compute_point_data(params, SpectrumCache(root))
    row = compute_point(params)
    assert row.error is None and len(list(root.iterdir())) == len(KINDS)
    return params, root, compute_point_data(params), row


def entries(root):
    return {p.name: (p.stat().st_ino, p.read_bytes()) for p in root.iterdir()}


@pytest.mark.parametrize("how, kinds", DAMAGE,
                         ids=[f"{how}-{'+'.join(kinds) or 'none'}" for how, kinds in DAMAGE])
def test_each_payload_is_read_or_made_by_one_rule(tmp_path, monkeypatch, warm_point, how, kinds):
    """Over every partial cache: a payload is read if its entry is sound, else made and
    stored; the components are read only for a missing histogram and solved only when
    both are gone; H is built, and the vectors solved, at most once and only for a
    payload that needs them; and run_sweep starts a pool exactly when a deleted entry
    needs H built."""
    params, warm, uncached, uncached_row = warm_point
    original = {name: blob for name, (_, blob) in entries(warm).items()}
    caches = [SpectrumCache(shutil.copytree(warm, tmp_path / name)) for name in ("point", "sweep")]
    for cache, kind in itertools.product(caches, kinds):
        entry = cache.path(params, Parity.EVEN, kind, DEFAULT_TAIL_WIDTH, DEFAULT_BINS)
        if how == "deleted":
            entry.unlink()
        else:
            entry.write_bytes(entry.read_bytes()[:-8])
    missing = set(kinds)
    solve = KIND_ENERGIES in missing
    vectors = KIND_TAIL_WEIGHTS in missing or {KIND_MID_COEFFS, KIND_MID_HISTOGRAM} <= missing
    remade = {caches[0].path(params, Parity.EVEN, kind, DEFAULT_TAIL_WIDTH, DEFAULT_BINS).name
              for kind in missing
              if kind != KIND_MID_COEFFS or KIND_MID_HISTOGRAM in missing}
    calls = dict.fromkeys(("diagonalize", "build_hamiltonian", "windowed_eigenvectors"), 0)
    for name in calls:
        def spy(*args, _name=name, _real=getattr(sweep, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sweep, name, spy)
    before = entries(caches[0].root)
    data = compute_point_data(params, caches[0])
    assert calls == {"diagonalize": int(solve), "build_hamiltonian": int(solve or vectors),
                     "windowed_eigenvectors": int(vectors)}
    for field in ("energies", "window_indices", "tail"):
        assert np.array_equal(getattr(data, field), getattr(uncached, field))
    assert np.array_equal(data.coefficients.payload, uncached.coefficients.payload)
    assert data.coefficients.dim == uncached.coefficients.dim
    after = entries(caches[0].root)
    assert set(after) == set(before) | remade
    for name, (inode, blob) in after.items():
        assert blob == original[name] if name in remade else (inode, blob) == before[name]

    pools = []

    class InlineExecutor(contextlib.nullcontext):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(self)

        def map(self, fn, misses):
            return map(fn, misses)

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", InlineExecutor)
    config = SweepConfig(base=params, kappa_grid=(params.kappa,), lambda_grid=(params.lambda_,),
                         cache_dir=caches[1].root)
    assert run_sweep(config) == [uncached_row]
    # a truncated entry is on disk, so its point is healed in the sweep's own process
    assert pools == ([1] if (solve or vectors) and how == "deleted" else [])


def test_eigenvalues_are_stored_before_the_vector_solve(tmp_path, monkeypatch):
    """A point whose vector solve fails keeps its eigenvalue entry, so a rerun (a killed
    sweep resumed, say) solves only the vectors and writes the clean row."""
    params = ModelParams(j=6.0, n_cutoff=80, lambda_=0.9, kappa=0.7)
    clean = compute_point(params)
    cache = SpectrumCache(tmp_path)

    def no_convergence(*args, **kwargs):
        raise ConvergenceFailure("inverse iteration did not converge for state 0")

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "windowed_eigenvectors", no_convergence)
        failed = compute_point(params, cache=cache)
    assert failed.error == "ConvergenceFailure: inverse iteration did not converge for state 0"
    assert failed.dim == 0 and math.isnan(failed.eta)
    assert [p.name for p in tmp_path.iterdir()] == [
        cache.path(params, Parity.EVEN, KIND_ENERGIES).name]

    def no_solve(*args, **kwargs):
        raise AssertionError("the rerun solved the eigenvalues again")

    monkeypatch.setattr(sweep, "diagonalize", no_solve)
    assert compute_point(params, cache=cache) == clean


def test_a_band_solve_failing_its_certificate_stores_nothing(tmp_path, monkeypatch):
    """A dsbevd that returns one eigenvalue moved by 1e-6 max|E| fails the trace and
    Frobenius checks: the point raises, leaves no energies entry, and is an error row of
    a sweep whose other point is on disk."""
    good, bad = (ModelParams(j=6.0, n_cutoff=80, lambda_=lam, kappa=0.7) for lam in (0.3, 0.9))
    cache = SpectrumCache(tmp_path)
    clean = compute_point(good, cache=cache)
    real, integer, lengths = spectrum._dsbevd()
    n_at = np.ctypeslib.as_ctypes_type(integer).from_address  # integers of the routine's width

    def dsbevd(*args):  # args[2] is the address of n and args[6] that of the eigenvalues
        real(*args)
        w = np.ctypeslib.as_array((ctypes.c_double * n_at(args[2]).value).from_address(args[6]))
        w[w.size // 2] += 1e-6 * np.max(np.abs(w))

    monkeypatch.setattr(spectrum, "_dsbevd", lambda: (dsbevd, integer, lengths))
    with pytest.raises(ConvergenceFailure, match="tr H"):
        compute_point_data(bad, cache=cache)
    energies = cache.path(bad, Parity.EVEN, KIND_ENERGIES)
    assert not energies.exists()
    config = SweepConfig(base=good, kappa_grid=(0.7,), lambda_grid=(0.3, 0.9),
                         cache_dir=tmp_path)
    rows = run_sweep(config)
    assert rows[0] == clean
    assert rows[1].error.startswith("ConvergenceFailure: eigensolver failed: dsbevd eigenvalues")
    assert rows[1].dim == 0 and math.isnan(rows[1].eta)
    assert not energies.exists()
