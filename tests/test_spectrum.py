"""Diagonalization, window filtering, convergence checks and the spectrum cache."""

import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

import dicke_chaos.spectrum as spectrum
from dicke_chaos import (
    EigenDecomposition,
    HamiltonianMatrix,
    ModelParams,
    Parity,
    SpectralDataset,
    SpectrumCache,
    build_hamiltonian,
    collect_coefficients,
    compute_point,
    diagonalize,
    enumerate_basis,
    filter_energy_window,
    kl_divergence,
    windowed_eigenvectors,
)
from dicke_chaos.cache import (KIND_ENERGIES, KIND_MID_COEFFS, KIND_MID_HISTOGRAM,
                               KIND_TAIL_WEIGHTS, VERSION, cache_key)
from dicke_chaos.eigenstate_stats import DEFAULT_BINS
from dicke_chaos.errors import ConvergenceFailure, EmptyWindow, MissingVectors
from dicke_chaos.spectrum import (CLUSTER_TOL, DEFAULT_TAIL_TOL, DEFAULT_TAIL_WIDTH, _fix_phases,
                                  _slice_bounds, _window_mask, tail_weights)
from dicke_chaos.sweep import compute_point_data

from child_process import run_probe


def solve(params, sector=Parity.EVEN, want_vectors=False):
    return diagonalize(build_hamiltonian(params, sector), want_vectors=want_vectors)


class TestDiagonalize:
    def test_diagonal_limit_plain(self):
        # lambda = kappa = 0: spectrum is exactly the multiset {n + m}
        p = ModelParams(lambda_=0.0, kappa=0.0, j=4.0, n_cutoff=30)
        eig = solve(p)
        expected = np.sort([s.n + s.m for s in enumerate_basis(p, Parity.EVEN)])
        assert np.max(np.abs(eig.energies - expected)) < 1e-10

    def test_diagonal_limit_with_interaction(self):
        # kappa on, coupling off: {n + m + kappa m^2 / N}
        p = ModelParams(lambda_=0.0, kappa=0.7, j=4.0, n_cutoff=30)
        eig = solve(p)
        expected = np.sort(
            [s.n + s.m + 0.7 * s.m**2 / 8.0 for s in enumerate_basis(p, Parity.EVEN)]
        )
        assert np.max(np.abs(eig.energies - expected)) < 1e-10

    def test_two_by_two_toy_analytic(self):
        # even sector of j=1/2, Nc=1 is {(0,-1/2), (1,+1/2)}; quadratic formula oracle
        p = ModelParams(omega=1.0, omega0=0.5, lambda_=0.3, kappa=0.2, j=0.5, n_cutoff=1)
        h = build_hamiltonian(p, Parity.EVEN)
        assert h.dim == 2
        a = -0.5 * 0.5 + 0.2 * 0.25  # diagonal of (0, -1/2)
        b = 1.0 + 0.5 * 0.5 + 0.2 * 0.25  # diagonal of (1, +1/2)
        c = 0.3 * 1.0 * 1.0  # sqrt(n+1)=1, sqrt(j(j+1) - m(m+1)) = 1, N = 1
        disc = np.sqrt((a - b) ** 2 + 4 * c * c)
        expected = np.sort([(a + b - disc) / 2, (a + b + disc) / 2])
        np.testing.assert_allclose(eig_vals := diagonalize(h).energies, expected, atol=1e-14)
        assert eig_vals[0] == pytest.approx(-0.2577747210701755, abs=1e-12)
        assert eig_vals[1] == pytest.approx(1.3577747210701756, abs=1e-12)

    def test_energies_ascending(self):
        p = ModelParams(lambda_=0.8, kappa=0.5, j=3.0, n_cutoff=40)
        eig = solve(p)
        assert np.all(np.diff(eig.energies) >= 0)

    def test_orthonormality_and_residual(self):
        p = ModelParams(lambda_=0.6, kappa=0.3, j=4.0, n_cutoff=40)
        h = build_hamiltonian(p, Parity.EVEN)
        eig = diagonalize(h, want_vectors=True)
        v = eig.vectors
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(h.dim))) < 1e-8
        resid = h.entries @ v - v * eig.energies
        scale = 1.0 + np.abs(eig.energies)
        assert np.max(np.linalg.norm(resid, axis=0) / scale) < 1e-8

    def test_phase_convention(self):
        p = ModelParams(lambda_=0.7, kappa=0.2, j=2.0, n_cutoff=30)
        eig = solve(p, want_vectors=True)
        lead = np.argmax(np.abs(eig.vectors), axis=0)
        assert np.all(eig.vectors[lead, np.arange(eig.vectors.shape[1])] > 0)

    def test_no_vectors_by_default(self):
        p = ModelParams(j=1.0, n_cutoff=10)
        assert solve(p).vectors is None


def dense_from_band(ab):
    """Symmetric dense matrix whose LAPACK lower band storage is ``ab``."""
    dim = ab.shape[1]
    h = np.zeros((dim, dim))
    for d in range(ab.shape[0]):
        i = np.arange(dim - d)
        h[i + d, i] = ab[d, : dim - d]
        h[i, i + d] = ab[d, : dim - d]
    return h


def evr_oracle(h):
    """The dense relatively-robust-representation solve the band solve replaced."""
    return scipy.linalg.eigh(h.entries, eigvals_only=True, driver="evr")


SMALL_BLOCKS = [
    (j, n_cutoff, sector)
    for j, n_cutoff in [(0.5, 7), (2.0, 11), (2.5, 9), (6.0, 40)]
    for sector in (Parity.EVEN, Parity.ODD, None)
]


class TestBandedSolve:
    @pytest.mark.parametrize("j, n_cutoff, sector", SMALL_BLOCKS)
    def test_band_rebuilds_dense_matrix(self, j, n_cutoff, sector):
        h = build_hamiltonian(ModelParams(lambda_=0.7, kappa=0.4, j=j, n_cutoff=n_cutoff), sector)
        assert h.band.shape == (h.bandwidth + 1, h.dim)
        assert np.array_equal(dense_from_band(h.band), h.entries)

    @pytest.mark.parametrize("sector", [Parity.EVEN, Parity.ODD, None])
    def test_uncoupled_band_is_the_diagonal(self, sector):
        h = build_hamiltonian(ModelParams(lambda_=0.0, kappa=0.6, j=2.5, n_cutoff=9), sector)
        assert h.bandwidth == 0 and h.band.shape == (1, h.dim)
        assert np.array_equal(dense_from_band(h.band), h.entries)
        assert np.array_equal(diagonalize(h).energies, np.sort(np.diag(h.entries)))

    def test_two_by_two_toy_band(self):
        p = ModelParams(omega=1.0, omega0=0.5, lambda_=0.3, kappa=0.2, j=0.5, n_cutoff=1)
        h = build_hamiltonian(p, Parity.EVEN)
        assert h.bandwidth == 1
        assert np.array_equal(h.band[1, :1], h.entries[1, :1])
        assert h.band[1, 1] == 0.0
        assert np.array_equal(dense_from_band(h.band), h.entries)

    @pytest.mark.parametrize("j, n_cutoff, sector", SMALL_BLOCKS)
    @pytest.mark.parametrize("lam, kappa", [(0.1, 0.0), (0.7, 0.4), (1.5, 1.2)])
    def test_matches_dense_oracle(self, j, n_cutoff, sector, lam, kappa):
        h = build_hamiltonian(ModelParams(lambda_=lam, kappa=kappa, j=j, n_cutoff=n_cutoff), sector)
        assert np.max(np.abs(diagonalize(h).energies - evr_oracle(h))) <= 1e-10

    def test_matches_dense_oracle_at_full_scale(self, full_scale):
        h = full_scale.h
        assert h.dim == 5297 and h.bandwidth == 17
        assert np.max(np.abs(full_scale.eig.energies - full_scale.evr)) <= 1e-10

    def test_values_route_holds_no_dense_matrix(self):
        p = ModelParams(lambda_=1.0, kappa=0.5, j=8.0, n_cutoff=160)
        tracemalloc.start()
        try:
            h = build_hamiltonian(p, Parity.EVEN)
            energies = diagonalize(h).energies
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.dim == energies.size == 1369
        assert peak < 8 * h.dim**2

    @pytest.mark.parametrize("params", [
        ModelParams(lambda_=0.0, kappa=0.6, j=2.5, n_cutoff=9),  # bandwidth 0
        ModelParams(lambda_=0.7, kappa=0.4, j=1.0, n_cutoff=4),
        ModelParams(lambda_=0.001, kappa=0.7, j=6.0, n_cutoff=80),  # D = 527, near ties
        ModelParams(lambda_=1.0, kappa=0.5, j=8.0, n_cutoff=160),  # D = 1369
    ], ids=["bandwidth 0", "j=1", "near ties", "D=1369"])
    def test_gil_free_solve_gives_the_bytes_of_eig_banded(self, params):
        h = build_hamiltonian(params, Parity.EVEN)
        reference = scipy.linalg.eig_banded(h.band, lower=True, eigvals_only=True)
        assert diagonalize(h).energies.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("info, error", [(-1, RuntimeError), (1, ConvergenceFailure)])
    def test_band_solve_raises_on_lapack_info(self, monkeypatch, info, error):
        _, integer, lengths = spectrum._dsbevd()

        def dsbevd(*args):  # args[13] is the address of info, an integer of the routine's width
            np.ctypeslib.as_ctypes_type(integer).from_address(args[13]).value = info

        monkeypatch.setattr(spectrum, "_dsbevd", lambda: (dsbevd, integer, lengths))
        with pytest.raises(error, match="dsbevd"):
            solve(ModelParams(lambda_=0.7, kappa=0.4, j=1.0, n_cutoff=4))

    def test_certificate_passes_a_zero_matrix(self):
        """Its sums are exactly 0 against a bound of exactly 0."""
        assert np.array_equal(diagonalize(HamiltonianMatrix(np.zeros((2, 3)), None)).energies,
                              np.zeros(3))

    @pytest.mark.parametrize("j, n_cutoff, sector", SMALL_BLOCKS)
    def test_vector_route_matches_evd_on_a_copy(self, j, n_cutoff, sector):
        h = build_hamiltonian(ModelParams(lambda_=0.7, kappa=0.4, j=j, n_cutoff=n_cutoff), sector)
        w, v = scipy.linalg.eigh(h.entries, driver="evd")
        _fix_phases(v)
        eig = diagonalize(h, want_vectors=True)
        assert eig.vectors.flags.f_contiguous
        assert np.array_equal(eig.energies, w)
        assert np.array_equal(eig.vectors, v)

    def test_cache_key_names_the_solver(self):
        p = ModelParams(lambda_=0.7, j=2.0, n_cutoff=11)
        assert cache_key(p, Parity.EVEN, KIND_ENERGIES)["solver"] == "sbevd+gbtrs"

    def test_histogram_key_is_the_coefficient_key_plus_bins(self):
        p = ModelParams(lambda_=0.7, j=2.0, n_cutoff=11)
        mid = cache_key(p, Parity.EVEN, KIND_MID_COEFFS)
        assert "bins" not in mid
        assert (cache_key(p, Parity.EVEN, KIND_MID_HISTOGRAM, bins=57)
                == {**mid, "kind": KIND_MID_HISTOGRAM, "bins": 57})
        with pytest.raises(ValueError, match="bins"):
            cache_key(p, Parity.EVEN, KIND_MID_HISTOGRAM)


#: Imports of a probe that loads SciPy's compiled modules through the package.
LOADERS = """
import ctypes, json, sys, threading
import numpy as np
from dicke_chaos.eigenstate_stats import _log_gaussian_bin_masses
from dicke_chaos.spectral_stats import brody_scale
from dicke_chaos.spectrum import _lapack, _scipy_compiled
def packages():
    return sorted(m for m in ("scipy.linalg", "scipy.special") if m in sys.modules)
def address(routine):
    return ctypes.cast(routine, ctypes.c_void_p).value
"""


class TestScipyCompiled:
    """LAPACK pointers and ufuncs come from SciPy's compiled modules, without the
    ``scipy.linalg`` and ``scipy.special`` package inits, and are SciPy's own objects."""

    UFUNCS = ("gammaln", "ndtr", "log_ndtr")

    def test_loaded_objects_are_scipys_public_ones(self):
        found = run_probe(LOADERS + f"""
routines = _lapack()
brody_scale(0.5), _log_gaussian_bin_masses(np.linspace(-0.1, 0.1, 11), 100)
before = packages()
ufuncs = _scipy_compiled("special._special_ufuncs", "scipy.special", *{self.UFUNCS!r})
import scipy.special
from scipy.linalg import cython_lapack
api = ctypes.pythonapi
api.PyCapsule_GetName.restype, api.PyCapsule_GetName.argtypes = ctypes.c_char_p, [ctypes.py_object]
api.PyCapsule_GetPointer.restype = ctypes.c_void_p
api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
capsules = [cython_lapack.__pyx_capi__[name] for name in ("dgbtrf", "dgbtrs", "dsbevd")]
print(json.dumps({{
    "before": before,
    "ufuncs": [u is getattr(scipy.special, n) for u, n in zip(ufuncs, {self.UFUNCS!r})],
    "pointers": [address(r) == api.PyCapsule_GetPointer(c, api.PyCapsule_GetName(c))
                 for r, c in zip(routines, capsules)],
}}))
""")
        assert found == {"before": [], "ufuncs": [True] * 3, "pointers": [True] * 3}

    def test_a_name_the_compiled_module_lacks_comes_from_the_public_module(self):
        import scipy.special
        assert not hasattr(sys.modules["scipy.special._special_ufuncs"], "softmax")
        found = spectrum._scipy_compiled("special._special_ufuncs", "scipy.special", "softmax")
        assert found == (scipy.special.softmax,)

    def test_fallback_to_the_public_modules_gives_the_same_bits(self, tmp_path):
        """With the file lookup pointed at an empty directory, the public modules serve
        the band solve, inverse iteration, Brody fit and D_KL with the same bits."""
        point = """
import hashlib
from dicke_chaos import ModelParams, Parity, build_hamiltonian, compute_point, diagonalize
params = ModelParams(lambda_=0.9, kappa=0.5, j=6.0, n_cutoff=80)
energies = diagonalize(build_hamiltonian(params, Parity.EVEN)).energies
row = compute_point(params)
print(json.dumps({"packages": packages(), "energies": hashlib.sha256(energies).hexdigest(),
                  "bits": [row.eta.hex(), row.beta.hex(), row.d_kl.hex(), row.error]}))
"""
        missing = f"import scipy\nscipy.__path__.insert(0, {str(tmp_path)!r})\n"
        direct, fallback = run_probe(LOADERS + point), run_probe(missing + LOADERS + point)
        assert (direct.pop("packages"), fallback.pop("packages")) == (
            [], ["scipy.linalg", "scipy.special"])
        assert fallback == direct and direct["bits"][3] is None

    def test_threads_making_the_first_load_together_load_one_module(self):
        """4 threads at a barrier make a fresh process's first solve, Brody scale and
        Gaussian bin masses; a Cython module executed twice at once would raise."""
        probe = LOADERS + """
sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
barrier, seen, errors = threading.Barrier(4, timeout=60), [], []
def first_load():
    barrier.wait()
    try:
        seen.append((tuple(map(address, _lapack())), brody_scale(0.5),
                     _log_gaussian_bin_masses(np.linspace(-0.1, 0.1, 11), 100).tobytes()))
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_load) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
capi, = _scipy_compiled("linalg.cython_lapack", "scipy.linalg.cython_lapack", "__pyx_capi__")
print(json.dumps({"errors": errors, "results": [len(seen), len(set(seen))],
                  "alive": sum(thread.is_alive() for thread in threads), "packages": packages(),
                  "one module": sys.modules["scipy.linalg.cython_lapack"].__pyx_capi__ is capi}))
"""
        for _ in range(20):
            assert run_probe(probe) == {"errors": [], "results": [4, 1], "alive": 0,
                                        "packages": [], "one module": True}


#: Makes every library look as if it lacked numpy's ``dsbevd`` symbols.
HIDE_NUMPY_DSBEVD = """
import ctypes
symbol_of = ctypes.CDLL.__getitem__
def hidden(lib, name):
    if name.endswith("dsbevd_64_"):
        raise AttributeError(name)
    return symbol_of(lib, name)
ctypes.CDLL.__getitem__ = hidden
"""

#: A cold spectrum and a cold spacing through the CLI, then what the process loaded.
COLD_POINT_COMMANDS = """
import glob, hashlib, json, os, sys
import numpy as np
os.makedirs(ROOT, exist_ok=True)
from dicke_chaos import ModelParams, Parity, build_hamiltonian, diagonalize
from dicke_chaos.cli import main
from dicke_chaos.spectrum import _dsbevd
def scipy_openblas():
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as maps:
        return sorted({os.path.basename(line.split()[-1]) for line in maps
                       if "libscipy_openblas-" in line})
def digests(root):
    return {os.path.relpath(path, root): hashlib.sha256(open(path, "rb").read()).hexdigest()
            for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True))
            if os.path.isfile(path)}
energies = [hashlib.sha256(diagonalize(build_hamiltonian(
                ModelParams(lambda_=lam, kappa=kappa, j=j, n_cutoff=n_cutoff), Parity.EVEN)
            ).energies).hexdigest()
            for j, n_cutoff, kappa, lam in ((6.0, 80, 0.7, 0.001), (8.0, 160, 0.5, 1.0))]
config = os.path.join(ROOT, "config.json")
with open(config, "w") as doc:
    json.dump({"j": 6.0, "n_cutoff": 80, "kappa_grid": [0.5], "lambda_grid": [0.9]}, doc)
point = ["--config", config, "--set", "kappa=0.5", "--set", "lambda=0.9",
         "--out", os.path.join(ROOT, "out"), "--set", "cache_dir=" + os.path.join(ROOT, "cache")]
assert main(["spectrum", *point]) == 0 and main(["spacing", *point]) == 0
files = {kind: digests(os.path.join(ROOT, kind)) for kind in ("out", "cache")}
found = {"integer": np.dtype(_dsbevd()[1]).name, "energies": energies, "files": files,
         "cython_lapack": "scipy.linalg.cython_lapack" in sys.modules,
         "scipy_openblas": scipy_openblas()}
"""


#: After COLD_POINT_COMMANDS: a cold eigstats and a cold one-point sweep, each in a cache of
#: its own, and the digests of what they wrote.
COLD_VECTOR_COMMANDS = """
def args(out, cache):
    return ["--config", config, "--out", os.path.join(ROOT, out),
            "--set", "cache_dir=" + os.path.join(ROOT, cache)]
assert main(["eigstats", *args("eigstats", "eigstats_cache"), *point[2:6]]) == 0
assert main(["sweep", *args("sweep", "sweep_cache")]) == 0
found["vector_files"] = {kind: digests(os.path.join(ROOT, kind))
                         for kind in ("eigstats", "eigstats_cache", "sweep", "sweep_cache")}
"""


class TestNumpyDsbevd:
    """The eigenvalue-only solve calls the ``dsbevd`` of the OpenBLAS numpy has mapped, and
    falls back to ``cython_lapack``'s where numpy exports none, with the same bits."""

    def test_the_routine_releases_the_gil(self):
        """numpy's routine wherever numpy's linalg extension sees one; either way a ctypes
        function without the PYTHONAPI flag, which drops the GIL for the call, so the
        solves of a sweep's pool threads overlap."""
        routine, integer, lengths = spectrum._dsbevd()
        numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        exported = any(hasattr(numpy_lapack, name) for name in ("scipy_dsbevd_64_", "dsbevd_64_"))
        assert (integer, lengths) == ((np.int64, (1, 1)) if exported else (np.intc, ()))
        assert isinstance(routine, ctypes._CFuncPtr)
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_the_fallback_gives_the_bytes_of_the_numpy_route(self, tmp_path):
        """A fresh process that cannot see numpy's symbol solves through cython_lapack:
        energies at two points, a cold spacing histogram, a cold eigstats and one-point
        sweep, and every cache entry match."""
        code = COLD_POINT_COMMANDS + COLD_VECTOR_COMMANDS + "print(json.dumps(found))\n"
        routes = [run_probe(hide + f"ROOT = {str(tmp_path / name)!r}\n" + code)
                  for hide, name in (("", "numpy"), (HIDE_NUMPY_DSBEVD, "fallback"))]
        numpy_route, fallback = routes
        assert (fallback["integer"], fallback["cython_lapack"]) == ("int32", True)
        assert [len(numpy_route["files"][kind]) for kind in ("out", "cache")] == [2, 1]
        assert all(numpy_route["vector_files"].values())
        for key in ("energies", "files", "vector_files"):
            assert numpy_route[key] == fallback[key]

    @pytest.mark.skipif(spectrum._dsbevd()[1] is not np.int64,
                        reason="numpy exports no dsbevd of its own")
    def test_cold_eigenvalue_only_commands_map_one_openblas(self, tmp_path):
        """A fresh cold spectrum and spacing never import cython_lapack, so they map no
        SciPy OpenBLAS; forcing the vector route's routines in the same process maps it,
        which shows the probe sees such a file."""
        import scipy
        wheel = glob.glob(os.path.join(os.path.dirname(scipy.__path__[0]), "scipy.libs",
                                       "libscipy_openblas-*"))
        found = run_probe(f"ROOT = {str(tmp_path)!r}\n" + COLD_POINT_COMMANDS + """
from dicke_chaos.spectrum import _lapack
_lapack()
found["after"] = scipy_openblas()
print(json.dumps(found))
""")
        assert found["integer"] == "int64" and not found["cython_lapack"]
        if found["scipy_openblas"] is not None:  # Linux
            assert found["scipy_openblas"] == []
            assert bool(found["after"]) == bool(wheel)


@dataclass
class SolvedPoint:
    """One point's H, its band solve and the dense evd oracle cut to the window."""

    params: ModelParams
    h: HamiltonianMatrix
    eig: EigenDecomposition
    dense: SpectralDataset
    evr: np.ndarray | None = None


def solved_point(params):
    h = build_hamiltonian(params, Parity.EVEN)
    dense = filter_energy_window(diagonalize(h, want_vectors=True), params)
    return SolvedPoint(params, h, diagonalize(h), dense)


@pytest.fixture(scope="module")
def full_scale():
    """The full-scale point, with H, sbevd and each dense oracle (evr, evd) run once."""
    point = solved_point(ModelParams(lambda_=1.0, kappa=0.5, j=16.0, n_cutoff=320))
    point.evr = evr_oracle(point.h)
    return point


def windowed_pair(params, solved=None):
    """(inverse-iteration dataset, dense oracle dataset, H, band-solve energies) for one
    point, from ``solved`` when given."""
    solved = solved or solved_point(params)
    h, energies = solved.h, solved.eig.energies
    ds = filter_energy_window(solved.eig, params)
    ds.coefficients = windowed_eigenvectors(h.band, energies, ds.window_indices)
    return ds, solved.dense, h, energies


def nearest_gaps(energies, indices):
    gaps = np.diff(energies)
    return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))[indices], gaps.mean()


def assert_eigenpairs(h, ds, energies):
    """Orthonormal columns, and ||(H - E_i) v_i|| <= 1e-10 max|E| with H applied from the
    band; ``energies`` is the full spectrum."""
    v = ds.coefficients
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) <= 1e-8
    hv = h.band[0][:, None] * v
    for d in range(1, h.bandwidth + 1):
        hv[d:] += h.band[d, : h.dim - d, None] * v[: h.dim - d]
        hv[: h.dim - d] += h.band[d, : h.dim - d, None] * v[d:]
    residual = np.linalg.norm(hv - v * ds.energies, axis=0)
    assert np.max(residual) <= 1e-10 * np.max(np.abs(energies))


def assert_matches_dense(params, solved=None):
    """Inverse iteration against the dense oracle.  A state closer to a neighbor than
    1% of the mean spacing has a vector that no solver fixes to better than about
    eps max|E| / gap, the dense one included, so its vector and its tail weight are
    left to test_near_ties_match_extended_precision."""
    ds, dense, h, energies = windowed_pair(params, solved)
    assert np.array_equal(ds.window_indices, dense.window_indices)  # n_levels
    assert np.array_equal(tail_weights(ds) < DEFAULT_TAIL_TOL,
                          tail_weights(dense) < DEFAULT_TAIL_TOL)
    d_kl = kl_divergence(collect_coefficients(ds))
    assert d_kl == pytest.approx(kl_divergence(collect_coefficients(dense)), rel=1e-9)
    v, k = ds.coefficients, ds.energies.size
    assert v.shape == (h.dim, k)
    assert_eigenpairs(h, ds, energies)
    nearest, spacing = nearest_gaps(energies, ds.window_indices)
    apart = nearest >= 0.01 * spacing
    tails = np.abs(tail_weights(ds) - tail_weights(dense))
    assert np.max(tails[apart], initial=0.0) <= 1e-10
    assert np.max(np.abs(v - dense.coefficients)[:, apart], initial=0.0) <= 1e-7
    return ds, dense


def long_double_inverse_iteration(h, energy, b, solves=3):
    """Eigenvector of the dense long-double ``h`` (half-bandwidth ``b``) at ``energy``:
    Gaussian elimination with partial pivoting on H - E I, from a flat start."""
    n = h.shape[0]
    a = h - np.longdouble(energy) * np.eye(n, dtype=h.dtype)
    x = np.ones(n, dtype=h.dtype)
    for _ in range(solves):
        lu, y = a.copy(), x.copy()
        for k in range(n):
            rows, cols = slice(k, min(n, k + b + 1)), slice(k, min(n, k + 2 * b + 1))
            p = k + np.argmax(np.abs(lu[rows, k]))
            lu[[k, p], cols], y[[k, p]] = lu[[p, k], cols], y[[p, k]]
            f = lu[k + 1 : rows.stop, k] / lu[k, k]
            lu[k + 1 : rows.stop, cols] -= np.outer(f, lu[k, cols])
            y[k + 1 : rows.stop] -= f * y[k]
        for k in range(n - 1, -1, -1):
            y[k] = (y[k] - lu[k, k + 1 : k + 2 * b + 1] @ y[k + 1 : k + 2 * b + 1]) / lu[k, k]
        x = y / np.sqrt(y @ y)
    return x


ORACLE_POINTS = [(j, kappa, lam) for j in (2.0, 4.0, 6.0) for kappa in (0.0, 0.7)
                 for lam in (0.001, 0.01, 0.1, 0.9)]


class TestInverseIteration:
    @pytest.mark.parametrize("j, kappa, lam", ORACLE_POINTS)
    def test_matches_dense_oracle(self, j, kappa, lam):
        assert_matches_dense(ModelParams(lambda_=lam, kappa=kappa, j=j, n_cutoff=40))

    def test_tight_clusters_stay_orthogonal(self):
        """Levels 1e-11 apart: without reorthogonalization their vectors overlap by 1e-4."""
        params = ModelParams(lambda_=1e-5, kappa=0.7, j=6.0, n_cutoff=40)
        ds, _, h, energies = windowed_pair(params)
        assert np.min(np.diff(ds.energies)) < 1e-10
        assert_eigenpairs(h, ds, energies)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    def test_near_ties_match_extended_precision(self):
        """States 1e-6 apart: inverse iteration agrees with an 80-bit reference to 1e-10
        in tail weight, where the dense oracle is off by about 1e-8."""
        params = ModelParams(lambda_=0.001, kappa=0.7, j=6.0, n_cutoff=40)
        ds, _, h, energies = windowed_pair(params)
        nearest, spacing = nearest_gaps(energies, ds.window_indices)
        tied = np.nonzero(nearest < 0.01 * spacing)[0]
        assert tied.size and np.min(nearest) < 1e-5 * spacing
        tail = h.basis.n >= params.n_cutoff - 20
        shifted = dense_from_band(h.band).astype(np.longdouble)
        for col in tied:
            x = long_double_inverse_iteration(shifted, ds.energies[col], h.bandwidth)
            assert abs(tail_weights(ds)[col] - np.sum(x[tail] ** 2)) <= 1e-10

    def test_matches_dense_oracle_at_full_scale(self, full_scale):
        ds, _ = assert_matches_dense(full_scale.params, full_scale)
        assert ds.coefficients.shape == (5297, ds.energies.size)

    @pytest.mark.parametrize("j", [2.0, 6.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    def test_uncoupled_rows_equal_the_dense_route(self, j, kappa):
        params = ModelParams(lambda_=0.0, kappa=kappa, j=j, n_cutoff=40)
        ds, dense, h, _ = windowed_pair(params)
        assert h.bandwidth == 0
        assert np.array_equal(np.abs(ds.coefficients).sum(axis=0), np.ones(ds.energies.size))
        row = compute_point(params)
        assert row.n_levels == dense.energies.size
        assert row.converged_fraction == np.mean(tail_weights(dense) < DEFAULT_TAIL_TOL)
        assert row.d_kl == kl_divergence(collect_coefficients(dense))

    def test_repeat_gives_identical_bytes(self):
        h = build_hamiltonian(ModelParams(lambda_=0.1, kappa=0.7, j=6.0, n_cutoff=40),
                              Parity.EVEN)
        energies = diagonalize(h).energies
        indices = np.arange(energies.size)
        first = windowed_eigenvectors(h.band, energies, indices)
        assert first.tobytes() == windowed_eigenvectors(h.band, energies, indices).tobytes()

    def test_exact_eigenvalue_shift(self):
        """H - E I is exactly singular here; its zero pivot is perturbed, not divided by."""
        band = np.array([[1.0, 1.0], [1.0, 0.0]])  # [[1, 1], [1, 1]]: eigenvalues 0 and 2
        v = windowed_eigenvectors(band, np.array([0.0, 2.0]), np.array([0, 1]))
        np.testing.assert_allclose(v, np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0),
                                   atol=1e-15)

    def test_vector_route_holds_no_dense_matrix(self):
        p = ModelParams(lambda_=1.0, kappa=0.5, j=8.0, n_cutoff=160)
        tracemalloc.start()
        try:
            h = build_hamiltonian(p, Parity.EVEN)
            eig = diagonalize(h)
            ds = filter_energy_window(eig, p)
            vectors = windowed_eigenvectors(h.band, eig.energies, ds.window_indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.dim == vectors.shape[0] == 1369
        assert peak < 8 * h.dim**2

    def test_lapack_is_resolved_before_the_vectors_are_allocated(self, monkeypatch):
        """Any library load of the vector route comes before its D x k array exists, so a
        process short of memory fails on that array, not inside the load."""
        band, energies, indices = windowed_problem(0.9)
        real, held = spectrum._lapack, []

        def resolve():
            held.append(tracemalloc.get_traced_memory()[0])
            return real()

        monkeypatch.setattr(spectrum, "_lapack", resolve)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vectors = windowed_eigenvectors(band, energies, indices)
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] - before < vectors.nbytes


# the tight-cluster, near-tie and chaotic points of TestInverseIteration
THREAD_POINTS = [1e-5, 0.001, 0.9]


def windowed_problem(lam):
    """(band, band-solve energies, analysis-window indices) at j=6, n_cutoff=40, kappa=0.7."""
    params = ModelParams(lambda_=lam, kappa=0.7, j=6.0, n_cutoff=40)
    h = build_hamiltonian(params, Parity.EVEN)
    energies = diagonalize(h).energies
    window = _window_mask(energies, params.n_atoms, params.energy_window)
    return h.band, energies, np.nonzero(window)[0]


class TestThreads:
    @pytest.mark.parametrize("lam", THREAD_POINTS)
    def test_thread_count_never_changes_a_byte(self, lam, monkeypatch):
        band, energies, indices = windowed_problem(lam)

        def solve(states, cores):  # inverse iteration cuts a slice per available core
            monkeypatch.setattr(spectrum, "available_cores", lambda: cores)
            return windowed_eigenvectors(band, energies, states).tobytes()

        serial = solve(indices, 1)
        # ten states around the closest pair, with more threads than they have clusters
        tightest = int(np.argmin(np.diff(energies[indices])))
        stretch = indices[max(0, tightest - 4): tightest + 6]
        stretch_serial = solve(stretch, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as it allows
        try:
            for cores in (2, 3):
                assert solve(indices, cores) == serial
            assert solve(stretch, stretch.size + 1) == stretch_serial
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_calls_share_one_slot_per_core(self, monkeypatch):
        """Three calls at once, each cutting four slices, with two slots: at most two
        slices factor at once, and two do, so the slices queue for the cores rather
        than run one by one; every call returns the one-core bytes."""
        band, energies, indices = windowed_problem(0.9)
        monkeypatch.setattr(spectrum, "available_cores", lambda: 1)
        serial = windowed_eigenvectors(band, energies, indices).tobytes()
        routines = list(spectrum._lapack())
        factor, lock, running, peak = routines[0], threading.Lock(), [0], [0]

        def counted_factor(*args):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(1e-4)  # hold the slot a while, so that slices overlap
            factor(*args)
            with lock:
                running[0] -= 1

        routines[0] = counted_factor
        monkeypatch.setattr(spectrum, "_lapack", lambda: tuple(routines))
        monkeypatch.setattr(spectrum, "_solve_slots", threading.Semaphore(2))
        monkeypatch.setattr(spectrum, "available_cores", lambda: 4)
        with ThreadPoolExecutor(3) as pool:
            calls = [pool.submit(windowed_eigenvectors, band, energies, indices)
                     for _ in range(3)]
            assert [call.result().tobytes() for call in calls] == [serial] * 3
        assert peak[0] == 2

    @pytest.mark.parametrize("lam", THREAD_POINTS)
    @pytest.mark.parametrize("threads", [1, 2, 3, 7, 1000])
    def test_slices_cut_only_between_clusters(self, lam, threads):
        _, energies, indices = windowed_problem(lam)
        tol = CLUSTER_TOL * np.max(np.abs(energies))
        windowed = energies[indices]
        bounds = _slice_bounds(windowed, tol, threads)
        assert bounds[0] == 0 and bounds[-1] == windowed.size
        assert np.all(np.diff(bounds) > 0) and bounds.size - 1 <= threads
        cuts = bounds[1:-1]
        assert np.all(windowed[cuts] - windowed[cuts - 1] > tol)
        if threads >= windowed.size:  # then every cluster is a slice of its own
            assert bounds.size - 1 == 1 + np.count_nonzero(np.diff(windowed) > tol)

    def test_one_cluster_is_one_slice(self):
        assert _slice_bounds(np.zeros(5), 1e-9, 3).tolist() == [0, 5]
        assert _slice_bounds(np.zeros(0), 1e-9, 3).tolist() == [0]

    def test_failure_raises_and_leaves_no_thread(self, monkeypatch):
        band, energies, indices = windowed_problem(0.9)
        baseline = threading.active_count()
        monkeypatch.setattr(spectrum, "MAX_SOLVES", 0)
        monkeypatch.setattr(spectrum, "available_cores", lambda: 2)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            windowed_eigenvectors(band, energies, indices)
        assert threading.active_count() == baseline
        row = compute_point(ModelParams(lambda_=0.9, kappa=0.7, j=6.0, n_cutoff=40))
        assert row.error.startswith("ConvergenceFailure: inverse iteration did not converge")
        assert math.isnan(row.d_kl) and math.isnan(row.converged_fraction)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("routine, name", [(0, "dgbtrf"), (1, "dgbtrs")])
    def test_illegal_lapack_argument_raises(self, monkeypatch, routine, name):
        """LAPACK itself flags a negative kl, argument 3 of both routines: info < 0 raises."""
        band, energies, indices = windowed_problem(0.9)
        baseline = threading.active_count()
        routines = list(spectrum._lapack())
        real, minus_one = routines[routine], np.array([-1], np.intc)

        def negative_kl(*args):
            real(*args[:2], minus_one.ctypes.data, *args[3:])

        routines[routine] = negative_kl
        monkeypatch.setattr(spectrum, "_lapack", lambda: tuple(routines))
        monkeypatch.setattr(spectrum, "available_cores", lambda: 2)
        with pytest.raises(RuntimeError, match=f"{name}: argument 3 has an illegal value"):
            windowed_eigenvectors(band, energies, indices)
        assert threading.active_count() == baseline


class TestEnergyWindow:
    def _fake_eig(self, energies):
        return EigenDecomposition(energies=np.asarray(energies, float), vectors=None, basis=[])

    def test_closed_interval_keeps_boundaries(self):
        # window [0.4, 4] at N=4 spans E in [1.6, 16]; both endpoints retained
        p = ModelParams(j=2.0, n_cutoff=10)
        eig = self._fake_eig([0.0, 1.6, 10.0, 16.0, 16.0000001])
        ds = filter_energy_window(eig, p)
        np.testing.assert_array_equal(ds.energies, [1.6, 10.0, 16.0])
        np.testing.assert_array_equal(ds.window_indices, [1, 2, 3])

    def test_mid_band_window_bounds(self):
        # E/N in [1.75, 2.25] at N=40 means E in [70, 90]
        p = ModelParams(j=20.0, n_cutoff=10, energy_window=(1.75, 2.25))
        eig = self._fake_eig([69.9, 70.0, 80.0, 90.0, 90.1])
        ds = filter_energy_window(eig, p)
        assert ds.energies.min() == 70.0 and ds.energies.max() == 90.0

    def test_empty_window_raises(self):
        p = ModelParams(j=2.0, n_cutoff=10)
        with pytest.raises(EmptyWindow):
            filter_energy_window(self._fake_eig([100.0, 200.0]), p)

    def test_windowed_coefficients_normalized(self):
        p = ModelParams(lambda_=1.0, kappa=0.0, j=4.0, n_cutoff=60)
        eig = solve(p, want_vectors=True)
        ds = filter_energy_window(eig, p)
        norms = np.sum(ds.coefficients**2, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert ds.coefficients.shape[1] == ds.energies.size


class TestConvergence:
    def test_diagonal_states_converge(self):
        # lambda = 0 eigenstates occupy a single low-n basis vector each
        p = ModelParams(lambda_=0.0, kappa=0.0, j=2.0, n_cutoff=60)
        ds = filter_energy_window(solve(p, want_vectors=True), p)
        assert np.all(tail_weights(ds, tail_width=20) < 1e-6)

    def test_pure_tail_state_flagged(self):
        p = ModelParams(j=0.5, n_cutoff=5, energy_window=(0.0, 100.0))
        basis = enumerate_basis(p, Parity.EVEN)
        dim = len(basis)
        tail_index = max(range(dim), key=lambda i: basis[i].n)
        coeff = np.zeros((dim, 1))
        coeff[tail_index, 0] = 1.0
        ds = SpectralDataset(
            params=p, energies=np.array([1.0]), coefficients=coeff,
            window_indices=np.array([0]), basis=basis,
        )
        assert (tail_weights(ds, tail_width=2) < 1e-6).tolist() == [False]

    def test_missing_vectors(self):
        p = ModelParams(j=1.0, n_cutoff=10)
        ds = filter_energy_window(solve(p, want_vectors=False), p)
        with pytest.raises(MissingVectors):
            tail_weights(ds)

    def test_converged_pipeline_small(self):
        p = ModelParams(lambda_=1.0, kappa=0.0, j=4.0, n_cutoff=120)
        ds = filter_energy_window(solve(p, want_vectors=True), p)
        assert np.all(tail_weights(ds) < DEFAULT_TAIL_TOL)

    def test_cutoff_stability(self):
        # windowed eigenvalues must be insensitive to the truncation
        windows = {}
        for nc in (120, 160):
            p = ModelParams(lambda_=1.0, kappa=0.5, j=4.0, n_cutoff=nc)
            eig = solve(p)
            windows[nc] = filter_energy_window(eig, p).energies
        assert windows[120].size == windows[160].size
        assert np.max(np.abs(windows[120] - windows[160])) < 1e-6

    def test_ground_state_variational_monotonicity(self):
        e0 = {}
        for nc in (40, 80):
            p = ModelParams(lambda_=1.0, kappa=0.5, j=4.0, n_cutoff=nc)
            e0[nc] = solve(p).energies[0]
        assert e0[80] <= e0[40] + 1e-12


#: The point whose entries the damage tests below break and compute_point heals.
HEALED = ModelParams(lambda_=0.9, j=2.0, n_cutoff=20)


def assert_a_miss_that_compute_point_heals(tmp_path, damage):
    """Fill a cache by compute_point at HEALED, then replace its energies entry by
    ``damage(blob)`` (delete it if ``damage`` is None): ``load`` returns None for the
    entry, and compute_point on that cache gives the clean row and rewrites the
    entry to the clean bytes.  Returns the cache."""
    cache = SpectrumCache(tmp_path)
    clean = compute_point(HEALED, cache=cache)
    path = cache.path(HEALED, Parity.EVEN, KIND_ENERGIES)
    blob = path.read_bytes()
    if damage is None:
        path.unlink()
    else:
        path.write_bytes(damage(blob))
        assert path.read_bytes() != blob
    assert cache.load(HEALED, Parity.EVEN, KIND_ENERGIES) is None
    assert compute_point(HEALED, cache=cache) == clean
    assert path.read_bytes() == blob
    return cache


class TestSpectrumCache:
    def test_roundtrip_exact(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(lambda_=0.5, j=1.0, n_cutoff=8)
        values = np.array([1.0, -2.5, np.pi, 1e-300])
        cache.store(p, Parity.EVEN, KIND_ENERGIES, values)
        loaded = cache.load(p, Parity.EVEN, KIND_ENERGIES)
        assert np.array_equal(loaded, values)

    def test_miss_returns_none(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        assert cache.load(p, Parity.EVEN, KIND_ENERGIES) is None

    def test_kinds_and_params_are_distinct_keys(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p1 = ModelParams(lambda_=0.5, j=1.0, n_cutoff=8)
        p2 = ModelParams(lambda_=0.6, j=1.0, n_cutoff=8)
        cache.store(p1, Parity.EVEN, KIND_ENERGIES, np.array([1.0]))
        assert cache.load(p2, Parity.EVEN, KIND_ENERGIES) is None
        assert cache.load(p1, Parity.EVEN, KIND_MID_COEFFS) is None

    def test_store_replaces_a_malformed_entry(self, tmp_path):
        cache = assert_a_miss_that_compute_point_heals(tmp_path, lambda blob: blob[:-8])
        assert sorted(q.name for q in tmp_path.iterdir()) == sorted(
            cache.path(HEALED, Parity.EVEN, kind, DEFAULT_TAIL_WIDTH, DEFAULT_BINS).name
            for kind in (KIND_ENERGIES, KIND_TAIL_WEIGHTS, KIND_MID_COEFFS, KIND_MID_HISTOGRAM))

    def test_bad_magic_is_a_miss(self, tmp_path):
        assert_a_miss_that_compute_point_heals(tmp_path, lambda blob: b"NOTMAGIC" + blob[8:])

    def test_wrong_version_is_a_miss(self, tmp_path):
        assert_a_miss_that_compute_point_heals(
            tmp_path, lambda blob: blob[:8] + struct.pack("<I", VERSION + 1) + blob[12:])

    def test_non_utf8_key_is_a_miss(self, tmp_path):
        assert_a_miss_that_compute_point_heals(  # 0xFF at the key document's first byte
            tmp_path, lambda blob: blob[:16] + b"\xff" + blob[17:])

    @pytest.mark.parametrize("cut", ["end of key", "inside count", "inside payload", "extra byte"])
    def test_wrong_length_is_a_miss(self, tmp_path, cut):
        def damage(blob):
            payload = 24 + struct.unpack_from("<I", blob, 12)[0]  # magic, version, key, count
            return {
                "end of key": blob[: payload - 8],
                "inside count": blob[: payload - 4],
                "inside payload": blob[: payload + 12],
                "extra byte": blob + b"\0",
            }[cut]

        assert_a_miss_that_compute_point_heals(tmp_path, damage)

    @pytest.mark.parametrize("damage", ["none", "missing", "truncated", "bad magic",
                                        "mangled key"])
    def test_check_is_true_exactly_where_load_returns_an_array(self, tmp_path, damage):
        """``load`` returns the stored array only for a whole entry: every damage,
        a missing entry included, is None, and compute_point rewrites the clean entry."""
        if damage == "none":
            cache = SpectrumCache(tmp_path)
            energies = compute_point_data(HEALED, cache, want_vectors=False).energies
            path = cache.path(HEALED, Parity.EVEN, KIND_ENERGIES)
            assert cache.load(HEALED, Parity.EVEN, KIND_ENERGIES).tobytes() == (
                path.read_bytes()[-8 * energies.size:]) == energies.tobytes()
        else:
            assert_a_miss_that_compute_point_heals(tmp_path, {
                "missing": None, "truncated": lambda blob: blob[:-8],
                "bad magic": lambda blob: b"NOTMAGIC" + blob[8:],
                "mangled key": lambda blob: blob[:16] + b"\xff" + blob[17:]}[damage])

    def test_failed_store_leaves_no_temporary_file(self, tmp_path, monkeypatch, caplog):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        cache = SpectrumCache(tmp_path)
        cache.store(ModelParams(j=1.0, n_cutoff=8), Parity.EVEN, KIND_ENERGIES, np.array([1.0]))
        row = compute_point(HEALED, cache=cache)
        assert row == compute_point(HEALED)
        assert list(tmp_path.iterdir()) == []
        assert caplog.messages == [f"spectrum cache {tmp_path} not written: disk full"]

    def test_threads_failing_together_log_one_warning(self, tmp_path, monkeypatch, caplog):
        """Twenty times, four threads at a barrier make a fresh cache's first stores and all
        fail: each cache logs one warning, and a later store is attempted, leaves no file
        and logs nothing."""
        barrier, later = threading.Barrier(4, timeout=60), []

        def refuse(src, dst):
            barrier.wait()  # the four stores fail at once
            raise OSError("disk full")

        def refuse_alone(src, dst):
            later.append(dst)
            raise OSError("disk full")

        p, interval = ModelParams(j=1.0, n_cutoff=8), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(20):
                cache = SpectrumCache(tmp_path / str(n))
                monkeypatch.setattr(os, "replace", refuse)
                with ThreadPoolExecutor(4) as pool:  # list() re-raises a store's exception
                    list(pool.map(lambda kind: cache.store(p, Parity.EVEN, kind, np.arange(9.0)),
                                  [KIND_ENERGIES, KIND_MID_COEFFS, KIND_ENERGIES, KIND_MID_COEFFS]))
                monkeypatch.setattr(os, "replace", refuse_alone)  # no barrier to wait at alone
                cache.store(p, Parity.EVEN, KIND_ENERGIES, np.arange(9.0))
                assert len(later) == n + 1 and list(cache.root.iterdir()) == []
        finally:
            sys.setswitchinterval(interval)
        assert caplog.messages == [f"spectrum cache {tmp_path / str(n)} not written: disk full"
                                   for n in range(20)]

    def test_threads_storing_one_key_share_no_temporary_file(self, tmp_path):
        """Twenty times, four threads at a barrier store one key: no store fails, the entry
        loads, and no temporary file is left."""
        cache, p, values = SpectrumCache(tmp_path), ModelParams(j=1.0, n_cutoff=8), np.arange(1e5)

        def store(barrier):
            barrier.wait()
            cache.store(p, Parity.EVEN, KIND_ENERGIES, values)

        for _ in range(20):  # list() re-raises a failed store's exception
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(store, [threading.Barrier(4, timeout=60)] * 4))
        assert np.array_equal(cache.load(p, Parity.EVEN, KIND_ENERGIES), values)
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_empty_array_roundtrip(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_MID_COEFFS, np.array([]))
        loaded = cache.load(p, Parity.EVEN, KIND_MID_COEFFS)
        assert loaded is not None and loaded.size == 0


#: (kappa, bins, name): the entry names these keys had before key documents were memoized.
#: A list, not a dict keyed by (kappa, bins): the signed zeros would make one dict key.
PARENT_NAMES = [
    (0.0, None, "1cfa42a2ac8d9ebb02881a01a637c265a6c811f054027885f1799c75edd3d8f6.spec"),
    (0.0, 201, "9e074f99b0a54c3db3f2e1147691a2d73f5800bc7e3aa51d47390e0f0effce4f.spec"),
    (0.0, 57, "302c7b1c9245889acc0684b5886ad4f2512c2a5302ebd83d41016c2490e7e10e.spec"),
    (-0.0, None, "59a4e942efcb0cdbff8557c3a21e1dbbe76de3f4a86c9f4e9805a927b8e5447c.spec"),
    (-0.0, 201, "1ab746cb53c41ee63a87b6dee1bb8c2d714ac63a57bb3c6fdf5054eac4492a5e.spec"),
    (-0.0, 57, "4a87d3386bd5dd91e3fdc11bc956594d4e02377cae40fbf925fd616472e8d66e.spec"),
]


class TestKeyMemo:
    """A cache object makes each entry's key document and file name once.  0.0 and
    -0.0 compare (and hash) equal, but their keys differ, so neither may take the
    other's memoized name."""

    @staticmethod
    def name(cache, kappa, bins):
        p = ModelParams(lambda_=0.7, kappa=kappa, j=2.0, n_cutoff=11)
        kind = KIND_ENERGIES if bins is None else KIND_MID_HISTOGRAM
        return cache.path(p, Parity.EVEN, kind, bins=bins).name

    @pytest.mark.parametrize("order", list(itertools.permutations(PARENT_NAMES))[::97],
                             ids=lambda order: ",".join(f"{k}/{b}" for k, b, _ in order))
    @pytest.mark.parametrize("key_first", [False, True], ids=["cold", "after cache_key"])
    def test_names_are_the_unmemoized_ones_in_any_order(self, tmp_path, order, key_first):
        if key_first:
            cache_key(ModelParams(lambda_=0.7, kappa=0.0, j=2.0, n_cutoff=11), Parity.EVEN,
                      KIND_MID_HISTOGRAM, bins=57)
        cache = SpectrumCache(tmp_path)
        for _ in range(2):  # the second round reads the memo
            assert [self.name(cache, kappa, bins) for kappa, bins, _ in order] == [
                name for _, _, name in order]
        assert self.name(SpectrumCache(tmp_path / "other"), -0.0, 57) == PARENT_NAMES[-1][2]

    def test_signed_zeros_keep_their_own_entries(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        points = [ModelParams(j=1.0, n_cutoff=8, kappa=kappa) for kappa in (0.0, -0.0)]
        assert points[0] == points[1] and hash(points[0]) == hash(points[1])
        for value, p in enumerate(points):
            cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([float(value)]))
        assert [cache.load(p, Parity.EVEN, KIND_ENERGIES)[0] for p in points] == [0.0, 1.0]
        assert len(list(tmp_path.iterdir())) == 2

    def test_list_windows_share_the_tuple_entry(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        listed = ModelParams(j=1.0, n_cutoff=8, energy_window=[0.4, 4], mid_window=[1.75, 2.25])
        assert (cache.path(listed, Parity.EVEN, KIND_MID_HISTOGRAM, bins=57)
                == cache.path(ModelParams(j=1.0, n_cutoff=8), Parity.EVEN, KIND_MID_HISTOGRAM,
                              bins=57))


#: (kind, keyword arguments) of each payload kind's cache key.
ENTRY_KINDS = [(KIND_ENERGIES, {}), (KIND_TAIL_WEIGHTS, {"tail_width": DEFAULT_TAIL_WIDTH}),
               (KIND_MID_COEFFS, {}), (KIND_MID_HISTOGRAM, {"bins": DEFAULT_BINS})]


def hashlib_name(kind, kwargs, kappa):
    """The name of a j=2 entry, by hashlib.sha256 of its canonical key document."""
    p = ModelParams(lambda_=0.7, kappa=kappa, j=2.0, n_cutoff=11)
    key = json.dumps(cache_key(p, Parity.EVEN, kind, **kwargs), sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(key).hexdigest() + ".spec"


class TestEntryNames:
    """Entry names are the SHA-256 of the key document, whichever module computes it."""

    @pytest.mark.parametrize("kappa", [0.0, -0.0])
    @pytest.mark.parametrize("kind, kwargs", ENTRY_KINDS, ids=[k for k, _ in ENTRY_KINDS])
    def test_name_is_the_hashlib_digest_of_the_key(self, tmp_path, kind, kwargs, kappa):
        p = ModelParams(lambda_=0.7, kappa=kappa, j=2.0, n_cutoff=11)
        assert (SpectrumCache(tmp_path).path(p, Parity.EVEN, kind, **kwargs).name
                == hashlib_name(kind, kwargs, kappa))

    def test_a_name_is_pinned(self, tmp_path):
        p = ModelParams(lambda_=0.7, kappa=0.0, j=2.0, n_cutoff=11)
        assert SpectrumCache(tmp_path).path(p, Parity.EVEN, KIND_ENERGIES).name == (
            "1cfa42a2ac8d9ebb02881a01a637c265a6c811f054027885f1799c75edd3d8f6.spec")

    def test_an_interpreter_without_builtin_hashes_names_through_hashlib(self, tmp_path):
        probe = f"""
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # an import of either now fails
import hashlib
import dicke_chaos.cache
from dicke_chaos import ModelParams, Parity, SpectrumCache
cache = SpectrumCache({str(tmp_path)!r})
names = [cache.path(ModelParams(lambda_=0.7, kappa=kappa, j=2.0, n_cutoff=11), Parity.EVEN,
                    kind, **kwargs).name
         for kappa in (0.0, -0.0) for kind, kwargs in {ENTRY_KINDS!r}]
print(json.dumps([dicke_chaos.cache._sha256 is hashlib.sha256, names]))
"""
        assert run_probe(probe) == [True, [hashlib_name(kind, kwargs, kappa)
                                           for kappa in (0.0, -0.0)
                                           for kind, kwargs in ENTRY_KINDS]]
