"""Diagonalization, window filtering, convergence checks and the spectrum cache."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dicke_chaos import (
    EigenDecomposition,
    ModelParams,
    Parity,
    SpectralDataset,
    SpectrumCache,
    build_hamiltonian,
    check_convergence,
    collect_coefficients,
    compute_point,
    diagonalize,
    enumerate_basis,
    filter_energy_window,
    kl_divergence,
    windowed_eigenvectors,
)
from dicke_chaos.cache import KIND_ENERGIES, KIND_MID_COEFFS, cache_key
from dicke_chaos.errors import CacheFormatError, EmptyWindow, MissingVectors
from dicke_chaos.spectrum import _fix_phases, tail_weights


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

    def test_matches_dense_oracle_at_full_scale(self):
        h = build_hamiltonian(ModelParams(lambda_=1.0, kappa=0.5, j=16.0, n_cutoff=320),
                              Parity.EVEN)
        assert h.dim == 5297 and h.bandwidth == 17
        assert np.max(np.abs(diagonalize(h).energies - evr_oracle(h))) <= 1e-10

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


def windowed_pair(params):
    """(inverse-iteration dataset, dense oracle dataset, H) for one point."""
    h = build_hamiltonian(params, Parity.EVEN)
    eig = diagonalize(h)
    ds = filter_energy_window(eig, params)
    ds.coefficients = windowed_eigenvectors(h.band, eig.energies, ds.window_indices)
    return ds, filter_energy_window(diagonalize(h, want_vectors=True), params), h


def nearest_gaps(energies, indices):
    gaps = np.diff(energies)
    return np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))[indices], gaps.mean()


def assert_eigenpairs(h, ds):
    """Orthonormal columns, and ||(H - E_i) v_i|| <= 1e-10 max|E| with H applied from the band."""
    v = ds.coefficients
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) <= 1e-8
    hv = h.band[0][:, None] * v
    for d in range(1, h.bandwidth + 1):
        hv[d:] += h.band[d, : h.dim - d, None] * v[: h.dim - d]
        hv[: h.dim - d] += h.band[d, : h.dim - d, None] * v[d:]
    residual = np.linalg.norm(hv - v * ds.energies, axis=0)
    assert np.max(residual) <= 1e-10 * np.max(np.abs(diagonalize(h).energies))


def assert_matches_dense(params):
    """Inverse iteration against the dense oracle.  A state closer to a neighbor than
    1% of the mean spacing has a vector that no solver fixes to better than about
    eps max|E| / gap, the dense one included, so its vector and its tail weight are
    left to test_near_ties_match_extended_precision."""
    ds, dense, h = windowed_pair(params)
    assert np.array_equal(ds.window_indices, dense.window_indices)  # n_levels
    assert np.array_equal(check_convergence(ds)[0], check_convergence(dense)[0])
    d_kl = kl_divergence(collect_coefficients(ds))
    assert d_kl == pytest.approx(kl_divergence(collect_coefficients(dense)), rel=1e-9)
    v, k = ds.coefficients, ds.energies.size
    assert v.shape == (h.dim, k)
    energies = diagonalize(h).energies
    assert_eigenpairs(h, ds)
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
        ds, _, h = windowed_pair(params)
        assert np.min(np.diff(ds.energies)) < 1e-10
        assert_eigenpairs(h, ds)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    def test_near_ties_match_extended_precision(self):
        """States 1e-6 apart: inverse iteration agrees with an 80-bit reference to 1e-10
        in tail weight, where the dense oracle is off by about 1e-8."""
        params = ModelParams(lambda_=0.001, kappa=0.7, j=6.0, n_cutoff=40)
        ds, _, h = windowed_pair(params)
        nearest, spacing = nearest_gaps(diagonalize(h).energies, ds.window_indices)
        tied = np.nonzero(nearest < 0.01 * spacing)[0]
        assert tied.size and np.min(nearest) < 1e-5 * spacing
        tail = h.basis.n >= params.n_cutoff - 20
        shifted = dense_from_band(h.band).astype(np.longdouble)
        for col in tied:
            x = long_double_inverse_iteration(shifted, ds.energies[col], h.bandwidth)
            assert abs(tail_weights(ds)[col] - np.sum(x[tail] ** 2)) <= 1e-10

    def test_matches_dense_oracle_at_full_scale(self):
        ds, _ = assert_matches_dense(ModelParams(lambda_=1.0, kappa=0.5, j=16.0, n_cutoff=320))
        assert ds.coefficients.shape == (5297, ds.energies.size)

    @pytest.mark.parametrize("j", [2.0, 6.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    def test_uncoupled_rows_equal_the_dense_route(self, j, kappa):
        params = ModelParams(lambda_=0.0, kappa=kappa, j=j, n_cutoff=40)
        ds, dense, h = windowed_pair(params)
        assert h.bandwidth == 0
        assert np.array_equal(np.abs(ds.coefficients).sum(axis=0), np.ones(ds.energies.size))
        row = compute_point(params)
        assert row.n_levels == dense.energies.size
        assert row.converged_fraction == check_convergence(dense)[1]
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
        flags, fraction = check_convergence(ds, tail_width=20, tol=1e-6)
        assert fraction == 1.0

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
        flags, fraction = check_convergence(ds, tail_width=2, tol=1e-6)
        assert not flags[0] and fraction == 0.0

    def test_missing_vectors(self):
        p = ModelParams(j=1.0, n_cutoff=10)
        ds = filter_energy_window(solve(p, want_vectors=False), p)
        with pytest.raises(MissingVectors):
            check_convergence(ds)

    def test_converged_pipeline_small(self):
        p = ModelParams(lambda_=1.0, kappa=0.0, j=4.0, n_cutoff=120)
        ds = filter_energy_window(solve(p, want_vectors=True), p)
        _, fraction = check_convergence(ds)
        assert fraction == 1.0

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
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([1.0, 2.0]))
        path = next(tmp_path.glob("*.spec"))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CacheFormatError):
            cache.load(p, Parity.EVEN, KIND_ENERGIES)
        cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([1.0, 2.0]))
        assert np.array_equal(cache.load(p, Parity.EVEN, KIND_ENERGIES), [1.0, 2.0])
        assert [q.name for q in tmp_path.iterdir()] == [path.name]

    def test_bad_magic_raises(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([1.0]))
        path = next(tmp_path.glob("*.spec"))
        path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
        with pytest.raises(CacheFormatError):
            cache.load(p, Parity.EVEN, KIND_ENERGIES)

    def test_non_utf8_key_raises(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([1.0]))
        path = next(tmp_path.glob("*.spec"))
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # first byte of the key document
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match=f"{path.name}: key mismatch"):
            cache.load(p, Parity.EVEN, KIND_ENERGIES)

    @pytest.mark.parametrize("cut", ["end of key", "inside count", "inside payload", "extra byte"])
    def test_wrong_length_raises(self, tmp_path, cut):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_ENERGIES, np.array([1.0, 2.0]))
        path = next(tmp_path.glob("*.spec"))
        blob = path.read_bytes()
        payload = len(blob) - 16  # two float64 values follow the count
        blob = {
            "end of key": blob[: payload - 8],
            "inside count": blob[: payload - 4],
            "inside payload": blob[: payload + 12],
            "extra byte": blob + b"\0",
        }[cut]
        path.write_bytes(blob)
        with pytest.raises(CacheFormatError, match=path.name):
            cache.load(p, Parity.EVEN, KIND_ENERGIES)

    def test_failed_store_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        cache = SpectrumCache(tmp_path)
        with pytest.raises(OSError, match="disk full"):
            cache.store(ModelParams(j=1.0, n_cutoff=8), Parity.EVEN, KIND_ENERGIES,
                        np.array([1.0]))
        row = compute_point(ModelParams(lambda_=0.9, j=2.0, n_cutoff=20), cache=cache)
        assert row.error == "OSError: disk full" and np.isnan(row.d_kl)
        assert list(tmp_path.iterdir()) == []

    def test_empty_array_roundtrip(self, tmp_path):
        cache = SpectrumCache(tmp_path)
        p = ModelParams(j=1.0, n_cutoff=8)
        cache.store(p, Parity.EVEN, KIND_MID_COEFFS, np.array([]))
        loaded = cache.load(p, Parity.EVEN, KIND_MID_COEFFS)
        assert loaded is not None and loaded.size == 0
