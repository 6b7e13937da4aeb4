"""Coefficient pooling, the GOE Gaussian reference and the KL divergence."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from dicke_chaos import (
    CoefficientSample,
    ModelParams,
    Parity,
    build_hamiltonian,
    build_histogram,
    collect_coefficients,
    diagonalize,
    filter_energy_window,
    goe_coefficient_pdf,
    kl_divergence,
)
from dicke_chaos.eigenstate_stats import (
    CoefficientHistogram,
    _log_gaussian_bin_masses,
    binned_kl_divergence,
)
from dicke_chaos.errors import (
    DegenerateRange,
    EmptySample,
    EmptyWindow,
    MissingVectors,
)


def make_sample(values, dim):
    values = np.asarray(values, dtype=float)
    return CoefficientSample(
        values=values, dim=dim, n_states=max(1, values.size // dim),
        c_min=float(values.min()), c_max=float(values.max()),
    )


class TestGoeCoefficientPdf:
    def test_peak_value(self):
        assert goe_coefficient_pdf(0.0, 100) == pytest.approx(
            np.sqrt(100.0 / (2.0 * np.pi)), abs=1e-14
        )
        assert goe_coefficient_pdf(0.0, 100) == pytest.approx(3.989422804014327, abs=1e-12)

    def test_even_symmetry(self):
        c = np.linspace(-0.5, 0.5, 101)
        np.testing.assert_array_equal(
            goe_coefficient_pdf(c, 250), goe_coefficient_pdf(-c, 250)
        )

    def test_normalized(self):
        total, _ = integrate.quad(lambda c: goe_coefficient_pdf(c, 64), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestHistogram:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        hist = build_histogram(rng.normal(size=5000), bins=41)
        widths = np.diff(hist.edges)
        assert np.sum(hist.densities * widths) == pytest.approx(1.0, abs=1e-10)

    def test_empty_needs_range(self):
        with pytest.raises(EmptySample):
            build_histogram(np.array([]), bins=10)

    def test_empty_with_range_is_zero(self):
        hist = build_histogram(np.array([]), bins=10, value_range=(0.0, 1.0))
        assert np.all(hist.counts == 0) and np.all(hist.densities == 0.0)

    @pytest.mark.parametrize("value_range", [None, (-1.5, 2.0)])
    @pytest.mark.parametrize("values", [[0.3, -1.2, 1.9, 0.3, 0.7], [0.25, 0.25]],
                             ids=["spread", "one_value"])
    def test_edges_are_np_histogram_edges(self, values, value_range):
        """The derived edges are np.histogram's, also where it widens a one-value span."""
        counts, edges = np.histogram(values, 13, value_range)
        hist = build_histogram(values, 13, value_range)
        assert np.array_equal(hist.edges, edges) and np.array_equal(hist.counts, counts)


class TestCoefficientHistogram:
    def test_is_the_histogram_of_its_sample(self):
        rng = np.random.default_rng(4)
        sample = make_sample(rng.normal(0.0, 0.1, 3000), dim=30)
        hist = CoefficientHistogram.of(sample, 41)
        reference = build_histogram(sample.values, 41, (sample.c_min, sample.c_max))
        for name in ("counts", "edges", "densities"):
            assert np.array_equal(getattr(hist, name), getattr(reference, name))
        assert (hist.lo, hist.hi, hist.dim, hist.n_states) == (
            sample.c_min, sample.c_max, 30, 100)

    def test_payload_round_trip(self):
        sample = make_sample(np.linspace(-0.2, 0.3, 120), dim=12)
        hist = CoefficientHistogram.of(sample, 17)
        payload = hist.payload
        assert np.array_equal(payload[:3], [10, -0.2, 0.3])
        back = CoefficientHistogram.from_payload(payload, 12)
        assert np.array_equal(back.payload, payload)
        assert np.array_equal(back.edges, hist.edges)
        assert np.array_equal(back.densities, hist.densities)
        assert binned_kl_divergence(back) == binned_kl_divergence(hist) == kl_divergence(
            sample, 17)


class TestCollectCoefficients:
    def _dataset(self, lambda_, j=2.0, n_cutoff=40):
        p = ModelParams(lambda_=lambda_, kappa=0.0, j=j, n_cutoff=n_cutoff,
                        energy_window=(0.0, 6.0), mid_window=(0.5, 2.0))
        eig = diagonalize(build_hamiltonian(p, Parity.EVEN), want_vectors=True)
        return p, filter_energy_window(eig, p)

    def test_diagonal_limit_pools_unit_vectors(self):
        p, ds = self._dataset(0.0)
        sample = collect_coefficients(ds)
        dim = len(ds.basis)
        assert sample.dim == dim
        assert sample.values.size == sample.n_states * dim
        per_state = sample.values.reshape(sample.n_states, dim)
        np.testing.assert_allclose(np.sum(per_state**2, axis=1), 1.0, atol=1e-12)
        # each diagonal-limit eigenstate is a single basis vector
        assert np.all(np.sum(per_state != 0.0, axis=1) == 1)
        assert np.all(np.max(per_state, axis=1) == 1.0)

    def test_pooled_size_and_extremes(self):
        p, ds = self._dataset(0.8)
        sample = collect_coefficients(ds)
        scaled = ds.energies / p.n_atoms
        k = int(np.sum((scaled >= 0.5) & (scaled <= 2.0)))
        assert sample.n_states == k
        assert sample.values.size == k * sample.dim
        assert sample.c_min == sample.values.min()
        assert sample.c_max == sample.values.max()
        assert -1.0 <= sample.c_min <= sample.c_max <= 1.0

    def test_explicit_window_overrides_default(self):
        """The mid window comes from the dataset's params."""
        p, ds = self._dataset(0.8)
        narrow = collect_coefficients(replace(ds, params=replace(p, mid_window=(0.9, 1.1))))
        default = collect_coefficients(ds)
        assert narrow.n_states < default.n_states

    def test_missing_vectors(self):
        p = ModelParams(j=1.0, n_cutoff=10)
        eig = diagonalize(build_hamiltonian(p, Parity.EVEN), want_vectors=False)
        ds = filter_energy_window(eig, p)
        with pytest.raises(MissingVectors):
            collect_coefficients(ds)

    def test_empty_mid_window(self):
        # retained states all have E/N <= 6, so a window above that is empty
        p, ds = self._dataset(0.8)
        with pytest.raises(EmptyWindow):
            collect_coefficients(replace(ds, params=replace(p, mid_window=(6.5, 7.0))))


class TestKlDivergence:
    def test_self_consistency(self):
        # sampling the reference itself must give a near-zero divergence
        rng = np.random.default_rng(100)
        dim = 1000
        sample = make_sample(rng.normal(0.0, 1.0 / np.sqrt(dim), 1_000_000), dim)
        assert kl_divergence(sample, bins=201) < 0.01

    def test_variance_mismatch_oracle(self):
        # closed form: ln(sigma2/sigma1) + sigma1^2/(2 sigma2^2) - 1/2 = 0.80685
        rng = np.random.default_rng(101)
        dim = 1000
        sample = make_sample(rng.normal(0.0, 2.0 / np.sqrt(dim), 1_000_000), dim)
        expected = np.log(0.5) + 2.0 - 0.5
        assert kl_divergence(sample, bins=201) == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_negative_for_arbitrary_samples(self, seed):
        rng = np.random.default_rng(seed)
        dim = 500
        mixtures = [
            rng.uniform(-0.3, 0.3, 20_000),
            np.concatenate([rng.normal(-0.1, 0.01, 10_000), rng.normal(0.1, 0.01, 10_000)]),
            rng.normal(0.0, 1.0 / np.sqrt(dim), 20_000),
        ]
        for values in mixtures:
            assert kl_divergence(make_sample(values, dim), bins=101) >= 0.0

    def test_empty_sample(self):
        sample = CoefficientSample(np.array([]), dim=10, n_states=0, c_min=0.0, c_max=0.0)
        with pytest.raises(EmptySample):
            kl_divergence(sample)

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            kl_divergence(make_sample(np.full(100, 0.25), dim=10))

    def test_bins_floor(self):
        with pytest.raises(ValueError):
            kl_divergence(make_sample(np.linspace(-0.1, 0.1, 100), dim=10), bins=5)


class TestLogGaussianBinMasses:
    def test_matches_direct_cdf_in_bulk(self):
        dim = 100
        edges = np.linspace(-0.4, 0.4, 33)
        logm = _log_gaussian_bin_masses(edges, dim)
        z = edges * np.sqrt(dim)
        direct = np.log(norm.cdf(z[1:]) - norm.cdf(z[:-1]))
        np.testing.assert_allclose(logm, direct, rtol=1e-10)

    def test_matches_sf_differences_in_tail(self):
        dim = 400
        edges = np.linspace(0.5, 1.0, 11)  # z from 10 to 20
        logm = _log_gaussian_bin_masses(edges, dim)
        z = edges * np.sqrt(dim)
        direct = np.log(norm.sf(z[:-1]) - norm.sf(z[1:]))
        np.testing.assert_allclose(logm, direct, rtol=1e-9)

    def test_bit_identical_to_scipy_stats_norm(self):
        """The scipy.special route gives exactly the bin masses scipy.stats.norm gives."""
        def norm_masses(edges, dim):
            z = edges * np.sqrt(float(dim))
            z_lo, z_hi = z[:-1], z[1:]
            out = np.empty(z_lo.size)
            upper, lower = z_lo >= 0.0, z_hi <= 0.0
            middle = ~(upper | lower)
            with np.errstate(divide="ignore"):
                la, lb = norm.logsf(z_lo[upper]), norm.logsf(z_hi[upper])
                out[upper] = la + np.log1p(-np.exp(lb - la))
                la, lb = norm.logcdf(z_lo[lower]), norm.logcdf(z_hi[lower])
                out[lower] = lb + np.log1p(-np.exp(la - lb))
                out[middle] = np.log(norm.cdf(z_hi[middle]) - norm.cdf(z_lo[middle]))
            return out

        # z = edges * sqrt(dim) runs over [-40, 40] in steps of 0.01, through +-38 and 0
        dim = 100
        edges = np.linspace(-4.0, 4.0, 8001)
        assert {-380, 0, 380} <= set(np.rint(edges * 100).astype(int).tolist())
        assert np.array_equal(_log_gaussian_bin_masses(edges, dim), norm_masses(edges, dim))
        # and on unequal bins straddling +-38 and far out in both tails
        edges = np.array([-80.0, -38.0, -37.5, -1.0, 0.0, 0.5, 37.9, 38.0, 38.1, 80.0]) / 10.0
        assert np.array_equal(_log_gaussian_bin_masses(edges, dim), norm_masses(edges, dim))

    def test_finite_in_extreme_tail(self):
        # direct CDF differences underflow here; the log route must not
        dim = 6000
        edges = np.linspace(0.5, 1.0, 6)  # z up to ~77
        logm = _log_gaussian_bin_masses(edges, dim)
        assert np.all(np.isfinite(logm))
        assert np.all(np.diff(logm) < 0)  # tail masses keep shrinking

    def test_symmetric_bins_have_symmetric_masses(self):
        dim = 900
        edges = np.linspace(-0.8, 0.8, 17)
        logm = _log_gaussian_bin_masses(edges, dim)
        np.testing.assert_allclose(logm, logm[::-1], rtol=1e-9)

    def test_upper_tail_mirrors_lower_tail(self):
        """One formula serves both tails: reflected edges give reflected masses, bit for
        bit, with bins out to |z| = 80 on both sides and straddling 0 and +-38."""
        dim = 100
        e = np.concatenate([np.linspace(-8.0, -3.9, 42), [-3.8, -0.05, 0.0, 0.02, 3.8],
                            np.linspace(3.9, 8.0, 42)])
        assert np.abs(e).max() * np.sqrt(dim) == 80.0
        masses = _log_gaussian_bin_masses(e, dim)
        assert np.array_equal(masses, _log_gaussian_bin_masses(-e[::-1], dim)[::-1])
        assert np.all(np.isfinite(masses))

    def test_total_mass_sums_to_one_over_wide_range(self):
        dim = 50
        edges = np.linspace(-3.0, 3.0, 200)  # +-21 sigma: essentially full mass
        total = np.exp(_log_gaussian_bin_masses(edges, dim)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)
