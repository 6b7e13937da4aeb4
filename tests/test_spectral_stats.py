"""Spacing statistics, Brody fits, eta, ratio statistics and boundary scans."""

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.stats import kstest

from dicke_chaos import (
    S0,
    ModelParams,
    brody_pdf,
    brody_scale,
    chaos_boundary,
    eta_indicator,
    fit_brody,
    goe_ratio_pdf,
    mean_ratio,
    poisson_pdf,
    poisson_ratio_pdf,
    spacing_ratios,
    split_degenerate,
    unfold,
    wigner_dyson_pdf,
)
from dicke_chaos.errors import (
    AllDegenerate,
    DegenerateFit,
    EmptyInput,
    NonRectangularGrid,
    TooFewLevels,
    TooFewSpacings,
)
from dicke_chaos.spectral_stats import DEFAULT_FIT_DEGREE, DEGENERACY_REL_TOL, ETA_DENOM
from dicke_chaos.sweep import compute_point_data


def sample_brody(rng, beta, size):
    """Inverse-CDF sampler: F(s) = 1 - exp(-b s^(beta+1))."""
    b = brody_scale(beta)
    u = rng.random(size)
    return (-np.log1p(-u) / b) ** (1.0 / (beta + 1.0))


class TestReferencePdfs:
    def test_poisson_at_zero(self):
        assert poisson_pdf(0.0) == 1.0

    def test_wigner_dyson_level_repulsion(self):
        assert wigner_dyson_pdf(0.0) == 0.0

    def test_wigner_dyson_at_one(self):
        expected = (np.pi / 2) * np.exp(-np.pi / 4)
        assert wigner_dyson_pdf(1.0) == pytest.approx(expected, abs=1e-15)
        assert wigner_dyson_pdf(1.0) == pytest.approx(0.7161859363405692, abs=1e-12)

    def test_first_intersection_constant(self):
        # the densities cross at ~0.4729; the module refines it to full precision
        assert 0.4729 < S0 < 0.4730
        assert abs(S0 - 0.4729129351811547) < 1e-13
        assert abs(wigner_dyson_pdf(S0) - poisson_pdf(S0)) < 1e-12

    def test_first_intersection_literal_is_the_root(self):
        # S0 is a literal so that importing the package needs no root finder
        root = brentq(lambda s: wigner_dyson_pdf(s) - poisson_pdf(s), 0.3, 0.6,
                      xtol=1e-15, rtol=8.9e-16)
        assert S0 == root

    def test_eta_denominator_against_quadrature(self):
        quad, _ = integrate.quad(lambda s: poisson_pdf(s) - wigner_dyson_pdf(s), 0.0, S0)
        assert ETA_DENOM == pytest.approx(quad, abs=1e-12)
        assert ETA_DENOM == pytest.approx(0.2157258290996982, abs=1e-12)


class TestBrody:
    def test_beta_zero_is_poisson(self):
        s = np.linspace(0.0, 10.0, 1000)
        assert np.max(np.abs(brody_pdf(s, 0.0) - poisson_pdf(s))) < 1e-12

    def test_beta_one_is_wigner_dyson(self):
        s = np.linspace(0.0, 10.0, 1000)
        assert np.max(np.abs(brody_pdf(s, 1.0) - wigner_dyson_pdf(s))) < 1e-12

    def test_scale_half(self):
        # Gamma(5/3) ** 1.5, computed independently via scipy
        from scipy.special import gamma

        assert brody_scale(0.5) == pytest.approx(gamma(5.0 / 3.0) ** 1.5, abs=1e-14)
        assert brody_scale(0.5) == pytest.approx(0.8577245662047805, abs=1e-12)

    def test_density_half_at_one(self):
        b = 0.8577245662047805
        assert brody_pdf(1.0, 0.5) == pytest.approx(b * 1.5 * np.exp(-b), abs=1e-12)
        assert brody_pdf(1.0, 0.5) == pytest.approx(0.5456750060130213, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_unit_normalization_and_mean(self, beta):
        norm, _ = integrate.quad(lambda s: brody_pdf(s, beta), 0.0, np.inf)
        mean, _ = integrate.quad(lambda s: s * brody_pdf(s, beta), 0.0, np.inf)
        assert norm == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("beta,lo,hi", [(0.0, 0.0, 0.05), (1.0, 0.95, 1.0), (0.5, 0.45, 0.55)])
    def test_mle_recovers_exponent(self, beta, lo, hi):
        rng = np.random.default_rng(42)
        s = sample_brody(rng, beta, 10_000)
        est, n_dropped = fit_brody(s)
        assert lo <= est <= hi
        assert n_dropped == 0

    def test_too_few_spacings(self):
        with pytest.raises(TooFewSpacings):
            fit_brody(np.ones(99))

    def test_all_degenerate(self):
        with pytest.raises(AllDegenerate):
            fit_brody(np.zeros(200))

    def test_degenerate_spacings_excluded_and_counted(self):
        rng = np.random.default_rng(3)
        s = np.concatenate([sample_brody(rng, 1.0, 5000), np.zeros(37)])
        est, n_dropped = fit_brody(s)
        assert n_dropped == 37
        assert est > 0.9


class TestEta:
    def test_wigner_dyson_sample_is_chaotic(self):
        rng = np.random.default_rng(11)
        u = rng.random(100_000)
        s = np.sqrt(-4.0 / np.pi * np.log1p(-u))
        assert eta_indicator(s) < 0.05

    def test_poisson_sample_is_integrable(self):
        rng = np.random.default_rng(12)
        s = -np.log1p(-rng.random(100_000))
        assert eta_indicator(s) == pytest.approx(1.0, abs=0.05)

    def test_clipped_to_unit_interval(self):
        # spacings piled far below S0 push the raw quotient beyond 1
        s = np.full(200, 1e-3)
        assert eta_indicator(s) == 1.0

    def test_monotone_in_brody_exponent(self):
        rng = np.random.default_rng(13)
        etas = []
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            etas.append(eta_indicator(sample_brody(rng, beta, 100_000)))
        diffs = np.diff(etas)
        assert np.all(diffs <= 0.03)
        assert etas[0] > 0.9 and etas[-1] < 0.1

    def test_too_few(self):
        with pytest.raises(TooFewSpacings):
            eta_indicator(np.ones(10))

    def test_all_degenerate(self):
        with pytest.raises(AllDegenerate):
            eta_indicator(np.zeros(200))


@pytest.mark.parametrize("indicator", [eta_indicator, fit_brody])
def test_negative_spacing_is_refused(indicator):
    """eta and Brody share one spacing check, so both refuse a negative spacing."""
    s = np.ones(200)
    s[17] = -1e-3
    with pytest.raises(ValueError, match="non-negative"):
        indicator(s)


class TestUnfold:
    def test_equally_spaced_gives_unit_spacings(self):
        for h in (0.1, 1.0, 17.3):
            levels = h * np.arange(200.0)
            out = unfold(levels, fit_degree=10)
            assert np.max(np.abs(out.spacings - 1.0)) < 1e-6

    def test_spacings_nonnegative_and_unit_mean(self):
        rng = np.random.default_rng(5)
        levels = np.sort(rng.normal(size=2000)) * 40.0
        out = unfold(levels)
        assert np.all(out.spacings >= 0)
        assert 0.9 < out.spacings.mean() < 1.1

    def test_poisson_process_unfolds_to_exponential(self):
        rng = np.random.default_rng(6)
        levels = np.cumsum(rng.exponential(1.0, 10_000))
        out = unfold(levels)
        stat = kstest(out.spacings, "expon").statistic
        assert stat < 0.02

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        levels = np.sort(rng.uniform(0.0, 50.0, 500))
        base = unfold(levels).spacings
        moved = unfold(2.375 * levels - 11.0).spacings
        assert np.max(np.abs(base - moved)) < 1e-8

    def test_too_few_levels(self):
        with pytest.raises(TooFewLevels):
            unfold(np.arange(15.0), fit_degree=10)

    def test_degenerate_fit(self):
        with pytest.raises(DegenerateFit):
            unfold(np.zeros(100))

    def test_rejects_descending_input(self):
        with pytest.raises(ValueError):
            unfold(np.array([3.0, 2.0, 1.0] * 20))


def reference_unfold(energies, fit_degree):
    """Unfolded spacings through numpy's Polynomial class."""
    staircase = np.arange(1, energies.size + 1, dtype=float)
    series = np.polynomial.Polynomial.fit(energies, staircase, fit_degree)
    return np.diff(np.sort(series(energies), kind="stable"))


def reference_split_degenerate(spacings):
    """split_degenerate written with ndarray.mean."""
    s = np.asarray(spacings, dtype=float)
    mean = s.mean()
    keep = s >= DEGENERACY_REL_TOL * mean if mean > 0 else np.zeros(s.shape, dtype=bool)
    return s[keep], int(s.size - keep.sum())


def reference_eta(spacings):
    """eta_indicator written with np.mean."""
    clean, _ = reference_split_degenerate(spacings)
    eta = abs(float(np.mean(clean <= S0)) - (1.0 - np.exp(-np.pi * S0 * S0 / 4.0))) / ETA_DENOM
    return float(min(max(eta, 0.0), 1.0))


def reference_mean_r(energies):
    """mean_ratio(spacing_ratios(energies)) and the dropped pairs, written with ndarray.mean."""
    s = np.diff(energies)
    keep = s >= DEGENERACY_REL_TOL * s.mean()
    ok = keep[:-1] & keep[1:]
    delta = s[1:][ok] / s[:-1][ok]
    return float(np.minimum(delta, 1.0 / delta).mean()), int(ok.size - ok.sum())


def reference_fit_brody(spacings):
    """The Brody fit's golden section, written with np.mean in the likelihood."""
    clean, n_dropped = reference_split_degenerate(spacings)
    mean_log_s = float(np.mean(np.log(clean)))

    def f(beta):
        b1 = beta + 1.0
        b = brody_scale(beta)
        return np.log(b * b1) + beta * mean_log_s - b * float(np.mean(clean**b1))

    lo, hi, invphi = 0.0, 1.0, (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-4:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return float(0.5 * (lo + hi)), n_dropped


@pytest.fixture(scope="module")
def spectra():
    """Poisson, GOE, a picket fence with ties, and two smoke-scale (D=446) windowed spectra."""
    rng = np.random.default_rng(20)
    a = rng.normal(size=(400, 400))
    fence = np.sort(np.concatenate([np.arange(300.0), np.arange(0.0, 300.0, 7.0)]))
    smoke = [compute_point_data(ModelParams(j=5.0, n_cutoff=80, kappa=0.5, lambda_=lam),
                                want_vectors=False) for lam in (0.2, 0.9)]
    assert {data.energies.size for data in smoke} == {446}
    return {
        "poisson": np.cumsum(rng.exponential(size=500)),
        "goe": np.linalg.eigvalsh((a + a.T) / 2.0),
        "fence with ties": fence,
        **{f"smoke lambda={lam}": data.windowed for lam, data in zip((0.2, 0.9), smoke)},
    }


SPECTRUM_NAMES = ["poisson", "goe", "fence with ties", "smoke lambda=0.2", "smoke lambda=0.9"]


class TestBitForBit:
    """The statistics skip numpy's per-call wrappers; the bits stay those of the wrapped calls."""

    @pytest.mark.parametrize("fit_degree", [DEFAULT_FIT_DEGREE, 6, 1, 0])
    @pytest.mark.parametrize("name", SPECTRUM_NAMES)
    def test_unfold_is_polynomial_fit(self, spectra, name, fit_degree):
        energies = spectra[name]
        assert (unfold(energies, fit_degree).spacings.tobytes()
                == reference_unfold(energies, fit_degree).tobytes())

    @pytest.mark.parametrize("name", SPECTRUM_NAMES)
    def test_fit_brody_is_the_np_mean_golden_section(self, spectra, name):
        spacings = reference_unfold(spectra[name], DEFAULT_FIT_DEGREE)
        beta, n_dropped = fit_brody(spacings)
        ref_beta, ref_dropped = reference_fit_brody(spacings)
        assert np.float64(beta).tobytes() == np.float64(ref_beta).tobytes()
        assert n_dropped == ref_dropped
        assert (name == "fence with ties") == (n_dropped > 0)

    @pytest.mark.parametrize("name", SPECTRUM_NAMES)
    def test_eta_and_degeneracies_are_the_np_mean_ones(self, spectra, name):
        spacings = reference_unfold(spectra[name], DEFAULT_FIT_DEGREE)
        assert np.float64(eta_indicator(spacings)).tobytes() == np.float64(
            reference_eta(spacings)).tobytes()
        for s in (spacings, np.diff(spectra[name])):
            clean, n_dropped = split_degenerate(s)
            ref_clean, ref_dropped = reference_split_degenerate(s)
            assert clean.tobytes() == ref_clean.tobytes() and n_dropped == ref_dropped

    @pytest.mark.parametrize("name", SPECTRUM_NAMES)
    def test_mean_ratio_is_the_np_mean_one(self, spectra, name):
        ratios, n_dropped = spacing_ratios(spectra[name])
        ref_mean_r, ref_dropped = reference_mean_r(spectra[name])
        assert np.float64(mean_ratio(ratios)).tobytes() == np.float64(ref_mean_r).tobytes()
        assert n_dropped == ref_dropped

    def test_spectra_cover_both_regimes(self, spectra):
        betas = {name: fit_brody(unfold(spectra[name]).spacings)[0] for name in SPECTRUM_NAMES}
        assert betas["poisson"] < 0.3 < 0.7 < betas["goe"]


class TestSpacingRatios:
    def test_picket_fence(self):
        ratios, dropped = spacing_ratios(np.array([0.0, 1.0, 2.0]))
        assert dropped == 0
        np.testing.assert_array_equal(ratios, [1.0])

    def test_hand_case(self):
        ratios, _ = spacing_ratios(np.array([0.0, 1.0, 3.0]))
        np.testing.assert_allclose(ratios, [0.5])

    def test_degenerate_pairs_dropped_and_counted(self):
        # spacings [0, 1, 1]: the pairs touching the zero spacing disappear
        ratios, dropped = spacing_ratios(np.array([0.0, 0.0, 1.0, 2.0]))
        np.testing.assert_allclose(ratios, [1.0])
        assert dropped == 1

    def test_affine_invariance_exact_arithmetic(self):
        # power-of-two scale and integer shift keep float arithmetic exact
        rng = np.random.default_rng(8)
        e = np.sort(rng.integers(0, 10_000, size=400)).astype(float)
        e = np.unique(e)
        r1, _ = spacing_ratios(e)
        r2, _ = spacing_ratios(2.0 * e + 7.0)
        np.testing.assert_array_equal(r1, r2)

    def test_affine_invariance_general(self):
        rng = np.random.default_rng(9)
        e = np.sort(rng.uniform(0.0, 100.0, 500))
        r1, _ = spacing_ratios(e)
        r2, _ = spacing_ratios(np.pi * e + np.e)
        np.testing.assert_allclose(r1, r2, rtol=1e-10)

    def test_poisson_process_ratio_distribution(self):
        rng = np.random.default_rng(10)
        levels = np.cumsum(rng.exponential(1.0, 100_000))
        ratios, _ = spacing_ratios(levels)
        # CDF of 2/(1+r)^2 on [0,1] is 2r/(1+r)
        stat = kstest(ratios, lambda r: 2.0 * r / (1.0 + r)).statistic
        assert stat < 0.01
        hist, edges = np.histogram(ratios, bins=50, range=(0.0, 1.0), density=True)
        assert hist[0] == pytest.approx(2.0, abs=0.15)

    def test_too_few_levels(self):
        with pytest.raises(TooFewLevels):
            spacing_ratios(np.array([0.0, 1.0]))


class TestRatioPdfs:
    def test_endpoint_values(self):
        assert goe_ratio_pdf(0.0) == 0.0
        assert goe_ratio_pdf(1.0) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-14)
        assert poisson_ratio_pdf(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_vanish_outside_unit_interval(self):
        r = np.array([-0.5, -1e-9, 1.0 + 1e-9, 2.0])
        assert np.all(goe_ratio_pdf(r) == 0.0)
        assert np.all(poisson_ratio_pdf(r) == 0.0)

    def test_normalization(self):
        n_goe, _ = integrate.quad(goe_ratio_pdf, 0.0, 1.0)
        n_poi, _ = integrate.quad(poisson_ratio_pdf, 0.0, 1.0)
        assert n_goe == pytest.approx(1.0, abs=1e-10)
        assert n_poi == pytest.approx(1.0, abs=1e-10)

    def test_reference_means(self):
        m_goe, _ = integrate.quad(lambda r: r * goe_ratio_pdf(r), 0.0, 1.0)
        m_poi, _ = integrate.quad(lambda r: r * poisson_ratio_pdf(r), 0.0, 1.0)
        assert m_goe == pytest.approx(4.0 - 2.0 * np.sqrt(3.0), abs=1e-8)
        assert m_poi == pytest.approx(2.0 * np.log(2.0) - 1.0, abs=1e-8)


class TestMeanRatio:
    def test_picket_fence_mean(self):
        assert mean_ratio(np.ones(50)) == 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mean_ratio(np.array([]))


class TestSplitDegenerate:
    def test_zero_mean_drops_everything(self):
        clean, dropped = split_degenerate(np.zeros(10))
        assert clean.size == 0 and dropped == 10

    def test_relative_tolerance(self):
        s = np.array([1.0, 1.0, 1e-14])
        clean, dropped = split_degenerate(s)
        assert dropped == 1 and clean.size == 2


class TestChaosBoundary:
    def _grid(self, values_by_kappa, lams):
        triples = []
        for kappa, values in values_by_kappa.items():
            triples += [(kappa, lam, v) for lam, v in zip(lams, values)]
        return triples

    def test_monotone_column(self):
        triples = self._grid({0.0: [0.9, 0.5, 0.2, 0.1]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "eta", 0.3)
        assert point.crossed and point.lambda_star == 0.5

    def test_never_crossing_column(self):
        triples = self._grid({0.0: [0.9, 0.8, 0.7, 0.6]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "eta", 0.3)
        assert not point.crossed and point.lambda_star is None

    def test_persistence_skips_transient_dip(self):
        # a single early dip below threshold must not count as the boundary
        triples = self._grid({0.0: [0.2, 0.5, 0.1, 0.05]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "eta", 0.3)
        assert point.lambda_star == 0.5

    def test_upward_indicator_direction(self):
        triples = self._grid({0.0: [0.39, 0.45, 0.49, 0.53]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "mean_r", 0.48)
        assert point.lambda_star == 0.5

    def test_all_satisfying_means_first_lambda(self):
        triples = self._grid({0.0: [0.5, 0.52, 0.54, 0.55]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "mean_r", 0.48)
        assert point.lambda_star == 0.1

    def test_kappa_columns_sorted_and_independent(self):
        triples = self._grid(
            {1.0: [0.39, 0.49, 0.50, 0.53], 0.0: [0.39, 0.40, 0.49, 0.53]},
            [0.1, 0.3, 0.5, 0.7],
        )
        points = chaos_boundary(triples, "mean_r", 0.48)
        assert [p.kappa for p in points] == [0.0, 1.0]
        assert points[0].lambda_star == 0.5
        assert points[1].lambda_star == 0.3

    def test_nan_never_satisfies(self):
        triples = self._grid({0.0: [0.5, np.nan, 0.55, 0.6]}, [0.1, 0.3, 0.5, 0.7])
        (point,) = chaos_boundary(triples, "mean_r", 0.48)
        assert point.lambda_star == 0.5

    def test_non_rectangular_raises(self):
        triples = [(0.0, 0.1, 1.0), (0.0, 0.3, 1.0), (1.0, 0.1, 1.0)]
        with pytest.raises(NonRectangularGrid):
            chaos_boundary(triples, "eta", 0.3)

    def test_duplicate_lambda_raises(self):
        triples = [(0.0, 0.1, 1.0), (0.0, 0.1, 0.9)]
        with pytest.raises(NonRectangularGrid):
            chaos_boundary(triples, "eta", 0.3)

    def test_unknown_indicator_rejected(self):
        with pytest.raises(ValueError):
            chaos_boundary([(0.0, 0.1, 1.0)], "zeta", 0.3)
