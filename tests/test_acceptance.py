"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy fixtures (the
full-scale indicator scan and the eigenvector runs) are shared module-wide, so
the whole suite finishes in a few minutes on a two-core machine.
"""

import functools
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dicke_chaos import (
    ModelParams,
    Parity,
    SpectrumCache,
    SweepConfig,
    brody_pdf,
    build_hamiltonian,
    chaos_boundary,
    diagonalize,
    enumerate_basis,
    eta_indicator,
    fit_brody,
    goe_ratio_pdf,
    kl_divergence,
    mean_ratio,
    poisson_pdf,
    poisson_ratio_pdf,
    run_sweep,
    spacing_ratios,
    unfold,
    wigner_dyson_pdf,
    write_csv,
)
from dicke_chaos.cache import KIND_MID_COEFFS
from dicke_chaos.eigenstate_stats import CoefficientSample
from dicke_chaos.spectrum import DEFAULT_TAIL_TOL, available_cores
from dicke_chaos.sweep import compute_point_data
from dataclasses import replace
from scipy import integrate

FULL_SCALE = dict(omega=1.0, omega0=1.0, j=16.0, n_cutoff=320)
SCAN_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0)
SCAN_KAPPAS = (0.0, 1.0)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {label}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"\n[acceptance] {label}: PASS ({time.time() - start:.1f}s)")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def indicator_scan():
    """eta/beta/<r> over the (kappa, lambda) scan grid, eigenvalues only.  The points are
    independent and their band solves release the GIL, so they run in a thread per core."""
    def indicators(point):
        kappa, lam = point
        params = ModelParams(lambda_=lam, kappa=kappa, **FULL_SCALE)
        windowed = compute_point_data(params, want_vectors=False).windowed
        spacings = unfold(windowed, fit_degree=10).spacings
        ratios, _ = spacing_ratios(windowed)
        return {
            "eta": eta_indicator(spacings),
            "beta": fit_brody(spacings)[0],
            "mean_r": mean_ratio(ratios),
        }

    points = [(kappa, lam) for kappa in SCAN_KAPPAS for lam in SCAN_LAMBDAS]
    start = time.time()
    with ThreadPoolExecutor(available_cores()) as pool:
        rows = dict(zip(points, pool.map(indicators, points)))
    rows["elapsed"] = time.time() - start
    return rows


@pytest.fixture(scope="module")
def eigenvector_runs(tmp_path_factory):
    """Vector-resolved runs at the production cutoff, plus an eigenvalue-only
    cross-check 40 Fock layers higher, at lambda = 0.1 and 1.0 (kappa = 0), the two
    lambdas in a thread each, as in indicator_scan.  The pooled components come from
    the run's cache entry."""
    cache = SpectrumCache(tmp_path_factory.mktemp("eigenvector_runs"))

    def run(lam):
        params = ModelParams(lambda_=lam, kappa=0.0, **FULL_SCALE)
        data = compute_point_data(params, cache)
        sample = CoefficientSample.pool(cache.load(params, Parity.EVEN, KIND_MID_COEFFS),
                                        data.energies.size)
        hi = compute_point_data(replace(params, n_cutoff=params.n_cutoff + 40),
                                want_vectors=False)
        flags = data.tail < DEFAULT_TAIL_TOL
        return {
            "d_kl": kl_divergence(sample, bins=201),
            "pooled_variance": float(np.var(sample.values)),
            "dim": sample.dim,
            "windowed": data.windowed,
            "windowed_hi": hi.windowed,
            "converged_flags": flags,
            "converged_fraction": float(flags.mean()),
            "e0": float(data.energies[0]),
            "e0_hi": float(hi.energies[0]),
        }

    lambdas = (0.1, 1.0)
    with ThreadPoolExecutor(available_cores()) as pool:
        return dict(zip(lambdas, pool.map(run, lambdas)))


@criterion("criterion 1 (analytic-limit equivalences)")
def test_criterion_1_analytic_limits():
    start = time.time()
    s = np.linspace(0.0, 10.0, 1000)
    assert np.max(np.abs(brody_pdf(s, 0.0) - poisson_pdf(s))) < 1e-12
    assert np.max(np.abs(brody_pdf(s, 1.0) - wigner_dyson_pdf(s))) < 1e-12
    mean_poi, _ = integrate.quad(lambda r: r * poisson_ratio_pdf(r), 0.0, 1.0)
    mean_goe, _ = integrate.quad(lambda r: r * goe_ratio_pdf(r), 0.0, 1.0)
    assert abs(mean_poi - (2.0 * np.log(2.0) - 1.0)) < 1e-8  # ~ 0.386
    assert abs(mean_goe - (4.0 - 2.0 * np.sqrt(3.0))) < 1e-8  # ~ 0.536
    assert time.time() - start < 2.0


@criterion("criterion 2 (sampled-ensemble oracle)")
def test_criterion_2_sampled_ensembles():
    start = time.time()
    rng = np.random.default_rng(20240229)

    # GOE ensemble: 20 matrices of dimension 2000
    pooled_spacings, pooled_ratios = [], []
    for _ in range(20):
        a = rng.standard_normal((2000, 2000))
        w = np.linalg.eigvalsh((a + a.T) / 2.0)
        ratios, _ = spacing_ratios(w)
        pooled_ratios.append(ratios)
        # unfold the spectral bulk; the semicircle edges distort a global fit
        pooled_spacings.append(unfold(w[200:-200], fit_degree=10).spacings)
    spacings = np.concatenate(pooled_spacings)
    ratios = np.concatenate(pooled_ratios)
    goe_mean_r = mean_ratio(ratios)
    goe_eta = eta_indicator(spacings)
    goe_beta, _ = fit_brody(spacings)
    assert 0.525 <= goe_mean_r <= 0.540
    assert goe_eta < 0.1
    assert goe_beta > 0.9

    # Poisson-gap spectrum of 1e5 levels
    levels = np.cumsum(rng.exponential(1.0, 100_000))
    ratios, _ = spacing_ratios(levels)
    spacings = unfold(levels, fit_degree=10).spacings
    poi_mean_r = mean_ratio(ratios)
    poi_eta = eta_indicator(spacings)
    poi_beta, _ = fit_brody(spacings)
    assert abs(poi_mean_r - 0.386) <= 0.01
    assert abs(poi_eta - 1.0) <= 0.05
    assert poi_beta < 0.05

    assert time.time() - start < 120.0


@criterion("criterion 3 (diagonal-limit oracle)")
def test_criterion_3_diagonal_limit():
    start = time.time()
    basis = enumerate_basis(ModelParams(**FULL_SCALE), Parity.EVEN)

    params = ModelParams(lambda_=0.0, kappa=0.0, **FULL_SCALE)
    eig = diagonalize(build_hamiltonian(params, Parity.EVEN))
    expected = np.sort([s.n + s.m for s in basis])
    assert np.max(np.abs(eig.energies - expected)) < 1e-10

    params = ModelParams(lambda_=0.0, kappa=0.7, **FULL_SCALE)
    eig = diagonalize(build_hamiltonian(params, Parity.EVEN))
    expected = np.sort([s.n + s.m + 0.7 * s.m**2 / 32.0 for s in basis])
    assert np.max(np.abs(eig.energies - expected)) < 1e-10

    assert time.time() - start < 120.0


@criterion("criterion 4 (basis and parity structure)")
def test_criterion_4_basis_parity():
    start = time.time()
    # brute-force enumeration oracle at the full scale
    count = 0
    for n in range(321):
        for k in range(33):
            if (k + n) % 2 == 0:
                count += 1
    assert count == 5297
    assert len(enumerate_basis(ModelParams(**FULL_SCALE), Parity.EVEN)) == 5297

    # full-basis assembly: even <-> odd blocks exactly zero
    params = ModelParams(lambda_=0.8, kappa=0.6, j=4.0, n_cutoff=20)
    h = build_hamiltonian(params, None)
    even = (np.rint(params.j + h.basis.m).astype(np.int64) + h.basis.n) % 2 == 0
    assert np.all(h.entries[np.ix_(even, ~even)] == 0.0)
    assert np.all(h.entries[np.ix_(~even, even)] == 0.0)
    assert time.time() - start < 60.0


@criterion("criterion 5a (mean ratio rises with coupling)")
def test_criterion_5a_mean_r_crossover(indicator_scan):
    values = [indicator_scan[(0.0, lam)]["mean_r"] for lam in (0.1, 0.3, 0.5, 0.7, 1.0)]
    print(f"  <r> at kappa=0: {[round(v, 4) for v in values]}")
    assert values[0] <= 0.42
    assert values[-1] >= 0.50
    assert all(b >= a - 0.02 for a, b in zip(values, values[1:]))
    assert indicator_scan["elapsed"] < 1800.0


@criterion("criterion 5b (chaotic classification at lambda=1)")
def test_criterion_5b_chaotic_point(indicator_scan):
    point = indicator_scan[(0.0, 1.0)]
    print(f"  lambda=1, kappa=0: eta={point['eta']:.4f} beta={point['beta']:.4f} "
          f"<r>={point['mean_r']:.4f}")
    assert point["eta"] <= 0.3
    assert point["beta"] >= 0.7
    assert point["mean_r"] >= 0.48


@criterion("criterion 5c (interaction extends the chaotic region)")
def test_criterion_5c_boundary_shift(indicator_scan):
    triples = [
        (kappa, lam, indicator_scan[(kappa, lam)]["mean_r"])
        for kappa in SCAN_KAPPAS
        for lam in SCAN_LAMBDAS
    ]
    boundary = {p.kappa: p for p in chaos_boundary(triples, "mean_r", 0.48)}
    print(f"  lambda*(kappa=0)={boundary[0.0].lambda_star} "
          f"lambda*(kappa=1)={boundary[1.0].lambda_star}")
    assert boundary[0.0].crossed and boundary[1.0].crossed
    assert boundary[1.0].lambda_star < boundary[0.0].lambda_star


@criterion("criterion 6 (eigenstate-statistics trend and KL oracles)")
def test_criterion_6_kl_divergence(eigenvector_runs):
    start = time.time()
    chaotic = eigenvector_runs[1.0]
    regular = eigenvector_runs[0.1]
    print(f"  D_KL(lambda=1)={chaotic['d_kl']:.4f} D_KL(lambda=0.1)={regular['d_kl']:.4f}")
    assert chaotic["d_kl"] * 3.0 < regular["d_kl"]

    # pooled coefficients in the chaotic regime carry variance ~ 1/D
    dim = chaotic["dim"]
    assert 0.5 / dim < chaotic["pooled_variance"] < 2.0 / dim

    # KL self-consistency: sampling the reference itself
    rng = np.random.default_rng(7)
    dim = 1000
    values = rng.normal(0.0, 1.0 / np.sqrt(dim), 1_000_000)
    sample = CoefficientSample(values=values, dim=dim, n_states=1000,
                               c_min=float(values.min()), c_max=float(values.max()))
    assert kl_divergence(sample, bins=201) < 0.01

    # variance-mismatch oracle: ln(1/2) + 2 - 1/2 = 0.80685
    values = rng.normal(0.0, 2.0 / np.sqrt(dim), 1_000_000)
    sample = CoefficientSample(values=values, dim=dim, n_states=1000,
                               c_min=float(values.min()), c_max=float(values.max()))
    assert abs(kl_divergence(sample, bins=201) - 0.8069) <= 0.02

    assert time.time() - start < 900.0


@criterion("supporting invariant (Fock-cutoff convergence at production scale)")
def test_full_scale_cutoff_stability(eigenvector_runs):
    # Regular regime: every windowed state converged, spectrum cutoff-stable.
    soft = eigenvector_runs[0.1]
    assert soft["converged_fraction"] == 1.0
    assert soft["windowed"].size == soft["windowed_hi"].size
    assert np.max(np.abs(soft["windowed"] - soft["windowed_hi"])) < 1e-6

    # Chaotic regime: states near the window top genuinely feel the truncation
    # (the spectrum reaches E = 4N = 128 of n_cutoff = 320 at strong coupling),
    # and the tail-weight diagnostic flags exactly those: every state it marks
    # converged keeps its eigenvalue to far better than 1e-6 under Nc -> Nc+40,
    # while the flagged ones shift.
    hard = eigenvector_runs[1.0]
    print(f"  lambda=1 converged fraction: {hard['converged_fraction']:.4f}")
    assert 0.6 < hard["converged_fraction"] < 0.8
    flags = hard["converged_flags"]
    idx = np.nonzero(flags)[0]
    idx = idx[idx < hard["windowed_hi"].size]
    assert np.max(np.abs(hard["windowed"][idx] - hard["windowed_hi"][idx])) < 1e-6
    moved = np.nonzero(~flags)[0]
    moved = moved[moved < hard["windowed_hi"].size]
    assert np.max(np.abs(hard["windowed"][moved] - hard["windowed_hi"][moved])) > 1e-6

    # variational monotonicity of the ground state under cutoff growth
    for run in (soft, hard):
        assert run["e0_hi"] <= run["e0"] + 1e-12


@criterion("supporting example (CLI spacing run at production scale)")
def test_cli_spacing_at_scale(tmp_path):
    import json

    from dicke_chaos.cli import main
    from histogram_io import read_histogram

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "omega": 1.0, "omega0": 1.0, "j": 16.0, "n_cutoff": 320,
        "energy_window": [0.4, 4.0], "mid_window": [1.75, 2.25],
        "output_dir": str(tmp_path / "out"),
    }))
    code = main(["spacing", "--config", str(config),
                 "--set", "lambda=1", "--set", "kappa=0"])
    assert code == 0
    hist, meta = read_histogram(tmp_path / "out" / "hist_spacing_0_1.json")
    print(f"  CLI spacing at lambda=1: eta={meta['eta']:.4f} beta={meta['beta']:.4f}")
    assert meta["eta"] < 0.3
    assert meta["beta"] > 0.7
    assert sum(hist.counts) == meta["n_levels"] - 1 - meta["n_degenerate_dropped"]


@criterion("criterion 7 (worker count never changes output bytes)")
def test_criterion_7_determinism(tmp_path):
    start = time.time()
    digests = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        config = SweepConfig(
            base=ModelParams(j=6.0, n_cutoff=80),
            kappa_grid=(0.0, 0.7),
            lambda_grid=(0.3, 0.9),
            workers=workers,
            output_dir=out,
        )
        write_csv(run_sweep(config), out / "sweep.csv")
        digests[workers] = (out / "sweep.csv").read_bytes()
    assert digests[1] == digests[4]
    assert time.time() - start < 600.0
