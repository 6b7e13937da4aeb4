"""Eigenvalue-based chaos diagnostics.

Implements spectrum unfolding, the nearest-neighbor spacing distribution with
its Poisson / Wigner-Dyson / Brody references, the eta indicator, adjacent
spacing ratios with their Poisson / GOE references, and threshold scans that
extract a chaos boundary lambda*(kappa) from sweep grids.  ``gammaln`` (SciPy's compiled
ufunc, without ``scipy.special``) loads at its first use; :func:`unfold` does the arithmetic
of numpy's ``Polynomial.fit`` itself, so ``numpy.polynomial`` never loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllDegenerate,
    DegenerateFit,
    EmptyInput,
    NonRectangularGrid,
    TooFewLevels,
    TooFewSpacings,
)
from .spectrum import _scipy_compiled

#: Spacings below this fraction of the mean spacing count as exact degeneracies.
DEGENERACY_REL_TOL = 1e-10

#: Minimum sample size for distribution-level statistics (eta, Brody fit).
MIN_SPACINGS = 100

#: Degree of the unfolding polynomial unless a config sets ``fit_degree``.
DEFAULT_FIT_DEGREE = 10


def poisson_pdf(s):
    """Spacing density exp(-s) of uncorrelated (integrable) levels."""
    s = np.asarray(s, dtype=float)
    return np.exp(-s)


def wigner_dyson_pdf(s):
    """GOE spacing density (pi s / 2) exp(-pi s^2 / 4); vanishes at s = 0."""
    s = np.asarray(s, dtype=float)
    return (np.pi * s / 2.0) * np.exp(-np.pi * s * s / 4.0)


def brody_scale(beta: float) -> float:
    """Rate factor Gamma((beta+2)/(beta+1))**(beta+1) of the Brody density."""
    gammaln, = _scipy_compiled("special._special_ufuncs", "scipy.special", "gammaln")
    b1 = beta + 1.0
    return float(np.exp(gammaln((beta + 2.0) / b1) * b1))


def brody_pdf(s, beta: float):
    """Brody spacing density, interpolating Poisson (beta=0) to Wigner-Dyson (beta=1)."""
    s = np.asarray(s, dtype=float)
    b = brody_scale(beta)
    b1 = beta + 1.0
    return b * b1 * s**beta * np.exp(-b * s**b1)


#: First intersection of the Poisson and Wigner-Dyson densities, the smallest
#: positive root of P_WD(s) = P_P(s), to full float precision (a test recomputes
#: it by root bracketing).
S0 = 0.4729129351811547

_WD_CDF_S0 = 1.0 - np.exp(-np.pi * S0 * S0 / 4.0)
#: Denominator of the eta indicator: integral of (P_P - P_WD) over [0, S0].
ETA_DENOM = float(np.exp(-np.pi * S0 * S0 / 4.0) - np.exp(-S0))


@dataclass
class UnfoldedSpectrum:
    """Consecutive spacings of the unfolded levels, which have unit mean density."""

    spacings: np.ndarray


def unfold(energies, fit_degree: int = DEFAULT_FIT_DEGREE) -> UnfoldedSpectrum:
    """Unfold a spectrum by a global polynomial fit of the counting function.

    The cumulative staircase N(E) = #{k : E_k <= E} is fitted by a least-squares
    polynomial of the given degree on a domain mapped to [-1, 1] (so affine maps of the
    energy axis leave the result as is).  Unfolded levels are the fitted values at the
    eigenvalues, re-sorted where the fit is locally non-monotone.  The arithmetic is that
    of numpy's ``Polynomial.fit``, step for step and so bit for bit, without loading
    ``numpy.polynomial``: the domain map, a Vandermonde matrix of repeated products,
    columns scaled to unit 2-norm, ``lstsq`` with rcond = len * eps, the coefficients
    unscaled, and Horner's rule.

    Raises
    ------
    TooFewLevels
        If fewer than fit_degree + 10 levels are supplied.
    DegenerateFit
        If the polynomial system is rank-deficient (e.g. all levels equal).
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or np.any(np.diff(e) < 0):
        raise ValueError("energies must be a 1-d ascending array")
    if e.size < fit_degree + 10:
        raise TooFewLevels(f"need at least {fit_degree + 10} levels, got {e.size}")
    span = e[-1] - e[0]
    if span <= 0:
        raise DegenerateFit("spectrum has zero span")
    x = (-e[-1] - e[0]) / span + 2.0 / span * e
    vander = np.empty((fit_degree + 1, e.size))  # row k holds x**k
    vander[0] = x * 0 + 1
    for k in range(1, fit_degree + 1):
        vander[k] = vander[k - 1] * x
    norms = np.sqrt(np.square(vander).sum(1))  # none is 0: x[-1] is 1 to rounding
    coef, _, rank, _ = np.linalg.lstsq(vander.T / norms, np.arange(1.0, e.size + 1),
                                       e.size * np.finfo(float).eps)
    if rank < fit_degree + 1:
        raise DegenerateFit(f"counting-function fit is rank-deficient (rank {rank})")
    coef = coef / norms
    fitted = coef[-1] + x * 0
    for c in coef[-2::-1]:
        fitted = c + fitted * x
    return UnfoldedSpectrum(spacings=np.diff(np.sort(fitted, kind="stable")))


def _nondegenerate(s: np.ndarray) -> np.ndarray:
    """Mask of the spacings in the non-empty ``s`` at or above DEGENERACY_REL_TOL
    times their mean; all False when the mean spacing is not positive."""
    mean = s.mean()
    return s >= DEGENERACY_REL_TOL * mean if mean > 0 else np.zeros(s.shape, dtype=bool)


def split_degenerate(spacings) -> tuple[np.ndarray, int]:
    """Separate spacings from exact degeneracies.

    Returns the spacings at or above DEGENERACY_REL_TOL times the mean spacing
    plus the number excluded.  An identically-degenerate input (mean spacing 0)
    is excluded in full.
    """
    s = np.asarray(spacings, dtype=float)
    if s.size == 0:
        return s, 0
    keep = _nondegenerate(s)
    return s[keep], int(s.size - keep.sum())


def _checked_spacings(spacings, split=None) -> tuple[np.ndarray, int]:
    """:func:`split_degenerate` (``split``, if made already) of >= MIN_SPACINGS spacings,
    none negative, not all degenerate."""
    s = np.asarray(spacings, dtype=float)
    if s.size < MIN_SPACINGS:
        raise TooFewSpacings(f"need at least {MIN_SPACINGS} spacings, got {s.size}")
    if np.any(s < 0):
        raise ValueError("spacings must be non-negative")
    clean, n_dropped = split or split_degenerate(s)
    if clean.size == 0:
        raise AllDegenerate("all spacings below the degeneracy tolerance")
    return clean, n_dropped


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def fit_brody(spacings) -> tuple[float, int]:
    """Maximum-likelihood Brody exponent of a spacing sample.

    Maximizes the mean log-density over beta in [0, 1] by golden-section search
    to 1e-4.  Returns (beta, number of degenerate spacings excluded).

    Raises
    ------
    TooFewSpacings
        If fewer than MIN_SPACINGS spacings are supplied.
    ValueError
        If a spacing is negative.
    AllDegenerate
        If every spacing falls below the degeneracy tolerance.
    """
    clean, n_dropped = _checked_spacings(spacings)
    return _brody_beta(clean), n_dropped


def _brody_beta(clean: np.ndarray) -> float:
    """:func:`fit_brody`'s exponent of spacings that passed :func:`_checked_spacings`."""
    mean_log_s = float(np.mean(np.log(clean)))

    def mean_loglik(beta: float) -> float:
        b1 = beta + 1.0
        b = brody_scale(beta)
        mean_s_b1 = np.add.reduce(clean**b1) / clean.size  # np.mean's bits, without its wrapper
        return np.log(b * b1) + beta * mean_log_s - b * float(mean_s_b1)

    return float(_golden_max(mean_loglik, 0.0, 1.0, 1e-4))


def eta_indicator(spacings) -> float:
    """Distance of the empirical spacing distribution from Wigner-Dyson.

    Uses the empirical CDF at S0 (binning-free):

        eta = | F(S0) - F_WD(S0) | / integral_0^S0 (P_P - P_WD)

    clipped to [0, 1].  Degenerate spacings are excluded first.  eta -> 0 for
    GOE-like samples and -> 1 for Poisson-like ones.  Raises as :func:`fit_brody`.
    """
    return _eta(_checked_spacings(spacings)[0])


def _eta(clean: np.ndarray) -> float:
    """:func:`eta_indicator` of spacings that passed :func:`_checked_spacings`."""
    empirical_cdf = float(np.mean(clean <= S0))
    eta = abs(empirical_cdf - _WD_CDF_S0) / ETA_DENOM
    return float(min(max(eta, 0.0), 1.0))


def spacing_ratios(energies) -> tuple[np.ndarray, int]:
    """Adjacent-spacing ratios r = min(delta, 1/delta) of a raw spectrum.

    Works directly on raw eigenvalues, no unfolding required.  Ratio pairs in
    which either spacing falls below the degeneracy tolerance are dropped;
    their count is returned alongside the ratios.

    Raises
    ------
    TooFewLevels
        If fewer than 3 levels are supplied.
    """
    e = np.asarray(energies, dtype=float)
    if e.size < 3:
        raise TooFewLevels(f"need at least 3 levels, got {e.size}")
    s = np.diff(e)
    if np.any(s < 0):
        raise ValueError("energies must be ascending")
    keep = _nondegenerate(s)
    ok = keep[:-1] & keep[1:]
    n_dropped = int(ok.size - ok.sum())
    delta = s[1:][ok] / s[:-1][ok]
    return np.minimum(delta, 1.0 / delta), n_dropped


def goe_ratio_pdf(r):
    """GOE surmise density of r = min(delta, 1/delta); zero outside [0, 1]."""
    r = np.asarray(r, dtype=float)
    body = (27.0 / 8.0) * 2.0 * (r + r * r) / (1.0 + r + r * r) ** 2.5
    return np.where((r >= 0) & (r <= 1), body, 0.0)


def poisson_ratio_pdf(r):
    """Poisson density 2/(1+r)^2 of r = min(delta, 1/delta); zero outside [0, 1]."""
    r = np.asarray(r, dtype=float)
    body = 2.0 / (1.0 + r) ** 2
    return np.where((r >= 0) & (r <= 1), body, 0.0)


def mean_ratio(ratios) -> float:
    """Arithmetic mean of the spacing ratios (empirical <r>).

    Reference values: 2 ln 2 - 1 ~ 0.386 (Poisson) and 4 - 2 sqrt(3) ~ 0.536
    (GOE surmise).
    """
    r = np.asarray(ratios, dtype=float)
    if r.size == 0:
        raise EmptyInput("cannot average an empty ratio list")
    return float(r.mean())


#: Indicator names accepted by chaos_boundary; eta crosses downward, the rest upward.
BOUNDARY_INDICATORS = ("eta", "beta", "mean_r")


@dataclass(frozen=True)
class BoundaryPoint:
    """Chaos-boundary location for one kappa: smallest lambda that stays chaotic."""

    kappa: float
    lambda_star: float | None
    crossed: bool


def chaos_boundary(
    results: Iterable[tuple[float, float, float]],
    indicator: str,
    threshold: float,
) -> list[BoundaryPoint]:
    """Extract the boundary curve lambda*(kappa) from grid results.

    ``results`` holds (kappa, lambda, value) triples on a rectangular grid.
    For each kappa the boundary is the smallest grid lambda at which the
    indicator satisfies its threshold (eta: value <= threshold; beta, mean_r:
    value >= threshold) and keeps satisfying it for all larger grid lambda.
    Columns that never settle above(/below) threshold are marked not crossed.
    NaN values never satisfy the threshold.

    Raises
    ------
    NonRectangularGrid
        If the lambda grid differs between kappa values or contains duplicates.
    """
    if indicator not in BOUNDARY_INDICATORS:
        raise ValueError(f"indicator must be one of {BOUNDARY_INDICATORS}, got {indicator!r}")
    columns: dict[float, list[tuple[float, float]]] = {}
    for kappa, lam, value in results:
        columns.setdefault(float(kappa), []).append((float(lam), float(value)))

    lambda_template: Sequence[float] | None = None
    out = []
    for kappa in sorted(columns):
        col = sorted(columns[kappa])
        lams = [lv[0] for lv in col]
        if len(set(lams)) != len(lams):
            raise NonRectangularGrid(f"duplicate lambda values at kappa={kappa}")
        if lambda_template is None:
            lambda_template = lams
        elif lams != lambda_template:
            raise NonRectangularGrid(
                f"lambda grid at kappa={kappa} differs from the first column"
            )
        values = np.array([lv[1] for lv in col])
        if indicator == "eta":
            ok = values <= threshold
        else:
            ok = values >= threshold
        ok &= ~np.isnan(values)
        # Smallest index from which the condition holds through the last lambda.
        bad = np.nonzero(~ok)[0]
        start = int(bad[-1]) + 1 if bad.size else 0
        if start >= len(lams):
            out.append(BoundaryPoint(kappa=kappa, lambda_star=None, crossed=False))
        else:
            out.append(BoundaryPoint(kappa=kappa, lambda_star=lams[start], crossed=True))
    return out
