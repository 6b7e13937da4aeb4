"""Eigenstate-coefficient statistics: P(c), its GOE Gaussian reference and D_KL.

Eigenstates of a chaotic real symmetric Hamiltonian behave like GOE
eigenvectors, whose components in any fixed basis are asymptotically Gaussian
with zero mean and variance 1/D.  The Kullback-Leibler divergence between the
pooled empirical coefficient distribution of mid-spectrum states and that
Gaussian quantifies the distance from full chaos.  P(s), P(r) and P(c) are each a
:class:`Histogram`, bin counts from which the edges and densities derive.
The Gaussian CDF is SciPy's compiled ufunc, loaded at the first D_KL without ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, EmptySample, EmptyWindow, MissingVectors
from .spectrum import SpectralDataset, _scipy_compiled, _window_mask

DEFAULT_BINS = 201
#: Fewest histogram bins :func:`kl_divergence` accepts.
MIN_BINS = 10
#: Narrowest coefficient range [c_min, c_max] D_KL accepts.
MIN_SPAN = 1e-12


@dataclass(frozen=True)
class Histogram:
    """Counts in equal-width bins over [lo, hi]; the edges and densities derive from them."""

    counts: np.ndarray
    lo: float
    hi: float

    @property
    def edges(self) -> np.ndarray:
        """np.histogram's own edges for this range: stored and fresh counts give the same bits."""
        return np.histogram_bin_edges(np.empty(0), self.counts.size, (self.lo, self.hi))

    @property
    def densities(self) -> np.ndarray:
        """Per-bin densities, normalized so that sum(density * width) = 1; zeros without counts."""
        total = self.counts.sum()
        return self.counts / (total * np.diff(self.edges)) if total else np.zeros(self.counts.size)


def build_histogram(values, bins: int, value_range: tuple[float, float] | None = None) -> Histogram:
    """np.histogram of the values, over ``value_range`` or else the values' own span.

    An empty sample needs an explicit range and yields all-zero densities.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0 and value_range is None:
        raise EmptySample("cannot infer a histogram range from an empty sample")
    counts, edges = np.histogram(v, bins=bins, range=value_range)
    return Histogram(counts, float(edges[0]), float(edges[-1]))


@dataclass(frozen=True)
class CoefficientSample:
    """Pooled eigenstate components over all retained states and basis indices."""

    values: np.ndarray
    dim: int
    n_states: int
    c_min: float
    c_max: float

    @classmethod
    def pool(cls, values: np.ndarray, dim: int) -> CoefficientSample:
        """Sample of the pooled states' dim-component columns, laid end to end (non-empty)."""
        return cls(values, dim, values.size // dim, float(values.min()), float(values.max()))


@dataclass(frozen=True)
class CoefficientHistogram(Histogram):
    """A sample's counts over [lo, hi] = [c_min, c_max]: all D_KL and P(c) read."""

    dim: int
    n_states: int

    @classmethod
    def of(cls, sample: CoefficientSample, bins: int) -> CoefficientHistogram:
        """Bin the sample.  A range below MIN_SPAN, which D_KL refuses before reading any
        count, keeps zero counts: np.histogram cannot split a few ulps into bins."""
        if bins < MIN_BINS:
            raise ValueError(f"bins must be >= {MIN_BINS}, got {bins}")
        span = (sample.c_min, sample.c_max)
        counts = (np.histogram(sample.values, bins, span)[0] if span[1] - span[0] >= MIN_SPAN
                  else np.zeros(bins))
        return cls(counts, *span, sample.dim, sample.n_states)

    @classmethod
    def from_payload(cls, payload: np.ndarray, dim: int) -> CoefficientHistogram:
        return cls(payload[3:], float(payload[1]), float(payload[2]), dim, int(payload[0]))

    @property
    def payload(self) -> np.ndarray:  # the mid_histogram cache entry
        return np.concatenate(([self.n_states, self.lo, self.hi], self.counts))


def collect_coefficients(ds: SpectralDataset) -> CoefficientSample:
    """Pool all components of the eigenstates inside the dataset's mid_window (E/N).

    Every selected state contributes its full component column (phases already
    fixed upstream), so each state adds exactly dim values.

    Raises
    ------
    MissingVectors
        If the dataset carries no eigenvector coefficients.
    EmptyWindow
        If no retained state falls inside the window.
    """
    if ds.coefficients is None:
        raise MissingVectors("dataset carries no eigenvector coefficients")
    window = ds.params.mid_window
    sel = _window_mask(ds.energies, ds.params.n_atoms, window)
    if not sel.any():
        raise EmptyWindow(f"no retained state with E/N in [{window[0]}, {window[1]}]")
    cols = ds.coefficients[:, sel]
    return CoefficientSample.pool(np.ascontiguousarray(cols.T).ravel(), ds.coefficients.shape[0])


def goe_coefficient_pdf(c, dim: int):
    """GOE reference density sqrt(D / 2 pi) exp(-D c^2 / 2) for components."""
    c = np.asarray(c, dtype=float)
    return np.sqrt(dim / (2.0 * np.pi)) * np.exp(-dim * c * c / 2.0)


def _log_gaussian_bin_masses(edges: np.ndarray, dim: int) -> np.ndarray:
    """ln of the GOE-Gaussian probability mass per bin, stable in far tails.

    Direct CDF differences underflow once |c| sqrt(D) exceeds ~38, so a bin that
    lies entirely in one tail is evaluated through the log CDF instead.  An
    upper-tail bin [z_lo, z_hi] has the mass of the lower-tail bin [-z_hi, -z_lo],
    so each bin becomes [a, b], and it lies in a tail exactly when b <= 0.
    """
    log_ndtr, ndtr = _scipy_compiled("special._special_ufuncs", "scipy.special", "log_ndtr", "ndtr")
    z = edges * np.sqrt(float(dim))
    z_lo, z_hi = z[:-1], z[1:]
    upper = z_lo >= 0.0
    a, b = np.where(upper, -z_hi, z_lo), np.where(upper, -z_lo, z_hi)
    with np.errstate(divide="ignore"):
        la, lb = log_ndtr(a), log_ndtr(b)
        return np.where(b <= 0.0, lb + np.log1p(-np.exp(la - lb)), np.log(ndtr(b) - ndtr(a)))


def binned_kl_divergence(hist: CoefficientHistogram) -> float:
    """D_KL of binned coefficients from GOE.

    The reference mass per bin is integrated exactly from the Gaussian CDF.  With
    p_i the empirical and q_i the reference bin mass,

        D_KL = sum over occupied bins of p_i ln(p_i / q_i)

    and empty bins contribute zero (the p ln p -> 0 limit).  Non-negative, and
    zero only when the distributions coincide.

    Raises
    ------
    DegenerateRange
        If c_max - c_min is below 1e-12.
    """
    if hist.hi - hist.lo < MIN_SPAN:
        raise DegenerateRange("coefficient range collapsed to a point")
    p = hist.counts / hist.counts.sum()
    log_q = _log_gaussian_bin_masses(hist.edges, hist.dim)
    occupied = p > 0
    return float(np.sum(p[occupied] * (np.log(p[occupied]) - log_q[occupied])))


def kl_divergence(sample: CoefficientSample, bins: int = DEFAULT_BINS) -> float:
    """Kullback-Leibler divergence of the coefficient distribution from GOE, by
    :func:`binned_kl_divergence` on the sample's :class:`CoefficientHistogram`.

    Raises
    ------
    EmptySample
        If the sample has no values.
    DegenerateRange
        If c_max - c_min is below 1e-12.
    """
    if sample.values.size == 0:
        raise EmptySample("coefficient sample is empty")
    return binned_kl_divergence(CoefficientHistogram.of(sample, bins))
