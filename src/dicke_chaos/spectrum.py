"""Diagonalization, energy-window filtering and Fock-cutoff convergence.

Eigenvalues alone come from the band storage of H (LAPACK ``sbevd``, O(D^2 b)
work and O(D b) memory for half-bandwidth b, against O(D^3) and 8 D^2 bytes
dense); eigenvectors come from the dense divide-and-conquer ``evd``, which
overwrites the dense copy of H it is given.

Every E/N window in the package is cut by ``_window_mask``: the analysis window
here and the mid window in ``eigenstate_stats.collect_coefficients``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, EmptyWindow, MissingVectors
from .model import HamiltonianMatrix, ModelParams

#: Number of top Fock layers inspected by the truncation diagnostic.
DEFAULT_TAIL_WIDTH = 20
#: A state is converged when its probability weight in the tail stays below this.
DEFAULT_TAIL_TOL = 1e-6
#: LAPACK drivers of the two solves: banded eigenvalues only, dense with vectors.  Their
#: eigenvalues differ in the last bits, so the cache key names the driver.
VALUES_DRIVER, VECTORS_DRIVER = "sbevd", "evd"


@dataclass
class EigenDecomposition:
    """Full spectrum of one Hamiltonian block, eigenvalues ascending.

    ``vectors`` (when requested) holds orthonormal eigenvectors as columns in
    basis order, with the phase of each column fixed so that its
    largest-magnitude component is positive (ties broken by lowest basis
    index).  Exact eigenvalue ties keep the solver's original order.
    """

    energies: np.ndarray
    vectors: np.ndarray | None
    basis: np.recarray


def _fix_phases(vectors: np.ndarray) -> None:
    """Flip, in place, each column whose largest-magnitude component is negative."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs


def diagonalize(h: HamiltonianMatrix, want_vectors: bool = False) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric Hamiltonian block.

    Uses LAPACK via scipy.  Eigenvalues alone come from the symmetric-band
    driver ``sbevd`` on ``h.band``, which holds the whole matrix; no dense
    matrix is made, so this route needs O(D b) memory at any D.  With vectors,
    the dense divide-and-conquer ``evd`` runs on a fresh ``h.entries`` and
    overwrites it with the eigenvectors, which come back in Fortran order (about
    3 x 8 D^2 bytes at the peak with LAPACK's workspace).  Both return the
    eigenvalues ascending, so their order is kept as it comes.

    Raises
    ------
    AllocationTooLarge
        With vectors, if D exceeds ``model.MAX_DENSE_DIM``.
    ConvergenceFailure
        If the LAPACK routine does not converge (not expected for this model).
    """
    try:
        if want_vectors:
            w, v = scipy.linalg.eigh(h.entries, driver=VECTORS_DRIVER, overwrite_a=True)
            _fix_phases(v)
        else:
            w = scipy.linalg.eig_banded(h.band, lower=True, eigvals_only=True)
            v = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=w, vectors=v, basis=h.basis)


def _window_mask(energies: np.ndarray, n_atoms: int, window: tuple[float, float]) -> np.ndarray:
    """Boolean mask of the energies whose E/N lies in the closed ``window``."""
    lo, hi = window
    scaled = energies / n_atoms
    return (scaled >= lo) & (scaled <= hi)


@dataclass
class SpectralDataset:
    """Eigenpairs restricted to the analysis energy window.

    ``coefficients[nu, k]`` is the component of retained eigenstate k on basis
    state nu (ordering from the originating Hamiltonian block, carried along in
    ``basis``).
    """

    params: ModelParams
    energies: np.ndarray
    coefficients: np.ndarray | None
    window_indices: np.ndarray
    basis: np.recarray


def filter_energy_window(eig: EigenDecomposition, params: ModelParams) -> SpectralDataset:
    """Retain the states with E/N inside the closed analysis window.

    Raises
    ------
    EmptyWindow
        If no eigenvalue falls inside; the window or the cutoff is mis-set.
    """
    sel = _window_mask(eig.energies, params.n_atoms, params.energy_window)
    if not sel.any():
        lo, hi = params.energy_window
        n = params.n_atoms
        raise EmptyWindow(
            f"no eigenvalue with E/N in [{lo}, {hi}] "
            f"(spectrum spans [{eig.energies.min() / n:.4g}, {eig.energies.max() / n:.4g}])"
        )
    idx = np.nonzero(sel)[0]
    coeff = eig.vectors[:, idx] if eig.vectors is not None else None
    return SpectralDataset(
        params=params,
        energies=eig.energies[idx],
        coefficients=coeff,
        window_indices=idx,
        basis=eig.basis,
    )


def tail_weights(ds: SpectralDataset, tail_width: int = DEFAULT_TAIL_WIDTH) -> np.ndarray:
    """Per-retained-state probability weight on the top ``tail_width`` Fock layers."""
    if ds.coefficients is None:
        raise MissingVectors("dataset carries no eigenvector coefficients")
    mask = ds.basis.n >= ds.params.n_cutoff - tail_width
    return np.sum(ds.coefficients[mask] ** 2, axis=0)


def check_convergence(
    ds: SpectralDataset,
    tail_width: int = DEFAULT_TAIL_WIDTH,
    tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, float]:
    """Flag each retained state as converged against the Fock truncation.

    A state passes when its weight on the top ``tail_width`` Fock layers is
    below ``tol``.  Returns the flags together with the converged fraction.
    """
    weights = tail_weights(ds, tail_width)
    flags = weights < tol
    return flags, float(flags.mean())
