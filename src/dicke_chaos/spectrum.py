"""Diagonalization, energy-window filtering and Fock-tail weights.

Eigenvalues come from the band storage of H (LAPACK ``sbevd``, O(D^2 b) work and
O(D b) memory for half-bandwidth b, against O(D^3) and 8 D^2 bytes dense).  The
eigenvectors of the windowed states come from banded inverse iteration
(:func:`windowed_eigenvectors`, LAPACK ``gbtrf``/``gbtrs``, O(D b^2) work and
O(D b) memory per state), so neither route makes a D x D matrix.  The dense
divide-and-conquer ``evd`` (``diagonalize(h, want_vectors=True)``) stays as the
oracle the banded routes are tested against.

Every E/N window in the package is cut by ``_window_mask``: the analysis window
here and in ``sweep.compute_point_data``, and the mid window in
``eigenstate_stats.collect_coefficients``.  ``tail_weights`` gives each windowed
state's weight on the top Fock layers, the truncation diagnostic behind a sweep
row's ``converged_fraction``.  ``scipy.linalg`` is imported at the first solve, so a
process that only reads cached spectra never loads LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EmptyWindow, MissingVectors
from .model import HamiltonianMatrix, ModelParams

#: Number of top Fock layers inspected by the truncation diagnostic.
DEFAULT_TAIL_WIDTH = 20
#: A state is converged when its probability weight in the tail stays below this.
DEFAULT_TAIL_TOL = 1e-6
#: The pipeline's LAPACK drivers: banded eigenvalues, plus inverse iteration for the
#: windowed vectors.  The cache key names them, so entries of an earlier solver (the
#: dense ``evd``, say) miss.
SOLVER = "sbevd+gbtrs"
#: Inverse iteration accepts a solve once it certifies a residual below this times max|E|.
RESIDUAL_TOL = 1e-12
#: Adjacent eigenvalues closer than this times max|E| are reorthogonalized as a cluster.
CLUSTER_TOL = 1e-5
#: Solves per state before inverse iteration gives up.
MAX_SOLVES = 4
#: Seed of the inverse-iteration start vector, one for every state and point.
START_SEED = 0


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
    3 x 8 D^2 bytes at the peak with LAPACK's workspace).  That route is the
    test oracle of :func:`windowed_eigenvectors`, which the pipeline uses.  Both
    return the eigenvalues ascending, so their order is kept as it comes.

    Raises
    ------
    AllocationTooLarge
        With vectors, if D exceeds ``model.MAX_DENSE_DIM``.
    ConvergenceFailure
        If the LAPACK routine does not converge (not expected for this model).
    """
    from scipy.linalg import eig_banded, eigh
    try:
        if want_vectors:
            w, v = eigh(h.entries, driver="evd", overwrite_a=True)
            _fix_phases(v)
        else:
            w = eig_banded(h.band, lower=True, eigvals_only=True)
            v = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=w, vectors=v, basis=h.basis)


def windowed_eigenvectors(band: np.ndarray, energies: np.ndarray,
                          indices: np.ndarray) -> np.ndarray:
    """Eigenvectors of the states ``indices`` by banded inverse iteration, D x k.

    ``band`` is H in LAPACK lower band storage (``HamiltonianMatrix.band``),
    ``energies`` its ascending eigenvalues from the band solve and ``indices``
    ascending positions in them.  Each state costs one ``dgbtrf`` LU factorization
    of H - E_i I in general band layout and, from one seeded start vector shared by
    all states, one ``dgbtrs`` solve, or more until the growth of the solution
    certifies a residual of at most ``RESIDUAL_TOL`` max|E|.  A residual fixes a
    vector only to residual / gap, so a state with a neighbor closer than
    ``CLUSTER_TOL`` max|E| always takes a second solve; runs of such states form a
    cluster, and each vector is reorthogonalized against the cluster's earlier ones
    (Dhillon, BIT 38 (1998) 685).  Nothing D x D is made: the factorization takes
    (3b + 1) D doubles.  Phases are fixed as in :func:`diagonalize`.  A diagonal H
    (bandwidth 0) has exact ties; its vectors are the unit vectors, ties in basis
    order.

    Raises
    ------
    ConvergenceFailure
        If a state's residual is not certified after ``MAX_SOLVES`` solves.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    dim, b = band.shape[1], band.shape[0] - 1
    vectors = np.zeros((dim, indices.size), order="F")
    if b == 0:
        order = np.argsort(band[0], kind="stable")
        vectors[order[indices], np.arange(indices.size)] = 1.0
        return vectors
    scale = float(np.max(np.abs(energies)))
    tiny_pivot = np.finfo(float).eps * scale
    # H in dgbtrf's layout, AB[2b + r - c, c] = H[r, c]; rows 0..b-1 take the fill-in.
    general = np.zeros((3 * b + 1, dim), order="F")
    for d, row in enumerate(band):
        general[2 * b + d, : dim - d] = row[: dim - d]
        general[2 * b - d, d:] = row[: dim - d]
    start = np.random.default_rng(START_SEED).standard_normal(dim)
    start /= np.linalg.norm(start)
    gaps = np.diff(energies, prepend=-np.inf, append=np.inf)
    close = np.minimum(gaps[:-1], gaps[1:]) <= CLUSTER_TOL * scale  # a neighbor this close
    lu = np.empty_like(general)
    first = 0  # column of the current cluster's first state
    for col, i in enumerate(indices):
        if col and energies[i] - energies[indices[col - 1]] > CLUSTER_TOL * scale:
            first = col
        np.copyto(lu, general)
        lu[2 * b] -= energies[i]
        lu, piv, _ = dgbtrf(lu, b, b, overwrite_ab=True)
        diag = lu[2 * b]
        diag[diag == 0.0] = tiny_pivot  # E_i is exact: a zero pivot of U would divide by 0
        x = start
        for solves in range(1, MAX_SOLVES + 1):
            x, _ = dgbtrs(lu, b, b, x, piv)
            mates = vectors[:, first:col]
            x -= mates @ (mates.T @ x)
            norm = np.linalg.norm(x)
            x /= norm
            if norm * RESIDUAL_TOL * scale >= 1.0 and solves > close[i]:
                break
        else:
            raise ConvergenceFailure(f"inverse iteration did not converge for state {i}")
        _fix_phases(x[:, None])  # column by column: no D x k temporary
        vectors[:, col] = x
    return vectors


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

