"""Diagonalization, energy-window filtering and Fock-tail weights.

Eigenvalues come from the band storage of H (LAPACK ``sbevd``, O(D^2 b) work and
O(D b) memory for half-bandwidth b, against O(D^3) and 8 D^2 bytes dense).  The
eigenvectors of the windowed states come from banded inverse iteration
(:func:`windowed_eigenvectors`, LAPACK ``gbtrf``/``gbtrs``, O(D b^2) work and
O(D b) memory per state), so neither route makes a D x D matrix.  ``dsbevd`` comes from
the OpenBLAS numpy maps at import where it exports one (:func:`_dsbevd`), and
``dgbtrf``/``dgbtrs`` from ``scipy.linalg.cython_lapack`` (:func:`_lapack`); all three
are called through ctypes functions that release the GIL, so a sweep's pool threads
overlap in them (not in Python or numpy).  Every inverse iteration runs one thread per
slice of the windowed states, and cuts as many slices as the process may use cores
(:func:`available_cores`, its CPU affinity, so ``taskset`` is the one way to limit
them); all calls share one slot per core, so a lone solve uses every core and concurrent
ones share them.  A slice is cut only between clusters of close levels: the vectors are
the same bytes on any cores.  The dense divide-and-conquer ``evd``
(``diagonalize(h, want_vectors=True)``) stays as the oracle the banded routes are tested
against.

Every E/N window in the package is cut by ``_window_mask``: the analysis window
here and in ``sweep.compute_point_data``, and the mid window in
``eigenstate_stats.collect_coefficients``.  ``tail_weights`` gives each windowed
state's weight on the top Fock layers, the truncation diagnostic behind a sweep
row's ``converged_fraction``.  An eigenvalue-only process maps numpy's OpenBLAS only; the
first vector solve loads ``cython_lapack`` alone (no ``scipy.linalg``) before its D x k array.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache

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
#: The band solve's eigenvalues must give tr H and ||H||_F^2 as their sum and sum of squares
#: to within this many units of D eps max|E| (max|E|^2 for the squares).  Grids at j = 5, 6
#: and 8 and two j = 16 points came within 2.4 units; one level moved by 1e-6 max|E| misses
#: by 5e5 units or more.
TRACE_TOL = 100
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

    Uses LAPACK.  Eigenvalues alone come from the symmetric-band driver ``dsbevd``,
    the routine ``scipy.linalg.eig_banded`` calls, here numpy's OpenBLAS build of it
    where numpy exports one, else SciPy's (:func:`_dsbevd`; the same bits), without the
    GIL, on a copy of ``h.band``, which holds the whole matrix; no dense matrix is made,
    so this route needs O(D b) memory at any D, and an O(D b) check certifies its
    eigenvalues against tr H and ||H||_F^2 (``TRACE_TOL``).  With vectors, the dense
    divide-and-conquer ``evd`` runs on a fresh ``h.entries`` and overwrites it with the
    eigenvectors, which come back in Fortran order (about 3 x 8 D^2 bytes at the peak
    with LAPACK's workspace).  That route is the test oracle of :func:`windowed_eigenvectors`,
    which the pipeline uses.  Both return the eigenvalues ascending, so their order
    is kept as it comes.

    Raises
    ------
    AllocationTooLarge
        With vectors, if D exceeds ``model.MAX_DENSE_DIM``.
    ConvergenceFailure
        If the LAPACK routine does not converge (not expected for this model), or the
        band solve's eigenvalues fail their certificate.
    RuntimeError
        If LAPACK reports an illegal argument (``info < 0``).
    """
    if not want_vectors:
        dsbevd, integer, lengths = _dsbevd()
        ab = np.array(h.band, dtype=float, order="F")  # dsbevd overwrites its band
        w, z, work = np.empty(h.dim), np.empty(1), np.empty(max(1, 2 * h.dim))
        iwork, info = np.empty(1, integer), np.zeros(1, integer)
        ints = np.array([h.dim, ab.shape[0] - 1, ab.shape[0], 1, work.size], integer)
        n, kd, ldab, one, lwork = (ints.ctypes.data + k * ints.itemsize for k in range(5))
        flags = np.frombuffer(b"NL", np.uint8)  # jobz: eigenvalues only; uplo: lower band
        dsbevd(flags.ctypes.data, flags.ctypes.data + 1, n, kd, ab.ctypes.data, ldab,
               w.ctypes.data, z.ctypes.data, one, work.ctypes.data, lwork,
               iwork.ctypes.data, one, info.ctypes.data, *lengths)
        _check_arguments(info, "dsbevd")
        if info[0] > 0:
            raise ConvergenceFailure(f"eigensolver failed: dsbevd info {info[0]}")
        _certify(w, h.band)
        return EigenDecomposition(energies=w, vectors=None, basis=h.basis)
    from scipy.linalg import eigh
    try:
        w, v = eigh(h.entries, driver="evd", overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    _fix_phases(v)
    return EigenDecomposition(energies=w, vectors=v, basis=h.basis)


def _certify(energies: np.ndarray, band: np.ndarray) -> None:
    """Check the eigenvalues of the lower band ``band`` against two O(D b) invariants of H:
    sum E_i = tr H to within ``TRACE_TOL`` D eps max|E|, and sum E_i^2 = ||H||_F^2 (each
    off-diagonal counted twice) to within ``TRACE_TOL`` D eps max|E|^2.  Compared with
    ``<=``, so a zero H passes and a NaN fails."""
    scale = float(np.max(np.abs(energies)))
    bound = TRACE_TOL * energies.size * np.finfo(float).eps * scale
    squares = np.einsum("ij,ij->i", band, band)  # per diagonal; einsum makes no D x b temporary
    trace = abs(energies.sum() - band[0].sum())
    frobenius = abs(np.einsum("i,i", energies, energies) - squares[0] - 2 * squares[1:].sum())
    if not (trace <= bound and frobenius <= bound * scale):
        raise ConvergenceFailure(
            f"eigensolver failed: dsbevd eigenvalues miss tr H by {trace:.3g} (bound "
            f"{bound:.3g}) or ||H||_F^2 by {frobenius:.3g} (bound {bound * scale:.3g})")


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_solve_slots = threading.Semaphore(available_cores())  # one per core, for every call's slices

_load_lock = threading.Lock()  # a second thread executing a module sees it half made or raises


@cache
def _scipy_compiled(module: str, public: str, *names: str) -> tuple:
    """``names`` of ``scipy.<module>``, from ``sys.modules`` or loaded from its file without
    the ``scipy.linalg`` or ``scipy.special`` init (0.3 s and 30 MB for the two, mostly the
    array-API layer); from the module ``public`` if the file or a name is missing (older
    SciPy).  They are the objects SciPy's public names are bound to, so every bit matches."""
    import scipy
    full = f"scipy.{module}"
    with _load_lock:
        found = sys.modules.get(full)
        where = [os.path.join(scipy.__path__[0], module.partition(".")[0])]
        spec = None if found else importlib.machinery.PathFinder.find_spec(full, where)
        if spec is not None:
            found = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(found)
            sys.modules[full] = found  # as an import would: later imports reuse it
        if not all(hasattr(found, name) for name in names):
            found = importlib.import_module(public)
    return tuple(getattr(found, name) for name in names)


@cache
def _lapack() -> tuple:
    """(dgbtrf, dgbtrs, dsbevd) of ``scipy.linalg.cython_lapack``, loaded alone at the
    first vector solve, as ctypes functions of their capsules that take every argument by
    address and release the GIL for the length of the call, so that threads solve at once.
    scipy's f2py wrappers call the same routines but hold the GIL.  Inverse iteration stays
    here although numpy's OpenBLAS gives the same bits: with numpy 2.4 and SciPy 1.17 its
    ``dgbtrf`` took 7-8% longer per factorization at full scale (b = 17), where a cold point
    makes 1,895 of them; this ``dsbevd`` serves :func:`_dsbevd` only where numpy exports none."""
    import ctypes
    capi, = _scipy_compiled("linalg.cython_lapack", "scipy.linalg.cython_lapack", "__pyx_capi__")
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def routine(symbol: str, n_args: int):
        capsule = capi[symbol]
        prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)
        return prototype(pointer(capsule, name(capsule)))

    return routine("dgbtrf", 8), routine("dgbtrs", 11), routine("dsbevd", 14)


@cache
def _dsbevd() -> tuple:
    """(dsbevd, its integer type, its trailing arguments) for the eigenvalue-only solve.

    numpy's linalg extension is linked against the OpenBLAS numpy maps at import, and a
    ``ctypes.CDLL`` of the extension's loaded file finds that library's ILP64 ``dsbevd``
    (``scipy_dsbevd_64_`` in numpy's wheels, else ``dsbevd_64_``) in its dependency scope,
    so the lookup maps nothing.  That routine takes 64-bit integers, and gfortran's hidden
    length (a ``size_t`` 1) of each of ``jobz`` and ``uplo`` last; it is a CDLL function,
    so it releases the GIL for the length of the call.  Where numpy has no such symbol
    (MKL, Accelerate, Windows, numpy < 2) it is the pointer of :func:`_lapack`, with
    ``np.intc`` and no trailing arguments.  Both are ``dsbevd`` and give the same bits."""
    import ctypes
    try:
        numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        numpy_lapack = None
    for symbol in ("scipy_dsbevd_64_", "dsbevd_64_"):
        routine = getattr(numpy_lapack, symbol, None)
        if routine is not None:
            routine.restype = None
            routine.argtypes = [ctypes.c_void_p] * 14 + [ctypes.c_size_t] * 2
            return routine, np.int64, (1, 1)
    return _lapack()[2], np.intc, ()


def _check_arguments(info: np.ndarray, routine: str) -> None:
    if info[0] < 0:
        raise RuntimeError(f"LAPACK {routine}: argument {-info[0]} has an illegal value")


def _slice_bounds(windowed: np.ndarray, tol: float, slices: int) -> np.ndarray:
    """Bounds [0, ..., len] of at most ``slices`` nonempty slices of the ascending
    ``windowed`` levels, about equal in size.  A slice starts only where a level lies
    more than ``tol`` above the one before it, so no cluster is split."""
    slices = max(1, min(slices, windowed.size))
    allowed = np.append(np.nonzero(np.diff(windowed) > tol)[0] + 1, windowed.size)
    targets = np.arange(1, slices) * windowed.size // slices
    return np.unique(np.concatenate(([0], allowed[np.searchsorted(allowed, targets)],
                                     [windowed.size])))


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
    (Dhillon, BIT 38 (1998) 685).

    The states are cut into at most one contiguous slice per core the process may run
    on (:func:`available_cores`), only at cluster boundaries, as ScaLAPACK's
    ``PxSTEIN`` splits them.  Each slice runs in its own thread, which holds one of the
    process's ``_solve_slots`` (one per core) while it makes and uses its own LU buffer
    and right-hand side and calls LAPACK through :func:`_lapack` without the GIL, so
    concurrent calls (a sweep's pool threads) never run more slices than cores.  A
    state's shift, start vector and cluster mates do not depend on the cut, so neither
    do the bytes returned.  Nothing D x D is made: a slice's factorization takes
    (3b + 1) D doubles.  Phases are fixed as in :func:`diagonalize`.  A diagonal H
    (bandwidth 0) has exact ties; its vectors are the unit vectors, ties in basis order.

    Raises
    ------
    ConvergenceFailure
        If a state's residual is not certified after ``MAX_SOLVES`` solves.
    RuntimeError
        If LAPACK reports an illegal argument (``info < 0``).
    """
    dgbtrf, dgbtrs, _ = _lapack()  # loads cython_lapack, if it must, before the D x k array
    dim, b = band.shape[1], band.shape[0] - 1
    vectors = np.zeros((dim, indices.size), order="F")
    if b == 0:
        order = np.argsort(band[0], kind="stable")
        vectors[order[indices], np.arange(indices.size)] = 1.0
        return vectors
    scale = float(np.max(np.abs(energies)))
    tiny_pivot = np.finfo(float).eps * scale
    tol = CLUSTER_TOL * scale
    # H in dgbtrf's layout, AB[2b + r - c, c] = H[r, c]; rows 0..b-1 take the fill-in.
    general = np.zeros((3 * b + 1, dim), order="F")
    for d, row in enumerate(band):
        general[2 * b + d, : dim - d] = row[: dim - d]
        general[2 * b - d, d:] = row[: dim - d]
    start = np.random.default_rng(START_SEED).standard_normal(dim)
    start /= np.linalg.norm(start)
    gaps = np.diff(energies, prepend=-np.inf, append=np.inf)
    close = np.minimum(gaps[:-1], gaps[1:]) <= tol  # a neighbor this close
    windowed = energies[indices]
    stop = threading.Event()  # set once the caller stops waiting: a slice failed or Ctrl-C

    def solve(begin: int, end: int) -> None:
        """Columns begin..end-1 of ``vectors``; ``begin`` starts a cluster."""
        with _solve_slots:  # waits, before making any buffer, while every core runs a slice
            lu, x = np.empty_like(general), np.empty(dim)
            piv, info = np.empty(dim, np.intc), np.zeros(1, np.intc)
            ints = np.array([dim, b, 3 * b + 1, 1], np.intc)  # n, kl = ku, ldab, nrhs
            trans = np.frombuffer(b"N", np.uint8)
            n, kl, ldab, nrhs = (ints.ctypes.data + k * ints.itemsize for k in range(4))
            # The arrays above stay referenced until this function returns.
            factor = (n, n, kl, kl, lu.ctypes.data, ldab, piv.ctypes.data, info.ctypes.data)
            solve_x = (trans.ctypes.data, n, kl, kl, nrhs, lu.ctypes.data, ldab,
                       piv.ctypes.data, x.ctypes.data, n, info.ctypes.data)
            first = begin  # column of the current cluster's first state
            for col in range(begin, end):
                if stop.is_set():
                    return
                if col > begin and windowed[col] - windowed[col - 1] > tol:
                    first = col
                i = indices[col]
                np.copyto(lu, general)
                lu[2 * b] -= energies[i]
                dgbtrf(*factor)
                _check_arguments(info, "dgbtrf")
                if info[0] > 0:  # E_i is exact: perturb U's zero pivot rather than divide by it
                    diag = lu[2 * b]
                    diag[diag == 0.0] = tiny_pivot
                np.copyto(x, start)
                for solves in range(1, MAX_SOLVES + 1):
                    dgbtrs(*solve_x)
                    _check_arguments(info, "dgbtrs")
                    if first < col:
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

    from concurrent.futures import ThreadPoolExecutor  # an eigenvalue-only run never loads it

    bounds = _slice_bounds(windowed, tol, available_cores())
    with ThreadPoolExecutor(max(1, bounds.size - 1)) as pool:
        try:
            for _ in pool.map(solve, bounds[:-1], bounds[1:]):
                pass
        finally:
            stop.set()
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

