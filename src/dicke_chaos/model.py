"""Fock-Dicke basis enumeration and Hamiltonian assembly for the extended Dicke model.

The model couples N = 2j two-level atoms to a single cavity mode and adds an
atom-atom interaction (kappa/N) Jz^2.  Working in the product basis
|n> (x) |j, m> of Fock states and collective-spin eigenstates of Jz, the matrix
elements are

    <n',m'|H|n,m> = (n omega + m omega0 + kappa m^2 / N) delta(n',n) delta(m',m)
                    + (lambda/sqrt(N)) [sqrt(n) delta(n',n-1) + sqrt(n+1) delta(n',n+1)]
                      x [sqrt(j(j+1) - m(m+1)) delta(m',m+1)
                         + sqrt(j(j+1) - m(m-1)) delta(m',m-1)]

so every off-diagonal coupling changes n by +-1 and m by +-1 simultaneously.
Since j + m + n changes by 0 or +-2, the parity e^{i pi (j + Jz + a^dag a)}
is conserved and the matrix is block diagonal in the even/odd sectors.

In the n-major basis order every coupling joins Fock layer n to n + 1, so each
block is banded.  :func:`build_hamiltonian` writes it straight into LAPACK
lower band storage, O(D b) memory for half-bandwidth b, and both solves of the
pipeline (eigenvalues, and windowed eigenvectors by inverse iteration) work on
that band.  The dense D x D matrix is made only on demand
(``HamiltonianMatrix.entries``), for the dense oracle solve, and only up to
``MAX_DENSE_DIM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AllocationTooLarge

#: Largest D whose dense matrix ``HamiltonianMatrix.entries`` builds (D^2 doubles ~ 3.2 GB).
MAX_DENSE_DIM = 20_000


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


def check_coupling(name: str, value: float) -> None:
    """ModelParams' rule for ``lambda_`` and ``kappa``, the values sweep grids vary."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical and truncation parameters (hbar = 1, energies in units of omega).

    Attributes
    ----------
    omega : float
        Cavity field frequency, > 0.
    omega0 : float
        Atomic energy gap, > 0.
    lambda_ : float
        Atom-field coupling strength, >= 0.
    kappa : float
        Atom-atom interaction strength, >= 0.
    j : float
        Collective spin, j = N/2; positive integer or half-integer.
    n_cutoff : int
        Fock-space truncation: bosonic occupation runs over 0..n_cutoff.
    energy_window : tuple[float, float]
        Analysis window in E/N units for spectral statistics.
    mid_window : tuple[float, float]
        Mid-spectrum window in E/N units for eigenstate statistics.
    """

    omega: float = 1.0
    omega0: float = 1.0
    lambda_: float = 0.0
    kappa: float = 0.0
    j: float = 16.0
    n_cutoff: int = 320
    energy_window: tuple[float, float] = (0.4, 4.0)
    mid_window: tuple[float, float] = (1.75, 2.25)

    def __post_init__(self) -> None:
        for name in ("omega", "omega0", "lambda_", "kappa", "j", "n_cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        check_coupling("lambda_", self.lambda_)
        check_coupling("kappa", self.kappa)
        twoj = 2.0 * self.j
        if abs(twoj - round(twoj)) > 1e-9 or round(twoj) < 1:
            raise ValueError(f"j must be a positive integer or half-integer, got {self.j}")
        if int(self.n_cutoff) != self.n_cutoff or self.n_cutoff < 0:
            raise ValueError(f"n_cutoff must be a non-negative integer, got {self.n_cutoff}")
        object.__setattr__(self, "n_cutoff", int(self.n_cutoff))  # 20.0 is no array shape
        for name in ("energy_window", "mid_window"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must satisfy lo < hi, got ({lo}, {hi})")

    @property
    def n_atoms(self) -> int:
        """Number of atoms N = 2j."""
        return int(round(2.0 * self.j))


def enumerate_basis(params: ModelParams, sector: Parity | None) -> np.recarray:
    """Enumerate the Fock-Dicke basis of one parity sector as an (n, m) record array.

    Ordering is deterministic: n ascending, then m ascending.  ``sector=None``
    yields the full unprojected basis in the same ordering.  A label is even
    iff j + m + n is even; with m = k - j that is k + n.
    """
    twoj = params.n_atoms
    n, k = np.divmod(np.arange((params.n_cutoff + 1) * (twoj + 1), dtype=np.int64), twoj + 1)
    if sector is not None:
        keep = (n + k) % 2 == (0 if sector is Parity.EVEN else 1)
        n, k = n[keep], k[keep]
    return np.rec.fromarrays((n, k - params.j), dtype=[("n", np.int64), ("m", np.float64)])


def hamiltonian_element(params: ModelParams, bra, ket) -> float:
    """Single matrix element <bra|H|ket> evaluated directly from the selection rule.

    ``bra`` and ``ket`` are any labels with ``.n`` and ``.m``, such as records
    of :func:`enumerate_basis`.  Exactly zero unless bra == ket (in n, m) or
    |n'-n| = 1 and |m'-m| = 1.  Kept scalar and independent of the vectorized
    assembly so the two routes can be checked against each other.
    """
    n_atoms = float(params.n_atoms)
    j = params.j
    dn = bra.n - ket.n
    dm = bra.m - ket.m
    if dn == 0 and dm == 0.0:
        return (
            ket.n * params.omega
            + ket.m * params.omega0
            + params.kappa * ket.m * ket.m / n_atoms
        )
    if abs(dn) == 1 and abs(dm) == 1.0:
        boson = math.sqrt(ket.n) if dn == -1 else math.sqrt(ket.n + 1)
        spin = math.sqrt(j * (j + 1) - ket.m * (ket.m + dm))
        return params.lambda_ / math.sqrt(n_atoms) * boson * spin
    return 0.0


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric Hamiltonian block in LAPACK lower band storage, with its ordered basis.

    ``band[d, i] = H[i + d, i]`` for d = 0..bandwidth; every slot past the end
    of a row (``band[d, dim - d:]``) is 0.  ``bandwidth`` is the exact
    half-bandwidth max |row - column| over the non-zero couplings, so the band
    holds the whole matrix.  It is 0 when the block has no couplings
    (lambda = 0, or a single state).  In the n-major basis order every coupling
    joins layer n to layer n + 1, so it is at most 2j + 2 whatever n_cutoff is
    (17 for the even sector at j = 16, where D = 5297): the block takes
    O(D b) memory.
    """

    band: np.ndarray
    basis: np.recarray

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @property
    def entries(self) -> np.ndarray:
        """A fresh dense symmetric copy of H, D x D in Fortran order (8 D^2 bytes).

        Each access builds a new array, so a solver may overwrite it in place.

        Raises
        ------
        AllocationTooLarge
            If D exceeds ``MAX_DENSE_DIM``, before anything is allocated.
        """
        dim = self.dim
        if dim > MAX_DENSE_DIM:
            raise AllocationTooLarge(
                f"dense matrix of dimension {dim} exceeds cap {MAX_DENSE_DIM}; "
                "reduce n_cutoff or j"
            )
        h = np.zeros((dim, dim), order="F")
        for d, row in enumerate(self.band):
            i = np.arange(dim - d)
            h[i + d, i] = row[: dim - d]
            h[i, i + d] = row[: dim - d]
        return h


def build_hamiltonian(params: ModelParams, sector: Parity | None) -> HamiltonianMatrix:
    """Assemble the Hamiltonian over one parity sector straight into band storage.

    Iterates the selection rule directly (each state has at most four
    couplings): the half-bandwidth is read off the couplings, then each one is
    written once into the lower band, so assembly is O(D) in work and O(D b) in
    memory.  No dense matrix is made; :attr:`HamiltonianMatrix.entries` builds
    one on demand.
    """
    basis = enumerate_basis(params, sector)
    dim = len(basis)
    twoj = params.n_atoms
    n_atoms = float(twoj)
    j = params.j
    nc = params.n_cutoff

    n, m = basis.n, basis.m
    k = np.rint(m + j).astype(np.int64)

    # Index lookup (n, k) -> basis position; -1 marks labels outside the sector.
    pos = np.full((nc + 1, twoj + 1), -1, dtype=np.int64)
    pos[n, k] = np.arange(dim)

    g = params.lambda_ / math.sqrt(n_atoms)
    couplings = []  # (src, dst, value): dst is in layer n + 1, so dst > src
    for dk in (+1, -1):
        tk = k + dk
        ok = (n + 1 <= nc) & (tk >= 0) & (tk <= twoj)
        src = np.nonzero(ok)[0]
        dst = pos[n[src] + 1, tk[src]]
        inside = dst >= 0
        src, dst = src[inside], dst[inside]
        if g != 0.0 and src.size:
            mm = m[src]
            couplings.append(
                (src, dst, g * np.sqrt(n[src] + 1.0) * np.sqrt(j * (j + 1) - mm * (mm + dk)))
            )

    bandwidth = max((int(np.max(dst - src)) for src, dst, _ in couplings), default=0)
    band = np.zeros((bandwidth + 1, dim))
    band[0] = params.omega * n + params.omega0 * m + params.kappa * m * m / n_atoms
    for src, dst, val in couplings:
        band[dst - src, src] = val
    return HamiltonianMatrix(band=band, basis=basis)
