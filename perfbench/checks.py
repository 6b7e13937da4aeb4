"""Output checks that hold for any correct eigensolver, run outside the timed window.

Each check returns a list of problems; an empty list means the output passed.
The spectrum identities sum(E) = tr H and sum(E^2) = ||H||_F^2 hold for dense
and banded solvers alike, so a later solver change does not need new checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from dicke_chaos import ModelParams, Parity, build_hamiltonian, enumerate_basis
from dicke_chaos.spectral_stats import ETA_DENOM

#: Relative tolerance of the trace and Frobenius identities.  Both sides are
#: summed exactly (math.fsum over the non-zero entries of H); what remains is
#: the eigensolver's backward error, ~1e-15 relative for LAPACK.
IDENTITY_RTOL = 1e-10
#: Largest allowed deviation of a mid-window coefficient column from unit norm.
NORM_ATOL = 1e-10

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Allowed distance from the committed reference rows on the default seed.
#: Solvers that differ in the last bits (thread count, LAPACK build) can flip a
#: level across a window edge, a spacing across S0 or a state across the
#: Fock-tail tolerance.  One flip moves n_levels by 1, eta by
#: 1 / (n_levels * ETA_DENOM) (2.4e-3 at D=5297, 9.4e-3 at D=1369; see
#: ETA_FLIPS) and converged_fraction by 1 / n_levels; the Brody fit stops at
#: a 1e-4 bracket.  0.005 absolute covers a few flips, while the regular and
#: chaotic bands differ by 0.1 to 0.5 in every indicator.
REFERENCE_TOL = {
    "dim": 0, "n_levels": 1,
    "beta": 5e-3, "mean_r": 5e-3, "d_kl": 5e-3, "converged_fraction": 5e-3,
}
ETA_FLIPS = 2

UNIT_RANGE = ("eta", "beta", "mean_r", "converged_fraction")


def sector_dim(params: ModelParams) -> int:
    return len(enumerate_basis(params, Parity.EVEN))


def h_invariants(params: ModelParams) -> tuple[int, float, float]:
    """Dimension, trace and squared Frobenius norm of H, summed exactly."""
    h = build_hamiltonian(params, Parity.EVEN).entries
    nonzero = h[h != 0.0]
    return h.shape[0], math.fsum(np.diag(h)), math.fsum(nonzero * nonzero)


def spectrum_problems(energies: np.ndarray, invariants: tuple[int, float, float]) -> list[str]:
    """Check the eigenvalue count, sum and sum of squares against H's invariants."""
    dim, trace, frob2 = invariants
    if energies.size != dim:
        return [f"{energies.size} eigenvalues for D={dim}"]
    problems = []
    s1 = math.fsum(energies)
    s2 = math.fsum(energies * energies)
    if not abs(s1 - trace) <= IDENTITY_RTOL * math.fsum(np.abs(energies)):
        problems.append(f"sum(E)={s1!r} differs from tr H={trace!r}")
    if not abs(s2 - frob2) <= IDENTITY_RTOL * frob2:
        problems.append(f"sum(E^2)={s2!r} differs from ||H||_F^2={frob2!r}")
    return problems


def coefficient_problems(mid: np.ndarray, dim: int) -> list[str]:
    """Pooled mid-window components must form whole unit-norm columns."""
    if mid.size == 0 or mid.size % dim:
        return [f"{mid.size} pooled coefficients is not a positive multiple of D={dim}"]
    norms = np.sqrt(np.sum(mid.reshape(-1, dim) ** 2, axis=1))
    worst = float(np.max(np.abs(norms - 1.0)))
    return [] if worst <= NORM_ATOL else [f"coefficient column norm off by {worst:.3g}"]


def row_problems(row: dict, dim: int) -> list[str]:
    """The row carries no error and every indicator lies in its physical range."""
    problems = []
    if row.get("error"):
        problems.append(f"row error: {row['error']}")
    if row["dim"] != dim:
        problems.append(f"dim {row['dim']} != sector size {dim}")
    if not 0 < row["n_levels"] <= dim:
        problems.append(f"n_levels {row['n_levels']} outside (0, {dim}]")
    for key in UNIT_RANGE:
        if key in row and not 0.0 <= row[key] <= 1.0:
            problems.append(f"{key}={row[key]!r} outside [0, 1]")
    if "d_kl" in row and not (math.isfinite(row["d_kl"]) and row["d_kl"] >= 0.0):
        problems.append(f"d_kl={row['d_kl']!r} is not a finite non-negative number")
    return problems


def load_reference(workload: str) -> list[dict] | None:
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload)


def reference_problems(row: dict, reference: list[dict]) -> list[str]:
    """Compare a row with the reference row at the same (kappa, lambda)."""
    match = [r for r in reference
             if r["kappa"] == row["kappa"] and r["lambda"] == row["lambda"]]
    if len(match) != 1:
        return [f"no reference row at kappa={row['kappa']}, lambda={row['lambda']}"]
    ref = match[0]
    tolerances = {**REFERENCE_TOL, "eta": ETA_FLIPS / (ref["n_levels"] * ETA_DENOM)}
    return [
        f"{key}={row[key]!r} differs from reference {ref[key]!r}"
        for key, tol in tolerances.items()
        if key in ref and not abs(row[key] - ref[key]) <= tol
    ]
