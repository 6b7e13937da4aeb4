"""Workload definitions and seeded input generation (standard library only).

A seed draws kappa values from [0, 1] and lambda values from two bands, one
regular and one chaotic.  The grid shape, the truncation (j, n_cutoff) and
hence the sector dimension D depend only on the workload and the scale, never
on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan-eigvals", "sweep-cold", "sweep-warm")
DEFAULT_SEED = 0

REGULAR_BAND = (0.1, 0.4)
CHAOTIC_BAND = (0.7, 1.2)
KAPPA_RANGE = (0.0, 1.0)

# (number of kappa values, lambda values drawn per band)
GRID_SHAPE = {
    "scan-eigvals": (2, 1),
    "sweep-cold": (1, 1),
    "sweep-warm": (3, 2),
}

# Sweep workers; 0 means the workload runs in the driver process, without a pool.
WORKERS = {"scan-eigvals": 0, "sweep-cold": 2, "sweep-warm": 2}

FULL_SCALE = {"j": 16.0, "n_cutoff": 320}      # D = 5297
REDUCED_SCALE = {"j": 8.0, "n_cutoff": 160}    # D = 1369
SMOKE_SCALE = {"j": 5.0, "n_cutoff": 80}       # D = 446, still >= 100 windowed levels

SCALES = {
    "full": {
        "scan-eigvals": FULL_SCALE,
        "sweep-cold": FULL_SCALE,
        "sweep-warm": REDUCED_SCALE,
    },
    "smoke": {name: SMOKE_SCALE for name in WORKLOADS},
}


def _distinct_sorted(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    values: set[float] = set()
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), 4))
    return sorted(values)


def generate(workload: str, seed: int, scale: str = "full") -> dict:
    """The parameters one run of ``workload`` hands to the program."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    n_kappa, per_band = GRID_SHAPE[workload]
    kappas = _distinct_sorted(rng, *KAPPA_RANGE, n_kappa)
    lambdas = (_distinct_sorted(rng, *REGULAR_BAND, per_band)
               + _distinct_sorted(rng, *CHAOTIC_BAND, per_band))
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        **SCALES[scale][workload],
        "kappas": kappas,
        "lambdas": lambdas,
        "workers": WORKERS[workload],
    }
