"""Fault injection: a ``compute_point`` whose worker process dies at one grid point.

``run(argv)`` runs the ``dicke-chaos`` CLI with ``sweep.compute_point`` replaced
by :func:`compute_point`; a sweep's spawned workers import this module to call it.
"""

import os

import dicke_chaos.sweep as sweep
from dicke_chaos.cli import main

#: The (kappa, lambda) point whose worker calls os._exit(1).
DYING_POINT = (0.7, 0.9)
_compute_point = sweep.compute_point


def compute_point(params, *args, **kwargs):
    if (params.kappa, params.lambda_) == DYING_POINT:
        os._exit(1)
    return _compute_point(params, *args, **kwargs)


def run(argv):
    sweep.compute_point = compute_point
    return main(argv)
