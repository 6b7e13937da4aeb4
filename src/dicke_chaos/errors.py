"""Exception types shared across the package."""


class DickeChaosError(Exception):
    """Base class for all package-specific errors."""


class AllocationTooLarge(DickeChaosError):
    """A dense D x D Hamiltonian (``HamiltonianMatrix.entries``) would exceed ``MAX_DENSE_DIM``.

    Only the dense matrix is capped, and only the dense oracle solve
    (``diagonalize(h, want_vectors=True)``) makes it: the band storage, the
    eigenvalue solve and the windowed eigenvectors of the pipeline work at any D.
    """


class ConvergenceFailure(DickeChaosError):
    """The eigensolver failed to converge."""


class EmptyWindow(DickeChaosError):
    """No eigenstate falls inside the requested energy window."""


class MissingVectors(DickeChaosError):
    """Operation needs eigenvector coefficients, but none were computed."""


class TooFewLevels(DickeChaosError):
    """Not enough energy levels for the requested analysis."""


class DegenerateFit(DickeChaosError):
    """The unfolding polynomial system is rank-deficient."""


class TooFewSpacings(DickeChaosError):
    """Not enough level spacings for a meaningful statistic."""


class AllDegenerate(DickeChaosError):
    """Every spacing fell below the degeneracy tolerance."""


class EmptyInput(DickeChaosError):
    """An aggregate was requested over an empty collection."""


class NonRectangularGrid(DickeChaosError):
    """Sweep results do not form a rectangular (kappa, lambda) grid."""


class EmptySample(DickeChaosError):
    """A coefficient sample contains no values."""


class DegenerateRange(DickeChaosError):
    """Histogram range collapsed to a point."""


class OutputUnwritable(DickeChaosError):
    """An output file or directory could not be written."""


class UsageError(DickeChaosError):
    """Bad command-line arguments or configuration keys."""
