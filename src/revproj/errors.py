"""Exception types shared across the package."""


class RevprojError(Exception):
    """Base class for all errors raised by this package."""


class RejectedProfile(RevprojError):
    """Profile coefficients violate an admissibility condition."""


class EmptyDomain(RevprojError):
    """No point of the requested u-interval is admissible."""


class SingularitySplit(RevprojError):
    """The zero-slope abscissa u* = -d/(2c) lies inside the requested
    interval; the caller must pick one side of it.

    Attributes:
        lower: (lo, u*) candidate sub-interval below the singularity.
        upper: (u*, hi) candidate sub-interval above the singularity.
    """

    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        super().__init__(  # + 0.0 folds -0.0 to 0.0
            "zero-slope abscissa u*=%g is interior to the requested interval; "
            "candidate sides: [%g, %g) and (%g, %g]"
            % tuple(v + 0.0 for v in (lower[1], lower[0], lower[1], upper[0], upper[1]))
        )


class InfeasibleArcLength(RevprojError):
    """f'(u)^2 exceeds 1, so no arc-length height function g exists there."""


class NoPreimage(RevprojError):
    """A plane point has no preimage under the map: it lies on or inside the
    fold circle, the image of the zero-slope abscissa u*, or the inversion
    seed sits at u* and so selects no side of it."""


class DomainExceeded(RevprojError):
    """A finite-difference stencil leaves the admissible u-interval."""


class DegenerateLine(RevprojError):
    """A straightness check received coincident endpoints."""


class CollinearityViolation(RevprojError):
    """Sampled meridian image points failed the straight-line guard before
    emission; indicates an internal bug, not bad input."""


class IoFailure(RevprojError):
    """Wraps an OS-level failure while writing an output file."""
