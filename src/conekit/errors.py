"""Exception types shared across the package."""


class ConeKitError(Exception):
    """Base class for conekit-specific errors."""


class ApexInsideBodyError(ConeKitError):
    """Apex lies inside the body, or too close to its boundary for a
    well-conditioned tangent cone."""


class UnresolvedConeError(ConeKitError, ValueError):
    """A support cone cannot be resolved in double precision: the apex
    distance overflows in the body's own units, or the directions collapse
    to fewer than 3 distinct ones.  Also a ``ValueError``, like the other
    rejections of bad cone input."""


class SceneInvalidError(ConeKitError):
    """Scene failed validation: parse error, degenerate body, or a
    containment violation.

    ``offending_sample`` carries the first point that violated containment,
    when there is one.
    """

    def __init__(self, message: str, offending_sample=None):
        super().__init__(message)
        self.offending_sample = offending_sample


class FrameSingularityError(ConeKitError):
    """A frame rule was evaluated at (or too close to) its singular
    direction.  For the minimal-rotation rule this is the antipode of the
    base direction; hitting it is the topological obstruction itself, not
    a numerical accident."""


class IndeterminateIndexError(ConeKitError):
    """A winding number could not be resolved on the given mesh: the field
    vanishes (or nearly vanishes) where the computation needs a direction.
    Refine the mesh or perturb the field."""


class RankDeficientError(ConeKitError):
    """Point correspondences are too degenerate (collinear) to determine an
    orthogonal registration."""
