"""Tolerance and search constants, and the scene configuration dataclass.

Every numeric threshold used by the geometry lives here, so predicates in
different modules agree on what "equal" means.  All geometry is plain
64-bit floating point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import SceneInvalidError

#: Geometric predicate tolerance: salience margins, extremeness tests,
#: membership tests.
EPS_GEO = 1e-9

#: Unit-length / orthogonality tolerance for frames and orthogonal matrices.
EPS_ORTHO = 1e-12

#: Tolerance on ``abs(det) - 1`` for orthogonal parts of rigid motions.
EPS_DET = 1e-9

#: Apexes closer than this to the body surface are rejected; the tangent
#: cone degenerates (half-angles approach pi/2) as the apex approaches it.
APEX_MARGIN = 1e-6

#: Orthogonal parts are re-projected via polar decomposition once this many
#: compositions have accumulated, to control round-off drift.
REPROJECT_AFTER = 16

#: Congruence decision threshold for cones built from polytope vertices.
TOL_POLYHEDRAL = 1e-6

#: Congruence decision threshold for cones sampled from smooth bodies,
#: where discretization error dominates the residual.
TOL_SAMPLED = 1e-3


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_positive_number(value) -> bool:
    """A finite real number > 0 that is not a bool."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def default_tol(sampled: bool) -> float:
    """Congruence and symmetry threshold when none is set: the sampled
    tolerance when any cone involved was sampled from a smooth body."""
    return TOL_SAMPLED if sampled else TOL_POLYHEDRAL


#: Registration search over O(3).  After canonical-axis alignment a planar
#: rotation grid of GRID_STEPS steps (plus the reflected branch) is scored on
#: at most GRID_MAX_RAYS cyclically decimated rays; the GRID_TOP_CANDIDATES
#: best local maxima per branch are polished.
GRID_STEPS = 720
GRID_MAX_RAYS = 24
GRID_TOP_CANDIDATES = 2

#: Orthogonal-Procrustes polish: every candidate gets POLISH_ITER iterations,
#: the winner runs to ICP_CONVERGED (max entry change) or ICP_MAX_ITER.
POLISH_ITER = 8
ICP_MAX_ITER = 100
ICP_CONVERGED = 1e-12

#: Orientation multistart (icosahedral rotations and their negatives) for
#: cones whose canonical-axis quality is below AXIS_QUALITY_FLOOR.
MULTISTART_SEEDS = 60
AXIS_QUALITY_FLOOR = 0.05

#: Boundary angular spread under which a cone counts as an exact circle;
#: the planar grid is then redundant (every planar rotation is a symmetry).
CIRCLE_SPREAD = 1e-9

#: Witness-limit probe: trailing window size, Cauchy threshold, and the
#: Frobenius gap above which two limit witnesses count as distinct.
PROBE_WINDOW = 5
PROBE_CAUCHY_TOL = 1e-6
PROBE_DIFFER_TOL = 1e-3


@dataclass(frozen=True)
class HarnessConfig:
    """Scene-level configuration, echoed verbatim into every report.

    ``tol`` is the congruence flag threshold; ``None`` resolves to the
    kind-based default (polyhedral vs sampled cones).  The witness
    threshold defaults to ``10 * tol``, leaving an inconclusive band
    between the two rather than forcing a binary verdict on borderline
    scenes.  Values are checked on construction (and on
    ``dataclasses.replace``); a bad value raises ``SceneInvalidError``.
    """

    tol: float | None = None
    witness_threshold: float | None = None
    samples_per_cone: int = 256
    jobs: int = 1

    def __post_init__(self):
        for name in ("tol", "witness_threshold"):
            value = getattr(self, name)
            if value is not None and not is_positive_number(value):
                raise SceneInvalidError(f"config {name} must be a finite number > 0, got {value!r}")
        if self.tol is not None and self.witness_threshold is not None and self.witness_threshold < self.tol:
            raise SceneInvalidError(
                f"config witness_threshold {self.witness_threshold!r} is below tol {self.tol!r}"
            )
        if not (is_integer(self.samples_per_cone) and self.samples_per_cone >= 3):
            raise SceneInvalidError(
                f"config samples_per_cone must be an integer >= 3, got {self.samples_per_cone!r}"
            )
        if not (is_integer(self.jobs) and self.jobs >= 1):
            raise SceneInvalidError(f"config jobs must be an integer >= 1, got {self.jobs!r}")

    def resolve_tol(self, sampled: bool) -> float:
        return self.tol if self.tol is not None else default_tol(sampled)

    def resolve_witness_threshold(self, sampled: bool) -> float:
        if self.witness_threshold is not None:
            return self.witness_threshold
        return 10.0 * self.resolve_tol(sampled)
