"""Tolerance and search constants, and the scene configuration dataclass.

Every numeric threshold used by the geometry lives here, so predicates in
different modules agree on what "equal" means.  All geometry is plain
64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    scenes.
    """

    tol: float | None = None
    witness_threshold: float | None = None
    samples_per_cone: int = 256
    jobs: int = 1

    def resolve_tol(self, sampled: bool) -> float:
        return self.tol if self.tol is not None else default_tol(sampled)

    def resolve_witness_threshold(self, sampled: bool) -> float:
        if self.witness_threshold is not None:
            return self.witness_threshold
        return 10.0 * self.resolve_tol(sampled)
