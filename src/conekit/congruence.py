"""Congruence of support cones over O(3).

Two cones are congruent when some orthogonal map (rotation or reflection)
carries one spherical image onto the other; translations are forced by the
apexes and never searched.  The congruence distance is the optimal-
registration Hausdorff residual between the two ray sets, and a congruence
verdict is that residual thresholded.

Search strategy: align canonical axes, sweep a planar rotation grid about
the common axis (with a reflected branch for the improper component of
O(3)), then polish the best grid candidates with an orthogonal-Procrustes
iteration on symmetrized nearest-neighbour correspondences.  Pairs of
exact circles with equal ray counts skip the grid: every planar rotation
by a ray step is a symmetry, so the frame anchored at ray 0 alone lands in
the optimal basin.  Each cone's axis, tangent anchor and exact-circle flag
are computed once and cached on the cone.  The search constants live in
``conekit.config``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import (
    AXIS_QUALITY_FLOOR,
    GRID_MAX_RAYS,
    GRID_STEPS,
    GRID_TOP_CANDIDATES,
    ICP_CONVERGED,
    ICP_MAX_ITER,
    MULTISTART_SEEDS,
    POLISH_ITER,
    PROBE_CAUCHY_TOL,
    PROBE_DIFFER_TOL,
    PROBE_WINDOW,
    default_tol,
)
from .cones import SupportCone, _tangent_anchor, canonical_axis  # noqa: F401 (re-exported frame anchor)
from .errors import RankDeficientError
from .geom import (
    RigidMotion,
    cross3,
    hausdorff_distance,
    rotation_matrix,
    unit,
)

__all__ = [
    "CongruenceResult",
    "PairwiseCongruence",
    "ContinuityProbeResult",
    "procrustes_orthogonal",
    "congruence_distance",
    "diameter_lower_bounds",
    "pairwise_congruence_matrix",
    "continuity_probe",
]


@dataclass(frozen=True, eq=False)
class CongruenceResult:
    """Optimal registration residual between two cones, with the witness
    motion that achieves it.  The witness maps the first apex to the second
    exactly; for symmetric cones it is one of several optimal witnesses and
    no uniqueness is claimed."""

    distance: float
    witness: RigidMotion
    congruent: bool
    tol: float


def _procrustes_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Orthogonal matrix minimizing sum |omega p_i - q_i|^2 (det free)."""
    A = P.T @ Q
    U, _, Vt = np.linalg.svd(A)
    return Vt.T @ U.T


def procrustes_orthogonal(P, Q) -> RigidMotion:
    """Best orthogonal registration of matched point sets about the origin.

    Both determinant signs are examined (the unconstrained optimum over
    O(3) is returned).  Collinear correspondences leave the optimum
    underdetermined and are rejected.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.shape != Q.shape or P.shape[1] != 3:
        raise ValueError("point sets must be matched (n, 3) arrays")
    if len(P) < 3:
        raise RankDeficientError("need at least 3 correspondences")
    s = np.linalg.svd(P, compute_uv=False)
    if s[1] <= 1e-9 * max(s[0], 1.0):
        raise RankDeficientError("correspondences are collinear")
    return RigidMotion(omega=_procrustes_matrix(P, Q), a=np.zeros(3))


@lru_cache(maxsize=1)
def _icosahedral_rotations() -> tuple[np.ndarray, ...]:
    """The 60 rotations of the icosahedral group, by closure from two
    generators."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    g1 = rotation_matrix(unit([0.0, 1.0, phi]), 2.0 * np.pi / 5.0)
    g2 = rotation_matrix(unit([1.0, 1.0, 1.0]), 2.0 * np.pi / 3.0)
    elems = [np.eye(3)]
    frontier = [np.eye(3)]
    while frontier:
        nxt = []
        for r in frontier:
            for g in (g1, g2):
                cand = g @ r
                if all(np.max(np.abs(cand - e)) > 1e-8 for e in elems):
                    elems.append(cand)
                    nxt.append(cand)
        frontier = nxt
    assert len(elems) == 60
    return tuple(np.round(e, 15) for e in elems)


def _decimate_cyclic(rays: np.ndarray, cap: int, anchor: np.ndarray) -> np.ndarray:
    """At most ``cap`` rays evenly spaced along the cycle, starting at the
    ray nearest the cone's tangent anchor, so that the subset does not
    depend on which ray the cycle starts at."""
    n = len(rays)
    if n <= cap:
        return rays
    start = int(np.argmax(rays @ anchor))
    return rays[(start + (np.arange(cap) * n) // cap) % n]


def _hausdorff_sq_scores(G: np.ndarray) -> np.ndarray:
    """For inner products ``G[i, j, k]`` between unit vectors i and j under
    grid step k, the score min(min_i max_j, min_j max_i) per step; higher
    score = smaller Hausdorff distance (d^2 = 2 - 2 * score)."""
    m1 = G.max(axis=1).min(axis=0)
    m2 = G.max(axis=0).min(axis=0)
    return np.minimum(m1, m2)


def _top_local_maxima(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best local maxima of a cyclic score curve (falls
    back to the global argmax when the curve is flat)."""
    left = np.roll(scores, 1)
    right = np.roll(scores, -1)
    peaks = np.nonzero((scores >= left) & (scores >= right))[0]
    if len(peaks) == 0:
        peaks = np.array([int(np.argmax(scores))])
    order = np.argsort(scores[peaks])[::-1]
    return peaks[order[:k]]


def _aligned_frames(ax1, t1, ax2, t2):
    """Axis-aligning base rotation plus the in-plane phase frame at axis2.

    Both are anchored to the cones' own geometry (axes ``ax`` and tangent
    anchors ``t``), so the whole candidate construction commutes with rigid
    motions of either cone and the reverse pair's frame is this one
    transposed; that is what makes the reported distance motion-invariant
    and symmetric."""
    F1 = np.column_stack([ax1, t1, cross3(ax1, t1)])
    b2 = cross3(ax2, t2)
    F2 = np.column_stack([ax2, t2, b2])
    return F2 @ F1.T, t2, b2


def _grid_candidates(
    rays1: np.ndarray,
    rays2: np.ndarray,
    axis2: np.ndarray,
    base: np.ndarray,
    f1: np.ndarray,
    f2: np.ndarray,
) -> list[np.ndarray]:
    """Candidates from the planar grid about axis2 applied after the
    axis-aligning base rotation, for both branches of O(3).  The best
    local maxima of the score curve are kept per branch, so distinct
    basins get distinct refinement seeds."""
    # base carries anchor1 to f1, so each start is the ray nearest f1
    P = _decimate_cyclic(rays1, GRID_MAX_RAYS, base.T @ f1) @ base.T
    Q = _decimate_cyclic(rays2, GRID_MAX_RAYS, f1)
    a, b, z = P @ f1, P @ f2, P @ axis2
    al, be, ze = Q @ f1, Q @ f2, Q @ axis2
    Z = np.outer(z, ze).astype(np.float32)[:, :, None]
    ts = 2.0 * np.pi * np.arange(GRID_STEPS) / GRID_STEPS
    cos_t = np.cos(ts).astype(np.float32)
    sin_t = np.sin(ts).astype(np.float32)
    # the (n, m, steps) tensor is scored in cache-sized slabs of grid steps;
    # steps run along the last axis, so the reductions over rays are
    # elementwise over contiguous steps even for 4-ray cones
    rows = max(1, 65536 // Z.size)
    refl = np.eye(3) - 2.0 * np.outer(f2, f2)  # mirror across plane(axis2, f1)
    out: list[np.ndarray] = []
    for sign in (1.0, -1.0):
        bb = sign * b
        C = (np.outer(a, al) + np.outer(bb, be)).astype(np.float32)[:, :, None]
        S = (np.outer(a, be) - np.outer(bb, al)).astype(np.float32)[:, :, None]
        scores = np.empty(GRID_STEPS, dtype=np.float32)
        for lo in range(0, GRID_STEPS, rows):
            G = cos_t[lo : lo + rows] * C
            G += sin_t[lo : lo + rows] * S
            G += Z
            scores[lo : lo + rows] = _hausdorff_sq_scores(G)
        for idx in _top_local_maxima(scores, GRID_TOP_CANDIDATES):
            rot = rotation_matrix(axis2, float(ts[idx]))
            out.append(rot @ base if sign > 0 else rot @ refl @ base)
    return out


def _icp_refine(
    rays1: np.ndarray,
    rays2: np.ndarray,
    omega0: np.ndarray,
    max_iter: int = ICP_MAX_ITER,
) -> tuple[float, np.ndarray, bool]:
    """Polish a candidate by orthogonal Procrustes on the union of both
    directed nearest-neighbour matchings (symmetric in the two cones).
    Returns the best Hausdorff residual seen, its orthogonal map, and
    whether the iteration stopped on ICP_CONVERGED rather than ``max_iter``.

    The rays are unit vectors, so a ray's nearest neighbour is the one of
    largest inner product; distances are taken from the differences of the
    selected pairs, which keeps small residuals exact."""
    omega = omega0
    best_h = np.inf
    best_omega = omega0
    for it in range(max_iter + 1):
        A = rays1 @ omega.T
        nn12 = (A @ rays2.T).argmax(axis=1)
        nn21 = (rays2 @ A.T).argmax(axis=1)
        d12 = A - rays2[nn12]
        d21 = A[nn21] - rays2
        # np.linalg.norm(axis=1) is sqrt(add.reduce(d * d, 1)); sqrt is
        # monotone and correctly rounded, so one root of the largest sum
        # is the largest norm, bit for bit
        h = np.sqrt(max(np.add.reduce(d12 * d12, 1).max(), np.add.reduce(d21 * d21, 1).max()))
        if h < best_h:
            best_h = float(h)
            best_omega = omega
        if it == max_iter:
            break
        src = np.concatenate([rays1, rays1[nn21]])
        dst = np.concatenate([rays2[nn12], rays2])
        omega_new = _procrustes_matrix(src, dst)
        if np.max(np.abs(omega_new - omega)) < ICP_CONVERGED:
            return best_h, best_omega, True
        omega = omega_new
    return best_h, best_omega, False


def congruence_distance(
    c1: SupportCone,
    c2: SupportCone,
    tol: float | None = None,
) -> CongruenceResult:
    """Minimum over O(3) of the Hausdorff distance between the spherical
    images, with the witness motion achieving it.

    The verdict threshold defaults to the polyhedral tolerance, or the
    sampled tolerance when either cone was sampled from a smooth body.
    """
    if tol is None:
        tol = default_tol(c1.is_sampled or c2.is_sampled)
    r1, r2 = c1.rays, c2.rays
    ax2 = canonical_axis(c2)
    base, f1, f2 = _aligned_frames(canonical_axis(c1), c1._anchor, ax2, c2._anchor)

    if len(r1) == len(r2) and c1._is_uniform_circle and c2._is_uniform_circle:
        # exact circles with equal ray counts: planar rotations by a ray
        # step are symmetries of both, and the frame already maps ray 0 into
        # the half-plane of ray 0; the reflected branch mirrors across it
        candidates = [base, (np.eye(3) - 2.0 * np.outer(f2, f2)) @ base]
    else:
        candidates = _grid_candidates(r1, r2, ax2, base, f1, f2)
        if min(c1.axis_quality, c2.axis_quality) < AXIS_QUALITY_FLOOR:
            for rot in _icosahedral_rotations()[:MULTISTART_SEEDS]:
                candidates.append(rot)
                candidates.append(-rot)

    # short polish on every candidate, full convergence on the winner only
    best_h = np.inf
    best_omega = candidates[0]
    converged = False
    for cand in candidates:
        h, om, conv = _icp_refine(r1, r2, cand, max_iter=POLISH_ITER)
        if h < best_h:
            best_h, best_omega, converged = h, om, conv
    # a winner whose short polish converged would replay the same iterates
    # from best_omega and stop at the same one, so it is already final
    if not converged:
        h, om, _ = _icp_refine(r1, r2, best_omega)
        if h < best_h:
            best_h, best_omega = h, om
    u, _, vh = np.linalg.svd(best_omega)
    best_omega = u @ vh  # polar factor: snaps accumulated round-off back onto O(3)
    witness = RigidMotion(omega=best_omega, a=c2.apex - best_omega @ c1.apex)
    return CongruenceResult(
        distance=best_h, witness=witness, congruent=best_h <= tol, tol=tol
    )


@dataclass(frozen=True, eq=False)
class PairwiseCongruence:
    """Symmetric matrix of congruence distances over a cone list (NaN for
    pairs not registered), with the per-pair results (witnesses included)
    keyed by index pairs i < j."""

    matrix: np.ndarray
    results: dict


def _pair_worker(args):
    i, j, c1, c2, tol = args
    return i, j, congruence_distance(c1, c2, tol)


def diameter_lower_bounds(cones: list[SupportCone]) -> np.ndarray:
    """Certified lower bounds on the congruence distance of every pair of
    cones, with no registration: orthogonal maps preserve a ray set's
    chordal diameter, and ray sets within Hausdorff distance h have
    diameters within 2h, so entry (i, j) is ``|diam_i - diam_j| / 2``."""
    diam = np.array([c._diameter for c in cones])
    return np.abs(diam[:, None] - diam[None, :]) / 2.0


def pairwise_congruence_matrix(
    cones: list[SupportCone],
    tol: float | None = None,
    jobs: int = 1,
    pairs: list[tuple[int, int]] | None = None,
) -> PairwiseCongruence:
    """Congruence distances of the index pairs ``pairs`` (i < j; all pairs
    by default).  Entries are independent; with ``jobs > 1`` they are
    computed in a process pool with deterministic assembly (identical
    inputs give identical output regardless of scheduling).  Matrix entries
    of pairs not asked for are NaN."""
    n = len(cones)
    if n < 2:
        raise ValueError("need at least 2 cones")
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    results: dict[tuple[int, int], CongruenceResult] = {}
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(i, j, cones[i], cones[j], tol) for i, j in pairs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for i, j, res in pool.map(_pair_worker, tasks, chunksize=32):
                results[(i, j)] = res
    else:
        for i, j in pairs:
            results[(i, j)] = congruence_distance(cones[i], cones[j], tol)
    matrix = np.full((n, n), np.nan)
    np.fill_diagonal(matrix, 0.0)
    for (i, j), res in results.items():
        matrix[i, j] = matrix[j, i] = res.distance
    return PairwiseCongruence(matrix=matrix, results=results)


@dataclass(frozen=True, eq=False)
class ContinuityProbeResult:
    """Witness-limit behaviour along two approach sequences to the same
    boundary point.

    ``limits_differ`` realizes the two-limit obstruction; when the
    congruence residuals vanish as well, ``self_map_residual`` reports how
    closely the relative limit maps the reference cone onto itself (it is
    then a symmetry of that cone).  Residuals that do not vanish mean the
    all-cones-congruent hypothesis fails for the scene.
    """

    omegas1: tuple
    omegas2: tuple
    residuals1: tuple
    residuals2: tuple
    limit1: np.ndarray
    limit2: np.ndarray
    converged1: bool
    converged2: bool
    cauchy1: float
    cauchy2: float
    limits_differ: bool
    relative_gap: float
    self_map_residual: float | None
    hypothesis_violated: bool


def _cauchy_gap(mats: list[np.ndarray], window: int) -> float:
    tail = mats[-window:]
    gap = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            gap = max(gap, float(np.linalg.norm(tail[i] - tail[j])))
    return gap


def continuity_probe(
    cone_fn,
    x0,
    xstar,
    seq1,
    seq2,
    tol: float | None = None,
    witness_rule=None,
) -> ContinuityProbeResult:
    """Track congruence witnesses from the cone at ``x0`` to the cones along
    two apex sequences converging to ``xstar``.

    ``cone_fn`` maps an apex to its support cone.  When ``witness_rule`` is
    given it assigns the orthogonal part per apex (for closed-form frame
    rules); otherwise the optimizer's witnesses are used.  Residuals always
    come from the optimal registration.
    """
    x1 = np.asarray(seq1, dtype=float)
    x2 = np.asarray(seq2, dtype=float)
    xs = np.asarray(xstar, dtype=float)
    for seq in (x1, x2):
        if len(seq) < PROBE_WINDOW:
            raise ValueError("approach sequences are too short for the probe window")
        d = np.linalg.norm(seq - xs, axis=1)
        if d[-1] > 1e-3 * (1.0 + np.linalg.norm(xs)) or np.any(np.diff(d) > 1e-12):
            raise ValueError("sequences must converge monotonically to xstar")

    c0 = cone_fn(np.asarray(x0, dtype=float))
    if tol is None:
        tol = default_tol(c0.is_sampled)

    def track(seq):
        omegas, residuals = [], []
        for x in seq:
            cx = cone_fn(x)
            res = congruence_distance(c0, cx, tol)
            residuals.append(res.distance)
            if witness_rule is not None:
                omegas.append(np.asarray(witness_rule(x), dtype=float))
            else:
                omegas.append(res.witness.omega)
        return omegas, residuals

    om1, res1 = track(x1)
    om2, res2 = track(x2)
    cauchy1 = _cauchy_gap(om1, PROBE_WINDOW)
    cauchy2 = _cauchy_gap(om2, PROBE_WINDOW)
    converged1 = cauchy1 <= PROBE_CAUCHY_TOL
    converged2 = cauchy2 <= PROBE_CAUCHY_TOL
    L1, L2 = om1[-1], om2[-1]
    rel = L1.T @ L2
    relative_gap = float(np.linalg.norm(rel - np.eye(3)))
    limits_differ = relative_gap > PROBE_DIFFER_TOL
    residual_tail = max(res1[-1], res2[-1])
    hypothesis_violated = residual_tail > tol
    self_map = None
    if limits_differ and not hypothesis_violated:
        self_map = hausdorff_distance(c0.rays @ rel.T, c0.rays)
    return ContinuityProbeResult(
        omegas1=tuple(om1),
        omegas2=tuple(om2),
        residuals1=tuple(res1),
        residuals2=tuple(res2),
        limit1=L1,
        limit2=L2,
        converged1=converged1,
        converged2=converged2,
        cauchy1=cauchy1,
        cauchy2=cauchy2,
        limits_differ=limits_differ,
        relative_gap=relative_gap,
        self_map_residual=self_map,
        hypothesis_violated=hypothesis_violated,
    )
