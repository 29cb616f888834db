"""Independent brute-force oracles used by the tests.

Everything here recomputes results by enumeration or dense sampling,
deliberately avoiding the library's optimized code paths, so the tests
compare two routes to the same answer.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import cdist


def icosahedral_directions() -> np.ndarray:
    """62 directions: icosahedron vertices, edge midpoints, face centers."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    base = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            base.append([0.0, s1, s2 * phi])
            base.append([s1, s2 * phi, 0.0])
            base.append([s1 * phi, 0.0, s2])
    V = np.array(base)
    V = V / np.linalg.norm(V, axis=1)[:, None]
    D = cdist(V, V)
    edge = np.min(D[D > 1e-9])
    mids, faces = [], []
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            if abs(D[i, j] - edge) < 1e-9:
                mids.append(V[i] + V[j])
                for k in range(j + 1, len(V)):
                    if abs(D[i, k] - edge) < 1e-9 and abs(D[j, k] - edge) < 1e-9:
                        faces.append(V[i] + V[j] + V[k])
    M = np.array(mids)
    F = np.array(faces)
    return np.vstack(
        [V, M / np.linalg.norm(M, axis=1)[:, None], F / np.linalg.norm(F, axis=1)[:, None]]
    )


def rodrigues(axis: np.ndarray, theta: float) -> np.ndarray:
    x, y, z = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    D = cdist(a, b)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def icp_refine_cdist(rays1, rays2, omega0, max_iter, converged=1e-12):
    """The orthogonal-Procrustes polish with nearest neighbours from a full
    cdist matrix: the reference for ``congruence._icp_refine``, returning
    (residual, map, whether the iteration stopped on ``converged``)."""
    omega = omega0
    best_h, best_omega = np.inf, omega0
    stopped = False
    for _ in range(max_iter):
        D = cdist(rays1 @ omega.T, rays2)
        h = max(D.min(axis=1).max(), D.min(axis=0).max())
        if h < best_h:
            best_h, best_omega = float(h), omega
        src = np.vstack([rays1, rays1[D.argmin(axis=0)]])
        dst = np.vstack([rays2[D.argmin(axis=1)], rays2])
        U, _, Vt = np.linalg.svd(src.T @ dst)
        omega_new = Vt.T @ U.T
        if np.max(np.abs(omega_new - omega)) < converged:
            stopped = True
            break
        omega = omega_new
    h = hausdorff(rays1 @ omega.T, rays2)
    if h < best_h:
        best_h, best_omega = h, omega
    return best_h, best_omega, stopped


def grid_candidates_dense(rays1, rays2, axis2, base, f1, f2, steps=720, max_rays=24, top=2):
    """The planar-grid candidates with the whole (steps, n, m) float32
    tensor scored at once: the reference for ``congruence._grid_candidates``.
    The library's Rodrigues formula builds the rotations, so that both
    routes give the same bits when they select the same grid steps."""
    from conekit.geom import rotation_matrix

    def decimate(rays):
        # evenly spaced along the cycle from the ray nearest f1, in the
        # frame where the grid is scored
        n = len(rays)
        if n <= max_rays:
            return rays
        start = int(np.argmax(rays @ f1))
        return np.roll(rays, -start, axis=0)[np.unique((np.arange(max_rays) * n) // max_rays)]

    P = decimate(rays1 @ base.T)
    Q = decimate(rays2)
    a, b, z = P @ f1, P @ f2, P @ axis2
    al, be, ze = Q @ f1, Q @ f2, Q @ axis2
    Z = np.outer(z, ze).astype(np.float32)
    ts = 2.0 * np.pi * np.arange(steps) / steps
    cos_t = np.cos(ts)[:, None, None].astype(np.float32)
    sin_t = np.sin(ts)[:, None, None].astype(np.float32)
    refl = np.eye(3) - 2.0 * np.outer(f2, f2)
    out = []
    for sign in (1.0, -1.0):
        bb = sign * b
        C = (np.outer(a, al) + np.outer(bb, be)).astype(np.float32)
        S = (np.outer(a, be) - np.outer(bb, al)).astype(np.float32)
        G = cos_t * C + sin_t * S + Z
        scores = np.minimum(G.max(axis=2).min(axis=1), G.max(axis=1).min(axis=1))
        peaks = np.nonzero((scores >= np.roll(scores, 1)) & (scores >= np.roll(scores, -1)))[0]
        if len(peaks) == 0:
            peaks = np.array([int(np.argmax(scores))])
        for idx in peaks[np.argsort(scores[peaks])[::-1][:top]]:
            rot = rotation_matrix(axis2, float(ts[idx]))
            out.append(rot @ base if sign > 0 else rot @ refl @ base)
    return out


def o3_grid_distance(rays1: np.ndarray, rays2: np.ndarray, step_deg: float = 1.0) -> float:
    """Exhaustive grid search over O(3): rotations about the 62 icosahedral
    directions in step_deg increments, both determinant signs (every
    improper orthogonal map is -R for a rotation R)."""
    axes = icosahedral_directions()
    angles = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    best = np.inf
    for ax in axes:
        for th in angles:
            R = rodrigues(ax, float(th))
            for s in (1.0, -1.0):
                best = min(best, hausdorff(rays1 @ (s * R).T, rays2))
    return best


def grid_resolution_bound(step_deg: float) -> float:
    """How far the grid minimum can exceed the true O(3) minimum: the
    operator-norm covering radius of the oracle grid (axis coverage of the
    62-direction set plus half a planar step), since the Hausdorff residual
    is 1-Lipschitz in the orthogonal map on unit vectors."""
    axes = icosahedral_directions()
    probes = 4096
    i = np.arange(probes, dtype=float)
    z = 1.0 - (2 * i + 1.0) / probes
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    gamma = 1.05 * float(np.max(np.arccos(np.clip(np.abs(dirs @ axes.T), -1, 1).max(axis=1))))
    return float(4.0 * np.sin(gamma / 2.0) + np.deg2rad(step_deg) / 2.0)


def extreme_ray_filter(dirs: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Indices of directions that are NOT in the conical hull of the
    others, decided one linear program at a time."""
    n = len(dirs)
    out = []
    for i in range(n):
        others = np.delete(dirs, i, axis=0)
        # feasible lambda >= 0 with others^T lambda = dirs[i] ?
        res = linprog(
            c=np.zeros(n - 1),
            A_eq=others.T,
            b_eq=dirs[i],
            bounds=[(0, None)] * (n - 1),
            method="highs",
        )
        inside = res.status == 0 and res.success
        if inside:
            # confirm the reconstruction actually matches within tolerance
            recon = others.T @ res.x
            inside = bool(np.linalg.norm(recon - dirs[i]) <= 1e-7)
        if not inside:
            out.append(i)
    return out


def symmetry_group_order(rays: np.ndarray, tol: float) -> int:
    """Order of the symmetry group of a ray set by exhaustive search over
    orthogonal maps induced by sending one ray pair to another (both
    orientation classes), counting distinct verified elements."""

    def frame(a, b):
        e1 = a / np.linalg.norm(a)
        e2 = b - (b @ e1) * e1
        e2 = e2 / np.linalg.norm(e2)
        e3 = np.cross(e1, e2)
        return np.column_stack([e1, e2, e3])

    n = len(rays)
    a, b = rays[0], rays[1]
    gap = float(a @ b)
    f_ab = frame(a, b)
    found: list[np.ndarray] = []
    for c in range(n):
        for d in range(n):
            if c == d:
                continue
            if abs(float(rays[c] @ rays[d]) - gap) > 2.0 * tol:
                continue
            f_cd = frame(rays[c], rays[d])
            for flip in (1.0, -1.0):
                F = np.array(f_cd)
                F[:, 2] *= flip
                omega = F @ f_ab.T
                if hausdorff(rays @ omega.T, rays) <= tol:
                    if all(np.max(np.abs(omega - g)) > 1e-6 for g in found):
                        found.append(omega)
    return len(found)


def dense_winding(vec_a, vec_b, vec_c, samples: int = 512) -> int:
    """Winding of the linear interpolation of three 2D corner vectors
    around a triangle boundary, by dense angle accumulation."""
    corners = [np.asarray(vec_a, float), np.asarray(vec_b, float), np.asarray(vec_c, float)]
    total = 0.0
    prev = None
    for k in range(3):
        v0, v1 = corners[k], corners[(k + 1) % 3]
        for t in np.linspace(0.0, 1.0, samples, endpoint=False):
            w = (1.0 - t) * v0 + t * v1
            ang = np.arctan2(w[1], w[0])
            if prev is not None:
                d = (ang - prev + np.pi) % (2.0 * np.pi) - np.pi
                total += d
            prev = ang
    w = corners[0]
    ang = np.arctan2(w[1], w[0])
    total += (ang - prev + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.round(total / (2.0 * np.pi)))


def witness_gap_mod_symmetry(omega: np.ndarray, truth: np.ndarray, report) -> float:
    """Frobenius gap between a recovered orthogonal part and the truth,
    minimized over the cone's detected symmetry group (the witness is only
    determined up to composition with a symmetry)."""

    def rodr(axis, theta):
        return rodrigues(np.asarray(axis, float), theta)

    elems = [np.eye(3)]
    for ax in report.axes:
        for k in range(1, ax.order):
            elems.append(rodr(ax.direction, 2 * np.pi * k / ax.order))
    for pl in report.planes:
        elems.append(np.eye(3) - 2.0 * np.outer(pl.normal, pl.normal))
    closure = list(elems)
    for e in elems:
        for f in elems:
            cand = e @ f
            if all(np.max(np.abs(cand - g)) > 1e-6 for g in closure):
                closure.append(cand)
    return min(float(np.linalg.norm(omega - truth @ g)) for g in closure)


def dense_arc_centroid(rays: np.ndarray, per_arc: int = 20000) -> np.ndarray:
    """Arc-length-weighted centroid of the closed spherical polygon through
    the rays, by dense numerical sampling of each great-circle arc."""
    total = np.zeros(3)
    length = 0.0
    n = len(rays)
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        gamma = float(np.arccos(np.clip(a @ b, -1, 1)))
        if gamma < 1e-15:
            continue
        t = (np.arange(per_arc) + 0.5) / per_arc
        pts = (np.sin((1 - t) * gamma)[:, None] * a + np.sin(t * gamma)[:, None] * b) / np.sin(gamma)
        total += pts.sum(axis=0) * (gamma / per_arc)
        length += gamma
    return total / np.linalg.norm(total)


def _np_cross_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v): the unit normal and its right-handed completion, built
    as ``orthonormal_basis`` builds it but with ``np.cross``."""
    n = normal / np.linalg.norm(normal)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(helper, n)
    u = u / np.linalg.norm(u)
    return n, u, np.cross(n, u)


def mirror_planes_eager(apex, rays, axis, tol, sampled_circle: bool) -> list[tuple]:
    """(origin, normal, basis_u, basis_v) of every verified mirror plane of
    a cone, built eagerly with ``np.cross`` frames in sorted angle order:
    the planes ``detect_symmetries`` reported as frames before it stored
    only their normals.  ``sampled_circle`` marks a right circular cone
    with one ray per silhouette sample, which has a mirror through every
    ray-pair bisector once the generators verify."""
    n = len(rays)
    _, f1, f2 = _np_cross_frame(axis)
    theta = np.arctan2(rays @ f2, rays @ f1)

    def mirror_verifies(c):
        m = -np.sin(c) * f1 + np.cos(c) * f2
        return hausdorff(rays @ (np.eye(3) - 2.0 * np.outer(m, m)).T, rays) <= tol

    def frame(c):
        return (np.asarray(apex, float), *_np_cross_frame(-np.sin(c) * f1 + np.cos(c) * f2))

    if sampled_circle:
        x, y, z = axis
        K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        step = 2.0 * np.pi / n
        rot = np.eye(3) + np.sin(step) * K + (1.0 - np.cos(step)) * (K @ K)
        if hausdorff(rays @ rot.T, rays) <= tol and mirror_verifies(float(theta[0] % np.pi)):
            return [frame(c) for c in sorted(float((theta[0] + theta[j]) / 2.0 % np.pi) for j in range(n))]
    height = rays @ axis
    found: list[float] = []
    for j in range(n):
        if abs(height[j] - height[0]) > tol:
            continue
        c = float((theta[0] + theta[j]) / 2.0 % np.pi)
        if any(min(abs(c - s), np.pi - abs(c - s)) < 1e-10 for s in found):
            continue
        if mirror_verifies(c):
            found.append(c)
    return [frame(c) for c in sorted(found)]


def full_matrix_verdict(scene):
    """The verdict rule of the all-pairs congruence matrix, the reference
    for ``harness.verify_scene``, which registers only the pairs its bounds
    leave open: consistent when the matrix max is within tol and every cone
    and section is circular, a witness at the matrix argmax beyond the
    witness threshold, and otherwise the continuity probe at that pair.
    Returns (verdict, pair)."""
    from conekit import harness
    from conekit.cones import cross_section, support_cone
    from conekit.congruence import continuity_probe, pairwise_congruence_matrix
    from conekit.symmetry import detect_circle, detect_symmetries

    cfg = scene.config
    apexes, cones = harness.scene_cones(scene)
    sampled = any(c.is_sampled for c in cones)
    tol, wit = cfg.resolve_tol(sampled), cfg.resolve_witness_threshold(sampled)
    iu = np.triu_indices(len(cones), k=1)
    entries = pairwise_congruence_matrix(cones, tol).matrix[iu]
    k = int(np.argmax(entries))
    pair = (int(iu[0][k]), int(iu[1][k]))
    all_rc = all(detect_symmetries(c, tol).is_right_circular for c in cones)
    sections = [cross_section(c, 1.0) for c in cones]
    circles = all(len(s.polygon) >= 8 and detect_circle(s, tol)[0] for s in sections)
    if entries[k] <= tol and all_rc and circles:
        return "consistent_with_ball", None
    if entries[k] > wit:
        return "non_congruence_witness", pair
    seq1, seq2, xstar = harness._probe_sequences(scene, apexes, *pair)
    probe = continuity_probe(
        lambda x: support_cone(scene.inner, x, samples=cfg.samples_per_cone),
        apexes[pair[0]], xstar, seq1, seq2, tol,
    )
    diverging = probe.limits_differ or not (probe.converged1 and probe.converged2)
    if diverging and probe.hypothesis_violated:
        return "continuity_violation", pair
    return "inconclusive", None
