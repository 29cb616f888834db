"""Symmetry detection for support cones and planar sections.

Symmetries are decided on spherical images (compact sets), not unbounded
cones: a cone symmetry fixing the apex is exactly a spherical-image
symmetry.  Every symmetry of a salient cone also fixes the canonical axis
(the axis construction is equivariant), so rotations live about that axis
and mirror planes contain it; candidates are generated from ray pairs and
verified by a Hausdorff test at the working tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL_SAMPLED, default_tol
from .cones import PlanarSection, SupportCone, boundary_image_samples, canonical_axis
from .geom import PlaneFrame, hausdorff_distance, orthonormal_basis, rotation_matrix

__all__ = [
    "SymmetryAxis",
    "SymmetryReport",
    "detect_symmetries",
    "is_right_circular",
    "detect_circle",
    "case_split",
    "INFINITE",
]

#: Group-order marker for cones with a continuum of symmetries.
INFINITE = "infinite"

#: Number of distinct verified rotations beyond which the group is declared
#: infinite (numerical surrogate for a continuum of symmetries).
_INFINITE_ROTATIONS = 16


@dataclass(frozen=True, eq=False)
class SymmetryAxis:
    """A rotation axis through ``point`` with maximal verified order."""

    point: np.ndarray
    direction: np.ndarray
    order: int


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Verified symmetry elements of a cone.

    Mirror planes pass through ``apex`` and contain the axis; each is
    stored by its angle in the plane of ``basis`` (two unit vectors
    orthogonal to the axis), in ascending order.  The ``mirror_normals``
    and the ``planes`` frames are built when first read.  ``group_order``
    counts rotations (identity included) plus reflections, or is
    ``"infinite"`` for right circular cones and cones where more rotation
    orders verify than the finite-group cutoff.
    """

    axes: tuple
    apex: np.ndarray
    mirror_angles: tuple
    basis: tuple
    is_right_circular: bool
    half_angle: float | None
    group_order: int | str

    @cached_property
    def mirror_normals(self) -> tuple:
        f1, f2 = self.basis
        return tuple(-np.sin(c) * f1 + np.cos(c) * f2 for c in self.mirror_angles)

    @cached_property
    def planes(self) -> tuple:
        return tuple(PlaneFrame.from_normal(self.apex, n) for n in self.mirror_normals)


def is_right_circular(cone: SupportCone, tol: float | None = None) -> tuple[bool, float | None]:
    """Whether every boundary generator makes the same angle with the
    best-fit axis, within ``tol`` radians.

    The axis is the canonical axis refined by one least-squares pass (the
    minimum-variance projection direction of the boundary samples); the
    half-angle is the mean generator angle.  The boundary is sampled along
    the arcs between extreme rays, so polygonal cones with equiangular
    vertices (a square cone, say) are correctly rejected.
    """
    if tol is None:
        tol = default_tol(cone.is_sampled)
    pts = boundary_image_samples(cone)
    centered = pts - pts.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered)
    axis = v[:, 0]
    if float(axis @ canonical_axis(cone)) < 0:
        axis = -axis
    angles = np.arccos(np.clip(pts @ axis, -1.0, 1.0))
    half = float(angles.mean())
    if float(np.max(np.abs(angles - half))) <= tol:
        return True, half
    return False, None


def _verify(cone_rays: np.ndarray, omega: np.ndarray, tol: float) -> bool:
    return hausdorff_distance(cone_rays @ omega.T, cone_rays) <= tol


def _bound_decisions(
    frame_rays: np.ndarray, angles: np.ndarray, shifts: np.ndarray, mirror: bool, tol: float
) -> np.ndarray:
    """Decide whether ``hausdorff_distance(g(rays), rays) <= tol`` for a
    batch of candidate maps g from two O(n) bounds on that distance.

    ``frame_rays`` holds the unit rays in the cone frame (f1, f2, axis).
    Candidate k is the rotation about the axis by ``angles[k]`` or, when
    ``mirror``, the reflection in the plane through the axis at angle
    ``angles[k]``; both keep heights.  Upper bound: pairing ray i with ray
    ``shifts[k] + i`` (rotation) or ``shifts[k] - i`` (mirror), mod n, is a
    bijection of the rays, so its largest paired distance bounds both
    directed distances.  Lower bound: the distance from the images of a few
    probe rays under g and g^-1 to their nearest rays.  Returns 1 where the
    distance is at most ``tol``, -1 where it exceeds ``tol`` and 0 where the
    bounds straddle ``tol``, so that only the distance can decide.
    """
    # Rounding margin.  Every coordinate, difference and lifted product
    # here and in hausdorff_distance is of unit rays, a few units in size,
    # so each rounds by well under 1e-14.  hausdorff_distance selects
    # nearest rays by lifted products, so the ray it selects can be farther
    # than the nearest by that much in squared distance: acceptance keeps
    # the margin in squared distance.  A selected ray is never nearer than
    # the nearest, so rejection keeps it in distance.
    m = 1e-12
    n = len(frame_rays)
    x, y, z = frame_rays.T
    index = np.arange(n)
    probes = np.unique((2 * np.arange(8) + 1) * n // 16)
    decisions = np.zeros(len(angles), dtype=np.int8)
    # candidates x rays entries per array, whatever the ray count
    rows = max(1, 8192 // n)
    for lo in range(0, len(angles), rows):
        a = angles[lo : lo + rows, None]
        if mirror:
            c, s = np.cos(2.0 * a), np.sin(2.0 * a)
            maps = [(c, s, s, -c)]
        else:
            c, s = np.cos(a), np.sin(a)
            maps = [(c, -s, s, c), (c, s, -s, c)]
        m11, m12, m21, m22 = maps[0]
        sigma = (shifts[lo : lo + rows, None] + (-index if mirror else index)) % n
        dx = m11 * x + m12 * y - x[sigma]
        dy = m21 * x + m22 * y - y[sigma]
        dz = z - z[sigma]
        accept = (dx * dx + dy * dy + dz * dz).max(axis=1) <= tol * tol - m
        decisions[lo : lo + len(a)][accept] = 1
        live = np.flatnonzero(~accept)
        for p, (m11, m12, m21, m22) in [(p, mp) for p in probes for mp in maps]:
            if not len(live):
                break
            px = m11[live] * x[p] + m12[live] * y[p]
            py = m21[live] * x[p] + m22[live] * y[p]
            dx, dy, dz = px - x, py - y, z[p] - z
            far = np.sqrt((dx * dx + dy * dy + dz * dz).min(axis=1)) > tol + m
            decisions[lo + live[far]] = -1
            live = live[~far]
    return decisions


def detect_symmetries(cone: SupportCone, tol: float | None = None) -> SymmetryReport:
    """Enumerate and verify rotation axes and mirror planes of a cone.

    Rotation candidates come from mapping the first ray onto every ray
    (complete: a symmetry permutes the extreme rays); mirror candidates
    are the planes through the axis bisecting each such ray pair.  Each
    candidate is decided by ``_bound_decisions``, and by its Hausdorff
    distance only where the bounds straddle ``tol``.
    """
    if tol is None:
        tol = default_tol(cone.is_sampled)
    rays = cone.rays
    n = len(rays)
    axis = canonical_axis(cone)
    f1, f2 = orthonormal_basis(axis)
    x, y, height = rays @ f1, rays @ f2, rays @ axis
    theta = np.arctan2(y, x)
    frame_rays = np.column_stack([x, y, height])

    def holds(decision: int, angle: float, mirror: bool) -> bool:
        # the bounds' decision, or the distance where they straddle tol
        if decision:
            return decision > 0
        if mirror:
            normal = -np.sin(angle) * f1 + np.cos(angle) * f2
            return _verify(rays, np.eye(3) - 2.0 * np.outer(normal, normal), tol)
        return _verify(rays, rotation_matrix(axis, angle), tol)

    circ, half = is_right_circular(cone, tol)
    n_samples = cone.source_samples
    if circ and cone.is_sampled and n == n_samples:
        # a sampled exact circle: uniform parameter sampling makes the full
        # dihedral sample group explicit, so spot-verify its generators; the
        # step rotation pairs ray i with ray i + 1 or i - 1 by winding, and
        # either pairing bounds its distance
        step = 2.0 * np.pi / n
        c0 = float(theta[0] % np.pi)
        step_ok = _bound_decisions(frame_rays, np.array([step, step]), np.array([1, -1]), False, tol).max()
        if holds(step_ok, step, False) and holds(
            _bound_decisions(frame_rays, np.array([c0]), np.array([0]), True, tol)[0], c0, True
        ):
            return SymmetryReport(
                axes=(SymmetryAxis(point=np.array(cone.apex), direction=axis, order=n),),
                apex=cone.apex,
                mirror_angles=tuple(np.sort((theta[0] + theta) / 2.0 % np.pi).tolist()),
                basis=(f1, f2),
                is_right_circular=True,
                half_angle=half,
                group_order=INFINITE,
            )

    # a stabilizer element preserves heights along the axis, so a candidate
    # mapping ray 0 to ray j is only possible when their heights agree
    js = np.flatnonzero(np.abs(height - height[0]) <= tol)
    rot_angles = (theta[js] - theta[0]) % (2.0 * np.pi)
    mirror_angles = (theta[0] + theta[js]) / 2.0 % np.pi
    rot_decisions = _bound_decisions(frame_rays, rot_angles, js, False, tol)
    mirror_decisions = _bound_decisions(frame_rays, mirror_angles, js, True, tol)

    verified_rot: list[float] = []
    for j, t, decision in zip(js.tolist(), rot_angles.tolist(), rot_decisions.tolist()):
        if j == 0 or t < 1e-12 or abs(t - 2.0 * np.pi) < 1e-12:
            continue
        if any(abs(t - s) < 1e-10 for s in verified_rot):
            continue
        if holds(decision, t, False):
            verified_rot.append(t)

    verified_mirror: list[float] = []
    for c, decision in zip(mirror_angles.tolist(), mirror_decisions.tolist()):
        if any(min(abs(c - s), np.pi - abs(c - s)) < 1e-10 for s in verified_mirror):
            continue
        if holds(decision, c, True):
            verified_mirror.append(c)

    axes: list[SymmetryAxis] = []
    n_rot = len(verified_rot) + 1
    if n_rot >= 2:
        axes.append(SymmetryAxis(point=np.array(cone.apex), direction=axis, order=n_rot))

    if circ or len(verified_rot) >= _INFINITE_ROTATIONS:
        group: int | str = INFINITE
    else:
        group = n_rot + len(verified_mirror)
    return SymmetryReport(
        axes=tuple(axes),
        apex=cone.apex,
        mirror_angles=tuple(sorted(verified_mirror)),
        basis=(f1, f2),
        is_right_circular=circ,
        half_angle=half,
        group_order=group,
    )


def detect_circle(section: PlanarSection, tol: float = TOL_SAMPLED) -> tuple[bool, np.ndarray, float]:
    """Whether all polygon vertices are equidistant from the fitted center.

    The center is the polygon centroid refined by one least-squares circle
    fit; the radius is the mean vertex distance.  Returns (flag, center in
    plane coordinates, radius).
    """
    poly = section.polygon
    if len(poly) < 8:
        raise ValueError("circle detection needs at least 8 vertices")
    x, y = poly[:, 0], poly[:, 1]
    A = np.column_stack([2.0 * x, 2.0 * y, np.ones(len(poly))])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:2]
    radii = np.linalg.norm(poly - center, axis=1)
    radius = float(radii.mean())
    flag = bool(np.max(np.abs(radii - radius)) <= tol)
    return flag, center, radius


def case_split(report: SymmetryReport) -> str:
    """Branch classification: right_circular, axis_of_symmetry,
    plane_only_finite, or trivial."""
    if report.is_right_circular:
        return "right_circular"
    if report.axes:
        return "axis_of_symmetry"
    if report.mirror_angles:
        return "plane_only_finite"
    return "trivial"
