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

    Mirror planes pass through ``apex`` and are stored by their unit
    normals; the ``planes`` frames are built when first read.
    ``group_order`` counts rotations (identity included) plus reflections,
    or is ``"infinite"`` for right circular cones and cones where more
    rotation orders verify than the finite-group cutoff.
    """

    axes: tuple
    apex: np.ndarray
    mirror_normals: tuple
    is_right_circular: bool
    half_angle: float | None
    group_order: int | str

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


def detect_symmetries(cone: SupportCone, tol: float | None = None) -> SymmetryReport:
    """Enumerate and verify rotation axes and mirror planes of a cone.

    Rotation candidates come from mapping the first ray onto every ray
    (complete: a symmetry permutes the extreme rays); mirror candidates
    are the planes through the axis bisecting each such ray pair.
    """
    if tol is None:
        tol = default_tol(cone.is_sampled)
    rays = cone.rays
    n = len(rays)
    axis = canonical_axis(cone)
    f1, f2 = orthonormal_basis(axis)
    theta = np.arctan2(rays @ f2, rays @ f1)
    height = rays @ axis

    circ, half = is_right_circular(cone, tol)
    n_samples = cone.source_samples
    if circ and cone.is_sampled and n == n_samples:
        # a sampled exact circle: uniform parameter sampling makes the full
        # dihedral sample group explicit, so spot-verify its generators
        step = 2.0 * np.pi / n
        c0 = float(theta[0] % np.pi)
        if _verify(rays, rotation_matrix(axis, step), tol) and _verify(
            rays,
            np.eye(3) - 2.0 * np.outer(-np.sin(c0) * f1 + np.cos(c0) * f2, -np.sin(c0) * f1 + np.cos(c0) * f2),
            tol,
        ):
            mirrors = sorted(float((theta[0] + theta[j]) / 2.0 % np.pi) for j in range(n))
            return SymmetryReport(
                axes=(SymmetryAxis(point=np.array(cone.apex), direction=axis, order=n),),
                apex=cone.apex,
                mirror_normals=tuple(-np.sin(c) * f1 + np.cos(c) * f2 for c in mirrors),
                is_right_circular=True,
                half_angle=half,
                group_order=INFINITE,
            )

    # a stabilizer element preserves heights along the axis, so a candidate
    # mapping ray 0 to ray j is only possible when their heights agree
    compatible = np.abs(height - height[0]) <= tol

    verified_rot: list[float] = []
    for j in range(1, n):
        if not compatible[j]:
            continue
        t = float((theta[j] - theta[0]) % (2.0 * np.pi))
        if t < 1e-12 or abs(t - 2.0 * np.pi) < 1e-12:
            continue
        if any(abs(t - s) < 1e-10 for s in verified_rot):
            continue
        if _verify(rays, rotation_matrix(axis, t), tol):
            verified_rot.append(t)

    verified_mirror: list[float] = []
    for j in range(n):
        if not compatible[j]:
            continue
        c = float((theta[0] + theta[j]) / 2.0 % np.pi)
        if any(min(abs(c - s), np.pi - abs(c - s)) < 1e-10 for s in verified_mirror):
            continue
        normal = -np.sin(c) * f1 + np.cos(c) * f2
        omega = np.eye(3) - 2.0 * np.outer(normal, normal)
        if _verify(rays, omega, tol):
            verified_mirror.append(c)

    axes: list[SymmetryAxis] = []
    n_rot = len(verified_rot) + 1
    if n_rot >= 2:
        axes.append(SymmetryAxis(point=np.array(cone.apex), direction=axis, order=n_rot))

    normals = tuple(-np.sin(c) * f1 + np.cos(c) * f2 for c in sorted(verified_mirror))

    if circ or len(verified_rot) >= _INFINITE_ROTATIONS:
        group: int | str = INFINITE
    else:
        group = n_rot + len(normals)
    return SymmetryReport(
        axes=tuple(axes),
        apex=cone.apex,
        mirror_normals=normals,
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
    if report.mirror_normals:
        return "plane_only_finite"
    return "trivial"
