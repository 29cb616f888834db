"""Support cones of convex bodies: construction from an external apex,
canonical axes, boundary sampling of the spherical image, and planar
cross-sections.

A cone is stored through its spherical image: the cyclically ordered unit
generator directions on the extreme-ray hull.  For polytopes these are the
directions to the visible vertices that survive the hull; for smooth bodies
they are exact tangency directions sampled along the analytic silhouette,
so half-angles carry no discretization bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import APEX_MARGIN, CIRCLE_SPREAD, EPS_GEO, EPS_ORTHO
from .errors import ApexInsideBodyError, UnresolvedConeError
from .geom import (
    ConvexBody3,
    PlaneFrame,
    RigidMotion,
    as_point,
    extreme_cycle,
    orthonormal_basis,
    unit,
)

__all__ = [
    "SupportCone",
    "PlanarSection",
    "support_cone",
    "canonical_axis",
    "cross_section",
    "motion_image",
    "boundary_image_samples",
]


def _salient_witness(dirs: np.ndarray, hint: np.ndarray | None = None) -> np.ndarray:
    """A unit w with <d, w> > 0 for every direction d, certifying that the
    directions fit in an open half-space.  Tries the hint and the mean
    direction first, then falls back to a max-margin linear program."""
    for cand in ([hint] if hint is not None else []) + [dirs.sum(axis=0)]:
        try:
            w = unit(cand)
        except ValueError:
            continue
        if float(np.min(dirs @ w)) > EPS_GEO:
            return w
    from scipy.optimize import linprog  # rarely reached; keeps import time down

    n = len(dirs)
    res = linprog(
        c=np.array([0.0, 0.0, 0.0, -1.0]),
        A_ub=np.hstack([-dirs, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        bounds=[(-1, 1), (-1, 1), (-1, 1), (None, None)],
        method="highs",
    )
    if not res.success or res.x[3] <= EPS_GEO:
        raise ApexInsideBodyError(
            "ray directions do not fit in an open half-space; the apex sees "
            "the body from inside its conical shadow"
        )
    w = unit(res.x[:3])
    if float(np.min(dirs @ w)) <= EPS_GEO:
        raise ApexInsideBodyError("salience margin below tolerance")
    return w


def _dedupe_directions(dirs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Drop the later direction of every pair within ``tol`` of each other.

    Two directions that close differ by at most ``tol`` in every coordinate,
    so after sorting on the coordinate of largest spread each one's
    candidates are the few that follow it within ``tol`` (sort and sweep);
    they are confirmed from their coordinate differences."""
    k = int(np.argmax(dirs.max(axis=0) - dirs.min(axis=0)))
    order = np.argsort(dirs[:, k], kind="stable")
    x = dirs[order, k]
    # twice the window, so that rounding in x + tol cannot drop a candidate
    span = np.searchsorted(x, x + 2.0 * tol, side="right") - np.arange(1, len(x) + 1)
    if not span.any():
        return dirs
    first = np.repeat(np.arange(len(x)), span)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(span) - span, span)
    a, b = order[first], order[second]
    d = dirs[a] - dirs[b]
    keep = np.ones(len(dirs), dtype=bool)
    keep[np.maximum(a, b)[np.einsum("ij,ij->i", d, d) <= tol * tol]] = False
    return dirs[keep]


def _tangent_anchor(rays: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Equivariant in-plane reference: the tangential component of the mean
    ray direction, or of ray 0 when the cone is too symmetric for the mean
    to define one (circles and regular polygons about the axis)."""
    m = rays.mean(axis=0)
    t = m - float(m @ axis) * axis
    if np.linalg.norm(t) <= 1e-6:
        t = rays[0] - float(rays[0] @ axis) * axis
    t = t / np.linalg.norm(t)
    # second orthogonalization pass: normalizing a small component degrades
    # orthogonality to the axis beyond frame tolerance
    t = t - float(t @ axis) * axis
    return t / np.linalg.norm(t)


def _uniform_circle(rays: np.ndarray, axis: np.ndarray) -> bool:
    """Whether the rays lie on a common circle about the axis at uniform
    angular spacing.  For such cones every planar rotation by a ray step is
    a symmetry of the ray set, so the planar grid is redundant and the
    frame anchored at ray 0 finds the optimal basin."""
    ang = np.arccos(np.clip(rays @ axis, -1.0, 1.0))
    if float(ang.max() - ang.min()) > CIRCLE_SPREAD:
        return False
    f1, f2 = orthonormal_basis(axis)
    theta = np.sort(np.arctan2(rays @ f2, rays @ f1))
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    return float(np.max(np.abs(gaps - 2.0 * np.pi / len(theta)))) <= 1e-9


@dataclass(frozen=True, eq=False)
class SupportCone:
    """Apex plus the spherical image of the cone boundary.

    ``rays`` are unit directions in cyclic order around the extreme-ray
    hull.  ``witness`` is a unit vector with positive inner product against
    every ray (the salience certificate).  ``source_samples`` records how
    many silhouette samples produced a sampled cone (0 for polytopal ones).
    """

    apex: np.ndarray
    rays: np.ndarray
    is_sampled: bool = False
    source_samples: int = 0
    witness: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        apex = as_point(self.apex).copy()
        apex.flags.writeable = False
        object.__setattr__(self, "apex", apex)
        rays = np.ascontiguousarray(self.rays, dtype=float)
        if rays.ndim != 2 or rays.shape[1] != 3 or len(rays) < 3:
            raise ValueError("a full-dimensional cone needs at least 3 rays")
        norms = np.linalg.norm(rays, axis=1)
        if np.max(np.abs(norms - 1.0)) > EPS_ORTHO:
            raise ValueError("rays must be unit vectors")
        rays.flags.writeable = False
        object.__setattr__(self, "rays", rays)
        w = unit(self.witness) if self.witness is not None else _salient_witness(rays)
        if float(np.min(rays @ w)) <= EPS_GEO:
            raise ValueError("witness does not certify salience")
        wf = np.ascontiguousarray(w)
        wf.flags.writeable = False
        object.__setattr__(self, "witness", wf)

    @classmethod
    def from_rays(
        cls,
        apex,
        directions,
        is_sampled: bool = False,
        source_samples: int = 0,
        witness_hint=None,
    ) -> "SupportCone":
        """Build a cone from raw directions: normalize, certify salience,
        and keep the extreme rays of the conical hull in cyclic order.

        The extreme rays are found by central (gnomonic) projection onto
        the plane <p, w> = 1 followed by a 2D convex hull; a direction is
        extreme exactly when its projection is a hull vertex.  The rays run
        counterclockwise in the chart ``orthonormal_basis(w)``, and ray 0
        is the first met turning counterclockwise from the chart's
        ``-bu`` direction about the centroid of the projections.
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        dirs = _dedupe_directions(dirs)
        if len(dirs) < 3:
            raise UnresolvedConeError("need at least 3 distinct directions")
        w = _salient_witness(dirs, None if witness_hint is None else np.asarray(witness_hint, float))
        proj = dirs / (dirs @ w)[:, None]
        bu, bv = orthonormal_basis(w)
        pts2 = np.column_stack([proj @ bu, proj @ bv])
        order = extreme_cycle(pts2)  # counterclockwise
        if len(order) < 3:
            raise ValueError("directions are degenerate (flat cone)")
        return cls(
            apex=apex,
            rays=dirs[order],
            is_sampled=is_sampled,
            source_samples=source_samples if is_sampled else 0,
            witness=w,
        )

    @cached_property
    def _axis(self) -> tuple[np.ndarray, float]:
        """Canonical axis and its quality (norm of the raw arc centroid
        relative to total arc length)."""
        r = self.rays
        nxt = np.roll(r, -1, axis=0)
        cosg = np.clip(np.einsum("ij,ij->i", r, nxt), -1.0, 1.0)
        gamma = np.arccos(cosg)
        tang = nxt - cosg[:, None] * r
        tnorm = np.linalg.norm(tang, axis=1)
        safe = tnorm > 1e-15
        that = np.zeros_like(tang)
        that[safe] = tang[safe] / tnorm[safe, None]
        integral = np.sin(gamma)[:, None] * r + (1.0 - np.cos(gamma))[:, None] * that
        total = integral.sum(axis=0)
        length = float(gamma.sum())
        norm = float(np.linalg.norm(total))
        if norm <= EPS_GEO or length <= EPS_GEO:
            # no usable arc centroid; fall back to the salience witness
            return np.array(self.witness), 0.0
        return total / norm, norm / length

    @property
    def axis_quality(self) -> float:
        return self._axis[1]

    @cached_property
    def _anchor(self) -> np.ndarray:
        """Tangent anchor about the canonical axis: the in-plane half of
        the cone's registration frame."""
        t = _tangent_anchor(self.rays, self._axis[0])
        t.flags.writeable = False
        return t

    @cached_property
    def _is_uniform_circle(self) -> bool:
        """Whether the rays are an exact circle about the canonical axis."""
        return _uniform_circle(self.rays, self._axis[0])

    @cached_property
    def _diameter(self) -> float:
        """Chordal diameter of the ray set, an O(3)-invariant.  Pairs are
        selected by smallest inner product and measured from their
        coordinate differences."""
        r = self.rays
        g = r @ r.T
        # |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, and every ray is unit to within
        # EPS_ORTHO, so the farthest pair's inner product is within
        # 4 EPS_ORTHO (plus rounding) of the smallest: it is among those kept
        a, b = np.nonzero(g <= g.min() + 5.0 * EPS_ORTHO)
        d = r[a] - r[b]
        return float(np.sqrt(np.add.reduce(d * d, 1).max()))


def support_cone(
    body: ConvexBody3,
    x,
    samples: int = 256,
    apex_margin: float = APEX_MARGIN,
) -> SupportCone:
    """The support cone of a body from an external apex.

    Polytopes contribute the directions to their vertices; smooth bodies
    contribute ``samples`` exact tangency directions along the silhouette
    circle (the polar curve of the apex).  Apexes inside the body, or
    closer than ``apex_margin`` to its surface, are rejected.
    """
    apex = as_point(x)
    if body.kind == "polytope":
        slack = body.facet_normals @ apex - body.facet_offsets
        worst = int(np.argmax(slack))
        if float(slack[worst]) <= apex_margin:
            raise ApexInsideBodyError(
                "apex lies inside the body or within margin of its boundary"
            )
        dirs = body.vertices - apex
        return SupportCone.from_rays(apex, dirs, witness_hint=-body.facet_normals[worst])

    if not body.is_smooth:
        raise ValueError(f"unsupported body kind {body.kind!r}")
    if samples < 3:
        raise ValueError("smooth bodies need at least 3 silhouette samples")
    ainv = body.inv_scale_matrix()
    scale = body.scale_matrix()
    with np.errstate(over="ignore"):
        z0 = ainv @ (apex - body.center)
        nz = float(np.linalg.norm(z0))
    if not np.isfinite(nz):
        raise UnresolvedConeError("the apex distance in units of the body's semi-axes overflows")
    if float(np.min(body.semi_axes) if body.kind == "ellipsoid" else body.radius) * (nz - 1.0) <= apex_margin:
        raise ApexInsideBodyError(
            "apex lies inside the body or within margin of its boundary"
        )
    zc = z0 / nz**2
    rho = np.sqrt(1.0 - 1.0 / nz**2)
    bu, bv = orthonormal_basis(z0 / nz)
    phi = 2.0 * np.pi * np.arange(samples) / samples
    zs = zc + rho * (np.outer(np.cos(phi), bu) + np.outer(np.sin(phi), bv))
    ys = body.center + zs @ scale.T
    dirs = ys - apex
    return SupportCone.from_rays(
        apex, dirs, is_sampled=True, source_samples=samples,
        witness_hint=dirs.sum(axis=0),
    )


def canonical_axis(cone: SupportCone) -> np.ndarray:
    """Unit direction from the apex into the cone interior: the normalized
    arc-length-weighted centroid of the spherical-image boundary.

    Rotation-equivariant, and equal to the symmetry axis whenever the cone
    has one.
    """
    return np.array(cone._axis[0])


def boundary_image_samples(cone: SupportCone, max_step: float = 2.0 * np.pi / 256) -> np.ndarray:
    """Points along the spherical-image boundary: the extreme rays plus
    geodesic interpolants so that no arc step exceeds ``max_step``.

    Polyhedral cone boundaries include the arcs between extreme rays, where
    the angle to the axis dips below the vertex values; tests of circularity
    must sample them.
    """
    r = cone.rays
    nxt = np.roll(r, -1, axis=0)
    cosg = np.clip(np.einsum("ij,ij->i", r, nxt), -1.0, 1.0)
    gamma = np.arccos(cosg)
    out = [r]
    for i in range(len(r)):
        k = int(np.ceil(gamma[i] / max_step))
        if k <= 1:
            continue
        t = np.arange(1, k) / k
        sg = np.sin(gamma[i])
        pts = (np.outer(np.sin((1 - t) * gamma[i]), r[i]) + np.outer(np.sin(t * gamma[i]), nxt[i])) / sg
        out.append(pts)
    return np.vstack(out)


def cross_section(cone: SupportCone, distance: float) -> "PlanarSection":
    """Cut the cone with the plane perpendicular to its canonical axis at
    the given distance from the apex.

    The section frame is centered at the axis foot with its normal pointing
    back toward the apex; polygon vertices are the ray crossings in
    counterclockwise order.
    """
    if distance <= 0:
        raise ValueError("cross-section distance must be positive")
    axis = canonical_axis(cone)
    speed = cone.rays @ axis
    if float(np.min(speed)) <= EPS_GEO:
        raise ValueError(
            "cross-section plane does not meet every generator; the cone "
            "opens wider than its canonical axis frame"
        )
    t = distance / speed
    points = cone.apex + t[:, None] * cone.rays
    frame = PlaneFrame.from_normal(cone.apex + distance * axis, -axis)
    poly = frame.to_plane_coords(points)
    area2 = float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]))
    if area2 < 0:
        poly = poly[::-1]
    return PlanarSection(frame=frame, polygon=poly)


@dataclass(frozen=True, eq=False)
class PlanarSection:
    """A convex polygon in an oriented plane frame, counterclockwise in
    the frame's (basis_u, basis_v) coordinates.  The frame normal points
    toward the apex the section was cut from."""

    frame: PlaneFrame
    polygon: np.ndarray

    def __post_init__(self):
        poly = np.ascontiguousarray(self.polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
            raise ValueError("polygon needs at least 3 2D vertices")
        area2 = float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]))
        if area2 <= 0:
            raise ValueError("polygon must be counterclockwise with positive area")
        poly.flags.writeable = False
        object.__setattr__(self, "polygon", poly)

    def embedded(self) -> np.ndarray:
        """Polygon vertices as 3D points."""
        return self.frame.to_space(self.polygon)


def motion_image(phi: RigidMotion, cone: SupportCone) -> SupportCone:
    """Image of a cone under a rigid motion: apex moves, rays rotate, the
    extreme-ray structure is preserved."""
    return SupportCone(
        apex=phi.transform(cone.apex),
        rays=cone.rays @ phi.omega.T,
        is_sampled=cone.is_sampled,
        source_samples=cone.source_samples,
        witness=phi.omega @ cone.witness,
    )
