"""Foundational 3D geometry: rigid motions, convex bodies, oriented planes,
and the Hausdorff metric on finite point sets.

Conventions used throughout the package:

* points, vectors and directions are numpy arrays of shape ``(3,)``
  (batches are ``(n, 3)``),
* angles are radians,
* values are immutable after construction and safe to share between
  concurrent callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EPS_DET, EPS_GEO, EPS_ORTHO, REPROJECT_AFTER

__all__ = [
    "PlaneFrame",
    "RigidMotion",
    "ConvexBody3",
    "apply_motion",
    "compose",
    "inverse",
    "rotation_about_line",
    "reflection_in_plane",
    "hausdorff_distance",
    "extreme_cycle",
    "facet_normals",
    "rotation_matrix",
    "minimal_rotation",
    "orthonormal_basis",
    "cross3",
    "unit",
    "read_off",
    "read_off_vertices",
    "polytope_from_off",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {arr.shape}")
    return arr


def _finite(name: str, value) -> np.ndarray:
    """``value`` as a float array, rejecting NaN and infinite entries by
    field name."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def unit(v) -> np.ndarray:
    """Normalize a vector; rejects near-zero input."""
    arr = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(arr))
    if n <= EPS_GEO:
        raise ValueError("cannot normalize a near-zero vector")
    return arr / n


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, bit for bit ``np.cross(a, b)``: the
    same products and differences on Python floats, without the array
    machinery that dominates ``np.cross`` on single vectors."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def orthonormal_basis(normal) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed completion (u, v) of a unit normal n,
    with u x v = n."""
    n = unit(normal)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(n)))] = 1.0
    u = unit(cross3(helper, n))
    v = cross3(n, u)
    return u, v


def rotation_matrix(direction, theta: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit direction through the origin."""
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > EPS_ORTHO:
        raise ValueError("rotation direction must be a unit vector")
    x, y, z = d
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def minimal_rotation(a, b) -> np.ndarray:
    """The rotation matrix of smallest angle taking unit vector a to b.

    Near-antipodal inputs have no minimal choice; a half-turn about a
    deterministic perpendicular axis is returned instead.
    """
    a = unit(a)
    b = unit(b)
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-15:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        axis, _ = orthonormal_basis(a)
        return rotation_matrix(axis, np.pi)
    axis = unit(cross3(a, b))
    return rotation_matrix(axis, float(np.arccos(np.clip(c, -1.0, 1.0))))


@dataclass(frozen=True, eq=False)
class PlaneFrame:
    """An oriented plane with an in-plane orthonormal basis.

    ``(basis_u, basis_v, normal)`` form a right-handed orthonormal triple:
    ``basis_u x basis_v = normal``.
    """

    origin: np.ndarray
    normal: np.ndarray
    basis_u: np.ndarray
    basis_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _freeze(as_point(self.origin)))
        for name in ("normal", "basis_u", "basis_v"):
            vec = as_point(getattr(self, name))
            if abs(np.linalg.norm(vec) - 1.0) > EPS_ORTHO:
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, _freeze(vec))
        trip = (self.basis_u, self.basis_v, self.normal)
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(float(np.dot(trip[i], trip[j]))) > EPS_ORTHO:
                    raise ValueError("frame vectors must be pairwise orthogonal")
        if np.max(np.abs(cross3(self.basis_u, self.basis_v) - self.normal)) > 1e-10:
            raise ValueError("frame must be right-handed: basis_u x basis_v = normal")

    @classmethod
    def from_normal(cls, origin, normal) -> "PlaneFrame":
        u, v = orthonormal_basis(normal)
        return cls(origin=as_point(origin), normal=unit(normal), basis_u=u, basis_v=v)

    def to_plane_coords(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.origin
        return np.column_stack([pts @ self.basis_u, pts @ self.basis_v])

    def to_space(self, coords) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(coords, dtype=float))
        return self.origin + np.outer(xy[:, 0], self.basis_u) + np.outer(xy[:, 1], self.basis_v)


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """A map ``p -> a + omega @ p`` with orthogonal ``omega`` (det +1 or -1).

    ``steps`` counts accumulated compositions; once it exceeds the
    re-projection budget the orthogonal part is snapped back onto O(3) by
    polar decomposition.
    """

    omega: np.ndarray
    a: np.ndarray
    steps: int = 0

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if om.shape != (3, 3):
            raise ValueError("omega must be a 3x3 matrix")
        if np.max(np.abs(om.T @ om - np.eye(3))) > EPS_ORTHO:
            raise ValueError("omega must be orthogonal within 1e-12")
        det = float(np.linalg.det(om))
        if abs(abs(det) - 1.0) > EPS_DET:
            raise ValueError("omega must have determinant +1 or -1")
        object.__setattr__(self, "omega", _freeze(om))
        object.__setattr__(self, "a", _freeze(as_point(self.a)))

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(omega=np.eye(3), a=np.zeros(3))

    @property
    def det(self) -> float:
        return float(np.sign(np.linalg.det(self.omega)))

    def transform(self, points) -> np.ndarray:
        """Apply to one point (3,) or a batch (n, 3)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return self.omega @ pts + self.a
        return pts @ self.omega.T + self.a

    def rotate(self, vectors) -> np.ndarray:
        """Apply only the orthogonal part (for directions)."""
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim == 1:
            return self.omega @ vecs
        return vecs @ self.omega.T


def apply_motion(phi: RigidMotion, p) -> np.ndarray:
    """Image ``a + omega @ p`` of a point under a rigid motion."""
    return phi.transform(as_point(p))


def compose(phi1: RigidMotion, phi2: RigidMotion) -> RigidMotion:
    """phi1 after phi2: ``omega = omega1 @ omega2``, ``a = a1 + omega1 @ a2``."""
    omega = phi1.omega @ phi2.omega
    a = phi1.a + phi1.omega @ phi2.a
    steps = phi1.steps + phi2.steps + 1
    if steps > REPROJECT_AFTER:
        u, _, vh = np.linalg.svd(omega)
        omega = u @ vh  # the orthogonal polar factor
        steps = 0
    return RigidMotion(omega=omega, a=a, steps=steps)


def inverse(phi: RigidMotion) -> RigidMotion:
    return RigidMotion(omega=phi.omega.T, a=-(phi.omega.T @ phi.a), steps=phi.steps)


def rotation_about_line(point, direction, theta: float) -> RigidMotion:
    """Rotation by ``theta`` about the line through ``point`` with the given
    unit ``direction``.  Fixes every point of the line."""
    p = as_point(point)
    om = rotation_matrix(direction, theta)
    return RigidMotion(omega=om, a=p - om @ p)


def reflection_in_plane(frame: PlaneFrame) -> RigidMotion:
    """Reflection across the plane of ``frame``: an involution with
    det(omega) = -1 fixing the plane pointwise."""
    n = frame.normal
    om = np.eye(3) - 2.0 * np.outer(n, n)
    return RigidMotion(omega=om, a=frame.origin - om @ frame.origin)


def _nearest_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Index of the nearest row of Q for every row of P: the largest lifted
    product ``[p, 1] . [q, -|q|^2 / 2]``."""
    lifted_p = np.hstack([P, np.ones((len(P), 1))])
    lifted_q = np.hstack([Q, -0.5 * np.einsum("ij,ij->i", Q, Q)[:, None]])
    return (lifted_p @ lifted_q.T).argmax(axis=1)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two finite point sets of equal
    dimension (2 or 3).  Zero exactly when the sets coincide.

    Nearest points are selected about the centre of ``b`` (so the selection
    does not depend on where the sets lie), and distances are taken from
    the differences of the selected pairs."""
    A = np.atleast_2d(np.asarray(a, dtype=float))
    B = np.atleast_2d(np.asarray(b, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("hausdorff_distance requires nonempty point sets")
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("point sets must share one dimension")
    if A.shape[1] not in (2, 3):
        raise ValueError("only 2D and 3D point sets are supported")
    c = B.mean(axis=0)
    nn_ab = _nearest_rows(A - c, B - c)
    nn_ba = _nearest_rows(B - c, A - c)
    return float(
        max(
            np.linalg.norm(A - B[nn_ab], axis=1).max(),
            np.linalg.norm(A[nn_ba] - B, axis=1).max(),
        )
    )


# ---------------------------------------------------------------------------
# convex hulls


def extreme_cycle(pts: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the convex hull of distinct 2D points,
    counterclockwise; fewer than 3 when the points are collinear.

    The points are sorted by angle about their centroid, which lies inside
    the hull whenever the hull has area, so the sorted cycle is a polygon
    star-shaped about it.  A vertex of that polygon that does not turn left
    lies in the triangle of the centroid and its two neighbours, so it is
    not extreme, and dropping any set of such vertices leaves the hull as
    it was.  They are dropped together until every vertex turns left
    (Graham, 1972).  Turns whose sine is within ``EPS_ORTHO`` of zero count
    as straight, so points on a hull edge are not vertices."""
    d = pts - pts.mean(axis=0)
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")
    while len(order) >= 3:
        # e[k] is the edge into vertex k of the cycle and e[k + 1] the edge out
        e = np.diff(pts[np.concatenate((order[-1:], order, order[:1]))], axis=0)
        turn = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
        length = np.hypot(e[:, 0], e[:, 1])
        left = turn > EPS_ORTHO * length[:-1] * length[1:]
        if left.all():
            break
        order = order[left]
    return order


def _wrap(X: np.ndarray, u: int, e: np.ndarray, n: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Rotate the supporting plane with outward unit normal ``n`` about the
    line through ``X[u]`` along the unit direction ``e`` (which lies in the
    plane), toward ``m = e x n``, until it meets a point not on the line.
    Returns the new outward unit normal and that point's index.

    A point ``v = r m + s n`` (plus a part along e) off the line has angle
    ``a = atan2(-s, r)`` about it, and the plane of normal ``cos t n +
    sin t m`` supports it while t <= a, so the first point met has the
    smallest angle; the normal then is ``(r n - s m) / |v x e|``, that is
    ``v x e`` normalized."""
    v = X - X[u]
    r, s = v @ cross3(e, n), v @ n
    off = r * r + s * s > tol * tol
    if not off.any():
        raise ValueError("polytope is not full-dimensional")
    # points in the old plane behind the line have s = 0 up to round-off;
    # clamping keeps their angle at pi rather than -pi
    angle = np.where(off, np.arctan2(np.maximum(-s, 0.0), r), np.inf)
    p = int(np.argmin(angle))
    normal = cross3(v[p], e)
    return normal / np.sqrt(normal @ normal), p


def facet_normals(verts: np.ndarray) -> np.ndarray:
    """Outward unit normals of the facets of the convex hull of the rows of
    ``verts``, one per facet however many points it holds.

    Gift wrapping (Chand & Kapur, 1970): the plane of smallest x is turned
    about a line through its point and then about the line to the point it
    meets, which gives the first facet.  Each facet's polygon (the
    ``extreme_cycle`` of its points) gives the edges across which the next
    facets are wrapped, one wrap per facet, so the work grows with the
    number of points times the number of facets.  Points within
    ``EPS_ORTHO`` times the body's radius of a facet's plane lie on it.
    Raises ``ValueError`` for points that span no volume and for points
    that are no hull vertex, as edge midpoints, face centres and interior
    points are not."""
    X = verts - verts.mean(axis=0)
    tol = EPS_ORTHO * float(np.sqrt(np.einsum("ij,ij->i", X, X).max()))
    a = int(np.lexsort(X.T[::-1])[0])
    n, p = _wrap(X, a, np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]), tol)
    normals, corners, known = [], set(), set()
    todo = [(a, p, n)]
    while todo:
        i, j, n = todo.pop()
        if (j, i) in known:
            continue  # the facet across this edge is known
        e = X[j] - X[i]
        e /= np.sqrt(e @ e)
        n = _wrap(X, i, e, n, tol)[0]
        height = X @ n
        on = np.flatnonzero(height >= height.max() - tol)
        if len(on) == len(X):
            raise ValueError("polytope is not full-dimensional")
        # the line lies in the new facet, so (e, n x e) is a right-handed
        # chart of its plane: counterclockwise there is seen from outside
        cycle = on[extreme_cycle(X[on] @ np.column_stack([e, cross3(n, e)]))].tolist()
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        if not known.isdisjoint(edges):
            continue  # round-off led back to a known facet
        known.update(edges)
        corners.update(cycle)
        normals.append(n)
        todo += [(i, j, n) for i, j in edges]
    if len(corners) != len(X):
        raise ValueError("every listed vertex must be an extreme point")
    return np.array(normals)


# ---------------------------------------------------------------------------
# convex bodies


@dataclass(frozen=True, eq=False)
class ConvexBody3:
    """A full-dimensional convex body: a polytope given by its extreme
    vertices, or a ball / ellipsoid given analytically.

    Smooth kinds carry an exact support description and are sampled to a
    polytope on demand (tangent cones use the analytic silhouette, so no
    sampling bias enters half-angles).
    """

    kind: str
    vertices: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    semi_axes: np.ndarray | None = None
    orientation: np.ndarray | None = None
    facet_normals: np.ndarray | None = field(default=None, repr=False)
    facet_offsets: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def polytope(cls, vertices) -> "ConvexBody3":
        verts = _finite("vertices", vertices)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError("polytope vertices must be an (n, 3) array")
        if len(verts) < 4:
            raise ValueError("a full-dimensional polytope needs at least 4 vertices")
        normals = facet_normals(verts)
        offsets = (verts @ normals.T).max(axis=0)
        return cls(
            kind="polytope",
            vertices=_freeze(verts),
            facet_normals=_freeze(normals),
            facet_offsets=_freeze(offsets),
        )

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexBody3":
        r = float(radius)
        _finite("radius", r)
        if r <= 0:
            raise ValueError("ball radius must be positive")
        return cls(kind="ball", center=_freeze(as_point(_finite("center", center))), radius=r)

    @classmethod
    def ellipsoid(cls, center, semi_axes, orientation=None) -> "ConvexBody3":
        axes = _finite("semi_axes", semi_axes)
        if axes.shape != (3,) or np.any(axes <= 0):
            raise ValueError("ellipsoid needs three positive semi-axes")
        if orientation is None:
            om = np.eye(3)
        else:
            om = _finite("orientation", orientation)
            if om.shape != (3, 3) or np.max(np.abs(om.T @ om - np.eye(3))) > EPS_ORTHO:
                raise ValueError("orientation must be orthogonal within 1e-12")
        return cls(
            kind="ellipsoid",
            center=_freeze(as_point(_finite("center", center))),
            semi_axes=_freeze(axes),
            orientation=_freeze(om),
        )

    @property
    def is_smooth(self) -> bool:
        return self.kind in ("ball", "ellipsoid")

    def scale_matrix(self) -> np.ndarray:
        """A with body = {center + A z : |z| <= 1} for smooth kinds."""
        if self.kind == "ball":
            return self.radius * np.eye(3)
        if self.kind == "ellipsoid":
            return self.orientation @ np.diag(self.semi_axes)
        raise ValueError("scale_matrix is defined for smooth bodies only")

    def inv_scale_matrix(self) -> np.ndarray:
        if self.kind == "ball":
            return np.eye(3) / self.radius
        if self.kind == "ellipsoid":
            return np.diag(1.0 / self.semi_axes) @ self.orientation.T
        raise ValueError("inv_scale_matrix is defined for smooth bodies only")

    def centroid(self) -> np.ndarray:
        """Reference interior point: vertex mean for polytopes, the center
        for smooth bodies."""
        if self.kind == "polytope":
            return self.vertices.mean(axis=0)
        return np.array(self.center)

    def surface_margin(self, point) -> float:
        """Signed separation estimate from the body surface: positive
        outside, negative inside.

        Exact for balls; for polytopes and ellipsoids it is a lower bound
        on the true distance when outside (never overstates clearance).
        """
        p = as_point(point)
        if self.kind == "ball":
            return float(np.linalg.norm(p - self.center) - self.radius)
        if self.kind == "ellipsoid":
            z = self.inv_scale_matrix() @ (p - self.center)
            return float(np.min(self.semi_axes) * (np.linalg.norm(z) - 1.0))
        return float(np.max(self.facet_normals @ p - self.facet_offsets))

    def contains(self, point, margin: float = 0.0) -> bool:
        return self.surface_margin(point) <= -margin

    def boundary_samples(self, n: int = 256) -> np.ndarray:
        """Deterministic points on the body surface: the vertex set for
        polytopes, a Fibonacci sample mapped through the scale matrix for
        smooth bodies."""
        if self.kind == "polytope":
            return np.array(self.vertices)
        dirs = fibonacci_directions(n)
        return self.center + dirs @ self.scale_matrix().T

    def ray_exits(self, origin, directions) -> np.ndarray:
        """Exit points of rays from an interior origin through the surface."""
        o = as_point(origin)
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        if not self.contains(o):
            raise ValueError("ray origin must lie inside the body")
        if self.kind == "polytope":
            slack = self.facet_offsets - self.facet_normals @ o
            speed = dirs @ self.facet_normals.T
            with np.errstate(divide="ignore"):
                t_all = np.where(speed > EPS_GEO, slack / np.maximum(speed, EPS_GEO), np.inf)
            t = t_all.min(axis=1)
        else:
            ainv = self.inv_scale_matrix()
            z0 = ainv @ (o - self.center)
            dz = dirs @ ainv.T
            alpha = np.einsum("ij,ij->i", dz, dz)
            beta = dz @ z0
            gamma = float(z0 @ z0) - 1.0
            t = (-beta + np.sqrt(beta**2 - alpha * gamma)) / alpha
        return o + t[:, None] * dirs


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions (golden-angle spiral)."""
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


# ---------------------------------------------------------------------------
# OFF ingestion


def read_off(path) -> tuple[np.ndarray, list[list[int]]]:
    """Read an OFF mesh file; returns (vertices, faces as index lists)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens: list[str] = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens:
        raise ValueError("empty OFF file")
    if tokens[0].upper() == "OFF":
        tokens = tokens[1:]
    nv, nf = int(tokens[0]), int(tokens[1])
    pos = 3  # skip edge count
    verts = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        k = int(tokens[pos])
        faces.append([int(t) for t in tokens[pos + 1 : pos + 1 + k]])
        pos += 1 + k
    return verts, faces


def read_off_vertices(path) -> np.ndarray:
    """Vertex list of an OFF file (faces ignored)."""
    verts, _ = read_off(path)
    return verts


def polytope_from_off(path) -> ConvexBody3:
    """Build a polytope body from the vertex list of an OFF file."""
    return ConvexBody3.polytope(read_off_vertices(path))
