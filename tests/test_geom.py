import numpy as np
import pytest
from hypothesis import given, strategies as st

from conekit.geom import (
    ConvexBody3,
    PlaneFrame,
    RigidMotion,
    apply_motion,
    compose,
    hausdorff_distance,
    inverse,
    polytope_from_off,
    read_off,
    reflection_in_plane,
    rotation_about_line,
)
from conftest import random_motion

unit_angle = st.floats(min_value=-np.pi, max_value=np.pi)


def test_apply_motion_identity():
    phi = RigidMotion.identity()
    assert np.allclose(apply_motion(phi, [1, 2, 3]), [1, 2, 3])


def test_apply_motion_half_turn_about_z():
    phi = rotation_about_line([0, 0, 0], [0, 0, 1], np.pi)
    assert np.allclose(apply_motion(phi, [1, 0, 0]), [-1, 0, 0], atol=1e-12)


def test_apply_motion_reflection_with_translation():
    # z -> -z then shift by (0,0,2): fixes (0,0,1)
    frame = PlaneFrame.from_normal([0, 0, 0], [0, 0, 1])
    refl = reflection_in_plane(frame)
    phi = RigidMotion(omega=refl.omega, a=np.array([0.0, 0.0, 2.0]))
    assert np.allclose(apply_motion(phi, [0, 0, 1]), [0, 0, 1], atol=1e-12)


def test_motions_preserve_distances(rng):
    for _ in range(50):
        phi = random_motion(rng)
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        d0 = np.linalg.norm(p - q)
        d1 = np.linalg.norm(apply_motion(phi, p) - apply_motion(phi, q))
        assert abs(d1 - d0) <= 1e-12 * (1.0 + d0)


def test_compose_identity_and_inverse(rng):
    phi = random_motion(rng)
    ident = compose(phi, inverse(phi))
    assert np.allclose(ident.omega, np.eye(3), atol=1e-12)
    assert np.allclose(ident.a, 0, atol=1e-12)
    assert np.allclose(compose(RigidMotion.identity(), phi).omega, phi.omega)


def test_compose_angle_addition():
    quarter = rotation_about_line([0, 0, 0], [0, 0, 1], np.pi / 2)
    half = rotation_about_line([0, 0, 0], [0, 0, 1], np.pi)
    two = compose(quarter, quarter)
    assert np.allclose(two.omega, half.omega, atol=1e-12)


def test_compose_associative(rng):
    for _ in range(25):
        a, b, c = (random_motion(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.omega - right.omega)) <= 1e-12
        assert np.max(np.abs(left.a - right.a)) <= 1e-10


def test_long_composition_reprojects(rng):
    phi = random_motion(rng)
    acc = RigidMotion.identity()
    for _ in range(100):
        acc = compose(acc, phi)
    assert np.max(np.abs(acc.omega.T @ acc.omega - np.eye(3))) <= 1e-12


def test_rotation_about_line_fixes_line_and_trace(rng):
    p = np.array([1.0, 1.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    theta = 1.234
    phi = rotation_about_line(p, d, theta)
    for t in (-2.0, 0.0, 3.5):
        q = p + t * d
        assert np.allclose(apply_motion(phi, q), q, atol=1e-12)
    assert abs(np.trace(phi.omega) - (1 + 2 * np.cos(theta))) <= 1e-9
    assert np.linalg.det(phi.omega) > 0


def test_rotation_quarter_turn_example():
    phi = rotation_about_line([0, 0, 0], [0, 0, 1], 2 * np.pi / 4)
    assert np.allclose(apply_motion(phi, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_rotation_zero_angle_is_identity():
    phi = rotation_about_line([3, 2, 1], [0, 1, 0], 0.0)
    assert np.allclose(phi.omega, np.eye(3))
    assert np.allclose(phi.a, 0, atol=1e-12)


def test_rotation_half_turn_offset_axis():
    phi = rotation_about_line([1, 1, 0], [0, 0, 1], np.pi)
    assert np.allclose(apply_motion(phi, [2, 1, 0]), [0, 1, 0], atol=1e-12)


def test_rotation_order_n_iterates_to_identity(rng):
    for n in range(2, 13):
        p = rng.standard_normal(3)
        d = rng.standard_normal(3)
        d = d / np.linalg.norm(d)
        phi = rotation_about_line(p, d, 2 * np.pi / n)
        acc = RigidMotion.identity()
        for _ in range(n):
            acc = compose(phi, acc)
        assert np.max(np.abs(acc.omega - np.eye(3))) <= 1e-10
        assert np.max(np.abs(acc.a)) <= 1e-10


def test_rotation_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        rotation_about_line([0, 0, 0], [0, 0, 2], 1.0)


def test_reflection_examples_and_involution(rng):
    frame = PlaneFrame.from_normal([0, 0, 0], [0, 0, 1])
    refl = reflection_in_plane(frame)
    assert np.allclose(apply_motion(refl, [0, 0, 3]), [0, 0, -3], atol=1e-12)
    assert np.allclose(apply_motion(refl, [5, -2, 0]), [5, -2, 0], atol=1e-12)
    assert np.linalg.det(refl.omega) < 0

    offset = reflection_in_plane(PlaneFrame.from_normal([0, 0, 1], [0, 0, 1]))
    assert np.allclose(apply_motion(offset, [0, 0, 0]), [0, 0, 2], atol=1e-12)

    for _ in range(10):
        f = PlaneFrame.from_normal(rng.standard_normal(3), rng.standard_normal(3))
        r = reflection_in_plane(f)
        twice = compose(r, r)
        assert np.max(np.abs(twice.omega - np.eye(3))) <= 1e-12
        assert np.max(np.abs(twice.a)) <= 1e-12


def test_hausdorff_examples():
    assert hausdorff_distance([(0, 0), (1, 0)], [(0, 0), (1, 0)]) == 0.0
    assert hausdorff_distance([(0, 0)], [(3, 4)]) == 5.0
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    assert abs(hausdorff_distance(square, square + [0.1, 0]) - 0.1) <= 1e-15


def test_hausdorff_rejects_empty():
    with pytest.raises(ValueError):
        hausdorff_distance(np.empty((0, 2)), [(0, 0)])


def test_hausdorff_symmetry_and_triangle(rng):
    for _ in range(30):
        A = rng.standard_normal((rng.integers(1, 8), 3))
        B = rng.standard_normal((rng.integers(1, 8), 3))
        C = rng.standard_normal((rng.integers(1, 8), 3))
        ab = hausdorff_distance(A, B)
        assert ab == hausdorff_distance(B, A)
        assert ab <= hausdorff_distance(A, C) + hausdorff_distance(C, B) + 1e-12


@given(st.integers(min_value=2, max_value=10))
def test_frame_construction_is_orthonormal(seed):
    rng = np.random.default_rng(seed)
    f = PlaneFrame.from_normal(rng.standard_normal(3), rng.standard_normal(3))
    for v in (f.normal, f.basis_u, f.basis_v):
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
    assert np.allclose(np.cross(f.basis_u, f.basis_v), f.normal, atol=1e-12)


class TestConvexBody:
    def test_polytope_requires_full_dimension(self):
        with pytest.raises(ValueError):
            ConvexBody3.polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="polytope is not full-dimensional"):
            ConvexBody3.polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        with pytest.raises(ValueError, match="polytope is not full-dimensional"):
            ConvexBody3.polytope([[t, 2 * t, -t] for t in range(5)])

    def test_polytope_rejects_non_extreme_vertex(self):
        pts = [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [0.5, 0.5, 0.5]]
        with pytest.raises(ValueError, match="every listed vertex must be an extreme point"):
            ConvexBody3.polytope(pts)

    @pytest.mark.parametrize("extra", [[0.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.3, -0.2, 1.0]])
    def test_polytope_rejects_boundary_point_that_is_no_vertex(self, extra):
        # an edge midpoint, a face centre and another point of a face lie on
        # the hull but are not extreme
        cube = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        for at in (0, 4, 8):
            with pytest.raises(ValueError, match="every listed vertex must be an extreme point"):
                ConvexBody3.polytope(cube[:at] + [extra] + cube[at:])

    def test_ball_and_ellipsoid_validation(self):
        with pytest.raises(ValueError):
            ConvexBody3.ball([0, 0, 0], 0.0)
        with pytest.raises(ValueError):
            ConvexBody3.ellipsoid([0, 0, 0], [1, -1, 1])
        with pytest.raises(ValueError):
            ConvexBody3.ellipsoid([0, 0, 0], [1, 1, 1], np.eye(3) * 1.01)

    def test_surface_margin_signs(self):
        ball = ConvexBody3.ball([0, 0, 0], 2.0)
        assert ball.surface_margin([3, 0, 0]) == pytest.approx(1.0)
        assert ball.surface_margin([1, 0, 0]) == pytest.approx(-1.0)
        cube = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        assert cube.surface_margin([2, 0, 0]) == pytest.approx(1.0)
        assert cube.contains([0, 0, 0], margin=0.5)

    def test_ray_exits(self):
        ball = ConvexBody3.ball([0, 0, 0], 3.0)
        pts = ball.ray_exits([0, 0, 0], [[0, 0, 1], [0, 0, -1]])
        assert np.allclose(pts, [[0, 0, 3], [0, 0, -3]])
        cube = ConvexBody3.polytope(
            [[x, y, z] for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)]
        )
        assert np.allclose(cube.ray_exits([0, 0, 0], [[1, 0, 0]]), [[2, 0, 0]])

    def test_ray_exits_requires_interior_origin(self):
        ball = ConvexBody3.ball([0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            ball.ray_exits([5, 0, 0], [[1, 0, 0]])


def test_off_round_trip(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(
        "OFF\n4 4 6\n# a comment\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"
    )
    verts, faces = read_off(path)
    assert verts.shape == (4, 3)
    assert len(faces) == 4
    body = polytope_from_off(path)
    assert body.kind == "polytope"
    assert len(body.vertices) == 4
