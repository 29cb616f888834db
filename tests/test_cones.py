import numpy as np
import pytest

from conekit.cones import (
    SupportCone,
    boundary_image_samples,
    canonical_axis,
    cross_section,
    motion_image,
    support_cone,
)
from conekit.errors import ApexInsideBodyError
from conekit.geom import ConvexBody3, hausdorff_distance, unit
from conftest import random_cone, random_motion
from oracles import dense_arc_centroid, extreme_ray_filter

CUBE = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
BALL = ConvexBody3.ball([0, 0, 0], 1.0)


class TestSupportCone:
    def test_ball_cone_is_right_circular_with_forced_half_angle(self):
        cone = support_cone(BALL, [2, 0, 0])
        axis = canonical_axis(cone)
        assert np.allclose(axis, [-1, 0, 0], atol=1e-9)
        angles = np.arccos(np.clip(cone.rays @ axis, -1, 1))
        assert np.max(np.abs(angles - np.pi / 6)) <= 1e-12
        assert cone.is_sampled and cone.source_samples == 256

    def test_cube_cone_extreme_rays_match_brute_force(self):
        apex = np.array([0.0, 0.0, 5.0])
        cone = support_cone(CUBE, apex)
        dirs = CUBE.vertices - apex
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        keep = extreme_ray_filter(dirs)
        expect = dirs[keep]
        assert len(cone.rays) == len(expect) == 4
        assert hausdorff_distance(cone.rays, expect) <= 1e-12
        # every extreme ray passes through a vertex of the body
        for r in cone.rays:
            hits = np.linalg.norm(np.cross(CUBE.vertices - apex, r), axis=1)
            assert hits.min() <= 1e-9

    def test_apex_inside_or_near_is_rejected(self):
        with pytest.raises(ApexInsideBodyError):
            support_cone(BALL, [0.5, 0, 0])
        with pytest.raises(ApexInsideBodyError):
            support_cone(BALL, [1.0 + 1e-9, 0, 0])
        with pytest.raises(ApexInsideBodyError):
            support_cone(CUBE, [0.9, 0, 0])

    def test_polytope_containment_and_minimality(self, rng):
        from scipy.spatial import ConvexHull

        for _ in range(20):
            pts = rng.standard_normal((12, 3))
            body = ConvexBody3.polytope(pts[ConvexHull(pts).vertices])
            apex = unit(rng.standard_normal(3)) * 6.0
            cone = support_cone(body, apex)
            dirs = body.vertices - apex
            dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
            # containment: every vertex direction lies in the conical hull,
            # checked on the gnomonic chart where the cone is a 2D polygon
            w = cone.witness
            assert np.min(dirs @ w) > 0
            cone2 = _plane_coords(cone.rays / (cone.rays @ w)[:, None], w)
            dirs2 = _plane_coords(dirs / (dirs @ w)[:, None], w)
            eqs = ConvexHull(cone2).equations
            assert np.all(dirs2 @ eqs[:, :2].T + eqs[:, 2] <= 1e-9)
            # minimality: each extreme ray passes near a body vertex
            for r in cone.rays:
                assert np.min(np.linalg.norm(np.cross(body.vertices - apex, r), axis=1)) <= 1e-9

    def test_from_rays_drops_repeated_direction(self, rng):
        dirs = unit(np.array([0.0, 0.0, 1.0])) + 0.4 * rng.standard_normal((12, 3))
        once = SupportCone.from_rays([0, 0, 0], dirs)
        twice = SupportCone.from_rays([0, 0, 0], np.vstack([dirs, 3.0 * dirs[[2, 7]], dirs[:1]]))
        assert np.array_equal(once.rays, twice.rays)

    def test_dedupe_matches_loop_reference(self, rng):
        from conekit.cones import _dedupe_directions

        dirs = rng.standard_normal((40, 3))
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        dirs = np.vstack([dirs, dirs[[3, 3, 17]], dirs[[5]] + 1e-14, dirs[[8]] + 1e-9])
        keep = []
        for i, d in enumerate(dirs):
            if not keep or np.min(np.linalg.norm(dirs[keep] - d, axis=1)) > 1e-12:
                keep.append(i)
        assert np.array_equal(_dedupe_directions(dirs), dirs[keep])

    def test_sampled_silhouette_touches_surface(self):
        ell = ConvexBody3.ellipsoid([0.5, 0, 0], [2, 1, 1])
        apex = np.array([6.0, 1.0, 0.5])
        cone = support_cone(ell, apex, samples=64)
        ainv = ell.inv_scale_matrix()
        # reconstruct tangency points: along each ray the surface is touched
        # where the quadratic in t has a double root
        for r in cone.rays:
            z0 = ainv @ (apex - ell.center)
            dz = ainv @ r
            disc = (z0 @ dz) ** 2 - (dz @ dz) * (z0 @ z0 - 1.0)
            assert abs(disc) <= 1e-9


def _plane_coords(pts, w):
    from conekit.geom import orthonormal_basis

    u, v = orthonormal_basis(w)
    return np.column_stack([pts @ u, pts @ v])


class TestCanonicalAxis:
    def test_symmetric_cones(self):
        cone = support_cone(BALL, [0, 0, 3])
        assert np.allclose(canonical_axis(cone), [0, 0, -1], atol=1e-9)
        cube_cone = support_cone(CUBE, [0, 0, 5])
        assert np.allclose(canonical_axis(cube_cone), [0, 0, -1], atol=1e-12)

    def test_matches_dense_numerical_centroid(self, rng):
        for _ in range(10):
            cone = random_cone(rng)
            dense = dense_arc_centroid(cone.rays)
            assert np.linalg.norm(canonical_axis(cone) - dense) <= 1e-6

    def test_perturbed_square_cone_axis_stays_near_z(self, rng):
        eps = 1e-3
        base = np.array([[1, 1, -4], [-1, 1, -4], [-1, -1, -4], [1, -1, -4]], float)
        pert = base + eps * rng.standard_normal(base.shape)
        cone = SupportCone.from_rays([0, 0, 0], pert)
        axis = canonical_axis(cone)
        dense = dense_arc_centroid(cone.rays)
        assert np.linalg.norm(axis - dense) <= 1e-6
        assert np.arccos(np.clip(-axis[2], -1, 1)) <= 10 * eps

    def test_rotation_equivariance(self, rng):
        for _ in range(10):
            cone = random_cone(rng)
            phi = random_motion(rng)
            mapped = motion_image(phi, cone)
            expect = phi.omega @ canonical_axis(cone)
            assert np.linalg.norm(canonical_axis(mapped) - expect) <= 1e-9


class TestCrossSection:
    def test_circular_cone_radius(self):
        cone = support_cone(BALL, [2, 0, 0])  # half-angle pi/6
        sec = cross_section(cone, 1.0)
        radii = np.linalg.norm(sec.polygon, axis=1)
        assert np.max(np.abs(radii - np.tan(np.pi / 6))) <= 1e-9
        assert len(sec.polygon) == cone.source_samples

    def test_cube_cone_sections_by_hand(self):
        cone = support_cone(CUBE, [0, 0, 5])
        # the rays pass through the top vertices (±1, ±1, 1), which lie at
        # distance 4 from the apex along the axis; at distance 5 the same
        # linear solve scales the square by 5/4
        sec4 = cross_section(cone, 4.0)
        assert hausdorff_distance(sec4.polygon, np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], float)) <= 1e-12
        sec5 = cross_section(cone, 5.0)
        assert hausdorff_distance(sec5.polygon, 1.25 * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], float)) <= 1e-12

    def test_scaling_is_exact(self, rng):
        for _ in range(10):
            cone = random_cone(rng)
            s1 = cross_section(cone, 1.0)
            s2 = cross_section(cone, 2.0)
            assert np.max(np.abs(s2.polygon - 2.0 * s1.polygon)) <= 1e-10 * np.max(np.abs(s2.polygon))

    def test_frame_normal_points_to_apex(self):
        cone = support_cone(BALL, [3, 0, 0])
        sec = cross_section(cone, 1.0)
        to_apex = cone.apex - sec.frame.origin
        assert float(sec.frame.normal @ to_apex) > 0
        assert np.allclose(sec.frame.normal, [1, 0, 0], atol=1e-9)

    def test_rejects_nonpositive_distance(self, rng):
        cone = random_cone(rng)
        with pytest.raises(ValueError):
            cross_section(cone, 0.0)
        with pytest.raises(ValueError):
            cross_section(cone, -1.0)

    def test_equidistance_for_ball_at_distance_d(self):
        d = 3.0
        cone = support_cone(BALL, [0, d, 0])
        sec = cross_section(cone, 1.0)
        radii = np.linalg.norm(sec.polygon, axis=1)
        assert np.max(np.abs(radii - np.tan(np.arcsin(1 / d)))) <= 1e-9


class TestMotionImage:
    def test_identity_preserves(self, rng):
        cone = random_cone(rng)
        from conekit.geom import RigidMotion

        same = motion_image(RigidMotion.identity(), cone)
        assert hausdorff_distance(same.rays, cone.rays) == 0.0

    def test_half_turn_preserves_square_cone(self):
        cone = support_cone(CUBE, [0, 0, 5])
        from conekit.geom import rotation_about_line

        phi = rotation_about_line([0, 0, 5], [0, 0, 1], np.pi)
        assert hausdorff_distance(motion_image(phi, cone).rays, cone.rays) <= 1e-12

    def test_round_trip(self, rng):
        for _ in range(10):
            cone = random_cone(rng)
            phi = random_motion(rng)
            from conekit.geom import inverse

            back = motion_image(inverse(phi), motion_image(phi, cone))
            assert hausdorff_distance(back.rays, cone.rays) <= 1e-12
            assert np.linalg.norm(back.apex - cone.apex) <= 1e-10

    def test_equivariance_with_support_cone(self, rng):
        for _ in range(5):
            pts = rng.standard_normal((10, 3))
            from scipy.spatial import ConvexHull

            body = ConvexBody3.polytope(pts[ConvexHull(pts).vertices])
            apex = unit(rng.standard_normal(3)) * 8.0
            phi = random_motion(rng)
            moved_body = ConvexBody3.polytope(phi.transform(body.vertices))
            direct = support_cone(moved_body, phi.transform(apex))
            mapped = motion_image(phi, support_cone(body, apex))
            assert hausdorff_distance(direct.rays, mapped.rays) <= 1e-9


def test_boundary_samples_cover_arcs():
    cone = support_cone(CUBE, [0, 0, 5])
    pts = boundary_image_samples(cone, max_step=0.01)
    assert len(pts) > 100
    # arc interior points dip toward the axis relative to the corners
    corner_angle = np.arccos(np.clip(cone.rays @ canonical_axis(cone), -1, 1)).max()
    angles = np.arccos(np.clip(pts @ canonical_axis(cone), -1, 1))
    assert angles.min() < corner_angle - 0.05
