from pathlib import Path

import numpy as np
import pytest

from conekit.cones import SupportCone, canonical_axis, cross_section, motion_image, support_cone
from conekit.geom import (
    ConvexBody3,
    hausdorff_distance,
    orthonormal_basis,
    reflection_in_plane,
    rotation_about_line,
    rotation_matrix,
)
from conekit.harness import load_scene, scene_cones
from conekit.symmetry import (
    INFINITE,
    _bound_decisions,
    case_split,
    detect_circle,
    detect_symmetries,
    is_right_circular,
)
from conftest import random_cone, random_motion, random_rotation
from oracles import symmetry_group_order

CUBE = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
BALL = ConvexBody3.ball([0, 0, 0], 1.0)
ELLIPSOID = ConvexBody3.ellipsoid([0, 0, 0], [2, 1, 1])


def regular_polygon_cone(m: int, spread: float = 0.5) -> SupportCone:
    ang = 2 * np.pi * np.arange(m) / m
    dirs = np.column_stack([spread * np.cos(ang), spread * np.sin(ang), -np.ones(m)])
    return SupportCone.from_rays([0, 0, 0], dirs)


class TestDetectSymmetries:
    def test_cube_cone(self):
        rep = detect_symmetries(support_cone(CUBE, [0, 0, 5]))
        assert len(rep.axes) == 1
        assert rep.axes[0].order == 4
        assert np.allclose(np.abs(rep.axes[0].direction), [0, 0, 1], atol=1e-9)
        assert len(rep.planes) == 4
        assert rep.group_order == 8
        assert not rep.is_right_circular

    def test_scalene_cone_trivial(self):
        rays = np.array([[1, 0, -2], [-1, 0.3, -2], [0.2, 1, -2]], float)
        cone = SupportCone.from_rays([0, 0, 0], rays)
        rep = detect_symmetries(cone)
        assert rep.axes == () and rep.planes == ()
        assert rep.group_order == 1
        assert symmetry_group_order(cone.rays, 1e-6) == 1

    def test_right_circular_cone(self):
        rep = detect_symmetries(support_cone(BALL, [0, 0, 3]))
        assert rep.is_right_circular
        assert rep.group_order == INFINITE
        assert abs(rep.half_angle - np.arcsin(1 / 3)) <= 1e-9

    def test_regular_mgon_cones_match_oracle(self):
        for m in range(3, 9):
            cone = regular_polygon_cone(m)
            rep = detect_symmetries(cone)
            assert rep.axes[0].order == m
            assert len(rep.planes) == m
            assert rep.group_order == 2 * m
            assert symmetry_group_order(cone.rays, 1e-6) == 2 * m

    def test_soundness_elements_fix_the_cone(self, rng):
        for m in (3, 4, 6):
            cone = motion_image(random_motion(rng), regular_polygon_cone(m))
            rep = detect_symmetries(cone)
            tol = 1e-6
            for ax in rep.axes:
                phi = rotation_about_line(ax.point, ax.direction, 2 * np.pi / ax.order)
                assert hausdorff_distance(motion_image(phi, cone).rays, cone.rays) <= tol
            for plane in rep.planes:
                phi = reflection_in_plane(plane)
                assert hausdorff_distance(motion_image(phi, cone).rays, cone.rays) <= tol

    def test_equivariance_under_rotation(self, rng):
        cone = regular_polygon_cone(5)
        rep = detect_symmetries(cone)
        R = random_rotation(rng)
        from conekit.geom import RigidMotion

        moved = motion_image(RigidMotion(omega=R, a=np.zeros(3)), cone)
        rep2 = detect_symmetries(moved)
        assert rep2.group_order == rep.group_order
        assert np.allclose(
            np.abs(rep2.axes[0].direction @ (R @ rep.axes[0].direction)), 1.0, atol=1e-9
        )
        normals = sorted(tuple(np.round(np.abs(p.normal), 6)) for p in rep2.planes)
        expect = sorted(tuple(np.round(np.abs(R @ p.normal), 6)) for p in rep.planes)
        assert normals == expect

    def test_completeness_matches_oracle_on_random_cones(self, rng):
        for _ in range(15):
            cone = random_cone(rng, n_rays=int(rng.integers(4, 10)))
            rep = detect_symmetries(cone)
            assert rep.group_order != INFINITE
            assert rep.group_order == symmetry_group_order(cone.rays, 1e-6)

    def test_single_mirror_cone(self):
        dirs = np.array([[0.6, 0, -1], [-0.3, 0.5, -1], [-0.3, -0.5, -1]], float)
        cone = SupportCone.from_rays([0, 0, 0], dirs)
        rep = detect_symmetries(cone)
        assert rep.axes == ()
        assert len(rep.planes) == 1
        assert case_split(rep) == "plane_only_finite"

    def test_two_mirrors_force_an_axis(self, rng):
        # composing two distinct mirrors through the apex is a rotation
        # about their intersection line; the detector must report that axis
        for _ in range(10):
            base = np.array([[0.5, 0.2, -1.0], [0.1, -0.4, -1.0]])
            seed_dirs = []
            for d in base:
                seed_dirs.append(d)
                seed_dirs.append(d * [-1, 1, 1])   # mirror x -> -x
                seed_dirs.append(d * [1, -1, 1])   # mirror y -> -y
                seed_dirs.append(d * [-1, -1, 1])
            cone = motion_image(random_motion(rng), SupportCone.from_rays([0, 0, 0], seed_dirs))
            rep = detect_symmetries(cone)
            assert len(rep.planes) >= 2
            assert len(rep.axes) >= 1


class TestRightCircular:
    def test_ball_cone_half_angle(self):
        flag, half = is_right_circular(support_cone(BALL, [3, 0, 0]))
        assert flag
        assert abs(half - np.arcsin(1 / 3)) <= 1e-9

    def test_cube_cone_rejected(self):
        flag, half = is_right_circular(support_cone(CUBE, [0, 0, 5]))
        assert not flag and half is None

    def test_ellipsoid_axis_vs_side_apex(self):
        flag_axis, _ = is_right_circular(support_cone(ELLIPSOID, [5, 0, 0]))
        flag_side, _ = is_right_circular(support_cone(ELLIPSOID, [0, 5, 0]))
        assert flag_axis and not flag_side
        # direct angle-spread computation agrees
        cone = support_cone(ELLIPSOID, [0, 5, 0])
        from conekit.cones import boundary_image_samples

        pts = boundary_image_samples(cone)
        centered = pts - pts.mean(axis=0)
        w, v = np.linalg.eigh(centered.T @ centered)
        ang = np.arccos(np.clip(pts @ v[:, 0], -1, 1))
        assert ang.max() - ang.min() > 1e-3

    def test_invariance_under_motion_and_distance(self, rng):
        cone = support_cone(BALL, [0, 0, 2.5])
        for _ in range(5):
            moved = motion_image(random_motion(rng), cone)
            flag, half = is_right_circular(moved)
            assert flag
            assert abs(half - np.arcsin(1 / 2.5)) <= 1e-9


class TestDetectCircle:
    def test_regular_polygon_is_circle(self):
        ang = 2 * np.pi * np.arange(64) / 64
        r = 1 / np.sqrt(3)
        from conekit.cones import PlanarSection
        from conekit.geom import PlaneFrame

        sec = PlanarSection(
            frame=PlaneFrame.from_normal([0, 0, 0], [0, 0, 1]),
            polygon=np.column_stack([r * np.cos(ang), r * np.sin(ang)]),
        )
        flag, center, radius = detect_circle(sec, 1e-3)
        assert flag
        assert abs(radius - r) <= 1e-9
        assert np.linalg.norm(center) <= 1e-9

    def test_square_section_rejected(self):
        cone = support_cone(CUBE, [0, 0, 5])
        sec = cross_section(cone, 1.0)
        with pytest.raises(ValueError):
            detect_circle(sec, 1e-3)  # only 4 vertices

    def test_near_circular_ellipse_rejected_at_tol(self):
        ang = 2 * np.pi * np.arange(256) / 256
        a, b = 1.01, 1.0
        from conekit.cones import PlanarSection
        from conekit.geom import PlaneFrame

        sec = PlanarSection(
            frame=PlaneFrame.from_normal([0, 0, 0], [0, 0, 1]),
            polygon=np.column_stack([a * np.cos(ang), b * np.sin(ang)]),
        )
        flag, _, radius = detect_circle(sec, 1e-3)
        assert not flag
        # max radial deviation is about half the axis gap
        radii = np.linalg.norm(sec.polygon, axis=1)
        assert abs((radii.max() - radii.min()) - (a - b)) <= 1e-3

    def test_ball_section_is_circle(self):
        sec = cross_section(support_cone(BALL, [3, 0, 0]), 1.0)
        flag, _, radius = detect_circle(sec, 1e-3)
        assert flag
        assert abs(radius - np.tan(np.arcsin(1 / 3))) <= 1e-9


class TestCaseSplit:
    def test_branches(self):
        assert case_split(detect_symmetries(support_cone(BALL, [2, 0, 0]))) == "right_circular"
        assert case_split(detect_symmetries(support_cone(CUBE, [0, 0, 5]))) == "axis_of_symmetry"
        dirs = np.array([[0.6, 0, -1], [-0.3, 0.5, -1], [-0.3, -0.5, -1]], float)
        assert case_split(detect_symmetries(SupportCone.from_rays([0, 0, 0], dirs))) == "plane_only_finite"
        rays = np.array([[1, 0, -2], [-1, 0.3, -2], [0.2, 1, -2]], float)
        assert case_split(detect_symmetries(SupportCone.from_rays([0, 0, 0], rays))) == "trivial"


ROOT = Path(__file__).resolve().parents[1]
SCENES = ("scenes/ball_r1_R3", "scenes/ellipsoid_211_R5", "scenes/cube_R4", "perfbench/scenes/borderline_e1005_R3")


def _candidate_batches(cone, tol):
    """Every candidate ``detect_symmetries`` may decide, in batches for
    ``_bound_decisions``, each with its orthogonal map: the two generators
    of the sampled-circle branch and, for cones outside that branch, the
    rotations and mirrors taking ray 0 to each height-compatible ray."""
    rays = cone.rays
    n = len(rays)
    axis = canonical_axis(cone)
    f1, f2 = orthonormal_basis(axis)
    x, y, z = rays @ f1, rays @ f2, rays @ axis
    theta = np.arctan2(y, x)
    step = 2.0 * np.pi / n

    def mirror(c):
        normal = -np.sin(c) * f1 + np.cos(c) * f2
        return np.eye(3) - 2.0 * np.outer(normal, normal)

    batches = [
        (np.array([step, step]), np.array([1, -1]), False, [rotation_matrix(axis, step)] * 2),
        (np.array([theta[0] % np.pi]), np.array([0]), True, [mirror(theta[0] % np.pi)]),
    ]
    if not (is_right_circular(cone, tol)[0] and cone.is_sampled and n == cone.source_samples):
        js = np.flatnonzero(np.abs(z - z[0]) <= tol)
        rot = (theta[js] - theta[0]) % (2.0 * np.pi)
        mir = (theta[0] + theta[js]) / 2.0 % np.pi
        batches += [
            (rot, js, False, [rotation_matrix(axis, t) for t in rot]),
            (mir, js, True, [mirror(c) for c in mir]),
        ]
    return np.column_stack([x, y, z]), batches


def test_bound_decisions_agree_with_hausdorff_distance():
    # every candidate the bounds decide must get the decision of the exact
    # distance, at the default and five fixed tolerances; distances taken
    # from 2 - 2 cos lose the small ones at tol 1e-9
    cones = []
    for name in SCENES:
        cones += scene_cones(load_scene(ROOT / f"{name}.json"))[1]
    rng = np.random.default_rng(24)
    cones += [random_cone(rng) for _ in range(300)]
    cones += [regular_polygon_cone(m) for m in range(3, 13)]
    decided = {1: 0, -1: 0}
    for tol in (None, 1e-9, 1e-6, 1e-3, 1e-2, 1e-1):
        for cone in cones:
            t = tol if tol is not None else 1e-3 if cone.is_sampled else 1e-6
            frame_rays, batches = _candidate_batches(cone, t)
            for angles, shifts, mirror, omegas in batches:
                for decision, omega in zip(_bound_decisions(frame_rays, angles, shifts, mirror, t), omegas):
                    if decision:
                        exact = hausdorff_distance(cone.rays @ omega.T, cone.rays) <= t
                        assert (decision > 0) == exact, (decision, t, len(cone.rays))
                        decided[int(decision)] += 1
    assert min(decided.values()) > 1000, decided


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: sampled-cone candidates are built from ray 0, so rolling the rays "
    "changes some ellipsoid cones' classes",
)
def test_rolling_rays_does_not_change_symmetry_class():
    rng = np.random.default_rng(26)
    for name in SCENES:
        for cone in scene_cones(load_scene(ROOT / f"{name}.json"))[1]:
            k = int(rng.integers(1, len(cone.rays)))
            rolled = SupportCone(apex=cone.apex, rays=np.roll(cone.rays, -k, axis=0), is_sampled=cone.is_sampled,
                                 source_samples=cone.source_samples, witness=cone.witness)
            assert case_split(detect_symmetries(rolled)) == case_split(detect_symmetries(cone)), (name, k)
