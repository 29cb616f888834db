from pathlib import Path

import numpy as np
import pytest

from conekit import cones as cones_module
from conekit import congruence as congruence_module
from conekit.config import POLISH_ITER
from conekit.congruence import (
    congruence_distance,
    continuity_probe,
    pairwise_congruence_matrix,
    procrustes_orthogonal,
)
from conekit.cones import SupportCone, motion_image, support_cone
from conekit.errors import RankDeficientError
from conekit.geom import ConvexBody3, hausdorff_distance, unit
from conekit.harness import load_scene, scene_cones
from conekit.symmetry import detect_symmetries
from conekit.topology import meridian_frame
from conftest import random_cone, random_motion, random_rotation
from oracles import o3_grid_distance

BALL = ConvexBody3.ball([0, 0, 0], 1.0)
ELLIPSOID = ConvexBody3.ellipsoid([0, 0, 0], [2, 1, 1])


def _rolled(cone: SupportCone, k: int) -> SupportCone:
    """The same cone with its ray cycle started at ray k."""
    return SupportCone(apex=cone.apex, rays=np.roll(cone.rays, -k, axis=0), is_sampled=cone.is_sampled,
                       source_samples=cone.source_samples, witness=cone.witness)


class TestProcrustes:
    def test_identity_recovery(self, rng):
        P = rng.standard_normal((10, 3))
        res = procrustes_orthogonal(P, P)
        assert np.max(np.abs(res.omega - np.eye(3))) <= 1e-12

    def test_exact_rotation_recovery(self, rng):
        for _ in range(20):
            P = rng.standard_normal((8, 3))
            R = random_rotation(rng)
            res = procrustes_orthogonal(P, P @ R.T)
            assert np.max(np.abs(res.omega - R)) <= 1e-10

    def test_reflection_recovery(self, rng):
        P = rng.standard_normal((8, 3))
        M = np.diag([1.0, 1.0, -1.0])
        res = procrustes_orthogonal(P, P @ M.T)
        assert np.linalg.det(res.omega) < 0
        assert np.max(np.abs(P @ res.omega.T - P @ M.T)) <= 1e-10

    def test_orthogonality_on_noise(self, rng):
        for _ in range(20):
            P = rng.standard_normal((6, 3))
            Q = rng.standard_normal((6, 3))
            res = procrustes_orthogonal(P, Q)
            assert np.max(np.abs(res.omega.T @ res.omega - np.eye(3))) <= 1e-12

    def test_collinear_rejected(self):
        P = np.outer(np.arange(1.0, 5.0), [1.0, 0.0, 0.0])
        with pytest.raises(RankDeficientError):
            procrustes_orthogonal(P, P)


class TestCongruenceDistance:
    def test_constructed_congruent_pairs(self, rng):
        for _ in range(100):
            c1 = random_cone(rng)
            phi = random_motion(rng)
            c2 = motion_image(phi, c1)
            res = congruence_distance(c1, c2)
            assert res.distance < 1e-10
            assert res.congruent
            # witness matches truth modulo the cone's symmetry group
            report = detect_symmetries(c1)
            gap = _witness_gap(res.witness.omega, phi.omega, c1, report)
            assert gap <= 1e-8

    def test_ball_in_sphere_cones_congruent(self):
        big = ConvexBody3.ball([0, 0, 0], 3.0)
        c1 = support_cone(BALL, [3, 0, 0])
        c2 = support_cone(BALL, [0, 3, 0])
        res = congruence_distance(c1, c2)
        assert res.distance < 1e-9
        assert res.congruent

    def test_ellipsoid_golden_pair_distance(self):
        c1 = support_cone(ELLIPSOID, [5, 0, 0])
        c2 = support_cone(ELLIPSOID, [0, 5, 0])
        res = congruence_distance(c1, c2)
        # frozen from scripts/compute_congruence_oracle.py
        assert abs(res.distance - 0.17253214114576) <= 1e-8
        assert not res.congruent

    def test_witness_maps_apex_exactly(self, rng):
        c1, c2 = random_cone(rng), random_cone(rng)
        res = congruence_distance(c1, c2)
        assert np.allclose(res.witness.transform(c1.apex), c2.apex, atol=1e-12)

    def test_witness_validity_when_congruent(self, rng):
        for _ in range(20):
            c1 = random_cone(rng)
            c2 = motion_image(random_motion(rng), c1)
            res = congruence_distance(c1, c2)
            assert res.congruent
            moved = motion_image(res.witness, c1)
            assert hausdorff_distance(moved.rays, c2.rays) <= res.tol

    def test_symmetry_of_distance(self, rng):
        for _ in range(20):
            c1, c2 = random_cone(rng), random_cone(rng)
            d12 = congruence_distance(c1, c2).distance
            d21 = congruence_distance(c2, c1).distance
            assert abs(d12 - d21) <= 1e-9

    def test_bi_invariance(self, rng):
        for _ in range(10):
            c1, c2 = random_cone(rng), random_cone(rng)
            d = congruence_distance(c1, c2).distance
            dm = congruence_distance(
                motion_image(random_motion(rng), c1), motion_image(random_motion(rng), c2)
            ).distance
            assert abs(d - dm) <= 1e-8

    def test_regular_polygons_of_different_counts_symmetric(self, rng):
        # regular m-gon cones pass the exact-circle test; with unequal ray
        # counts phase alignment is no symmetry argument, so they must take
        # the grid and keep d(c1, c2) = d(c2, c1).  Their mean ray has no
        # tangential part, so this also gates the ray-0 anchor's invariance.
        for m1 in range(3, 9):
            for m2 in range(3, 9):
                if m1 == m2:
                    continue
                c1 = motion_image(random_motion(rng), _regular_polygon_cone(m1, rng))
                c2 = motion_image(random_motion(rng), _regular_polygon_cone(m2, rng))
                d12 = congruence_distance(c1, c2).distance
                d21 = congruence_distance(c2, c1).distance
                assert abs(d12 - d21) <= 1e-9, (m1, m2, d12, d21)
                d_moved = congruence_distance(
                    motion_image(random_motion(rng), c1), motion_image(random_motion(rng), c2)
                ).distance
                assert abs(d12 - d_moved) <= 1e-8, (m1, m2, d12, d_moved)

    def test_rolling_rays_does_not_move_distance(self, rng):
        # the cyclic order of a cone's rays has no distinguished start, so
        # the distance must not depend on which ray is ray 0: the grid's ray
        # subset starts at the ray nearest the tangent anchor
        root = Path(__file__).resolve().parents[1]
        pairs = [(random_cone(rng), random_cone(rng)) for _ in range(10)]
        for path in ("scenes/ellipsoid_211_R5.json", "scenes/cube_R4.json",
                     "perfbench/scenes/borderline_e1005_R3.json"):
            _, cones = scene_cones(load_scene(root / path), indices=range(8))
            pairs += list(zip(cones[:4], cones[4:]))
        for c1, c2 in pairs:
            d = congruence_distance(c1, c2).distance
            for k1, k2 in ((int(rng.integers(1, len(c1.rays))), 0), (0, int(rng.integers(1, len(c2.rays))))):
                rolled = congruence_distance(_rolled(c1, k1), _rolled(c2, k2)).distance
                assert abs(rolled - d) <= 1e-10, (len(c1.rays), len(c2.rays), k1, k2, d, rolled)

    def test_grid_runs_once_per_pair(self, monkeypatch):
        import conekit.congruence as cg

        calls = []
        grid = cg._grid_candidates

        def counting(*args):
            calls.append(1)
            return grid(*args)

        monkeypatch.setattr(cg, "_grid_candidates", counting)
        # off-axis apexes: both cones anchor on their mean ray
        congruence_distance(support_cone(ELLIPSOID, [3, 3, 1]), support_cone(ELLIPSOID, [1, -2, 4]))
        assert len(calls) == 1
        # the cone from (5, 0, 0) is circular about its axis and anchors on
        # ray 0; the frame stays equivariant, so no reversed grid is needed
        calls.clear()
        congruence_distance(support_cone(ELLIPSOID, [5, 0, 0]), support_cone(ELLIPSOID, [3, 3, 1]))
        assert len(calls) == 1

    def test_wide_cones_reach_multistart(self, rng, monkeypatch):
        import conekit.congruence as cg

        calls = []
        seeds = cg._icosahedral_rotations

        def counting():
            calls.append(1)
            return seeds()

        monkeypatch.setattr(cg, "_icosahedral_rotations", counting)
        # apexes just off the surface: the cones are nearly half-spaces and
        # their canonical axis quality falls below AXIS_QUALITY_FLOOR
        radii = np.array([2.0, 1.0, 0.7])
        body = ConvexBody3.ellipsoid([0, 0, 0], radii)

        def near_surface(d):
            p = unit(d) / np.linalg.norm(unit(d) / radii)
            return p + 1e-4 * unit(p / radii**2)

        c1 = support_cone(body, near_surface([1, 1, 1]), samples=64)
        c2 = support_cone(body, near_surface([-1, 0.5, 0.3]), samples=64)
        assert max(c1.axis_quality, c2.axis_quality) < cg.AXIS_QUALITY_FLOOR
        assert congruence_distance(c1, motion_image(random_motion(rng), c1)).distance <= 1e-10
        assert calls
        d12 = congruence_distance(c1, c2).distance
        d21 = congruence_distance(c2, c1).distance
        assert abs(d12 - d21) <= 1e-9

    def test_oracle_dominance(self, rng):
        from oracles import grid_resolution_bound

        res_bound = grid_resolution_bound(step_deg=6.0)
        for _ in range(20):
            c1 = random_cone(rng, n_rays=int(rng.integers(4, 9)))
            c2 = random_cone(rng, n_rays=int(rng.integers(4, 9)))
            opt = congruence_distance(c1, c2).distance
            oracle = o3_grid_distance(c1.rays, c2.rays, step_deg=6.0)
            assert opt <= oracle + 1e-9
            assert opt >= oracle - res_bound

    def test_ball_scene_spot_pair_against_oracle(self):
        big_r = 3.0
        c1 = support_cone(BALL, [big_r, 0, 0])
        c2 = support_cone(BALL, [0, 0, big_r])
        opt = congruence_distance(c1, c2).distance
        oracle = o3_grid_distance(c1.rays, c2.rays, step_deg=10.0)
        assert opt <= oracle + 1e-9
        assert opt < 1e-3


def _regular_polygon_cone(m, rng):
    half_angle = rng.uniform(0.3, 1.0)
    theta = 2.0 * np.pi * np.arange(m) / m
    rays = np.column_stack(
        [np.sin(half_angle) * np.cos(theta), np.sin(half_angle) * np.sin(theta),
         np.full(m, np.cos(half_angle))]
    )
    return SupportCone.from_rays(np.zeros(3), rays)


def _witness_gap(omega, truth, cone, report):
    from oracles import witness_gap_mod_symmetry

    return witness_gap_mod_symmetry(omega, truth, report)


class TestPairwiseMatrix:
    def test_identical_copies_give_zero_matrix(self, rng):
        cone = random_cone(rng)
        pw = pairwise_congruence_matrix([cone, cone, cone])
        assert np.max(pw.matrix) <= 1e-12
        assert np.allclose(pw.matrix, pw.matrix.T)
        assert np.allclose(np.diag(pw.matrix), 0)

    def test_parallel_matches_serial(self, rng):
        cones = [random_cone(rng) for _ in range(6)]
        serial = pairwise_congruence_matrix(cones, jobs=1)
        parallel = pairwise_congruence_matrix(cones, jobs=2)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            pairwise_congruence_matrix([random_cone(rng)])

    @pytest.mark.parametrize("scene", ["ball_r1_R3", "cube_R4"])
    def test_registration_frames_computed_once_per_cone(self, monkeypatch, scene):
        # the tangent anchor and the exact-circle flag depend on one cone
        # only, so n cones need n of each, not one per cone per pair
        path = Path(__file__).resolve().parents[1] / "scenes" / f"{scene}.json"
        _, cones = scene_cones(load_scene(path), indices=range(12))
        counts = {"_tangent_anchor": 0, "_uniform_circle": 0}
        for name in counts:
            real = getattr(cones_module, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(cones_module, name, counted)
        pairwise_congruence_matrix(cones)
        assert counts["_tangent_anchor"] == len(cones)
        # the flag is read only for equal ray counts, so polytope cones may
        # skip it; every ball cone has the same count
        assert 0 < counts["_uniform_circle"] <= len(cones)
        if scene == "ball_r1_R3":
            assert counts["_uniform_circle"] == len(cones)

    def test_converged_winner_is_not_polished_again(self, monkeypatch):
        # a ball pair has two candidates, and the winner's short polish
        # converges, so the full-length polish of the winner is skipped
        path = Path(__file__).resolve().parents[1] / "scenes" / "ball_r1_R3.json"
        _, (c1, c2) = scene_cones(load_scene(path), indices=[0, 7])
        real = congruence_module._icp_refine
        calls = []
        monkeypatch.setattr(
            congruence_module, "_icp_refine", lambda *a, **k: calls.append(k) or real(*a, **k)
        )
        congruence_distance(c1, c2)
        assert len(calls) == 2 and all(k == {"max_iter": POLISH_ITER} for k in calls)

    @pytest.mark.parametrize("scene", ["ball_r1_R3", "cube_R4"])
    def test_skipped_final_polish_changes_no_bit(self, monkeypatch, scene):
        # replaying a converged polish from its best iterate cannot improve
        # it: forcing the final polish must give the same distance and map
        path = Path(__file__).resolve().parents[1] / "scenes" / f"{scene}.json"
        _, cones = scene_cones(load_scene(path), indices=range(8))
        pairs = [(a, b) for i, a in enumerate(cones) for b in cones[i + 1 :]]
        skipped = [congruence_distance(a, b) for a, b in pairs]
        real = congruence_module._icp_refine
        monkeypatch.setattr(congruence_module, "_icp_refine", lambda *a, **k: (*real(*a, **k)[:2], False))
        for (a, b), res in zip(pairs, skipped):
            forced = congruence_distance(a, b)
            assert forced.distance == res.distance
            assert forced.witness.omega.tobytes() == res.witness.omega.tobytes()


class TestContinuityProbe:
    def _ball_cone_fn(self):
        return lambda x: support_cone(BALL, x)

    def _meridian_seq(self, u0, phi, radius=3.0, steps=20, last=4e-9):
        e1, e2 = _tangent_frame(u0)
        m = np.cos(phi) * e1 + np.sin(phi) * e2
        deltas = np.geomspace(np.pi / 2, last, steps)
        return np.array([radius * (-np.cos(d) * u0 + np.sin(d) * m) for d in deltas])

    def test_two_meridians_to_antipode_disagree_but_fix_the_cone(self):
        u0 = np.array([1.0, 0.0, 0.0])
        rule = lambda x: meridian_frame(unit(x), u0).omega
        res = continuity_probe(
            self._ball_cone_fn(),
            3 * u0,
            -3 * u0,
            self._meridian_seq(u0, 0.0),
            self._meridian_seq(u0, np.pi / 2),
            witness_rule=rule,
        )
        assert res.converged1 and res.converged2
        assert res.limits_differ
        assert not res.hypothesis_violated
        # the relative limit is a symmetry of the reference (circular) cone
        assert res.self_map_residual is not None
        assert res.self_map_residual <= 1e-6

    def test_constant_witness_rule_gives_equal_limits(self):
        u0 = np.array([1.0, 0.0, 0.0])
        res = continuity_probe(
            self._ball_cone_fn(),
            3 * u0,
            -3 * u0,
            self._meridian_seq(u0, 0.3),
            self._meridian_seq(u0, 0.3),
            witness_rule=lambda x: np.eye(3),
        )
        assert not res.limits_differ
        assert res.converged1 and res.converged2

    def test_ellipsoid_scene_reports_hypothesis_violation(self):
        cone_fn = lambda x: support_cone(ELLIPSOID, x, samples=128)
        u0 = np.array([1.0, 0.0, 0.0])
        res = continuity_probe(
            cone_fn,
            5 * u0,
            np.array([0.0, 5.0, 0.0]),
            _arc_seq(u0, np.array([0.0, 1.0, 0.0]), 5.0),
            _arc_seq(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), 5.0),
        )
        assert res.hypothesis_violated

    def test_rejects_non_convergent_sequences(self):
        u0 = np.array([1.0, 0.0, 0.0])
        bad = np.tile(3 * u0, (10, 1))
        with pytest.raises(ValueError):
            continuity_probe(
                self._ball_cone_fn(), 3 * u0, -3 * u0, bad, bad
            )


def _tangent_frame(u):
    from conekit.geom import orthonormal_basis

    return orthonormal_basis(u)


def _arc_seq(u_from, u_to, radius, steps=8):
    t = u_from - float(u_from @ u_to) * u_to
    t = t / np.linalg.norm(t)
    deltas = np.geomspace(0.5, 1e-5, steps)
    return np.array([radius * (np.cos(d) * u_to + np.sin(d) * t) for d in deltas])
