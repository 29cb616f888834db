import dataclasses
import json

import numpy as np
import pytest

from conekit import harness
from conekit.congruence import congruence_distance, diameter_lower_bounds, pairwise_congruence_matrix
from conekit.errors import SceneInvalidError
from conekit.geom import ConvexBody3, rotation_matrix, unit
from conekit.harness import (
    eta_map,
    load_scene,
    matrix_to_csv,
    report_to_dict,
    sample_boundary,
    scene_cones,
    scene_from_dict,
    section_field,
    verify_scene,
)

BALL_SCENE = {
    "inner": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
    "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 3.0},
    "sampling": {"count": 12, "seed": 0, "strategy": "fibonacci"},
    "config": {"samples_per_cone": 64},
}


class TestSceneLoading:
    def test_valid_ball_scene(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(BALL_SCENE))
        scene = load_scene(path)
        assert scene.inner.kind == "ball"
        assert scene.count == 12
        assert scene.config.samples_per_cone == 64

    def test_containment_violation(self):
        bad = dict(BALL_SCENE)
        bad["inner"] = {"kind": "ball", "center": [0, 0, 0], "radius": 2.0}
        bad["outer"] = {"kind": "ball", "center": [0, 0, 0], "radius": 1.0}
        with pytest.raises(SceneInvalidError) as err:
            scene_from_dict(bad)
        assert err.value.offending_sample is not None

    def test_flat_polytope_rejected(self):
        bad = dict(BALL_SCENE)
        bad["inner"] = {"kind": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}
        with pytest.raises(SceneInvalidError):
            scene_from_dict(bad)

    def test_unknown_kind_rejected(self):
        bad = dict(BALL_SCENE)
        bad["inner"] = {"kind": "torus", "center": [0, 0, 0]}
        with pytest.raises(SceneInvalidError):
            scene_from_dict(bad)

    def test_unknown_config_key_rejected(self):
        bad = dict(BALL_SCENE)
        bad["config"] = {"samples_per_cone": 64, "mystery": 1}
        with pytest.raises(SceneInvalidError):
            scene_from_dict(bad)

    def test_nan_apex_margin_rejected(self, monkeypatch):
        scene = scene_from_dict(BALL_SCENE)
        margin = ConvexBody3.surface_margin
        monkeypatch.setattr(ConvexBody3, "surface_margin",
                            lambda body, point: float("nan") if body is scene.inner else margin(body, point))
        with pytest.raises(SceneInvalidError, match="containment margin"):
            scene_cones(scene)

    def test_cone_bug_not_blamed_on_scene(self, monkeypatch):
        # only an unresolvable cone is a scene fault; any other error escapes
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        scene = scene_from_dict(BALL_SCENE)
        monkeypatch.setattr(harness, "support_cone", broken)
        with pytest.raises(ValueError, match="broadcast") as err:
            scene_cones(scene)
        assert not isinstance(err.value, SceneInvalidError)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneInvalidError):
            load_scene(path)


class TestSampleBoundary:
    def test_sphere_poles_via_explicit_directions(self):
        ball = ConvexBody3.ball([0, 0, 0], 3.0)
        pts = ball.ray_exits([0, 0, 0], [[0, 0, 1], [0, 0, -1]])
        assert np.allclose(pts, [[0, 0, 3], [0, 0, -3]])

    def test_cube_face_hit(self):
        cube = ConvexBody3.polytope([[x, y, z] for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)])
        pts = cube.ray_exits([0, 0, 0], [[1, 0, 0]])
        assert np.allclose(pts, [[2, 0, 0]])

    def test_fibonacci_min_gap(self):
        ball = ConvexBody3.ball([0, 0, 0], 1.0)
        pts = sample_boundary(ball, 100, strategy="fibonacci")
        gram = np.clip(pts @ pts.T, -1, 1)
        np.fill_diagonal(gram, -1)
        min_gap = np.arccos(gram.max())
        assert min_gap > 0.15

    def test_deterministic_given_seed(self):
        ball = ConvexBody3.ball([0, 0, 0], 2.0)
        a = sample_boundary(ball, 40, seed=7, strategy="random")
        b = sample_boundary(ball, 40, seed=7, strategy="random")
        c = sample_boundary(ball, 40, seed=8, strategy="random")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_points_lie_on_boundary(self):
        ell = ConvexBody3.ellipsoid([0.2, 0, 0], [2, 1, 1])
        pts = sample_boundary(ell, 64)
        z = (pts - ell.center) @ ell.inv_scale_matrix().T
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1)) <= 1e-12


class TestEtaMap:
    def test_ball_scene_eta_is_radial(self):
        scene = scene_from_dict(BALL_SCENE)
        apexes, cones = scene_cones(scene)
        from conekit.cones import cross_section
        from conekit.symmetry import case_split, detect_symmetries

        sections = [cross_section(c, 1.0) for c in cones]
        classes = [case_split(detect_symmetries(c, 1e-3)) for c in cones]
        res = eta_map(cones, sections, classes)
        for x, e in zip(apexes, res.etas):
            assert np.linalg.norm(e - unit(x)) <= 1e-6
        assert not res.fallback.any()
        assert res.min_separation > 0

    def test_cube_diagonal_apex_eta_along_diagonal(self):
        cube = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        from conekit.cones import cross_section, support_cone
        from conekit.symmetry import case_split, detect_symmetries

        diag = unit([1.0, 1.0, 1.0])
        cone = support_cone(cube, 4.0 * diag)
        rep = detect_symmetries(cone)
        assert case_split(rep) == "axis_of_symmetry"
        sec = cross_section(cone, 1.0)
        assert np.linalg.norm(sec.frame.normal - diag) <= 1e-9

    def test_eta_equivariance_under_scene_symmetry(self):
        cube = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        from conekit.cones import cross_section, support_cone

        R = rotation_matrix(np.array([0.0, 0.0, 1.0]), np.pi / 2)
        apex = unit([2.0, 1.0, 1.2]) * 4.0
        eta1 = cross_section(support_cone(cube, apex), 1.0).frame.normal
        eta2 = cross_section(support_cone(cube, R @ apex), 1.0).frame.normal
        assert np.linalg.norm(eta2 - R @ eta1) <= 1e-8


class TestVerifyScene:
    def test_small_ball_scene_verdict(self):
        scene = scene_from_dict(BALL_SCENE)
        report = verify_scene(scene)
        assert report.verdict == "consistent_with_ball"
        assert report.upper_bound_max is not None and report.upper_bound_max <= 1e-3
        assert report.all_right_circular
        assert all(report.sections.circle_flags)
        assert report.witness_pair is None

    def test_report_determinism_bit_identical(self):
        scene = scene_from_dict(BALL_SCENE)
        a = json.dumps(report_to_dict(verify_scene(scene)), sort_keys=True)
        b = json.dumps(report_to_dict(verify_scene(scene)), sort_keys=True)
        assert a == b

    def test_small_cube_scene_names_witness(self):
        cube_scene = scene_from_dict(
            {
                "inner": {
                    "kind": "polytope",
                    "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                },
                "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 4.0},
                "sampling": {"count": 10, "seed": 1, "strategy": "fibonacci"},
                "config": {},
            }
        )
        report = verify_scene(cube_scene)
        assert report.verdict == "non_congruence_witness"
        i, j = report.witness_pair
        _, cones = scene_cones(cube_scene)
        lb = diameter_lower_bounds(cones)[i, j]
        assert lb == report.lower_bound_max
        assert lb > report.witness_threshold
        assert lb <= congruence_distance(cones[i], cones[j]).distance

    def test_ball_verdict_across_densities(self):
        for count in (20, 35, 60):
            scene = dataclasses.replace(scene_from_dict(BALL_SCENE), count=count)
            report = verify_scene(scene)
            assert report.verdict == "consistent_with_ball"
            assert np.max(np.abs(np.array(report.half_angles) - np.arcsin(1 / 3))) <= 1e-3

    def test_section_field_flags(self):
        scene = scene_from_dict(BALL_SCENE)
        _, cones = scene_cones(scene)
        report = verify_scene(scene)
        assert report.congruent_field and report.upper_bound_max <= 1e-3
        from conekit.cones import cross_section

        sections = [cross_section(c, 1.0) for c in cones]
        etas = np.array([s.frame.normal for s in sections])
        res = section_field(cones, etas, 1e-3, sections)
        assert res.continuity_violations == ()
        radius = np.tan(np.arcsin(1 / 3))
        assert np.max(np.abs(np.array(res.circle_radii) - radius)) <= 1e-3

    def test_matrix_csv_shape(self):
        scene = scene_from_dict(BALL_SCENE)
        _, cones = scene_cones(scene)
        csv = matrix_to_csv(pairwise_congruence_matrix(cones, tol=1e-3).matrix)
        lines = csv.strip().split("\n")
        assert len(lines) == scene.count + 1
        assert lines[0].startswith("apex,")


def test_cube_face_vs_diagonal_apexes_differ_beyond_oracle():
    # the cones from a face-normal apex and a diagonal apex of the cube
    # scene are genuinely incongruent: the optimizer agrees with the
    # exhaustive grid oracle that no orthogonal map aligns them
    from conekit.congruence import congruence_distance
    from conekit.cones import support_cone
    from oracles import o3_grid_distance

    cube = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    face = support_cone(cube, [4.0, 0.0, 0.0])
    diag = support_cone(cube, 4.0 * unit([1.0, 1.0, 1.0]))
    res = congruence_distance(face, diag)
    oracle = o3_grid_distance(face.rays, diag.rays, step_deg=3.0)
    assert res.distance > 10 * 1e-6  # beyond the polyhedral witness threshold
    assert res.distance <= oracle + 1e-9
    assert oracle > 0.05


def test_cone_and_section_serialize():
    from conekit.cones import cross_section, support_cone
    from conekit.harness import cone_to_dict, section_to_dict

    cone = support_cone(ConvexBody3.ball([0, 0, 0], 1.0), [0, 0, 3], samples=32)
    cd = cone_to_dict(cone)
    assert len(cd["rays"]) == 32 and cd["source_samples"] == 32
    sd = section_to_dict(cross_section(cone, 1.0))
    assert len(sd["polygon"]) == 32
    assert set(sd["frame"]) == {"origin", "normal", "basis_u", "basis_v"}
    json.dumps({"cone": cd, "section": sd})  # round-trippable payload


def test_shipped_scene_files_load():
    from pathlib import Path

    scenes_dir = Path(__file__).resolve().parent.parent / "scenes"
    for name, inner_kind in (
        ("ball_r1_R3.json", "ball"),
        ("ellipsoid_211_R5.json", "ellipsoid"),
        ("cube_R4.json", "polytope"),
    ):
        scene = load_scene(scenes_dir / name)
        assert scene.inner.kind == inner_kind
        assert scene.count == 50
