import dataclasses
import json
import random

import numpy as np
import pytest

from conekit import harness
from conekit.cli import main
from conekit.congruence import congruence_distance
from conekit.symmetry import detect_symmetries
from conekit.geom import rotation_matrix, unit
from conekit.topology import icosphere

BALL_SCENE = {
    "inner": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
    "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 3.0},
    "sampling": {"count": 8, "seed": 0, "strategy": "fibonacci"},
    "config": {"samples_per_cone": 64},
}

BAD_SCENE = {
    "inner": {"kind": "ball", "center": [0, 0, 0], "radius": 2.0},
    "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
    "sampling": {"count": 8, "seed": 0, "strategy": "fibonacci"},
    "config": {},
}

CUBE_SCENE = {
    "inner": {
        "kind": "polytope",
        "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    },
    "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 4.0},
    "sampling": {"count": 8, "seed": 0, "strategy": "fibonacci"},
    "config": {},
}


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(BALL_SCENE))
    return str(path)


def test_cone_subcommand(scene_path, tmp_path, capsys):
    out = tmp_path / "cone.json"
    assert main(["cone", "--scene", scene_path, "--apex", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["rays"]) == 64
    assert data["is_sampled"] is True


def test_match_pair(scene_path, capsys):
    assert main(["match", "--scene", scene_path, "--pairs", "0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["congruent"] is True
    assert data["distance"] <= 1e-3
    omega = np.array(data["witness"]["omega"])
    assert np.max(np.abs(omega.T @ omega - np.eye(3))) <= 1e-9


@pytest.mark.parametrize("pairs", ["0,99", "0,8", "-1,3", "0", "a,b", "0,1,2", ""])
def test_match_bad_pairs_exit_three(scene_path, pairs, capsys):
    assert main(["match", "--scene", scene_path, f"--pairs={pairs}"]) == 3
    assert "scene invalid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cone", "symmetry"])
def test_apex_out_of_range_exit_three(scene_path, command, capsys):
    assert main([command, "--scene", scene_path, "--apex", "99"]) == 3
    assert "out of range" in capsys.readouterr().err


def test_match_all_csv(scene_path, tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["match", "--scene", scene_path, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_symmetry_subcommand(scene_path, capsys):
    assert main(["symmetry", "--scene", scene_path, "--apex", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_right_circular"] is True
    assert data["group_order"] == "infinite"


def test_verify_ball_exit_zero(scene_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--scene", scene_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "consistent_with_ball"
    assert report["config"]["samples_per_cone"] == 64


def test_verify_cube_exit_two(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(CUBE_SCENE))
    out = tmp_path / "report.json"
    assert main(["verify", "--scene", str(path), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"] == "non_congruence_witness"


def test_invalid_scene_exit_three(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_SCENE))
    assert main(["verify", "--scene", str(path)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["verify", "--scene", str(missing)]) == 3


def test_hairy_ball_subcommand(tmp_path, capsys):
    mesh_path = tmp_path / "sphere.off"
    tilt = rotation_matrix(unit([0.3, 0.5, 0.81]), 0.4321)
    icosphere(8, rotate=tilt).write_off(mesh_path)
    for field in ("rotational", "projected", "poly"):
        out = tmp_path / f"{field}.json"
        code = main(["hairy-ball", "--mesh", str(mesh_path), "--field", field,
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["index_sum"] == 2


def test_frame_field_subcommand(capsys):
    assert main(["frame-field", "--phi1", "0.0", "--phi2", "1.5707963267948966",
                 "--steps", "32"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["limits_differ"] is True
    assert data["relative_gap"] > 0.1
    assert max(data["cauchy"]) <= 1e-8


def test_degenerate_field_exits_four(tmp_path):
    # untilted icosphere has vertices exactly on the rotational field's
    # zero axis: the index census cannot resolve it and must report a
    # numerical failure
    mesh_path = tmp_path / "aligned.off"
    icosphere(4).write_off(mesh_path)
    assert main(["hairy-ball", "--mesh", str(mesh_path), "--field", "rotational"]) == 4


def test_seed_override_changes_random_sampling(tmp_path, capsys):
    scene = dict(BALL_SCENE)
    scene["sampling"] = {"count": 8, "seed": 0, "strategy": "random"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    main(["cone", "--scene", str(path), "--apex", "0"])
    first = capsys.readouterr().out
    main(["cone", "--scene", str(path), "--apex", "0", "--seed", "5"])
    second = capsys.readouterr().out
    assert first != second


def _six_apex_ball(**changes):
    scene = json.loads(json.dumps(BALL_SCENE))
    scene["sampling"]["count"] = 6
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = scene
        for p in parents:
            node = node[p]
        node[key] = value
    return scene


@pytest.mark.parametrize(
    "changes",
    [
        {"config.tol": float("nan")},
        {"config.tol": -1.0},
        {"config.tol": "1e-3"},
        {"config.samples_per_cone": 2},
        {"config.samples_per_cone": 64.0},
        {"config.jobs": 0},
        {"config.tol": 1e-3, "config.witness_threshold": 1e-4},
        {"config.witness_threshold": float("inf")},
        {"sampling.count": "5"},
        {"sampling.count": 2.5},
        {"sampling.count": True},
        {"sampling.seed": None},
        {"sampling.cuont": 5},
        {"mystery": 1},
        {"inner.colour": "red"},
    ],
    ids=lambda c: ",".join(f"{k}={v!r}" for k, v in c.items()),
)
def test_invalid_scene_values_exit_three(tmp_path, changes, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_six_apex_ball(**changes)))
    assert main(["verify", "--scene", str(path)]) == 3
    assert "scene invalid" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
CUBE_VERTICES = CUBE_SCENE["inner"]["vertices"]


def _ellipsoid(**fields):
    return {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 1, 1], **fields}


@pytest.mark.parametrize(
    "changes,field",
    [
        pytest.param({"inner.radius": NAN}, "radius", id="ball-radius-nan"),
        pytest.param({"inner.radius": INF}, "radius", id="ball-radius-inf"),
        pytest.param({"inner.center": [0, 0, NAN]}, "center", id="ball-center-nan"),
        pytest.param({"outer.center": [INF, 0, 0]}, "center", id="outer-ball-center-inf"),
        pytest.param({"inner": _ellipsoid(semi_axes=[1, 1, INF])}, "semi_axes", id="ellipsoid-axes-inf"),
        pytest.param({"inner": _ellipsoid(semi_axes=[1, NAN, 1])}, "semi_axes", id="ellipsoid-axes-nan"),
        pytest.param({"inner": _ellipsoid(center=[NAN, 0, 0])}, "center", id="ellipsoid-center-nan"),
        pytest.param(
            {"inner": _ellipsoid(orientation=[[1, 0, 0], [0, 1, 0], [0, 0, NAN]])},
            "orientation",
            id="ellipsoid-orientation-nan",
        ),
        pytest.param(
            {"inner": {"kind": "polytope", "vertices": CUBE_VERTICES[:-1] + [[1, 1, NAN]]}},
            "vertices",
            id="polytope-vertex-nan",
        ),
        pytest.param(
            {"inner": {"kind": "polytope", "vertices": CUBE_VERTICES[:-1] + [[INF, 1, 1]]}},
            "vertices",
            id="polytope-vertex-inf",
        ),
    ],
)
def test_non_finite_body_values_named_exit_three(tmp_path, changes, field, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_six_apex_ball(**changes)))
    assert main(["verify", "--scene", str(path)]) == 3
    err = capsys.readouterr().err
    assert "scene invalid" in err and f"{field} must be finite" in err


@pytest.mark.parametrize(
    "changes,cause",
    [
        pytest.param({"outer.radius": 1e300}, "apexes on the outer body are not finite", id="outer-radius-1e300"),
        pytest.param({"inner.radius": 1e-300}, "apex distance in units of the body's semi-axes overflows", id="inner-radius-1e-300"),
        pytest.param(
            {"inner": {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1e-200, 1, 1]}},
            "apex distance in units of the body's semi-axes overflows",
            id="ellipsoid-axis-1e-200",
        ),
        pytest.param({"inner.radius": 1e-30}, "need at least 3 distinct directions", id="inner-radius-1e-30"),
    ],
)
@pytest.mark.parametrize("command", [["verify"], ["symmetry", "--apex", "0"]], ids=["verify", "symmetry"])
def test_extreme_finite_scales_named_exit_three(tmp_path, changes, cause, command, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_six_apex_ball(**changes)))
    assert main([*command, "--scene", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scene invalid:") and cause in err


@pytest.mark.parametrize("flags", [["--seed", "-1"], []], ids=["flag", "scene"])
def test_negative_seed_exit_three(tmp_path, flags, capsys):
    scene = _six_apex_ball(**{"sampling.strategy": "random"})
    if not flags:
        scene["sampling"]["seed"] = -1
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert main(["verify", "--scene", str(path), *flags]) == 3
    assert "sampling seed must be an integer >= 0" in capsys.readouterr().err


# its star (7 pairs) and the 4 pairs whose bounds straddle tol are
# registered in the pool
NEAR_BALL_SCENE = {
    **BALL_SCENE,
    "inner": {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1.004, 1.0, 1.0]},
}


@pytest.mark.parametrize(
    "scene, registrations",
    [(BALL_SCENE, 7), (CUBE_SCENE, 0), (NEAR_BALL_SCENE, 11)],
    ids=["ball", "cube", "near_ball"],
)
def test_verify_jobs_two_matches_serial(tmp_path, scene, registrations):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        code = main(["verify", "--scene", str(path), "--jobs", str(jobs), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["config"].pop("jobs") == jobs
        assert report["congruence_bounds"]["registrations"] == registrations
        reports.append((code, json.dumps(report, sort_keys=True)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--tol", "nan"], ["--tol", "-1"]], ids=" ".join)
def test_invalid_overrides_exit_three(tmp_path, flags, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_six_apex_ball()))
    assert main(["verify", "--scene", str(path), *flags]) == 3
    assert "scene invalid" in capsys.readouterr().err


def test_queries_build_only_their_cones_and_match_full_list(tmp_path, capsys, monkeypatch):
    """Seeded cone/symmetry/match queries build one or two cones, and print
    exactly what the same computation on the full cone list prints."""
    scene_dict = {
        "inner": {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [2.0, 1.0, 1.0]},
        "outer": {"kind": "ball", "center": [0, 0, 0], "radius": 5.0},
        "sampling": {"count": 12, "seed": 0, "strategy": "fibonacci"},
        "config": {"samples_per_cone": 64},
    }
    path = tmp_path / "ellipsoid.json"
    path.write_text(json.dumps(scene_dict))
    scene = harness.load_scene(path)
    _, cones = harness.scene_cones(scene)  # the full list, built once
    tol = scene.config.resolve_tol(True)

    def dump(data):
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    built = []
    real_support_cone = harness.support_cone
    monkeypatch.setattr(harness, "support_cone", lambda *a, **k: built.append(1) or real_support_cone(*a, **k))
    rng = random.Random(3)
    for _ in range(6):
        i, j = rng.sample(range(12), 2)
        built.clear()
        assert main(["cone", "--scene", str(path), "--apex", str(i)]) == 0
        assert capsys.readouterr().out == dump(harness.cone_to_dict(cones[i]))
        assert len(built) == 1
        assert main(["symmetry", "--scene", str(path), "--apex", str(i)]) == 0
        expect = harness.symmetry_report_to_dict(detect_symmetries(cones[i], tol))
        assert capsys.readouterr().out == dump(expect)
        built.clear()
        assert main(["match", "--scene", str(path), "--pairs", f"{i},{j}"]) == 0
        res = congruence_distance(cones[i], cones[j], tol)
        expect = {
            "pair": [i, j],
            "distance": res.distance,
            "congruent": res.congruent,
            "tol": res.tol,
            "witness": harness.motion_to_dict(res.witness),
            "config": dataclasses.asdict(scene.config),
        }
        assert capsys.readouterr().out == dump(expect)
        assert len(built) == 2
