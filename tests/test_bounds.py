"""Certified congruence bounds and the verdict that `verify_scene` builds
from them: diameter lower bounds, star upper bounds through cone 0, the
registrations they leave, and parity with the all-pairs verdict rule."""

from pathlib import Path

import numpy as np
import pytest

from conekit import congruence as congruence_module
from conekit import harness
from conekit.congruence import congruence_distance, diameter_lower_bounds, pairwise_congruence_matrix
from conekit.geom import hausdorff_distance, unit
from conekit.harness import load_scene, scene_cones, scene_from_dict, verify_scene
from conftest import random_cone
from oracles import full_matrix_verdict

ROOT = Path(__file__).resolve().parents[1]
SCENES = {
    "ball": "scenes/ball_r1_R3.json",
    "cube": "scenes/cube_R4.json",
    "borderline": "perfbench/scenes/borderline_e1005_R3.json",
    "ellipsoid": "scenes/ellipsoid_211_R5.json",
}


def _cones(name):
    scene = load_scene(ROOT / SCENES[name])
    return scene, scene_cones(scene)[1]


@pytest.mark.parametrize("name", ["ball", "cube", "borderline"])
def test_diameter_bound_below_every_scene_registration(name):
    scene, cones = _cones(name)
    tol = scene.config.resolve_tol(any(c.is_sampled for c in cones))
    matrix = pairwise_congruence_matrix(cones, tol).matrix
    assert np.all(diameter_lower_bounds(cones) <= matrix)


def test_diameter_bound_below_ellipsoid_and_random_registrations():
    rng = np.random.default_rng(7)
    _, cones = _cones("ellipsoid")
    lb = diameter_lower_bounds(cones)
    pairs = set()
    while len(pairs) < 100:
        i, j = sorted(int(k) for k in rng.choice(len(cones), 2, replace=False))
        pairs.add((i, j))
    for i, j in sorted(pairs):
        assert lb[i, j] <= congruence_distance(cones[i], cones[j]).distance
    for _ in range(200):
        pair = [random_cone(rng), random_cone(rng)]
        assert diameter_lower_bounds(pair)[0, 1] <= congruence_distance(*pair).distance


@pytest.mark.parametrize("name", ["ball", "borderline"])
def test_star_sums_bound_the_composed_witness(monkeypatch, name):
    """Every star-sum upper bound the verdict uses is attained by an
    explicit motion: the witness of (0, j) after the inverse witness of
    (0, i) maps cone i onto cone j within d(0, i) + d(0, j)."""
    results = {}
    original = harness.pairwise_congruence_matrix

    def recording(*args, **kwargs):
        pw = original(*args, **kwargs)
        results.update(pw.results)
        return pw

    monkeypatch.setattr(harness, "pairwise_congruence_matrix", recording)
    scene, cones = _cones(name)
    verify_scene(scene)
    n = len(cones)
    d0 = [0.0] + [results[(0, j)].distance for j in range(1, n)]
    om = [np.eye(3)] + [results[(0, j)].witness.omega for j in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            motion = om[j] @ om[i].T
            h = hausdorff_distance(cones[i].rays @ motion.T, cones[j].rays)
            assert h <= d0[i] + d0[j] + 1e-12, (i, j)


@pytest.mark.parametrize(
    "name, outside, inside",
    [("ellipsoid", 0, 0), ("cube", 0, 0), ("ball", 49, 0), ("borderline", 23, 24)],
)
def test_registrations_per_verify(monkeypatch, name, outside, inside):
    """Registrations outside and inside the continuity probe: none where a
    diameter bound settles the witness, the n - 1 star pairs on the ball."""
    calls = {"outside": 0, "inside": 0}
    where = ["outside"]
    distance, probe = congruence_module.congruence_distance, harness.continuity_probe

    def counting(*args, **kwargs):
        calls[where[-1]] += 1
        return distance(*args, **kwargs)

    def probing(*args, **kwargs):
        where.append("inside")
        try:
            return probe(*args, **kwargs)
        finally:
            where.pop()

    monkeypatch.setattr(congruence_module, "congruence_distance", counting)
    monkeypatch.setattr(harness, "continuity_probe", probing)
    report = verify_scene(load_scene(ROOT / SCENES[name]))
    assert calls == {"outside": outside, "inside": inside}
    assert report.registrations == outside


def _scene(inner, radius=3.0, count=12, center=(0.0, 0.0, 0.0)):
    return scene_from_dict(
        {
            "inner": inner,
            "outer": {"kind": "ball", "center": list(center), "radius": radius},
            "sampling": {"count": count, "seed": 0, "strategy": "fibonacci"},
            "config": {"samples_per_cone": 64},
        }
    )


def _ellipsoid(e):
    return {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1.0 + e, 1.0, 1.0]}


def _ball(center=(0.0, 0.0, 0.0)):
    return {"kind": "ball", "center": list(center), "radius": 1.0}


def _inscribed_polytope():
    rng = np.random.default_rng(3)
    return {"kind": "polytope", "vertices": [unit(v).tolist() for v in rng.standard_normal((14, 3))]}


PARITY_SCENES = {
    "ball-12": lambda: _scene(_ball()),
    "ball-8-R1.5": lambda: _scene(_ball(), radius=1.5, count=8),
    "ellipsoid-1e-4": lambda: _scene(_ellipsoid(1e-4)),
    "ellipsoid-1e-3": lambda: _scene(_ellipsoid(1e-3)),
    "ellipsoid-5e-3": lambda: _scene(_ellipsoid(5e-3)),
    "ellipsoid-3e-2": lambda: _scene(_ellipsoid(3e-2)),
    "off-centre-ball-0.02": lambda: _scene(_ball((0.02, 0.0, 0.0)), count=10),
    "off-centre-ball-0.5": lambda: _scene(_ball((0.5, 0.0, 0.0)), count=10),
    "cube": lambda: _scene(
        {"kind": "polytope", "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]},
        radius=4.0, count=10,
    ),
    "inscribed-polytope": lambda: _scene(_inscribed_polytope(), count=10),
}


@pytest.mark.parametrize("name", sorted(PARITY_SCENES))
def test_verdict_matches_all_pairs_rule(name):
    scene = PARITY_SCENES[name]()
    verdict, _ = full_matrix_verdict(scene)
    assert verify_scene(scene).verdict == verdict
