"""The registration, Hausdorff and frame kernels against independent
references.

The library selects nearest neighbours by inner products and never imports
scipy for them, scores the planar grid in slabs, takes cross products of
single vectors on Python floats and builds symmetry planes when they are
read; these tests keep scipy's ``cdist`` and ``polar``, the whole-tensor
grid scoring, ``np.cross`` and eagerly built frames as the reference
routes and require the same bits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import polar

import conekit
from conekit.config import (
    GRID_MAX_RAYS,
    GRID_STEPS,
    GRID_TOP_CANDIDATES,
    ICP_MAX_ITER,
    POLISH_ITER,
    default_tol,
)
from conekit.cones import SupportCone, canonical_axis, support_cone
from conekit.congruence import _aligned_frames, _grid_candidates, _icp_refine, _tangent_anchor
from conekit.harness import load_scene, scene_cones
from conekit.geom import ConvexBody3, PlaneFrame, RigidMotion, compose, cross3, hausdorff_distance
from conekit.symmetry import case_split, detect_symmetries, is_right_circular
from conftest import random_cone, random_orthogonal, random_rotation
from oracles import grid_candidates_dense, hausdorff, icp_refine_cdist, mirror_planes_eager

ROOT = Path(__file__).resolve().parents[1]


def _silhouette_cone(rng, n_rays: int):
    """A sampled cone with exactly ``n_rays`` rays: the silhouette of a
    random ellipsoid from a random external apex."""
    body = ConvexBody3.ellipsoid(
        rng.standard_normal(3), rng.uniform(0.5, 2.0, 3), random_rotation(rng)
    )
    apex = body.center + rng.uniform(3.0, 6.0) * rng.standard_normal(3) / np.sqrt(3.0)
    while body.surface_margin(apex) <= 0.1:
        apex = body.center + 2.0 * (apex - body.center)
    cone = support_cone(body, apex, samples=n_rays)
    assert len(cone.rays) == n_rays
    return cone


@pytest.mark.parametrize("n1,n2", [(3, 3), (6, 6), (3, 6), (24, 24), (6, 24), (256, 256), (24, 256)])
def test_icp_refine_matches_cdist_loop_bitwise(rng, n1, n2):
    for _ in range(4):
        r1 = _silhouette_cone(rng, n1).rays
        r2 = _silhouette_cone(rng, n2).rays
        omega0 = random_orthogonal(rng)
        for max_iter in (POLISH_ITER, ICP_MAX_ITER):
            h, om, converged = _icp_refine(r1, r2, omega0, max_iter=max_iter)
            h_ref, om_ref, converged_ref = icp_refine_cdist(r1, r2, omega0, max_iter)
            assert h == h_ref
            assert np.array_equal(om, om_ref)
            assert converged == converged_ref


@pytest.mark.parametrize("n1,n2", [(3, 3), (4, 6), (6, 6), (24, 24), (6, 256), (256, 256)])
def test_grid_candidates_match_dense_scoring_bitwise(rng, n1, n2):
    for _ in range(4):
        c1, c2 = _silhouette_cone(rng, n1), _silhouette_cone(rng, n2)
        ax1, ax2 = canonical_axis(c1), canonical_axis(c2)
        frames = _aligned_frames(ax1, _tangent_anchor(c1.rays, ax1), ax2, _tangent_anchor(c2.rays, ax2))
        got = _grid_candidates(c1.rays, c2.rays, ax2, *frames)
        ref = grid_candidates_dense(
            c1.rays, c2.rays, ax2, *frames, GRID_STEPS, GRID_MAX_RAYS, GRID_TOP_CANDIDATES
        )
        assert len(got) == len(ref)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("dim", [2, 3])
def test_hausdorff_distance_matches_cdist_exactly(rng, dim):
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-6, 6)
        offset = scale * 10.0 ** rng.uniform(-2, 3) * rng.standard_normal(dim)
        A = offset + scale * rng.standard_normal((int(rng.integers(1, 300)), dim))
        B = scale * rng.standard_normal((int(rng.integers(1, 300)), dim))
        if rng.random() < 0.5:
            B = B + offset
        assert hausdorff_distance(A, B) == hausdorff(A, B)
        assert hausdorff_distance(B, A) == hausdorff(A, B)
        assert hausdorff_distance(A, A[::-1]) == 0.0


def test_compose_reprojection_matches_scipy_polar(rng):
    # composing past the re-projection budget snaps omega with u @ vh from
    # the SVD, the orthogonal polar factor
    phi = RigidMotion(omega=random_rotation(rng), a=rng.standard_normal(3))
    acc = RigidMotion.identity()
    for _ in range(17):
        raw = phi.omega @ acc.omega
        acc = compose(phi, acc)
    assert acc.steps == 0
    assert np.array_equal(acc.omega, polar(raw)[0])


def test_cross3_matches_np_cross_bitwise(rng):
    basis = list(np.eye(3)) + list(-np.eye(3))
    for _ in range(5000):
        a = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal(3)
        b = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal(3)
        if rng.random() < 0.2:
            a = basis[int(rng.integers(len(basis)))]
        if rng.random() < 0.1:
            b = a
        assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()


def _symmetry_test_cones(rng):
    cube = ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    ball = ConvexBody3.ball([0, 0, 0], 1.0)
    ellipsoid = ConvexBody3.ellipsoid([0, 0, 0], [2, 1, 1])
    cones = [
        support_cone(cube, [0, 0, 5]),
        support_cone(cube, [3.0, 0.5, 4.0]),
        support_cone(ball, [0, 0, 3]),
        support_cone(ball, [1.0, -2.0, 2.5], samples=64),
        support_cone(ellipsoid, [0, 0, 4], samples=64),
        support_cone(ellipsoid, [3.0, 1.0, 2.0], samples=64),
    ]
    for m in range(3, 9):
        ang = 2 * np.pi * np.arange(m) / m
        cones.append(SupportCone.from_rays([0, 0, 0], np.column_stack([0.5 * np.cos(ang), 0.5 * np.sin(ang), -np.ones(m)])))
    return cones + [random_cone(rng) for _ in range(10)]


def test_symmetry_planes_equal_eagerly_built_frames(rng):
    n_planes = 0
    for cone in _symmetry_test_cones(rng):
        tol = default_tol(cone.is_sampled)
        report = detect_symmetries(cone, tol)
        sampled_circle = (
            is_right_circular(cone, tol)[0] and cone.is_sampled and len(cone.rays) == cone.source_samples
        )
        ref = mirror_planes_eager(cone.apex, cone.rays, canonical_axis(cone), tol, sampled_circle)
        assert len(report.planes) == len(report.mirror_normals) == len(ref)
        for plane, fields in zip(report.planes, ref):
            for name, want in zip(("origin", "normal", "basis_u", "basis_v"), fields):
                assert getattr(plane, name).tobytes() == want.tobytes(), name
        n_planes += len(ref)
    assert n_planes > 256


def test_detect_symmetries_builds_plane_frames_only_on_read(monkeypatch):
    cones = [
        support_cone(ConvexBody3.ball([0, 0, 0], 1.0), [0, 0, 3]),
        support_cone(ConvexBody3.polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]), [0, 0, 5]),
    ]
    calls = []
    from_normal = PlaneFrame.from_normal.__func__
    monkeypatch.setattr(
        PlaneFrame, "from_normal", classmethod(lambda cls, o, n: calls.append(1) or from_normal(cls, o, n))
    )
    for cone, n_mirrors in zip(cones, (256, 4)):
        calls.clear()
        report = detect_symmetries(cone)
        # classifying reads the mirror angles; normals too are built on read
        assert case_split(report) != "trivial" and "mirror_normals" not in vars(report)
        assert calls == [] and len(report.mirror_normals) == n_mirrors
        planes = report.planes
        assert len(calls) == len(planes) == n_mirrors
        assert report.planes is planes and len(calls) == n_mirrors


def test_cli_verify_imports_no_scipy():
    # one-shot verifies build every cone and, for the cube, the polytope's
    # facets with numpy alone; scipy stays the salience LP's fallback
    code = (
        "import sys\n"
        "from conekit.cli import main\n"
        "codes = [main(['verify', '--scene', s, '--out', sys.argv[1]]) for s in sys.argv[2:]]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(conekit.__file__).resolve().parents[1])
    scenes = ["scenes/ball_r1_R3.json", "scenes/ellipsoid_211_R5.json", "scenes/cube_R4.json"]
    proc = subprocess.run(
        [sys.executable, "-c", code, os.devnull, *scenes],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 2, 2] []"


def test_scene_cones_never_reach_the_salience_lp(monkeypatch):
    # with scipy.optimize unimportable, the LP fallback would raise
    # ImportError: every cone of the four scenes is certified by its hint
    # or its mean direction
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    for scene in ("scenes/ball_r1_R3", "scenes/ellipsoid_211_R5", "scenes/cube_R4",
                  "perfbench/scenes/borderline_e1005_R3"):
        assert len(scene_cones(load_scene(ROOT / f"{scene}.json"))[1]) in (24, 50)
