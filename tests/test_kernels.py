"""The registration and Hausdorff kernels against independent references.

The library selects nearest neighbours by inner products and never imports
scipy for them, and scores the planar grid in slabs; these tests keep
scipy's ``cdist`` and ``polar`` and the whole-tensor grid scoring as the
reference routes and require the same bits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import polar

import conekit
from conekit.config import GRID_MAX_RAYS, GRID_STEPS, GRID_TOP_CANDIDATES, ICP_MAX_ITER, POLISH_ITER
from conekit.cones import canonical_axis, support_cone
from conekit.congruence import _aligned_frames, _grid_candidates, _icp_refine, _tangent_anchor
from conekit.geom import ConvexBody3, RigidMotion, compose, hausdorff_distance
from conftest import random_orthogonal, random_rotation
from oracles import grid_candidates_dense, hausdorff, icp_refine_cdist

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
            h, om = _icp_refine(r1, r2, omega0, max_iter=max_iter)
            h_ref, om_ref = icp_refine_cdist(r1, r2, omega0, max_iter)
            assert h == h_ref
            assert np.array_equal(om, om_ref)


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


def test_cli_import_and_smooth_scene_load_import_no_scipy():
    code = (
        "import sys\n"
        "from conekit.cli import load_scene\n"
        "load_scene(sys.argv[1]); load_scene(sys.argv[2])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(conekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, "scenes/ball_r1_R3.json", "scenes/ellipsoid_211_R5.json"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
