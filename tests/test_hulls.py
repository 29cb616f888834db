"""The library's numpy hulls and direction dedupe against scipy's.

Support cones take their extreme rays from ``extreme_cycle``, polytope
bodies their facet planes from ``facet_normals``, and both drop repeated
directions with a sort-and-sweep in ``_dedupe_directions``; none of them
imports scipy.  These tests keep Qhull and ``cKDTree`` as the reference
routes: the same vertex cycles, the same planes once Qhull's coplanar
triangles are merged, and the same keep mask."""

from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from conekit import cones as cones_module
from conekit.cones import _dedupe_directions
from conekit.geom import ConvexBody3, extreme_cycle, facet_normals
from conekit.harness import load_scene, scene_cones

ROOT = Path(__file__).resolve().parents[1]
SCENES = ("scenes/ball_r1_R3", "scenes/ellipsoid_211_R5", "scenes/cube_R4", "perfbench/scenes/borderline_e1005_R3")
CUBE = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def _scene_inputs(monkeypatch, name: str) -> list[np.ndarray]:
    """The arguments ``name``'s cones pass to the library routine ``name``
    while every scene's cones are built."""
    seen = []
    real = getattr(cones_module, name)
    monkeypatch.setattr(cones_module, name, lambda x, *a: seen.append(np.array(x)) or real(x, *a))
    for scene in SCENES:
        scene_cones(load_scene(ROOT / f"{scene}.json"))
    assert len(seen) == 3 * 50 + 24
    return seen


def _kdtree_keep(dirs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    pairs = cKDTree(dirs).query_pairs(tol, output_type="ndarray")  # i < j
    keep = np.ones(len(dirs), dtype=bool)
    keep[pairs[:, 1]] = False
    return keep


def _same_cycle(a, b) -> bool:
    a, b = list(a), list(b)
    if sorted(a) != sorted(b):
        return False
    k = a.index(b[0])
    return a[k:] + a[:k] == b


def test_dedupe_matches_kdtree_on_planted_duplicates_and_chains():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dirs = rng.standard_normal((int(rng.integers(3, 300)), 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        k = rng.integers(0, len(dirs), 8)
        step = rng.standard_normal((4, 3))
        step *= 0.6e-12 / np.linalg.norm(step, axis=1)[:, None]
        # exact repeats, near repeats, and chains a ~ b ~ c with a and c
        # 1.2e-12 apart: the keep mask drops b and c, not only b
        planted = [dirs[k[:2]], dirs[k[2:5]] + rng.uniform(-4e-13, 4e-13, (3, 3)),
                   dirs[k[5:7]] + step[:2], dirs[k[5:7]] + 2.0 * step[:2], dirs[k[7:]] + step[2:3]]
        dirs = np.vstack([dirs, *planted])[rng.permutation(len(dirs) + 10)]
        keep = _kdtree_keep(dirs)
        assert np.array_equal(_dedupe_directions(dirs), dirs[keep])
    chain = np.array([[0.0, 0.0, 1.0], [0.6e-12, 0.0, 1.0], [1.2e-12, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(_dedupe_directions(chain), chain[[0, 3]])


def test_dedupe_matches_kdtree_on_scene_cones(monkeypatch):
    for dirs in _scene_inputs(monkeypatch, "_dedupe_directions"):
        assert np.array_equal(_dedupe_directions(dirs), dirs[_kdtree_keep(dirs)])


def test_extreme_cycle_matches_qhull_on_scene_cones(monkeypatch):
    for pts in _scene_inputs(monkeypatch, "extreme_cycle"):
        assert _same_cycle(extreme_cycle(pts), ConvexHull(pts).vertices)


def test_extreme_cycle_matches_qhull_on_random_and_collinear_sets():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(3, 80))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        sets = [rng.standard_normal((n, 2)), np.column_stack([np.cos(theta), np.sin(theta)])]
        # dyadic grid points: exactly collinear runs along hull edges
        grid = np.unique(rng.integers(0, 8, (n, 2)) / 4.0, axis=0)
        if len(grid) >= 3 and np.linalg.matrix_rank(grid - grid[0]) == 2:
            sets.append(grid)
        for pts in sets:
            assert _same_cycle(extreme_cycle(pts), ConvexHull(pts).vertices)


@pytest.mark.parametrize("bulge", [0.0, 1e-9, -1e-9, 1e-6, -1e-6])
def test_extreme_cycle_matches_qhull_near_collinear(bulge):
    # points along the edges of a square, on arcs that bulge out of it by
    # up to ``bulge``: out of the square they are vertices, on or into it
    # they are not
    t = np.linspace(0.0, 1.0, 9)[1:-1]
    h = 4.0 * bulge * t * (1.0 - t)
    edges = [np.column_stack([t, -h]), np.column_stack([1.0 + h, t]),
             np.column_stack([t, 1.0 + h]), np.column_stack([-h, t])]
    pts = np.vstack([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], *edges])
    pts = pts[np.random.default_rng(9).permutation(len(pts))]
    cycle = extreme_cycle(pts)
    assert _same_cycle(cycle, ConvexHull(pts).vertices)
    assert len(cycle) == (len(pts) if bulge > 0 else 4)


def test_extreme_cycle_of_collinear_points_is_short():
    pts = np.column_stack([np.linspace(0.0, 1.0, 7), np.linspace(2.0, -1.0, 7)])
    assert len(extreme_cycle(pts)) < 3


def _merged_qhull_planes(verts: np.ndarray) -> np.ndarray:
    """Qhull's facet equations [normal, -offset] with the triangles of one
    facet merged into one row."""
    planes = []
    for eq in ConvexHull(verts).equations:
        if not any(np.max(np.abs(eq - p)) <= 1e-9 for p in planes):
            planes.append(eq)
    return np.array(planes)


def test_facet_normals_match_qhull_equations():
    rng = np.random.default_rng(10)
    bodies = [np.array(CUBE, dtype=float), np.array(CUBE) * [3.0, 1.0, 0.5] + [1.0, -2.0, 0.25]]
    for n in (4, 5, 8, 13, 30, 60, 120, 200):
        for on_sphere in (False, True):
            pts = rng.standard_normal((n, 3))
            if on_sphere:
                pts /= np.linalg.norm(pts, axis=1)[:, None]
            bodies.append(pts[ConvexHull(pts).vertices])
    for verts in bodies:
        normals = facet_normals(verts)
        mine = np.column_stack([normals, -(verts @ normals.T).max(axis=0)])
        ref = _merged_qhull_planes(verts)
        assert len(mine) == len(ref)
        gap = np.abs(mine[:, None, :] - ref[None, :, :]).max(axis=2)
        assert gap.min(axis=0).max() <= 1e-9 and gap.min(axis=1).max() <= 1e-9
        body = ConvexBody3.polytope(verts)
        assert np.array_equal(body.facet_normals, normals)
        assert np.max(np.abs(body.facet_offsets + mine[:, 3])) == 0.0
