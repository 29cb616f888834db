import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from conekit.cones import SupportCone
from conekit.geom import RigidMotion, unit
from conekit.harness import load_scene, verify_scene

ROOT = Path(__file__).resolve().parents[1]

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def random_rotation(rng) -> np.ndarray:
    A = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_orthogonal(rng) -> np.ndarray:
    Q = random_rotation(rng)
    if rng.random() < 0.5:
        Q = -Q
    return Q


def random_motion(rng, scale: float = 2.0) -> RigidMotion:
    return RigidMotion(omega=random_orthogonal(rng), a=scale * rng.standard_normal(3))


def random_cone(rng, n_rays: int | None = None) -> SupportCone:
    """A random polyhedral cone with all rays extreme: directions placed on
    a strictly convex spherical oval (distinct azimuths), so the requested
    count survives the hull."""
    if n_rays is None:
        n_rays = int(rng.integers(4, 17))
    for _ in range(50):
        axis = unit(rng.standard_normal(3))
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(axis)))] = 1.0
        e1 = unit(np.cross(helper, axis))
        e2 = np.cross(axis, e1)
        # points on an ellipse in the gnomonic chart at the axis: the chart
        # preimage of a strictly convex curve keeps every direction extreme
        a = rng.uniform(0.25, 1.1)
        b = a * rng.uniform(0.55, 0.95)
        psi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_rays))
        if np.min(np.diff(np.concatenate([psi, [psi[0] + 2 * np.pi]]))) < 0.05:
            continue
        raw = axis + np.outer(a * np.cos(psi), e1) + np.outer(b * np.sin(psi), e2)
        dirs = raw / np.linalg.norm(raw, axis=1)[:, None]
        cone = SupportCone.from_rays(rng.standard_normal(3), dirs)
        if len(cone.rays) == n_rays:
            return cone
    raise RuntimeError("could not draw a cone with the requested ray count")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def ellipsoid_verify():
    """One verify of the golden ellipsoid scene, shared by acceptance
    criterion 2 and the pinned-report test: (scene, report, seconds)."""
    scene = load_scene(ROOT / "scenes" / "ellipsoid_211_R5.json")
    t0 = time.perf_counter()
    report = verify_scene(scene)
    return scene, report, time.perf_counter() - t0
