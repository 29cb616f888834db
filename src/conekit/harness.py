"""Scene ingestion, boundary sampling, the cone-axis field eta, and the
end-to-end verification pipeline.

A scene is an inner body M strictly inside an outer body K.  The pipeline
samples apexes on the boundary of K, builds the support cones of M, bounds
every pair's congruence distance (registering only the pairs whose bounds
leave the verdict open), classifies each cone's symmetry, collects the axis
field eta with injectivity and coverage statistics, cuts the distance-1
cross-sections, and issues a verdict:

* ``consistent_with_ball`` when every pair's upper bound is within
  tolerance, the cones are right circular, and their sections are circles,
* ``non_congruence_witness`` when some pair is distant beyond the witness
  threshold (a concrete counterexample pair is reported),
* ``continuity_violation`` when borderline residuals combine with
  diverging witness limits,
* ``inconclusive`` in the remaining borderline band.

Reports are pure functions of (scene, config): identical inputs give
bit-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import EPS_GEO, HarnessConfig, is_integer, is_positive_number
from .cones import PlanarSection, SupportCone, cross_section, support_cone
from .congruence import (
    ContinuityProbeResult,
    continuity_probe,
    diameter_lower_bounds,
    pairwise_congruence_matrix,
)
from .errors import SceneInvalidError, UnresolvedConeError
from .geom import ConvexBody3, as_point, fibonacci_directions, hausdorff_distance, unit
from .symmetry import SymmetryReport, case_split, detect_circle, detect_symmetries
from .topology import icosphere

__all__ = [
    "Scene",
    "EtaResult",
    "SectionFieldResult",
    "VerificationReport",
    "load_scene",
    "scene_from_dict",
    "sample_boundary",
    "scene_cones",
    "eta_map",
    "section_field",
    "verify_scene",
    "report_to_dict",
    "matrix_to_csv",
]

_INNER_CONTAINMENT_SAMPLES = 256


@dataclass(frozen=True, eq=False)
class Scene:
    """Inner body, enclosing outer body, and the apex sampling plan.

    The scene frame origin is an interior point of the inner body (its
    centroid unless overridden); apex sampling projects a deterministic
    unit-sphere point set from that origin onto the outer boundary.
    """

    inner: ConvexBody3
    outer: ConvexBody3
    count: int = 50
    seed: int = 0
    strategy: str = "fibonacci"
    containment_margin: float = 1e-6
    origin: np.ndarray | None = None
    config: HarnessConfig = field(default_factory=HarnessConfig)

    def __post_init__(self):
        if self.strategy not in ("fibonacci", "random"):
            raise SceneInvalidError(f"unknown sampling strategy {self.strategy!r}")
        if not (is_integer(self.count) and self.count >= 2):
            raise SceneInvalidError(f"apex count must be an integer >= 2, got {self.count!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise SceneInvalidError(f"sampling seed must be an integer >= 0, got {self.seed!r}")
        if not is_positive_number(self.containment_margin):
            raise SceneInvalidError("containment margin must be a finite number > 0")
        origin = self.inner.centroid() if self.origin is None else as_point(self.origin)
        origin = np.ascontiguousarray(origin)
        origin.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        if not self.inner.contains(origin):
            raise SceneInvalidError("scene origin must lie inside the inner body")
        for p in self.inner.boundary_samples(_INNER_CONTAINMENT_SAMPLES):
            if not self.outer.contains(p, self.containment_margin):
                raise SceneInvalidError(
                    "inner body is not strictly inside the outer body",
                    offending_sample=p,
                )


_SCENE_KEYS = {"inner", "outer", "sampling", "config", "containment_margin"}
_SAMPLING_KEYS = {"count", "seed", "strategy"}
_CONFIG_KEYS = {f.name for f in fields(HarnessConfig)}
_BODY_KEYS = {
    "ball": {"kind", "center", "radius"},
    "ellipsoid": {"kind", "center", "semi_axes", "orientation"},
    "polytope": {"kind", "vertices"},
}


def _check_keys(where: str, data, known: set) -> dict:
    if not isinstance(data, dict):
        raise SceneInvalidError(f"{where} must be a JSON object")
    unknown = set(data) - known
    if unknown:
        raise SceneInvalidError(f"unknown {where} keys: {sorted(unknown)}")
    return data


def _body_from_dict(data: dict) -> ConvexBody3:
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _BODY_KEYS:
        raise SceneInvalidError(f"unknown body kind {kind!r}")
    _check_keys(f"{kind} body", data, _BODY_KEYS[kind])
    if kind == "ball":
        return ConvexBody3.ball(data["center"], data["radius"])
    if kind == "ellipsoid":
        return ConvexBody3.ellipsoid(
            data["center"], data["semi_axes"], data.get("orientation")
        )
    return ConvexBody3.polytope(data["vertices"])


def scene_from_dict(data: dict) -> Scene:
    """Build a scene from the JSON schema:

    ``{"inner": {...}, "outer": {...}, "sampling": {"count", "seed",
    "strategy"}, "config": {"tol", "witness_threshold",
    "samples_per_cone", "jobs"}, "containment_margin"}``

    Unknown keys at any level are rejected, as are values of the wrong type
    or range (``SceneInvalidError``).
    """
    _check_keys("scene", data, _SCENE_KEYS)
    try:
        inner = _body_from_dict(data["inner"])
        outer = _body_from_dict(data["outer"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SceneInvalidError(f"invalid body specification: {exc}") from exc
    sampling = _check_keys("sampling", data.get("sampling", {}), _SAMPLING_KEYS)
    cfg = HarnessConfig(**_check_keys("config", data.get("config", {}), _CONFIG_KEYS))
    return Scene(
        inner=inner,
        outer=outer,
        count=sampling.get("count", 50),
        seed=sampling.get("seed", 0),
        strategy=sampling.get("strategy", "fibonacci"),
        containment_margin=data.get("containment_margin", 1e-6),
        config=cfg,
    )


def load_scene(path) -> Scene:
    """Read and validate a scene JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneInvalidError(f"cannot parse scene file: {exc}") from exc
    try:
        return scene_from_dict(data)
    except ValueError as exc:
        raise SceneInvalidError(str(exc)) from exc


def sample_boundary(body: ConvexBody3, n: int, seed: int = 0,
                    strategy: str = "fibonacci", origin=None) -> np.ndarray:
    """Deterministic boundary points: central projection of a unit-sphere
    point set onto the surface along rays from an interior origin."""
    if n < 2:
        raise ValueError("need at least 2 boundary samples")
    o = body.centroid() if origin is None else as_point(origin)
    if strategy == "fibonacci":
        dirs = fibonacci_directions(n)
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n, 3))
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    return body.ray_exits(o, dirs)


def scene_apexes(scene: Scene) -> np.ndarray:
    # a scale beyond double precision turns ray exits into 0/0 or inf here;
    # the finiteness check names it
    with np.errstate(over="ignore", invalid="ignore"):
        apexes = sample_boundary(
            scene.outer, scene.count, scene.seed, scene.strategy, scene.origin
        )
    if not np.all(np.isfinite(apexes)):
        raise SceneInvalidError("apexes on the outer body are not finite: its size overflows double precision")
    # a margin that overflows is +inf, and support_cone names that overflow;
    # a NaN margin shows no containment and is rejected
    with np.errstate(over="ignore"):
        for x in apexes:
            if not scene.inner.surface_margin(x) >= scene.containment_margin:
                raise SceneInvalidError(
                    "sampled apex is not outside the inner body by the containment margin",
                    offending_sample=x,
                )
    return apexes


def scene_cones(scene: Scene, indices=None) -> tuple[np.ndarray, list[SupportCone]]:
    """Apexes on the outer boundary and the inner body's support cones.

    Every apex is sampled and checked; with ``indices`` only the cones at
    those apexes are built, in that order."""
    apexes = scene_apexes(scene)
    if indices is None:
        indices = range(len(apexes))
    for i in indices:
        if not 0 <= i < len(apexes):
            raise SceneInvalidError(f"apex index {i} out of range for {len(apexes)} apexes")
    cones = []
    for i in indices:
        try:
            cones.append(support_cone(scene.inner, apexes[i], samples=scene.config.samples_per_cone))
        except UnresolvedConeError as exc:
            raise SceneInvalidError(f"support cone at apex {i} cannot be resolved in double precision: {exc}") from exc
    return apexes, cones


@dataclass(frozen=True, eq=False)
class EtaResult:
    """The axis field over the sampled apexes: one unit direction per apex
    (the cross-section normal pointing out toward the apex), plus sampled
    injectivity and coverage statistics.

    Apexes whose cone has neither a rotation axis nor circular symmetry
    fall back to the canonical axis and are flagged.
    """

    etas: np.ndarray
    fallback: np.ndarray
    min_separation: float
    coverage_fraction: float


def _coverage_fraction(etas: np.ndarray, frequency: int) -> float:
    """Fraction of coverage-grid cells (icosphere faces) hit by the eta
    directions, locating each direction by ray-triangle containment."""
    grid = icosphere(frequency)
    tris = grid.triangles
    corners = grid.vertices[tris]  # (F, 3, 3)
    mats = np.linalg.inv(np.transpose(corners, (0, 2, 1)))  # (F, 3, 3)
    bary = np.einsum("fij,nj->fni", mats, etas)
    inside = np.all(bary >= -1e-12, axis=2)  # (F, n)
    hit = np.any(inside, axis=1)
    return float(hit.sum()) / len(tris)


def eta_map(
    cones: list[SupportCone],
    sections: list[PlanarSection],
    classes: list[str],
    coverage_frequency: int = 3,
) -> EtaResult:
    """Collect the per-apex axis directions from the section frames.

    The direction is the distance-1 cross-section normal, oriented toward
    the apex side; for a ball-in-sphere scene it reproduces the outward
    radial direction at each apex.
    """
    etas = np.array([s.frame.normal for s in sections])
    fallback = np.array(
        [cls not in ("right_circular", "axis_of_symmetry") for cls in classes]
    )
    n = len(etas)
    gram = np.clip(etas @ etas.T, -1.0, 1.0)
    ang = np.arccos(gram)
    iu = np.triu_indices(n, k=1)
    min_sep = float(ang[iu].min()) if len(iu[0]) else float("inf")
    coverage = _coverage_fraction(etas, coverage_frequency)
    return EtaResult(
        etas=etas,
        fallback=fallback,
        min_separation=min_sep,
        coverage_fraction=coverage,
    )


@dataclass(frozen=True, eq=False)
class SectionFieldResult:
    """Distance-1 cross-sections tagged by their axis directions.

    Continuity is probed, not assumed: for each apex and its nearest
    neighbour (by axis angle), the 3D Hausdorff gap between the embedded
    sections must stay within a data-estimated Lipschitz cone
    ``L * angle + 2 * tol``.
    """

    sections: list
    lipschitz_estimate: float
    continuity_violations: tuple
    circle_flags: tuple
    circle_radii: tuple


def section_field(
    cones: list[SupportCone],
    etas: np.ndarray,
    tol: float,
    sections: list[PlanarSection] | None = None,
) -> SectionFieldResult:
    if sections is None:
        sections = [cross_section(c, 1.0) for c in cones]
    n = len(sections)

    embedded = [s.embedded() for s in sections]
    gram = np.clip(etas @ etas.T, -1.0, 1.0)
    ang = np.arccos(gram)
    np.fill_diagonal(ang, np.inf)
    ratios = []
    pairs = []
    for i in range(n):
        j = int(np.argmin(ang[i]))
        theta = float(ang[i, j])
        h = hausdorff_distance(embedded[i], embedded[j])
        pairs.append((i, j, h, theta))
        if theta > EPS_GEO:
            ratios.append(h / theta)
    lip = 2.0 * float(np.median(ratios)) if ratios else 0.0
    violations = tuple(
        (i, j, h, theta)
        for i, j, h, theta in pairs
        if h > lip * theta + 2.0 * tol
    )

    flags = []
    radii = []
    for s in sections:
        if len(s.polygon) >= 8:
            ok, _, radius = detect_circle(s, tol)
        else:
            ok, radius = False, float("nan")  # too coarse to be a sampled circle
        flags.append(bool(ok))
        radii.append(float(radius))
    return SectionFieldResult(
        sections=sections,
        lipschitz_estimate=lip,
        continuity_violations=violations,
        circle_flags=tuple(flags),
        circle_radii=tuple(radii),
    )


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """End-to-end scene verdict with the statistics that justify it.

    ``lower_bound_max`` is the largest certified lower bound on a pair's
    congruence distance, ``upper_bound_max`` the largest certified upper
    bound (None when no registration ran), and ``registrations`` the number
    of pairs registered outside the continuity probe."""

    verdict: str
    witness_pair: tuple | None
    lower_bound_max: float
    upper_bound_max: float | None
    registrations: int
    congruent_field: bool
    tol: float
    witness_threshold: float
    symmetry_classes: tuple
    all_right_circular: bool
    half_angles: tuple
    eta: EtaResult
    sections: SectionFieldResult
    apexes: np.ndarray
    probe: ContinuityProbeResult | None
    config_echo: dict


def _probe_sequences(scene: Scene, apexes: np.ndarray, i: int, j: int):
    """Two boundary approach sequences to apex j: one sliding from apex i
    along the connecting great arc, one approaching from a perpendicular
    tangent direction."""
    o = scene.origin
    ui = unit(apexes[i] - o)
    uj = unit(apexes[j] - o)
    if abs(float(ui @ uj)) > 1.0 - 1e-9:
        ui = unit(np.roll(uj, 1) - float(np.roll(uj, 1) @ uj) * uj)
    t1 = unit(ui - float(ui @ uj) * uj)
    t2 = np.cross(uj, t1)
    deltas = np.geomspace(0.2, 1e-5, 12)

    def walk(t):
        dirs = np.array([np.cos(d) * uj + np.sin(d) * t for d in deltas])
        return scene.outer.ray_exits(o, dirs)

    return walk(t1), walk(t2), apexes[j]


def _registered(cones, tol: float, jobs: int, iu, todo: np.ndarray) -> np.ndarray:
    """Registered distances of the upper-triangle pairs ``iu`` selected by
    ``todo``, +inf for the others."""
    d = np.full(len(todo), np.inf)
    if todo.any():
        pairs = [(int(iu[0][k]), int(iu[1][k])) for k in np.flatnonzero(todo)]
        d[todo] = pairwise_congruence_matrix(cones, tol, jobs, pairs=pairs).matrix[iu][todo]
    return d


def verify_scene(scene: Scene, config: HarnessConfig | None = None) -> VerificationReport:
    """Run the full pipeline and issue a verdict.

    Every pair of cones gets a certified lower bound on its congruence
    distance from the cones' diameters, and an upper bound from
    registrations: against cone 0 for every cone (a star), then of the
    pairs whose bounds straddle the threshold that decides the verdict.
    The verdict is ``consistent_with_ball`` only when every upper bound is
    within tolerance, every cone is right circular, and every section is a
    circle.  A lower bound beyond the witness threshold, or else an upper
    bound beyond it, names a counterexample pair.  Otherwise the scene is
    in the inconclusive band, where a witness-limit probe distinguishes a
    continuity violation from plain borderline numerics.
    """
    cfg = config or scene.config
    apexes, cones = scene_cones(scene)
    sampled = any(c.is_sampled for c in cones)
    tol = cfg.resolve_tol(sampled)
    wit = cfg.resolve_witness_threshold(sampled)

    # Rounding margin.  Each diameter is the norm of a difference of two
    # unit rays, at most 2, and the farthest pair is among those measured,
    # so it rounds by well under 1e-14: a computed lower bound exceeds the
    # certified one by less than 1e-12.
    m = 1e-12
    iu = np.triu_indices(len(cones), k=1)
    lb = diameter_lower_bounds(cones)[iu]
    ub = np.full(len(lb), np.inf)
    registered = np.zeros(len(lb), dtype=bool)
    if lb.max() <= wit + m:
        # the witness of d(0, j) maps cone 0 onto cone j, so composing two
        # of them maps cone i onto cone j within d(0, i) + d(0, j)
        registered = iu[0] == 0
        d0 = np.concatenate([[0.0], _registered(cones, tol, cfg.jobs, iu, registered)[registered]])
        ub = d0[iu[0]] + d0[iu[1]]
        todo = ~registered & (ub > wit)
        ub = np.minimum(ub, _registered(cones, tol, cfg.jobs, iu, todo))
        registered |= todo
        if ub.max() <= wit and lb.max() <= tol + m:
            todo = ~registered & (ub > tol)
            ub = np.minimum(ub, _registered(cones, tol, cfg.jobs, iu, todo))
            registered |= todo
    k_lb, k_ub = int(np.argmax(lb)), int(np.argmax(ub))
    lb_pair = (int(iu[0][k_lb]), int(iu[1][k_lb]))
    ub_pair = (int(iu[0][k_ub]), int(iu[1][k_ub]))
    congruent = bool(ub[k_ub] <= tol)

    reports = [detect_symmetries(c, tol) for c in cones]
    classes = [case_split(r) for r in reports]
    all_rc = all(r.is_right_circular for r in reports)
    half_angles = tuple(
        float(r.half_angle) if r.half_angle is not None else float("nan")
        for r in reports
    )

    sections = [cross_section(c, 1.0) for c in cones]
    eta = eta_map(cones, sections, classes)
    sect = section_field(cones, eta.etas, tol, sections)

    probe = None
    if congruent and all_rc and all(sect.circle_flags):
        verdict = "consistent_with_ball"
        witness_pair = None
    elif lb[k_lb] > wit + m:
        verdict = "non_congruence_witness"
        witness_pair = lb_pair
    elif ub[k_ub] > wit:
        verdict = "non_congruence_witness"
        witness_pair = ub_pair
    else:
        pair = lb_pair if lb[k_lb] > tol + m else ub_pair
        seq1, seq2, xstar = _probe_sequences(scene, apexes, *pair)
        probe = continuity_probe(
            lambda x: support_cone(scene.inner, x, samples=cfg.samples_per_cone),
            apexes[pair[0]],
            xstar,
            seq1,
            seq2,
            tol,
        )
        diverging = probe.limits_differ or not (probe.converged1 and probe.converged2)
        if diverging and probe.hypothesis_violated:
            verdict = "continuity_violation"
            witness_pair = pair
        else:
            verdict = "inconclusive"
            witness_pair = None

    return VerificationReport(
        verdict=verdict,
        witness_pair=witness_pair,
        lower_bound_max=float(lb[k_lb]),
        upper_bound_max=float(ub[k_ub]) if registered.any() else None,
        registrations=int(registered.sum()),
        congruent_field=congruent,
        tol=tol,
        witness_threshold=wit,
        symmetry_classes=tuple(classes),
        all_right_circular=all_rc,
        half_angles=half_angles,
        eta=eta,
        sections=sect,
        apexes=apexes,
        probe=probe,
        config_echo=asdict(cfg),
    )


# ---------------------------------------------------------------------------
# serialization


def motion_to_dict(phi) -> dict:
    return {"omega": phi.omega.tolist(), "a": phi.a.tolist()}


def cone_to_dict(cone: SupportCone) -> dict:
    return {
        "apex": cone.apex.tolist(),
        "rays": cone.rays.tolist(),
        "is_sampled": cone.is_sampled,
        "source_samples": cone.source_samples,
    }


def frame_to_dict(frame) -> dict:
    return {
        "origin": frame.origin.tolist(),
        "normal": frame.normal.tolist(),
        "basis_u": frame.basis_u.tolist(),
        "basis_v": frame.basis_v.tolist(),
    }


def section_to_dict(section: PlanarSection) -> dict:
    return {"frame": frame_to_dict(section.frame), "polygon": section.polygon.tolist()}


def symmetry_report_to_dict(report: SymmetryReport) -> dict:
    return {
        "axes": [
            {
                "point": ax.point.tolist(),
                "direction": ax.direction.tolist(),
                "order": ax.order,
            }
            for ax in report.axes
        ],
        "planes": [frame_to_dict(p) for p in report.planes],
        "is_right_circular": report.is_right_circular,
        "half_angle": report.half_angle,
        "group_order": report.group_order,
    }


def report_to_dict(report: VerificationReport) -> dict:
    """JSON-ready view of a verification report (deterministic for fixed
    scene, seed and configuration)."""
    probe = None
    if report.probe is not None:
        probe = {
            "converged": [report.probe.converged1, report.probe.converged2],
            "cauchy": [report.probe.cauchy1, report.probe.cauchy2],
            "limits_differ": report.probe.limits_differ,
            "relative_gap": report.probe.relative_gap,
            "self_map_residual": report.probe.self_map_residual,
            "hypothesis_violated": report.probe.hypothesis_violated,
        }
    return {
        "verdict": report.verdict,
        "witness_pair": list(report.witness_pair) if report.witness_pair else None,
        "congruence_bounds": {
            "max_lower_bound": report.lower_bound_max,
            "max_upper_bound": report.upper_bound_max,
            "registrations": report.registrations,
        },
        "tol": report.tol,
        "witness_threshold": report.witness_threshold,
        "symmetry_classes": list(report.symmetry_classes),
        "all_right_circular": report.all_right_circular,
        "half_angles": list(report.half_angles),
        "eta_samples": [
            {"apex": a.tolist(), "eta": e.tolist()}
            for a, e in zip(report.apexes, report.eta.etas)
        ],
        "eta_min_separation": report.eta.min_separation,
        "eta_coverage_fraction": report.eta.coverage_fraction,
        "eta_fallback_count": int(report.eta.fallback.sum()),
        "congruent_field": report.congruent_field,
        "section_circles": list(report.sections.circle_flags),
        "section_radii": list(report.sections.circle_radii),
        "continuity_violations": [list(v) for v in report.sections.continuity_violations],
        "probe": probe,
        "config": report.config_echo,
    }


def matrix_to_csv(matrix: np.ndarray) -> str:
    """CSV rendering of the congruence matrix (row/column = apex index)."""
    n = len(matrix)
    lines = ["apex," + ",".join(str(j) for j in range(n))]
    for i in range(n):
        lines.append(str(i) + "," + ",".join(repr(float(x)) for x in matrix[i]))
    return "\n".join(lines) + "\n"
