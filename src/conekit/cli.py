"""Command-line interface.

Subcommands mirror the pipeline stages: ``cone``, ``match``, ``symmetry``
and ``verify`` operate on scene files; ``hairy-ball`` and ``frame-field``
exercise the topology checks.  Exit codes: 0 analysis completed (including
a ball-consistent verdict), 2 a non-congruence witness was found, 3 the
scene is invalid, 4 a numerical routine failed to converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .congruence import congruence_distance, pairwise_congruence_matrix
from .errors import ConeKitError, SceneInvalidError
from .geom import read_off
from .harness import (
    cone_to_dict,
    load_scene,
    matrix_to_csv,
    motion_to_dict,
    report_to_dict,
    scene_cones,
    symmetry_report_to_dict,
    verify_scene,
)
from .symmetry import detect_symmetries
from .topology import (
    TriMesh,
    polynomial_field,
    poincare_hopf_report,
    projected_constant_field,
    rotational_field,
    two_sequence_limits,
)

EXIT_OK = 0
EXIT_WITNESS = 2
EXIT_SCENE_INVALID = 3
EXIT_NUMERICAL = 4


def _dump(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _scene_with_overrides(args) -> tuple:
    scene = load_scene(args.scene)
    cfg = scene.config
    if args.tol is not None:
        cfg = dataclasses.replace(cfg, tol=args.tol)
    if args.jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    return scene, cfg


def _cmd_cone(args) -> int:
    scene, cfg = _scene_with_overrides(args)
    _, (cone,) = scene_cones(scene, [args.apex])
    _dump(cone_to_dict(cone), args.out)
    return EXIT_OK


def _cmd_match(args) -> int:
    scene, cfg = _scene_with_overrides(args)
    if args.pairs != "all":
        try:
            i, j = (int(f) for f in args.pairs.split(","))
        except ValueError:
            raise SceneInvalidError(f'--pairs must be "all" or "i,j", got {args.pairs!r}') from None
        _, (ci, cj) = scene_cones(scene, [i, j])
        tol = cfg.resolve_tol(ci.is_sampled or cj.is_sampled)
        res = congruence_distance(ci, cj, tol)
        _dump(
            {
                "pair": [i, j],
                "distance": res.distance,
                "congruent": res.congruent,
                "tol": res.tol,
                "witness": motion_to_dict(res.witness),
                "config": dataclasses.asdict(cfg),
            },
            args.out,
        )
        return EXIT_OK
    _, cones = scene_cones(scene)
    tol = cfg.resolve_tol(any(c.is_sampled for c in cones))
    pw = pairwise_congruence_matrix(cones, tol, jobs=cfg.jobs)
    if args.format == "csv":
        csv = matrix_to_csv(pw.matrix)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv)
        else:
            print(csv, end="")
    else:
        _dump(
            {
                "matrix": pw.matrix.tolist(),
                "witnesses": {
                    f"{i},{j}": {
                        "distance": res.distance,
                        "congruent": res.congruent,
                        **motion_to_dict(res.witness),
                    }
                    for (i, j), res in sorted(pw.results.items())
                },
                "config": dataclasses.asdict(cfg),
            },
            args.out,
        )
    return EXIT_OK


def _cmd_symmetry(args) -> int:
    scene, cfg = _scene_with_overrides(args)
    _, (cone,) = scene_cones(scene, [args.apex])
    report = detect_symmetries(cone, cfg.resolve_tol(cone.is_sampled))
    _dump(symmetry_report_to_dict(report), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    scene, cfg = _scene_with_overrides(args)
    report = verify_scene(scene, cfg)
    _dump(report_to_dict(report), args.out)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return EXIT_WITNESS if report.verdict == "non_congruence_witness" else EXIT_OK


def _cmd_hairy_ball(args) -> int:
    verts, faces = read_off(args.mesh)
    if any(len(f) != 3 for f in faces):
        raise SceneInvalidError("mesh must be triangular")
    norms = np.linalg.norm(verts, axis=1)
    mesh = TriMesh(vertices=verts / norms[:, None], triangles=np.array(faces, dtype=int))
    if args.field == "rotational":
        field = rotational_field(mesh)
    elif args.field == "projected":
        field = projected_constant_field(mesh)
    elif args.field == "poly":
        field = polynomial_field(mesh, seed=args.seed or 0)
    else:
        raise ValueError(f"unknown field {args.field!r}")
    report = poincare_hopf_report(field)
    _dump(
        {
            "field": args.field,
            "index_sum": report.total,
            "face_indices": {str(k): v for k, v in sorted(report.face_indices.items())},
            "vertex_indices": {str(k): v for k, v in sorted(report.vertex_indices.items())},
        },
        args.out,
    )
    return EXIT_OK


def _cmd_frame_field(args) -> int:
    res = two_sequence_limits(np.array([0.0, 0.0, 1.0]), args.phi1, args.phi2, args.steps)
    _dump(
        {
            "phi1": args.phi1,
            "phi2": args.phi2,
            "steps": args.steps,
            "limit1": res.limit1.omega.tolist(),
            "limit2": res.limit2.omega.tolist(),
            "cauchy": [res.cauchy1, res.cauchy2],
            "relative_gap": res.relative_gap,
            "limits_differ": res.relative_gap > 1e-3,
        },
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Support cones of convex bodies: congruence, symmetry, and scene verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="congruence tolerance override")
    common.add_argument("--seed", type=int, default=None, help="sampling seed override")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--jobs", type=int, default=None, help="parallel workers for pairwise work")
    common.add_argument("--out", default=None, help="output file (defaults to stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cone", parents=[common], help="emit one support cone as JSON")
    p.add_argument("--scene", required=True)
    p.add_argument("--apex", type=int, required=True)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("match", parents=[common], help="pairwise congruence matrix / single pair")
    p.add_argument("--scene", required=True)
    p.add_argument("--pairs", default="all", help='"all" or "i,j"')
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("symmetry", parents=[common], help="symmetry report for one cone")
    p.add_argument("--scene", required=True)
    p.add_argument("--apex", type=int, required=True)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("verify", parents=[common], help="full scene verification report")
    p.add_argument("--scene", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hairy-ball", parents=[common], help="index census of a tangent field")
    p.add_argument("--mesh", required=True, help="OFF file of a triangulated sphere")
    p.add_argument("--field", choices=("rotational", "projected", "poly"), required=True)
    p.set_defaults(func=_cmd_hairy_ball)

    p = sub.add_parser("frame-field", parents=[common], help="two-meridian frame limits")
    p.add_argument("--phi1", type=float, required=True)
    p.add_argument("--phi2", type=float, required=True)
    p.add_argument("--steps", type=int, default=32)
    p.set_defaults(func=_cmd_frame_field)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SceneInvalidError as exc:
        print(f"scene invalid: {exc}", file=sys.stderr)
        return EXIT_SCENE_INVALID
    except ConeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
