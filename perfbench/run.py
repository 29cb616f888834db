#!/usr/bin/env python3
"""Scene-verification benchmark for conekit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ellipsoid --seed 1 --seconds 10 --trace 0

One run measures one workload in this process, with ``jobs=1`` and a closed
loop of one client: each operation starts when the previous one returned.
An operation is one in-process ``conekit.cli.main`` call, a full ``verify``
on the scene workloads and one per-apex query on ``queries``.  Every output
is checked (verdict, exit code, report bytes repeat exactly).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, records spans around calls into each conekit
module (see ``tracing.py``) and prints the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  The last line of standard output is
the JSON result; details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import quartiles, tail_percentile  # noqa: E402
from tracing import Tracer, outermost_time, self_times  # noqa: E402

# Expected outputs per workload.  The golden scenes are used as committed.
WORKLOADS = {
    "ellipsoid": {
        "scene": "scenes/ellipsoid_211_R5.json",
        "verdict": "non_congruence_witness",
        "exit": 2,
    },
    "ball": {
        "scene": "scenes/ball_r1_R3.json",
        "verdict": "consistent_with_ball",
        "exit": 0,
    },
    "cube": {
        "scene": "scenes/cube_R4.json",
        "verdict": "non_congruence_witness",
        "exit": 2,
    },
    # the exit code of continuity_violation is still to be settled, so this
    # workload is judged by its verdict only
    "borderline": {
        "scene": "perfbench/scenes/borderline_e1005_R3.json",
        "verdict": "continuity_violation",
        "exit": None,
    },
    "queries": {"scene": "scenes/ellipsoid_211_R5.json", "queries": True},
}

# Every matrix the pipeline builds is at most 256 x 256, and pairwise work
# runs with jobs=1, so one BLAS thread is what a single workload needs.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# 100 queries put ten samples beyond the 90th percentile
QUERY_MIN_OPS = 100
WARMUP_APEXES = 4
SETUP_CODE = (
    "import sys, time\nfrom conekit.cli import load_scene\n"
    "load_scene(sys.argv[1])\nprint(repr(time.monotonic()))\n"
)


class Checker:
    """Counts operations attempted and failed.  An operation fails when it
    raises, when its exit code or verdict is not the expected one, or when
    its report bytes differ from an earlier run of the same arguments."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reports: dict[tuple, bytes] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def run_op(cli, argv, out_path: Path, check, checker: Checker, tracer=None):
    """One closed-loop operation; returns its wall time, or None when it
    raised."""
    checker.attempted += 1
    label = " ".join(argv[:1] + argv[3:-2])
    try:
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(f"op.{argv[0]}", cli.main, argv)
        elapsed = time.perf_counter() - t0
        data = out_path.read_bytes()
        problem = check(rc, json.loads(data))
    except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
        checker.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    if problem is None and checker.reports.setdefault(tuple(argv), data) != data:
        problem = "report bytes differ from an earlier run of the same arguments"
    if problem is not None:
        checker.fail(f"{label}: {problem}")
    return elapsed


def verify_check(workload: dict):
    def check(rc, report):
        if report["verdict"] != workload["verdict"]:
            return f"verdict {report['verdict']}, expected {workload['verdict']}"
        if workload["exit"] is not None and rc != workload["exit"]:
            return f"exit code {rc}, expected {workload['exit']}"
        return None

    return check


def query_check(query: tuple, samples: int):
    kind = query[0]

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if kind == "cone":
            rays = out["rays"]
            if len(rays) != samples or any(
                not abs(math.hypot(*r) - 1.0) <= 1e-9 for r in rays
            ):
                return f"cone is not {samples} unit rays"
        elif kind == "symmetry":
            order = out["group_order"]
            if order != "infinite" and not (isinstance(order, int) and order >= 1):
                return f"bad group order {order!r}"
        else:
            pair = [int(t) for t in query[2].split(",")]
            d = out["distance"]
            if out["pair"] != pair or not math.isfinite(d) or d < 0:
                return f"bad match result {out['pair']} {d}"
            if out["congruent"] != (d <= out["tol"]):
                return "congruent flag disagrees with distance and tol"
        return None

    return check


def query_sequence(seed: int, n_apex: int):
    """Endless per-apex queries: each block of three is one ``cone``, one
    ``symmetry`` and one ``match`` in a seeded order, on seeded apexes."""
    rng = random.Random(seed)
    kinds = ["cone", "symmetry", "match"]
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "match":
                i, j = sorted(rng.sample(range(n_apex), 2))
                yield ("match", "--pairs", f"{i},{j}")
            else:
                yield (kind, "--apex", str(rng.randrange(n_apex)))


def operations(cli, name: str, seed: int, scene: Path, checker: Checker):
    """Endless stream of zero-argument operations for the workload."""
    workload = WORKLOADS[name]
    out_path = OUT / f"{name}-report.json"
    if not workload.get("queries"):
        argv = ["verify", "--scene", str(scene), "--out", str(out_path)]
        check = verify_check(workload)
        while True:
            yield lambda tracer=None: run_op(cli, argv, out_path, check, checker, tracer)
    data = json.loads(scene.read_text())
    n_apex = data.get("sampling", {}).get("count", 50)
    samples = data.get("config", {}).get("samples_per_cone", 256)
    for query in query_sequence(seed, n_apex):
        argv = [query[0], "--scene", str(scene), *query[1:], "--out", str(out_path)]
        check = query_check(query, samples)
        yield lambda tracer=None, a=argv, c=check: run_op(cli, a, out_path, c, checker, tracer)


def timed_loop(ops, seconds: float, min_ops: int = 1) -> list[float]:
    """Run operations until ``seconds`` have passed and at least ``min_ops``
    ran; returns the wall times of the ones that did not raise."""
    samples = []
    start = time.perf_counter()
    for n, op in enumerate(ops, start=1):
        elapsed = op(None)
        if elapsed is not None:
            samples.append(elapsed)
        if n >= min_ops and time.perf_counter() - start >= seconds:
            return samples


def traced_pairs(ops, seconds: float, tracer: Tracer):
    """Run each operation untraced and then traced, until ``seconds`` have
    passed, so that both see the same machine state.  Returns the paired
    wall times and the attributes that could not be patched."""
    untraced, traced = [], []
    start = time.perf_counter()
    for op in ops:
        plain = op(None)
        with tracer.patched() as unpatched:
            spanned = op(tracer)
        if plain is not None and spanned is not None:
            untraced.append(plain)
            traced.append(spanned)
        if time.perf_counter() - start >= seconds:
            return untraced, traced, unpatched


def warm_up(cli, name: str, seed: int, scene: Path, checker: Checker) -> None:
    """Load code and fill caches: a verify of the workload's scene with a
    few apexes, or the first block of queries (one of each kind)."""
    if WORKLOADS[name].get("queries"):
        for op in itertools.islice(operations(cli, name, seed, scene, checker), 3):
            op()
        return
    data = json.loads(scene.read_text())
    data.setdefault("sampling", {})["count"] = WARMUP_APEXES
    small = OUT / f"{name}-warmup-scene.json"
    small.write_text(json.dumps(data))
    out_path = OUT / f"{name}-warmup.json"
    argv = ["verify", "--scene", str(small), "--out", str(out_path)]
    run_op(cli, argv, out_path, lambda rc, report: None if rc in (0, 2) else f"exit code {rc}", checker)


def measure_setup(scene: Path, checker: Checker) -> list[float]:
    """Time from spawning a fresh interpreter until it has imported
    conekit.cli and loaded the scene (validation included).  The child
    reports the system-wide monotonic clock when it is done, so interpreter
    teardown is not counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_REPEATS):
        checker.attempted += 1
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(scene)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            loaded = float(proc.stdout) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError) as exc:
            checker.fail(f"setup: {type(exc).__name__}: {exc}")
            continue
        if loaded is None:
            checker.fail(f"setup: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        samples.append(loaded - t0)
    return samples


def layer_metrics(spans, untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations, per
    operation unless named otherwise."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}
    ops = [s for s in spans if s.parent is None]
    n_ops = len(ops)
    op_time = sum(s.end - s.start for s in ops)

    def count(name):
        return len(by_name.get(name, ()))

    def under(name, parent_name):
        return sum(1 for s in by_name.get(name, ()) if names.get(s.parent) == parent_name)

    def seconds(*group):
        return outermost_time(spans, group)

    regs = by_name.get("congruence.registration", [])
    # pairs asked for: all pairs of the scene's cones per pairwise matrix,
    # plus one per single-pair match query
    cones_per_op: dict[int, int] = {}
    op_of: dict[int, int] = {}
    for s in spans:  # a parent precedes its children in the list
        op_of[s.id] = s.id if s.parent is None else op_of[s.parent]
        if s.name == "cones.support_cone" and names.get(s.parent) == "harness.scene_cones":
            cones_per_op[op_of[s.id]] = cones_per_op.get(op_of[s.id], 0) + 1
    pairs = sum(
        math.comb(cones_per_op.get(op_of[s.id], 0), 2) for s in by_name.get("congruence.pairwise", ())
    ) + sum(1 for s in regs if names.get(s.parent, "").startswith("op."))
    selfs = self_times(spans)
    # the first full-size operation in a process runs slower than the rest,
    # so it is left out of the comparison when there are others
    skip = 1 if len(untraced) > 1 else 0
    return {
        "cones.support_cone_calls": count("cones.support_cone") / n_ops,
        "congruence.registrations": len(regs) / n_ops,
        "congruence.registrations_per_pair": len(regs) / pairs if pairs else 0.0,
        "congruence.probe_registrations": under("congruence.registration", "congruence.probe") / n_ops,
        "symmetry.detect_calls": count("symmetry.detect") / n_ops,
        "symmetry.hausdorff_checks": under("geom.hausdorff", "symmetry.detect") / n_ops,
        "geom.hausdorff_calls": count("geom.hausdorff") / n_ops,
        "harness.load_scene_s": seconds("harness.load_scene") / n_ops,
        "cones.support_cone_s": seconds("cones.support_cone") / n_ops,
        "congruence.registration_s": seconds("congruence.registration") / n_ops,
        "congruence.registration_ms_p50": (
            1e3 * statistics.median(s.end - s.start for s in regs) if regs else 0.0
        ),
        "symmetry.detect_s": seconds("symmetry.detect") / n_ops,
        "geom.hausdorff_s": seconds("geom.hausdorff") / n_ops,
        "cli.report_s": seconds("cli.report") / n_ops,
        "congruence.pairwise_frac": seconds("congruence.pairwise") / op_time,
        "congruence.probe_frac": seconds("congruence.probe") / op_time,
        "harness.sections_frac": seconds("harness.sections") / op_time,
        "topology.icosphere_frac": seconds("topology.icosphere") / op_time,
        "harness.verify_self_frac": sum(
            selfs[s.id] for s in by_name.get("harness.verify_scene", ())
        ) / op_time,
        "trace.overhead_frac": (
            sum(traced[skip:]) / sum(untraced[skip:]) - 1.0 if untraced else 0.0
        ),
    }


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def import_cli():
    """Import conekit.cli from this checkout's ``src``, never from an
    installed copy."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from conekit import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"conekit imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def summary_line(name: str, samples: list[float], unit: str = "s", scale: float = 1.0) -> str:
    q1, q2, q3 = quartiles(x * scale for x in samples)
    return f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scene = ROOT / workload["scene"]
    needed = [ROOT / "src" / "conekit" / "cli.py", scene]
    if not all(p.is_file() for p in needed):
        print(f"perfbench: not a conekit checkout (missing {[str(p) for p in needed if not p.is_file()]})",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here and in children
        os.environ.setdefault(var, "1")
    OUT.mkdir(exist_ok=True)

    checker = Checker()
    setup = [] if args.trace else measure_setup(scene, checker)
    cli = import_cli()
    machine = machine_info()
    warm_up(cli, args.workload, args.seed, scene, checker)
    ops = operations(cli, args.workload, args.seed, scene, checker)
    lines = [
        "machine: " + json.dumps(machine, sort_keys=True),
        f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
        "loop=closed clients=1 jobs=1",
    ]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed", "clients": 1, "machine": machine}
    if args.trace:
        tracer = Tracer()
        untraced, traced, unpatched = traced_pairs(ops, args.seconds, tracer)
        values = layer_metrics(tracer.spans, untraced, traced)
        regs_ms = [1e3 * (s.end - s.start) for s in tracer.spans if s.name == "congruence.registration"]
        p90 = tail_percentile(regs_ms, 0.9)
        lines.append(f"congruence.registration_ms_p90: {p90:.6g} ms" if p90 is not None else
                     f"congruence.registration_ms_p90: not reported ({len(regs_ms)} samples)")
        if unpatched:
            lines.append(f"unpatched (no such attribute): {', '.join(unpatched)}")
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start_s", "end_s", "parent"],
             "spans": [[s.id, s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans]}))
        record.update(untraced_s=untraced, traced_s=traced, unpatched=unpatched,
                      registration_ms_p90=p90)
        metric_specs = spec["per_layer"]
    else:
        samples = timed_loop(ops, args.seconds, QUERY_MIN_OPS if workload.get("queries") else 1)
        if not samples or not setup:
            print("perfbench: no operation completed", file=sys.stderr)
            return 1
        if workload.get("queries"):
            lines.append(summary_line("query_ms", samples, "ms", 1e3))
            p90 = tail_percentile(samples, 0.9)
            lines.append(f"query_ms_p90: {1e3 * p90:.6g} ms" if p90 is not None else
                         f"query_ms_p90: not reported ({len(samples)} samples)")
        else:
            lines.append(summary_line("verify_s", samples))
        lines.append(summary_line("setup_s", setup))
        values = {
            "op_s": statistics.median(samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(op_samples_s=samples, setup_samples_s=setup)
        metric_specs = spec["end_to_end"]

    if set(values) != {m["name"] for m in metric_specs}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    lines += [f"{k}: {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"failed_frac: {checker.failed}/{checker.attempted} = "
                 f"{checker.failed / checker.attempted:.6g}")
    lines += [f"failure: {e}" for e in checker.errors]
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    record.update(result=result, errors=checker.errors)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
