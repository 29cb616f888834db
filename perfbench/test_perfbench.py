"""Tests of the benchmark's own code.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
from stats import quartiles, tail_percentile
from tracing import PATCHES, Span, Tracer, covered, outermost_time, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 0.9) == 90
    assert tail_percentile(range(1, 100), 0.9) is None
    assert tail_percentile(range(20, 0, -1), 0.5) == 10
    assert tail_percentile(range(1, 20), 0.5) is None
    assert tail_percentile([], 0.5) is None


def test_quartiles_of_one_sample_are_that_sample():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),  # overlaps a: [1, 5] counts once
        Span(3, "c", 8.0, 12.0, 0),  # clipped to the parent's end
        Span(4, "d", 2.0, 2.5, 1),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[1] == pytest.approx(1.5)
    assert (st[2], st[3], st[4]) == pytest.approx((3.0, 4.0, 0.5))
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def group():
        tracer.call("g", leaf)  # nested in another "g": counted once
        leaf()

    tracer.call("root", lambda: [tracer.call("g", group) for _ in range(2)])
    spans = tracer.spans
    assert [s.name for s in spans] == ["root", "g", "g", "g", "g"]
    assert [s.parent for s in spans] == [None, 0, 1, 0, 3]
    root = spans[0]
    assert sum(self_times(spans).values()) == pytest.approx(root.end - root.start)
    outer = spans[1].end - spans[1].start + spans[3].end - spans[3].start
    assert outermost_time(spans, ["g"]) == pytest.approx(outer)


def test_patches_are_restored_and_missing_attributes_reported():
    run.import_cli()
    import conekit.congruence
    import conekit.harness

    originals = [conekit.harness.support_cone, conekit.congruence.congruence_distance]
    tracer = Tracer()
    with tracer.patched(PATCHES + (("conekit.harness", "no_such_function", "x"),)) as missing:
        assert conekit.harness.support_cone is not originals[0]
        assert conekit.congruence.congruence_distance is not originals[1]
    assert [conekit.harness.support_cone, conekit.congruence.congruence_distance] == originals
    assert missing == ["conekit.harness.no_such_function"]


def test_query_sequence_is_seeded_and_mixes_every_kind():
    first = list(itertools.islice(run.query_sequence(7, 50), 30))
    assert first == list(itertools.islice(run.query_sequence(7, 50), 30))
    assert first != list(itertools.islice(run.query_sequence(8, 50), 30))
    for block in range(10):
        assert sorted(q[0] for q in first[3 * block: 3 * block + 3]) == ["cone", "match", "symmetry"]
    for kind, flag, arg in first:
        if kind == "match":
            i, j = map(int, arg.split(","))
            assert 0 <= i < j < 50
        else:
            assert 0 <= int(arg) < 50


@pytest.fixture
def small_cube(tmp_path, monkeypatch):
    """The cube workload on an 8-apex copy of its scene, writing to tmp_path."""
    data = json.loads((run.ROOT / "scenes" / "cube_R4.json").read_text())
    data["sampling"]["count"] = 8
    scene = tmp_path / "cube8.json"
    scene.write_text(json.dumps(data))
    monkeypatch.setattr(run, "OUT", tmp_path)
    for var in run.BLAS_THREAD_VARS:  # main() sets them
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setitem(run.WORKLOADS, "cube", dict(run.WORKLOADS["cube"], scene=str(scene)))
    return scene


def traced_counts(cli, scene):
    checker = run.Checker()
    ops = run.operations(cli, "cube", 0, scene, checker)
    tracer = Tracer()
    untraced, traced, missing = run.traced_pairs(ops, 0.0, tracer)
    assert missing == []
    assert len(traced) == 1 and checker.attempted == 2 and checker.failed == 0, checker.errors
    metrics = run.layer_metrics(tracer.spans, untraced, traced)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    return {k: metrics[k] for k in COUNT_METRICS}


def test_exact_counts_repeat_between_runs(small_cube):
    cli = run.import_cli()
    counts = traced_counts(cli, small_cube)
    assert counts == traced_counts(cli, small_cube)
    assert counts["cones.support_cone_calls"] == 8
    assert counts["congruence.registrations"] == 28
    assert all(float(v).is_integer() for v in counts.values())


def test_report_bytes_that_differ_from_an_earlier_run_fail(small_cube):
    cli = run.import_cli()
    checker = run.Checker()
    ops = run.operations(cli, "cube", 0, small_cube, checker)
    next(ops)()
    checker.reports = {k: v + b" " for k, v in checker.reports.items()}
    next(ops)(Tracer())
    assert checker.failed == 1
    assert "report bytes differ" in checker.errors[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric_of_its_kind(small_cube, capsys, trace):
    assert run.main(["--workload", "cube", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[kind]
    }


def test_every_workload_has_expected_outputs():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        assert (run.ROOT / workload["scene"]).is_file(), name


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
