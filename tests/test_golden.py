"""Pinned verify reports: the four benchmark scenes must give the checked-in
report bytes.  The files under ``tests/golden/`` are ``conekit verify
--out`` output; a change that moves them must regenerate them and list the
changed fields."""

import json
from pathlib import Path

import pytest

from conekit.harness import load_scene, report_to_dict, verify_scene

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENES = {
    "ball": "scenes/ball_r1_R3.json",
    "cube": "scenes/cube_R4.json",
    "borderline": "perfbench/scenes/borderline_e1005_R3.json",
}


def _differing_fields(old, new, path="") -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        out = [f"{path}.{k}: only in one report" for k in sorted(set(old) ^ set(new))]
        for k in sorted(set(old) & set(new)):
            out += _differing_fields(old[k], new[k], f"{path}.{k}")
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out += _differing_fields(a, b, f"{path}[{i}]")
        return out
    return [] if repr(old) == repr(new) else [f"{path}: {old!r} -> {new!r}"]


def _assert_pinned(name: str, report) -> None:
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    golden = (GOLDEN / f"{name}.json").read_text()
    if text != golden:
        fields = _differing_fields(json.loads(golden), json.loads(text))
        shown = "\n  ".join(fields[:20] or ["(formatting only)"])
        pytest.fail(f"{name} report differs from tests/golden/{name}.json in {len(fields)} fields:\n  {shown}")


@pytest.mark.parametrize("name", sorted(SCENES))
def test_verify_report_is_pinned(name):
    _assert_pinned(name, verify_scene(load_scene(ROOT / SCENES[name])))


def test_ellipsoid_verify_report_is_pinned(ellipsoid_verify):
    _, report, _ = ellipsoid_verify
    _assert_pinned("ellipsoid", report)
