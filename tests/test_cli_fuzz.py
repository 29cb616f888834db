"""Fuzzed scenes and arguments through the command line, in process.

Every drawn input must end in one of the documented exit codes (0, 2, 3,
4) without an exception escaping ``cli.main``.  A drawn scene is a small
valid one (2-6 apexes, 3-24 silhouette samples) with up to two values
spoiled: tiny, huge, zero, negative, NaN, infinite or of the wrong type.
Counts are never spoiled upwards, so that every run takes milliseconds.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.cli import main

WRONG = st.sampled_from(["1", None, True, [], {}, [1.0, 2.0]])
BAD_NUMBER = st.one_of(
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf")]),
    st.floats(1e-300, 1e-8),
    st.floats(1e8, 1e300),
    WRONG,
)
BAD_COUNT = st.one_of(st.sampled_from([0, 1, 2, -1, 2.5, float("nan")]), WRONG)
BAD_SEED = st.one_of(st.sampled_from([-1, 2**70, 2.5, float("nan")]), WRONG)

# (section, key, coordinate or None, spoiled value)
SPOTS = st.one_of(
    st.tuples(st.just("inner"), st.sampled_from(["radius", "scale"]), st.none(), BAD_NUMBER),
    st.tuples(st.sampled_from(["inner", "outer"]), st.just("center"), st.integers(0, 2), BAD_NUMBER),
    st.tuples(st.just("inner"), st.just("semi_axes"), st.integers(0, 2), BAD_NUMBER),
    st.tuples(st.just("outer"), st.just("radius"), st.none(), BAD_NUMBER),
    st.tuples(st.just("sampling"), st.just("count"), st.none(), BAD_COUNT),
    st.tuples(st.just("sampling"), st.just("seed"), st.none(), BAD_SEED),
    st.tuples(st.just("sampling"), st.just("strategy"), st.none(), st.sampled_from(["grid", 3, None])),
    st.tuples(st.just("config"), st.just("samples_per_cone"), st.none(), BAD_COUNT),
    st.tuples(st.just("config"), st.sampled_from(["tol", "witness_threshold"]), st.none(), BAD_NUMBER),
    # a valid count above 1 would start worker processes
    st.tuples(st.just("config"), st.just("jobs"), st.none(), BAD_COUNT),
    st.tuples(st.just("scene"), st.just("containment_margin"), st.none(), BAD_NUMBER),
)


def _cube(s):
    return [[s * x, s * y, s * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


@st.composite
def scenes(draw):
    point = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)
    kind = draw(st.sampled_from(["ball", "ellipsoid", "polytope"]))
    if kind == "ball":
        inner = {"kind": kind, "center": draw(point), "radius": draw(st.floats(0.3, 2.0))}
    elif kind == "ellipsoid":
        axes = draw(st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3))
        inner = {"kind": kind, "center": draw(point), "semi_axes": axes}
    else:
        inner = {"kind": kind, "vertices": _cube(draw(st.floats(0.3, 1.5)))}
    scene = {
        "inner": inner,
        "outer": {"kind": "ball", "center": draw(point), "radius": draw(st.floats(3.0, 8.0))},
        "sampling": {
            "count": draw(st.integers(2, 6)),
            "seed": draw(st.integers(0, 9)),
            "strategy": draw(st.sampled_from(["fibonacci", "random"])),
        },
        "config": {"samples_per_cone": draw(st.integers(3, 24))},
    }
    for section, key, coord, value in draw(st.lists(SPOTS, max_size=2)):
        target = scene if section == "scene" else scene[section]
        if key == "scale":
            key, value = "vertices", _cube(value) if isinstance(value, float) else value
        if coord is None:
            target[key] = value
        elif isinstance(target.get(key), list):
            target[key][coord] = value
    return scene


# argparse parses both flags; --seed draws integers only, so that every
# drawn command line reaches the scene
FLAGS = st.lists(
    st.one_of(
        st.tuples(st.just("--tol"), st.sampled_from(["1e-300", "1e300", "nan", "inf", "-1", "0", "1e-3"])),
        st.tuples(st.just("--seed"), st.sampled_from(["-1", "0", "7", str(2**70)])),
    ),
    max_size=2,
)
COMMANDS = st.one_of(
    st.just(["verify"]),
    st.tuples(st.sampled_from(["cone", "symmetry"]), st.integers(-1, 6)).map(lambda t: [t[0], f"--apex={t[1]}"]),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda t: ["match", f"--pairs={t[0]},{t[1]}"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scene=scenes(), command=COMMANDS, flags=FLAGS)
def test_fuzzed_scene_ends_in_documented_exit_code(scene, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(scene))
        argv = [*command, "--scene", str(path), "--out", str(Path(tmp) / "out.json")]
        argv += [f"{flag}={value}" for flag, value in flags]
        assert main(argv) in (0, 2, 3, 4)
