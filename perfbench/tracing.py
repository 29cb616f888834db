"""Spans recorded around calls into conekit's modules, from outside them.

A traced run replaces the module attributes that conekit's own callers look
up (``conekit.harness.pairwise_congruence_matrix``,
``conekit.symmetry.hausdorff_distance``, ...) with wrappers that record a span
and call the original.  The attributes are restored when the traced block
ends, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module whose attribute the caller looks up, attribute, span name).  The
# span name is "<module that implements the function>.<layer>"; several
# attributes share a name when different callers reach the same function.
PATCHES = (
    ("conekit.cli", "load_scene", "harness.load_scene"),
    ("conekit.cli", "scene_cones", "harness.scene_cones"),
    ("conekit.harness", "scene_cones", "harness.scene_cones"),
    ("conekit.cli", "verify_scene", "harness.verify_scene"),
    ("conekit.harness", "support_cone", "cones.support_cone"),
    ("conekit.cli", "pairwise_congruence_matrix", "congruence.pairwise"),
    ("conekit.harness", "pairwise_congruence_matrix", "congruence.pairwise"),
    ("conekit.cli", "congruence_distance", "congruence.registration"),
    ("conekit.congruence", "congruence_distance", "congruence.registration"),
    ("conekit.harness", "continuity_probe", "congruence.probe"),
    ("conekit.cli", "detect_symmetries", "symmetry.detect"),
    ("conekit.harness", "detect_symmetries", "symmetry.detect"),
    ("conekit.symmetry", "hausdorff_distance", "geom.hausdorff"),
    ("conekit.harness", "hausdorff_distance", "geom.hausdorff"),
    ("conekit.congruence", "hausdorff_distance", "geom.hausdorff"),
    ("conekit.harness", "cross_section", "harness.sections"),
    ("conekit.harness", "eta_map", "harness.sections"),
    ("conekit.harness", "section_field", "harness.sections"),
    ("conekit.harness", "detect_circle", "harness.sections"),
    ("conekit.harness", "icosphere", "topology.icosphere"),
    ("conekit.cli", "_dump", "cli.report"),
    ("conekit.cli", "report_to_dict", "cli.report"),
    ("conekit.cli", "cone_to_dict", "cli.report"),
    ("conekit.cli", "symmetry_report_to_dict", "cli.report"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder for one thread.  Spans nest by call order:
    the parent of a span is the span open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        span = Span(sid, name, 0.0, 0.0, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, patches=PATCHES):
        """Install span wrappers on the given module attributes; yields the
        list of attributes that do not exist (left unpatched)."""
        saved, missing = [], []
        try:
            for module_name, attr, name in patches:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def outermost_time(spans: list[Span], names) -> float:
    """Total duration of the spans named in ``names`` that have no ancestor
    named in ``names`` (so nested calls within one group count once)."""
    by_id = {s.id: s for s in spans}
    names = set(names)

    def nested(s):
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    return sum(s.end - s.start for s in spans if s.name in names and not nested(s))
