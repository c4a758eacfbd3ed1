"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``rainbow_rgg`` from the outside: every
module of the package that binds a target (``build_process`` is bound in
``process``, ``harness``, ``builder``, ``cli`` and the package itself) gets the
same wrapper, so a ``from ... import`` copy cannot escape the trace.  Spans
(name, start, end, parent) are kept in memory and only recorded while a
request span is open, so the benchmark's own correctness checks, which call
some of the same functions, stay out of the trace.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

REQUEST = "request"

# (module, attribute path) of every traced layer.  The span name is
# "<module>.<attribute path>"; hitting_radius_kconn gets a ".k<k>" suffix.
TARGETS = (
    ("geometry", "sample_points"),
    ("harness", "max_knn_distance"),
    ("process", "build_process"),
    ("process", "pair_colours"),
    ("process", "ColouredProcess.colour_of"),
    ("process", "ColouredProcess.distance_of"),
    ("process", "hitting_radius_min_degree"),
    ("process", "hitting_radius_kconn"),
    ("tessellation", "build_grid"),
    ("tessellation", "build_cell_graph"),
    ("tessellation", "classify_cells"),
    ("tessellation", "CellGraph.neighbors"),
    ("builder", "plan_ugly_paths"),
    ("builder", "colour_ugly_paths"),
    ("builder", "build_bad_forests"),
    ("builder", "build_good_cycles"),
    ("builder", "build_stitch_plan"),
    ("builder", "apply_stitch"),
    ("builder", "build_rainbow"),
    ("hamilton", "hamilton_path"),
    ("hamilton", "hamilton_cycle"),
    ("oracle", "validate_certificate"),
    ("oracle", "exact_hitting_rainbow"),
    ("oracle", "exact_rainbow_hamilton_cycle"),
    ("oracle", "exact_rainbow_perfect_matching"),
)

# Every stage name a BuildFailure can carry; an unknown one counts as "other".
BUILD_STAGES = ("input", "scale", "tessellation", "oracle", "ugly_plan", "ugly_colour",
                "bad_forest", "good_cycle", "stitch", "apply", "verify", "other")


def span_names() -> list[str]:
    """Every span name the traced layers can produce, in table order."""
    out = []
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        if attr == "hitting_radius_kconn":
            out += [name + ".k1", name + ".k2"]
        else:
            out.append(name)
    return out


class Tracer:
    """In-memory span store with per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def request(self):
        """Root span of one request; layer spans are only kept inside one."""
        idx = self.open(REQUEST)
        try:
            yield
        finally:
            self.close(idx)

    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent) in enumerate(self.spans()):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def summarise(spans) -> tuple[dict, float]:
    """Per-name totals from (name, start, end, parent) spans.

    Returns ({name: {"calls", "total_s", "self_s"}}, coverage).  A span's
    self time is its duration minus its children's durations; children of one
    span never overlap because the program is single-threaded.  Coverage is
    the share of request wall time that falls inside the request's child
    spans.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict] = {}
    request_s = covered_s = 0.0
    for idx, (name, t0, t1, parent) in enumerate(spans):
        if name == REQUEST:
            request_s += t1 - t0
            covered_s += child_time[idx]
            continue
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - child_time[idx]
    coverage = covered_s / request_s if request_s > 0 else 0.0
    return stats, coverage


def _counters(name: str, result, counts) -> None:
    if name == "process.build_process":
        counts[name + ".events"] += result.m
    elif name == "process.pair_colours":
        counts[name + ".pairs"] += len(result)
    elif name == "builder.build_rainbow":
        stage = getattr(result, "stage", None)  # only a BuildFailure has a stage
        if stage is None:
            counts[name + ".certified"] += 1
        else:
            counts[f"{name}.failed.{stage if stage in BUILD_STAGES else 'other'}"] += 1


def _wrap(fn, name: str, tracer: Tracer):
    kconn = name.endswith(".hitting_radius_kconn")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        label = name
        if kconn:
            k = args[1] if len(args) > 1 else kwargs["k"]
            label = f"{name}.k{k}"
        idx = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        _counters(name, result, tracer.counts)
        return result

    return traced


@contextlib.contextmanager
def installed(package, tracer: Tracer):
    """Wrap every target in every module of ``package`` that binds it, and
    restore the originals on exit."""
    prefix = package.__name__
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == prefix or key.startswith(prefix + "."))]
    patches = []
    try:
        for module_name, attr in TARGETS:
            owner = sys.modules[f"{prefix}.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = _wrap(original, f"{module_name}.{attr}", tracer)
            sites = [(owner, leaf)] if path else [
                (module, key) for module in modules
                for key, value in list(vars(module).items()) if value is original]
            for site, key in sites:
                patches.append((site, key, original))
                setattr(site, key, wrapper)
        yield tracer
    finally:
        for site, key, original in reversed(patches):
            setattr(site, key, original)
