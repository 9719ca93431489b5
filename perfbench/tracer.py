"""Spans around calls into toricurv's public functions, from outside the package.

``Tracer.install`` replaces each target function by a timing wrapper in every
``toricurv.*`` module namespace that holds it (``verify`` and ``explore``
import ``grid_fields`` by name, so patching ``pointwise`` alone would miss
them).  ``Tracer.remove`` puts the originals back.  Spans stay in memory as
plain lists until the caller writes them out.

Generators such as ``second_form_chunks`` are not wrapped: their work runs
inside the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
import weakref

CHECKS = ("check_ball_containment", "check_avg_H", "check_2d", "check_flat", "check_sphere",
          "check_main", "check_bow", "check_constant_K", "conjecture_probe")

TARGETS = (
    ("immersion", "jets_at"),
    ("immersion", "immersion_rank_check"),
    ("pointwise", "grid_fields"),
    ("pointwise", "grid_K_estimates"),
    ("pointwise", "extremal_normal_curvature"),
    ("intrinsic", "curvature_grid"),
    ("intrinsic", "conformal_grid"),
    ("intrinsic", "conformal_trace"),
    ("verify", "global_normal_curvature_max"),
    *(("verify", name) for name in CHECKS),
    ("verify", "run_checks"),
    ("designs", "validate_design"),
    ("formats", "load_immersion"),
    ("explore", "objective"),
    ("explore", "optimize"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_explore"),
)

# Functions memoized per (immersion, grid sizes); their spans record whether
# the wrapper has already seen the key.
KEYED = {"pointwise.grid_fields", "intrinsic.curvature_grid"}

# Span fields, in list order.
NAME, START, END, PARENT, POINTS, RSS_RISE_KB, HIT = range(7)


def _points(args, kwargs) -> int:
    """Point count from the first grid (``npoints``) or float theta-array argument."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "npoints"):
            return int(value.npoints)
        dtype = getattr(value, "dtype", None)
        if dtype is not None and dtype.kind == "f" and value.ndim in (1, 2):
            return 1 if value.ndim == 1 else int(value.shape[0])
    return 0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        seen = weakref.WeakKeyDictionary() if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = None
            if seen is not None:
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                sizes = seen.setdefault(args[0], set())
                hit = grid.sizes in sizes
                sizes.add(grid.sizes)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _points(args, kwargs), 0, hit]
            stack.append(len(spans))
            spans.append(span)
            rss = _maxrss_kb()
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[RSS_RISE_KB] = _maxrss_kb() - rss
                stack.pop()

        return wrapper

    def install(self) -> None:
        for module_name, _ in TARGETS:
            importlib.import_module(f"toricurv.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "toricurv" or key.startswith("toricurv."))]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"toricurv.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for k in sorted(kids, key=lambda j: spans[j][START]):
            lo = max(spans[k][START], reach)
            hi = min(spans[k][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, points, hits, self seconds and summed RSS rise.

    Points count the work done: a call answered from the program's cache
    (a repeated key) adds none."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        s = out.setdefault(span[NAME], {"calls": 0, "points": 0, "hits": 0,
                                        "self_s": 0.0, "rss_rise_kb": 0})
        s["calls"] += 1
        s["points"] += 0 if span[HIT] else span[POINTS]
        s["hits"] += bool(span[HIT])
        s["self_s"] += own
        s["rss_rise_kb"] += span[RSS_RISE_KB]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """The per-layer metrics that spans alone determine, as name -> (value, unit)."""
    s = summarize(spans)
    empty = {"calls": 0, "points": 0, "hits": 0, "self_s": 0.0, "rss_rise_kb": 0}
    m: dict[str, tuple[float, str]] = {}

    def get(name):
        return s.get(name, empty)

    def per_point(name):
        m[f"{name}.self_us_per_point"] = (_ratio(get(name)["self_s"] * 1e6, get(name)["points"]), "us")

    def per_call(name):
        m[f"{name}.calls"] = (get(name)["calls"], "count")
        m[f"{name}.self_ms_per_call"] = (_ratio(get(name)["self_s"] * 1e3, get(name)["calls"]), "ms")

    def self_s(name):
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")

    def rss(name):
        m[f"{name}.rss_rise_mb"] = (get(name)["rss_rise_kb"] / 1024.0, "MB")

    def points(name):
        m[f"{name}.points"] = (get(name)["points"], "count")

    def hit_ratio(name):
        m[f"{name}.hit_ratio"] = (_ratio(get(name)["hits"], get(name)["calls"]), "ratio")

    m["immersion.jets_at.calls"] = (get("immersion.jets_at")["calls"], "count")
    points("immersion.jets_at")
    per_point("immersion.jets_at")
    self_s("immersion.immersion_rank_check")
    m["pointwise.grid_fields.calls"] = (get("pointwise.grid_fields")["calls"], "count")
    points("pointwise.grid_fields")
    hit_ratio("pointwise.grid_fields")
    self_s("pointwise.grid_fields")
    per_point("pointwise.grid_fields")
    rss("pointwise.grid_fields")
    self_s("pointwise.grid_K_estimates")
    per_point("pointwise.grid_K_estimates")
    per_call("pointwise.extremal_normal_curvature")
    points("intrinsic.curvature_grid")
    hit_ratio("intrinsic.curvature_grid")
    per_point("intrinsic.curvature_grid")
    points("intrinsic.conformal_grid")
    per_point("intrinsic.conformal_grid")
    rss("intrinsic.conformal_grid")
    self_s("intrinsic.conformal_trace")
    self_s("verify.global_normal_curvature_max")
    for name in CHECKS:
        self_s(f"verify.{name}")
    self_s("verify.run_checks")
    self_s("designs.validate_design")
    self_s("formats.load_immersion")
    per_call("explore.objective")
    self_s("explore.optimize")
    m["cli.self_s"] = (sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")), "s")
    return m


def ancestors_named(spans, index: int, name: str) -> bool:
    """Whether span ``index`` runs inside a span called ``name``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
