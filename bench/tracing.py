"""Spans around orbisym's public functions, installed from outside the program.

``Tracer.install`` replaces every public function of the orbisym modules
with a wrapper that records one span per call: (span id, parent span id,
function, start ns, end ns, op id, output count, error).  The replacement
is made in the defining module, which also catches calls made inside that
module (``group_order`` calling ``enumerate_cosets``), and in every module
that bound the same function by ``from .x import name`` (``scenario``,
``catalog``, ``cli`` and the package itself).

Each thread keeps its own span stack.  A span opened on a worker thread
with an empty stack takes the main thread's innermost open span as its
parent, so the scenario evaluator's ``threads=2`` pool work is charged to
the evaluator's children and not to its self time.  Spans stay in memory
until the run harvests them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

from workloads import ORBISYM_MODULES, Clock

# Functions whose result carries a count worth keeping on the span.
_OUTPUT_COUNTS: dict[str, Callable] = {
    "coset.enumerate_cosets": lambda r: r.n_cosets,
    "permgroup.enumerate_elements": len,
    "scenario.evaluate_edge_scenario": lambda r: len(r.per_pattern),
    "scenario.evaluate_dashed_arc_scenario": lambda r: len(r.per_pattern),
    "scenario.evaluate_family": lambda r: 1,
}

EVALUATORS = ("scenario.evaluate_edge_scenario", "scenario.evaluate_dashed_arc_scenario",
              "scenario.evaluate_family")

# Per-function metrics named in BENCHMARK.json; every other public
# function is traced too and appears in the run's report.
LAYER_FUNCTIONS = (
    "words.parse_word", "words.conjugate",
    "presentation.load_presentation_with_aliases",
    "coset.enumerate_cosets", "coset.group_order", "coset.verify_coset_table",
    "coset.permutation_rep",
    "permgroup.enumerate_elements", "permgroup.evaluate_word",
    "z2hom.solve_hom_to_z2",
    "surface.classify_surface",
    *EVALUATORS,
    "catalog.run_case", "catalog.find_case", "catalog.parse_case_text", "catalog.verify_table",
    "cli.main",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "coset.cosets_out": "count",
        "coset.us_per_coset": "us",
        "coset.limit_exceeded": "count",
        "scenario.enum_calls": "count",
        "scenario.useful_ratio": "ratio",
        "permgroup.elements_out": "count",
        "trace.spans": "count",
        "trace.overhead_pct": "%",
    })
    return units


# (span id, parent id, function index, start ns, end ns, op id, output count, error)
Span = tuple[int, int, int, int, int, int, int, int]
ERR_NONE, ERR_LIMIT, ERR_OTHER = 0, 1, 2


class Tracer:
    """Builds a wrapper for every public orbisym function; create on the main thread."""

    def __init__(self, clock: Clock) -> None:
        from orbisym.errors import LimitExceeded
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._limit_error = LimitExceeded
        modules = [importlib.import_module(f"orbisym.{m}") for m in ORBISYM_MODULES]
        wrapped: dict[int, tuple[object, object]] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        # (module, attribute, original, wrapper) for every binding of a wrapped function
        self._patches = []
        for module in (importlib.import_module("orbisym"), *modules):
            for attr, value in vars(module).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        # The clock's speed samples inside a step are spans too, so that they
        # do not count as the self time of the command around them.
        self._patches.append((clock, "reference", clock.reference,
                              self._wrap("bench.reference", clock.reference)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(qualname)
        count = _OUTPUT_COUNTS.get(qualname)
        ids, local, main_stack, clock = self._ids, self._local, self._main_stack, self.clock
        spans, now = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            span_id = next(ids)
            stack.append(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = now()
                stack.pop()
                error = ERR_LIMIT if isinstance(exc, self._limit_error) else ERR_OTHER
                spans.append((span_id, parent, index, start, end, clock.op_id, 0, error))
                raise
            end = now()
            stack.pop()
            spans.append((span_id, parent, index, start, end, clock.op_id,
                          count(result) if count else 0, ERR_NONE))
            return result

        return traced

    def harvest(self) -> list[Span]:
        """Take the spans recorded so far, leaving the tracer empty."""
        batch = list(self.spans)
        self.spans.clear()
        return batch


def _covered(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    return {span[0]: span[4] - span[3] - _covered(children.get(span[0], ()), span[3], span[4])
            for span in spans}


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """Per-function calls and self time, plus the per-layer work counts."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[names[span[2]]] += 1
        self_ns[names[span[2]]] += own[span[0]]
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9

    by_id = {span[0]: span for span in spans}
    evaluators = {names.index(n) for n in EVALUATORS}
    under: dict[int, bool] = {0: False}

    def under_evaluator(span_id: int) -> bool:
        path = []
        while span_id not in under:
            path.append(span_id)
            span = by_id[span_id]
            if span[2] in evaluators:
                under[span_id] = True
                break
            span_id = span[1]
        verdict = under[span_id]
        for visited in path:
            under[visited] = verdict
        return verdict

    enum_index = names.index("coset.enumerate_cosets")
    enum_spans = [s for s in spans if s[2] == enum_index]
    done = [s for s in enum_spans if s[7] == ERR_NONE]
    cosets = sum(s[6] for s in done)
    enum_calls = sum(1 for s in enum_spans if under_evaluator(s[1]))
    outcomes = sum(s[6] for s in spans if s[2] in evaluators)
    metrics["coset.cosets_out"] = cosets
    metrics["coset.us_per_coset"] = (sum(s[4] - s[3] for s in done) / 1e3 / cosets
                                     if cosets else 0.0)
    metrics["coset.limit_exceeded"] = sum(1 for s in enum_spans if s[7] == ERR_LIMIT)
    metrics["scenario.enum_calls"] = enum_calls
    metrics["scenario.useful_ratio"] = outcomes / enum_calls if enum_calls else 0.0
    metrics["permgroup.elements_out"] = sum(
        s[6] for s in spans if names[s[2]] == "permgroup.enumerate_elements")
    return metrics


def layer_self_summary(metrics: dict[str, float]) -> dict[str, float]:
    """Self time per orbisym module (s), summed over its traced functions."""
    summary: dict[str, float] = defaultdict(float)
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            summary[key.split(".", 1)[0]] += value
    return dict(sorted(summary.items(), key=lambda kv: -kv[1]))
