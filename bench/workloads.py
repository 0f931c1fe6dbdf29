"""The benchmark's workloads: what each one runs and the answers it must give.

A workload is a fixed list of steps.  A step is one call into orbisym's
public API (in-process ``cli.main`` or ``catalog.run_case``) plus a check
of its output against the known answer.  Most steps are one op; the
``reproduce-all`` step counts each of its 98 ``run_case`` calls as an op,
timed at the ``cli.run_case`` boundary by :class:`Clock`.

``setup`` pins the launch environment before anything runs: the working
directory is this directory and ``ORBISYM_CATALOG`` is ``catalog/`` in it,
so ``run_case`` reads the same pinned ``*.case`` files wherever the
benchmark is started from.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CATALOG_DIR = BENCH_DIR / "catalog"
OUT_DIR = BENCH_DIR / "out"
INPUT_DIR = OUT_DIR / "inputs"

WORKLOADS = ("reproduce", "sweep", "large", "runaway")

# reproduce-all visits two orbifold cases and both families for n = 3..50.
REPRODUCE_CASES = 2 + 2 * 48


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no src/orbisym)."""


@dataclass
class Step:
    """One call into the program and the check of what it returned.

    ``check(result)`` returns (ops attempted, ops failed); it receives
    None when the call raised.  ``inner_ops`` steps report their op
    latencies through the Clock instead of being one op themselves.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    inner_ops: bool = False


@dataclass
class Workload:
    name: str
    steps: list[Step]
    clock: "Clock"


# Scaled times are expressed at the machine speed where reference_s()
# takes this many seconds.
REF_NOMINAL_S = 0.0055

_REFERENCE_TABLE = [[(i * 7919) % 4096, i & 7] for i in range(4096)]


def reference_s() -> float:
    """Time a fixed pure-Python loop of list walks and integer arithmetic.

    On a shared machine the speed of pure-Python code drifts by half or
    more within a second.  The Clock runs this loop between ops and scales
    each op's time by REF_NOMINAL_S over the loop times on either side.
    The loop allocates nothing that outlives an iteration, so the state
    of the program's heap does not change its cost.
    """
    table = _REFERENCE_TABLE
    start = time.perf_counter()
    at = acc = 0
    for _ in range(60000):
        row = table[at]
        at = row[0] ^ (acc & 255)
        acc = (acc * 31 + row[1]) & 0xFFFF
    return time.perf_counter() - start


class Clock:
    """Op latencies at reference speed, and the current op id for the tracer.

    A reference sample is taken at the start of a pass, after every step
    and before every inner op, never inside a timed interval.  An op's
    time is scaled by the samples on either side of it; the rest of an
    inner-op step (the command's own work between ops) by the samples
    around the step.
    """

    def __init__(self) -> None:
        self.op_id = 0
        self.op_step: dict[int, str] = {}
        self.latencies: list[float] = []  # per op, at reference speed
        self.refs: list[float] = []
        self.reference = reference_s
        self._label = ""
        self._last_ref = 0.0
        self._pending: tuple[float, float] | None = None  # inner op: (seconds, ref before)
        self._inner = [0.0, 0.0, 0.0]  # inner ops: seconds, scaled seconds, reference seconds

    def _sample(self) -> float:
        self._last_ref = self.reference()
        self.refs.append(self._last_ref)
        return self._last_ref

    def _scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * 2 * REF_NOMINAL_S / (before + after)

    def begin_op(self) -> None:
        self.op_id += 1
        self.op_step[self.op_id] = self._label

    def begin_pass(self) -> None:
        self._sample()

    def _close_inner_op(self, after: float) -> None:
        if self._pending is not None:
            seconds, before = self._pending
            scaled = self._scale(seconds, before, after)
            self.latencies.append(scaled)
            self._inner[0] += seconds
            self._inner[1] += scaled
            self._pending = None

    def inner_op(self, call: Callable[[], object]) -> object:
        """Time one op made inside a step (see Step.inner_ops)."""
        start = time.perf_counter()
        ref = self._sample()
        self._close_inner_op(ref)
        self._inner[2] += time.perf_counter() - start
        self.begin_op()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._pending = (time.perf_counter() - start, ref)

    def run_step(self, step: Step) -> tuple[object, BaseException | None, float, float]:
        """Run one step; returns (result, exception or None, seconds, scaled seconds).

        The seconds exclude reference samples taken inside the step.
        """
        self._label = step.label
        before = self._last_ref
        self._inner = [0.0, 0.0, 0.0]
        if not step.inner_ops:
            self.begin_op()
        start = time.perf_counter()
        try:
            result, error = step.call(), None
        except Exception as exc:  # a traceback is a failed op, not a crashed run
            result, error = None, exc
        seconds = time.perf_counter() - start
        after = self._sample()
        if not step.inner_ops:
            scaled = self._scale(seconds, before, after)
            self.latencies.append(scaled)
            return result, error, seconds, scaled
        self._close_inner_op(after)
        ops, ops_scaled, refs = self._inner
        seconds -= refs
        return result, error, seconds, ops_scaled + self._scale(seconds - ops, before, after)


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """A step that runs the orbisym command in-process and keeps its stdout."""
    def call() -> tuple[int, str]:
        from orbisym import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _report(result) -> dict | None:
    code, text = result
    try:
        return {"code": code, **json.loads(text)}
    except ValueError:
        return None


def _check_reproduce_all(result: object) -> tuple[int, int]:
    report = _report(result) if result is not None else None
    if report is None:
        return REPRODUCE_CASES, REPRODUCE_CASES
    matched = sum(1 for item in report["items"] if item.get("status") == "match")
    failed = REPRODUCE_CASES - min(matched, REPRODUCE_CASES)
    if failed == 0 and (report["code"] != 0 or len(report["items"]) != REPRODUCE_CASES):
        failed = 1
    return REPRODUCE_CASES, failed


def _check_verify_table(result: object) -> tuple[int, int]:
    report = _report(result) if result is not None else None
    ok = (report is not None and report["code"] == 0 and report["status"] == "match"
          and report["items"]
          and all(item.get("status") == "match" for item in report["items"]))
    return 1, 0 if ok else 1


def _check_cli_value(key: str, expected: int) -> Callable[[object], tuple[int, int]]:
    def check(result: object) -> tuple[int, int]:
        report = _report(result) if result is not None else None
        ok = (report is not None and report["code"] == 0 and report["status"] == "match"
              and len(report["items"]) == 1 and report["items"][0].get(key) == expected)
        return 1, 0 if ok else 1
    return check


def _check_limit(result: object) -> tuple[int, int]:
    report = _report(result) if result is not None else None
    ok = report is not None and report["code"] == 3 and report["status"] == "error"
    return 1, 0 if ok else 1


def _check_case(surfaces: tuple[str, ...], order: int) -> Callable[[object], tuple[int, int]]:
    def check(report) -> tuple[int, int]:
        ok = (report is not None and report.status == "match"
              and report.computed_order == order
              and tuple(map(str, report.computed_surfaces)) == surfaces)
        return 1, 0 if ok else 1
    return check


def _run_case(case_id: str, **kwargs: object) -> Callable[[], object]:
    def call() -> object:
        from orbisym import catalog
        return catalog.run_case(case_id, **kwargs)
    return call


def coxeter_symmetric(n: int) -> str:
    """S_n as a Coxeter presentation on n-1 involutions a, b, c, ..."""
    names = "abcdefghijklmnopqrstuvwxyz"[:n - 1]
    relators = [f"{g}^2" for g in names]
    relators += [f"({names[i]}*{names[i + 1]})^3" for i in range(n - 2)]
    relators += [f"({names[i]}*{names[j]})^2"
                 for i in range(n - 1) for j in range(i + 2, n - 1)]
    return f"generators: {' '.join(names)}\nrelators: {' '.join(relators)}\n"


def _write_input(name: str, text: str) -> str:
    path = INPUT_DIR / name
    path.write_text(text)
    return str(path.relative_to(BENCH_DIR))


def _reproduce(clock: Clock, toy: bool) -> list[Step]:
    from orbisym import catalog, cli

    def timed_run_case(*args: object, **kwargs: object) -> object:
        # catalog.run_case is looked up per call, so the tracer's wrapper is seen.
        return clock.inner_op(lambda: catalog.run_case(*args, **kwargs))

    cli.run_case = timed_run_case
    return [Step("reproduce-all", _cli(["reproduce-all", "--json"]),
                 _check_reproduce_all, inner_ops=True),
            Step("verify-table", _cli(["verify-table", "--json"]), _check_verify_table)]


def _sweep(clock: Clock, toy: bool) -> list[Step]:
    dashed = _check_case(("S_{5,12}",), 120)
    return [Step("dashed", _run_case("orbifold-28-dashed"), dashed),
            Step("dashed-early-stop", _run_case("orbifold-28-dashed", early_stop=True), dashed),
            Step("dashed-threads-2", _run_case("orbifold-28-dashed", threads=2), dashed),
            Step("edge", _run_case("orbifold-28-edge"),
                 _check_case(("S_{0,12}", "N_{6,6}"), 120))]


def _large(clock: Clock, toy: bool) -> list[Step]:
    sym, n15, n19 = (5, 200, 20) if toy else (7, 2000, 100)
    order = math.factorial(sym)
    cox = _write_input(f"s{sym}-coxeter.txt", coxeter_symmetric(sym))
    f15 = _write_input(f"family-15e-{n15}.txt",
                       f"generators: x y\nrelators: x^2 y^{n15} x*y*x^-1*y^-1\n")
    f19 = _write_input(f"family-19-{n19}.txt",
                       f"generators: x y\nrelators: x^{n19} y^{n19} x*y*x^-1*y^-1\n")
    return [Step(f"order-s{sym}", _cli(["order", cox, "--json"]),
                 _check_cli_value("order", order)),
            Step(f"index-s{sym}-a", _cli(["index", cox, "--subgroup", "a", "--json"]),
                 _check_cli_value("index", order // 2)),
            Step(f"order-15e-{n15}", _cli(["order", f15, "--json"]),
                 _check_cli_value("order", 2 * n15)),
            Step(f"order-19-{n19}", _cli(["order", f19, "--json"]),
                 _check_cli_value("order", n19 * n19))]


def _runaway(clock: Clock, toy: bool) -> list[Step]:
    budget = 2000 if toy else 100_000
    tri = _write_input("triangle-2-3-7.txt", "generators: x y\nrelators: x^2 y^3 (x*y)^7\n")
    return [Step("order-triangle-2-3-7",
                 _cli(["order", tri, "--max-cosets", str(budget), "--json"]), _check_limit)]


_STEP_LISTS = {"reproduce": _reproduce, "sweep": _sweep, "large": _large, "runaway": _runaway}

ORBISYM_MODULES = ("words", "presentation", "coset", "permgroup", "z2hom",
                   "surface", "scenario", "catalog", "cli")


def setup(name: str, toy: bool = False) -> Workload:
    """Pin the environment, import orbisym from src/ and build the steps."""
    if not (SRC / "orbisym" / "__init__.py").is_file():
        raise SetupError(f"no orbisym package under {SRC}")
    if not CATALOG_DIR.is_dir():
        raise SetupError(f"no pinned catalog at {CATALOG_DIR}")
    os.chdir(BENCH_DIR)
    os.environ["ORBISYM_CATALOG"] = str(CATALOG_DIR)
    sys.path.insert(0, str(SRC))
    for module in ORBISYM_MODULES:
        importlib.import_module(f"orbisym.{module}")
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    return Workload(name, _STEP_LISTS[name](clock, toy), clock)
