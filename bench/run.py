#!/usr/bin/env python3
"""The orbisym benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seconds 25      # every workload, each in a fresh process

Load is a closed loop in one process, one op at a time.  A run repeats
passes over its workload's fixed steps until ``--seconds`` have passed; the
seed only shuffles the step order within each pass.  Every output is
checked against its known answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around every public orbisym
function, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run's report (environment, seed, sample counts, extra figures),
which is also written to ``bench/out/``.  Exit code 0 means every output
was correct, 1 that some were not, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    wall: float  # seconds inside the steps, as measured
    scaled: float  # the same at reference speed
    latencies: list[float]  # per op, at reference speed
    refs: list[float]
    attempted: int
    failed: int
    errors: list[str]
    spans: list = field(default_factory=list)


def run_pass(work: wl.Workload, rng: random.Random, tracer=None) -> Pass:
    clock = work.clock
    order = rng.sample(work.steps, len(work.steps))
    first_op, first_ref = len(clock.latencies), len(clock.refs)
    gc.collect()
    clock.begin_pass()
    wall = scaled = 0.0
    results = []
    for step in order:
        result, error, seconds, step_scaled = clock.run_step(step)
        results.append((result, error))
        wall += seconds
        scaled += step_scaled
    attempted = failed = 0
    errors = []
    for step, (result, error) in zip(order, results):
        if error is not None:
            errors.append(f"{step.label}: {type(error).__name__}: {error}")
        try:
            a, f = step.check(result)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            errors.append(f"{step.label}: malformed output ({exc!r})")
            a, f = step.check(None)
        attempted += a
        failed += f
    return Pass(wall, scaled, clock.latencies[first_op:], clock.refs[first_ref:],
                attempted, failed, errors,
                tracer.harvest() if tracer else [])


def run_for(work: wl.Workload, rng: random.Random, seconds: float, tracer=None) -> list[Pass]:
    """At least one pass, then more until the time is up."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(work, rng, tracer)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(work, rng, tracer))
    return passes


def measure_setup(workload: str, toy: bool, probes: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter start to ready-for-the-first-op, once per probe process.

    Each probe runs the reference loop itself, just before and just after
    its set-up, and the first loop's time is left out of the interval.
    Returns the probe times at reference speed and as measured.
    """
    scaled, raw = [], []
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(wl.BENCH_DIR)!r})\n"
            "import workloads\n"
            "start = time.perf_counter()\n"
            "before = workloads.reference_s()\n"
            "skip = time.perf_counter() - start\n"
            f"workloads.setup({workload!r}, {toy!r})\n"
            "ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
            "print(ready, skip, before, workloads.reference_s())\n")
    for _ in range(probes):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=wl.ROOT, check=False)
        if proc.returncode != 0:
            raise wl.SetupError(f"setup probe failed: {proc.stderr.strip()}")
        ready, skip, before, after = proc.stdout.split()[-4:]
        took = (int(ready) - start) / 1e9 - float(skip)
        raw.append(took)
        scaled.append(took * 2 * wl.REF_NOMINAL_S / (float(before) + float(after)))
    return scaled, raw


def _git_commit() -> str:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "cwd": str(wl.BENCH_DIR.relative_to(wl.ROOT)),
        "ORBISYM_CATALOG": str(wl.CATALOG_DIR.relative_to(wl.ROOT)),
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _tally(passes: list[Pass]) -> tuple[int, int, list[str]]:
    errors = [e for p in passes for e in p.errors]
    return sum(p.attempted for p in passes), sum(p.failed for p in passes), errors


def end_to_end(args: argparse.Namespace, work: wl.Workload,
               setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    passes = run_for(work, random.Random(args.seed), args.seconds)
    scaled = [p.scaled for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    values = {
        "setup_s": statistics.median(setup[0]),
        "wall_s": statistics.median(scaled),
        # Median over passes of each pass's median op: the steps differ in
        # size, so a pooled median would sit on the edge between two of them.
        "op_ms.p50": statistics.median(statistics.median(p.latencies) for p in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed, errors = _tally(passes)
    report = {
        "passes": len(passes),
        "ops": len(latencies),
        "failed_ratio": failed / attempted,
        "setup_s.samples": setup[0],
        "setup_s.measured": statistics.median(setup[1]),
        "wall_s.quartiles": _quartiles(scaled),
        "wall_s.measured": statistics.median(p.wall for p in passes),
        "reference_ms": statistics.median(r for p in passes for r in p.refs) * 1e3,
        "errors": errors[:20],
    }
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        report["op_ms.p90"] = statistics.quantiles(latencies, n=10)[8] * 1e3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def per_layer(args: argparse.Namespace, work: wl.Workload) -> tuple[dict, dict, list]:
    import tracing
    rng = random.Random(args.seed)
    tracer = tracing.Tracer(work.clock)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        # Alternate so that drift in machine speed hits both sides alike.
        untraced.append(run_pass(work, rng))
        tracer.install()
        traced.append(run_pass(work, rng, tracer))
        tracer.uninstall()

    # median_low keeps counts whole: they repeat exactly from pass to pass.
    per_pass = [tracing.layer_metrics(p.spans, tracer.names) for p in traced]
    values = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
    values["trace.spans"] = statistics.median_low(len(p.spans) for p in traced)
    base = statistics.median(p.scaled for p in untraced)
    values["trace.overhead_pct"] = (statistics.median(p.scaled for p in traced) / base - 1) * 100

    by_step: dict[str, list] = {}
    for span in traced[0].spans:
        label = work.clock.op_step.get(span[5], "(before the first op)")
        by_step.setdefault(label, []).append(span)
    breakdown = {}
    for label, spans in sorted(by_step.items()):
        m = tracing.layer_metrics(spans, tracer.names)
        breakdown[label] = {key: m[key] for key in (
            "coset.enumerate_cosets.calls", "coset.cosets_out", "scenario.enum_calls",
            "scenario.useful_ratio", "permgroup.evaluate_word.calls")}

    units = tracing.per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted, failed, errors = _tally(untraced + traced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "passes.untraced": len(untraced),
        "passes.traced": len(traced),
        "wall_s.untraced": base,
        "wall_s.traced": statistics.median(p.scaled for p in traced),
        "failed_ratio": failed / attempted,
        "layer_self_s": tracing.layer_self_summary(values),
        "per_step": breakdown,
        "all_functions": {k: v for k, v in values.items() if k not in units},
        "errors": errors[:20],
    }
    return result, report, [(i, tracer.names, p.spans) for i, p in enumerate(traced)]


def write_spans(path: Path, batches: list) -> None:
    with path.open("w") as out:
        out.write("pass\top\tspan\tparent\tfunction\tstart_ns\tend_ns\toutput\terror\n")
        for index, names, spans in batches:
            for s in spans:
                out.write(f"{index}\t{s[5]}\t{s[0]}\t{s[1]}\t{names[s[2]]}\t"
                          f"{s[3]}\t{s[4]}\t{s[6]}\t{s[7]}\n")


def run_workload(args: argparse.Namespace) -> int:
    try:
        setup = ([], []) if args.trace else measure_setup(
            args.workload, args.toy, 2 if args.toy else SETUP_PROBES)
        work = wl.setup(args.workload, args.toy)
    except (wl.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result, report, batches = per_layer(args, work)
        write_spans(wl.OUT_DIR / f"{args.workload}.spans.tsv", batches)
        summary = ", ".join(f"{k} {v:.4f} s" for k, v in report["layer_self_s"].items())
        print(f"layer self time per pass: {summary}")
        print(f"tracing overhead: {result['metrics']['trace.overhead_pct']['value']:.1f}% "
              f"of untraced wall time")
    else:
        result, report = end_to_end(args, work, setup)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "environment": environment(), **report}
    (wl.OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, untraced then traced; prints a table."""
    code = 0
    summary = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--toy"] if args.toy else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                                  cwd=wl.ROOT, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or len(lines) < 2:
                print(f"{name} trace={trace}: did not run: {proc.stderr.strip()}")
                code = 2
                continue
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            summary[f"{name}.trace{trace}"] = {"report": report, "result": result}
            code = max(code, proc.returncode)
            if trace:
                print(f"  {'trace.overhead_pct':<20} "
                      f"{result['metrics']['trace.overhead_pct']['value']:12.1f} %")
                print(f"  layer self time per pass (s): {json.dumps(report['layer_self_s'])}")
                continue
            print(f"{name}  (seed {args.seed}, {report['passes']} passes, {report['ops']} ops)")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<20} {entry['value']:12.4f} {entry['unit']}")
            if "op_ms.p90" in report:
                print(f"  {'op_ms.p90':<20} {report['op_ms.p90']:12.4f} ms")
            print(f"  {'failed_ratio':<20} {report['failed_ratio']:12.4f} "
                  f"({result['failed']}/{result['attempted']})")
    (wl.OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS,
                        help="one workload; without it every workload runs in turn")
    parser.add_argument("--seed", type=int, default=1, help="shuffles step order per pass")
    parser.add_argument("--seconds", type=float, default=25, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--toy", action="store_true",
                        help="small inputs for the self-test")
    args = parser.parse_args()
    if not (wl.SRC / "orbisym" / "__init__.py").is_file():
        print(f"error: no orbisym package under {wl.SRC}", file=sys.stderr)
        return 2
    wl.OUT_DIR.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
