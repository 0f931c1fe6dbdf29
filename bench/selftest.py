#!/usr/bin/env python3
"""Fast self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks BENCHMARK.json against the benchmark's schema, runs every
workload at toy size untraced and traced, and checks that each run's last
line carries exactly the metrics BENCHMARK.json names, each with its unit
and a finite value (above 0 for end-to-end metrics), and that every
output was correct.  Last, it copies
BENCHMARK.json and bench/ into an otherwise empty directory and checks
that the benchmark refuses to run there.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}\Z")


def check_spec(spec: dict) -> list[str]:
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"BENCHMARK.json keys: {sorted(spec)}")
    command, paths = spec.get("command", []), spec.get("paths", [])
    need(1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command),
         "command: 1 to 32 strings of at most 200 characters")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in command),
         "command: no absolute paths or '..'")
    need(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/") for p in paths),
         "paths: 1 to 16 relative directories")
    need(isinstance(spec.get("run_seconds"), int) and 1 <= spec["run_seconds"] <= 60,
         "run_seconds: whole number 1..60")
    names = []
    loads = spec.get("workloads", [])
    need(2 <= len(loads) <= 8, "workloads: 2 to 8")
    for w in loads:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        why = w.get("why", "")
        need(len(why) <= 200 and "\n" not in why, f"why of {w.get('name')}")
        names.append(w.get("name", ""))
    need([w["name"] for w in loads] == list(workloads.WORKLOADS), "workload names match run.py")
    e2e, layers = spec.get("end_to_end", []), spec.get("per_layer", [])
    need(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128, "metric counts")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys of {m.get('name')}")
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25,
             f"bound of {m.get('name')}")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys of {m.get('name')}")
    for m in e2e + layers:
        need(m.get("better") in ("lower", "higher"), f"better of {m.get('name')}")
        need(bool(UNIT.match(str(m.get("unit")))), f"unit of {m.get('name')}")
        names.append(m.get("name", ""))
    need(all(NAME.match(n) for n in names), "names: letters, digits, _ . - (at most 64)")
    need(len(names) == len(set(names)), "names used once")
    need({"name": "setup_s", "unit": "s", "better": "lower"}.items()
         <= next((m for m in e2e if m.get("name") == "setup_s"), {}).items(),
         "setup_s in end_to_end, unit s, lower is better")
    need({m["name"]: m["unit"] for m in e2e} == run.END_TO_END, "end_to_end matches run.py")
    need({m["name"]: m["unit"] for m in layers} == tracing.per_layer_units(),
         "per_layer matches run.py")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    argv = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=ROOT, check=False)
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: outputs not correct: {lines[-2][:500]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != wanted.get(name):
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {value}, never 0 or less")
    return problems


def check_bare(spec: dict) -> list[str]:
    """The command must fail, printing no result, beside nothing but itself."""
    bare = workloads.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=bare, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_bare(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
