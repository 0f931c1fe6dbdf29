"""Runs on the overflow path that must give up within their time and memory.

Each test runs `python -m orbisym order` in a child process, as a user
does, and waits for it with os.wait4, which reports that child's own
resource use: its peak resident memory is ru_maxrss.  A child still
running after 60 s is killed and fails its test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 60

# The (2,3,7) triangle group is infinite, so every budget fills.
TRIANGLE_237 = "generators: x y\nrelators: x^2 y^3 (x*y)^7\n"
XYZ = "generators: x y z\nrelators: y*x^-1*z^-2 x^-40 y*z*y*z^-3*y^-1 x^-25\n"


def run_order(tmp_path, text, *args):
    """Run `order` on the presentation text with args; return its exit
    code, its output and its peak resident memory in MB."""
    path = tmp_path / "presentation.txt"
    path.write_text(text)
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(out, "w") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "orbisym", "order", str(path), *args],
                                stdout=sink, stderr=subprocess.STDOUT, env=env)
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.returncode = os.waitstatus_to_exitcode(os.wait4(proc.pid, 0)[1])
            pytest.fail(f"order {' '.join(args)} still running after {TIMEOUT_S} s")
        time.sleep(0.02)
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out.read_text(), usage.ru_maxrss / 1024


def test_the_overflow_path_gives_up_in_time(tmp_path):
    # Under a budget of 10^5 cosets the run fills it, runs the lookahead
    # and compaction, and gives up with exit 3, well inside the timeout.
    status, out, _ = run_order(tmp_path, TRIANGLE_237, "--max-cosets", "100000")
    assert (status, out) == (3, "error: coset budget 100000 exhausted\n")


def test_the_default_budget_gives_up_under_130_mb(tmp_path):
    # Under the default budget of 10^6 cosets the run gives up with exit
    # 3.  It peaks at about 94 MB on CPython 3.11: the lists grow in steps
    # capped at the budget, so they hold no unused slot when it fills.  It
    # peaked at 153 MB when compaction kept lists of its own and a second
    # set of label ints.
    status, out, peak_mb = run_order(tmp_path, TRIANGLE_237)
    assert (status, out) == (3, "error: coset budget 1000000 exhausted\n")
    assert peak_mb < 130


def test_many_compactions_give_up_in_time(tmp_path):
    # Under a budget of 3000 cosets this presentation runs 858 lookahead
    # and compaction passes before it gives up with exit 3.
    status, out, _ = run_order(tmp_path, XYZ, "--max-cosets", "3000")
    assert (status, out) == (3, "error: coset budget 3000 exhausted\n")
