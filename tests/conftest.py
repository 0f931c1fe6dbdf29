"""Shared fixtures, independent oracles and a CLI child-process runner.

The oracles below work on raw image tuples and plain loops on purpose:
they must not share code with the library they check.
"""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbisym import load_presentation

ORBIFOLD_28_TEXT = """\
# order-120 orbifold group
generators: x y z
relators: x^5 y^2 z^2 (x*z)^3 (x*y)^2 (y*z^-1)^2
"""


EDGE_CASE = """\
case: tiny-edge
generators: x y
relators: x^3 y^2 (x*y)^2
scenario edge alpha=2
pattern P1: subgroup = x, y ; orient = always
expect order=6 surfaces=S_{1,1}
"""

ARITHMETIC_CASE = """\
case: little-row
arithmetic_only: true
alpha: 29
m: 4(a+1) = 120
surfaces: S_{0,30} S_{9,12} S_{14,2}
"""

DASHED_CASE = """\
case: tiny-dashed
generators: x y
relators: x^3 y^2 (x*y)^2
scenario dashed alpha=2 fixed=y arc=x hom(y=1)
expect order=6 surfaces=S_{1,1}
"""


@pytest.fixture(scope="session")
def orbifold_28():
    return load_presentation(ORBIFOLD_28_TEXT)


# -- permutation oracle, independent of the library ---------------------


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def mulclose(perms: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All products of the given permutations (image tuples)."""
    n = len(perms[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for h in perms:
                x = compose(g, h)
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        frontier = fresh
    return seen


def dihedral_generators(n: int) -> list[tuple[int, ...]]:
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return [rotation, reflection]


def triangle_rotation_generators(q: int) -> list[tuple[int, ...]]:
    """Permutations satisfying x^3 = y^2 = (x*y)^q = 1 for q in {3, 4, 5}."""
    if q == 3:
        x = (1, 2, 0, 3)          # 3-cycle on {0,1,2}
        y = (1, 0, 3, 2)          # (0 1)(2 3)
    elif q == 4:
        x = (1, 2, 0, 3)
        y = (3, 1, 2, 0)          # (0 3)
    elif q == 5:
        x = (1, 2, 0, 3, 4)
        y = (3, 4, 2, 0, 1)       # (0 3)(1 4)
    else:
        raise ValueError(q)
    return [x, y]


def brute_force_hom2(relator_vectors: list[tuple[int, ...]],
                     constraints: list[tuple[tuple[int, ...], int]],
                     n: int) -> tuple[int, ...] | None:
    """Try all 2^n generator assignments; return one that works, else None."""
    for bits in itertools.product((0, 1), repeat=n):
        ok = all(sum(b * v for b, v in zip(bits, vec)) % 2 == 0
                 for vec in relator_vectors)
        ok = ok and all(sum(b * v for b, v in zip(bits, vec)) % 2 == target
                        for vec, target in constraints)
        if ok:
            return bits
    return None


# -- the CLI in a child process, as a user runs it ------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_TIMEOUT_S = 60


def run_orbisym(tmp_path, *argv, module="orbisym", env=None, address_cap_kib=None):
    """Run `python -m module argv` in a child process that imports this
    checkout's orbisym; return its exit code, its output (stdout and
    stderr in one) and its peak resident memory in MB.

    The child is waited for with os.wait4, which reports that child's own
    resource use; RUSAGE_CHILDREN would give the maximum over every child
    reaped so far.  env adds variables to the child's environment.  With
    address_cap_kib the child's address space is capped at that many KiB,
    as `ulimit -v` caps it, in the child only.  A child still running
    after CHILD_TIMEOUT_S is killed and fails the test, and every child is
    reaped before this returns or raises."""
    out = tmp_path / "out.txt"
    child_env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def cap_address_space():
        limit = address_cap_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    with open(out, "w") as sink:
        proc = subprocess.Popen([sys.executable, "-m", module, *argv], stdout=sink,
                                stderr=subprocess.STDOUT, env=child_env,
                                preexec_fn=cap_address_space if address_cap_kib else None)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                pytest.fail(f"{' '.join(argv)} still running after {CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
    finally:
        if not pid:  # a timeout or an interrupt
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
        # Reaped here, so Popen must not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out.read_text(), usage.ru_maxrss / 1024
