"""Runs of the CLI that must stay within a time, memory or address bound.

Each test runs `python -m orbisym` in a child process, as a user does,
through conftest.run_orbisym, which reads the child's own peak resident
memory and kills a child still running after 60 s.  The runs on the
overflow path must give up in time, and at the default budget under
130 MB; the largest completed table must stay under 150 MB; and input
too large to parse must end as an input error under a 1.5 GB address
cap, which acts on the child only.
"""

from __future__ import annotations

import time

import pytest

from conftest import run_orbisym

# The (2,3,7) triangle group is infinite, so every budget fills.
TRIANGLE_237 = "generators: x y\nrelators: x^2 y^3 (x*y)^7\n"
XYZ = "generators: x y z\nrelators: y*x^-1*z^-2 x^-40 y*z*y*z^-3*y^-1 x^-25\n"
# Family 19 at n=700: 490 000 cosets, for which HLT defines about two raw
# rows each.
FAMILY_19_700 = "generators: x y\nrelators: x^700 y^700 x*y*x^-1*y^-1\n"

# `ulimit -v 1500000`: 1.5 GB of address space.
ADDRESS_CAP_KIB = 1_500_000
LONG = "7" * 5000


def run_order(tmp_path, text, *args):
    """Run `order` on the presentation text with args; return its exit
    code, its output and its peak resident memory in MB."""
    path = tmp_path / "presentation.txt"
    path.write_text(text)
    return run_orbisym(tmp_path, "order", str(path), *args)


def test_the_overflow_path_gives_up_in_time(tmp_path):
    # Under a budget of 10^5 cosets the run fills it, runs one lookahead
    # pass, which frees no coset, and gives up with exit 3, well inside
    # the timeout.  Before x and x^-1 shared one column list it ran six
    # passes and compactions first.
    status, out, _ = run_order(tmp_path, TRIANGLE_237, "--max-cosets", "100000")
    assert (status, out) == (3, "error: coset budget 100000 exhausted\n")


def test_the_default_budget_gives_up_under_130_mb(tmp_path):
    # Under the default budget of 10^6 cosets the run gives up with exit
    # 3.  It peaks at about 86 MB on CPython 3.11: the lists grow in steps
    # capped at the budget, so they hold no unused slot when it fills, and
    # x and x^-1 share one of them.  It peaked at about 95 MB with a list
    # each, and at 153 MB when compaction kept lists of its own and a
    # second set of label ints.
    status, out, peak_mb = run_order(tmp_path, TRIANGLE_237)
    assert (status, out) == (3, "error: coset budget 1000000 exhausted\n")
    assert peak_mb < 130


def test_many_compactions_give_up_in_time(tmp_path):
    # Under a budget of 3000 cosets this presentation runs 858 lookahead
    # and compaction passes before it gives up with exit 3.
    status, out, _ = run_order(tmp_path, XYZ, "--max-cosets", "3000")
    assert (status, out) == (3, "error: coset budget 3000 exhausted\n")


def test_a_completed_table_stays_under_150_mb(tmp_path):
    # It peaks at about 122 MB on CPython 3.11, at 155 MB when the raw
    # table stayed alive next to the standardized columns, and at 200 MB
    # when the standardized table was a tuple of rows.
    status, out, peak_mb = run_order(tmp_path, FAMILY_19_700)
    assert (status, out) == (0, "order: 490000\n")
    assert peak_mb < 150


# Where a closed relator reads again is found once per relator, in time
# linear in its length (coset._mark_walk).  Under a budget of 10 cosets
# these 60 000-letter relators, one no proper power and one a power of a
# two-letter root with an involution in it, give up with exit 3 in about
# 0.13 s each on CPython 3.11; a search of every rotation would take
# 60 000 comparisons of 60 000 letters each.
LONG_RELATORS = {
    "non-power": "generators: x y\nrelators: x^2 x*y^29998*x^-1*y^-30000\n",
    "power": "generators: x y\nrelators: x^2 (x*y)^30000\n",
}
LONG_RELATOR_BOUND_S = 5


@pytest.mark.parametrize("kind", sorted(LONG_RELATORS))
def test_a_long_relator_gives_up_in_time(tmp_path, kind):
    start = time.monotonic()
    status, out, _ = run_order(tmp_path, LONG_RELATORS[kind], "--max-cosets", "10")
    assert (status, out) == (3, "error: coset budget 10 exhausted\n")
    assert time.monotonic() - start < LONG_RELATOR_BOUND_S


@pytest.mark.parametrize("name,text,argv,message", [
    ("big.txt", "generators: x y\nrelators: x^2000000000 y^2\n", ["order"],
     "line 2: word of 2000000000 letters at position 2 is over the 1000000-letter limit"),
    ("deep.txt", "generators: x y\nrelators: " + "(" * 3000 + "x" + ")" * 3000 + "\n",
     ["order"], "line 2: parentheses nested deeper than 100 at position 100"),
    ("digits.txt", f"generators: x y\nrelators: y^2 x^{LONG}\n", ["order"],
     "line 2: integer of 5000 digits at position 2 is over the 18-digit limit"),
    ("alpha.case", f"case: long\narithmetic_only: true\nalpha: {LONG}\n"
     "m: 4(a+1) = 120\nsurfaces: S_{0,30}\n", ["case", "long"],
     "line 3: integer of 5000 digits is over the 18-digit limit"),
    ("genus.case", "case: long\narithmetic_only: true\nalpha: 29\nm: 4(a+1) = 120\n"
     f"surfaces: S_{{{LONG},30}}\n", ["case", "long"],
     "line 5: integer of 5000 digits is over the 18-digit limit"),
], ids=["power-2e9", "nested-3000", "exponent-5000-digits", "alpha-5000-digits",
        "genus-5000-digits"])
def test_input_too_large_is_an_input_error_under_an_address_cap(tmp_path, name, text, argv,
                                                                 message):
    # Each is refused, named with its file and line, before any word is
    # built or any integer converted, so it ends with exit 2 under the
    # cap, where building the word would end in a MemoryError traceback.
    path = tmp_path / name
    path.write_text(text)
    if argv == ["order"]:
        argv = ["order", str(path)]
    status, out, _ = run_orbisym(tmp_path, *argv, env={"ORBISYM_CATALOG": str(tmp_path)},
                                 address_cap_kib=ADDRESS_CAP_KIB)
    assert (status, out) == (2, f"error: {path}: {message}\n")
