"""Coset enumeration against independent permutation oracles."""

from __future__ import annotations

import collections
import contextlib
import functools
import random
import signal
import struct
import sys
import tracemalloc
import weakref
from bisect import bisect_left
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbisym import (
    EnumerationLimits,
    LimitExceeded,
    Word,
    conjugate,
    coset_words,
    enumerate_cosets,
    group_order,
    load_presentation,
    parse_word,
    subgroup_index,
    table_to_tsv,
    trace_word,
    verify_coset_table,
)
from orbisym import coset
from orbisym.coset import _Enumerator, _NeedRoom, permutation_rep
from orbisym.permgroup import enumerate_elements
from orbisym.presentation import Presentation, family_15e, family_19
from orbisym.words import format_word, letter_columns
from conftest import (ORBIFOLD_28_TEXT, dihedral_generators, mark_positions, mulclose,
                      triangle_rotation_generators)
from row_layout import RowLayoutEnumerator, renumber, row_standardize

D7 = "generators: x y\nrelators: x^7 y^2 (x*y)^2\n"


def table_rows(table):
    """The table as rows, for the row-based oracles: row c is coset c's
    entry in each column."""
    return tuple(zip(*table.columns)) if table.columns else ((),) * table.n_cosets

TRIANGLE = "generators: x y\nrelators: x^3 y^2 (x*y)^{q}\n"


def triangle_presentation(q):
    return load_presentation(TRIANGLE.replace("{q}", str(q)))


def triangle_23k(k):
    """The (2,3,k) triangle group: finite for k <= 5, infinite from 6."""
    return load_presentation(f"generators: x y\nrelators: x^2 y^3 (x*y)^{k}\n")


SMALL_FINITE = (
    *(load_presentation(f"generators: x y\nrelators: x^{n} y^2 (x*y)^2\n") for n in (3, 4, 7)),
    load_presentation("generators: a b c\n"
                      "relators: a^2 b^2 c^2 (a*b)^3 (b*c)^3 (a*c)^2\n"),
    load_presentation("generators: a b c d\n"
                      "relators: a^2 b^2 c^2 d^2 (a*b)^3 (b*c)^3 (c*d)^3 "
                      "(a*c)^2 (a*d)^2 (b*d)^2\n"),
    *(family_15e(n) for n in (3, 4, 6)),
    *(family_19(n) for n in (3, 4, 5)),
)
SMALL_ORDERS = (6, 8, 14, 24, 120, 6, 8, 12, 9, 16, 25)
# Every group in SMALL_FINITE has order at most 120.  The oracle tests
# that enumerate them run under this budget, so that an enumerator that
# takes them for infinite fails each example in milliseconds, not after
# filling the default budget of 10^6 cosets.
SMALL_LIMITS = EnumerationLimits(10_000)


# -- the reference HLT, with its filling scan as a method -----------------


def distinct_lists(table):
    """The raw table's column lists, each once: an involution's two
    columns are one list."""
    return list({id(column): column for column in table}.values())


def shared_generators(enum):
    """The generators whose two columns are one list in enum's raw table."""
    table = enum.table
    return {col >> 1 for col in range(1, len(table), 2) if table[col] is table[col - 1]}


def shares_previous(table, col):
    """Whether column col is the second of an involution's pair, the list
    of the column before it."""
    return col & 1 and table[col] is table[col - 1]


def separate_columns():
    """A context in which the enumerator gives g and g^-1 a column list
    each even where g^2 is a relator: the layout before involutions
    shared one list, which must give the same standardized tables."""
    return mock.patch.object(coset, "_involutions", lambda relator_cols: frozenset())


# Where a test or its parameter is marked separate_columns, the layout
# fixture runs it in that context.  With the shared list, (2,3,k) gives up
# at its first lookahead pass, which frees nothing, and orbifold-28 fits
# under 121 cosets with no pass; so the tests of later passes, of what they
# free and of the paths compaction takes run those inputs this way.
SEPARATE_COLUMNS = pytest.mark.separate_columns


class OutOfTime(BaseException):
    """Raised in a test here that runs past TIME_LIMIT_S.  Not an
    Exception, so that hypothesis does not catch it and go on shrinking
    the example, and no `except Exception` swallows it."""


# Every test here must finish within this many seconds.  A change that
# makes finite presentations look infinite can have a test fill the
# default budget of 10^6 cosets again and again; it then fails at the
# limit instead of holding up the file.
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    def out_of_time(signum, frame):
        raise OutOfTime(f"still running after {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    # and again each second after, should a finalizer swallow the first
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def layout(request):
    marked = request.node.get_closest_marker("separate_columns")
    with separate_columns() if marked else contextlib.nullcontext():
        yield


class ReferenceAssign:
    """Mixin: the deduction as a method, the hook that the reference
    enumerators route their table writes through."""

    def _assign(self, a, col, b):
        self.table[col][a] = b
        self.table[col ^ 1][b] = a


class ReferenceHLT(ReferenceAssign, _Enumerator):
    """HLT as a loop of method calls: the subgroup words are scanned at
    coset 0 first, each to completion, and then every relator at every
    live coset, with every definition through _define and every deduction
    through _assign, and each relator marked through _mark_closed, after
    its scan closes, wherever its loop reads it again (mark_positions,
    the brute-force oracle).  The lookahead and compaction are the
    enumerator's.  _Enumerator.run, which writes this scan and the mark
    walk out on local names, must leave the same raw state."""

    def _define(self, alpha, col):
        if len(self.p) >= self.limits.max_cosets:
            raise _NeedRoom
        beta = len(self.p)
        for column in distinct_lists(self.table):
            column.append(None)
        self.p.append(beta)
        self.closed.append(0)
        self._assign(alpha, col, beta)
        return beta

    def _fill_scan(self, alpha, cols, fill=True):
        """Scan a relator or subgroup word at alpha, defining cosets where
        entries are missing, so that the scan always completes.  With
        fill=False it stops at a gap of two or more instead, as the
        enumerator's lookahead scan does."""
        table = self.table
        f = b = alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j:
                nxt = table[cols[i]][f]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                prv = table[cols[j] ^ 1][b]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self._assign(f, cols[i], b)
                return
            if not fill:
                return
            self._define(f, cols[i])

    def _mark_closed(self, alpha, cols, positions, bit):
        """Mark the cosets after alpha at the positions of the loop of
        relator cols, which has just closed at alpha, as closing it,
        walking the loop a letter at a time, until it is back at alpha."""
        table, closed = self.table, self.closed
        c = alpha
        at = 0
        for i in positions:
            for col in cols[at:i]:
                c = table[col][c]
            at = i
            if c == alpha:
                break
            if c > alpha:
                closed[c] |= bit

    def run(self):
        for cols in self.sub_cols:
            while True:
                try:
                    self._fill_scan(0, cols)
                    break
                except _NeedRoom:
                    self._make_room(0)
        involutions = shared_generators(self)
        relators = [(1 << i, cols, mark_positions(cols, involutions))
                    for i, cols in enumerate(self.relator_cols)]
        alpha = 0
        while alpha < len(self.p):
            if self.p[alpha] == alpha:
                skip = self.closed[alpha]
                try:
                    for bit, cols, positions in relators:
                        if skip & bit:
                            continue
                        self._fill_scan(alpha, cols)
                        if self.p[alpha] != alpha:
                            break
                        self._mark_closed(alpha, cols, positions, bit)
                    if self.p[alpha] == alpha:
                        for col in range(self.ncols):
                            if self.table[col][alpha] is None:
                                self._define(alpha, col)
                except _NeedRoom:
                    alpha = self._make_room(alpha)
                    continue
            alpha += 1
        return self.table


def reference_standardize(table, p):
    """The two-pass standardization of a raw table of columns: drop the
    dead rows, mapping every entry to its representative's new label,
    then number the cosets breadth-first from coset 0 in column order."""
    live, renum = renumber(p)
    rows = []
    for old in live:
        row = [column[old] for column in table]
        if None in row:
            raise AssertionError("enumeration finished with an incomplete row")
        rows.append([renum[e] for e in row])
    order = [0]
    pos = [-1] * len(rows)
    pos[0] = 0
    for c in order:
        for d in rows[c]:
            if pos[d] < 0:
                pos[d] = len(order)
                order.append(d)
    if len(order) != len(rows):
        raise AssertionError("completed table is not transitive")
    return tuple(tuple([pos[d] for d in rows[old]]) for old in order)


def rows_to_columns(rows, width):
    """The columns of a table given as rows, for building a CosetTable or
    comparing a row-based standardization with _standardize.  Each row
    must be width entries wide, the check verify_coset_table made when
    tables were rows, with its message."""
    for c, row in enumerate(rows):
        if len(row) != width:
            raise AssertionError(f"row {c} has {len(row)} columns, wanted {width}")
    return tuple(tuple(row[col] for row in rows) for col in range(width))


def copy_table(table):
    """A copy of a raw table of columns, for _standardize, which empties
    the columns it is given."""
    return [list(column) for column in table]


# -- the coincidence as method calls ----------------------------------------


def find(p, c):
    """c's representative in the union-find p, without path compression."""
    while p[c] != c:
        c = p[c]
    return c


class ReferenceCoincidence(ReferenceAssign):
    """Mixin: coincidence handling as method calls, with every find
    through rep, every merge through _merge and every deduction through
    self._assign.  _Enumerator._coincidence, which writes this out on
    local names, must leave the same table, union-find (path compression
    included), closed marks and first dead label.

    It also counts, per edge of a dead coset, which way it went
    ("existing": a merge with the representative's entry, "inverse": a
    merge with the inverse entry, "deduction"), and records the cosets
    each call kills."""

    def __init__(self, *args):
        super().__init__(*args)
        self.outcomes = collections.Counter()
        self.kills = []

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            if b < self.first_dead:
                self.first_dead = b
            queue.append(b)
            bits = self.closed[b]
            if bits:
                self.closed[a] |= bits

    def _coincidence(self, a, b):
        table, rep, merge, assign = self.table, self.rep, self._merge, self._assign
        queue = []
        self.kills.append(queue)
        merge(a, b, queue)
        for gamma in queue:
            for col in range(self.ncols):
                delta = table[col][gamma]
                if delta is None or shares_previous(table, col):
                    continue
                table[col ^ 1][delta] = None
                mu = rep(gamma)
                nu = rep(delta)
                existing = table[col][mu]
                if existing is not None:
                    self.outcomes["existing"] += 1
                    merge(nu, existing, queue)
                elif table[col ^ 1][nu] is not None:
                    self.outcomes["inverse"] += 1
                    merge(mu, table[col ^ 1][nu], queue)
                else:
                    self.outcomes["deduction"] += 1
                    assign(mu, col, nu)


# -- Felsch: the reference enumerator HLT is compared against -------------


def _cyclic_reduce(letters):
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


class FelschReference(ReferenceCoincidence, ReferenceHLT):
    """Felsch's strategy (Havas, "Coset enumeration strategies", ISSAC
    1991): define the first undefined entry, then chase every deduction
    against the relator rotations that start with its column.  It reuses
    the enumerator's table and union-find, the reference HLT's scan
    (filling for the subgroup words, non-filling for the rotations) and
    the reference coincidence, so that every deduction, those a scan or a
    coincidence forces included, passes through its _assign; but it
    defines cosets in its own order and has no lookahead or compaction:
    running out of rows raises LimitExceeded."""

    def __init__(self, pres, subgroup, limits):
        super().__init__(pres, subgroup, limits)
        self.deductions = []
        # Rotations of cyclically reduced relators and their inverses,
        # by first column.  Cyclic reduction keeps the normal closure.
        self.buckets = [[] for _ in range(self.ncols)]
        for r in pres.relators:
            core = _cyclic_reduce(r.letters)
            for letters in (core, tuple(-l for l in reversed(core))):
                cols = letter_columns(Word(letters))
                for s in range(len(cols)):
                    rot = cols[s:] + cols[:s]
                    if rot not in self.buckets[rot[0]]:
                        self.buckets[rot[0]].append(rot)

    def _assign(self, a, col, b):
        super()._assign(a, col, b)
        self.deductions.append((a, col))

    def _scan_rotations(self, alpha, col):
        for cols in self.buckets[col]:
            if self.p[alpha] != alpha:
                return
            self._fill_scan(alpha, cols, fill=False)

    def _chase(self):
        while self.deductions:
            alpha, col = self.deductions.pop()
            self._scan_rotations(alpha, col)
            if self.p[alpha] == alpha and self.table[col][alpha] is not None:
                self._scan_rotations(self.table[col][alpha], col ^ 1)

    def run(self):
        try:
            for cols in self.sub_cols:
                self._fill_scan(0, cols)
            self._chase()
            alpha = 0
            while alpha < len(self.p):
                for col in range(self.ncols):
                    if self.p[alpha] != alpha:
                        break
                    if self.table[col][alpha] is None:
                        self._define(alpha, col)
                        self._chase()
                alpha += 1
        except _NeedRoom:
            raise LimitExceeded(f"coset budget {self.limits.max_cosets} exhausted") from None
        return self.table


def felsch_columns(pres, subgroup=(), limits=EnumerationLimits()):
    """The reference's standardized columns, or LimitExceeded."""
    enum = FelschReference(pres, tuple(subgroup), limits)
    return coset._standardize(enum.run(), enum.p)


def test_dihedral_order_matches_oracle():
    pres = load_presentation(D7)
    assert group_order(pres) == len(mulclose(dihedral_generators(7))) == 14


@pytest.mark.parametrize("q,expected", [(3, 12), (4, 24), (5, 60)])
def test_triangle_rotation_groups_match_oracle(q, expected):
    oracle = len(mulclose(triangle_rotation_generators(q)))
    assert oracle == expected
    assert group_order(triangle_presentation(q)) == expected


def test_dihedral_subgroup_index():
    pres = load_presentation(D7)
    table = enumerate_cosets(pres, subgroup=(Word((1,)),))
    assert table.n_cosets == 2


COXETER_S7 = load_presentation(
    "generators: a b c d e f\n"
    "relators: a^2 b^2 c^2 d^2 e^2 f^2 (a*b)^3 (b*c)^3 (c*d)^3 (d*e)^3 (e*f)^3 "
    "(a*c)^2 (a*d)^2 (a*e)^2 (a*f)^2 (b*d)^2 (b*e)^2 (b*f)^2 (c*e)^2 (c*f)^2 (d*f)^2\n")


# Each budget is about three times the run's raw peak (6411, 3155, 19 604
# and 4000 rows), so that an enumerator that takes these groups for
# infinite fails in a second, not after filling 10^6 cosets.
@pytest.mark.parametrize("pres,subgroup,index,max_cosets", [
    (COXETER_S7, (), 5040, 20_000),
    (COXETER_S7, (Word((1,)),), 2520, 10_000),
    # 10^4 cosets after 9604 coincidences, each of which kills one coset
    (family_19(100), (), 10_000, 60_000),
    # one 2000-letter relator
    (family_15e(2000), (), 4000, 12_000),
], ids=["s7", "s7-a", "19-100", "15E-2000"])
def test_large_tables_are_exact(pres, subgroup, index, max_cosets):
    # Each must finish within TIME_LIMIT_S (the time_limit fixture).
    assert enumerate_cosets(pres, subgroup, EnumerationLimits(max_cosets)).n_cosets == index


def test_identity_subgroup_word_is_noop():
    pres = load_presentation(D7)
    regular = enumerate_cosets(pres)
    with_identity = enumerate_cosets(pres, subgroup=(Word.identity(),))
    assert with_identity.columns == regular.columns


def test_free_group_finite_index_subgroup():
    # No relators at all: subgroup x^5 still closes at index 5.
    pres = load_presentation("generators: x\nrelators:\n")
    table = enumerate_cosets(pres, subgroup=(Word((1,) * 5),))
    assert table.n_cosets == 5


def test_orbifold_order_and_indices(orbifold_28):
    assert group_order(orbifold_28) == 120
    names = orbifold_28.generator_names
    midarc = parse_word("x*y*z^-1*x^-1", names)
    left = parse_word("x*y", names)
    right1 = parse_word("x*y*x^-1", names)
    right2 = parse_word("x*z*x^-1", names)
    moved_left = conjugate(left, midarc)
    subgroups = [
        (right1, left),
        (right1, moved_left),
        (right2, left),
        (right2, moved_left),
    ]
    indices = [enumerate_cosets(orbifold_28, subgroup=g).n_cosets
               for g in subgroups]
    assert indices == [12, 12, 6, 6]


def _agree_cases():
    orbifold = load_presentation(ORBIFOLD_28_TEXT)
    yield pytest.param(orbifold, (), None, id="orbifold-28")
    # The regular run's raw peak is around 142 rows, so HLT runs its
    # lookahead-and-compact path under this cap; the reference runs under
    # the default cap.
    yield pytest.param(orbifold, (), 121, id="orbifold-28-cap-121")
    x, y = Word.generator(0), Word.generator(1)
    for index, pres in enumerate(SMALL_FINITE):
        for name, subgroup in (("trivial", ()), ("x", (x,)), ("y,xyx", (y, x * y * x))):
            yield pytest.param(pres, subgroup, SMALL_LIMITS.max_cosets,
                               id=f"small{index}-{name}")


@pytest.mark.parametrize("pres,subgroup,max_cosets", _agree_cases())
def test_strategies_agree(pres, subgroup, max_cosets):
    limits = EnumerationLimits() if max_cosets is None else EnumerationLimits(max_cosets)
    hlt = enumerate_cosets(pres, subgroup, limits)
    assert hlt.columns == felsch_columns(pres, subgroup)


def test_relator_order_irrelevant(orbifold_28):
    shuffled = list(orbifold_28.relators)
    random.Random(7).shuffle(shuffled)
    pres2 = type(orbifold_28)(orbifold_28.generator_names, tuple(shuffled))
    assert enumerate_cosets(pres2).columns == enumerate_cosets(orbifold_28).columns


def test_deterministic(orbifold_28):
    a = enumerate_cosets(orbifold_28)
    b = enumerate_cosets(orbifold_28)
    assert a.columns == b.columns
    assert a.subgroup_generators == b.subgroup_generators


def test_table_is_bfs_standardized(orbifold_28):
    # Walking the table breadth-first from coset 0 in column order must
    # meet the cosets exactly in numeric order.
    for subgroup in ((), (Word((1, 2)),)):
        table = enumerate_cosets(orbifold_28, subgroup=subgroup)
        action = table_rows(table)
        seen = {0}
        order = [0]
        for alpha in order:
            for col in range(len(action[alpha])):
                beta = action[alpha][col]
                if beta not in seen:
                    seen.add(beta)
                    order.append(beta)
        assert order == list(range(table.n_cosets))


def test_infinite_group_hits_coset_cap():
    pres = load_presentation("generators: x\nrelators:\n")
    with pytest.raises(LimitExceeded):
        enumerate_cosets(pres, limits=EnumerationLimits(max_cosets=100))


def test_collapse_then_fit_under_tight_cap(orbifold_28):
    # The regular run's raw peak is around 142 rows; a cap of 121 forces
    # the lookahead-and-compact path repeatedly and must still finish
    # with the same standardized table.
    base = enumerate_cosets(orbifold_28)
    tight = enumerate_cosets(orbifold_28, limits=EnumerationLimits(max_cosets=121))
    assert tight.columns == base.columns
    assert tight.n_cosets == 120


def test_trace_word():
    pres = load_presentation(D7)
    table = enumerate_cosets(pres, subgroup=(Word((1,)),))
    # subgroup generator stabilizes coset 0
    assert trace_word(table, 0, Word((1,))) == 0
    # relators stabilize every coset
    for start in range(table.n_cosets):
        for rel in pres.relators:
            assert trace_word(table, start, rel) == start
    with pytest.raises(ValueError):
        trace_word(table, 99, Word((1,)))
    with pytest.raises(ValueError):
        trace_word(table, 0, Word((3,)))


def test_verify_coset_table_passes(orbifold_28):
    for pres_text, subgroup in ((D7, ("x",)), (D7, ()),):
        pres = load_presentation(pres_text)
        gens = tuple(parse_word(w, pres.generator_names) for w in subgroup)
        verify_coset_table(enumerate_cosets(pres, subgroup=gens), pres)
    verify_coset_table(enumerate_cosets(orbifold_28), orbifold_28)


def test_verify_coset_table_catches_corruption(orbifold_28):
    table = enumerate_cosets(orbifold_28, subgroup=(Word((1, 2)),))
    rows = [list(r) for r in table_rows(table)]
    rows[3][0], rows[4][0] = rows[4][0], rows[3][0]
    broken = _with_rows(table, rows)
    with pytest.raises(AssertionError):
        verify_coset_table(broken, orbifold_28)


# -- column-wise verification against the letter-by-letter reference -----


def row_trace_word(action, start, w):
    """trace_word on a table's rows, action."""
    c = start
    for col in letter_columns(w):
        c = action[c][col]
    return c


def reference_verify(table, pres, rows=None):
    """The letter-by-letter check on the table's rows (table_rows(table), or
    rows when given): every entry, its inverse, and every relator traced
    from every coset one letter at a time."""
    ncols = 2 * pres.n_generators
    action = table_rows(table) if rows is None else rows
    for c, row in enumerate(action):
        if len(row) != ncols:
            raise AssertionError(f"row {c} has {len(row)} columns, wanted {ncols}")
        for col, d in enumerate(row):
            if not 0 <= d < table.n_cosets:
                raise AssertionError(f"entry ({c},{col}) out of range")
            if action[d][col ^ 1] != c:
                raise AssertionError(f"entry ({c},{col}) has no inverse pairing")
    for cols in pres.relator_columns:
        for c in range(table.n_cosets):
            cur = c
            for col in cols:
                cur = action[cur][col]
            if cur != c:
                raise AssertionError(f"relator does not close at coset {c}")
    for w in table.subgroup_generators:
        if row_trace_word(action, 0, w) != 0:
            raise AssertionError("subgroup generator does not stabilize coset 0")


COXETER_S6 = load_presentation(
    "generators: a b c d e\n"
    "relators: a^2 b^2 c^2 d^2 e^2 (a*b)^3 (b*c)^3 (c*d)^3 (d*e)^3 "
    "(a*c)^2 (a*d)^2 (a*e)^2 (b*d)^2 (b*e)^2 (c*e)^2\n")


@functools.cache
def verified_cases():
    """(presentation, table) pairs of valid tables, by id."""
    x, y = Word.generator(0), Word.generator(1)
    cases = {}
    for index, pres in enumerate(SMALL_FINITE):
        for name, subgroup in (("trivial", ()), ("x", (x,)), ("y,xyx", (y, x * y * x))):
            cases[f"small{index}-{name}"] = (pres, enumerate_cosets(pres, subgroup,
                                                                    SMALL_LIMITS))
    orbifold = load_presentation(ORBIFOLD_28_TEXT)
    cases["orbifold-28"] = (orbifold, enumerate_cosets(orbifold))
    cases["orbifold-28-xy"] = (orbifold, enumerate_cosets(orbifold, (Word((1, 2)),)))
    cases["coxeter-s6"] = (COXETER_S6, enumerate_cosets(COXETER_S6))
    for n in (2, 17, 64):
        cases[f"15E-{n}"] = (family_15e(n), enumerate_cosets(family_15e(n)))
    for n in (2, 7, 12):
        cases[f"19-{n}"] = (family_19(n), enumerate_cosets(family_19(n)))
    return cases


VERIFIED_IDS = ("small0-trivial", "small4-y,xyx", "orbifold-28-xy", "coxeter-s6",
                "15E-17", "19-7")


def _with_columns(table, columns, **changes):
    return type(table)(
        generator_names=table.generator_names,
        n_cosets=changes.get("n_cosets", table.n_cosets),
        columns=tuple(tuple(column) for column in columns),
        subgroup_generators=changes.get("subgroup_generators", table.subgroup_generators),
    )


def _with_rows(table, rows, **changes):
    """table with its rows replaced, through rows_to_columns."""
    changes.setdefault("n_cosets", len(rows))
    return _with_columns(table, rows_to_columns(rows, len(table.columns)), **changes)


def assert_both_reject(table, pres):
    with pytest.raises(AssertionError):
        reference_verify(table, pres)
    with pytest.raises(AssertionError):
        verify_coset_table(table, pres)


def test_both_verifiers_accept_every_valid_table():
    cases = verified_cases()
    assert len(cases) == 3 * len(SMALL_FINITE) + 9
    for pres, table in cases.values():
        reference_verify(table, pres)
        verify_coset_table(table, pres)
    assert cases["coxeter-s6"][1].n_cosets == 720


@pytest.mark.parametrize("case_id", VERIFIED_IDS)
def test_both_verifiers_reject_one_changed_entry(case_id):
    pres, table = verified_cases()[case_id]
    rows = [list(r) for r in table_rows(table)]
    last = table.n_cosets - 1
    rows[last][1] = (rows[last][1] + 1) % table.n_cosets
    assert_both_reject(_with_rows(table, rows), pres)


@pytest.mark.parametrize("case_id", VERIFIED_IDS)
def test_both_verifiers_reject_a_broken_inverse_pair(case_id):
    # Swapping two entries of a column keeps it a permutation, but the
    # inverse column no longer undoes it.
    pres, table = verified_cases()[case_id]
    rows = [list(r) for r in table_rows(table)]
    col = 2 * (pres.n_generators - 1)
    c = next(c for c in range(1, table.n_cosets) if rows[c][col] != rows[0][col])
    rows[0][col], rows[c][col] = rows[c][col], rows[0][col]
    assert_both_reject(_with_rows(table, rows), pres)


@pytest.mark.parametrize("case_id", VERIFIED_IDS)
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("bad", ["-1", "n"])
def test_both_verifiers_reject_an_entry_out_of_range(case_id, where, bad):
    pres, table = verified_cases()[case_id]
    rows = [list(r) for r in table_rows(table)]
    c, col = (0, 0) if where == "first" else (table.n_cosets - 1, 2 * pres.n_generators - 1)
    rows[c][col] = -1 if bad == "-1" else table.n_cosets
    broken = _with_rows(table, rows)
    assert_both_reject(broken, pres)
    with pytest.raises(AssertionError, match=rf"entry \({c},{col}\) out of range"):
        verify_coset_table(broken, pres)


@pytest.mark.parametrize("case_id", VERIFIED_IDS)
@pytest.mark.parametrize("delta", [-1, 1])
def test_both_verifiers_reject_a_row_of_the_wrong_width(case_id, delta):
    # Row 0, because the reference checks rows in order and follows each
    # entry into a later row: a later short row makes it raise IndexError.
    pres, table = verified_cases()[case_id]
    rows = [list(r) for r in table_rows(table)]
    rows[0] = rows[0][:-1] if delta < 0 else rows[0] + [0]
    ncols = len(table.columns)
    message = rf"row 0 has {ncols + delta} columns, wanted {ncols}"
    with pytest.raises(AssertionError, match=message):
        reference_verify(table, pres, rows)
    # A table is its columns, so such rows cannot become one: the rows to
    # columns step rejects them as verify_coset_table rejected them.
    with pytest.raises(AssertionError, match=message):
        _with_rows(table, rows)
    # The same fault in columns: the last column lacks row 0's entry, or
    # one more column holds only the extra entry.
    columns = [list(column) for column in table.columns]
    if delta < 0:
        del columns[-1][0]
        message = rf"column {ncols - 1} has {table.n_cosets - 1} rows, n_cosets is {table.n_cosets}"
    else:
        columns.append([0])
        message = rf"table has {ncols + 1} columns, wanted {ncols}"
    with pytest.raises(AssertionError, match=message):
        verify_coset_table(_with_columns(table, columns), pres)


@pytest.mark.parametrize("case_id", VERIFIED_IDS)
def test_verify_rejects_shapes_the_reference_crashes_on(case_id):
    # Each of these escapes the letter-by-letter check as IndexError.
    pres, table = verified_cases()[case_id]
    rows = [list(r) for r in table_rows(table)]
    n = table.n_cosets
    with pytest.raises(AssertionError, match=rf"table has {n} rows, n_cosets is {n + 1}"):
        verify_coset_table(_with_rows(table, rows, n_cosets=n + 1), pres)
    with pytest.raises(AssertionError, match=rf"table has {n - 1} rows, n_cosets is {n}"):
        verify_coset_table(_with_rows(table, rows[:-1], n_cosets=n), pres)
    rows[-1] = rows[-1][:-1]
    with pytest.raises(AssertionError, match=rf"row {n - 1} has"):
        verify_coset_table(_with_rows(table, rows), pres)
    # Wrong column shapes: a column too few, and one column a row short
    # while the others are n_cosets long.
    columns = list(table.columns)
    ncols = len(columns)
    with pytest.raises(AssertionError, match=rf"table has {ncols - 1} columns, wanted {ncols}"):
        verify_coset_table(_with_columns(table, columns[:-1]), pres)
    columns[1] = columns[1][:-1]
    with pytest.raises(AssertionError, match=rf"column 1 has {n - 1} rows, n_cosets is {n}"):
        verify_coset_table(_with_columns(table, columns), pres)


# Each budget is a few times the raw peak: 2n rows for 15E, 74 and 244
# for 19 at n=7 and 12.
@pytest.mark.parametrize("family,n,power,max_cosets", [
    (family_15e, 6, 5, 50), (family_15e, 6, 3, 50), (family_15e, 6, 4, 50),
    (family_15e, 64, 63, 500), (family_19, 12, 8, 1000), (family_19, 7, 1, 300),
], ids=["family_15e-6-5", "family_15e-6-3", "family_15e-6-4", "family_15e-64-63",
        "family_19-12-8", "family_19-7-1"])
def test_both_verifiers_reject_a_power_the_cycles_do_not_divide(family, n, power, max_cosets):
    # y's permutation on the 15E/19 table has cycles of length n, so
    # y^power acts trivially only when n divides power.
    pres = family(n)
    table = enumerate_cosets(pres, limits=EnumerationLimits(max_cosets))
    relators = list(pres.relators)
    relators[1] = Word.generator(1) ** power
    wrong = Presentation(pres.generator_names, tuple(relators))
    assert_both_reject(table, wrong)
    with pytest.raises(AssertionError, match=r"relator y(\^\d+)? does not close at coset 0"):
        verify_coset_table(table, wrong)
    relators[1] = Word.generator(1) ** (2 * n)
    verify_coset_table(table, Presentation(pres.generator_names, tuple(relators)))


@pytest.mark.parametrize("case_id,extra,coset", [
    # A relator that holds on part of a table: it fixes cosets 0-2 of
    # Coxeter S5 over <b, a*b*a>, and coset 0 of the orbifold over <x*y>.
    ("small4-y,xyx", "a", 3),
    ("orbifold-28-xy", "x*y", 1),
    ("small3-x", "a", 1),
])
def test_verify_names_the_first_open_coset(case_id, extra, coset):
    pres, table = verified_cases()[case_id]
    extra = parse_word(extra, pres.generator_names)
    wrong = Presentation(pres.generator_names, pres.relators + (extra,))
    with pytest.raises(AssertionError, match=f"at coset {coset}$"):
        reference_verify(table, wrong)
    with pytest.raises(AssertionError) as exc:
        verify_coset_table(table, wrong)
    assert str(exc.value) == (f"relator {format_word(extra, pres.generator_names)} "
                              f"does not close at coset {coset}")


@pytest.mark.parametrize("case_id", ["small0-x", "small4-y,xyx", "orbifold-28-xy"])
def test_both_verifiers_reject_a_subgroup_word_that_moves_coset_0(case_id):
    pres, table = verified_cases()[case_id]
    mover = next(Word.generator(i) for i in range(pres.n_generators)
                 if table.columns[2 * i][0] != 0)
    wrong = _with_rows(table, table_rows(table),
                       subgroup_generators=table.subgroup_generators + (mover,))
    assert_both_reject(wrong, pres)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_both_verifiers_reject_one_random_corrupted_entry(data):
    cases = verified_cases()
    pres, table = cases[data.draw(st.sampled_from(sorted(cases)))]
    n = table.n_cosets
    c = data.draw(st.integers(0, n - 1))
    col = data.draw(st.integers(0, 2 * pres.n_generators - 1))
    old = table.columns[col][c]
    new = data.draw(st.integers(-1, n).filter(lambda d: d != old))
    rows = [list(r) for r in table_rows(table)]
    rows[c][col] = new
    assert_both_reject(_with_rows(table, rows), pres)


def test_conjugate_subgroup_same_index(orbifold_28):
    names = orbifold_28.generator_names
    base = (parse_word("x*y*x^-1", names), parse_word("x*y", names))
    index = enumerate_cosets(orbifold_28, subgroup=base).n_cosets
    rng = random.Random(20260816)
    alphabet = [1, -1, 2, -2, 3, -3]
    for _ in range(10):
        c = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
        moved = tuple(conjugate(w, c) for w in base)
        assert enumerate_cosets(orbifold_28, subgroup=moved).n_cosets == index


def test_table_to_tsv():
    pres = load_presentation(D7)
    table = enumerate_cosets(pres, subgroup=(Word((1,)),))
    text = table_to_tsv(table)
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["coset", "x", "x^-1", "y", "y^-1"]
    assert len(lines) == 1 + table.n_cosets
    row = lines[1].split("\t")
    assert row[0] == "0"
    assert all(cell.isdigit() for cell in row[1:])


@pytest.mark.parametrize("relators,max_cosets,order", [
    # The lookahead shrinks 30 rows to 7 live cosets while HLT is at
    # coset 9, an index past the end of the compacted table.
    ("x^6 y^7 x^-1", 30, 7),
    # The lookahead merges away the coset HLT is working on.
    ("y^-1*x*y*x^-5 x^25 y^-15", 147, 15),
])
def test_make_room_resumes_after_collapse(relators, max_cosets, order):
    pres = load_presentation(f"generators: x y\nrelators: {relators}\n")
    tight = enumerate_cosets(pres, limits=EnumerationLimits(max_cosets=max_cosets))
    assert tight.columns == enumerate_cosets(pres).columns
    assert tight.n_cosets == order


def _cyclically_reduced(letters):
    w = Word(tuple(letters)).letters
    return bool(w) and (len(w) == 1 or w[0] != -w[-1])


@st.composite
def power_presentations(draw, min_letters, max_letters):
    """Powers w^k (k >= 2, min_letters..max_letters letters, roots of 1-3
    letters) next to short relators that often make the group finite:
    small powers, dihedral and metacyclic relations, or random words."""
    n_gens = draw(st.integers(1, 3))
    letters = st.sampled_from([s * i for i in range(1, n_gens + 1) for s in (1, -1)])
    gens = [Word.generator(i) for i in range(n_gens)]

    def short_word(max_size):
        return Word(tuple(draw(st.lists(letters, min_size=1, max_size=max_size))))

    relators = []
    for _ in range(draw(st.integers(1, 2))):
        root = Word(tuple(draw(st.lists(letters, min_size=1, max_size=3)
                               .filter(_cyclically_reduced))))
        k = draw(st.integers(max(2, -(-min_letters // len(root))),
                             max_letters // len(root)))
        relators.append(root ** k)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            relators.append(a ** draw(st.integers(2, 4)))
        elif kind == 1:
            relators.append((a * b) ** 2)
        elif kind == 2:
            relators.append(~b * a * b * a ** -draw(st.integers(-3, 4)))
        else:
            relators.append(short_word(6))
    relators = [r for r in relators if r]
    draw(st.randoms()).shuffle(relators)
    subgroup = tuple(short_word(4) for _ in range(draw(st.integers(0, 2))))
    return Presentation(tuple("xyz"[:n_gens]), tuple(relators)), subgroup


def long_power_presentations():
    """Powers of 16 to 60 letters, whose scans are long."""
    return power_presentations(16, 60)


def short_power_presentations():
    """Powers of 2 to 15 letters, such as the (x*y)^7, x^5 and (x*z)^3 of
    the triangle and orbifold groups."""
    return power_presentations(2, 15)


@st.composite
def involution_presentations(draw):
    """One to three generators, one or more of them with a relator g^2 or
    g^-2, next to relators that often make the group finite (Coxeter-like
    (a*b)^m, small powers), relators that read again backward once a and
    b share their lists (a*b*a*b^-1 and the commutator a*b*a^-1*b^-1), or
    random words, and sometimes subgroup words."""
    n_gens = draw(st.integers(1, 3))
    gens = [Word.generator(i) for i in range(n_gens)]
    letters = st.sampled_from([s * i for i in range(1, n_gens + 1) for s in (1, -1)])
    words = st.lists(letters, min_size=1, max_size=6).map(lambda ls: Word(tuple(ls)))
    involutions = draw(st.lists(st.sampled_from(gens), min_size=1, unique=True))
    relators = [g ** draw(st.sampled_from((2, -2))) for g in involutions]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        kind = draw(st.integers(0, 4))
        if kind == 0:
            relators.append((a * b) ** draw(st.integers(2, 8)))
        elif kind == 1:
            relators.append(a ** draw(st.integers(2, 6)))
        elif kind == 2:
            relators.append((a * b * a * ~b) ** draw(st.integers(1, 3)))
        elif kind == 3:
            relators.append(a * b * ~a * ~b)
        else:
            relators.append(draw(words))
    relators = [r for r in relators if r]
    draw(st.randoms()).shuffle(relators)
    subgroup = tuple(draw(st.lists(words, max_size=2)))
    return Presentation(tuple("xyz"[:n_gens]), tuple(relators)), subgroup


def marked_state(enum):
    """full_state without the closed marks, which the mark walk adds to:
    the LimitExceeded message, raw table, union-find and first dead
    label."""
    message, table, p, _, first_dead = full_state(enum)
    return message, table, p, first_dead


def _assert_skip_changes_nothing(pres, subgroup, limits):
    # With no mark walk, HLT marks no coset where a relator's loop reads
    # it again, and scans every relator at every coset the lookahead has
    # not marked.  Skipping the marked scans must leave every definition,
    # deduction and merge, and so the point where a budget runs out and
    # its message, as they were.
    hlt = marked_state(_Enumerator(pres, subgroup, limits))
    with mock.patch.object(coset, "_mark_walk", lambda cols, table: None):
        unmarked = RecordingHLT(pres, subgroup, limits)
        assert marked_state(unmarked) == hlt
    if hlt[0] is None and not unmarked.returns:
        # With no lookahead, nothing else marks: the patch took hold.
        assert not any(unmarked.closed)
    return hlt, unmarked


# The reference never compacts, so its raw table can outgrow a cap that
# HLT fits under by compacting.  With 20_000 rows, far above HLT's caps,
# it finished every one of 2000 generated examples that a compacting
# Felsch finished under HLT's cap.
REFERENCE_LIMITS = EnumerationLimits(max_cosets=20_000)


@settings(max_examples=180, deadline=None)
@given(st.one_of(long_power_presentations(), short_power_presentations(),
                 involution_presentations()),
       st.integers(10, 400))
def test_long_power_skip_changes_nothing(case, max_cosets):
    pres, subgroup = case
    limits = EnumerationLimits(max_cosets=max_cosets)
    (message, table, p, _), _ = _assert_skip_changes_nothing(pres, subgroup, limits)
    if message is not None:
        return
    try:
        felsch = felsch_columns(pres, subgroup, REFERENCE_LIMITS)
    except LimitExceeded:
        return
    assert coset._standardize(table, p) == felsch


@pytest.mark.parametrize("pres,max_cosets,overflows", [
    pytest.param(triangle_23k(7), 2000, True, id="237-cap-2000"),
    pytest.param(triangle_23k(7), 100_000, True, id="237-cap-100000"),
    pytest.param(COXETER_S7, 10_000, False, id="coxeter-s7"),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), 121, False, id="orbifold-28-cap-121"),
    pytest.param(load_presentation(D7), 100, False, id="dihedral-7"),
])
def test_short_power_skip_changes_nothing_on_named_cases(pres, max_cosets, overflows):
    assert all(len(cols) < 16 for cols in pres.relator_columns)
    (message, *_), unmarked = _assert_skip_changes_nothing(pres, (), EnumerationLimits(max_cosets))
    assert (message is not None) == overflows
    # Each completing case runs no lookahead, so its marks-off run ends
    # with every mask 0.
    assert overflows or not unmarked.returns


XYXY = load_presentation("generators: x y\nrelators: x^2 y^4 (x*y*x*y^-1)^2 (x*y)^4\n")


@pytest.mark.parametrize("pres,subgroup,max_cosets,ending", [
    pytest.param(COXETER_S7, (), 10_000, "completes", id="coxeter-s7"),
    pytest.param(COXETER_S7, (Word((1,)),), 10_000, "completes", id="coxeter-s7-a"),
    pytest.param(SMALL_FINITE[4], (), 125, "completes after a lookahead",
                 id="coxeter-s5-cap-125"),
    pytest.param(SMALL_FINITE[4], (), 120, "overflows", id="coxeter-s5-cap-120"),
    pytest.param(family_15e(2000), (), 10_000, "completes", id="15E-2000"),
    pytest.param(family_15e(40), (), 60, "overflows", id="15E-40-cap-60"),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (), 121, "completes", id="orbifold-28"),
    # Hops of one letter and of three alternate round (x*y*x*y^-1)^2.
    pytest.param(XYXY, (), 1000, "completes", id="xyxy"),
    pytest.param(XYXY, (), 33, "completes after a lookahead", id="xyxy-cap-33"),
    pytest.param(XYXY, (), 10, "overflows", id="xyxy-cap-10"),
])
def test_loop_marks_change_nothing_on_named_cases(pres, subgroup, max_cosets, ending):
    limits = EnumerationLimits(max_cosets)
    (message, *_), unmarked = _assert_skip_changes_nothing(pres, subgroup, limits)
    assert ending == ("overflows" if message else
                      "completes after a lookahead" if unmarked.returns else "completes")
    # The marks are those of the reference HLT, which finds its positions
    # with the brute-force oracle.
    assert full_state(_Enumerator(pres, subgroup, limits)) == \
        full_state(ReferenceHLT(pres, subgroup, limits))


def test_coxeter_s7_hlt_marks_where_every_loop_reads_again():
    # 15 relators are scanned (the six a^2 are not) at 5040 cosets: 75 600
    # pairs.  Marking only the forward repeats of each power marks 42 000
    # of them; the (a*b)^3 and (a*c)^2 of two involutions read again
    # backward from every odd position of their loops too.
    enum = _Enumerator(COXETER_S7, (), EnumerationLimits(10_000))
    enum.run()
    assert len(enum.relator_cols) == 15
    marked = sum(enum.closed[c].bit_count() for c, parent in enumerate(enum.p) if parent == c)
    assert marked >= 58_800


def walk_positions(cols, table):
    """The positions of cols's loop at which _mark_walk marks, or None when
    it builds no walk; checks that its hops read the loop's own lists."""
    walk = coset._mark_walk(cols, table)
    if walk is None:
        return None
    positions = list(accumulate(map(len, walk)))
    assert [id(column) for hop in walk for column in hop] == \
        [id(table[col]) for col in cols[:positions[-1]]]
    return positions


@pytest.mark.parametrize("text,relator,positions", [
    ("generators: a b\nrelators: a^2 b^2 (a*b)^3\n", "(a*b)^3", [1, 2, 3, 4, 5]),
    ("generators: x y\nrelators: x^2 y^3 (x*y)^7\n", "(x*y)^7", list(range(2, 14, 2))),
    ("generators: x y\nrelators: x^2 y^5 x*y*x^-1*y^-1\n", "x*y*x^-1*y^-1", [1]),
    ("generators: x y\nrelators: x^5 y^5 x*y*x^-1*y^-1\n", "x*y*x^-1*y^-1", None),
    ("generators: x y\nrelators: x^2 y^5 x*y*x^-1*y^-1\n", "y^5", [1, 2, 3, 4]),
    (ORBIFOLD_28_TEXT, "(y*z^-1)^2", [1, 2, 3]),
    ("generators: x y\nrelators: x^2 y^4 (x*y*x*y^-1)^2\n", "(x*y*x*y^-1)^2", [1, 4, 5]),
], ids=["coxeter-ab3", "237-xy7", "15E-commutator", "19-commutator", "15E-y5",
        "orbifold-28-yz", "xyxy-squared"])
def test_the_mark_walk_marks_where_the_loop_reads_again(text, relator, positions):
    pres = load_presentation(text)
    enum = _Enumerator(pres, (), EnumerationLimits())
    cols = letter_columns(parse_word(relator, pres.generator_names))
    assert cols in enum.relator_cols
    assert walk_positions(cols, enum.table) == positions
    assert mark_positions(cols, shared_generators(enum)) == (positions or [])


@st.composite
def loops(draw):
    """(cols, involutions): a relator's columns over 1-3 generators, some
    of them involutions: a random word, a power, a word followed by its
    reverse or its inverse, or a commutator of two words, often raised to
    a power."""
    n_gens = draw(st.integers(1, 3))
    involutions = set(draw(st.lists(st.integers(0, n_gens - 1), unique=True)))
    word = st.lists(st.integers(0, 2 * n_gens - 1), min_size=1, max_size=5).map(tuple)
    u, v = draw(word), draw(word)

    def inverse(w):
        return tuple(col ^ 1 for col in reversed(w))

    cols = draw(st.sampled_from([u, u + u[::-1], u + inverse(u), u + v + inverse(u) + inverse(v)]))
    return cols * draw(st.integers(1, 4)), involutions


@settings(max_examples=500, deadline=None)
@given(loops())
def test_the_mark_walk_matches_the_brute_force_positions(case):
    cols, involutions = case
    table = []
    for col in range(2 * (max(cols) // 2 + 1)):
        table.append(table[-1] if col & 1 and col >> 1 in involutions else [])
    assert (walk_positions(cols, table) or []) == mark_positions(cols, involutions)


class CountingPowerScans(ReferenceHLT):
    """ReferenceHLT that records the cosets at which it scans one relator."""

    def __init__(self, relator, *args):
        super().__init__(*args)
        self.relator = relator
        self.scans = []

    def _fill_scan(self, alpha, cols, fill=True):
        if cols == self.relator:
            self.scans.append(alpha)
        return super()._fill_scan(alpha, cols, fill)


def test_long_power_is_scanned_once_per_orbit():
    # <x, y | x^2, y^200, [x, y]> has 400 cosets in two y-orbits: the
    # y^200 scans at cosets 0 and 0*x close every other coset.  HLT's
    # scan is written out in run, so its scans of y^200 are counted on
    # the reference HLT, which must leave the same state.
    pres = family_15e(200)
    power = pres.relator_columns[1]
    assert len(power) == 200
    limits = EnumerationLimits(10_000)
    reference = CountingPowerScans(power, pres, (), limits)
    assert full_state(reference) == full_state(_Enumerator(pres, (), limits))
    assert 1 <= len(reference.scans) <= 2
    assert group_order(pres, limits) == 400


def test_tight_cap_with_long_power_marks(monkeypatch):
    # 6 cosets, but HLT's raw table peaks at 613 rows: a cap of 157
    # compacts while many cosets are marked and work remains.
    pres = load_presentation("generators: x y\nrelators: x^22 y^6 y^-1*x*y*x^-2\n")
    base = enumerate_cosets(pres)
    marks_at_compaction = []
    original = _Enumerator._make_room

    def recording_make_room(self, alpha):
        marks_at_compaction.append(sum(1 for bits in self.closed if bits))
        return original(self, alpha)

    monkeypatch.setattr(_Enumerator, "_make_room", recording_make_room)
    tight = EnumerationLimits(max_cosets=157)
    assert enumerate_cosets(pres, limits=tight).columns == base.columns
    assert marks_at_compaction and marks_at_compaction[0] > 0
    _assert_skip_changes_nothing(pres, (), tight)


# -- the incremental overflow path against the full rescan ---------------


class ReferenceScan:
    """Mixin: the lookahead's scan as a method, as the enumerator had it
    before _make_room wrote it out."""

    def _scan(self, alpha, fwd, back):
        """Scan a relator loop at alpha, given its columns forward and
        backward, without defining a coset: stop at a gap of two or more,
        but apply the forced deduction and coincidences.  Returns whether
        the loop got all the way round; False only at a gap."""
        f = b = alpha
        i, j = 0, len(fwd) - 1
        while i <= j:
            nxt = fwd[i][f]
            if nxt is None:
                break
            f = nxt
            i += 1
        if i > j:
            if f != b:
                self._coincidence(f, b)
            return True
        while j >= i:
            prv = back[j][b]
            if prv is None:
                break
            b = prv
            j -= 1
        if j < i:
            self._coincidence(f, b)
            return True
        if j == i:
            fwd[i][f], back[i][b] = b, f
            return True
        return False


class ReferenceLookahead(ReferenceScan, _Enumerator):
    """The overflow path as a full rescan: the lookahead scans every
    relator at every live coset from coset 0 and records no marks, and
    compaction builds each column afresh, renumbering every entry through
    a dict and find(), and copies it into the enumerator's list.  HLT
    itself, and its power marks, are the enumerator's."""

    def _make_room(self, alpha):
        for c in range(len(self.p)):
            if self.p[c] != c:
                continue
            for cols in self.relator_cols:
                self._scan(c, *self._bind(cols))
                if self.p[c] != c:
                    break
        live = [c for c in range(len(self.p)) if self.p[c] == c]
        if len(live) >= self.limits.max_cosets:
            raise LimitExceeded(f"coset budget {self.limits.max_cosets} exhausted")
        renum = {old: new for new, old in enumerate(live)}
        for column in distinct_lists(self.table):
            column[:] = [None if column[old] is None else renum[find(self.p, column[old])]
                         for old in live]
        self.closed[:] = [self.closed[c] if c >= alpha else 0 for c in live]
        self.p[:] = range(len(live))
        return bisect_left(live, alpha)


def raw_state(enum):
    """The raw table and union-find after enum runs, or the LimitExceeded
    message when it fired."""
    try:
        return enum.run(), enum.p
    except LimitExceeded as exc:
        return str(exc)


def full_state(enum):
    """Everything the enumerator writes, after enum runs: the
    LimitExceeded message (None when the run completes), the raw table,
    union-find, closed marks and first dead label."""
    try:
        enum.run()
        message = None
    except LimitExceeded as exc:
        message = str(exc)
    return message, enum.table, enum.p, enum.closed, enum.first_dead


@st.composite
def triangle_groups(draw):
    return triangle_23k(draw(st.integers(2, 9))), ()


@st.composite
def short_relator_presentations(draw):
    """Random relators of 1-8 letters, and sometimes subgroup words."""
    n_gens = draw(st.integers(1, 3))
    letters = st.sampled_from([s * i for i in range(1, n_gens + 1) for s in (1, -1)])
    words = st.lists(letters, min_size=1, max_size=8).map(lambda ls: Word(tuple(ls)))
    relators = [r for r in draw(st.lists(words, min_size=1, max_size=4)) if r]
    subgroup = tuple(draw(st.lists(words, max_size=2)))
    return Presentation(tuple("xyz"[:n_gens]), tuple(relators)), subgroup


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_incremental_lookahead_matches_the_full_rescan(case, max_cosets):
    pres, subgroup = case
    limits = EnumerationLimits(max_cosets)
    assert raw_state(_Enumerator(pres, subgroup, limits)) == \
        raw_state(ReferenceLookahead(pres, subgroup, limits))


class ReferenceScanLookahead(ReferenceScan, _Enumerator):
    """The incremental lookahead with one _scan call per (coset, relator)
    pair and the marks read afresh before each: _make_room as it was
    before its scan was written out on local names.  Compaction is the
    enumerator's."""

    def _make_room(self, alpha):
        p, closed = self.p, self.closed
        relators = [(1 << i, *self._bind(cols)) for i, cols in enumerate(self.relator_cols)]
        for c, label in enumerate(coset._tail(p, alpha), alpha):
            if label != c:
                continue
            c = label
            for bit, fwd, back in relators:
                if closed[c] & bit:
                    continue
                closes = self._scan(c, fwd, back)
                if p[c] != c:
                    break
                if closes:
                    closed[c] |= bit
        return self._compact(alpha)


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_inline_lookahead_matches_the_scan_calls(case, max_cosets):
    pres, subgroup = case
    limits = EnumerationLimits(max_cosets)
    assert full_state(_Enumerator(pres, subgroup, limits)) == \
        full_state(ReferenceScanLookahead(pres, subgroup, limits))


class CountingClosingScans(ReferenceScanLookahead):
    """ReferenceScanLookahead that counts its lookahead scans by relator
    length: all of them, and those that get all the way round."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scans = collections.Counter()
        self.closing = collections.Counter()

    def _scan(self, alpha, fwd, back):
        closes = super()._scan(alpha, fwd, back)
        self.scans[len(fwd)] += 1
        self.closing[len(fwd)] += closes
        return closes


def test_the_lookahead_rescans_no_power_that_hlt_closed():
    # (2,3,7) under 10^5 cosets, with x's one list, gives up after one
    # lookahead pass.  HLT marks (x*y)^7's orbit at every coset where it
    # closes the relator, so the pass scans (x*y)^7 only where it is still
    # open: no such scan gets all the way round.  While only powers of 16
    # letters or more were marked, 37 603 of its 61 828 scans did.
    pres = triangle_23k(7)
    limits = EnumerationLimits(100_000)
    reference = CountingClosingScans(pres, (), limits)
    assert full_state(reference) == full_state(_Enumerator(pres, (), limits))
    assert reference.scans[14] > 0
    assert reference.closing[14] == 0


class CountingLookahead:
    """Mixin that counts lookahead scans (every _scan call) per
    _make_room pass, and those at a coset below HLT's pointer, and
    checks the marks that compaction leaves.  The enumerator's scan is
    written out, so the incremental lookahead is counted on
    ReferenceScanLookahead, which the named-case test below proves equal
    to it on LOOKAHEAD_CASES."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pointer = 0
        self.passes = []
        self.below_pointer = 0

    def _make_room(self, alpha):
        self.pointer = alpha
        self.passes.append(0)
        start = super()._make_room(alpha)
        assert all(len(column) == len(self.p) for column in self.table)
        assert len(self.closed) == len(self.p)
        assert not any(self.closed[:start]), "marks kept below the pointer"
        return start

    def _scan(self, alpha, fwd, back):
        self.passes[-1] += 1
        self.below_pointer += alpha < self.pointer
        return super()._scan(alpha, fwd, back)


class CountingReference(CountingLookahead, ReferenceLookahead):
    pass


class CountingIncremental(CountingLookahead, ReferenceScanLookahead):
    pass


LOOKAHEAD_CASES = [
    pytest.param(triangle_23k(7), 2000, id="237-cap-2000", marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(5), 40, id="235-cap-40", marks=SEPARATE_COLUMNS),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), 121, id="orbifold-28-cap-121",
                 marks=SEPARATE_COLUMNS),
    # 197 compactions under this cap, and 858 under a cap of 3000.
    pytest.param(load_presentation("generators: x y z\nrelators: y*x^-1*z^-2 x^-40 "
                                   "y*z*y*z^-3*y^-1 x^-25\n"), 300, id="xyz-cap-300"),
]


@pytest.mark.parametrize("pres,max_cosets", [
    *LOOKAHEAD_CASES,
    # In these a lookahead scan kills the coset it started from, closing
    # forward in the first and backward in the second, so scanning on from
    # that coset, instead of moving to the next, changes the state.
    pytest.param(load_presentation("generators: x y z\nrelators: z^4 x^-1*y*x*y^2 "
                                   "(x*z)^8 x^-1*y^-1*z^-1\n"), 27, id="xyz-cap-27"),
    pytest.param(load_presentation("generators: x y z\nrelators: y^-1*x^2*z*y^-1 x*y\n"),
                 23, id="xyz-cap-23"),
])
def test_inline_lookahead_matches_the_scan_calls_on_named_cases(layout, pres, max_cosets):
    limits = EnumerationLimits(max_cosets)
    assert full_state(_Enumerator(pres, (), limits)) == \
        full_state(ReferenceScanLookahead(pres, (), limits))


@pytest.mark.parametrize("pres,max_cosets", LOOKAHEAD_CASES)
def test_lookahead_starts_at_the_pointer_and_skips_closed_pairs(layout, pres, max_cosets):
    limits = EnumerationLimits(max_cosets)
    reference = CountingReference(pres, (), limits)
    incremental = CountingIncremental(pres, (), limits)
    assert raw_state(incremental) == raw_state(reference)
    assert incremental.passes and len(incremental.passes) == len(reference.passes)
    assert incremental.below_pointer == 0
    assert reference.below_pointer > 0
    assert sum(incremental.passes) < sum(reference.passes)


# -- lookahead passes on inputs that run many of them --------------------


XYZ = load_presentation("generators: x y z\nrelators: y*x^-1*z^-2 x^-40 "
                        "y*z*y*z^-3*y^-1 x^-25\n")

# Budgets under which the lookahead runs several passes, compacting
# between them: (2,3,7) with separate columns at 2000, 20 000 and 100 000
# cosets (4, 5 and 6 passes), (2,3,8) and (2,3,9) likewise at 10 000 (5
# and 4), and xyz at 300 and 3000 cosets (198 and 859).
MANY_PASS_CASES = [
    pytest.param(triangle_23k(7), 2000, id="237-cap-2000", marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(7), 20_000, id="237-cap-20000", marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(7), 100_000, id="237-cap-100000", marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(8), 10_000, id="238-cap-10000", marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(9), 10_000, id="239-cap-10000", marks=SEPARATE_COLUMNS),
    pytest.param(XYZ, 300, id="xyz-cap-300"),
    pytest.param(XYZ, 3000, id="xyz-cap-3000"),
]


# The lookahead as _make_room writes it out against ReferenceScanLookahead,
# one _scan call per (coset, relator) pair, over every pass of each run.
@pytest.mark.parametrize("pres,max_cosets", MANY_PASS_CASES)
def test_skipping_passes_match_the_full_passes_on_named_cases(layout, pres, max_cosets):
    limits = EnumerationLimits(max_cosets)
    assert full_state(_Enumerator(pres, (), limits)) == \
        full_state(ReferenceScanLookahead(pres, (), limits))


@st.composite
def triangle_presentations(draw):
    """<x, y | x^l, y^m, (x*y)^n>: finite or infinite, with budgets that
    run many passes on the infinite ones."""
    l, m, n = draw(st.integers(2, 4)), draw(st.integers(3, 5)), draw(st.integers(3, 12))
    return load_presentation(f"generators: x y\nrelators: x^{l} y^{m} (x*y)^{n}\n")


@settings(max_examples=40, deadline=None)
@given(triangle_presentations(), st.integers(1000, 5000))
def test_skipping_passes_match_the_full_passes_on_triangle_groups(pres, max_cosets):
    limits = EnumerationLimits(max_cosets)
    assert full_state(_Enumerator(pres, (), limits)) == \
        full_state(ReferenceScanLookahead(pres, (), limits))


def test_renumber_maps_every_label_to_its_representative():
    # Parents are smaller labels, and chains can be longer than one step
    # where path compression has not reached them.
    live, renum = renumber([0, 0, 1, 3, 3, 4, 2, 7])
    assert live == [0, 3, 7]
    assert renum == [0, 0, 0, 1, 1, 1, 0, 2]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1), max_size=60))
def test_renumber_matches_find(draws):
    # A random union-find forest in which every parent is a smaller label.
    p = [c if u < 0.4 else int(u * c) for c, u in enumerate(draws)]

    def find(c):
        while p[c] != c:
            c = p[c]
        return c

    live, renum = renumber(p)
    assert live == [c for c in range(len(p)) if p[c] == c]
    assert renum == [live.index(find(c)) for c in range(len(p))]


@pytest.mark.parametrize("p,start,live,renum", [
    ([0, 1, 2, 1, 4, 3, 6], 3, [4, 6], [0, 1, 2, 1, 3, 1, 4]),
    ([0, 1, 2], 3, [], [0, 1, 2]),
])
def test_renumber_from_start_leaves_the_labels_below_it(p, start, live, renum):
    assert renumber(p, start) == (live, renum)
    assert renumber(p)[1] == renum


# -- in-place compaction ---------------------------------------------------


class RecordsMakeRoom:
    """Mixin that records what each _make_room call returns."""

    def __init__(self, *args):
        super().__init__(*args)
        self.returns = []

    def _make_room(self, alpha):
        start = super()._make_room(alpha)
        self.returns.append(start)
        return start


class CheckedCompaction(RecordsMakeRoom, _Enumerator):
    """Checks, before each compaction, the invariants that let it leave
    the rows below the first dead label alone (coset module docstring),
    and records HLT's pointer and the first dead label (None when no
    coset died) at each one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.compactions = []

    def _compact(self, alpha):
        table, p = self.table, self.p
        dead = [c for c in range(len(p)) if p[c] != c]
        first = dead[0] if dead else None
        assert self.first_dead == (self.limits.max_cosets if first is None else first)
        assert all(p[c] == c for c in range(min(self.first_dead, len(p))))
        for col, column in enumerate(table):
            for c, e in enumerate(column):
                if e is None or p[c] != c:
                    continue
                assert p[e] == e, f"live row {c} points at dead coset {e}"
                assert table[col ^ 1][e] == c, f"entry ({c},{col}) is not inverse-paired"
        self.compactions.append((alpha, first))
        return super()._compact(alpha)


class RecordingReference(RecordsMakeRoom, ReferenceLookahead):
    pass


def assert_compaction_matches_the_reference(pres, subgroup, limits):
    checked = CheckedCompaction(pres, subgroup, limits)
    reference = RecordingReference(pres, subgroup, limits)
    assert raw_state(checked) == raw_state(reference)
    assert checked.returns == reference.returns
    return checked


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_in_place_compaction_keeps_its_invariants(case, max_cosets):
    pres, subgroup = case
    assert_compaction_matches_the_reference(pres, subgroup, EnumerationLimits(max_cosets))


# Each case must compact at least once along its path, given HLT's pointer
# alpha and the first dead label (None when none died).
COMPACTION_PATHS = {
    "below-the-pointer": lambda alpha, first: first is not None and first < alpha,
    "above-the-pointer": lambda alpha, first: first is not None and first > alpha,
    "no-death": lambda alpha, first: first is None,
    "subgroup-scan": lambda alpha, first: alpha == 0 and first is not None,
}


@pytest.mark.parametrize("pres,subgroup,max_cosets,path", [
    # The first pass of (2,3,7) under 2000 kills coset 37 with HLT at 729;
    # the later passes kill only cosets above the pointer.
    pytest.param(triangle_23k(7), (), 2000, "below-the-pointer", id="237-first-pass",
                 marks=SEPARATE_COLUMNS),
    pytest.param(triangle_23k(7), (), 2000, "above-the-pointer", id="237-later-passes",
                 marks=SEPARATE_COLUMNS),
    # x^2 never forces a coincidence: the budget fills with live cosets.
    pytest.param(load_presentation("generators: x y\nrelators: x^2\n"), (), 200,
                 "no-death", id="no-coincidence"),
    # Scanning x^40 at coset 0 needs more than 12 cosets before HLT starts.
    pytest.param(load_presentation("generators: x y\nrelators: x^5 y^2 (x*y)^2\n"),
                 (Word((1,)) ** 40,), 12, "subgroup-scan", id="subgroup-x40-cap-12"),
])
def test_compaction_paths_keep_the_invariants(layout, pres, subgroup, max_cosets, path):
    checked = assert_compaction_matches_the_reference(pres, subgroup,
                                                      EnumerationLimits(max_cosets))
    assert any(COMPACTION_PATHS[path](alpha, first) for alpha, first in checked.compactions)


def overflow_peak_per_coset(limits):
    """The tracemalloc peak, in bytes per coset of the budget, of the
    (2,3,7) run that fills limits and gives up: with x's one column list,
    and with a list for x and one for x^-1, whose lookahead frees cosets
    and whose compaction moves them."""
    peaks = []
    for layout in (contextlib.nullcontext(), separate_columns()):
        tracemalloc.start()
        try:
            with layout, pytest.raises(LimitExceeded):
                group_order(triangle_23k(7), limits)
            peaks.append(tracemalloc.get_traced_memory()[1] / limits.max_cosets)
        finally:
            tracemalloc.stop()
    return peaks


def test_overflow_path_keeps_one_table():
    # (2,3,7) is infinite, so this fills the budget, compacts and gives up.
    # A compaction that built a second table next to the first would need
    # well over 300 bytes per coset at its peak.
    assert max(overflow_peak_per_coset(EnumerationLimits(5000))) < 300


# -- HLT written out against the reference HLT -----------------------------


class RecordingHLT(RecordsMakeRoom, _Enumerator):
    pass


class RecordingReferenceHLT(RecordsMakeRoom, ReferenceHLT):
    pass


def assert_hlt_matches_the_reference(pres, subgroup, limits):
    """Same raw state, same _make_room returns, and, when the run
    completes, the same standardized table from both standardizations."""
    hlt = RecordingHLT(pres, subgroup, limits)
    reference = RecordingReferenceHLT(pres, subgroup, limits)
    state = raw_state(hlt)
    assert state == raw_state(reference)
    assert hlt.returns == reference.returns
    if not isinstance(state, str):
        assert coset._standardize(copy_table(state[0]), state[1]) == \
            rows_to_columns(reference_standardize(state[0], state[1]), hlt.ncols)
    return hlt


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_hlt_matches_the_reference_hlt(case, max_cosets):
    pres, subgroup = case
    assert_hlt_matches_the_reference(pres, subgroup, EnumerationLimits(max_cosets))


@pytest.mark.parametrize("pres,subgroup,limits,passes", [
    # Scanning x^40 at coset 0 overflows before HLT reaches a relator.
    pytest.param(load_presentation("generators: x y\nrelators: x^5 y^2 (x*y)^2\n"),
                 (Word((1,)) ** 40,), EnumerationLimits(12), True,
                 id="subgroup-x40-cap-12"),
    # A few times the raw peak, 60 rows; no lookahead runs.
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (Word((1, 2)),),
                 EnumerationLimits(200), False, id="orbifold-28-xy"),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (), EnumerationLimits(121), True,
                 id="orbifold-28-cap-121", marks=SEPARATE_COLUMNS),
    pytest.param(family_15e(200), (), EnumerationLimits(1200), False, id="15E-200"),
    pytest.param(triangle_23k(7), (), EnumerationLimits(2000), True, id="237-cap-2000",
                 marks=SEPARATE_COLUMNS),
])
def test_hlt_matches_the_reference_hlt_on_named_cases(layout, pres, subgroup, limits, passes):
    hlt = assert_hlt_matches_the_reference(pres, subgroup, limits)
    assert bool(hlt.returns) == passes


# -- the raw table's growth -------------------------------------------------


def next_room(n):
    """n plus a step of max(n // 7 + 8, 64) slots, up to a multiple of 4."""
    return (n + max(n // 7 + 8, 64) + 3) // 4 * 4


def capacity(items):
    """The slots CPython has allocated for a list."""
    return (sys.getsizeof(items) - sys.getsizeof([])) // struct.calcsize("P")


class CheckedGrowth(RecordsMakeRoom, _Enumerator):
    """Checks the lengths of the column lists and closed wherever they
    change: each _grow starts from lists as long as p and extends them all
    to next_room(n), or to max_cosets when the step after that would pass
    it; each _make_room starts from full lists at the budget and leaves
    them as long as p.  On CPython, each step of 64 slots or more (every
    step but a first one to a budget under 68) leaves each list with no
    unused capacity beyond rounding up to a multiple of 4, until the
    first compaction, which keeps the capacity the budget gave.  Records
    each length _grow returns."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rooms = []

    def lengths(self):
        return {len(column) for column in self.table} | {len(self.closed)}

    def _grow(self):
        n, max_cosets = len(self.p), self.limits.max_cosets
        assert self.lengths() == {n}
        room = super()._grow()
        expected = next_room(n)
        assert room == (expected if next_room(expected) <= max_cosets else max_cosets)
        assert self.lengths() == {room}
        if sys.implementation.name == "cpython" and not self.returns and room - n >= 64:
            assert {capacity(items) for items in (*self.table, self.closed)} == \
                {(room + 3) // 4 * 4}
        self.rooms.append(room)
        return room

    def _make_room(self, alpha):
        assert self.lengths() == {len(self.p)} == {self.limits.max_cosets}
        start = super()._make_room(alpha)
        assert self.lengths() == {len(self.p)}
        return start


def run_checked_growth(pres, subgroup, limits):
    """The raw state of a CheckedGrowth run, checking that every list is
    as long as p when run returns; and the run."""
    enum = CheckedGrowth(pres, subgroup, limits)
    state = raw_state(enum)
    if not isinstance(state, str):
        assert enum.lengths() == {len(enum.p)}
    return state, enum


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_no_list_grows_past_the_budget(case, max_cosets):
    pres, subgroup = case
    limits = EnumerationLimits(max_cosets)
    state, enum = run_checked_growth(pres, subgroup, limits)
    assert state == raw_state(ReferenceHLT(pres, subgroup, limits))
    assert all(room <= max_cosets for room in enum.rooms)


# Each with a budget a few times its raw peak (121, 60, 129, 724, 40 and
# 14 rows), under which no compaction runs.
GROWTH_CASES = [
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (), 500, id="orbifold-28"),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (Word((1, 2)),), 200,
                 id="orbifold-28-xy"),
    pytest.param(SMALL_FINITE[4], (), 500, id="coxeter-s5"),
    pytest.param(family_19(20), (), 2500, id="19-20"),
    pytest.param(family_15e(20), (), 200, id="15E-20"),
    pytest.param(load_presentation(D7), (), 50, id="dihedral-7"),
]


def raw_peak(pres, subgroup, max_cosets):
    """The raw peak of a run under max_cosets that runs no compaction:
    p never shrinks, so its final length."""
    return len(raw_state(_Enumerator(pres, subgroup, EnumerationLimits(max_cosets)))[1])


@pytest.mark.parametrize("pres,subgroup,max_cosets", GROWTH_CASES)
def test_a_budget_at_the_raw_peak_needs_no_room(pres, subgroup, max_cosets):
    # No compaction runs under max_cosets, so p never shrinks and its
    # final length is the raw peak.
    state, enum = run_checked_growth(pres, subgroup, EnumerationLimits(max_cosets))
    assert not enum.returns
    peak = len(state[1])
    state_at_peak, at_peak = run_checked_growth(pres, subgroup, EnumerationLimits(peak))
    assert state_at_peak == state
    assert not at_peak.returns
    assert at_peak.rooms[-1] == peak


class ReferenceHLTLookahead(ReferenceLookahead, ReferenceHLT):
    """ReferenceHLT with ReferenceLookahead's full-rescan overflow path:
    neither HLT's scan nor its lookahead nor its compaction is the
    enumerator's."""


@pytest.mark.parametrize("pres,subgroup,max_cosets", GROWTH_CASES)
def test_a_budget_one_below_the_raw_peak_ends_as_the_references_do(pres, subgroup, max_cosets):
    peak = raw_peak(pres, subgroup, max_cosets)
    limits = EnumerationLimits(peak - 1)
    state, enum = run_checked_growth(pres, subgroup, limits)
    assert enum.returns or isinstance(state, str)
    assert full_state(_Enumerator(pres, subgroup, limits)) == \
        full_state(ReferenceHLT(pres, subgroup, limits))
    assert state == raw_state(ReferenceHLT(pres, subgroup, limits)) == \
        raw_state(ReferenceHLTLookahead(pres, subgroup, limits))


def test_the_growth_cases_reach_both_endings_one_below_the_peak():
    endings = set()
    for case in GROWTH_CASES:
        pres, subgroup, max_cosets = case.values
        peak = raw_peak(pres, subgroup, max_cosets)
        state = raw_state(_Enumerator(pres, subgroup, EnumerationLimits(peak - 1)))
        endings.add(state if isinstance(state, str) else "completes")
    # orbifold-28 over <x*y> peaks at its index, 60, since y and z share
    # a list each, so one below that it gives up.
    assert endings == {"completes", "coset budget 13 exhausted", "coset budget 39 exhausted",
                       "coset budget 59 exhausted"}


# -- the coincidence written out against the reference ---------------------


class ReferenceCoincidenceHLT(ReferenceCoincidence, _Enumerator):
    pass


def assert_coincidence_matches_the_reference(pres, subgroup, limits):
    fast = _Enumerator(pres, subgroup, limits)
    reference = ReferenceCoincidenceHLT(pres, subgroup, limits)
    assert full_state(fast) == full_state(reference)
    return reference


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_coincidence_matches_the_reference_coincidence(case, max_cosets):
    pres, subgroup = case
    assert_coincidence_matches_the_reference(pres, subgroup, EnumerationLimits(max_cosets))


@pytest.mark.parametrize("relators,order,cascade", [
    # Its coincidences merge through the representative's entry, merge
    # through the inverse entry (the rare way) and deduce.
    pytest.param("z^-1*x^-1*y*z^-2 x*y^-1 z^-1*x*y^-1*x*y z^-1*x^-2*z*x^-1", 3, 13,
                 id="xyz-order-3"),
    # A cascade deep enough that a forced entry's find compresses a path
    # that no later find in the same call does.
    pytest.param("z^-1*x*z*y*x^-1 y^2*z^-1*y^-1 y^-1*z*x*z*y^-2*x^-2*y", 1, 166,
                 id="xyz-trivial"),
])
def test_coincidence_reaches_every_outcome(relators, order, cascade):
    pres = load_presentation(f"generators: x y z\nrelators: {relators}\n")
    reference = assert_coincidence_matches_the_reference(pres, (), EnumerationLimits())
    assert all(reference.outcomes[way] for way in ("existing", "inverse", "deduction"))
    assert max(map(len, reference.kills)) == cascade
    assert group_order(pres) == order


@SEPARATE_COLUMNS
def test_lookahead_coincidences_match_the_reference(layout):
    # (2,3,7) is infinite: under 2000 cosets it runs the lookahead, whose
    # scans kill cosets, and then gives up.  The lookahead's kills are
    # those recorded between _make_room's start and its _compact call.
    class LookaheadKills(ReferenceCoincidenceHLT):
        lookahead_kills = 0

        def _make_room(self, alpha):
            self.calls = len(self.kills)
            return super()._make_room(alpha)

        def _compact(self, alpha):
            self.lookahead_kills += sum(map(len, self.kills[self.calls:]))
            return super()._compact(alpha)

    limits = EnumerationLimits(2000)
    reference = LookaheadKills(triangle_23k(7), (), limits)
    assert full_state(_Enumerator(triangle_23k(7), (), limits)) == \
        full_state(reference)
    assert reference.lookahead_kills > 0


@pytest.mark.parametrize("pres,subgroup,coincidence_deduces", [
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (), False, id="orbifold-28"),
    pytest.param(family_19(5), (), False, id="19-5"),
    # Coxeter S5 over <b, a*b*a>: Felsch's coincidences deduce 3 entries.
    pytest.param(SMALL_FINITE[4], (Word.generator(1), Word((1, 2, 1))), True,
                 id="small4-y,xyx"),
])
def test_every_felsch_assignment_passes_through_its_hook(pres, subgroup, coincidence_deduces):
    # Felsch chases the deductions its _assign records, so one made
    # around that hook would go unchased.  Its columns count every entry
    # written into them, and each assignment writes two.
    written = []

    class Column(list):
        def __setitem__(self, c, value):
            if value is not None:
                written.append(c)
            super().__setitem__(c, value)

    class CountingFelsch(FelschReference):
        hooked = 0

        def __init__(self, *args):
            super().__init__(*args)
            self.table = list(map(Column, self.table))

        def _assign(self, a, col, b):
            super()._assign(a, col, b)
            self.hooked += 1

    enum = CountingFelsch(pres, subgroup, EnumerationLimits())
    enum.run()
    assert enum.hooked and len(written) == 2 * enum.hooked
    assert bool(enum.outcomes["deduction"]) == coincidence_deduces


def _standardize_input():
    """A raw table of D3 = <x, y | x^3, y^2, (x*y)^2> with coset 2 merged
    into coset 1: labels 0, 1, 3, 4, 5, 6 are live and no live entry
    points at 2."""
    x, y = 0, 2
    # x: 0 -> 1 -> 3 -> 0, 4 -> 5 -> 6 -> 4; y: 0 <-> 4, 1 <-> 6, 3 <-> 5.
    table = [[None] * 7 for _ in range(4)]
    for cycle in ((0, 1, 3), (4, 5, 6)):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[x][a], table[x + 1][b] = b, a
    for a, b in ((0, 4), (1, 6), (3, 5)):
        for c, d in ((a, b), (b, a)):
            table[y][c], table[y + 1][c] = d, d
    p = [0, 1, 1, 3, 4, 5, 6]
    return table, p


def test_standardize_numbers_the_live_cosets_breadth_first():
    table, p = _standardize_input()
    rows = reference_standardize(table, p)
    columns = coset._standardize(table, p)
    assert columns == rows_to_columns(rows, 4)
    assert len(rows) == 6
    assert columns == enumerate_cosets(
        load_presentation("generators: x y\nrelators: x^3 y^2 (x*y)^2\n")).columns
    # Each raw column is emptied once its standardized column is built.
    assert table == [[], [], [], []]


def test_standardize_ignores_the_stale_entries_of_dead_rows():
    table, p = _standardize_input()
    expected = coset._standardize(copy_table(table), p)
    for column, e in zip(table, [5, None, 2, 0]):
        column[2] = e
    assert coset._standardize(copy_table(table), p) == expected
    assert rows_to_columns(reference_standardize(table, p), 4) == expected


def test_standardize_rejects_an_incomplete_live_row():
    table, p = _standardize_input()
    table[1][5] = None
    for standardize in (coset._standardize, reference_standardize):
        with pytest.raises(AssertionError, match="incomplete row"):
            standardize(table, p)


def test_standardize_rejects_a_live_row_coset_0_cannot_reach():
    # A seventh live coset, complete but fixed by both generators.
    table, p = _standardize_input()
    for column in table:
        column.append(7)
    p.append(7)
    for standardize in (coset._standardize, reference_standardize):
        with pytest.raises(AssertionError, match="not transitive"):
            standardize(table, p)


# -- the column lists against the row layout ------------------------------


def layout_state(enum, columns):
    """What a run leaves: the LimitExceeded message (None when it
    completes), the raw table as rows, p, closed, first_dead, and the
    standardized columns when the run completes.  The row layout's
    standardized rows are transposed to compare them."""
    try:
        enum.run()
        message = None
    except LimitExceeded as exc:
        message = str(exc)
    rows = enum.table
    if columns:
        rows = [[column[c] for column in enum.table] for c in range(len(enum.p))]
    if message:
        standard = None
    elif columns:
        # Last, since it empties enum.table.
        standard = coset._standardize(enum.table, enum.p)
    else:
        standard = rows_to_columns(row_standardize(enum.table, enum.p), enum.ncols)
    return message, rows, enum.p, enum.closed, enum.first_dead, standard


def assert_the_layouts_agree(pres, subgroup, limits):
    state = layout_state(_Enumerator(pres, subgroup, limits), True)
    assert state == layout_state(RowLayoutEnumerator(pres, subgroup, limits), False)
    columns = state[-1]
    if columns is not None:
        assert type(columns) is tuple and all(type(column) is tuple for column in columns)
        assert len(columns) == 2 * pres.n_generators
    return state


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.integers(5, 400))
def test_the_column_lists_match_the_row_layout(case, max_cosets):
    pres, subgroup = case
    assert_the_layouts_agree(pres, subgroup, EnumerationLimits(max_cosets))


LAYOUT_PRESENTATIONS = {
    "237": (triangle_23k(7), ()),
    "235": (triangle_23k(5), ()),
    "orbifold-28-xy": (load_presentation(ORBIFOLD_28_TEXT), (Word((1, 2)),)),
    "xyz": (load_presentation("generators: x y z\nrelators: y*x^-1*z^-2 x^-40 "
                              "y*z*y*z^-3*y^-1 x^-25\n"), ()),
    "x22-y6": (load_presentation("generators: x y\nrelators: x^22 y^6 y^-1*x*y*x^-2\n"), ()),
    "19-12": (family_19(12), ()),
    "small4-y,xyx": (SMALL_FINITE[4], (Word.generator(1), Word((1, 2, 1)))),
}


@pytest.mark.parametrize("max_cosets", [5, 12, 30, 121, 157, 300, 1000, 2000])
@pytest.mark.parametrize("case_id", sorted(LAYOUT_PRESENTATIONS))
def test_the_column_lists_match_the_row_layout_on_named_cases(case_id, max_cosets):
    pres, subgroup = LAYOUT_PRESENTATIONS[case_id]
    assert_the_layouts_agree(pres, subgroup, EnumerationLimits(max_cosets))


def test_the_named_layout_cases_reach_every_ending():
    # A completed table with and without a compaction on the way, and
    # LimitExceeded at the first lookahead and after compactions.
    endings = set()
    for pres, subgroup in LAYOUT_PRESENTATIONS.values():
        for max_cosets in (12, 157, 2000):
            enum = RecordingHLT(pres, subgroup, EnumerationLimits(max_cosets))
            endings.add((isinstance(raw_state(enum), str), bool(enum.returns)))
    assert endings == {(False, False), (False, True), (True, False), (True, True)}


class RenumberCompaction(_Enumerator):
    """Compaction as it was before p was renumbered in place: renumber
    builds the live cosets and the map from old labels to new ones as
    lists of their own, next to p."""

    def _compact(self, alpha):
        p, closed = self.p, self.closed
        first = min(self.first_dead, len(p))
        live, renum = renumber(p, first)
        n = first + len(live)
        if n >= self.limits.max_cosets:
            raise LimitExceeded(f"coset budget {self.limits.max_cosets} exhausted")
        for column, inv in self.pairs:
            for new, old in enumerate(live, first):
                e = column[old]
                if e is not None:
                    if e < first:
                        inv[e] = new
                    else:
                        e = renum[e]
                column[new] = e
            del column[n:]
        closed[first:] = map(closed.__getitem__, live)
        p[first:] = map(renum.__getitem__, live)
        self.first_dead = self.limits.max_cosets
        start = alpha if alpha < first else first + bisect_left(live, alpha)
        closed[:start] = [0] * start
        return start


def compaction_state(enum):
    """A copy of the raw table, p, closed and first_dead."""
    return ([list(column) for column in enum.table], list(enum.p), list(enum.closed),
            enum.first_dead)


class ComparedCompaction(_Enumerator):
    """At every compaction, runs RenumberCompaction's on a copy of the raw
    state and checks that both return the same index, or give up with the
    same message, and leave the same raw state; and that every entry is
    p's int for its label, so the table holds no second int for one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.args = args

    def _compact(self, alpha):
        twin = RenumberCompaction(*self.args)
        for column, own in zip(twin.table, self.table):
            column[:] = own
        twin.p[:] = self.p
        twin.closed[:] = self.closed
        twin.first_dead = self.first_dead
        try:
            expected = twin._compact(alpha)
        except LimitExceeded as exc:
            with pytest.raises(LimitExceeded, match=f"^{exc}$"):
                super()._compact(alpha)
            assert compaction_state(self) == compaction_state(twin)
            raise
        assert super()._compact(alpha) == expected
        assert compaction_state(self) == compaction_state(twin)
        p = self.p
        for column in self.table:
            assert all(e is p[e] for e in column if e is not None)
        return expected


@pytest.mark.parametrize("max_cosets", [5, 12, 30, 121, 157, 300, 1000, 2000])
@pytest.mark.parametrize("case_id", sorted(LAYOUT_PRESENTATIONS))
def test_in_place_renumbering_matches_the_renumber_lists(case_id, max_cosets):
    pres, subgroup = LAYOUT_PRESENTATIONS[case_id]
    raw_state(ComparedCompaction(pres, subgroup, EnumerationLimits(max_cosets)))


class SavesStateBeforeCompaction(_Enumerator):
    def _compact(self, alpha):
        self.before = compaction_state(self)
        return super()._compact(alpha)


@pytest.mark.parametrize("pres,subgroup,max_cosets", [
    # Gives up at its first compaction, with no coset dead.
    pytest.param(load_presentation("generators: x y\nrelators: x^2\n"), (), 200,
                 id="no-coincidence"),
    # Give up after compactions that freed cosets.
    pytest.param(triangle_23k(7), (), 2000, id="237-after-compactions", marks=SEPARATE_COLUMNS),
    pytest.param(load_presentation("generators: x y z\nrelators: y*x^-1*z^-2 x^-40 "
                                   "y*z*y*z^-3*y^-1 x^-25\n"), (), 300, id="xyz-cap-300"),
])
def test_a_compaction_that_gives_up_changes_nothing(layout, pres, subgroup, max_cosets):
    enum = SavesStateBeforeCompaction(pres, subgroup, EnumerationLimits(max_cosets))
    with pytest.raises(LimitExceeded, match=f"coset budget {max_cosets} exhausted"):
        enum.run()
    assert compaction_state(enum) == enum.before


def test_the_overflow_path_keeps_105_bytes_per_coset():
    # Under tracemalloc, the (2,3,7) run that fills its budget holds about
    # 69 bytes per coset: a slot in each of the three column lists (x and
    # x^-1 share one) and in p and closed, and the label's int, which p
    # and the table share.  It gives up at its first compaction, before
    # that writes anything.  With a list for x and one for x^-1 it held
    # about 78 and, since compaction renumbers p in place and reuses the
    # label ints, peaked at about 81.  With renumber's two lists and a
    # second int per moved label it peaked at 141, with separate ints for
    # p and the table at 161, and with one list per row at 210.
    assert max(overflow_peak_per_coset(EnumerationLimits(20_000))) <= 105


# -- indices and coset words read off the regular table ------------------

@functools.cache
def regular_table(index):
    return enumerate_cosets(SMALL_FINITE[index], limits=SMALL_LIMITS)


@pytest.mark.parametrize("index", range(len(SMALL_FINITE)))
def test_coset_words_are_the_element_words(index):
    regular = regular_table(index)
    assert regular.n_cosets == SMALL_ORDERS[index]
    elements = enumerate_elements(permutation_rep(regular))
    assert list(coset_words(regular)) == [w for _, w in elements.entries]


def _with_labels_swapped(table, a, b):
    """table with cosets a and b renamed to each other."""
    swap = list(range(table.n_cosets))
    swap[a], swap[b] = b, a
    return _with_columns(table, [[swap[column[d]] for d in swap] for column in table.columns])


def test_coset_words_refuses_a_table_that_is_not_standardized():
    # Each is still a valid coset table; only the numbering is off.
    for _, table in verified_cases().values():
        last = table.n_cosets - 1
        for a, b in ((1, 2), (1, last), (last - 1, last)):
            if 0 < a < b <= last:
                with pytest.raises(ValueError, match="^table is not standardized$"):
                    coset_words(_with_labels_swapped(table, a, b))
    # Coset 1 is reached from no coset.
    unreached = _with_rows(regular_table(0), [(0, 0, 0, 0), (1, 1, 1, 1)])
    with pytest.raises(ValueError, match="^table is not standardized$"):
        coset_words(unreached)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subgroup_index_matches_enumeration(data):
    index = data.draw(st.integers(0, len(SMALL_FINITE) - 1))
    pres = SMALL_FINITE[index]
    k = pres.n_generators
    letter = st.integers(1, k).flatmap(lambda g: st.sampled_from((g, -g)))
    words = data.draw(st.lists(st.lists(letter, max_size=8).map(lambda ls: Word(tuple(ls))),
                               max_size=3))
    expected = enumerate_cosets(pres, words, SMALL_LIMITS).n_cosets
    assert subgroup_index(regular_table(index), words) == expected


def test_subgroup_index_rejects_other_tables():
    pres = load_presentation(D7)
    with pytest.raises(ValueError):
        subgroup_index(enumerate_cosets(pres, (Word((1,)),)), ())
    with pytest.raises(ValueError):
        subgroup_index(enumerate_cosets(pres), (Word((3,)),))


# -- the column readers against row-based readers --------------------------


def row_subgroup_index(regular, words):
    """subgroup_index reading the regular table's rows."""
    action = table_rows(regular)
    word_cols = [letter_columns(w) for w in words]
    seen = bytearray(regular.n_cosets)
    seen[0] = 1
    orbit = [0]
    for c in orbit:
        for cols in word_cols:
            d = c
            for col in cols:
                d = action[d][col]
            if not seen[d]:
                seen[d] = 1
                orbit.append(d)
    return regular.n_cosets // len(orbit)


def row_coset_words(table):
    """coset_words reading the table's rows."""
    letters = [(col // 2 + 1) * (-1 if col & 1 else 1)
               for col in range(2 * len(table.generator_names))]
    action = table_rows(table)
    order = [0]
    words = [()] * table.n_cosets
    seen = bytearray(table.n_cosets)
    seen[0] = 1
    for c in order:
        for col, d in enumerate(action[c]):
            if not seen[d]:
                seen[d] = 1
                words[d] = words[c] + (letters[col],)
                order.append(d)
    return tuple(Word(w) for w in words)


def assert_the_column_readers_match_the_rows(table, words):
    """trace_word from every coset, coset_words and the column paths they
    view, permutation_rep and, on a regular table, subgroup_index and the
    orbit loop it views of each prefix of words, against the same reads of
    the rows; and each coset word traces from coset 0 to its own coset."""
    action = table_rows(table)
    for w in words:
        for c in range(table.n_cosets):
            assert trace_word(table, c, w) == row_trace_word(action, c, w)
    assert coset_words(table) == row_coset_words(table)
    assert [trace_word(table, 0, w) for w in coset_words(table)] == list(range(table.n_cosets))
    assert coset._column_paths(table) == list(map(letter_columns, row_coset_words(table)))
    images = [perm.images for _, perm in permutation_rep(table).generators]
    assert images == [tuple(row[2 * i] for row in action)
                      for i in range(len(table.generator_names))]
    if not table.subgroup_generators:
        for k in range(len(words) + 1):
            expected = row_subgroup_index(table, words[:k])
            assert subgroup_index(table, words[:k]) == expected
            assert coset._orbit_index(table, map(letter_columns, words[:k])) == expected


def test_the_column_readers_match_the_row_readers_on_verified_cases():
    for pres, table in verified_cases().values():
        gens = [Word.generator(i) for i in range(pres.n_generators)]
        mixed = [a * ~b for a, b in zip(gens, gens[1:])]
        words = gens + mixed + list(pres.relators) + list(table.subgroup_generators)
        assert_the_column_readers_match_the_rows(table, words)


@settings(max_examples=60, deadline=None)
@given(st.one_of(long_power_presentations(), triangle_groups(),
                 short_relator_presentations()),
       st.data())
def test_the_column_readers_match_the_row_readers(case, data):
    pres, subgroup = case
    letter = st.integers(1, pres.n_generators).flatmap(lambda g: st.sampled_from((g, -g)))
    words = data.draw(st.lists(st.lists(letter, max_size=8).map(lambda ls: Word(tuple(ls))),
                               max_size=3))
    for sub in ((), subgroup):
        try:
            table = enumerate_cosets(pres, sub, EnumerationLimits(500))
        except LimitExceeded:
            continue
        assert_the_column_readers_match_the_rows(table, words + list(pres.relators))


def test_enumerate_cosets_empties_the_raw_columns(monkeypatch):
    enumerators = []

    class Recorded(_Enumerator):
        def run(self):
            enumerators.append(self)
            return super().run()

    monkeypatch.setattr(coset, "_Enumerator", Recorded)
    orbifold = load_presentation(ORBIFOLD_28_TEXT)
    for pres, limits in ((family_19(12), EnumerationLimits()), (COXETER_S6, EnumerationLimits()),
                         (orbifold, EnumerationLimits(121))):
        table = enumerate_cosets(pres, limits=limits)
        (enum,) = enumerators
        enumerators.clear()
        assert len(enum.table) == len(table.columns) == 2 * pres.n_generators
        assert all(column == [] for column in enum.table)
        assert all(len(column) == table.n_cosets for column in table.columns)


def test_enumerate_cosets_frees_the_enumerator_before_verifying(monkeypatch):
    # Nothing reads the enumerator after _standardize, so its p, closed and
    # emptied column lists must be gone while the table is verified.
    refs = []

    def tracked(*args):
        enum = _Enumerator(*args)
        refs.append(weakref.ref(enum))
        return enum

    def verify(table, pres):
        assert refs and refs[-1]() is None
        verify_coset_table(table, pres)

    monkeypatch.setattr(coset, "_Enumerator", tracked)
    monkeypatch.setattr(coset, "verify_coset_table", verify)
    assert enumerate_cosets(family_19(12)).n_cosets == 144
    assert group_order(COXETER_S6) == 720
    assert len(refs) == 2


def test_a_presentation_without_generators_has_one_coset_and_no_columns():
    table = enumerate_cosets(Presentation((), ()))
    assert (table.n_cosets, table.columns) == (1, ())
    verify_coset_table(table, Presentation((), ()))
    assert table_to_tsv(table) == "coset\n0\n"
    assert coset_words(table) == (Word(()),)


# -- an involution's one column list against a list for g and one for g^-1 --


def standardized_or_none(pres, subgroup, limits):
    try:
        return enumerate_cosets(pres, subgroup, limits).columns
    except LimitExceeded:
        return None


@settings(max_examples=150, deadline=None)
@given(involution_presentations(), st.integers(5, 2000))
def test_shared_involution_columns_give_the_separate_columns_tables(case, max_cosets):
    pres, subgroup = case
    limits = EnumerationLimits(max_cosets)
    shared = standardized_or_none(pres, subgroup, limits)
    with separate_columns():
        separate = standardized_or_none(pres, subgroup, limits)
    if shared is not None and separate is not None:
        assert shared == separate
    if shared is not None:
        for g in coset._involutions(pres.relator_columns):
            assert shared[2 * g + 1] is shared[2 * g]


@pytest.mark.parametrize("pres,subgroup,gains", [
    pytest.param(SMALL_FINITE[4], (), [], id="coxeter-s5"),
    # Its raw table peaks at 121 rows, and at 120, its order, with y and z
    # sharing a list each: so a budget of 120 completes only that way.
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (), [120], id="orbifold-28"),
    pytest.param(load_presentation(ORBIFOLD_28_TEXT), (Word((1, 2)),), [60],
                 id="orbifold-28-xy"),
    pytest.param(triangle_23k(5), (), [], id="235"),
    pytest.param(load_presentation(D7), (), [], id="dihedral-7"),
    pytest.param(family_15e(20), (), [], id="15E-20"),
])
def test_no_budget_that_separate_columns_complete_under_overflows(pres, subgroup, gains):
    # Every budget from the index to three times it: what completes with a
    # list for g and one for g^-1 completes with an involution's one list,
    # and the budgets gains name complete only with the one list.
    index = enumerate_cosets(pres, subgroup).n_cosets
    budgets = range(index, 3 * index + 1)
    shared = [standardized_or_none(pres, subgroup, EnumerationLimits(b)) for b in budgets]
    with separate_columns():
        separate = [standardized_or_none(pres, subgroup, EnumerationLimits(b)) for b in budgets]
    assert [b for b, columns in zip(budgets, separate) if columns is not None and
            shared[b - index] is None] == []
    assert [b for b, columns in zip(budgets, shared) if columns is not None and
            separate[b - index] is None] == gains
    assert {columns for columns in shared + separate if columns is not None} == \
        {enumerate_cosets(pres, subgroup).columns}


@pytest.mark.parametrize("relators,involutions,scanned", [
    ("x^2 y^3", {0}, ["y^3"]),
    ("x^-2 y^3", {0}, ["y^3"]),
    ("y^-2 x^2 (x*y)^3", {0, 1}, ["(x*y)^3"]),
    ("x^4 y^3", set(), ["x^4", "y^3"]),
    ("x*x*y", set(), ["x*x*y"]),
])
def test_only_a_relator_g2_or_g_inverse_2_shares_a_column(relators, involutions, scanned):
    pres = load_presentation(f"generators: x y\nrelators: {relators}\n")
    assert coset._involutions(pres.relator_columns) == involutions
    enum = _Enumerator(pres, (), EnumerationLimits())
    assert shared_generators(enum) == involutions
    assert list(enum.relator_cols) == \
        [letter_columns(parse_word(w, pres.generator_names)) for w in scanned]
    # Each distinct list once: _grow, the trim and the coincidence walk these.
    assert len(enum.lists) == len(enum.pairs) == 4 - len(involutions)
    with separate_columns():
        assert shared_generators(_Enumerator(pres, (), EnumerationLimits())) == set()


def test_a_subgroup_word_x_squared_shares_no_column():
    # x*x in the subgroup puts x^2 in it; x still has order 4 in this
    # dihedral group of order 8, and <x^2> has index 4.  x^2 is central,
    # so x acts on these cosets as an involution: its columns are equal,
    # but they are two lists while the enumeration runs.
    pres = load_presentation("generators: x y\nrelators: x^4 y^2 (x*y)^2\n")
    subgroup = (Word((1, 1)),)
    assert shared_generators(_Enumerator(pres, subgroup, EnumerationLimits())) == {1}
    table = enumerate_cosets(pres, subgroup)
    assert table.n_cosets == 4
    assert table.columns[1] is not table.columns[0]
    assert table.columns[3] is table.columns[2]


def test_a_completed_table_has_one_column_tuple_per_involution():
    table = enumerate_cosets(COXETER_S6)
    assert table.n_cosets == 720
    assert all(table.columns[2 * g + 1] is table.columns[2 * g] for g in range(5))
    orbifold = enumerate_cosets(load_presentation(ORBIFOLD_28_TEXT))
    assert [orbifold.columns[2 * g + 1] is orbifold.columns[2 * g] for g in range(3)] == \
        [False, True, True]
