"""Todd-Coxeter coset enumeration over finite presentations.

The strategy is HLT (Hasselgrove-Leech-Trotter): every live coset is
scanned against every relator, with new cosets defined to complete each
scan.  When the coset budget fills up, a lookahead pass (coincidence-only
scanning) runs and dead cosets are compacted away before giving up.

HLT's scan lives in _Enumerator.run, the only place that defines cosets;
the lookahead's, which stops at a gap, is written out the same way in
_make_room, since a run that overflows spends much of its time there.
Neither is a method: the same scan as a method call per (coset, relator)
pair is the tests' reference for both.  The subgroup words are coset 0's
first scans, ahead of its relators.  They carry no mark bit, so after a
lookahead from coset 0 a word that already closed is scanned again,
which changes nothing.

Tables index cosets from 0 (the subgroup itself) and act on the right:
column 2*i is the action of generator i, column 2*i+1 of its inverse.
For an involution, a generator with a relator g^2 or g^-2, the two are
one map, and columns[2*i+1] is columns[2*i], the same tuple.
Completed tables are renumbered by breadth-first traversal from coset 0
in column order, so equal inputs give byte-for-byte equal tables.  The
table is CosetTable.columns, one tuple per column, columns[col][c] being
coset c's entry; it has no second, row-shaped view, and every reader in
this module reads the columns.

The raw table the enumerator fills is stored by column: table[col] is
one list, and table[col][c] is coset c's entry in that column, None
while undefined; an involution's two columns are one list (below).  p,
the union-find, has one entry per coset, so len(p) counts the cosets
held.  The column lists and closed run ahead of p: past len(p) they
hold unused None and 0 slots.  When len(p) reaches their length, _grow
extends each distinct list once by a seventh of it, at least 64 slots,
but never past the coset budget, so a run that overflows holds no
unused slot; and the step is large enough that CPython allocates the
new length exactly, with no further eighth of its own (_next_room).  A
definition then costs one comparison and p.append.
run drops the unused slots when it returns, and compaction, which runs
only with the budget full, leaves every list as long as p.

Each relator's columns are bound once, as two tuples of column lists:
fwd[i] = table[cols[i]] for its letters read forward, and back[j] =
table[cols[j] ^ 1] for reading it backward.  A scan step is then one
subscript into a bound list, fwd[i][f], and a coset costs a slot in each
column instead of a list object of its own.  The bound tuples hold the
column lists themselves, so the enumerator never replaces a list:
growth extends, and compaction moves entries down and truncates.

A generator g with a relator g^2 or g^-2 (_involutions) is its own
inverse, so table[2*i+1] is the very list table[2*i]: one entry per
coset says where both g and g^-1 send it.  A definition or deduction
writes its two entries into that one list, a row fill defines one coset
for g where it defined one for g and another for g^-1, and g^2 closes at
every coset by construction, so it is left out of the scanned relators
(verify_coset_table, which reads the presentation's relators, still
checks it).  With a list each, HLT would learn that g and g^-1 agree
only when it scans g^2, and meanwhile define cosets that a coincidence
then kills: S7's Coxeter presentation takes 12 145 raw rows for 5040
cosets that way, and 6411 this way.  Whatever walks every list (_grow,
run's trim, the coincidence's pairs) walks each distinct list once.
The coincidence must: a second visit of a shared list would clear the
entry the first one wrote.  _compact goes a generator at a time, and
for an involution reads and writes its one list twice, with equal
values.

Coincidences are resolved by union-find with path compression, keeping
the smallest label as representative; the merge queue transfers every
edge of a dead coset to its representative.  On the family tables this
runs once for every coset killed, so _coincidence is one queue loop on
local names with its find, merge and deduction written out.  The finds
come in a fixed order, which fixes where path compression leaves the
union-find: the two cosets merged first, then, for each edge of a dead
coset, the dead coset, the edge's other end and the entry the merge it
forces needs found.  The same loop as method calls (rep, _merge and a
deduction method) is ReferenceCoincidence in the tests, which check that
both leave the same raw state.

HLT skips relator scans that provably change nothing.  A relator that
closes at a coset stays closed through every later definition and
coincidence: definitions only add entries, and a coincidence maps the
loop onto the representative's.  A scan of it there would define,
deduce and merge nothing.  So closed[c] holds the bits of the relators
known to close at coset c (a merged-away coset hands its bits to its
representative), and those scans are skipped: the definition sequence,
the raw table and the point where LimitExceeded fires are those of
scanning everywhere.  Bits are set in two places:

- HLT marks a relator r wherever its closed loop reads r again.  After
  r closes at coset a, its loop from a passes through cosets a_0 = a,
  a_1, ..., a_L = a, and r closes at a_i when r's column lists, read
  round the loop from a_i, forward or backward, are r's own.  Forward
  that is every multiple of r's period: if r = w^k (w primitive in
  lists), r read from a*w is the same cycle entered one copy of w
  later.  Backward, reading a_i, a_(i-1), ..., takes each edge through
  its inverse list, and the inverse of r is a rotation of r exactly
  when w's inverse, read in lists, is a rotation of w.  Shared lists
  make such mirrors common: with a and b involutions, (a*b)^3 reads
  again backward from every odd position, and with x one, the
  commutator x*y*x^-1*y^-1 from position 1.  _mark_walk finds the
  positions once per relator, in time linear in w (a str.find of w in
  w's inverse twice over), as hops between them; after r's scan at a,
  run walks them and marks the cosets HLT has not yet reached, until
  the walk is back at a.  On S7's Coxeter presentation this marks 58 800
  of the 75 600 (coset, relator) pairs, against 42 000 for the forward
  repeats alone.  Short powers such as (x*y)^7 gain most in the
  lookahead, which then rescans none that HLT closed.  The walk is
  written out in run: as a method call per scan, it made HLT on S7's
  Coxeter presentation about a fifth slower than marking no short power
  at all; written out, it is faster than that.  A walk of one-letter
  hops, the common case, is walked as one tuple of lists.
- The lookahead marks every relator it traces all the way round.  Later
  lookaheads skip that (coset, relator) pair, and so does HLT when it
  reaches the coset.

The lookahead starts at HLT's pointer, since every live coset below it
has had each relator scanned to closure, and each pass scans every live
coset from there on.

Compaction then works in place from the first dead coset, whose label
_coincidence records as it kills it.  It relies on three invariants the
enumerator keeps:

- every label below the first dead one is live, because compaction
  leaves no dead label and only a merge kills one;
- no live coset has an entry pointing at a dead coset, because
  _coincidence clears every edge into a coset it kills (each such edge
  is the inverse of one of the dead coset's own);
- among live cosets, every defined entry is inverse-paired.

So the cosets below the first dead label keep their labels and their
entries are not touched, except that an entry pointing at a moved coset
is found through that coset's inverse edge.  The labels from there on
are renumbered in place: one ascending pass turns p itself into the map
from old labels to new ones, with no find, since a dead coset's parent
is a smaller label whose new label is already known.  Each column's
entries from there on then move down in place, and the column is
truncated.  Compaction holds no list of its own per coset.

The table and p share one int object per label: a definition stores
the same int in both, HLT's pointer and the lookahead hold a coset as
p's int for it, and a label compaction hands out is the int of the live
coset whose old label it was.  So the table holds no second int for a
label, which would cost a live coset 32 bytes more.

_standardize relies on the second invariant too.  When run returns, a
breadth-first traversal from coset 0 over the raw labels meets only
live cosets, so it numbers the completed table in one pass, without the
union-find and without reading a dead coset's entries; it walks each
distinct list once.  It then builds the standardized columns one at a
time, each with two operator.itemgetter picks, and empties each raw
column as soon as its entries are picked, so the completed table and the
whole raw table, which holds about two rows per coset on the family
tables, are never held at once.

verify_coset_table does not use this argument: it checks every relator
at every coset, so a skipped scan that was needed shows up there as a
relator left open.

verify_coset_table works on whole columns.  Each generator's column is
a map on the cosets; with every entry in range, tracing a word from
every coset is composing its columns into one permutation, and the word
closes everywhere exactly when that permutation is the identity.  For a
relator r = w^k it composes w once and raises that permutation to the
k-th power by repeated squaring, about log2(k) compositions.  This is
exact, not a sample: the composition of r's letters is the composition
of k copies of w's, so p_w^k and the letter-by-letter trace agree at
every coset.  Each composition is one operator.itemgetter pick, which
gives a tuple (_picker), so each permutation is a tuple and is compared
with the identity as a tuple; an involution's one tuple is range-checked
once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LimitExceeded
from .permgroup import PermGroup, Permutation
from .presentation import Presentation
from .words import Word, column_word, format_word, letter_columns

__all__ = [
    "EnumerationLimits",
    "CosetTable",
    "enumerate_cosets",
    "group_order",
    "trace_word",
    "subgroup_index",
    "coset_words",
    "permutation_rep",
    "verify_coset_table",
    "table_to_tsv",
]

DEFAULT_MAX_COSETS = 1_000_000


@dataclass(frozen=True)
class EnumerationLimits:
    """Budgets for a single enumeration run."""

    max_cosets: int = DEFAULT_MAX_COSETS

    def __post_init__(self) -> None:
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be at least 1")


@dataclass(frozen=True)
class CosetTable:
    """A complete, standardized coset table.

    columns is the table: 2 * n_generators tuples, each n_cosets long.
    columns[2*i][c] is coset c times generator i, and columns[2*i+1][c]
    is coset c times its inverse.  For an involution (a relator g^2 or
    g^-2), columns[2*i+1] is columns[2*i]: one tuple.  Coset 0 is the
    subgroup.
    """

    generator_names: tuple[str, ...]
    n_cosets: int
    columns: tuple[tuple[int, ...], ...]
    subgroup_generators: tuple[Word, ...]


def _primitive_root(cols: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(w, k) with cols = w^k and w primitive; k = 1 when cols is not a
    proper power."""
    n = len(cols)
    for period in range(1, n // 2 + 1):
        if n % period == 0 and cols[:period] * (n // period) == cols:
            return cols[:period], n // period
    return cols, 1


def _mark_walk(cols: tuple[int, ...], table: Sequence[list[int | None]]
               ) -> tuple[tuple[list[int | None], ...], ...] | None:
    """The mark walk of relator cols on the raw table: one tuple of column
    lists per hop from one position of the relator's loop at which it
    reads again to the next, in order (module docstring); None when it
    reads again at no position but 0.

    In lists, cols is u^k with u primitive, and it reads again forward at
    the multiples of |u|.  It reads again backward where u's inverse,
    also read in lists, is a rotation of u, and then at one residue class
    mod |u|; str.find on the lists as characters finds it in O(|u|).
    """
    root, k = _primitive_root(cols)

    def list_of(col: int) -> int:
        """The first column holding col's list."""
        return col & ~1 if table[col] is table[col ^ 1] else col

    lists = tuple([list_of(col) for col in root])
    if lists != root:
        # An involution's letters can make a primitive root a power in lists.
        lists, j = _primitive_root(lists)
        root, k = root[:len(lists)], k * j
    inverse = "".join([chr(list_of(col ^ 1)) for col in reversed(root)])
    at = (2 * inverse).find("".join(map(chr, lists)))
    # Read backward from position i, the loop reads u^-1 rotated by -i.
    mirror = -at % len(root) if at >= 0 else 0
    hops = (root[:mirror], root[mirror:]) if mirror else (root,)
    # The last hop would end where the loop starts, at position 0.
    walk = (tuple([tuple([table[col] for col in hop]) for hop in hops]) * k)[:-1]
    return walk or None


class _NeedRoom(Exception):
    pass


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup: Sequence[Word],
                 limits: EnumerationLimits):
        for w in subgroup:
            if w.max_generator_index() >= pres.n_generators:
                raise ValueError("subgroup word uses a generator outside the alphabet")
        self.ncols = 2 * pres.n_generators
        involutions = _involutions(pres.relator_columns)
        # An involution's g^2 and g^-2 close everywhere once g and g^-1
        # share a column, so they are not scanned.
        squares = {(col, col) for g in involutions for col in (2 * g, 2 * g + 1)}
        self.relator_cols = tuple(cols for cols in pres.relator_columns if cols not in squares)
        self.sub_cols = tuple(letter_columns(w) for w in subgroup)
        self.limits = limits
        # table[col][c] is coset c's entry in column col; p has one entry
        # per coset, so len(p) counts the cosets held, and the columns and
        # closed may run ahead of it (_grow).  These lists, like p and
        # closed, are only ever changed in place, so the column lists can
        # be bound once (module docstring).  An involution's two columns
        # are one list.
        table: list[list[int | None]] = []
        for col in range(self.ncols):
            table.append(table[-1] if col & 1 and col >> 1 in involutions else [None])
        self.table = table
        # Each distinct column list with its inverse, in column order: an
        # involution's list comes once, as (column, column).
        self.pairs = [(column, table[col ^ 1]) for col, column in enumerate(table)
                      if not col & 1 or column is not table[col - 1]]
        # The distinct column lists, each once, for whatever walks them all.
        self.lists = [column for column, _ in self.pairs]
        self.p: list[int] = [0]
        # closed[c] is the bitmask of relators (bit i for relator i) known
        # to close at coset c, so their scans there can be skipped; one
        # mask per coset, 0 when nothing is known.
        self.closed: list[int] = [0]
        # The smallest label killed since the last compaction; every label
        # below it is live.  No label reaches max_cosets (run), so
        # max_cosets means none has died.
        self.first_dead = limits.max_cosets

    def _bind(self, cols: Sequence[int]) -> tuple[tuple[list[int | None], ...],
                                                  tuple[list[int | None], ...]]:
        """(fwd, back): the column lists of a word's letters, fwd[i] =
        table[cols[i]] for reading it forward and back[i] = table[cols[i]
        ^ 1] for reading it backward (module docstring)."""
        table = self.table
        return tuple([table[col] for col in cols]), tuple([table[col ^ 1] for col in cols])

    # -- coincidences --------------------------------------------------

    def _coincidence(self, a: int, b: int) -> None:
        """Merge cosets a and b, and every pair of cosets that forces.

        Find, merge and deduction are written out on local names (module
        docstring).  A find walks to the root and then points every coset
        on the path at it, and the finds come in this order: a, then b;
        then, for each edge gamma -> delta of a dead coset, gamma, delta,
        and the entry that a merge with gamma's or delta's representative
        needs found.  That representative is a root already, so the find
        of it a merge would make again is left out: it changes nothing.
        A merge keeps the smaller label, records the first dead label and
        hands the dead coset's closed bits to the representative.  An
        edge that forces no merge is a deduction.  self.first_dead is
        written back before returning.
        """
        p, closed = self.p, self.closed
        first_dead = self.first_dead
        root = p[a]
        if p[root] != root:
            root = p[root]
            while p[root] != root:
                root = p[root]
            while p[a] != root:
                p[a], a = root, p[a]
        a = root
        root = p[b]
        if p[root] != root:
            root = p[root]
            while p[root] != root:
                root = p[root]
            while p[b] != root:
                p[b], b = root, p[b]
        b = root
        if a == b:
            return
        if a > b:
            a, b = b, a
        p[b] = a
        if b < first_dead:
            first_dead = b
        queue = [b]
        bits = closed[b]
        if bits:
            closed[a] |= bits
        pairs = self.pairs
        # The queue grows as merges kill cosets; the loop reaches them all.
        for gamma in queue:
            # Reads gamma's entries as they change: clearing a loop edge
            # of gamma's empties one of its later columns.
            for fwd, inv in pairs:
                delta = fwd[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                k = gamma
                mu = p[k]
                if p[mu] != mu:
                    mu = p[mu]
                    while p[mu] != mu:
                        mu = p[mu]
                    while p[k] != mu:
                        p[k], k = mu, p[k]
                k = delta
                nu = p[k]
                if p[nu] != nu:
                    nu = p[nu]
                    while p[nu] != nu:
                        nu = p[nu]
                    while p[k] != nu:
                        p[k], k = nu, p[k]
                b = fwd[mu]
                if b is not None:
                    a = nu
                else:
                    b = inv[nu]
                    if b is None:
                        fwd[mu] = nu
                        inv[nu] = mu
                        continue
                    a = mu
                k = b
                b = p[k]
                if p[b] != b:
                    b = p[b]
                    while p[b] != b:
                        b = p[b]
                    while p[k] != b:
                        p[k], k = b, p[k]
                if a == b:
                    continue
                if a > b:
                    a, b = b, a
                p[b] = a
                if b < first_dead:
                    first_dead = b
                queue.append(b)
                bits = closed[b]
                if bits:
                    closed[a] |= bits
        self.first_dead = first_dead

    # -- space management ----------------------------------------------

    def _make_room(self, alpha: int) -> int:
        """Lookahead collapse from alpha, then compaction (_compact).

        The lookahead scans every relator at each live coset from alpha
        on, skips the pairs marked in self.closed, and marks each scan
        that gets all the way round.  Cosets below alpha need no scan:
        HLT has scanned every relator there to closure.  Its scan is
        HLT's without the fill, written out on local names: it stops at
        a gap of two or more, but still applies the one forced deduction
        and every coincidence.  The marks are read once per coset: a bit
        that a coincidence adds to the mask meanwhile only lets a relator
        that already closes be scanned again, which changes nothing.

        Returns the new index of the first live coset at or after alpha;
        alpha itself may have died in the lookahead.
        """
        p, closed = self.p, self.closed
        coincidence = self._coincidence
        relators = [(1 << i, *self._bind(cols), len(cols) - 1)
                    for i, cols in enumerate(self.relator_cols)]
        # A scan can store c in the table, so c is p's int for the label,
        # not a second one made by the range.
        for c, label in enumerate(_tail(p, alpha), alpha):
            if label != c:
                continue
            c = label
            skip = closed[c]
            for bit, fwd, back, last in relators:
                if skip & bit:
                    continue
                f = b = c
                i, j = 0, last
                while i <= j:
                    nxt = fwd[i][f]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                        if p[c] != c:
                            break
                else:
                    while j >= i:
                        prv = back[j][b]
                        if prv is None:
                            break
                        b = prv
                        j -= 1
                    if j < i:
                        coincidence(f, b)
                        if p[c] != c:
                            break
                    elif j == i:
                        fwd[i][f] = b
                        back[i][b] = f
                    else:
                        # A gap: the relator does not close here yet.
                        continue
                closed[c] |= bit
        return self._compact(alpha)

    def _compact(self, alpha: int) -> int:
        """Drop the dead cosets in place, or raise LimitExceeded when every
        coset is live; returns alpha's index as _make_room does.

        Cosets below self.first_dead are all live and keep their labels
        (module docstring), so only the cosets from there on move.  Run
        calls this with the budget full, so the budget is exhausted
        exactly when no coset has died since the last compaction, and the
        raise comes before anything is written.

        One ascending pass turns p itself into the map from old labels to
        new ones, and moves closed down: a live coset takes the next
        label, a dead one its parent's, which the pass has already
        renumbered.  After it, coset c is live exactly when p[c] is the
        count of live cosets before it.  So one pass per generator moves
        the live cosets' entries in its column and its inverse column
        down to their new labels, mapped through p, and renumbers an
        entry of a fixed coset that points at a moved one through its
        inverse edge.  A last pass moves p's labels down, leaving the
        identity.  Nothing per coset is held beyond the lists compacted.

        A new label takes the int object of the live coset whose old
        label it is, the object the table already holds, so the table and
        p share one int per label, and a fresh one is made only where
        that coset was dead.  These objects wait in a queue, in ascending
        order, from the pass reaching their coset to the pass handing out
        their label: at most one per dead coset passed.  The marks below
        alpha's new index, which nothing reads again, are cleared.
        """
        p, closed = self.p, self.closed
        first = min(self.first_dead, len(p))
        if first >= self.limits.max_cosets:
            raise LimitExceeded(f"coset budget {self.limits.max_cosets} exhausted")
        # Alpha's new index is the count of live cosets before it.
        start = min(alpha, first) + sum(map(eq, _tail(p, first), range(first, alpha)))
        pending: deque[int] = deque()
        new = first
        for c, parent in enumerate(_tail(p, first), first):
            if parent != c:
                p[c] = p[parent]
                continue
            pending.append(parent)
            label = pending.popleft() if pending[0] == new else new
            p[c] = label
            closed[label] = closed[c]
            new += 1
        n = new
        del pending  # before the column passes, where the peak is
        # p is now the map from old labels to new ones, the one time it is.
        table = self.table
        # An involution's list is fwd and inv at once; each moved entry
        # then reads and writes the same slots twice, with the same value.
        for fwd, inv in zip(table[::2], table[1::2]):
            new = first
            for label, e, f in zip(_tail(p, first), _tail(fwd, first), _tail(inv, first)):
                if label != new:
                    continue
                if e is not None:
                    if e < first:
                        inv[e] = label
                    else:
                        e = p[e]
                fwd[new] = e
                if f is not None:
                    if f < first:
                        fwd[f] = label
                    else:
                        f = p[f]
                inv[new] = f
                new += 1
            del fwd[n:], inv[n:]
        new = first
        for label in _tail(p, first):
            if label == new:
                p[new] = label
                new += 1
        del p[n:], closed[n:]
        self.first_dead = self.limits.max_cosets
        # A block at a time: assigning one slice holds a list of the new
        # marks and one of the old, 16 B per coset of the range at once.
        for i in range(0, start, 1024):
            j = min(i + 1024, start)
            closed[i:j] = [0] * (j - i)
        return start

    # -- HLT -----------------------------------------------------------

    def _grow(self) -> int:
        """Extend every column with None and closed with 0 to the length
        _next_room gives, or to max_cosets when the step after that would
        pass it, and return the new length.  HLT calls this when len(p)
        reaches the lists' length; raises _NeedRoom when that is the
        budget."""
        n = len(self.p)
        max_cosets = self.limits.max_cosets
        if n >= max_cosets:
            raise _NeedRoom
        room = _next_room(n)
        if _next_room(room) > max_cosets:
            room = max_cosets
        step = room - n
        for column in self.lists:
            column.extend(repeat(None, step))
        self.closed.extend(repeat(0, step))
        return room

    def run(self) -> list[list[int | None]]:
        """HLT: at each live coset in turn, scan every relator not marked
        closed there, defining cosets to complete each scan, then define
        the coset's undefined entries.  Returns the raw table, every list
        as long as p.

        This is the enumerator's only filling scan, written out with its
        definitions and deductions on local names, since HLT's time is
        spent here.  The relators' columns are bound once, since the
        column lists are only ever changed in place.
        """
        table, p, closed, pairs = self.table, self.p, self.closed, self.pairs
        coincidence = self._coincidence
        room = len(p)  # the length of the columns and closed (_grow)
        # Scans skipped through closed are no-ops (module docstring).  Each
        # relator carries its mark walk as steps, one column list per hop,
        # when every hop is one letter, as hops when one is longer, and as
        # neither when it has none.  The hops repeat with period 1 or 2,
        # so the first two are every kind of hop there is.
        scans = []
        for i, cols in enumerate(self.relator_cols):
            hops = _mark_walk(cols, table)
            steps = None
            if hops and max(map(len, hops[:2])) == 1:
                steps, hops = tuple(map(itemgetter(0), hops)), None
            scans.append((1 << i, *self._bind(cols), len(cols) - 1, steps, hops))
        # The subgroup words are coset 0's first scans.  Their bit 0 marks
        # and skips nothing, so after _make_room(0) a word that already
        # closed is scanned again, which changes nothing.
        first_scans = [(0, *self._bind(cols), len(cols) - 1, None, None)
                       for cols in self.sub_cols] + scans
        alpha = 0
        while alpha < len(p):
            label = p[alpha]
            if label != alpha:
                alpha += 1
                continue
            # Scans and row fills store alpha in the table, so it is p's
            # int for the label, not a second one made by alpha += 1.
            alpha = label
            skip = closed[alpha]
            try:
                for bit, fwd, back, last, steps, hops in scans if alpha else first_scans:
                    if skip & bit:
                        continue
                    f = b = alpha
                    i, j = 0, last
                    while True:
                        while i <= j:
                            nxt = fwd[i][f]
                            if nxt is None:
                                break
                            f = nxt
                            i += 1
                        if i > j:
                            if f != b:
                                coincidence(f, b)
                            break
                        while j >= i:
                            prv = back[j][b]
                            if prv is None:
                                break
                            b = prv
                            j -= 1
                        if j < i:
                            coincidence(f, b)
                            break
                        # One entry missing is a deduction; more, a new
                        # coset at the front of the gap.
                        if j == i:
                            fwd[i][f] = b
                            back[i][b] = f
                            break
                        new = len(p)
                        if new == room:
                            room = self._grow()
                        p.append(new)
                        fwd[i][f] = new
                        back[i][new] = f
                        f = new
                        i += 1
                    if p[alpha] != alpha:
                        break
                    # The relator closes at alpha, so it closes where its
                    # loop reads it again: mark those cosets HLT has not
                    # reached yet.
                    if steps:
                        c = alpha
                        for column in steps:
                            c = column[c]
                            if c == alpha:
                                break
                            if c > alpha:
                                closed[c] |= bit
                    elif hops:
                        c = alpha
                        for hop in hops:
                            for column in hop:
                                c = column[c]
                            if c == alpha:
                                break
                            if c > alpha:
                                closed[c] |= bit
                if p[alpha] == alpha:
                    for fwd, inv in pairs:
                        if fwd[alpha] is not None:
                            continue
                        new = len(p)
                        if new == room:
                            room = self._grow()
                        p.append(new)
                        fwd[alpha] = new
                        inv[new] = alpha
            except _NeedRoom:
                alpha = self._make_room(alpha)
                room = len(p)
                continue
            alpha += 1
        n = len(p)
        for column in self.lists:
            del column[n:]
        del closed[n:]
        return table


def _involutions(relator_cols: Iterable[tuple[int, ...]]) -> frozenset[int]:
    """The generators g with a relator g^2 or g^-2, whose g and g^-1 then
    share one column list (module docstring)."""
    return frozenset(cols[0] >> 1 for cols in relator_cols
                     if len(cols) == 2 and cols[0] == cols[1])


def _next_room(n: int) -> int:
    """The length _grow extends lists of length n to: a step of at least
    a seventh of n plus 8, and 64, up to a multiple of 4.  CPython's
    list_resize over-allocates by an eighth of the new length plus 6,
    rounded down to a multiple of 4, unless the step is larger than that;
    then it allocates the new length, rounded up to a multiple of 4.  A
    step of n // 7 + 8 is larger, so the lists hold no unused capacity."""
    return (n + max(n // 7 + 8, 64) + 3) & ~3


def _tail(items: list, start: int) -> Iterator:
    """An iterator over items from index start on, without the copy a
    slice makes or the start steps islice takes: a list iterator moved to
    start, as unpickling one does."""
    it = iter(items)
    it.__setstate__(start)
    return it


def _picker(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """itemgetter(*indices), which picks the items at indices as a tuple;
    with one index, where itemgetter picks the item itself, a function
    that picks it as a tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda items: (items[i],)
    return itemgetter(*indices)


def _standardize(table: list[list[int | None]], p: list[int]) -> tuple[tuple[int, ...], ...]:
    """Number the live cosets breadth-first from coset 0 in column order,
    and return the standardized columns, one tuple per raw column.

    One pass over the raw labels: when run returns, no live coset points
    at a dead one (module docstring), so the traversal from coset 0 meets
    only live cosets, and neither the union-find nor the dead cosets'
    entries are read.  It reads each distinct list once: an involution's
    second column holds the same entries.  Raises AssertionError when a
    coset it reaches has an undefined entry or when it does not reach
    every live coset.

    Each standardized column is two itemgetter picks (_picker): the
    order's pick of the raw column gives its entries in the new order,
    and their pick of the new labels gives the column.  Each raw column
    is emptied in place between the two, so the raw table is gone when
    this returns.  An involution's one list gives one tuple, which stands
    for both its columns.

    _column_paths relies on this numbering: it reads each coset's
    shortlex path off the labels, with no search of its own.
    """
    # pos[d] is raw label d's new label, -1 until the traversal reaches d.
    pos = [-1] * len(p)
    pos[0] = 0
    order = [0]
    # Each distinct list once: an involution's second visit finds nothing new.
    lists = [column for col, column in enumerate(table)
             if not col & 1 or column is not table[col - 1]]
    for c in order:
        for column in lists:
            d = column[c]
            if d is None:
                raise AssertionError("enumeration finished with an incomplete row")
            if pos[d] < 0:
                pos[d] = len(order)
                order.append(d)
    if len(order) != sum(map(eq, p, range(len(p)))):
        raise AssertionError("completed table is not transitive")
    pick = _picker(order)
    del order
    columns = []
    for col, column in enumerate(table):
        if col & 1 and column is table[col - 1]:
            # An involution's one list, emptied already: its column again.
            columns.append(columns[-1])
            continue
        entries = pick(column)
        # Emptied before the labels are picked, so the entries, the new
        # column and the whole raw column are never held at once.
        column.clear()
        columns.append(_picker(entries)(pos))
    return tuple(columns)


def enumerate_cosets(pres: Presentation, subgroup: Iterable[Word] = (),
                     limits: EnumerationLimits | None = None) -> CosetTable:
    """Enumerate cosets of <subgroup> in the presented group.

    Returns a complete standardized CosetTable or raises LimitExceeded;
    a partial table is never returned.  The result is deterministic for
    equal inputs.
    """
    subgroup = tuple(subgroup)
    limits = limits or EnumerationLimits()
    enum = _Enumerator(pres, subgroup, limits)
    columns = _standardize(enum.run(), enum.p)
    del enum  # free its p, closed and emptied columns before verifying
    result = CosetTable(
        generator_names=pres.generator_names,
        # With no generators the group is trivial: one coset, no columns.
        n_cosets=len(columns[0]) if columns else 1,
        columns=columns,
        subgroup_generators=subgroup,
    )
    verify_coset_table(result, pres)
    return result


def group_order(pres: Presentation, limits: EnumerationLimits | None = None) -> int:
    """Order of the presented group: cosets of the trivial subgroup."""
    return enumerate_cosets(pres, (), limits).n_cosets


def trace_word(table: CosetTable, start: int, w: Word) -> int:
    """Coset reached from start by applying w letter by letter."""
    if not 0 <= start < table.n_cosets:
        raise ValueError(f"coset {start} out of range")
    if w.max_generator_index() >= len(table.generator_names):
        raise ValueError("word uses a generator outside the table's alphabet")
    c = start
    columns = table.columns
    for col in letter_columns(w):
        c = columns[col][c]
    return c


def _column_paths(table: CosetTable) -> list[tuple[int, ...]]:
    """The shortlex-least column path from coset 0 to each coset, by coset.
    _standardize numbers cosets as a breadth-first search in column order
    meets them, so, reading the entries in label order and then column
    order, coset d is first met as the entry equal to the number of paths
    found so far.  A larger entry, or a row never reached, means the table
    is not standardized: ValueError, since coset_words takes any table."""
    paths: list[tuple[int, ...]] = [()]
    columns = table.columns
    for c, path in enumerate(paths):
        for col, column in enumerate(columns):
            d = column[c]
            if d >= len(paths):
                if d > len(paths):
                    raise ValueError("table is not standardized")
                paths.append(path + (col,))
    if len(paths) != table.n_cosets:
        raise ValueError("table is not standardized")
    return paths


def _require_regular(table: CosetTable, caller: str) -> None:
    """Refuse a table of cosets of a non-trivial subgroup, naming caller."""
    if table.subgroup_generators:
        raise ValueError(f"{caller} needs the table of the trivial subgroup")


def _orbit_index(regular: CosetTable, paths: Iterable[Sequence[int]]) -> int:
    """[G:H] for H generated by the elements the column paths reach.

    In the table of cosets of the trivial subgroup every coset is a group
    element, so the orbit of coset 0 under the generators is H itself and
    [G:H] = |G| / |H|.  The one orbit loop, which subgroup_index and the
    dashed-arc sweep run on a table they have checked with
    _require_regular and on paths they have checked against the alphabet.
    """
    columns = regular.columns
    # Each path's column lists, bound once, as _Enumerator._bind does.
    path_cols = [[columns[col] for col in path] for path in paths]
    seen = bytearray(regular.n_cosets)
    seen[0] = 1
    orbit = [0]
    for c in orbit:
        for cols in path_cols:
            d = c
            for column in cols:
                d = column[d]
            if not seen[d]:
                seen[d] = 1
                orbit.append(d)
    return regular.n_cosets // len(orbit)


def subgroup_index(regular: CosetTable, words: Iterable[Word]) -> int:
    """Index of <words> in a finite group, read off its regular table:
    enumerate_cosets(pres, words).n_cosets without a second enumeration,
    by the orbit loop _orbit_index that the dashed-arc sweep runs too."""
    _require_regular(regular, "subgroup_index")
    words = tuple(words)
    if any(w.max_generator_index() >= len(regular.generator_names) for w in words):
        raise ValueError("word uses a generator outside the table's alphabet")
    return _orbit_index(regular, map(letter_columns, words))


def coset_words(table: CosetTable) -> tuple[Word, ...]:
    """The shortlex-least word reaching each coset from coset 0, by coset:
    the words of _column_paths, the pass over the labels the dashed-arc
    sweep runs too.  On the regular table these are the words of
    enumerate_elements(permutation_rep(table)), in the same order.
    ValueError when table is not standardized."""
    return tuple(map(column_word, _column_paths(table)))


def permutation_rep(table: CosetTable) -> PermGroup:
    """Generator actions on cosets as a permutation group on 0..n_cosets-1."""
    gens = []
    for name, images in zip(table.generator_names, table.columns[::2]):
        gens.append((name, Permutation(tuple(images))))
    return PermGroup(degree=table.n_cosets, generators=tuple(gens))


def verify_coset_table(table: CosetTable, pres: Presentation) -> None:
    """Check that table is a complete coset table of pres and its subgroup.

    Checks, in this order: 2 * n_generators columns of n_cosets entries,
    each in range; inverse pairing; every relator closing at every coset;
    every subgroup generator fixing coset 0.  Raises AssertionError
    naming the first failure.  The work is on whole columns (see the
    module docstring): a relator w^k costs one composition per letter of
    w and about log2(k) squarings, with no Python loop over cosets.
    """
    n = table.n_cosets
    ncols = 2 * pres.n_generators
    columns = table.columns
    if len(columns) != ncols:
        raise AssertionError(f"table has {len(columns)} columns, wanted {ncols}")
    rows = len(columns[0]) if columns else n
    if n < 1 or rows != n:
        raise AssertionError(f"table has {rows} rows, n_cosets is {n}")
    # Range first: a -1 entry would otherwise index from the end below.
    for col, column in enumerate(columns):
        if len(column) != n:
            raise AssertionError(f"column {col} has {len(column)} rows, n_cosets is {n}")
        if col & 1 and column is columns[col - 1]:
            continue  # an involution's one tuple, checked already
        if min(column) < 0 or max(column) >= n:
            c = next(c for c, d in enumerate(column) if not 0 <= d < n)
            raise AssertionError(f"entry ({c},{col}) out of range")
    # Every composition is a tuple: column after perm is one _picker pick,
    # _picker(perm)(column).  So the identity it is compared with is one.
    identity = tuple(range(n))
    # inv o fwd = identity makes fwd injective, so on a finite set both
    # are bijections and fwd o inv = identity as well.
    for col in range(0, ncols, 2):
        fwd, inv = columns[col], columns[col + 1]
        back = _picker(fwd)(inv)
        if back != identity:
            c = next(c for c in identity if back[c] != c)
            raise AssertionError(f"entry ({c},{col}) has no inverse pairing")
    for r, cols in zip(pres.relators, pres.relator_columns):
        root, k = _primitive_root(cols)
        perm = tuple(columns[root[0]])  # the column itself, if a tuple
        for col in root[1:]:
            perm = _picker(perm)(columns[col])
        # Square-and-multiply: perm runs through p_w^(2^i), power gathers p_w^k.
        power = None
        while True:
            if k & 1:
                power = perm if power is None else _picker(power)(perm)
            k >>= 1
            if not k:
                break
            perm = _picker(perm)(perm)
        if power != identity:
            c = next(c for c in identity if power[c] != c)
            raise AssertionError(f"relator {format_word(r, pres.generator_names)} "
                                 f"does not close at coset {c}")
    for w in table.subgroup_generators:
        if trace_word(table, 0, w) != 0:
            raise AssertionError("subgroup generator does not stabilize coset 0")


def table_to_tsv(table: CosetTable) -> str:
    """Tab-separated dump: one row per coset, one column per signed generator."""
    headers = ["coset"]
    for name in table.generator_names:
        headers.extend([name, f"{name}^-1"])
    lines = ["\t".join(headers)]
    for row in zip(range(table.n_cosets), *table.columns):
        lines.append("\t".join(map(str, row)))
    return "\n".join(lines) + "\n"
