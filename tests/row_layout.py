"""The enumerator on a raw table of rows: the layout the column lists replace.

RowLayoutEnumerator is HLT, its lookahead, its in-place compaction and
its long-power marks exactly as they ran when the raw table held one list
per coset: table[c][col] where coset.py now reads table[col][c].  The
column layout must leave the same raw state as this one (the transposed
table, p, closed and first_dead), give up at the same point, and
standardize to the same table; test_coset.py checks that.

Its compaction renumbers through renumber, which builds the map from old
labels to new ones as a list of its own, next to p.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import eq

from orbisym.coset import _Enumerator, _NeedRoom, _power_root
from orbisym.errors import LimitExceeded


def renumber(p, start=0):
    """(live, renum): the live cosets from start on, in order, and for
    every old label, dead or live, the new label of its representative
    once the dead cosets are dropped.

    Every label below start must be live: those keep their labels, and
    one ascending pass from start, with no find, numbers the rest.  A
    dead coset's parent is a smaller label (merges keep the smaller
    label), so its new label is already known when the pass reaches it.
    """
    live = []
    # p is the identity below start, where every label is live.
    renum = p[:start]
    new = start
    for c, parent in enumerate(p[start:], start):
        if parent == c:
            renum.append(new)
            live.append(parent)
            new += 1
        else:
            renum.append(renum[parent])
    return live, renum


class RowLayoutEnumerator(_Enumerator):
    def __init__(self, *args):
        super().__init__(*args)
        self.table = [[None] * self.ncols]

    def _coincidence(self, a, b):
        table, p, closed = self.table, self.p, self.closed
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
        for gamma in queue:
            for col, delta in enumerate(table[gamma]):
                if delta is None:
                    continue
                inv = col ^ 1
                table[delta][inv] = None
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
                b = table[mu][col]
                if b is not None:
                    a = nu
                else:
                    b = table[nu][inv]
                    if b is None:
                        table[mu][col] = nu
                        table[nu][inv] = mu
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

    def _scan(self, alpha, cols):
        table = self.table
        f = b = alpha
        i, j = 0, len(cols) - 1
        while i <= j:
            nxt = table[f][cols[i]]
            if nxt is None:
                break
            f = nxt
            i += 1
        if i > j:
            if f != b:
                self._coincidence(f, b)
            return True
        while j >= i:
            prv = table[b][cols[j] ^ 1]
            if prv is None:
                break
            b = prv
            j -= 1
        if j < i:
            self._coincidence(f, b)
            return True
        if j == i:
            table[f][cols[i]], table[b][cols[i] ^ 1] = b, f
            return True
        return False

    def _make_room(self, alpha):
        p, closed = self.p, self.closed
        relators = [(1 << i, cols) for i, cols in enumerate(self.relator_cols)]
        for c in range(alpha, len(self.table)):
            if p[c] != c:
                continue
            for bit, cols in relators:
                if closed[c] & bit:
                    continue
                closes = self._scan(c, cols)
                if p[c] != c:
                    break
                if closes:
                    closed[c] |= bit
        return self._compact(alpha)

    def _compact(self, alpha):
        table, p, closed = self.table, self.p, self.closed
        first = min(self.first_dead, len(p))
        live, renum = renumber(p, first)
        n = first + len(live)
        if n >= self.limits.max_cosets:
            raise LimitExceeded(f"coset budget {self.limits.max_cosets} exhausted")
        for new, old in enumerate(live, first):
            row = table[old]
            for col, e in enumerate(row):
                if e is None:
                    continue
                if e < first:
                    table[e][col ^ 1] = new
                else:
                    row[col] = renum[e]
            table[new] = row
            closed[new] = closed[old]
        del table[n:], closed[n:]
        p[first:] = range(first, n)
        self.first_dead = self.limits.max_cosets
        start = alpha if alpha < first else first + bisect_left(live, alpha)
        closed[:start] = [0] * start
        return start

    def run(self):
        ncols = self.ncols
        max_cosets = self.limits.max_cosets
        relators = [(1 << i, cols, _power_root(cols))
                    for i, cols in enumerate(self.relator_cols)]
        first_scans = [(0, cols, None) for cols in self.sub_cols] + relators
        table, p, closed = self.table, self.p, self.closed
        alpha = 0
        while alpha < len(table):
            if p[alpha] != alpha:
                alpha += 1
                continue
            skip = closed[alpha]
            try:
                for bit, cols, root in relators if alpha else first_scans:
                    if skip & bit:
                        continue
                    f = b = alpha
                    i, j = 0, len(cols) - 1
                    while True:
                        while i <= j:
                            nxt = table[f][cols[i]]
                            if nxt is None:
                                break
                            f = nxt
                            i += 1
                        if i > j:
                            if f != b:
                                self._coincidence(f, b)
                            break
                        while j >= i:
                            prv = table[b][cols[j] ^ 1]
                            if prv is None:
                                break
                            b = prv
                            j -= 1
                        if j < i:
                            self._coincidence(f, b)
                            break
                        col = cols[i]
                        if j == i:
                            new = b
                        else:
                            new = len(table)
                            if new >= max_cosets:
                                raise _NeedRoom
                            table.append([None] * ncols)
                            p.append(new)
                            closed.append(0)
                        table[f][col] = new
                        table[new][col ^ 1] = f
                        if j == i:
                            break
                        f = new
                        i += 1
                    if p[alpha] != alpha:
                        break
                    if root is not None:
                        self._mark_closed(alpha, root, len(cols) // len(root), bit)
                if p[alpha] == alpha:
                    row = table[alpha]
                    for col, e in enumerate(row):
                        if e is not None:
                            continue
                        new = len(table)
                        if new >= max_cosets:
                            raise _NeedRoom
                        table.append([None] * ncols)
                        p.append(new)
                        closed.append(0)
                        row[col] = new
                        table[new][col ^ 1] = alpha
            except _NeedRoom:
                alpha = self._make_room(alpha)
                table, p, closed = self.table, self.p, self.closed
                continue
            alpha += 1
        return table

    def _mark_closed(self, alpha, root, k, bit):
        table = self.table
        closed = self.closed
        c = alpha
        for _ in range(k - 1):
            for col in root:
                c = table[c][col]
            if c == alpha:
                break
            if c > alpha:
                closed[c] |= bit


def row_standardize(table, p):
    """_standardize on a raw table of rows."""
    pos = [-1] * len(table)
    pos[0] = 0
    order = [0]
    for c in order:
        row = table[c]
        if None in row:
            raise AssertionError("enumeration finished with an incomplete row")
        for d in row:
            if pos[d] < 0:
                pos[d] = len(order)
                order.append(d)
    if len(order) != sum(map(eq, p, range(len(p)))):
        raise AssertionError("completed table is not transitive")
    return tuple(tuple([pos[d] for d in table[c]]) for c in order)
