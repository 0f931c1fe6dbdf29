"""Permutation groups via breadth-first closure with hashed images.

Permutations act on the right and compose left-to-right: (p * q) sends
a point through p first, then q, matching how words trace through coset
tables.  Element enumeration is a breadth-first walk of the Cayley
graph over the signed alphabet in column order (g0, g0^-1, g1, ...), so
each element's representative word is shortlex-minimal for that order
and entry 0 is always (identity, empty word).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitExceeded
from .words import Word

__all__ = [
    "Permutation",
    "PermGroup",
    "ElementList",
    "evaluate_word",
    "enumerate_elements",
    "group_order_perm",
]

DEFAULT_MAX_ORDER = 100_000


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images are not a bijection on 0..n-1")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == image for i, image in enumerate(self.images))


@dataclass(frozen=True)
class PermGroup:
    """Named generator permutations of a common degree."""

    degree: int
    generators: tuple[tuple[str, Permutation], ...]

    def __post_init__(self) -> None:
        for name, perm in self.generators:
            if perm.degree != self.degree:
                raise ValueError(f"generator {name!r} has a different degree")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def letter_permutation(self, letter: int) -> Permutation:
        index = abs(letter) - 1
        if not 0 <= index < len(self.generators):
            raise ValueError("word uses a generator outside the group's alphabet")
        perm = self.generators[index][1]
        return perm if letter > 0 else perm.inverse()


@dataclass(frozen=True)
class ElementList:
    """Closure of a PermGroup: (permutation, shortlex representative word) pairs."""

    entries: tuple[tuple[Permutation, Word], ...]

    def __len__(self) -> int:
        return len(self.entries)


def evaluate_word(group: PermGroup, w: Word) -> Permutation:
    """The permutation of w, letters applied left to right."""
    result = Permutation.identity(group.degree)
    for letter in w.letters:
        result = result * group.letter_permutation(letter)
    return result


def enumerate_elements(group: PermGroup, max_order: int = DEFAULT_MAX_ORDER) -> ElementList:
    """Breadth-first closure of the generators; LimitExceeded past max_order."""
    letters = []
    for i in range(len(group.generators)):
        letters.append((i + 1, group.generators[i][1]))
        letters.append((-(i + 1), group.generators[i][1].inverse()))
    identity = Permutation.identity(group.degree)
    entries: list[tuple[Permutation, Word]] = [(identity, Word.identity())]
    seen = {identity.images}
    qi = 0
    while qi < len(entries):
        perm, word = entries[qi]
        qi += 1
        for letter, letter_perm in letters:
            nxt = perm * letter_perm
            if nxt.images not in seen:
                if len(entries) >= max_order:
                    raise LimitExceeded(f"element budget {max_order} exhausted")
                seen.add(nxt.images)
                entries.append((nxt, Word(word.letters + (letter,))))
    return ElementList(tuple(entries))


def group_order_perm(group: PermGroup, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """Order of the generated permutation group."""
    return len(enumerate_elements(group, max_order))
