"""Homomorphisms onto Z2 with prescribed images of chosen words.

A map G -> Z2 factors through the mod-2 abelianization, so each relator
contributes the linear equation <exponent vector, h> = 0 over GF(2) and
each constraint word the equation <exponent vector, h> = target bit.
Rows are int bitsets; Gaussian elimination keeps reduced row echelon
form so a witness generator assignment falls out of the pivot rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrbisymError, WordSyntaxError, at
from .presentation import Presentation
from .words import Word, exponent_vector_mod2, parse_word

__all__ = ["Z2Constraint", "Z2HomResult", "parse_constraint", "solve_hom_to_z2"]


@dataclass(frozen=True)
class Z2Constraint:
    """Require the constraint word to map to the given bit."""

    word: Word
    target: int

    def __post_init__(self) -> None:
        if self.target not in (0, 1):
            raise ValueError("target must be 0 or 1")


def parse_constraint(item: str, names: tuple[str, ...], aliases: dict[str, Word],
                     source: str) -> Z2Constraint:
    """The constraint WORD=BIT in item, the word parsed before the bit.

    Every error names source (a flag or clause) and the item.  A missing
    '=', or a BIT that is not exactly 0 or 1 once stripped, is a
    WordSyntaxError; an error in the word is the word parser's.
    """
    word_text, sep, bit_text = item.rpartition("=")
    if sep:
        try:
            word = parse_word(word_text.strip(), names, aliases)
        except (OrbisymError, ValueError) as exc:
            raise at(f"{source} item {item!r}", exc) from None
    if not sep or bit_text.strip() not in ("0", "1"):
        raise WordSyntaxError(f"{source} needs WORD=BIT with BIT 0 or 1, got {item!r}")
    return Z2Constraint(word, int(bit_text))


@dataclass(frozen=True)
class Z2HomResult:
    """Solvability verdict plus one witness generator assignment."""

    solvable: bool
    assignment: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.solvable and self.assignment is None:
            raise ValueError("solvable result needs a witness assignment")
        if not self.solvable and self.assignment is not None:
            raise ValueError("unsolvable result cannot carry an assignment")


def _bitmask(w: Word, n: int) -> int:
    mask = 0
    for i, bit in enumerate(exponent_vector_mod2(w, n)):
        mask |= bit << i
    return mask


def solve_hom_to_z2(pres: Presentation, constraints: tuple[Z2Constraint, ...] | list[Z2Constraint]) -> Z2HomResult:
    """Decide whether some h: G -> Z2 satisfies every constraint."""
    n = pres.n_generators
    rows = [(_bitmask(r, n), 0) for r in pres.relators]
    rows += [(_bitmask(c.word, n), c.target) for c in constraints]
    pivots: list[tuple[int, int, int]] = []  # (column, mask, rhs), kept in RREF
    for mask, rhs in rows:
        for col, pmask, prhs in pivots:
            if (mask >> col) & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs == 1:
                return Z2HomResult(solvable=False, assignment=None)
            continue
        col = (mask & -mask).bit_length() - 1
        pivots = [
            (pc, pm ^ mask, pr ^ rhs) if (pm >> col) & 1 else (pc, pm, pr)
            for pc, pm, pr in pivots
        ]
        pivots.append((col, mask, rhs))
    assignment = [0] * n
    for col, _, rhs in pivots:
        assignment[col] = rhs  # free columns stay 0, so the pivot bit is the rhs
    return Z2HomResult(solvable=True, assignment=tuple(assignment))
