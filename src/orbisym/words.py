"""Freely reduced words over a finite generator alphabet.

A word is stored as a tuple of nonzero signed letters: letter ``k + 1``
stands for generator ``k`` and ``-(k + 1)`` for its inverse.  Every Word
is freely reduced on construction, so equality of tuples is equality in
the free group.

Word text follows the grammar

    word    := term ('*' term)*
    term    := atom ('^' integer)?
    atom    := identifier | '(' word ')' | '1'
    integer := '-'? [0-9]+

with insignificant whitespace.  The bare atom ``1`` denotes the empty
word; it is also what the canonical printer emits for it, so
``parse_word(format_word(w, names), names) == w`` holds for every word.

The parser sizes each power and product before building it: a word
over MAX_WORD_LETTERS letters, counted before free reduction, or
parentheses nested deeper than MAX_NESTING, is a WordSyntaxError that
names the position; so is an integer of over 18 digits, never converted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import UnknownGenerator, WordSyntaxError

__all__ = [
    "Word",
    "parse_word",
    "format_word",
    "conjugate",
    "exponent_vector_mod2",
    "MAX_WORD_LETTERS",
    "MAX_NESTING",
]

# The longest word the parser and the family presentations build.  Every
# catalog case and benchmark input is far below it: the longest, family
# 15E at n=2000, has a 2000-letter relator.
MAX_WORD_LETTERS = 1_000_000

# The deepest nesting of parentheses the parser accepts.
MAX_NESTING = 100


def _reduce(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("letter 0 is not a signed generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """An immutable, freely reduced word; hashable and comparable."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _reduce(self.letters))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def generator(index: int) -> "Word":
        if index < 0:
            raise ValueError("generator index must be non-negative")
        return Word((index + 1,))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else ~self
        return Word(base.letters * abs(n))

    def syllables(self) -> Iterator[tuple[int, int]]:
        """Yield (generator index, signed run length) for printing."""
        i = 0
        letters = self.letters
        while i < len(letters):
            j = i
            while j < len(letters) and letters[j] == letters[i]:
                j += 1
            index = abs(letters[i]) - 1
            exponent = (j - i) if letters[i] > 0 else -(j - i)
            yield index, exponent
            i = j

    def max_generator_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((abs(l) - 1 for l in self.letters), default=-1)


def letter_columns(w: Word) -> tuple[int, ...]:
    """w's letters as coset-table columns: 2*i for generator i, 2*i+1 for its inverse."""
    return tuple(2 * (abs(l) - 1) + (0 if l > 0 else 1) for l in w.letters)


def column_word(cols: Sequence[int]) -> Word:
    """The word whose letter_columns are cols."""
    return Word(tuple(-(col // 2 + 1) if col & 1 else col // 2 + 1 for col in cols))


def conjugate(w: Word, c: Word) -> Word:
    """The conjugate c * w * c^-1."""
    return c * w * ~c


def exponent_vector_mod2(w: Word, n_generators: int) -> tuple[int, ...]:
    """Per-generator exponent sums mod 2, as a bit tuple of length n_generators."""
    if w.max_generator_index() >= n_generators:
        raise ValueError("word uses a generator outside the alphabet")
    bits = [0] * n_generators
    for letter in w.letters:
        bits[abs(letter) - 1] ^= 1
    return tuple(bits)


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?[0-9]+)|(?P<op>[*^()]))")

# Over the letter limit as any letter's power; int() refuses thousands of digits.
_MAX_INTEGER_DIGITS = 18


def parse_integer(text: str, where: str = "") -> int:
    """text, stripped, as '-'? [0-9]+ in ASCII of at most 18 digits; where locates an error."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise WordSyntaxError(f"not an integer: {text.strip()!r}")
    if len(digits) > _MAX_INTEGER_DIGITS:
        raise WordSyntaxError(f"integer of {len(digits)} digits{where} is over the "
                              f"{_MAX_INTEGER_DIGITS}-digit limit")
    return int(text)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise WordSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int") is not None:
            where = f" at position {m.start('int')}"
            tokens.append(("int", parse_integer(m.group("int"), where), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def _check_length(letters: int, at: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise WordSyntaxError(f"word of {letters} letters at position {at} "
                              f"is over the {MAX_WORD_LETTERS}-letter limit")


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], alphabet: Sequence[str],
                 aliases: Mapping[str, Word]):
        self.tokens = tokens
        self.pos = 0
        self.index = {name: i for i, name in enumerate(alphabet)}
        self.aliases = aliases
        self.depth = 0

    def peek(self) -> tuple[str, object, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, object, int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of word")
        self.pos += 1
        return tok

    def word(self) -> Word:
        result = self.term()
        tok = self.peek()
        if tok is None or tok[:2] != ("op", "*"):
            return result
        # The product so far, freely reduced, as a stack of letters.  Each
        # factor is freely reduced too, so only the letters that meet at
        # the join can cancel: a product of k terms costs its letters
        # once, not k partial Words.
        letters = list(result.letters)
        while tok is not None and tok[:2] == ("op", "*"):
            self.pos += 1
            factor = self.term().letters
            _check_length(len(letters) + len(factor), tok[2])
            k = 0
            while k < len(factor) and letters and letters[-1] == -factor[k]:
                letters.pop()
                k += 1
            letters.extend(factor[k:])
            tok = self.peek()
        return Word(tuple(letters))

    def term(self) -> Word:
        atom = self.atom()
        tok = self.peek()
        if tok is not None and tok[:2] == ("op", "^"):
            self.pos += 1
            kind, value, at = self.take()
            if kind != "int":
                raise WordSyntaxError(f"expected integer exponent at position {at}")
            n = int(value)  # type: ignore[arg-type]
            _check_length(len(atom) * abs(n), at)
            return atom ** n
        return atom

    def atom(self) -> Word:
        kind, value, at = self.take()
        if kind == "name":
            name = str(value)
            if name in self.index:
                return Word.generator(self.index[name])
            if name in self.aliases:
                return self.aliases[name]
            raise UnknownGenerator(f"unknown generator {name!r}")
        if kind == "int":
            if value == 1:
                return Word.identity()
            raise WordSyntaxError(f"unexpected integer {value} at position {at}")
        if (kind, value) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise WordSyntaxError(f"parentheses nested deeper than {MAX_NESTING} "
                                      f"at position {at}")
            self.depth += 1
            inner = self.word()
            self.depth -= 1
            kind, value, at = self.take()
            if (kind, value) != ("op", ")"):
                raise WordSyntaxError(f"expected ')' at position {at}")
            return inner
        raise WordSyntaxError(f"unexpected {value!r} at position {at}")


def parse_word(text: str, alphabet: Sequence[str],
               aliases: Mapping[str, Word] | None = None) -> Word:
    """Parse text to a freely reduced Word over the given generator names.

    aliases maps extra names to already-parsed words; they expand inline.
    """
    parser = _Parser(_tokenize(text), alphabet, aliases or {})
    if parser.peek() is None:
        raise WordSyntaxError("empty word text (use '1' for the identity)")
    result = parser.word()
    tok = parser.peek()
    if tok is not None:
        raise WordSyntaxError(f"trailing input at position {tok[2]}")
    return result


def format_word(w: Word, alphabet: Sequence[str]) -> str:
    """Canonical text: '*'-separated syllables with '^k' collapsing, '1' if empty."""
    if not w:
        return "1"
    parts = []
    for index, exponent in w.syllables():
        if index >= len(alphabet):
            raise ValueError("word uses a generator outside the alphabet")
        name = alphabet[index]
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
    return "*".join(parts)
