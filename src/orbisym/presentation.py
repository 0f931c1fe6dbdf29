"""Finite group presentations and their line-oriented file format.

File format, one directive per line, '#' starts a comment:

    generators: x y z
    alias midarc = x*y*z^-1*x^-1
    relators: x^5 y^2 z^2 (x*z)^3 (x*y)^2 (y*z^-1)^2

Aliases must be declared before use and expand inline; they are not
stored on the Presentation.  Relators are kept freely reduced but not
cyclically reduced.  Every input file, case files too, follows one line
rule (``directives``): a line ends at \\n, \\r\\n or \\r only, '#' cuts
it, and its keyword is a whole word ('aliasm' is not 'alias').
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import (
    DuplicateGenerator,
    EmptyRelator,
    InvalidParameter,
    OrbisymError,
    WordSyntaxError,
    at,
)
from .words import MAX_WORD_LETTERS, Word, format_word, letter_columns, parse_word

__all__ = [
    "Presentation",
    "load_presentation",
    "load_presentation_with_aliases",
    "dump_presentation",
    "family_15e",
    "family_19",
]

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# str.splitlines would also end a line at \v, \f, \x1c-\x1e, U+0085,
# U+2028 and U+2029, and so read the rest of a comment as input.
_LINE_BREAK = re.compile(r"\r\n?|\n")
# A line's keyword runs to its first blank, or through its first colon.
_KEYWORD = re.compile(r"[^\s:]*:?")

T = TypeVar("T")
Directive = tuple[int, str, str, str]


def _check_generator_names(names: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for name in names:
        if not _NAME.match(name):
            raise WordSyntaxError(f"invalid generator name {name!r}")
        if name in seen:
            raise DuplicateGenerator(f"generator {name!r} declared twice")
        seen.add(name)


def directives(text: str) -> Iterator[Directive]:
    """(number from 1, line, keyword, rest of the line) for each line of
    text that is not blank once '#' has cut it."""
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            keyword = _KEYWORD.match(line).group()
            yield lineno, line, keyword, line[len(keyword):].strip()


def read_file(path: str | Path, parse: Callable[[str], T]) -> T:
    """parse applied to the UTF-8 text of the file at path; every error
    names the path, and a byte that is not UTF-8 its line too."""
    try:
        data = Path(path).read_bytes()
        return parse(data.decode())
    # parse neither reads a file nor decodes bytes
    except OSError as exc:
        raise OrbisymError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        lineno = len(_LINE_BREAK.findall(data[:exc.start].decode())) + 1
        raise WordSyntaxError(f"{path}: line {lineno}: byte {data[exc.start]:#04x} "
                              f"is not UTF-8") from None
    except (OrbisymError, ValueError) as exc:
        raise at(str(path), exc) from None


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced relator words."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        _check_generator_names(self.generator_names)
        for r in self.relators:
            if not r:
                raise EmptyRelator("relator freely reduces to the empty word")
            if r.max_generator_index() >= len(self.generator_names):
                raise WordSyntaxError("relator uses a generator outside the alphabet")

    @property
    def n_generators(self) -> int:
        return len(self.generator_names)

    @cached_property
    def relator_columns(self) -> tuple[tuple[int, ...], ...]:
        """Each relator as coset-table columns (see ``letter_columns``), computed once."""
        return tuple(letter_columns(r) for r in self.relators)


def load_presentation_with_aliases(text: str) -> tuple[Presentation, dict[str, Word]]:
    """Parse the file format; returns the presentation and its alias map."""
    return presentation_from(directives(text))


def presentation_from(lines: Iterable[Directive]) -> tuple[Presentation, dict[str, Word]]:
    """The presentation and alias map of the given lines of the file format;
    an error names the line it is on."""
    names: tuple[str, ...] | None = None
    aliases: dict[str, Word] = {}
    relators: list[Word] = []
    for lineno, _, keyword, rest in lines:
        try:
            if keyword == "generators:":
                if names is not None:
                    raise WordSyntaxError("generators declared twice")
                names = tuple(rest.split())
                if not names:
                    raise WordSyntaxError("empty generator list")
                _check_generator_names(names)
            elif keyword == "alias":
                if names is None:
                    raise WordSyntaxError("alias before generators line")
                if "=" not in rest:
                    raise WordSyntaxError("alias needs 'alias name = word'")
                name, expr = (part.strip() for part in rest.split("=", 1))
                if not _NAME.match(name):
                    raise WordSyntaxError(f"invalid alias name {name!r}")
                if name in names or name in aliases:
                    raise DuplicateGenerator(f"name {name!r} declared twice")
                aliases[name] = parse_word(expr, names, aliases)
            elif keyword == "relators:":
                if names is None:
                    raise WordSyntaxError("relators before generators line")
                for token in rest.split():
                    relator = parse_word(token, names, aliases)
                    if not relator:
                        raise EmptyRelator("relator freely reduces to the empty word")
                    relators.append(relator)
            else:
                raise WordSyntaxError(f"unrecognized directive {keyword!r}")
        except (OrbisymError, ValueError) as exc:
            raise at(f"line {lineno}", exc) from None
    if names is None:
        raise WordSyntaxError("missing generators line")
    return Presentation(names, tuple(relators)), aliases


def load_presentation(text: str) -> Presentation:
    """Parse the file format, discarding aliases."""
    return load_presentation_with_aliases(text)[0]


def dump_presentation(p: Presentation) -> str:
    """Re-serialize to the file format (same generators, same reduced relators)."""
    lines = ["generators: " + " ".join(p.generator_names)]
    if p.relators:
        lines.append("relators: " + " ".join(format_word(r, p.generator_names) for r in p.relators))
    return "\n".join(lines) + "\n"


def _check_family_n(family: str, n: int) -> None:
    """Reject an n outside 2..MAX_WORD_LETTERS before y^n is built."""
    if n < 2:
        raise InvalidParameter(f"family {family} needs n >= 2, got {n}")
    if n > MAX_WORD_LETTERS:
        raise InvalidParameter(f"family {family} needs n <= {MAX_WORD_LETTERS}, got {n}")


def family_15e(n: int) -> Presentation:
    """<x, y | x^2, y^n, x*y*x^-1*y^-1>, order 2n."""
    _check_family_n("15E", n)
    x, y = Word.generator(0), Word.generator(1)
    return Presentation(("x", "y"), (x ** 2, y ** n, x * y * ~x * ~y))


def family_19(n: int) -> Presentation:
    """<x, y | x^n, y^n, x*y*x^-1*y^-1>, order n^2."""
    _check_family_n("19", n)
    x, y = Word.generator(0), Word.generator(1)
    return Presentation(("x", "y"), (x ** n, y ** n, x * y * ~x * ~y))
