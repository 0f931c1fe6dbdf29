"""Exception types shared across the package, and ``at``, which locates one."""

from __future__ import annotations

__all__ = [
    "OrbisymError",
    "WordSyntaxError",
    "UnknownGenerator",
    "DuplicateGenerator",
    "EmptyRelator",
    "InvalidParameter",
    "LimitExceeded",
    "ClassificationError",
    "ParityError",
    "NegativeGenus",
    "MismatchError",
    "UnknownCase",
]


class OrbisymError(Exception):
    """Base class for every error raised by this package."""


class WordSyntaxError(OrbisymError):
    """Input text does not conform to the word or file grammar."""


class UnknownGenerator(OrbisymError):
    """A word references a name that is neither a generator nor an alias."""


class DuplicateGenerator(OrbisymError):
    """A generator or alias name is declared more than once."""


class EmptyRelator(OrbisymError):
    """A relator freely reduces to the empty word."""


class InvalidParameter(OrbisymError):
    """A numeric parameter is outside its documented range."""


class LimitExceeded(OrbisymError):
    """An enumeration hit its coset or element budget."""


class ClassificationError(OrbisymError):
    """Surface invariants do not describe any surface in scope."""


class ParityError(ClassificationError):
    """Orientable classification requested with alpha + 1 - b odd."""


class NegativeGenus(ClassificationError):
    """The boundary count forces a negative (or zero non-orientable) genus."""


class MismatchError(OrbisymError):
    """A computed value disagrees with its closed-form cross-check."""


class UnknownCase(OrbisymError):
    """A catalog lookup used an id that no entry carries."""


def at(where: str, exc: Exception) -> OrbisymError:
    """exc with where (a file, line, flag or item) in front of its message,
    as the same OrbisymError type; a ValueError becomes a WordSyntaxError."""
    kind = type(exc) if isinstance(exc, OrbisymError) else WordSyntaxError
    return kind(f"{where}: {exc}")
