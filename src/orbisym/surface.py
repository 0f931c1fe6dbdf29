"""Bordered-surface invariants: algebraic genus, classification, and the
maximal symmetry-group order per algebraic genus.

Surfaces are S_{g,b} (orientable, genus g, b boundary components) and
N_{g,b} (non-orientable).  The algebraic genus is 2g - 1 + b for S_{g,b}
and g - 1 + b for N_{g,b}; every surface in scope has b >= 1 and
algebraic genus >= 2.

The maximal order m(a) for algebraic genus a falls into one formula
class per a; the exceptional classes apply to fixed a-sets (kept here as
one data table), perfect squares follow 4(sqrt(a)+1)^2 except for the
six excluded roots, and every other a gets 4(a+1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ClassificationError, InvalidParameter, NegativeGenus, ParityError
from .words import parse_integer

__all__ = [
    "SurfaceType",
    "surface_from_str",
    "algebraic_genus",
    "classify_surface",
    "MaxOrderClass",
    "m_alpha",
    "EXCEPTIONAL_ALPHA_CLASSES",
    "SQUARE_RULE_EXCLUDED_ROOTS",
    "square_family_surface",
    "remaining_family_surfaces",
]


@dataclass(frozen=True, order=True)
class SurfaceType:
    """A compact bordered surface, displayed as S_{g,b} or N_{g,b}."""

    orientable: bool
    genus: int
    boundary: int

    def __post_init__(self) -> None:
        if self.boundary < 1:
            raise ClassificationError("closed surfaces (b = 0) are out of scope")
        if self.genus < 0:
            raise ClassificationError("genus must be non-negative")
        if not self.orientable and self.genus < 1:
            raise ClassificationError("non-orientable surfaces need genus >= 1")
        if algebraic_genus(self) < 2:
            raise ClassificationError("surfaces with algebraic genus < 2 are out of scope")

    def __str__(self) -> str:
        letter = "S" if self.orientable else "N"
        return f"{letter}_{{{self.genus},{self.boundary}}}"


# With its minus sign, a negative genus or boundary fails as a surface.
_LABEL = re.compile(r"([SN])_\{(-?[0-9]+),(-?[0-9]+)\}")


def surface_from_str(text: str) -> SurfaceType:
    """Parse 'S_{g,b}' or 'N_{g,b}', with g and b ASCII integers."""
    m = _LABEL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a surface label: {text!r}")
    return SurfaceType(m[1] == "S", parse_integer(m[2]), parse_integer(m[3]))


def algebraic_genus(surface: SurfaceType) -> int:
    """2g - 1 + b when orientable, g - 1 + b when not."""
    if surface.orientable:
        return 2 * surface.genus - 1 + surface.boundary
    return surface.genus - 1 + surface.boundary


def classify_surface(alpha: int, boundary: int, orientable: bool) -> SurfaceType:
    """The unique surface with the given algebraic genus, boundary count,
    and orientability; ParityError / NegativeGenus when there is none."""
    if alpha < 2:
        raise InvalidParameter(f"algebraic genus must be >= 2, got {alpha}")
    if boundary < 1:
        raise InvalidParameter(f"boundary count must be >= 1, got {boundary}")
    if orientable:
        if (alpha + 1 - boundary) % 2 != 0:
            raise ParityError(f"alpha + 1 - b = {alpha + 1 - boundary} is odd")
        genus = (alpha + 1 - boundary) // 2
        if genus < 0:
            raise NegativeGenus(f"b = {boundary} exceeds alpha + 1 = {alpha + 1}")
    else:
        genus = alpha + 1 - boundary
        if genus < 1:
            raise NegativeGenus(f"b = {boundary} leaves no cross-caps for alpha = {alpha}")
    return SurfaceType(orientable, genus, boundary)


@dataclass(frozen=True)
class MaxOrderClass:
    """A formula-class label with its evaluated order."""

    label: str
    value: int


# Fixed algebraic-genus sets with their own maximal-order formula, as
# (label, numerator factor, denominator, members).  Pairwise disjoint.
EXCEPTIONAL_ALPHA_CLASSES: tuple[tuple[str, int, int, frozenset[int]], ...] = (
    ("12(a-1)", 12, 1, frozenset({2, 3, 4, 5, 9, 11, 25, 97, 121, 241})),
    ("8(a-1)", 8, 1, frozenset({7, 49})),
    ("20(a-1)/3", 20, 3, frozenset({16, 19, 361})),
    ("6(a-1)", 6, 1, frozenset({21, 481})),
    ("24(a-1)/5", 24, 5, frozenset({41})),
    ("30(a-1)/7", 30, 7, frozenset({1681})),
)

# Roots whose squares already sit in an exceptional class above.
SQUARE_RULE_EXCLUDED_ROOTS: frozenset[int] = frozenset({3, 5, 7, 11, 19, 41})

SQUARE_RULE_LABEL = "4(sqrt(a)+1)^2"
GENERIC_LABEL = "4(a+1)"


def m_alpha(alpha: int) -> MaxOrderClass:
    """Largest group order realizable at the given algebraic genus."""
    if alpha < 2:
        raise InvalidParameter(f"algebraic genus must be >= 2, got {alpha}")
    for label, factor, divisor, members in EXCEPTIONAL_ALPHA_CLASSES:
        if alpha in members:
            numerator = factor * (alpha - 1)
            if numerator % divisor != 0:
                raise ClassificationError(f"{label} is not integral at a = {alpha}")
            return MaxOrderClass(label, numerator // divisor)
    root = math.isqrt(alpha)
    if root * root == alpha and root not in SQUARE_RULE_EXCLUDED_ROOTS:
        return MaxOrderClass(SQUARE_RULE_LABEL, 4 * (root + 1) ** 2)
    return MaxOrderClass(GENERIC_LABEL, 4 * (alpha + 1))


def square_family_surface(k: int) -> SurfaceType:
    """The surface the square row assigns to a = k^2."""
    return SurfaceType(True, k * (k - 1) // 2, k + 1)


def remaining_family_surfaces(alpha: int) -> tuple[SurfaceType, ...]:
    """The generic surface pair at algebraic genus a."""
    first = SurfaceType(True, 0, alpha + 1)
    if alpha % 2 == 0:
        return (first, SurfaceType(True, alpha // 2, 1))
    return (first, SurfaceType(True, (alpha - 1) // 2, 2))
