"""Boundary-pattern evaluation for embedded-surface scenarios.

An edge scenario lists boundary patterns directly: each pattern names
the subgroup words whose coset count is the boundary-component count,
plus an orientability rule (always orientable, or the solvability of a
Z2 constraint system).  A dashed-arc scenario sweeps a conjugating
element c over the whole group: whenever <fixed, c*arc*c^-1> is the
full group, two loop patterns (always orientable) and two reflection
patterns (Z2 rule) are evaluated for that c.

Genus always comes from the scenario's algebraic genus and the computed
boundary count; a parity or genus failure aborts the whole scenario
(ClassificationError) instead of skipping the pattern, since it signals
an inconsistent scenario definition.

Families 15E and 19 are defined once, in ``_FAMILIES``; their surfaces
are the row closed forms in ``surface``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .coset import EnumerationLimits, enumerate_cosets, permutation_rep
from .errors import InvalidParameter, MismatchError
from .permgroup import enumerate_elements, evaluate_word
from .presentation import Presentation, family_15e, family_19
from .surface import (
    SurfaceType,
    classify_surface,
    remaining_family_surfaces,
    square_family_surface,
)
from .words import Word, conjugate, format_word, invert
from .z2hom import Z2Constraint, solve_hom_to_z2

__all__ = [
    "AlwaysOrientable",
    "Z2HomRule",
    "OrientabilityRule",
    "BoundaryPattern",
    "EdgeScenario",
    "DashedArcScenario",
    "PatternOutcome",
    "ScenarioResult",
    "evaluate_edge_scenario",
    "evaluate_dashed_arc_scenario",
    "evaluate_family",
    "FAMILY_15E",
    "FAMILY_19",
]

FAMILY_15E = "15E"
FAMILY_19 = "19"


@dataclass(frozen=True)
class AlwaysOrientable:
    """Orientability granted by construction (isolated singular points)."""


@dataclass(frozen=True)
class Z2HomRule:
    """Orientable iff the Z2 constraint system is solvable."""

    constraints: tuple[Z2Constraint, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("Z2HomRule needs at least one constraint")


OrientabilityRule = AlwaysOrientable | Z2HomRule


@dataclass(frozen=True)
class BoundaryPattern:
    """Subgroup words whose coset count is the boundary-component count."""

    name: str
    subgroup_words: tuple[Word, ...]
    rule: OrientabilityRule

    def __post_init__(self) -> None:
        if not self.subgroup_words:
            raise ValueError("pattern needs at least one subgroup word")


@dataclass(frozen=True)
class EdgeScenario:
    presentation: Presentation
    alpha: int
    patterns: tuple[BoundaryPattern, ...]


@dataclass(frozen=True)
class DashedArcScenario:
    presentation: Presentation
    alpha: int
    fixed_word: Word
    arc_word: Word
    hom_constraints: tuple[Z2Constraint, ...]


@dataclass(frozen=True)
class PatternOutcome:
    """Audit record for one evaluated pattern."""

    pattern: str
    boundary: int
    orientable: bool
    genus: int
    conjugator: str = ""
    sweep_index: int = -1


@dataclass(frozen=True)
class ScenarioResult:
    """Deduped surface set plus the per-pattern audit trail."""

    surfaces: frozenset[SurfaceType]
    per_pattern: tuple[PatternOutcome, ...]


def _rule_orientable(pres: Presentation, rule: OrientabilityRule) -> bool:
    if isinstance(rule, AlwaysOrientable):
        return True
    return solve_hom_to_z2(pres, rule.constraints).solvable


def evaluate_edge_scenario(scenario: EdgeScenario,
                           limits: EnumerationLimits | None = None) -> ScenarioResult:
    """Evaluate every pattern; surfaces are deduped, the audit trail is not."""
    pres = scenario.presentation
    outcomes = []
    surfaces = set()
    for pattern in scenario.patterns:
        boundary = enumerate_cosets(pres, pattern.subgroup_words, limits).n_cosets
        orientable = _rule_orientable(pres, pattern.rule)
        surface = classify_surface(scenario.alpha, boundary, orientable)
        outcomes.append(PatternOutcome(pattern.name, boundary, orientable, surface.genus))
        surfaces.add(surface)
    return ScenarioResult(frozenset(surfaces), tuple(outcomes))


_DASHED_PATTERNS = ("loop", "loop_inv", "reflection", "reflection_inv")


def _dashed_pattern_words(scenario: DashedArcScenario, c: Word) -> tuple[tuple[str, tuple[Word, ...]], ...]:
    fixed, arc = scenario.fixed_word, scenario.arc_word
    moved = conjugate(arc, c)
    return (
        ("loop", (fixed * moved,)),
        ("loop_inv", (invert(fixed) * moved,)),
        ("reflection", (fixed, conjugate(fixed, moved))),
        ("reflection_inv", (fixed, conjugate(fixed, conjugate(invert(arc), c)))),
    )


def _evaluate_conjugator(scenario: DashedArcScenario, index: int, c: Word,
                         reflections_orientable: bool,
                         limits: EnumerationLimits | None) -> list[PatternOutcome]:
    pres = scenario.presentation
    probe = (scenario.fixed_word, conjugate(scenario.arc_word, c))
    if enumerate_cosets(pres, probe, limits).n_cosets != 1:
        return []
    label = f"c{index}={format_word(c, pres.generator_names)}"
    outcomes = []
    for name, words in _dashed_pattern_words(scenario, c):
        boundary = enumerate_cosets(pres, words, limits).n_cosets
        orientable = True if name.startswith("loop") else reflections_orientable
        surface = classify_surface(scenario.alpha, boundary, orientable)
        outcomes.append(PatternOutcome(name, boundary, orientable, surface.genus,
                                       conjugator=label, sweep_index=index))
    return outcomes


def evaluate_dashed_arc_scenario(scenario: DashedArcScenario,
                                 limits: EnumerationLimits | None = None,
                                 threads: int = 1,
                                 early_stop: bool = False,
                                 conjugators: Sequence[Word] | None = None) -> ScenarioResult:
    """Sweep the conjugating element over the whole group.

    By default every element's representative word is visited; with
    early_stop, conjugators whose moved arc word repeats an already
    processed permutation image are skipped (the four patterns depend
    on c only through c*arc*c^-1).  An explicit conjugators sequence
    replaces the element sweep, e.g. to probe a single element.
    """
    pres = scenario.presentation
    reflections_orientable = solve_hom_to_z2(pres, scenario.hom_constraints).solvable
    group = None
    if conjugators is None:
        regular = enumerate_cosets(pres, (), limits)
        group = permutation_rep(regular)
        sweep = [word for _, word in enumerate_elements(group, regular.n_cosets).entries]
    else:
        sweep = list(conjugators)
    if early_stop:
        if group is None:
            group = permutation_rep(enumerate_cosets(pres, (), limits))
        picked = []
        seen_images = set()
        for c in sweep:
            image = evaluate_word(group, conjugate(scenario.arc_word, c)).images
            if image not in seen_images:
                seen_images.add(image)
                picked.append(c)
        sweep = picked

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(
                lambda ic: _evaluate_conjugator(scenario, ic[0], ic[1], reflections_orientable, limits),
                enumerate(sweep)))
    else:
        chunks = [_evaluate_conjugator(scenario, i, c, reflections_orientable, limits)
                  for i, c in enumerate(sweep)]

    outcomes: list[PatternOutcome] = []
    surfaces = set()
    for chunk in chunks:
        for outcome in chunk:
            outcomes.append(outcome)
            surfaces.add(classify_surface(scenario.alpha, outcome.boundary, outcome.orientable))
    return ScenarioResult(frozenset(surfaces), tuple(outcomes))


@dataclass(frozen=True)
class Family:
    """A parametric family at parameter n; ``embeddings`` maps names to subgroup
    words and always-orientable flags, in the order of ``surfaces(n)``."""

    presentation: Callable[[int], Presentation]
    alpha: Callable[[int], int]
    order: Callable[[int], int]
    surfaces: Callable[[int], tuple[SurfaceType, ...]]
    embeddings: dict[str, tuple[tuple[Word, ...], bool]]


_X, _Y = Word.generator(0), Word.generator(1)

# Family 15E at n realises the generic row at a = n - 1, family 19 the
# square row at a = (n - 1)^2.
_FAMILIES = {
    FAMILY_15E: Family(family_15e, lambda n: n - 1, lambda n: 2 * n,
                       lambda n: remaining_family_surfaces(n - 1),
                       {"A": ((_X,), False), "B": ((_X * _Y,), True)}),
    FAMILY_19: Family(family_19, lambda n: (n - 1) ** 2, lambda n: n * n,
                      lambda n: (square_family_surface(n - 1),),
                      {"A": ((_X * _Y,), True)}),
}


def family_spec(family: str) -> Family:
    """The family of that name; InvalidParameter for any other name."""
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    return _FAMILIES[family]


def _family_closed_form(family: str, n: int, embedding: str | None) -> tuple[SurfaceType, tuple[Word, ...], bool]:
    """Expected surface, subgroup words, and always-orientable flag; None
    names the embedding of a family that has only one."""
    spec = family_spec(family)
    names = list(spec.embeddings)
    if embedding is None and len(names) == 1:
        embedding = names[0]
    if embedding not in spec.embeddings:
        raise InvalidParameter(f"family {family} has embeddings "
                               f"{' and '.join(names)}, got {embedding!r}")
    subgroup, always = spec.embeddings[embedding]
    return spec.surfaces(n)[names.index(embedding)], subgroup, always


def family_alpha(family: str, n: int) -> int:
    """Algebraic genus of the family member."""
    return family_spec(family).alpha(n)


def evaluate_family(family: str, n: int, embedding: str | None = None,
                    limits: EnumerationLimits | None = None) -> SurfaceType:
    """Classify one family embedding by coset enumeration and cross-check
    the result against the closed form; MismatchError if they disagree."""
    if n < 3:
        raise InvalidParameter(f"family evaluation needs n >= 3, got {n}")
    expected, subgroup, always = _family_closed_form(family, n, embedding)
    pres = family_spec(family).presentation(n)
    boundary = enumerate_cosets(pres, subgroup, limits).n_cosets
    if always:
        orientable = True
    else:
        orientable = solve_hom_to_z2(pres, (Z2Constraint(subgroup[0], 1),)).solvable
    computed = classify_surface(family_alpha(family, n), boundary, orientable)
    if computed != expected:
        raise MismatchError(
            f"family {family} n={n} embedding={embedding or 'A'}: "
            f"computed {computed}, closed form {expected}")
    return computed
