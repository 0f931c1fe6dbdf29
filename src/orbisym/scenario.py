"""Boundary-pattern evaluation for embedded-surface scenarios.

An edge scenario lists boundary patterns directly: each pattern names
the subgroup words whose index is the boundary-component count, plus an
orientability rule (always orientable, or the solvability of a Z2
constraint system).  A dashed-arc scenario sweeps a conjugating element
c over the whole group: whenever <fixed, c*arc*c^-1> is the full group,
two loop patterns (always orientable) and two reflection patterns (Z2
rule) are evaluated for that c.

Every evaluator works from one table: the regular coset table of the
group (cosets of the trivial subgroup), enumerated once and passed in
as ``regular=`` by a caller that already has it.  Each subgroup index is
an orbit size in that table (``coset.subgroup_index``), and the sweep's
conjugators are its coset words (``coset.coset_words``), so a sweep is
one pass over one table with no further enumeration.

Genus always comes from the scenario's algebraic genus and the computed
boundary count; a parity or genus failure aborts the whole scenario
(ClassificationError) instead of skipping the pattern, since it signals
an inconsistent scenario definition.

Families 15E and 19 are defined once, in ``_FAMILIES``; their surfaces
are the row closed forms in ``surface``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .coset import (
    CosetTable,
    EnumerationLimits,
    coset_words,
    enumerate_cosets,
    subgroup_index,
    trace_word,
)
from .errors import InvalidParameter, MismatchError
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
    """Subgroup words whose index is the boundary-component count."""

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
    """Deduped surface set plus the per-pattern audit trail; a dashed-arc
    sweep also counts the conjugators it probed (visited) and those for
    which <fixed, c*arc*c^-1> is the whole group (admissible)."""

    surfaces: frozenset[SurfaceType]
    per_pattern: tuple[PatternOutcome, ...]
    visited: int = 0
    admissible: int = 0


def _rule_orientable(pres: Presentation, rule: OrientabilityRule) -> bool:
    if isinstance(rule, AlwaysOrientable):
        return True
    return solve_hom_to_z2(pres, rule.constraints).solvable


def evaluate_edge_scenario(scenario: EdgeScenario,
                           limits: EnumerationLimits | None = None,
                           regular: CosetTable | None = None) -> ScenarioResult:
    """Evaluate every pattern; surfaces are deduped, the audit trail is not.

    regular is the group's regular coset table; it is enumerated under
    limits when not given.
    """
    pres = scenario.presentation
    if regular is None:
        regular = enumerate_cosets(pres, (), limits)
    outcomes = []
    surfaces = set()
    for pattern in scenario.patterns:
        boundary = subgroup_index(regular, pattern.subgroup_words)
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


def evaluate_dashed_arc_scenario(scenario: DashedArcScenario,
                                 limits: EnumerationLimits | None = None,
                                 threads: int = 1,
                                 early_stop: bool = False,
                                 conjugators: Sequence[Word] | None = None,
                                 regular: CosetTable | None = None) -> ScenarioResult:
    """Sweep the conjugating element over the whole group.

    By default every element's shortlex word (coset_words of the regular
    table) is visited; with early_stop, conjugators whose moved arc
    c*arc*c^-1 is an element already processed are skipped (the four
    patterns depend on c only through it).  An explicit conjugators
    sequence replaces the element sweep, e.g. to probe a single element.
    regular is the group's regular coset table; it is enumerated under
    limits when not given, also for explicit conjugators.  threads is
    accepted and has no effect: the sweep is one pass over one table.
    """
    pres = scenario.presentation
    reflections_orientable = solve_hom_to_z2(pres, scenario.hom_constraints).solvable
    if regular is None:
        regular = enumerate_cosets(pres, (), limits)
    sweep = coset_words(regular) if conjugators is None else tuple(conjugators)
    if early_stop:
        picked = []
        seen_moved = set()
        for c in sweep:
            moved = trace_word(regular, 0, conjugate(scenario.arc_word, c))
            if moved not in seen_moved:
                seen_moved.add(moved)
                picked.append(c)
        sweep = tuple(picked)

    outcomes = []
    surfaces = set()
    admissible = 0
    for index, c in enumerate(sweep):
        probe = (scenario.fixed_word, conjugate(scenario.arc_word, c))
        if subgroup_index(regular, probe) != 1:
            continue
        admissible += 1
        label = f"c{index}={format_word(c, pres.generator_names)}"
        for name, words in _dashed_pattern_words(scenario, c):
            boundary = subgroup_index(regular, words)
            orientable = True if name.startswith("loop") else reflections_orientable
            surface = classify_surface(scenario.alpha, boundary, orientable)
            outcomes.append(PatternOutcome(name, boundary, orientable, surface.genus,
                                           conjugator=label, sweep_index=index))
            surfaces.add(surface)
    return ScenarioResult(frozenset(surfaces), tuple(outcomes),
                          visited=len(sweep), admissible=admissible)


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


def family_member(family: str, n: int) -> Family:
    """family_spec for a parameter the evaluators accept; InvalidParameter
    for n < 3, checked before anything is built at n."""
    if n < 3:
        raise InvalidParameter(f"family evaluation needs n >= 3, got {n}")
    return family_spec(family)


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
                    limits: EnumerationLimits | None = None,
                    regular: CosetTable | None = None) -> SurfaceType:
    """Classify one family embedding from its subgroup index and cross-check
    the result against the closed form; MismatchError if they disagree.

    regular is the regular coset table of the family's group at n; it is
    enumerated under limits when not given.
    """
    spec = family_member(family, n)
    expected, subgroup, always = _family_closed_form(family, n, embedding)
    pres = spec.presentation(n)
    if regular is None:
        regular = enumerate_cosets(pres, (), limits)
    boundary = subgroup_index(regular, subgroup)
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
