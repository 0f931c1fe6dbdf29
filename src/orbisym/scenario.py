"""Boundary-pattern evaluation for embedded-surface scenarios.

An edge scenario lists boundary patterns directly: each pattern names
the subgroup words whose index is the boundary-component count, plus an
orientability rule (always orientable, or the solvability of a Z2
constraint system).  A dashed-arc scenario sweeps a conjugating element
c over the whole group: whenever <fixed, c*arc*c^-1> is the full group,
two loop patterns (always orientable) and two reflection patterns (Z2
rule) are evaluated for that c.

Both evaluators take the group's regular coset table (cosets of the
trivial subgroup), which their caller enumerates once (``catalog.run_case``
does, once per case).  Its cosets are the group's elements, and a subgroup
index is an orbit size there, which depends only on the elements of the
generators.  So the sweep runs on elements, each carried as its shortlex
column path read off the standardized labels, as ``coset_words`` reads
it, and shares one orbit loop with ``subgroup_index``: per
conjugator, |arc| + |c| column lookups give c*arc*c^-1; per distinct moved
element (20 of the orbifold's 120), one probe and four orbit walks on
column paths.  A Word is built only for an admissible conjugator's label.
``evaluate_family`` enumerates the presentation it builds itself.

Genus always comes from the scenario's algebraic genus and the computed
boundary count; a parity or genus failure aborts the whole scenario
(ClassificationError) instead of skipping the pattern, since it signals
an inconsistent scenario definition.

Families 15E and 19 are defined once, in ``FAMILIES``.  A family case
at n runs as an edge scenario with one ``embedding X`` pattern per
embedding, and each computed surface is checked against the row closed
forms in ``surface``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .coset import (
    CosetTable,
    _column_paths,
    _orbit_index,
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
from .words import Word, column_word, format_word
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
    "FAMILIES",
    "family_scenario",
    "closed_form_mismatches",
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


def evaluate_edge_scenario(scenario: EdgeScenario, regular: CosetTable) -> ScenarioResult:
    """Evaluate every pattern on regular, the group's regular coset table;
    surfaces are deduped, the audit trail is not."""
    outcomes = []
    surfaces = set()
    for pattern in scenario.patterns:
        boundary = subgroup_index(regular, pattern.subgroup_words)
        orientable = (isinstance(pattern.rule, AlwaysOrientable) or
                      solve_hom_to_z2(scenario.presentation, pattern.rule.constraints).solvable)
        surface = classify_surface(scenario.alpha, boundary, orientable)
        outcomes.append(PatternOutcome(pattern.name, boundary, orientable, surface.genus))
        surfaces.add(surface)
    return ScenarioResult(frozenset(surfaces), tuple(outcomes))


def evaluate_dashed_arc_scenario(scenario: DashedArcScenario, regular: CosetTable,
                                 early_stop: bool = False) -> ScenarioResult:
    """Sweep the conjugating element over the whole group, on regular, the
    group's regular coset table: each element, labelled with its shortlex
    word.

    The patterns depend on c only through the moved element c*arc*c^-1,
    so the probe and four indices run once per moved element, at its first
    c, and are replayed with each later c's label; early_stop keeps only
    the first c per moved element, which shortens the audit trail, not the
    work.
    """
    pres = scenario.presentation
    reflections_orientable = solve_hom_to_z2(pres, scenario.hom_constraints).solvable
    columns = regular.columns
    paths = _column_paths(regular)

    def times(element: int, cols: Sequence[int], inverse: bool = False) -> int:
        # element times cols' element, or its inverse (col ^ True is col's inverse)
        for col in (reversed(cols) if inverse else cols):
            element = columns[col ^ inverse][element]
        return element

    # Every word the sweep reads is traced once here, which checks it
    # against the alphabet; from here on it reads shortlex paths only.
    fixed, arc = (trace_word(regular, 0, w) for w in (scenario.fixed_word, scenario.arc_word))
    fixed_cols, arc_cols = paths[fixed], paths[arc]
    # (c, c*arc*c^-1): arc's columns from c, then the inverse of c's path
    pairs = [(c, times(times(c, arc_cols), path, True)) for c, path in enumerate(paths)]
    if early_stop:
        first = {}
        for i, moved in pairs:
            first.setdefault(moved, i)
        pairs = [(i, moved) for moved, i in first.items()]

    outcomes, surfaces, admissible = [], set(), 0
    # moved element -> its four (name, boundary, orientable, genus); none
    # when <fixed, c*arc*c^-1> is not the whole group
    results: dict[int, list] = {}
    for index, (i, moved) in enumerate(pairs):
        found = results.get(moved)
        if found is None:
            found = results[moved] = []
            m = paths[moved]
            if _orbit_index(regular, (fixed_cols, m)) == 1:
                # f*m and f^-1*m alone, m*f*m^-1 and m^-1*f*m next to f
                for name, element in (("loop", times(fixed, m)),
                                      ("loop_inv", times(times(0, fixed_cols, True), m)),
                                      ("reflection", times(times(moved, fixed_cols), m, True)),
                                      ("reflection_inv",
                                       times(times(times(0, m, True), fixed_cols), m))):
                    loop = name.startswith("loop")
                    boundary = _orbit_index(regular, (paths[element],) if loop else
                                            (fixed_cols, paths[element]))
                    orientable = loop or reflections_orientable
                    surface = classify_surface(scenario.alpha, boundary, orientable)
                    found.append((name, boundary, orientable, surface.genus))
                    surfaces.add(surface)
        if not found:
            continue
        admissible += 1
        label = f"c{index}={format_word(column_word(paths[i]), pres.generator_names)}"
        for name, boundary, orientable, genus in found:
            outcomes.append(PatternOutcome(name, boundary, orientable, genus,
                                           conjugator=label, sweep_index=index))
    return ScenarioResult(frozenset(surfaces), tuple(outcomes),
                          visited=len(pairs), admissible=admissible)


@dataclass(frozen=True)
class Family:
    """A parametric family: member n is the edge scenario on presentation(n)
    at alpha(n) with one ``patterns`` entry per embedding; order(n) and
    surfaces(n) are its closed forms, the surfaces in pattern order."""

    presentation: Callable[[int], Presentation]
    alpha: Callable[[int], int]
    order: Callable[[int], int]
    surfaces: Callable[[int], tuple[SurfaceType, ...]]
    patterns: tuple[BoundaryPattern, ...]


_X, _Y = Word.generator(0), Word.generator(1)

# Family 15E at n realises the generic row at a = n - 1, family 19 the
# square row at a = (n - 1)^2.
FAMILIES = {
    FAMILY_15E: Family(family_15e, lambda n: n - 1, lambda n: 2 * n,
                       lambda n: remaining_family_surfaces(n - 1),
                       (BoundaryPattern("embedding A", (_X,), Z2HomRule((Z2Constraint(_X, 1),))),
                        BoundaryPattern("embedding B", (_X * _Y,), AlwaysOrientable()))),
    FAMILY_19: Family(family_19, lambda n: (n - 1) ** 2, lambda n: n * n,
                      lambda n: (square_family_surface(n - 1),),
                      (BoundaryPattern("embedding A", (_X * _Y,), AlwaysOrientable()),)),
}


def family_scenario(family: str, n: int) -> EdgeScenario:
    """Member n of the family as an edge scenario.  InvalidParameter for
    n < 3, then for an unknown family, is raised before anything is built."""
    if n < 3:
        raise InvalidParameter(f"family evaluation needs n >= 3, got {n}")
    if family not in FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    spec = FAMILIES[family]
    return EdgeScenario(spec.presentation(n), spec.alpha(n), spec.patterns)


def closed_form_mismatches(family: str, n: int,
                           outcomes: Sequence[PatternOutcome]) -> list[str]:
    """The MismatchError text of each embedding outcome whose surface is
    not the family's closed form for it."""
    spec = FAMILIES[family]
    expected = dict(zip((p.name for p in spec.patterns), spec.surfaces(n)))
    texts = []
    for outcome in outcomes:
        computed = SurfaceType(outcome.orientable, outcome.genus, outcome.boundary)
        if computed != expected[outcome.pattern]:
            texts.append(f"family {family} n={n} {outcome.pattern.replace(' ', '=')}: "
                         f"computed {computed}, closed form {expected[outcome.pattern]}")
    return texts


def evaluate_family(family: str, n: int, embedding: str | None = None) -> SurfaceType:
    """Classify one family embedding as an edge pattern and cross-check the
    result against the closed form; MismatchError if they disagree.  None
    names the embedding of a family that has only one.  The family's group
    at n is enumerated once, under the default coset budget.
    """
    scenario = family_scenario(family, n)
    names = [p.name.removeprefix("embedding ") for p in scenario.patterns]
    if embedding is None and len(names) == 1:
        embedding = names[0]
    if embedding not in names:
        raise InvalidParameter(f"family {family} has embeddings "
                               f"{' and '.join(names)}, got {embedding!r}")
    pattern = scenario.patterns[names.index(embedding)]
    regular = enumerate_cosets(scenario.presentation)
    result = evaluate_edge_scenario(replace(scenario, patterns=(pattern,)), regular)
    mismatches = closed_form_mismatches(family, n, result.per_pattern)
    if mismatches:
        raise MismatchError(mismatches[0])
    (computed,) = result.surfaces
    return computed
