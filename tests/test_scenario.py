"""Boundary-pattern scenarios: edge, dashed-arc sweep, parametric families."""

from __future__ import annotations

from dataclasses import replace

import pytest

from orbisym import (
    AlwaysOrientable,
    BoundaryPattern,
    ClassificationError,
    DashedArcScenario,
    EdgeScenario,
    InvalidParameter,
    MismatchError,
    SurfaceType,
    Word,
    Z2Constraint,
    classify_surface,
    conjugate,
    coset_words,
    enumerate_cosets,
    evaluate_dashed_arc_scenario,
    evaluate_edge_scenario,
    family_19,
    format_word,
    load_presentation,
    parse_word,
    run_case,
    solve_hom_to_z2,
    subgroup_index,
    trace_word,
)
from orbisym.coset import permutation_rep
from orbisym.permgroup import enumerate_elements, evaluate_word
from orbisym.words import letter_columns
import orbisym.coset as coset_module
import orbisym.scenario as scenario_module
from orbisym.scenario import FAMILY_15E, FAMILY_19, evaluate_family, family_scenario


def S(g, b):
    return SurfaceType(orientable=True, genus=g, boundary=b)


def N(g, b):
    return SurfaceType(orientable=False, genus=g, boundary=b)


def regular_of(scenario):
    """The regular coset table an evaluator is handed."""
    return enumerate_cosets(scenario.presentation)


def orbifold_edge_scenario(pres):
    names = pres.generator_names
    midarc = parse_word("x*y*z^-1*x^-1", names)
    left = parse_word("x*y", names)
    right1 = parse_word("x*y*x^-1", names)
    right2 = parse_word("x*z*x^-1", names)
    moved = midarc * left * ~midarc

    def hom(*words):
        return tuple(Z2Constraint(w, 1) for w in words)

    patterns = (
        BoundaryPattern("G1", (right1, left), scenario_module.Z2HomRule(hom(midarc, right1, left))),
        BoundaryPattern("G2", (right1, moved), scenario_module.Z2HomRule(hom(midarc, right1, left))),
        BoundaryPattern("G3", (right2, left), scenario_module.Z2HomRule(hom(midarc, right2, left))),
        BoundaryPattern("G4", (right2, moved), scenario_module.Z2HomRule(hom(midarc, right2, left))),
    )
    return EdgeScenario(presentation=pres, alpha=11, patterns=patterns)


def test_edge_scenario_surfaces(orbifold_28):
    scenario = orbifold_edge_scenario(orbifold_28)
    result = evaluate_edge_scenario(scenario, regular_of(scenario))
    assert result.surfaces == frozenset({S(0, 12), N(6, 6)})
    assert [o.pattern for o in result.per_pattern] == ["G1", "G2", "G3", "G4"]
    by_name = {o.pattern: o for o in result.per_pattern}
    assert by_name["G1"].boundary == 12 and by_name["G1"].orientable
    assert by_name["G2"].boundary == 12 and by_name["G2"].orientable
    assert by_name["G3"].boundary == 6 and not by_name["G3"].orientable
    assert by_name["G4"].boundary == 6 and not by_name["G4"].orientable
    assert by_name["G3"].genus == 6


def test_edge_single_pattern_whole_group(orbifold_28):
    # subgroup = whole group gives one boundary component
    words = tuple(Word.generator(i) for i in range(3))
    pattern = BoundaryPattern("all", words, AlwaysOrientable())
    result = evaluate_edge_scenario(
        EdgeScenario(presentation=orbifold_28, alpha=2, patterns=(pattern,)),
        enumerate_cosets(orbifold_28))
    assert result.surfaces == frozenset({S(1, 1)})


def test_edge_parity_failure_aborts(orbifold_28):
    words = tuple(Word.generator(i) for i in range(3))
    pattern = BoundaryPattern("all", words, AlwaysOrientable())
    scenario = EdgeScenario(presentation=orbifold_28, alpha=3, patterns=(pattern,))
    with pytest.raises(ClassificationError):
        evaluate_edge_scenario(scenario, regular_of(scenario))


def dashed_scenario(pres):
    names = pres.generator_names
    return DashedArcScenario(
        presentation=pres,
        alpha=21,
        fixed_word=parse_word("y", names),
        arc_word=parse_word("x*z", names),
        hom_constraints=(
            Z2Constraint(parse_word("y", names), 1),
            Z2Constraint(parse_word("x*z", names), 0),
        ),
    )


def test_dashed_identity_conjugator_only(orbifold_28):
    # element 0 of the sweep is the identity, and it is admissible
    scenario = dashed_scenario(orbifold_28)
    result = evaluate_dashed_arc_scenario(scenario, regular_of(scenario))
    identity = [o for o in result.per_pattern if o.sweep_index == 0]
    assert result.surfaces == frozenset({S(5, 12)})
    assert len(identity) == 4
    assert {o.pattern for o in identity} == {
        "loop", "loop_inv", "reflection", "reflection_inv"}
    for o in identity:
        assert o.boundary == 12
        assert o.orientable
        assert o.genus == 5
        assert o.sweep_index == 0
        assert o.conjugator == "c0=1"


def test_dashed_full_sweep(orbifold_28):
    scenario = dashed_scenario(orbifold_28)
    result = evaluate_dashed_arc_scenario(scenario, regular_of(scenario))
    assert result.surfaces == frozenset({S(5, 12)})
    admissible = {o.sweep_index for o in result.per_pattern}
    assert len(admissible) == 48
    assert len(result.per_pattern) == 48 * 4
    assert all(o.boundary == 12 and o.orientable for o in result.per_pattern)


def inadmissible_scenario():
    # <x, c*x*c^-1> is never the whole abelian group Z3 x Z3
    return DashedArcScenario(
        presentation=family_19(3),
        alpha=4,
        fixed_word=Word.generator(0),
        arc_word=Word.generator(0),
        hom_constraints=(Z2Constraint(Word.generator(0), 0),),
    )


def test_dashed_connectivity_filter(orbifold_28):
    # a conjugator is skipped when fixed word plus moved arc fail to
    # generate the whole group; the identity never fails here, so probe
    # a scenario where it does
    scenario = inadmissible_scenario()
    result = evaluate_dashed_arc_scenario(scenario, regular_of(scenario))
    assert result.surfaces == frozenset()
    assert result.per_pattern == ()


def test_dashed_early_stop_same_surfaces(orbifold_28):
    scenario = dashed_scenario(orbifold_28)
    full = evaluate_dashed_arc_scenario(scenario, regular_of(scenario))
    stopped = evaluate_dashed_arc_scenario(scenario, regular_of(scenario), early_stop=True)
    assert stopped.surfaces == full.surfaces
    assert len(stopped.per_pattern) < len(full.per_pattern)


def test_family_15e_embeddings():
    assert evaluate_family(FAMILY_15E, 5, "A") == S(0, 5)
    assert evaluate_family(FAMILY_15E, 6, "A") == S(0, 6)
    assert evaluate_family(FAMILY_15E, 5, "B") == S(2, 1)
    assert evaluate_family(FAMILY_15E, 6, "B") == S(2, 2)


def test_family_19():
    assert evaluate_family(FAMILY_19, 3) == S(1, 3)
    assert evaluate_family(FAMILY_19, 4) == S(3, 4)
    assert evaluate_family(FAMILY_19, 7) == S(15, 7)


def test_family_alpha():
    assert family_scenario(FAMILY_15E, 7).alpha == 6
    assert family_scenario(FAMILY_19, 7).alpha == 36
    with pytest.raises(InvalidParameter):
        family_scenario("nope", 3)


def test_family_validation():
    with pytest.raises(InvalidParameter):
        evaluate_family(FAMILY_15E, 2, "A")
    with pytest.raises(InvalidParameter):
        evaluate_family(FAMILY_15E, 5, None)
    with pytest.raises(InvalidParameter):
        evaluate_family(FAMILY_15E, 5, "C")
    with pytest.raises(InvalidParameter):
        evaluate_family(FAMILY_19, 5, "B")
    with pytest.raises(InvalidParameter):
        evaluate_family("nope", 5)


def test_family_crosscheck_bites(monkeypatch):
    # corrupt the closed form and confirm the dual-route check trips
    spec = scenario_module.FAMILIES[FAMILY_19]

    def wrong(n):
        return tuple(SurfaceType(s.orientable, s.genus + 1, s.boundary)
                     for s in spec.surfaces(n))

    monkeypatch.setitem(scenario_module.FAMILIES, FAMILY_19, replace(spec, surfaces=wrong))
    with pytest.raises(MismatchError):
        evaluate_family(FAMILY_19, 4)


# -- the regular table against the per-subgroup enumerations it replaces --


def per_subgroup_sweep(scenario, early_stop):
    """The dashed-arc sweep with one enumeration per probe and pattern, and
    the conjugators from the element closure of the permutation group."""
    pres = scenario.presentation
    reflections = solve_hom_to_z2(pres, scenario.hom_constraints).solvable
    group = permutation_rep(enumerate_cosets(pres))
    sweep = [word for _, word in enumerate_elements(group).entries]
    if early_stop:
        images = {}
        for c in sweep:
            images.setdefault(evaluate_word(group, conjugate(scenario.arc_word, c)).images, c)
        sweep = list(images.values())
    outcomes = []
    for index, c in enumerate(sweep):
        probe = (scenario.fixed_word, conjugate(scenario.arc_word, c))
        if enumerate_cosets(pres, probe).n_cosets != 1:
            continue
        label = f"c{index}={format_word(c, pres.generator_names)}"
        for name, words in dashed_pattern_words(scenario, c):
            boundary = enumerate_cosets(pres, words).n_cosets
            orientable = name.startswith("loop") or reflections
            genus = classify_surface(scenario.alpha, boundary, orientable).genus
            outcomes.append(scenario_module.PatternOutcome(
                name, boundary, orientable, genus, conjugator=label, sweep_index=index))
    return tuple(outcomes)


@pytest.mark.parametrize("early_stop", [False, True])
def test_dashed_sweep_matches_per_subgroup_path(orbifold_28, early_stop):
    scenario = dashed_scenario(orbifold_28)
    result = evaluate_dashed_arc_scenario(scenario, regular_of(scenario), early_stop=early_stop)
    assert result.per_pattern == per_subgroup_sweep(scenario, early_stop)


def test_every_sweep_index_matches_enumeration(orbifold_28):
    # every probe and every pattern, admissible conjugator or not
    scenario = dashed_scenario(orbifold_28)
    regular = enumerate_cosets(orbifold_28)
    for c in coset_words(regular):
        probe = (scenario.fixed_word, conjugate(scenario.arc_word, c))
        patterns = [words for _, words in dashed_pattern_words(scenario, c)]
        for words in (probe, *patterns):
            assert subgroup_index(regular, words) == enumerate_cosets(orbifold_28, words).n_cosets


def test_edge_indices_match_enumeration(orbifold_28):
    regular = enumerate_cosets(orbifold_28)
    for pattern in orbifold_edge_scenario(orbifold_28).patterns:
        expected = enumerate_cosets(orbifold_28, pattern.subgroup_words).n_cosets
        assert subgroup_index(regular, pattern.subgroup_words) == expected


@pytest.mark.parametrize("family", [FAMILY_15E, FAMILY_19])
def test_family_indices_match_enumeration(family):
    for n in range(3, 13):
        member = family_scenario(family, n)
        regular = enumerate_cosets(member.presentation)
        for pattern in member.patterns:
            words = pattern.subgroup_words
            assert subgroup_index(regular, words) == \
                enumerate_cosets(member.presentation, words).n_cosets


def test_sweep_accounting(orbifold_28):
    scenario = dashed_scenario(orbifold_28)
    regular = regular_of(scenario)
    full = evaluate_dashed_arc_scenario(scenario, regular)
    assert (full.visited, full.admissible) == (120, 48)
    stopped = evaluate_dashed_arc_scenario(scenario, regular, early_stop=True)
    assert (stopped.visited, stopped.admissible) == (20, 8)
    assert len(stopped.per_pattern) == 4 * stopped.admissible
    edge = evaluate_edge_scenario(orbifold_edge_scenario(orbifold_28), regular)
    assert (edge.visited, edge.admissible) == (0, 0)


def test_regular_table_is_required(orbifold_28):
    # a non-trivial subgroup's table is refused, by the function called
    table = enumerate_cosets(orbifold_28, (Word.generator(0),))
    for evaluate, scenario in ((evaluate_dashed_arc_scenario, dashed_scenario(orbifold_28)),
                               (evaluate_edge_scenario, orbifold_edge_scenario(orbifold_28))):
        with pytest.raises(ValueError, match=f"^{evaluate.__name__} needs the table "
                                             "of the trivial subgroup$"):
            evaluate(scenario, table)


@pytest.fixture
def enumerations(monkeypatch):
    """The arguments of every enumerator made while the test runs."""
    made = []

    class Counted(coset_module._Enumerator):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(coset_module, "_Enumerator", Counted)
    return made


@pytest.mark.parametrize("case_id,n", [("orbifold-28-edge", None), ("orbifold-28-dashed", None),
                                       ("15E", 5), ("19", 5)])
def test_a_case_is_one_enumeration(enumerations, case_id, n):
    assert run_case(case_id, n=n).matched
    assert len(enumerations) == 1


def test_an_evaluator_handed_the_table_enumerates_nothing(orbifold_28, enumerations):
    edge, dashed = orbifold_edge_scenario(orbifold_28), dashed_scenario(orbifold_28)
    regular = enumerate_cosets(orbifold_28)
    enumerations.clear()
    evaluate_edge_scenario(edge, regular)
    for early_stop in (False, True):
        evaluate_dashed_arc_scenario(dashed, regular, early_stop=early_stop)
    assert enumerations == []
    # evaluate_family builds its presentation, so it enumerates it once
    evaluate_family(FAMILY_19, 5)
    assert len(enumerations) == 1


# -- the sweep on group elements against the per-conjugator word loop --


def dashed_pattern_words(scenario, c):
    """The four dashed-arc patterns at conjugator c, as words of the free
    group: f*m, f^-1*m, (f, m*f*m^-1) and (f, m^-1*f*m), m = c*arc*c^-1."""
    fixed, arc = scenario.fixed_word, scenario.arc_word
    moved = conjugate(arc, c)
    return (
        ("loop", (fixed * moved,)),
        ("loop_inv", (~fixed * moved,)),
        ("reflection", (fixed, conjugate(fixed, moved))),
        ("reflection_inv", (fixed, conjugate(fixed, conjugate(~arc, c)))),
    )


def uncached_sweep(scenario, early_stop=False):
    """The dashed-arc sweep with one probe and four indices per conjugator,
    each on conjugated words, as it ran before its work was cached by moved
    element and moved onto the elements of the regular table."""
    pres = scenario.presentation
    reflections = solve_hom_to_z2(pres, scenario.hom_constraints).solvable
    regular = enumerate_cosets(pres)
    sweep = coset_words(regular)
    if early_stop:
        picked, seen = [], set()
        for c in sweep:
            moved = trace_word(regular, 0, conjugate(scenario.arc_word, c))
            if moved not in seen:
                seen.add(moved)
                picked.append(c)
        sweep = tuple(picked)
    outcomes, surfaces, admissible = [], set(), 0
    for index, c in enumerate(sweep):
        if subgroup_index(regular, (scenario.fixed_word, conjugate(scenario.arc_word, c))) != 1:
            continue
        admissible += 1
        label = f"c{index}={format_word(c, pres.generator_names)}"
        for name, words in dashed_pattern_words(scenario, c):
            boundary = subgroup_index(regular, words)
            orientable = name.startswith("loop") or reflections
            surface = classify_surface(scenario.alpha, boundary, orientable)
            outcomes.append(scenario_module.PatternOutcome(
                name, boundary, orientable, surface.genus, conjugator=label, sweep_index=index))
            surfaces.add(surface)
    return scenario_module.ScenarioResult(frozenset(surfaces), tuple(outcomes),
                                          visited=len(sweep), admissible=admissible)


def s4_scenario():
    # S4: 12 of 24 conjugators admissible, 8 moved elements; hom(y=1)
    # fails on y^3, so the reflection patterns are non-orientable
    pres = load_presentation("generators: x y\nrelators: x^2 y^3 (x*y)^4\n")
    return DashedArcScenario(pres, 7, Word.generator(0), Word.generator(1),
                             (Z2Constraint(Word.generator(1), 1),))


def s4_order_3_scenario():
    # the fixed word y has order 3, so f*m and f^-1*m differ in index
    # (2, 6 or 12) on every one of the 24 conjugators
    return replace(s4_scenario(), alpha=23, fixed_word=Word.generator(1),
                   arc_word=Word.generator(0) * Word.generator(1))


@pytest.mark.parametrize("early_stop", [False, True])
@pytest.mark.parametrize("which", ["orbifold-28", "family-19-n3", "s4", "s4-order-3"])
def test_cached_sweep_matches_uncached(orbifold_28, which, early_stop):
    scenario = {"orbifold-28": lambda: dashed_scenario(orbifold_28),
                "family-19-n3": inadmissible_scenario, "s4": s4_scenario,
                "s4-order-3": s4_order_3_scenario}[which]()
    result = evaluate_dashed_arc_scenario(scenario, regular_of(scenario), early_stop=early_stop)
    expected = uncached_sweep(scenario, early_stop)
    assert result.per_pattern == expected.per_pattern
    assert result.surfaces == expected.surfaces
    assert (result.visited, result.admissible) == (expected.visited, expected.admissible)
    if which == "s4":
        assert (expected.visited, expected.admissible) != (0, 0)
        assert any(not o.orientable for o in expected.per_pattern)


@pytest.mark.parametrize("field", ["fixed_word", "arc_word"])
def test_a_word_outside_the_alphabet_is_refused(orbifold_28, field):
    scenario = replace(dashed_scenario(orbifold_28), **{field: Word.generator(3)})
    with pytest.raises(ValueError, match="outside the table's alphabet"):
        evaluate_dashed_arc_scenario(scenario, regular_of(scenario))


@pytest.mark.parametrize("early_stop", [False, True])
def test_sweep_evaluates_each_moved_element_once(orbifold_28, monkeypatch, early_stop):
    # 20 distinct moved elements, 8 of them admissible: 20 probes and
    # 4 x 8 pattern walks of the one orbit loop, where one evaluation per
    # conjugator made 312; each generator is an element's shortlex column
    # path, not a conjugated word
    calls = []

    def counting_orbit(regular, paths):
        calls.append(paths)
        return coset_module._orbit_index(regular, paths)
    monkeypatch.setattr(scenario_module, "_orbit_index", counting_orbit)
    regular = enumerate_cosets(orbifold_28)
    result = evaluate_dashed_arc_scenario(dashed_scenario(orbifold_28), regular,
                                          early_stop=early_stop)
    assert result.admissible == (8 if early_stop else 48)
    assert len(calls) == 20 + 4 * 8
    shortlex = {letter_columns(w) for w in coset_words(regular)}
    assert all(path in shortlex for paths in calls for path in paths)
