"""Homomorphisms onto Z2, checked against brute-force enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbisym import (
    Presentation,
    Word,
    Z2Constraint,
    exponent_vector_mod2,
    load_presentation,
    parse_word,
    solve_hom_to_z2,
)
from conftest import ORBIFOLD_28_TEXT, brute_force_hom2


def _check_assignment(pres, constraints, assignment):
    n = pres.n_generators
    for r in pres.relators:
        vec = exponent_vector_mod2(r, n)
        assert sum(a * v for a, v in zip(assignment, vec)) % 2 == 0
    for c in constraints:
        vec = exponent_vector_mod2(c.word, n)
        assert sum(a * v for a, v in zip(assignment, vec)) % 2 == c.target


def test_orbifold_solvable_check():
    pres = load_presentation(ORBIFOLD_28_TEXT)
    names = pres.generator_names
    constraints = (
        Z2Constraint(parse_word("x*y*z^-1*x^-1", names), 1),
        Z2Constraint(parse_word("x*y*x^-1", names), 1),
        Z2Constraint(parse_word("x*y", names), 1),
    )
    result = solve_hom_to_z2(pres, constraints)
    assert result.solvable
    assert result.assignment == (0, 1, 0)
    _check_assignment(pres, constraints, result.assignment)


def test_orbifold_unsolvable_check():
    pres = load_presentation(ORBIFOLD_28_TEXT)
    names = pres.generator_names
    constraints = (
        Z2Constraint(parse_word("y", names), 1),
        Z2Constraint(parse_word("x*z", names), 1),
    )
    result = solve_hom_to_z2(pres, constraints)
    assert not result.solvable
    assert result.assignment is None


def test_no_constraints_always_solvable():
    pres = load_presentation("generators: x\nrelators: x^3\n")
    result = solve_hom_to_z2(pres, ())
    assert result.solvable
    # x has odd order, so the only homomorphism kills it
    assert result.assignment == (0,)


def test_constraint_validation():
    with pytest.raises(ValueError):
        Z2Constraint(Word((1,)), 2)
    pres = load_presentation("generators: x\nrelators: x^2\n")
    with pytest.raises(ValueError):
        solve_hom_to_z2(pres, (Z2Constraint(Word((2,)), 1),))


def _random_instance(rng: random.Random):
    n = rng.randint(1, 6)
    names = tuple(f"g{i}" for i in range(n))
    alphabet = [s * i for i in range(1, n + 1) for s in (1, -1)]

    def rand_word(max_len):
        return Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))

    relators = []
    for _ in range(rng.randint(0, 4)):
        w = rand_word(8)
        if w:
            relators.append(w)
    pres = Presentation(names, tuple(relators))
    constraints = tuple(
        Z2Constraint(rand_word(6), rng.randint(0, 1)) for _ in range(rng.randint(0, 4))
    )
    return pres, constraints


def _brute(pres, constraints):
    n = pres.n_generators
    rel_vecs = [exponent_vector_mod2(r, n) for r in pres.relators]
    con_vecs = [(exponent_vector_mod2(c.word, n), c.target) for c in constraints]
    return brute_force_hom2(rel_vecs, con_vecs, n)


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force_seeded(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        pres, constraints = _random_instance(rng)
        expected = _brute(pres, constraints)
        result = solve_hom_to_z2(pres, constraints)
        assert result.solvable == (expected is not None)
        if result.solvable:
            _check_assignment(pres, constraints, result.assignment)


@given(st.data())
def test_matches_brute_force_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    names = tuple(f"g{i}" for i in range(n))
    alphabet = [s * i for i in range(1, n + 1) for s in (1, -1)]
    word_strategy = st.lists(st.sampled_from(alphabet), max_size=8).map(
        lambda ls: Word(tuple(ls)))
    relators = tuple(w for w in data.draw(st.lists(word_strategy, max_size=4)) if w)
    constraints = tuple(
        Z2Constraint(w, data.draw(st.integers(0, 1)))
        for w in data.draw(st.lists(word_strategy, max_size=3)))
    pres = Presentation(names, relators)
    expected = _brute(pres, constraints)
    result = solve_hom_to_z2(pres, constraints)
    assert result.solvable == (expected is not None)
    if result.solvable:
        _check_assignment(pres, constraints, result.assignment)


@given(st.data())
def test_adding_constraints_never_helps(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    names = tuple(f"g{i}" for i in range(n))
    alphabet = [s * i for i in range(1, n + 1) for s in (1, -1)]
    word_strategy = st.lists(st.sampled_from(alphabet), max_size=6).map(
        lambda ls: Word(tuple(ls)))
    pres = Presentation(names, ())
    constraints = tuple(
        Z2Constraint(w, data.draw(st.integers(0, 1)))
        for w in data.draw(st.lists(word_strategy, min_size=1, max_size=4)))
    if solve_hom_to_z2(pres, constraints).solvable:
        for k in range(len(constraints)):
            assert solve_hom_to_z2(pres, constraints[:k]).solvable
