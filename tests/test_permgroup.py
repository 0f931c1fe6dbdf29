"""Permutations and BFS element enumeration."""

from __future__ import annotations

import itertools

import pytest

from orbisym import (
    LimitExceeded,
    Word,
    load_presentation,
    enumerate_cosets,
)
from orbisym.coset import permutation_rep
from orbisym.permgroup import (
    PermGroup,
    Permutation,
    enumerate_elements,
    evaluate_word,
    group_order_perm,
)
from conftest import compose, dihedral_generators, mulclose


def d7_group():
    rot, ref = dihedral_generators(7)
    return PermGroup(degree=7, generators=(
        ("x", Permutation(rot)),
        ("y", Permutation(ref)),
    ))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))


def test_composition_convention():
    p = Permutation((1, 2, 0))
    q = Permutation((1, 0, 2))
    # p then q
    assert (p * q).images == tuple(compose(p.images, q.images))
    assert p * p.inverse() == Permutation.identity(3)
    assert p.inverse() * p == Permutation.identity(3)
    assert p(0) == 1
    assert Permutation.identity(4).is_identity()


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation((1, 0)) * Permutation((1, 2, 0))


def test_letter_permutation():
    g = d7_group()
    assert g.letter_permutation(1) == g.generators[0][1]
    assert g.letter_permutation(-1) == g.generators[0][1].inverse()
    assert g.letter_permutation(2) == g.generators[1][1]
    with pytest.raises(ValueError):
        g.letter_permutation(0)
    with pytest.raises(ValueError):
        g.letter_permutation(3)


def test_evaluate_word():
    g = d7_group()
    # the dihedral relator (x*y)^2 evaluates to the identity
    assert evaluate_word(g, Word((1, 2, 1, 2))).is_identity()
    assert evaluate_word(g, Word.identity()).is_identity()


def test_enumerate_elements_counts():
    g = d7_group()
    elements = enumerate_elements(g)
    assert len(elements.entries) == 14
    assert group_order_perm(g) == len(mulclose(dihedral_generators(7))) == 14


def test_enumerate_elements_identity_first():
    elements = enumerate_elements(d7_group())
    perm0, word0 = elements.entries[0]
    assert word0 == Word.identity()
    assert perm0.is_identity()


def test_enumerate_elements_words_are_shortlex_minimal():
    # On a small group, exhaustively confirm no shorter word reaches the
    # same permutation, and that listed words evaluate to their entry.
    text = "generators: x y\nrelators: x^3 y^2 (x*y)^2\n"
    pres = load_presentation(text)
    g = permutation_rep(enumerate_cosets(pres))
    elements = enumerate_elements(g)
    assert len(elements.entries) == 6
    lengths = [len(w) for _, w in elements.entries]
    assert lengths == sorted(lengths)
    for perm, word in elements.entries:
        assert evaluate_word(g, word) == perm
        for n in range(len(word)):
            for candidate in itertools.product((1, -1, 2, -2), repeat=n):
                assert evaluate_word(g, Word(candidate)) != perm or Word(candidate) == word


def test_enumeration_cap():
    with pytest.raises(LimitExceeded):
        enumerate_elements(d7_group(), max_order=5)
