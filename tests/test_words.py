"""Word algebra: parsing, formatting, free reduction, operators."""

from __future__ import annotations

import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbisym import (
    Word,
    WordSyntaxError,
    UnknownGenerator,
    conjugate,
    exponent_vector_mod2,
    format_word,
    parse_word,
)
from orbisym import words as words_module
from orbisym.errors import OrbisymError
from orbisym.words import MAX_NESTING, MAX_WORD_LETTERS, _check_length, _Parser, _tokenize

ABC = ("x", "y", "z")

letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)
words = letters.map(lambda ls: Word(tuple(ls)))


def test_parse_basic():
    assert parse_word("x", ABC) == Word((1,))
    assert parse_word("x*y", ABC) == Word((1, 2))
    assert parse_word("x^-1", ABC) == Word((-1,))
    assert parse_word("x^3", ABC) == Word((1, 1, 1))
    assert parse_word("(x*z)^2", ABC) == Word((1, 3, 1, 3))
    assert parse_word("1", ABC) == Word.identity()
    assert parse_word("x^0", ABC) == Word.identity()
    assert parse_word(" x * y ^ -2 ", ABC) == Word((1, -2, -2))


def test_parse_nested_parens():
    w = parse_word("((x*y)^2*z)^-1", ABC)
    assert w == ~(Word((1, 2, 1, 2, 3)))


def test_parse_aliases():
    aliases = {"arc": Word((1, 2))}
    assert parse_word("arc^-1*z", ABC, aliases) == Word((-2, -1, 3))


def test_parse_errors():
    with pytest.raises(UnknownGenerator):
        parse_word("w", ABC)
    # An integer is ASCII digits: '١٢' is not 12, and '١' is not the identity.
    for bad in ("", "x*", "^2", "x^", "(x*y", "x)", "x**y", "2", "x^y", "x y",
                "x^١٢", "x^3*١"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, ABC)


# An alias of half the letter budget.
HALF = {"h": Word((1,) * (MAX_WORD_LETTERS // 2))}


@pytest.mark.parametrize("text,message", [
    ("x^2000000000", "word of 2000000000 letters at position 2 is over"),
    ("y*(x*y)^-600000", "word of 1200000 letters at position 8 is over"),
    ("y*h*h", "word of 1000001 letters at position 3 is over"),
    # Counted before free reduction, which would leave y.
    ("y*h^-1*h", "word of 1000001 letters at position 6 is over"),
    # An integer too long for int() is refused unconverted: 18 digits are
    # over the letter budget as any letter's power.
    pytest.param("x^" + "7" * 5000, "integer of 5000 digits at position 2 is over",
                 id="5000-digits"),
    pytest.param("y*x^-" + "1" * 19, "integer of 19 digits at position 4 is over",
                 id="19-digits"),
])
def test_a_word_over_the_letter_budget_is_rejected_before_it_is_built(text, message):
    limit = "18-digit" if message.startswith("integer") else f"{MAX_WORD_LETTERS}-letter"
    with pytest.raises(WordSyntaxError, match=f"^{message} the {limit} limit$"):
        parse_word(text, ABC, HALF)


def test_the_letter_budget_admits_a_word_of_exactly_its_length():
    assert len(parse_word("h*h", ABC, HALF)) == MAX_WORD_LETTERS


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_parentheses_nested_past_the_cap_are_a_syntax_error(depth):
    text = "(" * depth + "x" + ")" * depth
    with pytest.raises(WordSyntaxError,
                       match=f"^parentheses nested deeper than {MAX_NESTING} "
                             f"at position {MAX_NESTING}$"):
        parse_word(text, ABC)


def test_parentheses_nested_up_to_the_cap_parse():
    depth = MAX_NESTING
    assert parse_word("(" * depth + "x*y" + ")" * depth, ABC) == Word((1, 2))
    # The cap is on depth, not on the number of groups.
    assert parse_word("*".join(["((x))"] * 3 * MAX_NESTING), ABC) == Word((1,) * 300)


def test_free_reduction():
    assert Word((1, -1)) == Word.identity()
    assert Word((1, 2, -2, -1)) == Word.identity()
    assert Word((1, 2, -2, 1)).letters == (1, 1)


def test_format_syllables():
    assert format_word(Word((1, 1, 1, -2, -2)), ABC) == "x^3*y^-2"
    assert format_word(Word.identity(), ABC) == "1"
    assert format_word(Word((1, -2, 1)), ABC) == "x*y^-1*x"


def test_operators():
    x, y = Word.generator(0), Word.generator(1)
    assert x * y == Word((1, 2))
    assert ~(x * y) == Word((-2, -1))
    assert (x * y) ** 2 == Word((1, 2, 1, 2))
    assert (x * y) ** -1 == ~(x * y)
    assert x**0 == Word.identity()
    assert conjugate(y, x) == Word((1, 2, -1))


def test_max_generator_index():
    assert Word((1, -3)).max_generator_index() == 2
    assert Word.identity().max_generator_index() == -1


@given(words)
def test_roundtrip_format_parse(w):
    assert parse_word(format_word(w, ABC), ABC) == w


@given(words)
def test_inverse_cancels(w):
    assert w * ~w == Word.identity()
    assert ~w * w == Word.identity()


@given(words, words, words)
def test_concat_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, words)
def test_exponent_vector_xor(u, v):
    a = exponent_vector_mod2(u, 3)
    b = exponent_vector_mod2(v, 3)
    c = exponent_vector_mod2(u * v, 3)
    assert c == tuple((p + q) % 2 for p, q in zip(a, b))


@given(words, words)
def test_exponent_vector_conjugation_invariant(w, c):
    assert exponent_vector_mod2(conjugate(w, c), 3) == exponent_vector_mod2(w, 3)


def test_a_product_of_many_terms_parses_in_linear_time():
    text = "*".join(["x"] * 20_000)
    start = time.perf_counter()
    w = parse_word(text, ABC)
    elapsed = time.perf_counter() - start
    assert w == parse_word("x^20000", ABC)
    # The fold over Word products took 20 s on this input.
    assert elapsed < 1.0


class FoldParser(_Parser):
    """A product as a left fold of Word products, one new Word per term:
    the quadratic parser that _Parser.word replaces."""

    def word(self):
        result = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[:2] != ("op", "*"):
                return result
            self.pos += 1
            factor = self.term()
            _check_length(len(result) + len(factor), tok[2])
            result = result * factor


def parse_outcome(parser_class, text, aliases):
    """The Word parse_word's steps give with parser_class, or the type
    and message of the error they raise."""
    try:
        parser = parser_class(_tokenize(text), ABC, aliases)
        if parser.peek() is None:
            raise WordSyntaxError("empty word text (use '1' for the identity)")
        result = parser.word()
        tok = parser.peek()
        if tok is not None:
            raise WordSyntaxError(f"trailing input at position {tok[2]}")
        return result
    except OrbisymError as exc:
        return type(exc), str(exc)


# Words of the grammar, and token soup that is mostly not.
word_texts = st.recursive(
    st.sampled_from(["x", "y", "z", "1", "h"]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=6).map("*".join),
        st.tuples(inner, st.integers(-4, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=30,
)
token_soup = st.lists(st.sampled_from(["x", "y^-1", "h", "*", "^", "2", "-1", "(", ")", " ", "1"]),
                      max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(word_texts, token_soup))
def test_the_product_stack_matches_the_fold(text):
    # A small letter budget, so that some products run over it.
    aliases = {"h": Word((1, 2, -1))}
    with mock.patch.object(words_module, "MAX_WORD_LETTERS", 12):
        assert parse_outcome(_Parser, text, aliases) == parse_outcome(FoldParser, text, aliases)
    assert parse_outcome(_Parser, text, aliases) == parse_outcome(FoldParser, text, aliases)
