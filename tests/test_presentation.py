"""Presentation container and the text format."""

from __future__ import annotations

import re

import pytest

from orbisym import (
    DuplicateGenerator,
    EmptyRelator,
    InvalidParameter,
    Presentation,
    UnknownGenerator,
    Word,
    WordSyntaxError,
    dump_presentation,
    family_15e,
    family_19,
    load_presentation,
    load_presentation_with_aliases,
)
from orbisym.words import MAX_WORD_LETTERS
from conftest import ORBIFOLD_28_TEXT

# <x, y | x^2, y^3, (x*y)^5>, the icosahedral rotation group of order 60
ICOSAHEDRAL_TEXT = "generators: x y\nrelators: x^2 y^3 (x*y)^5\n"


def test_load_orbifold():
    pres = load_presentation(ORBIFOLD_28_TEXT)
    assert pres.generator_names == ("x", "y", "z")
    assert len(pres.relators) == 6
    assert pres.relators[0] == Word((1,) * 5)
    assert pres.relators[3] == Word((1, 3, 1, 3, 1, 3))


def test_aliases_resolved_not_stored():
    text = """\
generators: x y
alias t = x*y
relators: x^2 t^3
"""
    pres, aliases = load_presentation_with_aliases(text)
    assert aliases == {"t": Word((1, 2))}
    assert pres.relators[1] == Word((1, 2, 1, 2, 1, 2))


def test_alias_can_use_earlier_alias():
    text = """\
generators: x y
alias a = x*y
alias b = a^2
relators: b
"""
    pres = load_presentation(text)
    assert pres.relators[0] == Word((1, 2, 1, 2))


def test_comments_and_blank_lines():
    text = "\n# c\ngenerators: x\n\nrelators: x^2\n# tail\n"
    pres = load_presentation(text)
    assert pres.generator_names == ("x",)


def test_multiple_relator_lines_accumulate():
    text = "generators: x y\nrelators: x^2\nrelators: y^2 (x*y)^2\n"
    assert len(load_presentation(text).relators) == 3


def test_no_relators_allowed():
    pres = load_presentation("generators: x\n")
    assert pres.relators == ()


def test_load_errors():
    with pytest.raises(DuplicateGenerator):
        load_presentation("generators: x x\nrelators: x^2\n")
    with pytest.raises(EmptyRelator):
        load_presentation("generators: x\nrelators: x*x^-1\n")
    with pytest.raises(WordSyntaxError):
        load_presentation("relators: x^2\ngenerators: x\n")
    with pytest.raises(WordSyntaxError):
        load_presentation("generators: x\nrelators: x^\n")
    with pytest.raises(WordSyntaxError):
        load_presentation("generators: x\nnonsense: y\n")
    with pytest.raises(DuplicateGenerator):
        load_presentation("generators: x\nalias x = x^2\nrelators: x^2\n")
    with pytest.raises(WordSyntaxError):
        load_presentation("generators: 1x\nrelators:\n")


def test_error_messages_carry_line_numbers():
    with pytest.raises(WordSyntaxError, match="line 2"):
        load_presentation("generators: x\nrelators: x^\n")
    with pytest.raises(DuplicateGenerator, match="^line 2: generator 'x' declared twice$"):
        load_presentation("# two x\ngenerators: x y x\n")
    with pytest.raises(WordSyntaxError, match="^line 1: invalid generator name '1y'$"):
        load_presentation("generators: x 1y\n")
    for newline in ("\r\n", "\r"):
        with pytest.raises(UnknownGenerator, match="^line 3: unknown generator 'q'$"):
            load_presentation(newline.join(["generators: x y", "# c", "relators: q"]))


def test_relators_kept_freely_reduced_only():
    # x*y*x^-1 is freely reduced but not cyclically; it must be kept as is.
    pres = load_presentation("generators: x y\nrelators: x*y*x^-1\n")
    assert pres.relators[0].letters == (1, 2, -1)


def test_direct_construction_validation():
    with pytest.raises(DuplicateGenerator):
        Presentation(("x", "x"), ())
    with pytest.raises(EmptyRelator):
        Presentation(("x",), (Word.identity(),))
    with pytest.raises(WordSyntaxError):
        Presentation(("x",), (Word((2,)),))
    with pytest.raises(WordSyntaxError):
        Presentation(("bad name",), ())


def test_dump_roundtrip(orbifold_28):
    again = load_presentation(dump_presentation(orbifold_28))
    assert again == orbifold_28


def test_family_15e():
    pres = family_15e(7)
    assert pres.generator_names == ("x", "y")
    assert pres.relators[0] == Word((1, 1))
    assert pres.relators[1] == Word((2,) * 7)
    assert pres.relators[2] == Word((1, 2, -1, -2))


def test_family_19():
    pres = family_19(4)
    assert pres.relators[0] == Word((1,) * 4)
    assert pres.relators[1] == Word((2,) * 4)
    assert pres.relators[2] == Word((1, 2, -1, -2))


def test_family_validation():
    for bad in (1, 0, -3, MAX_WORD_LETTERS + 1, 99999999999):
        with pytest.raises(InvalidParameter):
            family_15e(bad)
        with pytest.raises(InvalidParameter):
            family_19(bad)


# Every break str.splitlines knows besides \n, \r\n and \r.
OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85  "


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_only_newlines_end_a_line(brk):
    # A comment runs to \n, \r\n or \r, so what follows another break in
    # it is still comment.
    text = f"generators: x y\nrelators: x^2 y^3 (x*y)^5\n# was {brk}relators: x\n"
    assert load_presentation(text) == load_presentation(ICOSAHEDRAL_TEXT)
    # Outside a comment such a break is blank inside the line, and the
    # lines after it keep their numbers.
    with pytest.raises(UnknownGenerator, match="^line 2: unknown generator 'q'$"):
        load_presentation(f"generators: x y\n{brk}relators: x^2 y^3 q\n")


@pytest.mark.parametrize("line,keyword", [
    ("aliasm = x*y", "aliasm"),
    ("alias_m = x*y", "alias_m"),
    ("relatorsx: x^2", "relatorsx:"),
    ("alias= m x*y", "alias="),
])
def test_a_keyword_is_a_whole_word(line, keyword):
    with pytest.raises(WordSyntaxError,
                       match=rf"^line 2: unrecognized directive {re.escape(repr(keyword))}$"):
        load_presentation(f"generators: x y\n{line}\nrelators: x^2\n")
    # without a blank after its colon a keyword is still whole
    pres, aliases = load_presentation_with_aliases(
        "generators:x y\nalias m=x*y\nrelators:m^2\n")
    assert pres.generator_names == ("x", "y") and aliases == {"m": Word((1, 2))}
