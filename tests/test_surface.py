"""Surface invariants, classification, and the maximal-order formula."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbisym import (
    ClassificationError,
    InvalidParameter,
    NegativeGenus,
    ParityError,
    SurfaceType,
    WordSyntaxError,
    algebraic_genus,
    classify_surface,
    m_alpha,
    surface_from_str,
)
from orbisym.surface import (
    EXCEPTIONAL_ALPHA_CLASSES,
    GENERIC_LABEL,
    SQUARE_RULE_LABEL,
)


def S(g, b):
    return SurfaceType(orientable=True, genus=g, boundary=b)


def N(g, b):
    return SurfaceType(orientable=False, genus=g, boundary=b)


def test_algebraic_genus():
    assert algebraic_genus(S(0, 12)) == 11
    assert algebraic_genus(N(6, 6)) == 11
    assert algebraic_genus(S(5, 12)) == 21
    assert algebraic_genus(S(0, 3)) == 2
    assert algebraic_genus(N(1, 2)) == 2
    assert algebraic_genus(S(1176, 50)) == 2401


def test_classify_examples():
    assert classify_surface(11, 12, True) == S(0, 12)
    assert classify_surface(11, 6, False) == N(6, 6)
    assert classify_surface(21, 12, True) == S(5, 12)
    assert classify_surface(11, 10, True) == S(1, 10)
    assert classify_surface(2, 3, True) == S(0, 3)


def test_classify_parity_error():
    # orientable needs alpha + 1 - boundary even
    with pytest.raises(ParityError):
        classify_surface(11, 9, True)


def test_classify_negative_genus():
    with pytest.raises(NegativeGenus):
        classify_surface(11, 14, True)
    # non-orientable genus must be at least 1
    with pytest.raises(NegativeGenus):
        classify_surface(11, 12, False)
    with pytest.raises(NegativeGenus):
        classify_surface(11, 13, False)


def test_classify_validation():
    with pytest.raises(InvalidParameter):
        classify_surface(1, 1, True)
    with pytest.raises(InvalidParameter):
        classify_surface(5, 0, True)


def test_surface_validation():
    with pytest.raises(ClassificationError):
        SurfaceType(orientable=True, genus=-1, boundary=2)
    with pytest.raises(ClassificationError):
        SurfaceType(orientable=True, genus=1, boundary=0)
    with pytest.raises(ClassificationError):
        SurfaceType(orientable=False, genus=0, boundary=3)
    # algebraic genus below 2 is outside the classification's scope
    with pytest.raises(ClassificationError):
        SurfaceType(orientable=True, genus=0, boundary=1)
    with pytest.raises(ClassificationError):
        SurfaceType(orientable=False, genus=1, boundary=1)


def test_display_and_parse():
    assert str(S(0, 12)) == "S_{0,12}"
    assert str(N(6, 6)) == "N_{6,6}"
    assert surface_from_str("S_{5,12}") == S(5, 12)
    assert surface_from_str("N_{30,12}") == N(30, 12)
    # g and b are ASCII integers, with no underscore, plus sign or space.
    for bad in ("S_{5}", "X_{1,2}", "S_{a,b}", "S_{1,2", "", "S_{1_0,2}", "N_{+3,2}",
                "S_{ 1,2}", "S_{١,3}"):
        with pytest.raises(ValueError):
            surface_from_str(bad)
    # well-formed text with an impossible surface fails validation instead
    with pytest.raises(ClassificationError):
        surface_from_str("S_{-1,2}")
    # g and b have at most 18 digits, as every integer orbisym reads
    with pytest.raises(WordSyntaxError, match="^integer of 5000 digits is over the 18-digit"):
        surface_from_str("S_{" + "7" * 5000 + ",2}")
    assert surface_from_str("S_{" + "1" * 18 + ",2}").genus == int("1" * 18)


def test_ordering_is_total():
    surfaces = [S(5, 12), N(6, 6), S(0, 12), N(30, 12)]
    assert sorted(surfaces) == sorted(surfaces, reverse=True)[::-1]
    assert len(set(surfaces)) == 4


valid_surfaces = st.one_of(
    st.tuples(st.integers(0, 40), st.integers(1, 40)).filter(
        lambda gb: 2 * gb[0] - 1 + gb[1] >= 2).map(lambda gb: S(*gb)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(
        lambda gb: gb[0] - 1 + gb[1] >= 2).map(lambda gb: N(*gb)),
)


@given(valid_surfaces)
def test_classify_roundtrip(surface):
    alpha = algebraic_genus(surface)
    assert classify_surface(alpha, surface.boundary, surface.orientable) == surface


def test_m_alpha_values():
    expected = {
        2: 12, 3: 24, 4: 36, 5: 48, 9: 96, 11: 120, 25: 288,
        97: 1152, 121: 1440, 241: 2880,
        7: 48, 49: 384,
        16: 100, 19: 120, 361: 2400,
        21: 120, 481: 2880,
        41: 192, 1681: 7200,
        29: 120, 8: 36, 100: 484, 36: 196, 500: 2004, 841: 3600,
    }
    for alpha, value in expected.items():
        cls = m_alpha(alpha)
        assert cls.value == value, alpha


def test_m_alpha_labels():
    assert m_alpha(2).label == "12(a-1)"
    assert m_alpha(7).label == "8(a-1)"
    assert m_alpha(19).label == "20(a-1)/3"
    assert m_alpha(21).label == "6(a-1)"
    assert m_alpha(41).label == "24(a-1)/5"
    assert m_alpha(1681).label == "30(a-1)/7"
    assert m_alpha(841).label == SQUARE_RULE_LABEL
    assert m_alpha(100).label == SQUARE_RULE_LABEL
    assert m_alpha(29).label == GENERIC_LABEL
    assert m_alpha(500).label == GENERIC_LABEL


def test_m_alpha_exceptional_precedence_is_consistent():
    # where an exceptional alpha is also a perfect square, the formulas agree
    assert m_alpha(4).value == 36 == 4 * (2 + 1) ** 2
    assert m_alpha(16).value == 100 == 4 * (4 + 1) ** 2
    assert m_alpha(25).label == "12(a-1)" and m_alpha(25).value == 288
    assert m_alpha(49).label == "8(a-1)" and m_alpha(49).value == 384


def test_m_alpha_validation():
    for bad in (1, 0, -5):
        with pytest.raises(InvalidParameter):
            m_alpha(bad)


def test_m_alpha_lower_bound():
    # the returned order never drops below the generic formula
    for alpha in range(2, 2001):
        assert m_alpha(alpha).value >= 4 * (alpha + 1)


def test_exceptional_sets_disjoint():
    seen = set()
    for _, _, _, members in EXCEPTIONAL_ALPHA_CLASSES:
        assert not (seen & members)
        seen |= members
