from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intlogic import errors, rational

import oracle


def test_unit_accepts_bounds():
    assert rational.unit(0) == Fraction(0)
    assert rational.unit(1) == Fraction(1)
    assert rational.unit(Fraction(2, 4)) == Fraction(1, 2)


@pytest.mark.parametrize("bad", [Fraction(-1, 2), Fraction(3, 2), 2, -1])
def test_unit_rejects_out_of_range(bad):
    with pytest.raises(errors.ValueOutOfRange):
        rational.unit(bad)


def test_parse_and_format_round_trip():
    for text in ["1/2", "0", "1", "3/4", "7/9"]:
        assert rational.format_rational(rational.parse_rational(text)) == text


def test_parse_rejects_floats_and_junk():
    for bad in ["0.5", "one", "1/0", ""]:
        with pytest.raises(errors.FormatError):
            rational.parse_rational(bad)


@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool), st.sampled_from(["{}/{}", " {} / {} "]))
def test_parse_ratio_gives_the_fractions_integers(p, q, shape):
    # what parse_rational reads as a Fraction, parse_ratio reads straight to its two integers
    text = shape.format(p, q)
    expected = Fraction(p, q)
    assert rational.parse_ratio(text) == (expected.numerator, expected.denominator)
    assert rational.parse_rational(text) == expected


def test_unit_keeps_a_ratio_and_reports_its_fraction():
    assert rational.unit(rational.Ratio(1, 2)) == rational.Ratio(1, 2)
    with pytest.raises(errors.ValueOutOfRange, match=r"^value 3/2 is outside \[0, 1\]$"):
        rational.unit(rational.parse_ratio("-6/-4"))


unit_values = st.fractions(min_value=0, max_value=1, max_denominator=30)


@given(unit_values, unit_values)
def test_implication_characterises_order(x, y):
    assert (oracle.implies(x, y) == 1) == (x <= y)


@given(unit_values, unit_values)
def test_connectives_stay_in_unit_interval(x, y):
    for op in (oracle.weak_and, oracle.weak_or, oracle.strong_and,
               oracle.strong_or, oracle.implies):
        assert 0 <= op(x, y) <= 1
    assert 0 <= oracle.neg(x) <= 1


@given(unit_values, unit_values)
def test_strong_weak_ordering(x, y):
    assert oracle.strong_and(x, y) <= oracle.weak_and(x, y)
    assert oracle.weak_and(x, y) <= oracle.weak_or(x, y)
    assert oracle.weak_or(x, y) <= oracle.strong_or(x, y)


@given(unit_values, unit_values)
def test_strong_pair_additivity(x, y):
    # min(1, x+y) + max(0, x+y-1) == x + y underlies the additivity law
    assert oracle.strong_or(x, y) + oracle.strong_and(x, y) == x + y


def test_lukasiewicz_implication_values():
    assert oracle.implies(Fraction(7, 10), Fraction(3, 10)) == Fraction(3, 5)
    assert oracle.implies(Fraction(3, 10), Fraction(7, 10)) == 1
