"""Exact rational truth values in [0, 1]: range checks, parsing and printing.

Truth values and measure weights are `fractions.Fraction` throughout, so
every comparison downstream is exact; floats never enter the computation.
A model file's values are read straight to integers, as `Ratio`s: the
numerator and denominator of their `Fraction`, without making one.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import FormatError, ValueOutOfRange

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default five-point grid used by generators and exhaustive checks.
DEFAULT_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


class Ratio(NamedTuple):
    """A rational as the two integers of its `Fraction`: in lowest terms, the denominator positive."""

    numerator: int
    denominator: int


def unit(value) -> Fraction | Ratio:
    """Coerce `value` to an exact rational and require it to lie in [0, 1]; a `Ratio` stays one."""
    # a Fraction is immutable, so it needs no copy; its denominator is positive,
    # so the range test can compare integers instead of Fractions
    q = value if type(value) is Fraction or type(value) is Ratio else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:
        raise ValueOutOfRange(f"value {Fraction(q.numerator, q.denominator)} is outside [0, 1]")
    return q


def parse_ratio(text: str) -> Ratio:
    """Parse a "p/q" or "p" string straight to integers (no floats accepted)."""
    if not isinstance(text, str):
        raise FormatError(f"not a rational 'p/q' string: {text!r}")
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:
        raise FormatError(f"not a rational 'p/q' string: {text!r}") from exc
    if q == 0:
        raise FormatError(f"not a rational 'p/q' string: {text!r}")
    common = gcd(p, q) if q > 0 else -gcd(p, q)
    return Ratio(p // common, q // common)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or "p" string into a Fraction (no floats accepted)."""
    return Fraction(*parse_ratio(text))


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as the canonical "p/q" (or integer "p") string, with every digit.

    `str` of an integer past the interpreter's digit limit raises; a
    `Decimal` of it prints every digit and leaves the limit as it is.
    """
    try:
        return str(q)
    except ValueError:
        text = str(Decimal(q.numerator))
        return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"

