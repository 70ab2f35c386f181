"""Exact rational truth values in [0, 1]: range checks, parsing and printing.

Truth values and measure weights are `fractions.Fraction` throughout, so
every comparison downstream is exact; floats never enter the computation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError, ValueOutOfRange

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default five-point grid used by generators and exhaustive checks.
DEFAULT_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


def unit(value) -> Fraction:
    """Coerce `value` to an exact rational and require it to lie in [0, 1]."""
    # a Fraction is immutable, so it needs no copy; its denominator is positive,
    # so the range test can compare integers instead of Fractions
    q = value if type(value) is Fraction else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:
        raise ValueOutOfRange(f"value {q} is outside [0, 1]")
    return q


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or "p" string into a Fraction (no floats accepted)."""
    if not isinstance(text, str):
        raise FormatError(f"not a rational 'p/q' string: {text!r}")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational 'p/q' string: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as the canonical "p/q" (or integer "p") string."""
    return str(q)

