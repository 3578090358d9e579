"""Exact rationals in the unit interval.

All structure values in this package are ``fractions.Fraction`` instances
confined to [0, 1].  Fractions are already stored in lowest terms and
compare exactly, so no wrapper class is needed; this module supplies
validation, the "p/q" wire format, and the denominator of the sampling
grid used by the brute-force oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def unit(value) -> Fraction:
    """Coerce to a Fraction and check it lies in [0, 1].  A Fraction
    comes back as it is: it is immutable and already in lowest terms.
    A float is refused: 0.1 is not 1/10 but the nearest binary
    fraction, so values stay exact only when given exactly."""
    if isinstance(value, Fraction):
        v = value
    elif isinstance(value, float):
        raise ValueError(f"value {value!r} is a float, not an exact rational")
    else:
        v = Fraction(value)
    # the denominator is positive, so 0 <= v <= 1 compares integers
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"value {v} outside [0, 1]")
    return v


SAMPLE_DENOMINATOR = 16
"""Denominator of the k/16 sampling grid behind ``witness``'s triple
search and the ``resd_prop`` suite's cubes."""


def parse_rat(text: str) -> Fraction:
    """Parse the "p/q" wire format (a bare integer is accepted too).
    The accepted texts are those of Python 3.10's ``Fraction(str)`` on
    every version: later versions also read underscores (3.11) and
    blanks around the slash (3.12), which are refused here."""
    if not isinstance(text, str):
        raise ParseError(f'bad rational {text!r}: rationals travel as "p/q" strings')
    try:
        stripped = text.strip()
        if "_" in stripped or any(ch.isspace() for ch in stripped):
            raise ValueError("underscore or blank inside a rational")
        v = Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    if not ZERO <= v <= ONE:
        raise ParseError(f"rational {text!r} outside [0, 1]")
    return v


def format_rat(v: Fraction) -> str:
    """Render as "p/q" (always with an explicit denominator)."""
    return f"{v.numerator}/{v.denominator}"
