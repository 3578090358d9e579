"""Exact rationals in the unit interval and grid helpers.

All structure values in this package are ``fractions.Fraction`` instances
confined to [0, 1].  Fractions are already stored in lowest terms and
compare exactly, so no wrapper class is needed; this module supplies
validation, the "p/q" wire format, and the sampling grids used by the
brute-force oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def unit(value) -> Fraction:
    """Coerce to a Fraction and check it lies in [0, 1]."""
    v = Fraction(value)
    if not ZERO <= v <= ONE:
        raise ValueError(f"value {v} outside [0, 1]")
    return v


SAMPLE_DENOMINATOR = 16
"""Denominator of the k/16 sampling grid behind ``witness``'s triple
search and the ``resd_prop`` suite's cubes."""


def parse_rat(text: str) -> Fraction:
    """Parse the "p/q" wire format (a bare integer is accepted too)."""
    if not isinstance(text, str):
        raise ParseError(f'bad rational {text!r}: rationals travel as "p/q" strings')
    try:
        v = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    if not ZERO <= v <= ONE:
        raise ParseError(f"rational {text!r} outside [0, 1]")
    return v


def format_rat(v: Fraction) -> str:
    """Render as "p/q" (always with an explicit denominator)."""
    return f"{v.numerator}/{v.denominator}"


def uniform_grid(denominator: int) -> list[Fraction]:
    """The multiples k/denominator for k = 0..denominator, ascending."""
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    return [Fraction(k, denominator) for k in range(denominator + 1)]
