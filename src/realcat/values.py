"""Exact rationals in the unit interval.

All structure values in this package are ``fractions.Fraction`` instances
confined to [0, 1].  Fractions are already stored in lowest terms and
compare exactly, so no wrapper class is needed; this module supplies
validation, the "p/q" wire format, the denominator of the sampling grid
used by the brute-force oracles, and the bases of the value classes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

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


class Record:
    """Base of the package's value classes.  Equality (same class, equal
    fields) and the repr read the fields that the class names, in
    order, in ``_fields``; each class writes its own ``__init__``.  A
    Record is mutable, so it has no hash."""

    _fields: tuple = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        """``_key``, the tuple of the fields, read by one attrgetter per
        class (which gives a bare value for one field); a class that
        writes its own ``_key`` keeps it."""
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields and "_key" not in cls.__dict__:
            get = attrgetter(*fields)
            cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._key == other._key
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A Record whose fields its ``__init__`` writes once, into
    ``__dict__``; it refuses every later assignment and hashes its
    fields (``_key``)."""

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
