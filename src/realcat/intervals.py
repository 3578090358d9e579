"""Finite unions of closed rational intervals in [0, 1].

These sets house the complete sublattices K, the quantale M and the
idempotent set of a t-norm.  Closed components suffice: every such set
arising from finitely many Archimedean blocks is a finite union of
closed intervals and isolated points.  Components are kept sorted and
disjoint (touching components are merged), so equality, membership and
containment are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .values import ONE, ZERO, unit


@dataclass(frozen=True)
class IntervalSet:
    """Normalized finite union of closed intervals [lo, hi] (lo == hi
    encodes an isolated point)."""

    components: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(parts: Iterable) -> "IntervalSet":
        """Build from (lo, hi) pairs or bare points, normalizing."""
        raw = []
        for part in parts:
            if isinstance(part, tuple):
                lo, hi = unit(part[0]), unit(part[1])
            else:
                lo = hi = unit(part)
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is empty")
            raw.append((lo, hi))
        raw.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return IntervalSet(tuple((lo, hi) for lo, hi in merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet(((ZERO, ONE),))

    def __contains__(self, value) -> bool:
        v = value if isinstance(value, Fraction) else Fraction(value)
        return any(lo <= v <= hi for lo, hi in self.components)

    def __bool__(self) -> bool:
        return bool(self.components)

    def component_of(self, value) -> tuple[Fraction, Fraction] | None:
        v = value if isinstance(value, Fraction) else Fraction(value)
        for lo, hi in self.components:
            if lo <= v <= hi:
                return (lo, hi)
        return None

    def covers_interval(self, lo: Fraction, hi: Fraction) -> bool:
        """Whether the whole closed interval [lo, hi] is inside the set.
        A closed interval fits a disjoint union of closed intervals only
        if it fits a single component."""
        return any(clo <= lo and hi <= chi for clo, chi in self.components)

    def is_subset(self, other: "IntervalSet") -> bool:
        return all(other.covers_interval(lo, hi) for lo, hi in self.components)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(list(self.components) + list(other.components))

    @property
    def supremum(self) -> Fraction:
        if not self.components:
            raise ValueError("empty set has no supremum in itself")
        return self.components[-1][1]

    def max_below(self, bound: Fraction) -> Fraction | None:
        """Largest member <= bound, or None if there is none.  Well
        defined because components are closed."""
        best = None
        for lo, hi in self.components:
            if lo > bound:
                break
            best = min(hi, bound)
        return best

    def min_above(self, bound: Fraction) -> Fraction | None:
        """Smallest member >= bound, or None if there is none."""
        for lo, hi in self.components:
            if hi >= bound:
                return max(lo, bound)
        return None

    def is_isolated_from_below(self, value) -> bool:
        """True when value is not a limit of strictly smaller members,
        i.e. it is the left endpoint of its component."""
        comp = self.component_of(value)
        if comp is None:
            raise ValueError(f"{value} not a member")
        return comp[0] == Fraction(value)

    def gap_value_in(self, lo: Fraction, hi: Fraction) -> Fraction | None:
        """Some rational in [lo, hi] that is NOT a member, or None if
        [lo, hi] is covered.  Used to produce closure-failure witnesses."""
        if self.covers_interval(lo, hi):
            return None
        cursor = lo
        for clo, chi in self.components:
            if chi < cursor:
                continue
            if clo > cursor:
                break
            cursor = chi
            if cursor >= hi:
                return None
        if cursor not in self:
            return cursor
        # cursor sits at a component top; the gap starts just above it.
        nxt = min((clo for clo, _ in self.components if clo > cursor), default=None)
        upper = hi if nxt is None else min(hi, nxt)
        return (cursor + upper) / 2

    def sample(self, denominator: int) -> list[Fraction]:
        """Members on the k/denominator grid plus all component endpoints."""
        out = set()
        for lo, hi in self.components:
            out.add(lo)
            out.add(hi)
        for k in range(denominator + 1):
            v = Fraction(k, denominator)
            if v in self:
                out.add(v)
        return sorted(out)

    def finite_members(self) -> Iterator[Fraction]:
        """Iterate the members when every component is a point; raises
        otherwise."""
        for lo, hi in self.components:
            if lo != hi:
                raise ValueError("set has a non-degenerate interval component")
            yield lo
