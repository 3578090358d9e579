"""Tests for the closed-interval union type."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realcat.intervals import IntervalSet

unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=32)


def interval_sets(draw_points=unit_rationals):
    pairs = st.tuples(draw_points, draw_points).map(
        lambda p: (min(p), max(p))
    )
    return st.lists(
        st.one_of(draw_points, pairs), min_size=0, max_size=5
    ).map(IntervalSet.of)


class TestNormalization:
    def test_touching_components_merge(self):
        s = IntervalSet.of([(0, F(1, 2)), (F(1, 2), 1)])
        assert s.components == ((F(0), F(1)),)

    def test_overlapping_components_merge(self):
        s = IntervalSet.of([(0, F(2, 3)), (F(1, 3), F(3, 4))])
        assert s.components == ((F(0), F(3, 4)),)

    def test_points_and_intervals_mix(self):
        s = IntervalSet.of([1, (0, F(1, 4)), F(1, 2)])
        assert s.components == (
            (F(0), F(1, 4)),
            (F(1, 2), F(1, 2)),
            (F(1), F(1)),
        )

    def test_point_inside_interval_absorbed(self):
        assert IntervalSet.of([(0, F(1, 2)), F(1, 4)]) == IntervalSet.of(
            [(0, F(1, 2))]
        )

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.of([(F(1, 2), F(1, 4))])

    def test_out_of_unit_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.of([F(3, 2)])

    @given(interval_sets())
    def test_components_sorted_and_disjoint(self, s):
        for (lo, hi), (lo2, hi2) in zip(s.components, s.components[1:]):
            assert lo <= hi
            assert hi < lo2


class TestMembership:
    S = IntervalSet.of([(0, F(1, 2)), 1])

    def test_contains(self):
        assert F(1, 3) in self.S
        assert F(1, 2) in self.S
        assert 1 in self.S
        assert F(3, 4) not in self.S

    def test_component_of(self):
        assert self.S.component_of(F(1, 3)) == (F(0), F(1, 2))
        assert self.S.component_of(F(3, 4)) is None

    def test_covers_interval(self):
        assert self.S.covers_interval(F(1, 4), F(1, 2))
        assert not self.S.covers_interval(F(1, 4), F(3, 4))
        # an interval spanning two components is not covered
        assert not self.S.covers_interval(F(1, 2), 1)

    def test_is_subset(self):
        assert IntervalSet.of([0, F(1, 2)]).is_subset(self.S)
        assert not IntervalSet.of([(0, F(3, 4))]).is_subset(self.S)
        assert self.S.is_subset(IntervalSet.full())

    def test_extrema(self):
        assert self.S.supremum == 1
        with pytest.raises(ValueError):
            IntervalSet.empty().supremum


class TestBounds:
    S = IntervalSet.of([(F(1, 4), F(1, 2)), 1])

    def test_max_below(self):
        assert self.S.max_below(F(3, 4)) == F(1, 2)
        assert self.S.max_below(F(3, 8)) == F(3, 8)
        assert self.S.max_below(F(1, 8)) is None
        assert self.S.max_below(1) == 1

    def test_min_above(self):
        assert self.S.min_above(0) == F(1, 4)
        assert self.S.min_above(F(3, 8)) == F(3, 8)
        assert self.S.min_above(F(3, 4)) == 1
        assert IntervalSet.of([0]).min_above(F(1, 2)) is None

    def test_isolated_from_below(self):
        assert self.S.is_isolated_from_below(F(1, 4))
        assert not self.S.is_isolated_from_below(F(1, 2))
        assert self.S.is_isolated_from_below(1)
        with pytest.raises(ValueError):
            self.S.is_isolated_from_below(F(1, 8))

    @given(interval_sets(), unit_rationals)
    def test_max_below_is_the_greatest_member(self, s, bound):
        got = s.max_below(bound)
        if got is None:
            assert all(lo > bound for lo, _ in s.components)
        else:
            assert got in s and got <= bound
            # nothing in the gap (got, bound] belongs to the set
            assert s.gap_value_in(got, bound) is None or not s.covers_interval(
                got, bound
            )

    @given(interval_sets(), unit_rationals)
    def test_min_above_is_the_least_member(self, s, bound):
        got = s.min_above(bound)
        if got is not None:
            assert got in s and got >= bound
            for lo, hi in s.components:
                if hi >= bound:
                    assert got <= max(lo, bound)
                    break


class TestGapWitness:
    def test_no_gap_when_covered(self):
        s = IntervalSet.of([(0, F(1, 2))])
        assert s.gap_value_in(F(1, 8), F(3, 8)) is None

    def test_gap_at_uncovered_start(self):
        s = IntervalSet.of([(F(1, 2), 1)])
        assert s.gap_value_in(F(1, 4), 1) == F(1, 4)

    def test_gap_after_component_top(self):
        s = IntervalSet.of([(0, F(1, 2)), 1])
        gap = s.gap_value_in(F(1, 4), 1)
        assert gap is not None and gap not in s
        assert F(1, 4) <= gap <= 1

    def test_gap_between_isolated_points(self):
        s = IntervalSet.of([0, F(1, 2), 1])
        gap = s.gap_value_in(0, F(1, 2))
        assert gap == F(1, 4)

    @given(interval_sets(), unit_rationals, unit_rationals)
    def test_gap_value_is_sound_and_complete(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        gap = s.gap_value_in(lo, hi)
        if gap is None:
            assert s.covers_interval(lo, hi)
        else:
            assert lo <= gap <= hi
            assert gap not in s


class TestSampling:
    def test_sample_keeps_endpoints(self):
        s = IntervalSet.of([(F(1, 3), F(2, 3)), 1])
        got = s.sample(4)
        assert F(1, 3) in got and F(2, 3) in got and 1 in got
        assert F(1, 2) in got
        assert all(v in s for v in got)

    def test_finite_members(self):
        assert list(IntervalSet.of([0, F(1, 2), 1]).finite_members()) == [
            F(0),
            F(1, 2),
            F(1),
        ]
        with pytest.raises(ValueError):
            list(IntervalSet.of([(0, F(1, 2))]).finite_members())

    def test_union(self):
        a = IntervalSet.of([(0, F(1, 4))])
        b = IntervalSet.of([(F(1, 4), F(1, 2)), 1])
        assert a.union(b) == IntervalSet.of([(0, F(1, 2)), 1])
