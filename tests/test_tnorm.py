"""Tests for the t-norm kernel: block evaluation, residuals, square
roots, idempotents and the quantale M."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat.ccc import ccc_criterion
from realcat.errors import DomainError, ProductIrrational
from realcat.intervals import IntervalSet
from realcat.tnorm import (
    Block,
    BlockKind,
    FractionDomain,
    GridDomain,
    TNorm,
    godel,
    idempotent_set,
    kernel_domain,
    lukasiewicz,
    m_set,
    meet_residual,
    remark4,
    sqrt_with,
    subquantale_check,
    tnorm_eval,
    tnorm_residual,
    way_below_in_m,
)
from realcat.tnorm import product as product_norm
from realcat.values import unit
from realcat.yoneda import approx_property

LUK = lukasiewicz()
GOD = godel()
PROD = product_norm()
RM4 = remark4()
ALL_NORMS = [GOD, LUK, PROD, RM4]

unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestEvaluation:
    def test_lukasiewicz_values(self):
        assert tnorm_eval(LUK, F(7, 10), F(6, 10)) == F(3, 10)
        assert tnorm_eval(LUK, F(1, 2), F(1, 2)) == 0
        assert tnorm_eval(LUK, F(3, 4), F(3, 4)) == F(1, 2)

    def test_product_values(self):
        assert tnorm_eval(PROD, F(1, 2), F(1, 2)) == F(1, 4)
        assert tnorm_eval(PROD, F(2, 3), F(3, 4)) == F(1, 2)

    def test_godel_is_min(self):
        assert tnorm_eval(GOD, F(7, 10), F(6, 10)) == F(6, 10)

    def test_remark4_lower_block_doubles_product(self):
        # 2xy on [0, 1/2]
        assert tnorm_eval(RM4, F(1, 4), F(1, 2)) == F(1, 4)
        assert tnorm_eval(RM4, F(1, 4), F(1, 4)) == F(1, 8)

    def test_remark4_upper_block_truncated_lukasiewicz(self):
        # max(x + y - 1, 1/2) on [1/2, 1]
        assert tnorm_eval(RM4, F(3, 4), F(7, 8)) == F(5, 8)
        assert tnorm_eval(RM4, F(5, 8), F(5, 8)) == F(1, 2)

    def test_off_block_pairs_take_the_minimum(self):
        # one argument below, one above the remark4 block split
        assert tnorm_eval(RM4, F(1, 4), F(3, 4)) == F(1, 4)

    def test_block_boundary_agrees_with_min(self):
        # at a corner of the block square both formulas give the min
        assert tnorm_eval(RM4, F(1, 2), F(3, 4)) == F(1, 2)
        assert tnorm_eval(LUK, 1, F(2, 5)) == F(2, 5)

    @given(unit_rationals, unit_rationals)
    def test_commutative(self, x, y):
        for t in ALL_NORMS:
            assert tnorm_eval(t, x, y) == tnorm_eval(t, y, x)

    @settings(max_examples=200)
    @given(unit_rationals, unit_rationals, unit_rationals)
    def test_associative(self, x, y, z):
        for t in ALL_NORMS:
            left = tnorm_eval(t, x, tnorm_eval(t, y, z))
            right = tnorm_eval(t, tnorm_eval(t, x, y), z)
            assert left == right

    @given(unit_rationals, unit_rationals, unit_rationals)
    def test_monotone_with_unit(self, x, y, z):
        lo, hi = min(y, z), max(y, z)
        for t in ALL_NORMS:
            assert tnorm_eval(t, x, lo) <= tnorm_eval(t, x, hi)
            assert tnorm_eval(t, x, 1) == x
            assert tnorm_eval(t, x, 0) == 0

    @given(unit_rationals, unit_rationals)
    def test_below_the_minimum(self, x, y):
        for t in ALL_NORMS:
            assert tnorm_eval(t, x, y) <= min(x, y)


class TestOrdinalSumValidation:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            TNorm(
                (
                    Block(F(0), F(2, 3), BlockKind.LUKASIEWICZ),
                    Block(F(1, 2), F(1), BlockKind.PRODUCT),
                )
            )

    def test_degenerate_block_rejected(self):
        with pytest.raises(ValueError):
            Block(F(1, 2), F(1, 2), BlockKind.PRODUCT)

    def test_blocks_sorted_on_construction(self):
        t = TNorm(
            (
                Block(F(1, 2), F(1), BlockKind.LUKASIEWICZ),
                Block(F(0), F(1, 2), BlockKind.PRODUCT),
            )
        )
        assert [b.lo for b in t.blocks] == [F(0), F(1, 2)]
        # same operation table as the named remark4 norm
        for x in [F(k, 8) for k in range(9)]:
            for y in [F(k, 8) for k in range(9)]:
                assert tnorm_eval(t, x, y) == tnorm_eval(RM4, x, y)


def _written_out(t, x, y):
    """x & y from the ordinal-sum formulas, written out here so the
    compiled kernel is checked against an independent copy."""
    for b in t.blocks:
        lo, hi = b.lo, b.hi
        if lo <= x <= hi and lo <= y <= hi:
            if b.kind is BlockKind.LUKASIEWICZ:
                return max(x + y - hi, lo)
            return lo + (x - lo) * (y - lo) / (hi - lo)
    return min(x, y)


@st.composite
def _ordinal_sums(draw):
    """A random ordinal sum of Lukasiewicz and product blocks on cut
    points of a /12 grid, some gaps left to the minimum."""
    cuts = draw(
        st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True).map(sorted)
    )
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from([None, BlockKind.LUKASIEWICZ, BlockKind.PRODUCT]))
        if kind is not None:
            blocks.append(Block(F(lo, 12), F(hi, 12), kind))
    return TNorm(tuple(blocks))


@st.composite
def _norm_and_pair(draw):
    t = draw(st.one_of(st.sampled_from(ALL_NORMS), _ordinal_sums()))
    ends = sorted({F(0), F(1)} | {v for b in t.blocks for v in (b.lo, b.hi)})
    value = st.one_of(st.sampled_from(ends), unit_rationals)
    return t, draw(value), draw(value)


class TestTrustedKernel:
    """``TNorm._and``, the unchecked & under the closure, validation and
    Cat_S loops, against the public function and the written-out
    formulas."""

    @settings(max_examples=500)
    @given(_norm_and_pair())
    def test_kernel_matches_the_formulas(self, case):
        t, x, y = case
        expected = _written_out(t, x, y)
        assert t._and(x, y) == tnorm_eval(t, x, y) == expected

    @settings(max_examples=300)
    @given(_norm_and_pair())
    # the root of 0 in the block [0, 1/12] is 1/24: the grid doubles
    # 12 = lcm(12, 1), not lcm(12, 2 * 1), which holds no 1/24
    @example((TNorm((Block(F(0), F(1, 12), BlockKind.LUKASIEWICZ),)), F(0), F(0)))
    def test_grid_kernel_matches_the_formulas(self, case):
        """Without a product block the kernels may run on numerators
        over d; there & is the formula scaled by d, and the square root
        is, on the grid doubled for roots.  A product block keeps the
        Fraction domain."""
        t, x, y = case
        d = math.lcm(x.denominator, y.denominator)
        dom, rooted = kernel_domain(t, d), kernel_domain(t, d, roots=True)
        if any(b.kind is BlockKind.PRODUCT for b in t.blocks):
            assert isinstance(dom, FractionDomain) and rooted is dom
            return
        assert isinstance(dom, GridDomain) and rooted.d == 2 * dom.d
        assert all(dom.value(dom.of(v)) == v for v in (x, y))
        assert dom.value(dom.op(dom.of(x), dom.of(y))) == _written_out(t, x, y)
        assert rooted.value(rooted.sqrt(rooted.of(x))) == sqrt_with(t, x)

    def test_ordinal_sum_checks_the_block_square(self):
        # (1/4, 3/4) straddles the remark4 split: the min, not 2xy = 3/8
        assert RM4._and(F(1, 4), F(3, 4)) == F(1, 4)
        assert RM4._and(F(3, 4), F(1, 4)) == F(1, 4)
        assert RM4._and(F(1, 2), F(3, 4)) == F(1, 2)

    def test_single_block_norms_compile_to_their_formula(self):
        # a block spelled out compiles to the builtin's bounds-free kernel
        spelled = TNorm((Block(F(0), F(1), BlockKind.LUKASIEWICZ),))
        assert spelled._and is LUK._and
        assert TNorm(())._and is GOD._and
        assert RM4._and is not LUK._and
        # the name is a label: equal norms hash alike and print apart
        assert spelled == LUK and hash(spelled) == hash(LUK)
        assert str(spelled) != str(LUK)

    def test_unit_keeps_a_fraction(self):
        f = F(2, 3)
        assert unit(f) is f
        assert unit(1) == 1 and isinstance(unit(1), F)

    @pytest.mark.parametrize("bad", [F(3, 2), F(-1, 5), 2, -1])
    def test_values_outside_the_unit_interval_raise(self, bad):
        with pytest.raises(ValueError):
            unit(bad)
        for t in ALL_NORMS:
            with pytest.raises(ValueError):
                tnorm_eval(t, bad, F(1, 2))
            with pytest.raises(ValueError):
                tnorm_eval(t, F(1, 2), bad)

    def test_membership_outside_the_unit_interval(self):
        assert 2 not in IntervalSet.full()
        assert F(3, 2) not in IntervalSet.full()
        assert IntervalSet.full().component_of(2) is None


class TestLemmaIdempotentSeparation:
    """x & y = min(x, y) whenever some idempotent p sits between them."""

    @given(unit_rationals, unit_rationals, st.integers(0, 30))
    def test_separated_pairs_meet(self, x, y, pick):
        for t in ALL_NORMS:
            idm = idempotent_set(t)
            candidates = idm.sample(30)
            p = candidates[pick % len(candidates)]
            lo = x * p  # scaled below p
            hi = p + y * (1 - p)  # scaled above p
            assert tnorm_eval(t, lo, hi) == min(lo, hi)


class TestResiduals:
    def test_meet_residual_cases(self):
        assert meet_residual(F(1, 3), F(1, 2)) == 1
        assert meet_residual(F(1, 2), F(1, 3)) == F(1, 3)

    def test_lukasiewicz_residual(self):
        assert tnorm_residual(LUK, F(3, 4), F(1, 2)) == F(3, 4)
        assert tnorm_residual(LUK, F(1, 2), F(3, 4)) == 1

    def test_product_residual(self):
        assert tnorm_residual(PROD, F(3, 4), F(1, 2)) == F(2, 3)

    def test_remark4_residual_inside_lower_block(self):
        # 2 x z <= y  iff  z <= y / (2 x)
        assert tnorm_residual(RM4, F(1, 2), F(1, 4)) == F(1, 4)

    def test_residual_outside_blocks_is_y(self):
        assert tnorm_residual(GOD, F(3, 4), F(1, 2)) == F(1, 2)
        assert tnorm_residual(RM4, F(3, 4), F(1, 4)) == F(1, 4)

    @settings(max_examples=300)
    @given(unit_rationals, unit_rationals, unit_rationals)
    def test_adjunction(self, x, y, z):
        for t in ALL_NORMS:
            res = tnorm_residual(t, x, y)
            assert (tnorm_eval(t, x, z) <= y) == (z <= res)

    @given(unit_rationals, unit_rationals, unit_rationals)
    def test_meet_adjunction(self, x, y, z):
        assert (min(x, z) <= y) == (z <= meet_residual(x, y))


class TestSquareRoots:
    def test_lukasiewicz_midpoint(self):
        assert sqrt_with(LUK, F(1, 2)) == F(3, 4)
        assert sqrt_with(LUK, 0) == F(1, 2)

    def test_product_rational_root(self):
        assert sqrt_with(PROD, F(1, 4)) == F(1, 2)
        assert sqrt_with(PROD, F(4, 9)) == F(2, 3)

    def test_product_irrational_root(self):
        with pytest.raises(ProductIrrational):
            sqrt_with(PROD, F(1, 2))

    def test_remark4_roots(self):
        # in the upper Lukasiewicz block: (x + 1) / 2
        assert sqrt_with(RM4, F(1, 2)) == F(3, 4)
        # in the lower product block: sqrt(x / 2)
        assert sqrt_with(RM4, F(1, 8)) == F(1, 4)

    def test_above_all_blocks_root_is_identity(self):
        assert sqrt_with(GOD, F(2, 7)) == F(2, 7)
        assert sqrt_with(LUK, 1) == 1

    @given(unit_rationals)
    def test_maximality(self, x):
        for t in (LUK, GOD, RM4):
            try:
                z = sqrt_with(t, x)
            except ProductIrrational:
                continue
            assert tnorm_eval(t, z, z) <= x
            for eps in (F(1, 64), F(1, 512)):
                above = z + eps
                if above <= 1:
                    assert tnorm_eval(t, above, above) > x


class TestIdempotentsAndM:
    def test_idempotent_closed_forms(self):
        assert idempotent_set(GOD) == IntervalSet.of([(0, 1)])
        assert idempotent_set(LUK) == IntervalSet.of([0, 1])
        assert idempotent_set(PROD) == IntervalSet.of([0, 1])
        assert idempotent_set(RM4) == IntervalSet.of([0, F(1, 2), 1])

    def test_m_closed_forms(self):
        assert m_set(GOD) == IntervalSet.of([(0, 1)])
        assert m_set(LUK) == IntervalSet.of([(0, F(1, 2)), 1])
        assert m_set(PROD) == IntervalSet.of([0, 1])
        assert m_set(RM4) == IntervalSet.of([0, (F(1, 2), F(3, 4)), 1])

    def test_m_matches_brute_force_definition(self):
        grid = [F(k, 48) for k in range(49)]
        for t in ALL_NORMS:
            m = m_set(t)
            for a in grid:
                aa = tnorm_eval(t, a, a)
                is_member = tnorm_eval(t, aa, aa) == aa
                assert (a in m) == is_member, (t.name, a)

    def test_k_subset_of_m(self):
        l3 = IntervalSet.of([0, F(1, 2), 1])
        assert ccc_criterion(LUK, l3)
        assert not ccc_criterion(LUK, IntervalSet.of([0, F(3, 4), 1]))
        assert ccc_criterion(GOD, IntervalSet.full())


class TestSubquantaleCheck:
    def test_l3_is_a_subquantale(self):
        assert subquantale_check(LUK, IntervalSet.of([0, F(1, 2), 1])).passed

    def test_crisp_pair_always_works(self):
        for t in ALL_NORMS:
            assert subquantale_check(t, IntervalSet.of([0, 1])).passed

    def test_quarter_set_is_closed(self):
        # 1/4 & 1/4 = 0 under Lukasiewicz, so {0, 1/4, 1} is closed
        assert subquantale_check(LUK, IntervalSet.of([0, F(1, 4), 1])).passed

    def test_failure_carries_exact_witness(self):
        res = subquantale_check(LUK, IntervalSet.of([0, F(3, 4), 1]))
        assert not res.passed
        assert res.witness == (F(3, 4), F(3, 4))

    def test_missing_top_fails(self):
        res = subquantale_check(LUK, IntervalSet.of([0, F(1, 2)]))
        assert not res.passed

    def test_interval_components_product_norm(self):
        # [0, 1/2] is closed under multiplication; {3/4} union it is not
        assert subquantale_check(PROD, IntervalSet.of([(0, F(1, 2)), 1])).passed
        res = subquantale_check(
            PROD, IntervalSet.of([(0, F(1, 2)), F(3, 4), 1])
        )
        assert not res.passed
        x, y = res.witness
        assert tnorm_eval(PROD, x, y) not in IntervalSet.of(
            [(0, F(1, 2)), F(3, 4), 1]
        )

    def test_witness_pair_evaluates_to_the_gap(self):
        k = IntervalSet.of([0, (F(5, 8), 1)])
        res = subquantale_check(LUK, k)
        assert not res.passed
        x, y = res.witness
        assert x in k and y in k
        assert tnorm_eval(LUK, x, y) not in k

    @settings(max_examples=300)
    @given(
        st.one_of(st.sampled_from(ALL_NORMS), _ordinal_sums()),
        st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=4),
    )
    @example(LUK, [(0, 3), (6, 18)])
    def test_witness_pair_maps_exactly_onto_the_gap(self, t, ends):
        """For random K (1 always in it), a failure's pair lies in K and
        x & y is the gap value its message names, outside K.  In the
        example the gap 3/16 lies above 1/4 & 3/4 = 0, so the pair is
        solved with y at the top of its component."""
        k = IntervalSet.of(
            [(F(min(e), 24), F(max(e), 24)) for e in ends] + [F(1)]
        )
        res = subquantale_check(t, k)
        if res.passed:
            return
        x, y = res.witness
        gap = tnorm_eval(t, x, y)
        assert x in k and y in k and gap not in k
        assert res.message == f"{x} & {y} = {gap} escapes K"


class TestWayBelow:
    def test_strictly_smaller_is_way_below(self):
        assert way_below_in_m(LUK, F(1, 4), F(1, 2))
        assert not way_below_in_m(LUK, F(1, 2), F(1, 4))

    def test_isolated_points_are_way_below_themselves(self):
        assert way_below_in_m(LUK, 1, 1)
        assert way_below_in_m(LUK, 0, 0)
        assert way_below_in_m(RM4, F(1, 2), F(1, 2))

    def test_limit_points_are_not(self):
        assert not way_below_in_m(LUK, F(1, 2), F(1, 2))
        assert not way_below_in_m(GOD, F(1, 3), F(1, 3))
        assert not way_below_in_m(GOD, 1, 1)

    def test_outside_m_raises(self):
        with pytest.raises(DomainError):
            way_below_in_m(LUK, F(3, 4), 1)

    @given(st.one_of(st.sampled_from(ALL_NORMS), _ordinal_sums()))
    def test_top_way_below_itself_is_approx_includes_top(self, t):
        """approx_property reads includes_top off the blocks by proof;
        way_below_in_m decides it on M."""
        assert way_below_in_m(t, 1, 1) == approx_property(t).includes_top
