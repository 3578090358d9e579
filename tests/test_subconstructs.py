"""Tests for suitable sets, the (co)reflectors and the cartesian
closedness machinery."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcat.errors import DomainError, InvalidWitness
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, two_point, validate_qcat
from realcat.subconstructs import (
    ccc_criterion,
    ccc_failure_triple,
    ccc_identity_check,
    ccc_witness,
    check_suitable,
    contains,
    coreflect_c,
    explicit,
    is_in_cat_s,
    k_diagonal,
    k_square,
    power_existence_check,
    reflect_r,
    sqrt_band,
)
from realcat.tnorm import (
    BUILTIN_NORMS,
    Block,
    BlockKind,
    TNorm,
    godel,
    lukasiewicz,
    m_set,
    product,
    remark4,
    tnorm_eval,
)
from realcat.values import ONE

LUK = lukasiewicz()
GOD = godel()
RM4 = remark4()

L3 = IntervalSet.of([0, F(1, 2), 1])
CRISP = IntervalSet.of([0, 1])
K5 = IntervalSet.of([0, F(1, 4), F(1, 2), F(3, 4), 1])


class TestMembership:
    def test_k_square(self):
        s = k_square(LUK, L3)
        assert contains(s, (F(1, 2), 1))
        assert not contains(s, (F(1, 4), 1))

    def test_k_diagonal(self):
        s = k_diagonal(LUK, L3)
        assert contains(s, (F(1, 2), F(1, 2)))
        assert not contains(s, (F(1, 2), 1))

    def test_sqrt_band_via_galois(self):
        s = sqrt_band(LUK)
        # sqrt(1/2) = 3/4 under Lukasiewicz, so (1/2, 3/4) is extremal
        assert contains(s, (F(1, 2), F(3, 4)))
        assert contains(s, (F(1, 2), F(1, 2)))
        assert not contains(s, (F(1, 2), F(7, 8)))
        assert not contains(s, (0, F(3, 4)))

    def test_sqrt_band_never_needs_roots(self):
        from realcat.tnorm import product as product_norm

        s = sqrt_band(product_norm())
        # x <= y <= sqrt(x) with irrational sqrt(1/2): decided exactly
        assert contains(s, (F(1, 2), F(7, 10)))  # 0.49 <= 1/2
        assert not contains(s, (F(1, 2), F(3, 4)))  # 9/16 > 1/2

    def test_explicit(self):
        s = explicit(LUK, [(0, 0), (1, 1)])
        assert contains(s, (0, 0))
        assert not contains(s, (0, 1))


# The band oracle below writes the norm and the band out itself: a norm
# is a list of blocks (lo, hi, kind) on the /12 grid, and x & y is the
# rescaled Lukasiewicz or product operation inside a block square and
# min(x, y) elsewhere.
TWELFTHS = [F(i, 12) for i in range(13)]
BUILTIN_BLOCKS = {
    "godel": [],
    "lukasiewicz": [(F(0), F(1), "lukasiewicz")],
    "product": [(F(0), F(1), "product")],
    "remark4": [(F(0), F(1, 2), "product"), (F(1, 2), F(1), "lukasiewicz")],
}


def oracle_and(blocks, x, y):
    for lo, hi, kind in blocks:
        if lo <= x <= hi and lo <= y <= hi:
            if kind == "lukasiewicz":
                return max(lo, x + y - hi)
            return lo + (x - lo) * (y - lo) / (hi - lo)
    return min(x, y)


def in_band(blocks, a, b):
    return oracle_and(blocks, a, a) <= b and oracle_and(blocks, b, b) <= a


@st.composite
def band_cases(draw):
    """(library norm, its blocks, band members on the /12 grid): a
    builtin norm or a random ordinal sum, whose cuts split [0,1] into
    pieces that are Lukasiewicz blocks, product blocks or left to the
    minimum.  (a, a) is always a member, so every a has a partner."""
    name = draw(st.sampled_from([None, *sorted(BUILTIN_BLOCKS)]))
    if name is not None:
        t, blocks = BUILTIN_NORMS[name](), BUILTIN_BLOCKS[name]
    else:
        cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), min_size=2, max_size=5)))
        kinds = st.sampled_from([None, "lukasiewicz", "product"])
        blocks = [
            (lo, hi, kind)
            for lo, hi in zip(cuts, cuts[1:])
            if (kind := draw(kinds)) is not None
        ]
        t = TNorm(tuple(Block(lo, hi, BlockKind(kind)) for lo, hi, kind in blocks))
    members = []
    for a in draw(st.lists(st.sampled_from(TWELFTHS), min_size=1, max_size=8)):
        partners = [b for b in TWELFTHS if in_band(blocks, a, b)]
        members.append((a, draw(st.sampled_from(partners))))
    return t, blocks, members


class TestCheckSuitable:
    @pytest.mark.parametrize(
        "s",
        [
            k_square(LUK, L3),
            k_diagonal(LUK, L3),
            k_square(LUK, CRISP),
            k_diagonal(LUK, CRISP),
            sqrt_band(LUK),
            sqrt_band(RM4),
        ],
        ids=["ksq-l3", "kdiag-l3", "ksq-crisp", "kdiag-crisp",
             "band-luk", "band-rm4"],
    )
    def test_known_suitable_sets_pass(self, s):
        assert check_suitable(s).passed

    @settings(max_examples=40, deadline=None)
    @given(band_cases())
    def test_sqrt_band_is_suitable(self, case):
        """The library passes the band by proof; here S1-S3 are sampled
        on band members of the /12 grid, independently of it."""
        t, blocks, members = case
        s = sqrt_band(t)
        assert check_suitable(s).passed
        for a, b in members:
            assert contains(s, (a, b))
            assert in_band(blocks, b, a)
            for c, d in members:
                assert in_band(blocks, max(a, c), max(b, d))
                assert in_band(blocks, min(a, c), min(b, d))
                assert in_band(
                    blocks, oracle_and(blocks, a, c), oracle_and(blocks, b, d)
                )

    def test_missing_swap_fails_s2(self):
        s = explicit(LUK, [(0, 0), (1, 1), (F(1, 2), 1)])
        res = check_suitable(s)
        assert not res.passed
        assert res.message.startswith("S2")
        assert res.witness == (F(1, 2), F(1))

    def test_missing_join_fails_s1(self):
        s = explicit(LUK, [(0, 0), (1, 1), (F(1, 2), 0), (0, F(1, 2))])
        res = check_suitable(s)
        assert not res.passed and res.message.startswith("S1")

    def test_missing_tensor_fails_s3(self):
        s = explicit(LUK, [(0, 0), (1, 1), (F(3, 4), F(3, 4))])
        res = check_suitable(s)
        assert not res.passed and res.message.startswith("S3")

    def test_k_variants_reduce_to_subquantale(self):
        res = check_suitable(k_square(LUK, IntervalSet.of([0, F(3, 4), 1])))
        assert not res.passed
        assert res.witness == (F(3, 4), F(3, 4))


class TestCatSMembership:
    def test_k_square_checks_all_pairs(self):
        c = two_point(LUK, F(1, 2), 1)
        assert is_in_cat_s(k_square(LUK, L3), c)
        assert not is_in_cat_s(k_square(LUK, L3), two_point(LUK, F(1, 4), 1))

    def test_k_diagonal_wants_symmetry(self):
        assert is_in_cat_s(k_diagonal(LUK, L3), two_point(LUK, F(1, 2), F(1, 2)))
        assert not is_in_cat_s(
            k_diagonal(LUK, L3), two_point(LUK, F(1, 2), 1)
        )


def brute_force_cat_s_matrices(s, values, size):
    """All valid Cat_S structures on `size` points over the value list."""
    points = tuple(f"p{i}" for i in range(size))
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    for combo in itertools.product(values, repeat=len(slots)):
        matrix = [[ONE] * size for _ in range(size)]
        for (i, j), v in zip(slots, combo):
            matrix[i][j] = v
        c = QCat(s.tnorm, points, tuple(tuple(r) for r in matrix))
        if validate_qcat(c) and is_in_cat_s(s, c):
            yield c


class TestCoreflectorReflector:
    QUARTERS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    @pytest.mark.parametrize(
        "s",
        [k_square(LUK, L3), k_diagonal(LUK, L3), sqrt_band(LUK)],
        ids=["ksq", "kdiag", "band"],
    )
    def test_universal_properties_two_points(self, s):
        for a in self.QUARTERS:
            for b in self.QUARTERS:
                c = two_point(LUK, a, b)
                lower = coreflect_c(s, c)
                upper = reflect_r(s, c)
                assert validate_qcat(lower).passed and is_in_cat_s(s, lower)
                assert validate_qcat(upper).passed and is_in_cat_s(s, upper)
                for cand in brute_force_cat_s_matrices(s, self.QUARTERS, 2):
                    below = all(
                        cand.matrix[i][j] <= c.matrix[i][j]
                        for i in range(2)
                        for j in range(2)
                    )
                    if below:
                        assert all(
                            cand.matrix[i][j] <= lower.matrix[i][j]
                            for i in range(2)
                            for j in range(2)
                        )
                    above = all(
                        cand.matrix[i][j] >= c.matrix[i][j]
                        for i in range(2)
                        for j in range(2)
                    )
                    if above:
                        assert all(
                            cand.matrix[i][j] >= upper.matrix[i][j]
                            for i in range(2)
                            for j in range(2)
                        )

    def test_idempotence_on_cat_s_members(self):
        s = sqrt_band(LUK)
        c = two_point(LUK, F(1, 2), F(5, 8))
        assert is_in_cat_s(s, c)
        assert coreflect_c(s, c).matrix == c.matrix
        assert reflect_r(s, c).matrix == c.matrix

    def test_sqrt_band_coreflection_values(self):
        c = two_point(LUK, F(1, 4), F(3, 4))
        lower = coreflect_c(sqrt_band(LUK), c)
        # (1/4 ^ sqrt(3/4), 3/4 ^ sqrt(1/4)) = (1/4, 5/8)
        assert lower.r("0", "1") == F(1, 4)
        assert lower.r("1", "0") == F(5, 8)

    def test_sqrt_band_reflection_values(self):
        c = two_point(LUK, F(1, 4), F(3, 4))
        upper = reflect_r(sqrt_band(LUK), c)
        # (1/4 v 3/4 & 3/4, 3/4 v 1/4 & 1/4) = (1/2, 3/4)
        assert upper.r("0", "1") == F(1, 2)
        assert upper.r("1", "0") == F(3, 4)


class TestCCCCriterion:
    def test_criterion_values(self):
        assert ccc_criterion(LUK, L3)
        assert ccc_criterion(LUK, CRISP)
        assert not ccc_criterion(LUK, K5)
        assert ccc_criterion(GOD, IntervalSet.full())
        assert not ccc_criterion(
            RM4,
            IntervalSet.of([0, F(1, 2), F(5, 8), F(3, 4), F(7, 8), 1]),
        )

    def test_identity_check_passes_on_l3(self):
        grid = list(L3.finite_members())
        assert ccc_identity_check(LUK, L3, grid).passed

    def test_identity_check_pinned_witness(self):
        res = ccc_identity_check(LUK, K5, list(K5.finite_members()))
        assert not res.passed
        assert res.witness == (F(3, 4), F(3, 4), F(1, 2))
        assert "lhs=1/2" in res.message and "rhs=1/4" in res.message

    def test_identity_check_agrees_with_criterion(self):
        cases = [
            (LUK, L3),
            (LUK, K5),
            (GOD, IntervalSet.of([F(k, 8) for k in range(9)])),
            (RM4, IntervalSet.of([0, F(1, 2), F(5, 8), F(3, 4), 1])),
        ]
        for t, k in cases:
            res = ccc_identity_check(t, k, k.sample(8))
            assert res.passed == ccc_criterion(t, k)

    def test_grid_outside_k_rejected(self):
        with pytest.raises(ValueError):
            ccc_identity_check(LUK, L3, [F(1, 4)])

    @pytest.mark.parametrize(
        "t, k",
        [
            (LUK, K5),
            (LUK, IntervalSet.full()),
            (product(), IntervalSet.full()),
            (RM4, IntervalSet.of([0, F(1, 2), F(5, 8), F(3, 4), F(7, 8), 1])),
            (
                TNorm((Block(F(1, 3), F(17, 50), BlockKind.PRODUCT),)),
                IntervalSet.of([(F(1, 3), F(17, 50)), 1]),
            ),
        ],
    )
    def test_failure_triple_is_an_exact_witness_in_k(self, t, k):
        a, v, r = ccc_failure_triple(t, k)
        assert a == v and r == tnorm_eval(t, a, a)
        assert a in k and r in k and a not in m_set(t)
        w = ccc_witness(t, a, v, r)
        assert w.lhs == r and w.rhs == tnorm_eval(t, r, a) < r

    def test_failure_triple_needs_k_outside_m(self):
        with pytest.raises(DomainError):
            ccc_failure_triple(LUK, L3)


class TestCCCWitness:
    def test_lukasiewicz_witness(self):
        w = ccc_witness(LUK, F(3, 4), F(3, 4), F(1, 2))
        assert (w.lhs, w.rhs) == (F(1, 2), F(1, 4))
        assert w.cat_d.r("x", "y") == F(1, 2)  # u & v
        for cat in (w.cat_a, w.cat_b, w.cat_c, w.cat_d):
            assert validate_qcat(cat).passed

    def test_remark4_witness(self):
        w = ccc_witness(RM4, F(7, 8), F(7, 8), F(3, 4))
        assert (w.lhs, w.rhs) == (F(3, 4), F(5, 8))

    def test_godel_never_has_a_witness(self):
        with pytest.raises(InvalidWitness):
            ccc_witness(GOD, F(3, 4), F(3, 4), F(1, 2))

    def test_holding_triple_rejected(self):
        with pytest.raises(InvalidWitness):
            ccc_witness(LUK, F(1, 2), F(1, 2), F(1, 2))


class TestPowerExistence:
    def test_m_valued_category_passes(self):
        c = two_point(LUK, F(1, 4), F(1, 2))
        grid = [F(0), F(1, 4), F(1, 2), F(1)]
        assert power_existence_check(c, m_set(LUK), grid).passed

    def test_known_failure_with_witness(self):
        c = two_point(LUK, F(1, 2), F(1, 2))
        res = power_existence_check(c, K5, list(K5.finite_members()))
        assert not res.passed
        assert res.witness == (F(3, 4), F(3, 4), "0", "1")

    def test_top_pair_always_satisfied(self):
        c = two_point(RM4, F(7, 8), F(5, 8))
        res = power_existence_check(c, IntervalSet.of([1]), [F(1)])
        assert res.passed
