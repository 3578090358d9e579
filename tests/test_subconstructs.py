"""Tests for suitable sets, the (co)reflectors and the cartesian
closedness machinery, on pinned cases.  The Cat_S kernels are compared
with brute-force oracles in tests/test_closure.py."""

from fractions import Fraction as F

import pytest

from realcat.ccc import (
    ccc_criterion,
    ccc_failure_triple,
    ccc_identity_check,
    ccc_witness,
    power_existence_check,
)
from realcat.errors import DomainError, InvalidWitness
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, two_point, validate_qcat
from realcat.subconstructs import (
    check_suitable,
    contains,
    coreflect_c,
    explicit,
    is_in_cat_s,
    k_diagonal,
    k_square,
    reflect_r,
    sqrt_band,
)
from realcat.tnorm import (
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

    @pytest.mark.parametrize(
        "member, shown",
        [
            ((0,), "(0,)"),
            ((0, 1, 1), "(0, 1, 1)"),
            (1, "1"),
            ("01", "'01'"),
            ((F(0), F(0), F(0)), "(0/1, 0/1, 0/1)"),
            ((F(1, 2),), "(1/2,)"),
            (F(1, 2), "1/2"),
        ],
    )
    def test_explicit_refuses_a_member_that_is_no_pair(self, member, shown):
        """One sentence naming the member, not an unpacking error; its
        Fractions are written as p/q, like every other library text."""
        with pytest.raises(ValueError) as err:
            explicit(LUK, [(0, 0), member])
        assert str(err.value) == f"explicit set member {shown} is not a pair"


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


class TestCoreflectorReflector:
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


class TestSuitableSetsOnly:
    """C and R refuse a set that fails S1-S3, after the norm check; on
    such sets they used to return wrong results.  Membership still
    answers for every set."""

    def test_a_k_that_is_no_subquantale_is_refused(self):
        """{0, 1/8, 3/4, 1} misses 3/4 & 3/4 = 1/2 under Lukasiewicz.
        Moved through it, this category's pairs gave no category:
        r(p1,p2) & r(p0,p1) = 1/2 > r(p0,p2) = 1/8."""
        s = k_square(LUK, IntervalSet.of([0, F(1, 8), F(3, 4), 1]))
        half, most = F(1, 2), F(3, 4)
        m = ((1, most, half), (F(1, 4), 1, most), (half, F(1, 4), 1))
        c = QCat(LUK, ("p0", "p1", "p2"), m)
        assert validate_qcat(c)
        for kernel in (coreflect_c, reflect_r):
            with pytest.raises(
                DomainError, match="^not a suitable set: 3/4 & 3/4 = 1/2 escapes K$"
            ):
                kernel(s, c)
        assert not is_in_cat_s(s, c)

    def test_a_set_without_a_swap_is_refused(self):
        """(1/2, 1) is in S but (1, 1/2) is not: C used to return
        two_point(1/2, 1) as it was, a category outside Cat_S."""
        s = explicit(LUK, [(0, 0), (1, 1), (F(1, 2), 1)])
        c = two_point(LUK, F(1, 2), 1)
        for kernel in (coreflect_c, reflect_r):
            with pytest.raises(DomainError, match="^not a suitable set: S2 fails: swap"):
                kernel(s, c)
        assert contains(s, (F(1, 2), 1)) and not contains(s, (1, F(1, 2)))
        assert not is_in_cat_s(s, c)


class TestRowRulesAgainstPairScan:
    """Empty sets, pinned: the pair scan (tests/test_closure.py) draws
    them only by chance."""

    @pytest.mark.parametrize("shape", [k_square, k_diagonal], ids=lambda f: f.__name__)
    def test_an_empty_k_is_refused(self, shape):
        """An empty K lacks 1, so it is no subquantale: C and R refuse
        it even on one point, which has no pair to move."""
        s = shape(LUK, IntervalSet.empty())
        c = QCat(LUK, ("p",), ((F(1, 2),),))
        for kernel in (coreflect_c, reflect_r):
            with pytest.raises(DomainError, match="^not a suitable set: 1 is not a member"):
                kernel(s, c)
        assert not is_in_cat_s(s, c)

    def test_an_empty_explicit_set_leaves_one_point_alone(self):
        """The empty pair set is suitable and no value has a bound, yet
        one point has no pair to move, so C and R return it; on two
        points the first pair is named."""
        s = explicit(LUK, [])
        c = QCat(LUK, ("p",), ((F(1, 2),),))
        assert coreflect_c(s, c) == c and reflect_r(s, c) == c
        assert not is_in_cat_s(s, c)
        with pytest.raises(DomainError, match=r"^no explicit member above \(3/4, 1/4\)"):
            reflect_r(s, two_point(LUK, F(3, 4), F(1, 4)))


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
