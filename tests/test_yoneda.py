"""Tests for forward Cauchy sequences, Yoneda limits and the
function-space completeness results."""

import itertools
from fractions import Fraction as F

import pytest

from realcat.errors import DomainError, NotForwardCauchy, NotMValued
from realcat.qcat import (
    QCat,
    QFunctor,
    enumerate_functors,
    hom_power,
    product,
    two_point,
    validate_qcat,
)
from realcat.tnorm import godel, lukasiewicz, remark4, tnorm_eval
from realcat.tnorm import product as product_norm
from realcat.yoneda import (
    FCSequence,
    approx_property,
    canonical_limit,
    check_ev,
    curry,
    function_space_limit,
    is_forward_cauchy,
    uncurry,
    yoneda_limits,
)

LUK = lukasiewicz()
GOD = godel()
L3 = (F(0), F(1, 2), F(1))


def l3_categories(t, max_size=3):
    """Every category over t with values in {0, 1/2, 1} on up to
    max_size points."""
    for size in range(1, max_size + 1):
        slots = [(i, j) for i in range(size) for j in range(size) if i != j]
        for combo in itertools.product(L3, repeat=len(slots)):
            matrix = [[F(1)] * size for _ in range(size)]
            for (i, j), v in zip(slots, combo):
                matrix[i][j] = v
            c = QCat(t, tuple(f"p{i}" for i in range(size)), tuple(map(tuple, matrix)))
            if validate_qcat(c):
                yield c


def tail_limits(s):
    """The Yoneda limits by their definition: the points a with
    r(a, x) = meet over the cycle of r(p, x) for every x."""
    c = s.ambient
    tail = {x: min(c.r(p, x) for p in s.cycle) for x in c.points}
    return tuple(a for a in c.points if all(c.r(a, x) == tail[x] for x in c.points))


def assert_limit_law(a, b, cycle, limit):
    """d(L, g) = meet over the cycle of d(f, g) for every functor g."""
    hom = hom_power(a, b)
    assert limit.mapping in hom.points
    for g in hom.points:
        assert hom.r(limit.mapping, g) == min(hom.r(f, g) for f in cycle)


@pytest.fixture
def chain():
    """Three points with asymmetric distances, all pairs below 1."""
    return QCat(
        LUK,
        ("a", "b", "c"),
        (
            (F(1), F(3, 4), F(1, 2)),
            (F(1, 2), F(1), F(3, 4)),
            (F(1, 4), F(1, 2), F(1)),
        ),
    )


@pytest.fixture
def cluster():
    """Two points at mutual distance 1 plus an outlier."""
    return QCat(
        LUK,
        ("a", "b", "x"),
        (
            (F(1), F(1), F(1, 2)),
            (F(1), F(1), F(1, 2)),
            (F(1, 4), F(1, 4), F(1)),
        ),
    )


class TestForwardCauchy:
    def test_constant_sequence_is_cauchy(self, chain):
        assert is_forward_cauchy(FCSequence(chain, (), ("a",)))

    def test_prefix_is_irrelevant(self, chain):
        assert is_forward_cauchy(FCSequence(chain, ("c", "b"), ("a",)))

    def test_mixed_cycle_needs_mutual_one(self, chain, cluster):
        assert not is_forward_cauchy(FCSequence(chain, (), ("a", "b")))
        assert is_forward_cauchy(FCSequence(cluster, (), ("a", "b")))

    def test_unknown_point_rejected(self, chain):
        with pytest.raises(ValueError):
            FCSequence(chain, (), ("nope",))

    def test_empty_cycle_rejected(self, chain):
        with pytest.raises(ValueError):
            FCSequence(chain, ("a",), ())


class TestYonedaLimits:
    def test_constant_sequence_limits(self, chain):
        s = FCSequence(chain, (), ("b",))
        assert "b" in yoneda_limits(s).points
        assert canonical_limit(s) == "b"

    def test_limits_of_cluster_cycle(self, cluster):
        s = FCSequence(cluster, ("x",), ("a", "b"))
        lims = yoneda_limits(s).points
        assert set(lims) == {"a", "b"}
        assert canonical_limit(s) == "a"

    def test_limits_are_mutually_isomorphic(self, cluster):
        s = FCSequence(cluster, (), ("b", "a"))
        lims = yoneda_limits(s).points
        for p in lims:
            for q in lims:
                assert cluster.r(p, q) == 1

    def test_non_cauchy_raises(self, chain):
        with pytest.raises(NotForwardCauchy):
            yoneda_limits(FCSequence(chain, (), ("a", "c")))

    def test_limit_tail_formula(self, cluster):
        s = FCSequence(cluster, (), ("a", "b"))
        lim = canonical_limit(s)
        for x in cluster.points:
            assert cluster.r(lim, x) == min(
                cluster.r("a", x), cluster.r("b", x)
            )

    @pytest.mark.parametrize("t", [LUK, GOD], ids=["lukasiewicz", "godel"])
    def test_limits_match_the_tail_formula_exhaustively(self, t):
        """yoneda_limits reads the limits off as the class of cycle[0];
        here they come from their definition, on every forward Cauchy
        cycle of up to 3 points in every small L3 category."""
        sequences = 0
        for c in l3_categories(t):
            for n in (1, 2, 3):
                for cyc in itertools.product(c.points, repeat=n):
                    s = FCSequence(c, (), cyc)
                    if is_forward_cauchy(s):
                        assert yoneda_limits(s).points == tail_limits(s)
                        sequences += 1
        assert sequences > 1000


class TestAlphaMonotone:
    """The lemma that an eventually alpha-monotone sequence has
    monotone alpha-meets: for idempotent alpha and cycle points all at
    distance >= alpha, alpha ^ r(x_mu, x) <= alpha ^ r(x_la, x).  It
    follows from alpha & y = min(alpha, y) and transitivity, so the
    library does not check it; this oracle does, exhaustively."""

    @pytest.mark.parametrize("t", [LUK, GOD], ids=["lukasiewicz", "godel"])
    def test_lemma_on_every_small_l3_category(self, t):
        idempotents = [a for a in L3 if tnorm_eval(t, a, a) == a]
        assert all(
            tnorm_eval(t, a, y) == min(a, y) for a in idempotents for y in L3
        )
        checked = 0
        for c in l3_categories(t):
            for n in (1, 2, 3):
                for cyc in itertools.combinations(c.points, n):
                    for alpha in idempotents:
                        if any(c.r(p, q) < alpha for p in cyc for q in cyc):
                            continue
                        for later, earlier, x in itertools.product(cyc, cyc, c.points):
                            assert min(alpha, c.r(later, x)) <= min(
                                alpha, c.r(earlier, x)
                            )
                        checked += 1
        assert checked > 100


class TestApproxProperty:
    def test_case_assignments(self):
        assert approx_property(GOD).case == 2
        assert approx_property(LUK).case == 1
        assert approx_property(product_norm()).case == 1
        assert approx_property(remark4()).case == 1

    def test_supremum_is_one_everywhere(self):
        for t in (GOD, LUK, product_norm(), remark4()):
            rep = approx_property(t)
            assert rep.passed and rep.supremum == 1

    def test_top_membership_tracks_the_case(self):
        assert approx_property(LUK).includes_top
        assert not approx_property(GOD).includes_top


class TestFunctionSpaceLimits:
    def setup_method(self):
        self.a = two_point(LUK, F(1, 2), F(1, 2))
        self.b = two_point(LUK, F(1, 2), F(1, 4))

    def test_constant_functor_sequence(self):
        hom = hom_power(self.a, self.b)
        f = hom.points[0]
        lim = function_space_limit(self.a, self.b, (), (f,))
        assert lim.mapping == f
        assert_limit_law(self.a, self.b, (f,), lim)

    def test_cycling_between_isomorphic_functors(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        cod = QCat(
            LUK,
            ("a", "b", "x"),
            (
                (F(1), F(1), F(1, 2)),
                (F(1), F(1), F(1, 2)),
                (F(1, 4), F(1, 4), F(1)),
            ),
        )
        hom = hom_power(a, cod)
        mutual = [
            (f, g)
            for f in hom.points
            for g in hom.points
            if f != g and hom.r(f, g) == 1 and hom.r(g, f) == 1
        ]
        assert mutual, "expected at least one nontrivial mutual-1 pair"
        for f, g in mutual:
            lim = function_space_limit(a, cod, (), (f, g))
            assert hom.r(lim.mapping, f) == 1
            assert hom.r(lim.mapping, g) == 1
            assert_limit_law(a, cod, (f, g), lim)

    def test_limit_law_on_every_small_l3_pair(self):
        """Every forward Cauchy cycle of up to two functors between
        categories of up to two points: the pointwise limit meets the
        limit law against every functor g."""
        cats = list(l3_categories(LUK, 2))
        laws = 0
        for a, b in itertools.product(cats, repeat=2):
            hom = hom_power(a, b)
            for cycle in itertools.product(hom.points, repeat=2):
                if hom.r(cycle[0], cycle[1]) == hom.r(cycle[1], cycle[0]) == 1:
                    lim = function_space_limit(a, b, (), cycle)
                    assert_limit_law(a, b, cycle, lim)
                    laws += 1
        assert laws > 100

    def test_non_category_is_refused(self):
        """The limit law rests on A and B being categories; an M-valued
        map that is not transitive is refused before any limit."""
        bad = QCat(
            LUK,
            ("a", "b", "c"),
            ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1))),
        )
        with pytest.raises(DomainError) as err:
            function_space_limit(self.a, bad, (), (("a", "a"),))
        assert str(err.value) == (
            "not a category: r(b,c) & r(a,b) = 1 > r(a,c) = 0"
        )

    def test_non_cauchy_functor_sequence_raises(self):
        hom = hom_power(self.a, self.b)
        far = [
            (f, g)
            for f in hom.points
            for g in hom.points
            if hom.r(f, g) < 1
        ]
        f, g = far[0]
        with pytest.raises(NotForwardCauchy):
            function_space_limit(self.a, self.b, (), (f, g))

    def test_values_outside_m_rejected(self):
        bad = two_point(LUK, F(3, 4), F(3, 4))
        hom = hom_power(bad, bad)
        with pytest.raises(NotMValued):
            function_space_limit(bad, bad, (), (hom.points[0],))


class TestEvaluationAndCurrying:
    def test_check_ev_on_m_valued_instances(self):
        a = two_point(LUK, F(1, 2), F(1, 4))
        b = two_point(LUK, F(1, 4), F(1, 2))
        assert check_ev(a, b).passed

    def test_curry_uncurry_roundtrip_all_functors(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        b = two_point(LUK, F(1, 4), F(1, 4))
        c = two_point(LUK, F(1, 2), F(0))
        ac = product(a, c)
        hom = hom_power(a, b)
        direct = enumerate_functors(ac, b)
        curried = enumerate_functors(c, hom)
        assert len(direct) == len(curried)
        seen = set()
        for f in direct:
            g = curry(a, c, b, f)
            assert uncurry(a, c, b, g).mapping == f.mapping
            seen.add(g.mapping)
        assert seen == {g.mapping for g in curried}

    def test_non_functor_is_refused_naming_its_first_pair(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        b = two_point(LUK, F(1, 4), F(1, 4))
        c = two_point(LUK, 1, 1)
        f = QFunctor(product(a, c), b, ("0", "0", "1", "0"))
        with pytest.raises(DomainError) as err:
            curry(a, c, b, f)
        assert str(err.value) == "not a functor: fails at ('0', '0'), ('1', '0')"
        hom = hom_power(a, b)
        g = QFunctor(c, hom, (hom.points[0], hom.points[-1]))
        assert hom.r(hom.points[0], hom.points[-1]) < 1
        with pytest.raises(DomainError) as err:
            uncurry(a, c, b, g)
        assert str(err.value) == "not a functor: fails at 0, 1"
