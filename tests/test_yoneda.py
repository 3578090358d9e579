"""Tests for forward Cauchy sequences, Yoneda limits and the
function-space completeness results."""

import itertools
import random
from fractions import Fraction as F

import pytest

from realcat.errors import DomainError, NotForwardCauchy, NotMValued, SizeLimitExceeded
from realcat import qcat
from realcat.qcat import (
    QCat,
    QFunctor,
    enumerate_functors,
    functor_violation,
    hom_power,
    product,
    require_category,
    two_point,
    validate_qcat,
)
from realcat.tnorm import CheckResult, godel, lukasiewicz, remark4, tnorm_eval
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


def l3_matrices(t, size, rng=None, count=None):
    """Square matrices over t with every entry, the diagonal too, in
    {0, 1/2, 1}, categories or not: all of them, or count drawn by rng."""
    cells = size * size
    combos = (
        itertools.product(L3, repeat=cells)
        if rng is None
        else (tuple(rng.choice(L3) for _ in range(cells)) for _ in range(count))
    )
    for combo in combos:
        rows = tuple(combo[i * size : (i + 1) * size] for i in range(size))
        yield QCat(t, tuple(f"p{i}" for i in range(size)), rows)


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

    def test_an_ambient_that_is_no_category_is_refused(self):
        """The limits are read off by a proof that needs a category; on
        the 2- and 3-point L3 matrices under Lukasiewicz that fail
        validate_qcat the read-off set differed from the tail formula's
        on many sequences, so every such ambient is refused."""
        rng = random.Random(13)
        ambients = [
            *l3_matrices(LUK, 2),
            *l3_matrices(LUK, 3, rng, 400),
        ]
        refused = 0
        for c in ambients:
            res = validate_qcat(c)
            if res:
                continue
            for cyc in itertools.chain(
                itertools.product(c.points, repeat=1),
                itertools.product(c.points, repeat=2),
            ):
                with pytest.raises(DomainError) as err:
                    FCSequence(c, (), cyc)
                assert str(err.value) == f"not a category: {res.message}"
                refused += 1
        assert refused > 1000


    def test_sequences_over_one_ambient_scan_it_once(self, chain, monkeypatch):
        """validate_qcat keeps its result on the category, so N sequences
        over one ambient, and require_category after them, run the
        O(n^3) scan once."""
        scanned = []
        scan = qcat._category_check
        monkeypatch.setattr(
            qcat, "_category_check", lambda c: scanned.append(c) or scan(c)
        )
        for cyc in itertools.product(chain.points, repeat=2):
            FCSequence(chain, (), cyc)
        assert require_category(chain) is chain
        assert scanned == [chain]


class TestYonedaLimits:
    def test_constant_sequence_limits(self, chain):
        s = FCSequence(chain, (), ("b",))
        assert "b" in yoneda_limits(s)
        assert canonical_limit(s) == "b"

    def test_limits_of_cluster_cycle(self, cluster):
        s = FCSequence(cluster, ("x",), ("a", "b"))
        lims = yoneda_limits(s)
        assert set(lims) == {"a", "b"}
        assert canonical_limit(s) == "a"

    def test_limits_are_mutually_isomorphic(self, cluster):
        s = FCSequence(cluster, (), ("b", "a"))
        lims = yoneda_limits(s)
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
                        assert yoneda_limits(s) == tail_limits(s)
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

    @pytest.mark.parametrize("t", [LUK, GOD], ids=["lukasiewicz", "godel"])
    def test_the_function_space_of_m_valued_categories_is_a_category(self, t):
        """function_space_limit does not validate [A -> B]; this oracle
        does, for every pair of categories on up to two points with
        values in {0, 1/4, 1/2, 1} (all in M for both norms; 1/4 & 1/2 and
        1/2 & 1/2 are 0 under Lukasiewicz), and for drawn pairs with a
        three-point side."""
        quarters = (F(0), F(1, 4), F(1, 2), F(1))
        cats = {n: [] for n in (1, 2, 3)}
        for n in cats:
            slots = [(i, j) for i in range(n) for j in range(n) if i != j]
            for combo in itertools.product(quarters, repeat=len(slots)):
                rows = [[F(1)] * n for _ in range(n)]
                for (i, j), v in zip(slots, combo):
                    rows[i][j] = v
                c = QCat(t, tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)))
                if validate_qcat(c):
                    cats[n].append(c)
        rng = random.Random(7)
        small = cats[1] + cats[2]
        pairs = [*itertools.product(small, repeat=2)]
        pairs += [(rng.choice(cats[2]), rng.choice(cats[3])) for _ in range(100)]
        pairs += [(rng.choice(cats[3]), rng.choice(cats[2])) for _ in range(100)]
        for a, b in pairs:
            res = validate_qcat(hom_power(a, b))
            assert res, (a.matrix, b.matrix, res.message)

    @pytest.mark.parametrize("t", [LUK, GOD], ids=["lukasiewicz", "godel"])
    def test_matches_the_per_point_limits(self, t):
        """Differential against the pointwise form: at each x, the
        canonical limit of the point sequence (f(x) for f in the cycle)
        in B, on every forward Cauchy cycle of up to two functors and
        every prefix of up to one."""
        def pointwise(a, b, cycle):
            cyc = tuple(dict.fromkeys(cycle))
            return tuple(
                canonical_limit(FCSequence(b, (), tuple(f[i] for f in cyc)))
                for i in range(len(a.points))
            )

        checked = 0
        for a, b in itertools.product(list(l3_categories(t, 2)), repeat=2):
            hom = hom_power(a, b)
            for n in (1, 2):
                for cycle in itertools.product(hom.points, repeat=n):
                    if any(hom.r(f, g) != 1 for f in cycle for g in cycle):
                        continue
                    for prefix in ((), hom.points[-1:]):
                        lim = function_space_limit(a, b, prefix, cycle)
                        assert lim.mapping == pointwise(a, b, cycle)
                        checked += 1
        assert checked > 500

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

    @pytest.mark.parametrize("t", [LUK, GOD], ids=["lukasiewicz", "godel"])
    def test_evaluation_is_a_functor_on_every_small_l3_pair(self, t):
        """check_ev states its proof; this oracle builds A x [A -> B]
        and scans evaluation for every pair of L3 matrices of up to two
        points, categories or not."""
        mats = [*l3_matrices(t, 1), *l3_matrices(t, 2)]
        for a, b in itertools.product(mats, repeat=2):
            dom = product(a, hom_power(a, b))
            ev = QFunctor(dom, b, tuple(f[a.index(x)] for (x, f) in dom.points))
            assert functor_violation(ev) is None
            assert check_ev(a, b) == CheckResult(True, "evaluation is a functor")

    def test_check_ev_refuses_two_norms_and_answers_past_the_map_cap(self):
        a = two_point(LUK, F(1, 2), F(1, 4))
        with pytest.raises(ValueError, match="different t-norms"):
            check_ev(a, two_point(GOD, F(1, 2), F(1, 4)))
        discrete = [
            QCat(
                LUK,
                tuple(map(str, range(n))),
                tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n)),
            )
            for n in (7, 8)
        ]
        with pytest.raises(SizeLimitExceeded):
            hom_power(*discrete)
        assert check_ev(*discrete).passed

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
