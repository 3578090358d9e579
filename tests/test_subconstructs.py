"""Tests for suitable sets, the (co)reflectors and the cartesian
closedness machinery."""

import itertools
import math
from fractions import Fraction as F
from operator import ge, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcat.ccc import (
    ccc_criterion,
    ccc_failure_triple,
    ccc_identity_check,
    ccc_witness,
    power_existence_check,
)
from realcat.errors import DomainError, InvalidWitness, ProductIrrational, RealcatError
from realcat.functors import product as qproduct
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, final_lift, two_point, validate_qcat
from realcat.subconstructs import (
    check_suitable,
    contains,
    coreflect_c,
    explicit,
    is_in_cat_s,
    k_diagonal,
    k_square,
    por_coreflection,
    por_reflection,
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
def norm_cases(draw):
    """(library norm, its blocks): a builtin norm or a random ordinal
    sum, whose cuts on the /12 grid split [0,1] into pieces that are
    Lukasiewicz blocks, product blocks or left to the minimum."""
    name = draw(st.sampled_from([None, *sorted(BUILTIN_BLOCKS)]))
    if name is not None:
        return BUILTIN_NORMS[name](), BUILTIN_BLOCKS[name]
    cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), min_size=2, max_size=5)))
    kinds = st.sampled_from([None, "lukasiewicz", "product"])
    blocks = [
        (lo, hi, kind)
        for lo, hi in zip(cuts, cuts[1:])
        if (kind := draw(kinds)) is not None
    ]
    return TNorm(tuple(Block(lo, hi, BlockKind(kind)) for lo, hi, kind in blocks)), blocks


@st.composite
def band_cases(draw):
    """(library norm, its blocks, band members on the /12 grid) for a
    norm from ``norm_cases``.  (a, a) is always a member, so every a has
    a partner."""
    t, blocks = draw(norm_cases())
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


QUARTER_PAIRS = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]


def joins_and_swaps(pairs):
    """The closure of a pair set under swap, join and meet."""
    closed = set(pairs)
    while True:
        grown = closed | {(b, a) for a, b in closed}
        grown |= {(max(p[0], q[0]), max(p[1], q[1])) for p in closed for q in closed}
        grown |= {(min(p[0], q[0]), min(p[1], q[1])) for p in closed for q in closed}
        if grown == closed:
            return closed
        closed = grown


@st.composite
def membership_cases(draw):
    """A suitable-set shape over a norm from ``norm_cases``, its
    membership written out, and a 1-3 point matrix on the /12 grid, half
    of whose off-diagonal pairs are drawn at or next to members of S.  S
    need not be suitable: K may lack 0 or 1, and an explicit set may
    miss a swap or a join."""
    t, blocks = draw(norm_cases())
    shape = draw(st.sampled_from(["k_square", "k_diagonal", "sqrt_band", "explicit"]))
    if shape in ("k_square", "k_diagonal"):
        cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), min_size=1, max_size=6)))
        parts = []
        while cuts:
            width = draw(st.integers(1, min(2, len(cuts))))
            parts.append((cuts[0], cuts[width - 1]))
            cuts = cuts[width:]
        s = (k_square if shape == "k_square" else k_diagonal)(t, IntervalSet.of(parts))

        def in_k(a):
            return any(lo <= a <= hi for lo, hi in parts)

        if shape == "k_square":
            oracle = lambda a, b: in_k(a) and in_k(b)
        else:
            oracle = lambda a, b: a == b and in_k(a)
        near = parts + [(hi, hi) for _, hi in parts]
    elif shape == "sqrt_band":
        s = sqrt_band(t)
        oracle = lambda a, b: in_band(blocks, a, b)
        near = [(a, b) for a in TWELFTHS for b in TWELFTHS if in_band(blocks, a, b)]
    else:
        seeds = draw(st.lists(st.sampled_from(QUARTER_PAIRS), min_size=1, max_size=3))
        pairs = joins_and_swaps(seeds)
        if draw(st.booleans()):
            pairs.discard(draw(st.sampled_from(sorted(pairs))))
        if not pairs:
            pairs = set(seeds)
        s = explicit(t, pairs)
        oracle = lambda a, b: (a, b) in pairs
        near = sorted(pairs)
    n = draw(st.integers(1, 3))
    m = [[draw(st.sampled_from([ONE, *TWELFTHS])) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i][j], m[j][i] = draw(st.sampled_from(near))
    c = QCat(t, tuple(f"p{i}" for i in range(n)), tuple(map(tuple, m)))
    return s, oracle, c


class TestCatSMembership:
    @settings(max_examples=400, deadline=None)
    @given(membership_cases())
    def test_membership_matches_the_written_out_sets(self, case):
        """contains and is_in_cat_s against S written out: K bounds
        compared directly, the band through the norm's formula, an
        explicit set as a Python set.  Norms without a product block
        take the grid domain, the others Fractions."""
        s, oracle, c = case
        m, n = c.matrix, len(c.points)
        expected = [oracle(m[i][j], m[j][i]) for i in range(n) for j in range(n)]
        assert [contains(s, (m[i][j], m[j][i])) for i in range(n) for j in range(n)] == expected
        assert is_in_cat_s(s, c) == all(expected)

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


# The pair-scan oracle below writes S out: K as its (lo, hi) parts, an
# explicit set as its pairs and the band through the blocks, with roots
# by the block formulas.  It moves the pairs i < j in row-major order,
# r(i,j)'s side first, so an error names the first pair, and the first
# value in it, that lacks a bound.


def oracle_sqrt(t, blocks, x):
    """max{z : z & z <= x}: (x+hi)/2 in a Lukasiewicz block [lo, hi)
    holding x, lo + sqrt((x-lo)(hi-lo)) in a product block, else x."""
    for lo, hi, kind in blocks:
        if lo <= x < hi:
            if kind == "lukasiewicz":
                return (x + hi) / 2
            square = (x - lo) * (hi - lo)
            p, q = math.isqrt(square.numerator), math.isqrt(square.denominator)
            if p * p != square.numerator or q * q != square.denominator:
                raise ProductIrrational(f"sqrt of {x} under {t} is irrational")
            return lo + F(p, q)
    return x


def oracle_nearest(parts, side, v):
    """The member of K nearest to v toward side, from K's parts."""
    if side == "above":
        members = [max(lo, v) for lo, hi in parts if hi >= v]
        best = min(members, default=None)
    else:
        members = [min(hi, v) for lo, hi in parts if lo <= v]
        best = max(members, default=None)
    if best is None:
        raise DomainError(f"K has no member {side} {v}")
    return best


def oracle_pair_bound(case, side, a, b):
    """The S-pair toward side from (a, b): the least above or the
    largest below."""
    shape, t, blocks, parts = case
    if shape == "explicit":
        pick, toward = (min, ge) if side == "above" else (max, le)
        found = [(p, q) for p, q in parts if toward(p, a) and toward(q, b)]
        if not found:
            raise DomainError(f"no explicit member {side} ({a}, {b})")
        return pick(p for p, _ in found), pick(q for _, q in found)
    if shape == "sqrt_band":
        if side == "above":
            return (
                max(a, oracle_and(blocks, b, b)),
                max(b, oracle_and(blocks, a, a)),
            )
        first = min(a, oracle_sqrt(t, blocks, b))
        return first, min(b, oracle_sqrt(t, blocks, a))
    if shape == "k_diagonal":
        a = b = max(a, b) if side == "above" else min(a, b)
    first = oracle_nearest(parts, side, a)
    return first, oracle_nearest(parts, side, b)


def oracle_move(case, side, m):
    changed = False
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            pair = oracle_pair_bound(case, side, m[i][j], m[j][i])
            changed |= pair != (m[i][j], m[j][i])
            m[i][j], m[j][i] = pair
    return changed


def oracle_closure(blocks, m):
    """Raise m(i,j) to m(i,k) & m(k,j) until nothing changes; the
    diagonal is never written."""
    n = len(m)
    grown = True
    while grown:
        grown = False
        for i, j, k in itertools.product(range(n), repeat=3):
            via = oracle_and(blocks, m[i][k], m[k][j])
            if i != j and via > m[i][j]:
                m[i][j], grown = via, True


def oracle_coreflect(case, m):
    m = [list(row) for row in m]
    oracle_move(case, "below", m)
    return tuple(map(tuple, m))


def oracle_reflect(case, m):
    m = [list(row) for row in m]
    oracle_move(case, "above", m)
    oracle_closure(case[2], m)
    while oracle_move(case, "above", m):
        oracle_closure(case[2], m)
    return tuple(map(tuple, m))


def oracle_member(case, a, b):
    shape, t, blocks, parts = case
    if shape == "explicit":
        return (a, b) in parts
    if shape == "sqrt_band":
        return in_band(blocks, a, b)

    def in_k(v):
        return any(lo <= v <= hi for lo, hi in parts)

    if shape == "k_diagonal":
        return a == b and in_k(a)
    return in_k(a) and in_k(b)


def off_product(blocks, values):
    """The values inside no product block: & keeps the /12 grid on them."""
    inside = [(lo, hi) for lo, hi, kind in blocks if kind == "product"]
    return {v for v in values if not any(lo < v < hi for lo, hi in inside)}


def and_closed(blocks, values):
    """The values off the product blocks, with 1, closed under &: a
    subquantale, over which K^2 and K_diagonal are suitable."""
    closed = off_product(blocks, values) | {ONE}
    while grown := {oracle_and(blocks, x, y) for x in closed for y in closed} - closed:
        closed |= grown
    return closed


def and_closed_pairs(blocks, pairs):
    """The closure of a pair set under swap, join, meet and &: a
    suitable explicit set."""
    closed = set(pairs)
    while True:
        grown = joins_and_swaps(closed)
        grown |= {
            (oracle_and(blocks, p[0], q[0]), oracle_and(blocks, p[1], q[1]))
            for p in grown
            for q in grown
        }
        if grown == closed:
            return closed
        closed = grown


@st.composite
def pair_scan_cases(draw):
    """(case, S, category, pair): S is K^2, K_diagonal (K may lack 0, 1
    or everything), an explicit set or the band over a norm from
    ``norm_cases``, written out in case.  In half the draws K or the
    explicit pairs are closed under & (``and_closed``,
    ``and_closed_pairs``, seeds off the product blocks), so S is
    suitable; the others are suitable only by chance.  The category has
    3-6 points on the /12 grid, either path-closed with a diagonal of 1
    or an arbitrary matrix."""
    t, blocks = draw(norm_cases())
    shape = draw(st.sampled_from(["k_square", "k_diagonal", "sqrt_band", "explicit"]))
    closed = draw(st.booleans())
    parts = []
    if shape == "sqrt_band":
        s = sqrt_band(t)
    elif shape == "explicit":
        grid = sorted(off_product(blocks, TWELFTHS)) if closed else TWELFTHS
        pair = st.tuples(st.sampled_from(grid), st.sampled_from(grid))
        parts = set(draw(st.lists(pair, max_size=4)))
        if closed:
            if draw(st.booleans()):
                parts.add((ONE, ONE))
            parts = and_closed_pairs(blocks, parts)
        s = explicit(t, parts)
    else:
        cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), max_size=6)))
        if closed:
            parts, cuts = [(v, v) for v in sorted(and_closed(blocks, cuts))], []
        while cuts:
            width = draw(st.integers(1, min(2, len(cuts))))
            parts.append((cuts[0], cuts[width - 1]))
            cuts = cuts[width:]
        s = (k_square if shape == "k_square" else k_diagonal)(t, IntervalSet.of(parts))
    n = draw(st.integers(3, 6))
    values = st.sampled_from([ONE, *TWELFTHS])
    m = [[draw(values) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = ONE
        oracle_closure(blocks, m)
    c = QCat(t, tuple(f"p{i}" for i in range(n)), tuple(map(tuple, m)))
    return (shape, t, blocks, parts), s, c, (draw(values), draw(values))


def answer(call, *args):
    """The call's value (a category's matrix), or the type and message
    of what it raised."""
    try:
        out = call(*args)
    except RealcatError as exc:
        return type(exc), str(exc)
    return out.matrix if isinstance(out, QCat) else out


class TestRowRulesAgainstPairScan:
    @settings(max_examples=250, deadline=None)
    @given(pair_scan_cases())
    def test_kernels_match_the_pair_scan(self, drawn):
        """C, R, Cat_S membership and contains against the pair scan
        written out above, errors included: when several pairs lack a
        bound, the library names the same pair and value.  C and R
        refuse a set that is not suitable, naming its first failure;
        membership answers for every set.  Norms without a product
        block run on the grid, the others on Fractions."""
        case, s, c, (a, b) = drawn
        m, n = c.matrix, len(c.points)
        res = check_suitable(s)
        refusal = (DomainError, f"not a suitable set: {res.message}")
        for kernel, oracle in (
            (coreflect_c, oracle_coreflect),
            (reflect_r, oracle_reflect),
        ):
            expected = answer(oracle, case, m) if res.passed else refusal
            assert answer(kernel, s, c) == expected
        assert is_in_cat_s(s, c) == all(
            oracle_member(case, m[i][j], m[j][i]) for i in range(n) for j in range(n)
        )
        assert contains(s, (a, b)) == oracle_member(case, a, b)

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


def spelled(name):
    """Builtin norm ``name`` spelled by its blocks, with no name: equal
    to the named builtin and to no other builtin."""
    blocks = BUILTIN_BLOCKS[name]
    return TNorm(tuple(Block(lo, hi, BlockKind(kind)) for lo, hi, kind in blocks))


@st.composite
def builtin_spellings(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_BLOCKS)))
    return name, (spelled(name) if draw(st.booleans()) else BUILTIN_NORMS[name]())


HALVES = [(0, 0), (F(1, 2), F(1, 2)), (1, 1)]
SHAPES = {
    "k_square": lambda t: k_square(t, L3),
    "k_diagonal": lambda t: k_diagonal(t, L3),
    "sqrt_band": sqrt_band,
    "explicit": lambda t: explicit(t, HALVES),
}


class TestNormMismatch:
    @settings(max_examples=200, deadline=None)
    @given(
        builtin_spellings(),
        builtin_spellings(),
        st.sampled_from(sorted(SHAPES)),
        st.sampled_from([is_in_cat_s, coreflect_c, reflect_r]),
    )
    def test_cat_s_kernels_refuse_another_norm(self, left, right, shape, kernel):
        """S over one builtin and c over another: DomainError, whatever
        the spelling.  Two spellings of one builtin are one norm, and
        give what S built over c's own norm object gives."""
        (s_name, s_norm), (c_name, c_norm) = left, right
        # 9/16 has a rational square root under every builtin
        c = two_point(c_norm, F(9, 16), 1)
        if s_name != c_name:
            with pytest.raises(
                DomainError,
                match="^the suitable set and the category live over different t-norms$",
            ):
                kernel(SHAPES[shape](s_norm), c)
        else:
            expected = answer(kernel, SHAPES[shape](c_norm), c)
            assert answer(kernel, SHAPES[shape](s_norm), c) == expected


# Norms for the cache test, by name: the builtins and a Lukasiewicz sum
# whose block endpoints lie on thirds.
WARM_NORMS = {
    **{name: BUILTIN_NORMS[name]() for name in BUILTIN_NORMS},
    "luk_sum": TNorm(
        (
            Block(F(0), F(1, 3), BlockKind.LUKASIEWICZ),
            Block(F(2, 3), F(1), BlockKind.LUKASIEWICZ),
        )
    ),
}


def fresh_norm(name):
    """A new norm object equal to WARM_NORMS[name] and named alike (an
    error message names the norm), with no caches."""
    return TNorm(WARM_NORMS[name].blocks, name=WARM_NORMS[name].name)


def suitable_sets(t):
    """Sets over t whose constants have denominators 1, 2, 3, 4, 5 and
    7, so that the kernel domain's d changes from set to set.  The
    explicit set is not S3-closed, the last K^2 set's K lacks 1 and the
    last K_diagonal set's K lacks 0, so their errors (C and R refuse
    the sets that are not suitable) are compared too."""
    return [
        k_square(t, CRISP),
        k_square(t, IntervalSet.of([0, F(1, 3), F(2, 3), 1])),
        k_diagonal(t, IntervalSet.of([0, (F(1, 5), F(2, 5)), 1])),
        sqrt_band(t),
        explicit(t, [(0, 0), (F(2, 7), F(2, 7)), (F(2, 7), 1), (1, F(2, 7)), (1, 1)]),
        explicit(t, HALVES),
        k_square(t, IntervalSet.of([0, (F(1, 4), F(1, 2))])),
        k_diagonal(t, IntervalSet.of([(F(1, 3), F(2, 3)), 1])),
    ]


CAT_S_CALLS = {
    "validate": lambda s, c: validate_qcat(c),
    "is_in_cat_s": is_in_cat_s,
    "coreflect_c": coreflect_c,
    "reflect_r": reflect_r,
    "por_rho": lambda s, c: por_coreflection(c),
    "por_sigma": lambda s, c: por_reflection(c),
    "m_set": lambda s, c: m_set(s.tnorm),
}


def outcome(call, s, c):
    """The call's result, or the type and message of what it raised."""
    try:
        return call(s, c)
    except RealcatError as exc:
        return type(exc), str(exc)


def square_matrices(n):
    """n x n matrices over denominators 1, 2, 3, 4, 5, 6 and 12; not
    necessarily categories."""
    values = st.sampled_from([ONE, *TWELFTHS, F(1, 5), F(3, 5)])
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


class TestKernelCaches:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(WARM_NORMS)),
        st.lists(st.integers(1, 4).flatmap(square_matrices), min_size=2, max_size=2),
        st.lists(
            st.tuples(
                st.sampled_from(sorted(CAT_S_CALLS)),
                st.integers(0, 7),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_warm_objects_answer_as_fresh_ones(self, name, matrices, calls):
        """Two categories and a list of suitable sets, over a norm that
        every example shares, serve a random sequence of calls; each
        answer equals the same call on freshly built equal objects, whose
        caches are empty.  The sets' constants and the categories'
        entries have different denominators, so the grid's d changes
        from call to call for each category and for each set.  Warming,
        M kept on the norm included, changes no equality, hash or
        repr."""
        t = WARM_NORMS[name]
        cats = [
            QCat(t, tuple(f"p{i}" for i in range(len(m))), tuple(map(tuple, m)))
            for m in matrices
        ]
        sets = suitable_sets(t)
        before = [(hash(x), repr(x)) for x in (t, *cats, *sets)]

        def fresh(j, t):
            return QCat(t, cats[j].points, tuple(map(tuple, matrices[j])))

        for call, i, j in calls:
            fresh_t = fresh_norm(name)
            fresh_s = suitable_sets(fresh_t)[i]
            expected = outcome(CAT_S_CALLS[call], fresh_s, fresh(j, fresh_t))
            assert outcome(CAT_S_CALLS[call], sets[i], cats[j]) == expected
        assert m_set(t) is m_set(t) == m_set(fresh_norm(name))
        assert [(hash(x), repr(x)) for x in (t, *cats, *sets)] == before
        fresh_t = fresh_norm(name)
        assert t == fresh_t and sets == suitable_sets(fresh_t)
        assert cats == [fresh(j, fresh_t) for j in range(2)]


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

    @settings(max_examples=300)
    @given(
        norm_cases(),
        st.lists(st.fractions(0, 1, max_denominator=24), min_size=3, max_size=3),
    )
    def test_product_and_final_lift_give_lhs_and_rhs(self, case, uvr):
        """ccc_witness proves its lhs and rhs in its docstring; here the
        product A x D and the final lift of {A x B, A x C} are built, and
        the identity's sides come from the written-out norm."""
        t, blocks = case
        u, v, r = uvr
        lhs = min(oracle_and(blocks, u, v), r)
        rhs = max(oracle_and(blocks, min(u, r), v), oracle_and(blocks, min(v, r), u))
        if lhs == rhs:
            with pytest.raises(InvalidWitness):
                ccc_witness(t, u, v, r)
            return
        w = ccc_witness(t, u, v, r)
        ab, ac, ad = (qproduct(w.cat_a, x) for x in (w.cat_b, w.cat_c, w.cat_d))
        sinks = [(ab, {p: p for p in ab.points}), (ac, {p: p for p in ac.points})]
        lifted = final_lift(t, sinks, ad.points)
        pair = (("0", "x"), ("1", "y"))
        assert (w.lhs, w.rhs) == (lhs, rhs)
        assert (ad.r(*pair), lifted.r(*pair)) == (lhs, rhs)


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
