"""The kernels behind the paper's final lift, reflector R, coreflector C
and Cat_S membership, checked against brute-force oracles written here
from their definitions.  An oracle reads a norm only as its block list
(lo, hi, kind) off ``t.blocks``: x & y is the rescaled Lukasiewicz or
product operation inside a block square and min(x, y) elsewhere.  It
reads a suitable set only as its variant and its K components or
pairs.  So no oracle runs the library's & (tests/test_source.py holds
this file to that), and one oracle serves each idea:

* the (join, &) path closure behind final_lift, reflect_r and
  por_reflection relaxes every constraint until nothing moves;
* validate_qcat's first violation is found by a row-major scan;
* C moves each pair to the largest S-pair below it, R raises each pair
  to the least S-pair above it and closes until nothing moves.

C and R take suitable sets only: half the drawn sets are closed under &
here, and C and R must refuse every drawn set that is not suitable.  The
builtin norms, ordinal sums of Lukasiewicz blocks (whose kernels run on
integer numerators) and sums with a product block (whose kernels run on
Fractions) all face the same oracles."""

import itertools
import math
from fractions import Fraction as F
from operator import ge, le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat.ccc import ccc_witness
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
)
from realcat.values import ONE

VALUES = [F(k, 8) for k in range(9)] + [F(1, 3), F(2, 3), F(1, 5)]
K_FINITE = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
# the chain 0 < 1/2 < 1, and its diagonal as explicit pairs
CHAIN3 = (F(0), F(1, 2), F(1))
HALVES = [(v, v) for v in CHAIN3]
# sevenths and tenths make the common denominator of a matrix large
FINE_VALUES = VALUES + [F(1, 7), F(3, 10), F(5, 7), F(7, 10), F(5, 12), F(8, 9)]
K_FINE = (F(0), F(1, 7), F(3, 10), F(1, 2), F(5, 7), F(1))
ENDPOINTS = sorted({F(a, b) for b in range(1, 13) for a in range(b + 1)})
TWELFTHS = [F(i, 12) for i in range(13)]
Q1, Q2, Q3, T1, T2 = F(1, 4), F(1, 2), F(3, 4), F(1, 3), F(2, 3)
REMARK4 = BUILTIN_NORMS["remark4"]()


# The oracles.


def oracle_and(t, x, y):
    """x & y from t's blocks: max(lo, x + y - hi) in a Lukasiewicz block
    square [lo, hi]^2, lo + (x - lo)(y - lo)/(hi - lo) in a product
    block square, min(x, y) elsewhere."""
    for b in t.blocks:
        if b.lo <= x <= b.hi and b.lo <= y <= b.hi:
            if b.kind is BlockKind.LUKASIEWICZ:
                return max(b.lo, x + y - b.hi)
            return b.lo + (x - b.lo) * (y - b.lo) / (b.hi - b.lo)
    return min(x, y)


def oracle_closure(t, m):
    """m with m(i,j) raised to m(i,k) & m(k,j) for i != j until nothing
    moves; as & never exceeds min, only a triple whose min exceeds
    m(i,j) is evaluated."""
    m = [list(row) for row in m]
    n = len(m)
    moved = True
    while moved:
        moved = False
        for i, j, k in itertools.product(range(n), repeat=3):
            if i != j and min(m[i][k], m[k][j]) > m[i][j]:
                via = oracle_and(t, m[i][k], m[k][j])
                if via > m[i][j]:
                    m[i][j], moved = via, True
    return m


def first_violation(t, points, m):
    """validate_qcat's verdict from the definition: the first diagonal
    entry below 1, else the first (i, j, k) in row-major order with
    r(j,k) & r(i,j) > r(i,k), as (message, witness)."""
    for i, p in enumerate(points):
        if m[i][i] != 1:
            return f"r({p},{p}) = {m[i][i]} != 1", (p,)
    for i, j, k in itertools.product(range(len(points)), repeat=3):
        lhs = oracle_and(t, m[j][k], m[i][j])
        if lhs > m[i][k]:
            x, y, z = points[i], points[j], points[k]
            return (
                f"r({y},{z}) & r({x},{y}) = {lhs} > r({x},{z}) = {m[i][k]}",
                (x, y, z),
            )
    return "valid", None


def oracle_sqrt(t, x):
    """max{z : z & z <= x}: (x + hi)/2 in a Lukasiewicz block [lo, hi)
    holding x, lo + sqrt((x - lo)(hi - lo)) in a product block, else x."""
    for b in t.blocks:
        if b.lo <= x < b.hi:
            if b.kind is BlockKind.LUKASIEWICZ:
                return (x + b.hi) / 2
            square = (x - b.lo) * (b.hi - b.lo)
            p, q = math.isqrt(square.numerator), math.isqrt(square.denominator)
            if p * p != square.numerator or q * q != square.denominator:
                raise ProductIrrational(f"sqrt of {x} under {t} is irrational")
            return b.lo + F(p, q)
    return x


def oracle_nearest(k, side, v):
    """The member of K nearest to v toward side, from K's components."""
    if side == "above":
        best = min((max(lo, v) for lo, hi in k.components if hi >= v), default=None)
    else:
        best = max((min(hi, v) for lo, hi in k.components if lo <= v), default=None)
    if best is None:
        raise DomainError(f"K has no member {side} {v}")
    return best


def oracle_member(s, a, b):
    """(a, b) in S: a written-out pair, a & a <= b and b & b <= a for the
    band, both coordinates in K for K^2, one of K's for K_diagonal."""
    if s.variant == "explicit":
        return (a, b) in s.pairs
    if s.variant == "sqrt_band":
        return oracle_and(s.tnorm, a, a) <= b and oracle_and(s.tnorm, b, b) <= a

    def in_k(v):
        return any(lo <= v <= hi for lo, hi in s.k.components)

    if s.variant == "k_diagonal":
        return a == b and in_k(a)
    return in_k(a) and in_k(b)


def oracle_pair_bound(s, side, a, b):
    """The S-pair toward side from (a, b): the least above, or the
    largest below, which must lie above every other S-pair below (a, b)
    on the values at hand (a, b, the pair, 0, the block endpoints and
    S's constants).  An error names (a, b), or the first value in it
    that lacks a bound."""
    t = s.tnorm
    if s.variant == "explicit":
        pick, toward = (min, ge) if side == "above" else (max, le)
        found = [(p, q) for p, q in s.pairs if toward(p, a) and toward(q, b)]
        if not found:
            raise DomainError(f"no explicit member {side} ({a}, {b})")
        pair = pick(p for p, _ in found), pick(q for _, q in found)
    elif s.variant == "sqrt_band":
        if side == "above":
            pair = max(a, oracle_and(t, b, b)), max(b, oracle_and(t, a, a))
        else:
            pair = min(a, oracle_sqrt(t, b)), min(b, oracle_sqrt(t, a))
    else:
        x, y = a, b
        if s.variant == "k_diagonal":
            x = y = max(a, b) if side == "above" else min(a, b)
        pair = oracle_nearest(s.k, side, x), oracle_nearest(s.k, side, y)
    if side == "below":
        constants = s.k.components if s.k is not None else s.pairs or ()
        values = {F(0), a, b, *pair, *(v for part in constants for v in part)}
        values |= {v for blk in t.blocks for v in (blk.lo, blk.hi)}
        below = [
            (x, y)
            for x in values
            if x <= a
            for y in values
            if y <= b and oracle_member(s, x, y)
        ]
        assert pair in below and all(x <= pair[0] and y <= pair[1] for x, y in below)
    return pair


def oracle_move(s, side, m):
    """Move the pairs i < j of m in place, in row-major order, to their
    S-pairs toward side; whether any pair moved."""
    moved = False
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            pair = oracle_pair_bound(s, side, m[i][j], m[j][i])
            moved |= pair != (m[i][j], m[j][i])
            m[i][j], m[j][i] = pair
    return moved


def oracle_coreflect(s, m):
    m = [list(row) for row in m]
    oracle_move(s, "below", m)
    return tuple(map(tuple, m))


def oracle_reflect(s, m):
    """Raise every pair and close, until a raise moves no pair of the
    closed matrix."""
    m = [list(row) for row in m]
    oracle_move(s, "above", m)
    m = oracle_closure(s.tnorm, m)
    while oracle_move(s, "above", m):
        m = oracle_closure(s.tnorm, m)
    return tuple(map(tuple, m))


def closed_under(ops, seeds):
    """The seeds closed under ops, commutative maps of two members: a
    worklist meets each new member with every member once."""
    closed, todo = set(seeds), list(seeds)
    while todo:
        x = todo.pop()
        for y in list(closed):
            for z in (op(x, y) for op in ops):
                if z not in closed:
                    closed.add(z)
                    todo.append(z)
    return closed


def off_product(t, values):
    """The values inside no product block: & keeps a finite set of them
    finite, as a Lukasiewicz block keeps its grid and its endpoints."""
    inside = [b for b in t.blocks if b.kind is BlockKind.PRODUCT]
    return {v for v in values if not any(b.lo < v < b.hi for b in inside)}


def and_closed(t, values):
    """The values off the product blocks, with 1, closed under &: a
    subquantale, so K^2 and K_diagonal over it and its square written
    out are suitable."""
    seeds = off_product(t, values) | {ONE}
    return tuple(sorted(closed_under([lambda x, y: oracle_and(t, x, y)], seeds)))


def and_closed_pairs(t, pairs):
    """The closure of a pair set under swap, join, meet and &: a
    suitable explicit set."""
    return closed_under(
        [
            lambda p, q: (p[1], p[0]),
            lambda p, q: (max(p[0], q[0]), max(p[1], q[1])),
            lambda p, q: (min(p[0], q[0]), min(p[1], q[1])),
            lambda p, q: (oracle_and(t, p[0], q[0]), oracle_and(t, p[1], q[1])),
        ],
        pairs,
    )


def outcome(call, *args):
    """call(*args), a category as its matrix, or the type and text of the
    error it raised."""
    try:
        out = call(*args)
    except RealcatError as exc:
        return type(exc), str(exc)
    return out.matrix if isinstance(out, QCat) else out


def check_kernel(kernel, oracle, s, c):
    """kernel(s, c) against the oracle on c's matrix, errors included; a
    set that fails S1-S3 is refused, naming its first failure."""
    res = check_suitable(s)
    if res.passed:
        expected = outcome(oracle, s, c.matrix)
    else:
        expected = DomainError, f"not a suitable set: {res.message}"
    assert outcome(kernel, s, c) == expected


def check_membership(s, c, pair):
    """contains on every pair (r(x,y), r(y,x)) of c and on pair, and
    is_in_cat_s, against S written out."""
    m, n = c.matrix, len(c.points)
    pairs = [(m[i][j], m[j][i]) for i in range(n) for j in range(n)]
    expected = [oracle_member(s, *p) for p in pairs]
    assert [contains(s, p) for p in pairs] == expected
    assert is_in_cat_s(s, c) == all(expected)
    assert contains(s, pair) == oracle_member(s, *pair)


# The inputs.


def qcat_on(t, rows):
    """rows as a QCat on the points p0, p1, ..."""
    return QCat(t, tuple(f"p{i}" for i in range(len(rows))), rows)


def reflexive(rows):
    """rows with 1 on the diagonal."""
    return [[ONE if i == j else v for j, v in enumerate(r)] for i, r in enumerate(rows)]


norms = st.sampled_from(sorted(BUILTIN_NORMS)).map(lambda n: BUILTIN_NORMS[n]())
values = st.sampled_from(VALUES)


@st.composite
def ordinal_sums(draw, product_block):
    """1-3 blocks with endpoints of denominator <= 12, adjacent blocks
    sharing an endpoint or not: all Lukasiewicz, or, with product_block,
    at least one block of each kind."""
    n = draw(st.integers(2 if product_block else 1, 3))
    ends = st.lists(
        st.sampled_from(ENDPOINTS), min_size=2 * n, max_size=2 * n, unique=True
    )
    ends = sorted(draw(ends))
    for i in range(1, n):
        if draw(st.booleans()):  # block i starts where block i - 1 ends
            ends[2 * i] = ends[2 * i - 1]
    kinds = [BlockKind.LUKASIEWICZ] * n
    if product_block:
        kinds = draw(
            st.lists(st.sampled_from(list(BlockKind)), min_size=n, max_size=n).filter(
                lambda ks: len(set(ks)) == 2
            )
        )
    return TNorm(
        tuple(Block(ends[2 * i], ends[2 * i + 1], kind) for i, kind in enumerate(kinds))
    )


sums = st.one_of(ordinal_sums(False), ordinal_sums(True))


@st.composite
def cut_norms(draw):
    """A builtin norm, or an ordinal sum whose cuts on the /12 grid split
    [0, 1] into pieces that are Lukasiewicz blocks, product blocks or
    left to the minimum."""
    name = draw(st.sampled_from([None, *sorted(BUILTIN_NORMS)]))
    if name is not None:
        return BUILTIN_NORMS[name]()
    cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), min_size=2, max_size=5)))
    kinds = st.sampled_from([None, *BlockKind])
    return TNorm(
        tuple(
            Block(lo, hi, kind)
            for lo, hi in zip(cuts, cuts[1:])
            if (kind := draw(kinds)) is not None
        )
    )


# A block starting above 0, and a block endpoint, 1/2, shared with the
# next block, where GridDomain.piece must pick the upper block (for the
# square root); fine_values holds the endpoints.
STEPS = TNorm(
    (
        Block(F(1, 4), F(1, 2), BlockKind.LUKASIEWICZ),
        Block(F(1, 2), F(1), BlockKind.LUKASIEWICZ),
    )
)


def fine_values(t):
    """FINE_VALUES plus the block endpoints and midpoints of t."""
    extra = [v for b in t.blocks for v in (b.lo, b.hi, (b.lo + b.hi) / 2)]
    return st.sampled_from(FINE_VALUES + extra)


def odd_values(t):
    """Thirds, 0 and 1: off the grid of every block endpoint whose
    denominator is even, so the band's roots are on no grid that
    doubles the matrix's d before the endpoints are folded in."""
    return st.sampled_from([F(k, 3) for k in range(4)])


# one Lukasiewicz block [0, 1/12]: the largest band pair below (1, 0)
# is (sqrt 0, 0) = (1/24, 0), on the grid 2 * lcm(12, 1) = 24
LOW_BLOCK = TNorm((Block(F(0), F(1, 12), BlockKind.LUKASIEWICZ),))


def sets_over(t, k=K_FINITE, closed=False):
    """K^2 and K_diagonal over K, the explicit set CHAIN3^2 and the band;
    over the &-closures of K and CHAIN3 (then suitable) when closed."""
    k, chain = (and_closed(t, k), and_closed(t, CHAIN3)) if closed else (k, CHAIN3)
    return [
        k_square(t, IntervalSet.of(k)),
        k_diagonal(t, IntervalSet.of(k)),
        explicit(t, itertools.product(chain, repeat=2)),
        sqrt_band(t),
    ]


@st.composite
def sink_families(
    draw, norms=norms, values_of=lambda t: values, sizes=(1, 6), max_edges=8
):
    t = draw(norms)
    values = values_of(t)
    n = draw(st.integers(*sizes))
    carrier = tuple(f"p{i}" for i in range(n))
    point = st.sampled_from(carrier)
    edges = st.lists(st.tuples(values, values, point, point), max_size=max_edges)
    return t, carrier, draw(edges)


@st.composite
def matrices(draw, norms=norms, values_of=lambda t: values, sizes=(1, 5)):
    """Square matrices whose diagonal need not be 1."""
    t = draw(norms)
    n = draw(st.integers(*sizes))
    row = st.lists(values_of(t), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return t, rows


# The final lift.

# two sinks on one pair: their lcm, 8, is not the seed's, 2, as the join
# keeps 1/2 and drops 1/8; and no sink at all, whose lcm is 1
ONE_PAIR_TWICE = [(F(1, 8), 0, "p0", "p1"), (F(1, 2), 0, "p0", "p1")]


@settings(max_examples=150, deadline=None)
@given(sink_families())
@example((lukasiewicz(), ("p0", "p1"), ONE_PAIR_TWICE))
@example((lukasiewicz(), ("p0", "p1"), []))
# two 1/4-edges p0 -> p1 -> p2 under remark4: the path's 1/4 & 1/4 = 1/8
# lies inside the product block [0, 1/2]
@example((REMARK4, ("p0", "p1", "p2"), [(Q1, 0, "p0", "p1"), (Q1, 0, "p1", "p2")]))
def test_final_lift_matches_naive_closure(family):
    check_final_lift(family)


@settings(max_examples=150, deadline=None)
@given(sink_families(sums, fine_values))
def test_final_lift_matches_naive_closure_on_ordinal_sums(family):
    check_final_lift(family)


def two_point_sinks(t, edges):
    return [
        (two_point(t, a, b, ("s", "t")), {"s": x, "t": y}) for a, b, x, y in edges
    ]


def check_final_lift(family):
    t, carrier, edges = family
    n = len(carrier)
    seed = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for a, b, x, y in edges:
        i, j = carrier.index(x), carrier.index(y)
        seed[i][j], seed[j][i] = max(seed[i][j], a), max(seed[j][i], b)
    lifted = final_lift(t, two_point_sinks(t, edges), carrier)
    assert [list(row) for row in lifted.matrix] == oracle_closure(t, seed)
    # the lift records its verdict: the very one a scan of a fresh
    # category on its matrix returns
    recorded = lifted.__dict__["_validated"]
    assert recorded is validate_qcat(QCat(t, carrier, lifted.matrix))


@st.composite
def raw_sink_families(draw, norms=norms, values_of=lambda t: values):
    """Carriers of 0-5 points with 0-3 sinks of 1-4 points each, whose
    matrices are drawn entry by entry: mostly no categories (a diagonal
    entry below 1, a broken triangle), mapped anywhere in the carrier."""
    t = draw(norms)
    values = values_of(t)
    carrier = tuple(f"p{i}" for i in range(draw(st.integers(0, 5))))
    sinks = []
    for _ in range(draw(st.integers(0, 3) if carrier else st.just(0))):
        k = draw(st.integers(1, 4))
        points = tuple(f"s{i}" for i in range(k))
        row = st.lists(values, min_size=k, max_size=k)
        matrix = draw(st.lists(row, min_size=k, max_size=k))
        f = {x: draw(st.sampled_from(carrier)) for x in points}
        sinks.append((QCat(t, points, matrix), f))
    return t, carrier, sinks


PRODUCT = BUILTIN_NORMS["product"]()
EMPTY = QCat(lukasiewicz(), (), ())


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        raw_sink_families(),
        raw_sink_families(ordinal_sums(True), fine_values),
    )
)
# a product block (the Fraction domain), and an empty carrier without
# sinks and with an empty sink
@example((PRODUCT, ("p", "q"), two_point_sinks(PRODUCT, [(F(1, 2), 0, "p", "q")])))
@example((lukasiewicz(), (), []))
@example((lukasiewicz(), (), [(EMPTY, {})]))
def test_final_lift_records_the_verdict_of_a_fresh_scan(family):
    """final_lift's recorded verdict is the one object a scan of a fresh
    category on its matrix returns, on sinks drawn entry by entry (mostly
    no categories) and on both domains; check_final_lift asserts the same
    on the two-point families."""
    t, carrier, sinks = family
    lifted = final_lift(t, sinks, carrier)
    recorded = lifted.__dict__["_validated"]
    assert recorded is validate_qcat(QCat(t, carrier, lifted.matrix))
    assert validate_qcat(lifted) is recorded


@settings(max_examples=300)
@given(
    cut_norms(),
    st.lists(st.fractions(0, 1, max_denominator=24), min_size=3, max_size=3),
)
def test_product_and_final_lift_give_lhs_and_rhs(t, uvr):
    """ccc_witness proves its lhs and rhs in its docstring; here the
    product A x D and the final lift of {A x B, A x C} are built, and
    the identity's sides come from the written-out norm."""
    u, v, r = uvr
    lhs = min(oracle_and(t, u, v), r)
    rhs = max(oracle_and(t, min(u, r), v), oracle_and(t, min(v, r), u))
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


# R and C.


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 3), st.booleans())
# the band raises (1/4, 0) to (1/4, 1/8) under remark4, and the closure's
# 1/4 & 1/4 = 1/8 lies inside the product block [0, 1/2]
@example((REMARK4, [[1, Q1, 0], [0, 1, Q1], [0, 0, 1]]), 3, False)
def test_reflect_r_matches_naive_reflection(case, which, closed):
    t, rows = case
    s = sets_over(t, closed=closed)[which]
    check_kernel(reflect_r, oracle_reflect, s, qcat_on(t, rows))


@settings(max_examples=150, deadline=None)
@given(
    matrices(sums, fine_values),
    st.integers(0, 3),
    st.sampled_from([K_FINITE, K_FINE]),
    st.booleans(),
)
def test_reflect_r_matches_naive_reflection_on_ordinal_sums(case, which, k, closed):
    t, rows = case
    s = sets_over(t, k, closed)[which]
    check_kernel(reflect_r, oracle_reflect, s, qcat_on(t, rows))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(matrices(), matrices(sums, fine_values)),
    st.integers(0, 3),
    st.sampled_from([K_FINITE, K_FINE]),
    st.booleans(),
)
# the band's largest pair below (1, 1/2) is (sqrt 1/2, 1/2) = (3/4, 1/2),
# the root read in the block above the shared endpoint 1/2
@example((STEPS, [[1, 1], [F(1, 2), 1]]), 3, K_FINITE, False)
def test_coreflect_c_matches_largest_pair_below(case, which, k, closed):
    t, rows = case
    s = sets_over(t, k, closed)[which]
    check_kernel(coreflect_c, oracle_coreflect, s, qcat_on(t, rows))


@settings(max_examples=100, deadline=None)
@given(matrices(ordinal_sums(False), odd_values, sizes=(2, 5)))
@example((LOW_BLOCK, [[1, 1], [0, 1]]))
def test_coreflect_c_over_the_band_takes_roots_off_the_matrix_grid(case):
    """C over the band on entries off the block endpoints' grid: its
    roots (x + hi)/2 lie on no grid of the entries alone."""
    t, rows = case
    check_kernel(coreflect_c, oracle_coreflect, sqrt_band(t), qcat_on(t, rows))


def test_reflect_r_needs_two_rounds():
    """A case a single closure sweep per round takes two changing rounds
    to settle.  One raise then one exact closure reaches R(r), which is
    already in the band (S1 and S3 keep closures of Cat_S pairs in
    Cat_S); closing before raising does not."""
    t = lukasiewicz()
    r = [
        [1, F(1, 8), F(1, 8), F(3, 4)],
        [0, 1, F(5, 8), F(3, 4)],
        [0, 1, 1, 1],
        [0, F(3, 8), F(3, 8), 1],
    ]
    half, most = F(1, 2), F(3, 4)
    expected = [
        [1, most, most, most],
        [half, 1, 1, 1],
        [half, 1, 1, 1],
        [half, 1, 1, 1],
    ]
    s = sqrt_band(t)
    out = reflect_r(s, QCat(t, ("a", "b", "c", "d"), r))
    assert [list(row) for row in out.matrix] == expected
    assert validate_qcat(out).passed and is_in_cat_s(s, out)
    closed_first = oracle_closure(t, r)
    oracle_move(s, "above", closed_first)
    assert closed_first != expected


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_por_reflection_matches_naive_closure(case):
    """sigma is R for S = {0,1}^2: the closure of the 0/1 matrix of the
    nonzero entries, with the diagonal left as given."""
    t, rows = case
    crisp = [
        [v if i == j else F(int(v > 0)) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    out = por_reflection(qcat_on(t, rows))
    assert [list(row) for row in out.matrix] == oracle_closure(t, crisp)


# validate_qcat.

# r(p2,p1) & r(p0,p2) = 1/2 > r(p0,p1) = 0 comes first in row-major
# order; a scan with the middle point outer would first meet
# r(p0,p2) & r(p1,p0) = 1/2 > r(p1,p2) = 0
PINNED_ORDER = [[1, 0, F(1, 2)], [F(1, 2), 1, 0], [0, F(1, 2), 1]]


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), matrices(sums, fine_values)), st.booleans(), st.booleans())
@example((godel(), PINNED_ORDER), False, False)
# The scan reads the encoding in place (Lukasiewicz on quarters, whose
# grid is the matrix's own), scaled (STEPS, base 4, on thirds: the
# grid is 12) and as Fractions (remark4).  3/4 & 3/4 = 1/2 > 1/4, and
# 2/3 & 2/3 = 1/2 > 0 under STEPS; the last STEPS matrix is a category.
@example((lukasiewicz(), [[1, Q3, Q1], [0, 1, Q3], [0, 0, 1]]), False, False)
@example((STEPS, [[1, T2, 0], [0, 1, T2], [0, 0, 1]]), False, False)
@example((REMARK4, [[1, Q3, Q1], [0, 1, Q3], [0, 0, 1]]), False, False)
@example((STEPS, [[1, T2, T2], [T1, 1, T2], [T1, T1, 1]]), False, False)
def test_validate_qcat_reports_the_first_violation(case, unit_diagonal, closed):
    t, rows = case
    if unit_diagonal:
        rows = reflexive(rows)
        if closed:
            rows = oracle_closure(t, rows)
    c = qcat_on(t, rows)
    res = validate_qcat(c)
    assert (res.message, res.witness) == first_violation(t, c.points, rows)
    assert res.passed == (res.witness is None)


# The grid kernels at the benchmark's scale (8-14 points): there
# path_closure and validate_qcat run & inline as three integer pieces
# per fixed entry v (GridDomain.piece); STEPS (above) makes the floor
# max(a + v - hi, lo) matter.
grid_norms = st.one_of(
    st.sampled_from([godel(), lukasiewicz(), STEPS]), ordinal_sums(False)
)
LARGE = (8, 14)
POINTS8 = tuple(f"p{i}" for i in range(8))


def padded(rows, n=8):
    """rows on the first points of n, with 1 on the rest of the diagonal
    and 0 elsewhere, so the added points raise and break nothing."""
    k = len(rows)
    return [
        [F(rows[i][j]) if i < k and j < k else F(int(i == j)) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def lowered_categories(draw):
    """Path-closed matrices with a unit diagonal, then one entry kept,
    halved or set to 0, so the first violation can lie anywhere."""
    t, rows = draw(matrices(grid_norms, fine_values, LARGE))
    n = len(rows)
    rows = oracle_closure(t, reflexive(rows))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] = draw(st.sampled_from([rows[i][j], rows[i][j] / 2, F(0)]))
    return t, rows


# with v = 3/8 in STEPS's block [1/4, 1/2): a = 5/16 has a + v - hi below
# lo, so & is the floor 1/4; a = 3/4 >= hi gives v; a = 1/8 < lo gives a
PINNED_EDGES = [
    [(F(5, 16), 0, "p0", "p1"), (F(5, 16), 0, "p1", "p2")],
    [(F(3, 8), 0, "p0", "p1"), (F(3, 4), 0, "p1", "p2")],
    [(F(3, 8), 0, "p0", "p1"), (F(1, 8), 0, "p1", "p2")],
]


@settings(max_examples=60, deadline=None)
@given(sink_families(grid_norms, fine_values, LARGE, max_edges=30))
@example((STEPS, POINTS8, PINNED_EDGES[0]))
@example((STEPS, POINTS8, PINNED_EDGES[1]))
@example((STEPS, POINTS8, PINNED_EDGES[2]))
def test_final_lift_matches_naive_closure_at_benchmark_scale(family):
    check_final_lift(family)


@settings(max_examples=50, deadline=None)
@given(
    matrices(grid_norms, fine_values, LARGE),
    st.integers(0, 3),
    st.sampled_from([K_FINITE, K_FINE]),
    st.booleans(),
)
def test_reflect_r_matches_naive_reflection_at_benchmark_scale(
    case, which, k, closed
):
    t, rows = case
    s = sets_over(t, k, closed)[which]
    check_kernel(reflect_r, oracle_reflect, s, qcat_on(t, rows))


@settings(max_examples=60, deadline=None)
@given(lowered_categories())
@example((STEPS, padded([[1, F(5, 16), F(3, 16)], [0, 1, F(5, 16)], [0, 0, 1]])))
@example((STEPS, padded([[1, F(3, 8), F(1, 4)], [0, 1, F(3, 4)], [0, 0, 1]])))
@example((STEPS, padded([[1, F(3, 8), 0], [0, 1, F(1, 8)], [0, 0, 1]])))
def test_validate_qcat_reports_the_first_violation_at_benchmark_scale(case):
    t, rows = case
    c = qcat_on(t, rows)
    res = validate_qcat(c)
    assert (res.message, res.witness) == first_violation(t, c.points, rows)


# Cat_S membership and the pair scan: S drawn in every shape, over a
# norm from cut_norms, on the /12 grid.


@st.composite
def cat_s_cases(draw, sizes):
    """(S, c, pair): S is K^2 or K_diagonal (K may have interval
    components and lack 0, 1 or every member), an explicit set or the
    band.  In half the draws K or the explicit pairs are closed under &
    (seeds off the product blocks), so S is suitable; the others are
    suitable only by chance.  c has ``sizes`` points on the /12 grid:
    half its off-diagonal pairs at or next to members of S, then, half
    the time, path-closed with a diagonal of 1.  pair is a grid pair."""
    t = draw(cut_norms())
    variant = draw(st.sampled_from(["k_square", "k_diagonal", "sqrt_band", "explicit"]))
    closed = draw(st.booleans())
    if variant == "sqrt_band":
        s = sqrt_band(t)
        near = [(a, b) for a in TWELFTHS for b in TWELFTHS if oracle_member(s, a, b)]
    elif variant == "explicit":
        grid = sorted(off_product(t, TWELFTHS)) if closed else TWELFTHS
        pair = st.tuples(st.sampled_from(grid), st.sampled_from(grid))
        pairs = set(draw(st.lists(pair, max_size=4)))
        if closed:
            if draw(st.booleans()):
                pairs.add((ONE, ONE))
            pairs = and_closed_pairs(t, pairs)
        s = explicit(t, pairs)
        near = sorted(s.pairs)
    else:
        cuts = sorted(draw(st.sets(st.sampled_from(TWELFTHS), max_size=6)))
        parts = []
        if closed:
            parts, cuts = [(v, v) for v in and_closed(t, cuts)], []
        while cuts:
            width = draw(st.integers(1, min(2, len(cuts))))
            parts.append((cuts[0], cuts[width - 1]))
            cuts = cuts[width:]
        shape = k_square if variant == "k_square" else k_diagonal
        s = shape(t, IntervalSet.of(parts))
        near = parts + [(hi, hi) for _, hi in parts]
    n = draw(st.integers(*sizes))
    values = st.sampled_from([ONE, *TWELFTHS])
    m = [[draw(values) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if near and draw(st.booleans()):
                m[i][j], m[j][i] = draw(st.sampled_from(near))
    if draw(st.booleans()):
        m = oracle_closure(t, reflexive(m))
    return s, qcat_on(t, m), (draw(values), draw(values))


@settings(max_examples=400, deadline=None)
@given(cat_s_cases((1, 3)))
def test_membership_matches_the_written_out_sets(drawn):
    """contains and is_in_cat_s against S written out: K bounds compared
    directly, the band through the norm's blocks, an explicit set as a
    Python set.  Norms without a product block take the grid domain,
    the others Fractions."""
    check_membership(*drawn)


def pinned_scan(s, rows):
    return s, qcat_on(s.tnorm, rows), (ONE, ONE)


@settings(max_examples=250, deadline=None)
@given(cat_s_cases((3, 6)))
# Cat_S membership scans the encoding in place where the grid is the
# matrix's own (Lukasiewicz and Godel on quarters), scaled where it is
# not (STEPS, base 4, on thirds: the grid is 12, and 24 for C's roots),
# and as Fractions under remark4.
@example(pinned_scan(sqrt_band(lukasiewicz()), ((1, Q3, Q2), (Q2, 1, Q1), (Q1, Q2, 1))))
@example(
    pinned_scan(
        k_square(godel(), IntervalSet.of(CHAIN3)), ((1, Q2, 0), (Q2, 1, Q1), (0, Q2, 1))
    )
)
@example(pinned_scan(sqrt_band(STEPS), ((1, T2, T1), (T2, 1, 0), (T1, T1, 1))))
@example(pinned_scan(sqrt_band(REMARK4), ((1, Q3, Q2), (Q3, 1, Q2), (Q2, Q2, 1))))
def test_kernels_match_the_pair_scan(drawn):
    """C, R, Cat_S membership and contains against the pair scan,
    errors included: when several pairs lack a bound, the library names
    the same pair and value.  C and R refuse a set that is not suitable,
    naming its first failure; membership answers for every set.  Norms
    without a product block run on the grid, the others on Fractions."""
    s, c, pair = drawn
    check_kernel(coreflect_c, oracle_coreflect, s, c)
    check_kernel(reflect_r, oracle_reflect, s, c)
    check_membership(s, c, pair)


@st.composite
def band_members(draw):
    """The band over a norm from cut_norms, and members of it on the /12
    grid: (a, a) is always a member, so every a has a partner."""
    s = sqrt_band(draw(cut_norms()))
    members = []
    for a in draw(st.lists(st.sampled_from(TWELFTHS), min_size=1, max_size=8)):
        partners = [b for b in TWELFTHS if oracle_member(s, a, b)]
        members.append((a, draw(st.sampled_from(partners))))
    return s, members


@settings(max_examples=40, deadline=None)
@given(band_members())
def test_sqrt_band_is_suitable(drawn):
    """The library passes the band by proof; here S1-S3 are sampled on
    band members of the /12 grid, independently of it."""
    s, members = drawn
    t = s.tnorm
    assert check_suitable(s).passed
    for a, b in members:
        assert contains(s, (a, b)) and oracle_member(s, b, a)
        for c, d in members:
            assert oracle_member(s, max(a, c), max(b, d))
            assert oracle_member(s, min(a, c), min(b, d))
            assert oracle_member(s, oracle_and(t, a, c), oracle_and(t, b, d))


# The Cat_S kernels against themselves: over another norm, and warm
# against fresh objects.


def spelled(name):
    """Builtin norm ``name`` spelled by its blocks, with no name: equal
    to the named builtin and to no other builtin."""
    return TNorm(BUILTIN_NORMS[name]().blocks)


@st.composite
def builtin_spellings(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_NORMS)))
    return name, (spelled(name) if draw(st.booleans()) else BUILTIN_NORMS[name]())


SHAPES = {
    "k_square": lambda t: k_square(t, IntervalSet.of(CHAIN3)),
    "k_diagonal": lambda t: k_diagonal(t, IntervalSet.of(CHAIN3)),
    "sqrt_band": sqrt_band,
    "explicit": lambda t: explicit(t, HALVES),
}


@settings(max_examples=200, deadline=None)
@given(
    builtin_spellings(),
    builtin_spellings(),
    st.sampled_from(sorted(SHAPES)),
    st.sampled_from([is_in_cat_s, coreflect_c, reflect_r]),
)
def test_cat_s_kernels_refuse_another_norm(left, right, shape, kernel):
    """S over one builtin and c over another: DomainError, whatever the
    spelling.  Two spellings of one builtin are one norm, and give what
    S built over c's own norm object gives."""
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
        expected = outcome(kernel, SHAPES[shape](c_norm), c)
        assert outcome(kernel, SHAPES[shape](s_norm), c) == expected


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


def cache_sets(t):
    """Sets over t whose constants have denominators 1, 2, 3, 4, 5 and
    7, so that the kernel domain's d changes from set to set.  The
    explicit set is not S3-closed, the last K^2 set's K lacks 1 and the
    last K_diagonal set's K lacks 0, so their errors (C and R refuse
    the sets that are not suitable) are compared too."""
    return [
        k_square(t, IntervalSet.of([0, 1])),
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


def square_matrices(n):
    """n x n matrices over denominators 1, 2, 3, 4, 5, 6 and 12; not
    necessarily categories."""
    values = st.sampled_from([ONE, *TWELFTHS, F(1, 5), F(3, 5)])
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


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
def test_warm_objects_answer_as_fresh_ones(name, matrices, calls):
    """Two categories and a list of suitable sets, over a norm that every
    example shares, serve a random sequence of calls; each answer equals
    the same call on freshly built equal objects, whose caches are
    empty.  The sets' constants and the categories' entries have
    different denominators, so the grid's d changes from call to call
    for each category and for each set.  Warming, M kept on the norm
    included, changes no equality, hash or repr."""
    t = WARM_NORMS[name]
    cats = [qcat_on(t, tuple(map(tuple, m))) for m in matrices]
    sets = cache_sets(t)
    before = [(hash(x), repr(x)) for x in (t, *cats, *sets)]

    def fresh(j, t):
        return QCat(t, cats[j].points, tuple(map(tuple, matrices[j])))

    for call, i, j in calls:
        fresh_t = fresh_norm(name)
        fresh_s = cache_sets(fresh_t)[i]
        expected = outcome(CAT_S_CALLS[call], fresh_s, fresh(j, fresh_t))
        assert outcome(CAT_S_CALLS[call], sets[i], cats[j]) == expected
    assert m_set(t) is m_set(t) == m_set(fresh_norm(name))
    assert [(hash(x), repr(x)) for x in (t, *cats, *sets)] == before
    fresh_t = fresh_norm(name)
    assert t == fresh_t and sets == cache_sets(fresh_t)
    assert cats == [fresh(j, fresh_t) for j in range(2)]
