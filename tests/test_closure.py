"""The (join, &) path closure behind final_lift, reflect_r and
por_reflection, checked against naive iterate-until-no-change oracles
written here: relax every constraint, repeat while anything moves.
coreflect_c and validate_qcat are checked against oracles written from
their definitions.  C and R take suitable sets only: half the drawn
sets are closed under & here, and C and R must refuse every drawn set
that is not suitable.  The builtin norms, ordinal sums of Lukasiewicz
blocks (whose kernels run on integer numerators) and sums with a
product block (whose kernels run on Fractions) all face the same
oracles, which compute on Fractions only."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat.errors import DomainError, ProductIrrational
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, final_lift, two_point, validate_qcat
from realcat.subconstructs import (
    check_suitable,
    coreflect_c,
    explicit,
    is_in_cat_s,
    k_diagonal,
    k_square,
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
    tnorm_eval,
)

VALUES = [F(k, 8) for k in range(9)] + [F(1, 3), F(2, 3), F(1, 5)]
K_FINITE = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
L3 = (F(0), F(1, 2), F(1))
# sevenths and tenths make the common denominator of a matrix large
FINE_VALUES = VALUES + [F(1, 7), F(3, 10), F(5, 7), F(7, 10), F(5, 12), F(8, 9)]
K_FINE = (F(0), F(1, 7), F(3, 10), F(1, 2), F(5, 7), F(1))
ENDPOINTS = sorted({F(a, b) for b in range(1, 13) for a in range(b + 1)})

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


def naive_closure(t, m):
    """Raise m(i,j) to m(k,j) & m(i,k) for i != j until nothing moves."""
    m = [list(row) for row in m]
    n = len(m)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    via = tnorm_eval(t, m[k][j], m[i][k])
                    if i != j and via > m[i][j]:
                        m[i][j] = via
                        changed = True
    return m


def raise_all(raise_pair, m):
    raised = [list(row) for row in m]
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            raised[i][j], raised[j][i] = raise_pair(m[i][j], m[j][i])
    return raised


def naive_reflection(t, raise_pair, m):
    """Alternate raising pairs and closing until neither moves."""
    while True:
        closed = naive_closure(t, raise_all(raise_pair, m))
        if closed == m:
            return m
        m = closed


def least_in(members, a):
    return min(k for k in members if k >= a)


def and_closed(t, points):
    """points without those inside a product block, with 1, closed
    under &: finite, as & keeps the grid of a Lukasiewicz block and its
    endpoints, and a subquantale, so K^2 and K_diagonal over it and its
    square written out are suitable."""
    inside = [b for b in t.blocks if b.kind is BlockKind.PRODUCT]
    out = {F(1)} | {v for v in points if not any(b.lo < v < b.hi for b in inside)}
    while new := {tnorm_eval(t, a, b) for a in out for b in out} - out:
        out |= new
    return tuple(sorted(out))


def refuses(call, s, c):
    """Whether S fails S1-S3; then call(s, c) must refuse it, naming the
    first failure."""
    res = check_suitable(s)
    if not res.passed:
        with pytest.raises(DomainError) as err:
            call(s, c)
        assert str(err.value) == f"not a suitable set: {res.message}"
    return not res.passed


def raisers(t, k=K_FINITE, closed=False):
    """Sets over K, or over its closure ``and_closed`` (then suitable),
    with oracle pair raisers built from their definitions, not from the
    library's bound helpers."""
    k, l3 = (and_closed(t, k), and_closed(t, L3)) if closed else (k, L3)
    pairs = [(a, b) for a in l3 for b in l3]
    return [
        (
            k_square(t, IntervalSet.of(k)),
            lambda a, b: (least_in(k, a), least_in(k, b)),
        ),
        (
            k_diagonal(t, IntervalSet.of(k)),
            lambda a, b: (least_in(k, max(a, b)),) * 2,
        ),
        (
            explicit(t, pairs),
            lambda a, b: (
                min(p for p, q in pairs if p >= a and q >= b),
                min(q for p, q in pairs if p >= a and q >= b),
            ),
        ),
        # the band is x & x <= y and y & y <= x: enforce each by raising
        (
            sqrt_band(t),
            lambda a, b: (max(a, tnorm_eval(t, b, b)), max(b, tnorm_eval(t, a, a))),
        ),
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


# two sinks on one pair: their lcm, 8, is not the seed's, 2, as the join
# keeps 1/2 and drops 1/8; and no sink at all, whose lcm is 1
ONE_PAIR_TWICE = [(F(1, 8), 0, "p0", "p1"), (F(1, 2), 0, "p0", "p1")]


@settings(max_examples=150, deadline=None)
@given(sink_families())
@example((lukasiewicz(), ("p0", "p1"), ONE_PAIR_TWICE))
@example((lukasiewicz(), ("p0", "p1"), []))
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
    sinks = two_point_sinks(t, edges)
    n = len(carrier)
    seed = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for a, b, x, y in edges:
        i, j = carrier.index(x), carrier.index(y)
        seed[i][j], seed[j][i] = max(seed[i][j], a), max(seed[j][i], b)
    lifted = final_lift(t, sinks, carrier)
    assert [list(row) for row in lifted.matrix] == naive_closure(t, seed)
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


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 3), st.booleans())
def test_reflect_r_matches_naive_reflection(case, which, closed):
    check_reflect_r(case, raisers(case[0], closed=closed)[which])


@settings(max_examples=150, deadline=None)
@given(
    matrices(sums, fine_values),
    st.integers(0, 3),
    st.sampled_from([K_FINITE, K_FINE]),
    st.booleans(),
)
def test_reflect_r_matches_naive_reflection_on_ordinal_sums(case, which, k, closed):
    check_reflect_r(case, raisers(case[0], k, closed)[which])


def check_reflect_r(case, raiser):
    t, rows = case
    s, raise_pair = raiser
    c = QCat(t, tuple(f"p{i}" for i in range(len(rows))), rows)
    if refuses(reflect_r, s, c):
        return
    out = reflect_r(s, c)
    assert [list(row) for row in out.matrix] == naive_reflection(t, raise_pair, rows)
    for i in range(len(rows)):
        assert out.matrix[i][i] == c.matrix[i][i]


def rational_root(v):
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return F(rn, rd) if rn * rn == n and rd * rd == d else None


def band_candidates(t, a, b):
    """Every value a coordinate of the largest band pair below (a, b)
    can take: a, b, 0, the block endpoints and the largest z with
    z & z <= v for v = a, b inside each block (rational roots only)."""
    out = {F(0), a, b}
    for blk in t.blocks:
        lo, hi = blk.lo, blk.hi
        out |= {lo, hi}
        for v in (a, b):
            if lo <= v < hi:
                if blk.kind is BlockKind.LUKASIEWICZ:
                    out.add((v + hi) / 2)
                elif rational_root((v - lo) * (hi - lo)) is not None:
                    out.add(lo + rational_root((v - lo) * (hi - lo)))
    return out


def lowerers(t, k=K_FINITE, closed=False):
    """Sets over K, or over its closure ``and_closed`` (then suitable),
    with the finite pair candidates of their largest pair below (a, b),
    read off their definitions."""
    k, l3 = (and_closed(t, k), and_closed(t, L3)) if closed else (k, L3)
    pairs = [(a, b) for a in l3 for b in l3]
    square = [(p, q) for p in k for q in k]

    def band(a, b):
        vs = band_candidates(t, a, b)
        return [
            (x, y)
            for x in vs
            for y in vs
            if tnorm_eval(t, x, x) <= y and tnorm_eval(t, y, y) <= x
        ]

    return [
        (k_square(t, IntervalSet.of(k)), lambda a, b: square),
        (k_diagonal(t, IntervalSet.of(k)), lambda a, b: [(p, p) for p in k]),
        (explicit(t, pairs), lambda a, b: pairs),
        (sqrt_band(t), band),
    ]


def largest_below(candidates, a, b):
    """The candidate pair below (a, b) that lies above every other one,
    by brute force: S1 makes it exist."""
    below = [(p, q) for p, q in candidates if p <= a and q <= b]
    best = max(below)
    assert all(p <= best[0] and q <= best[1] for p, q in below)
    return best


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
    check_coreflect_c(case, which, k, closed)


@settings(max_examples=100, deadline=None)
@given(matrices(ordinal_sums(False), odd_values, sizes=(2, 5)))
@example((LOW_BLOCK, [[1, 1], [0, 1]]))
def test_coreflect_c_over_the_band_takes_roots_off_the_matrix_grid(case):
    """C over the band on entries off the block endpoints' grid: its
    roots (x + hi)/2 lie on no grid of the entries alone."""
    check_coreflect_c(case, 3, K_FINITE, False)


def check_coreflect_c(case, which, k, closed):
    t, rows = case
    s, candidates = lowerers(t, k, closed)[which]
    n = len(rows)
    c = QCat(t, tuple(f"p{i}" for i in range(n)), rows)
    if refuses(coreflect_c, s, c):
        return
    try:
        out = coreflect_c(s, c)
    except ProductIrrational:
        # some root is irrational: only the band inside a product block
        assert which == 3 and any(b.kind is BlockKind.PRODUCT for b in t.blocks)
        return
    expected = [list(row) for row in rows]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            expected[i][j], expected[j][i] = largest_below(candidates(a, b), a, b)
    assert [list(row) for row in out.matrix] == expected


def first_violation(t, points, m):
    """validate_qcat's verdict from the definition: the first diagonal
    entry below 1, else the first (i, j, k) in row-major order with
    r(j,k) & r(i,j) > r(i,k), as (message, witness)."""
    for i, p in enumerate(points):
        if m[i][i] != 1:
            return f"r({p},{p}) = {m[i][i]} != 1", (p,)
    for i, j, k in itertools.product(range(len(points)), repeat=3):
        lhs = tnorm_eval(t, m[j][k], m[i][j])
        if lhs > m[i][k]:
            x, y, z = points[i], points[j], points[k]
            return (
                f"r({y},{z}) & r({x},{y}) = {lhs} > r({x},{z}) = {m[i][k]}",
                (x, y, z),
            )
    return "valid", None


# r(p2,p1) & r(p0,p2) = 1/2 > r(p0,p1) = 0 comes first in row-major
# order; a scan with the middle point outer would first meet
# r(p0,p2) & r(p1,p0) = 1/2 > r(p1,p2) = 0
PINNED_ORDER = [[1, 0, F(1, 2)], [F(1, 2), 1, 0], [0, F(1, 2), 1]]
Q1, Q3, T1, T2 = F(1, 4), F(3, 4), F(1, 3), F(2, 3)
REMARK4 = BUILTIN_NORMS["remark4"]()


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
    n = len(rows)
    if unit_diagonal:
        rows = [
            [F(1) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        if closed:
            rows = naive_closure(t, rows)
    points = tuple(f"p{i}" for i in range(n))
    res = validate_qcat(QCat(t, points, rows))
    assert (res.message, res.witness) == first_violation(t, points, rows)
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
    rows = naive_closure(
        t, [[F(1) if i == j else v for j, v in enumerate(r)] for i, r in enumerate(rows)]
    )
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
    check_reflect_r(case, raisers(case[0], k, closed)[which])


@settings(max_examples=60, deadline=None)
@given(lowered_categories())
@example((STEPS, padded([[1, F(5, 16), F(3, 16)], [0, 1, F(5, 16)], [0, 0, 1]])))
@example((STEPS, padded([[1, F(3, 8), F(1, 4)], [0, 1, F(3, 4)], [0, 0, 1]])))
@example((STEPS, padded([[1, F(3, 8), 0], [0, 1, F(1, 8)], [0, 0, 1]])))
def test_validate_qcat_reports_the_first_violation_at_benchmark_scale(case):
    t, rows = case
    points = tuple(f"p{i}" for i in range(len(rows)))
    res = validate_qcat(QCat(t, points, rows))
    assert (res.message, res.witness) == first_violation(t, points, rows)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_por_reflection_matches_naive_closure(case):
    """sigma is R for S = {0,1}^2: the closure of the 0/1 matrix of the
    nonzero entries, with the diagonal left as given."""
    t, rows = case
    n = len(rows)
    crisp = [
        [v if i == j else F(int(v > 0)) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    c = QCat(t, tuple(f"p{i}" for i in range(n)), rows)
    assert [list(row) for row in por_reflection(c).matrix] == naive_closure(t, crisp)


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
    s, band = raisers(t)[3]
    out = reflect_r(s, QCat(t, ("a", "b", "c", "d"), r))
    assert [list(row) for row in out.matrix] == expected
    assert validate_qcat(out).passed and is_in_cat_s(s, out)
    assert raise_all(band, naive_closure(t, r)) != expected
