"""The (join, &) path closure behind final_lift, reflect_r and
por_reflection, checked against naive iterate-until-no-change oracles
written here: relax every constraint, repeat while anything moves."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from realcat.intervals import IntervalSet
from realcat.qcat import QCat, final_lift, two_point, validate_qcat
from realcat.subconstructs import (
    explicit,
    is_in_cat_s,
    k_diagonal,
    k_square,
    por_reflection,
    reflect_r,
    sqrt_band,
)
from realcat.tnorm import BUILTIN_NORMS, lukasiewicz, tnorm_eval

VALUES = [F(k, 8) for k in range(9)] + [F(1, 3), F(2, 3), F(1, 5)]
K_FINITE = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
L3 = (F(0), F(1, 2), F(1))

norms = st.sampled_from(sorted(BUILTIN_NORMS)).map(lambda n: BUILTIN_NORMS[n]())
values = st.sampled_from(VALUES)


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


def raisers(t):
    """Suitable sets with oracle pair raisers built from their
    definitions, not from the library's bound helpers."""
    pairs = [(a, b) for a in L3 for b in L3]
    return [
        (
            k_square(t, IntervalSet.of(K_FINITE)),
            lambda a, b: (least_in(K_FINITE, a), least_in(K_FINITE, b)),
        ),
        (
            k_diagonal(t, IntervalSet.of(K_FINITE)),
            lambda a, b: (least_in(K_FINITE, max(a, b)),) * 2,
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
def sink_families(draw):
    t = draw(norms)
    n = draw(st.integers(1, 6))
    carrier = tuple(f"p{i}" for i in range(n))
    point = st.sampled_from(carrier)
    edges = draw(st.lists(st.tuples(values, values, point, point), max_size=8))
    return t, carrier, edges


@st.composite
def matrices(draw):
    """Square matrices whose diagonal need not be 1."""
    t = draw(norms)
    n = draw(st.integers(1, 5))
    row = st.lists(values, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return t, rows


@settings(max_examples=150, deadline=None)
@given(sink_families())
def test_final_lift_matches_naive_closure(family):
    t, carrier, edges = family
    sinks = [
        (two_point(t, a, b, ("s", "t")), {"s": x, "t": y})
        for a, b, x, y in edges
    ]
    n = len(carrier)
    seed = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for a, b, x, y in edges:
        i, j = carrier.index(x), carrier.index(y)
        seed[i][j], seed[j][i] = max(seed[i][j], a), max(seed[j][i], b)
    lifted = final_lift(t, sinks, carrier)
    assert [list(row) for row in lifted.matrix] == naive_closure(t, seed)
    assert validate_qcat(lifted).passed


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 3))
def test_reflect_r_matches_naive_reflection(case, which):
    t, rows = case
    s, raise_pair = raisers(t)[which]
    c = QCat(t, tuple(f"p{i}" for i in range(len(rows))), rows)
    out = reflect_r(s, c)
    assert [list(row) for row in out.matrix] == naive_reflection(t, raise_pair, rows)
    for i in range(len(rows)):
        assert out.matrix[i][i] == c.matrix[i][i]


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
