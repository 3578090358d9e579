"""Tests for finite real-enriched categories and their constructions."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat.errors import SizeLimitExceeded
from realcat.qcat import (
    QCat,
    QFunctor,
    enumerate_functors,
    final_lift,
    hom_power,
    hom_tensor,
    initial_lift,
    is_functor,
    product,
    singleton,
    tensor,
    tensor_transpose,
    tensor_untranspose,
    two_point,
    validate_qcat,
)
from realcat.subconstructs import por_coreflection, por_reflection
from realcat.tnorm import BUILTIN_NORMS, godel, lukasiewicz, tnorm_eval
from realcat.values import ONE, ZERO

LUK = lukasiewicz()
GOD = godel()

QUARTERS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def all_categories(t, values, size):
    """Brute-force enumeration of the valid categories on `size` points."""
    points = tuple(f"p{i}" for i in range(size))
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    for combo in itertools.product(values, repeat=len(slots)):
        matrix = [[ONE] * size for _ in range(size)]
        for (i, j), v in zip(slots, combo):
            matrix[i][j] = v
        c = QCat(t, points, tuple(tuple(r) for r in matrix))
        if validate_qcat(c):
            yield c


@pytest.fixture
def chain3():
    """Three points with r(a,b) = 3/4, r(b,c) = 1/2, r(a,c) = 1/4."""
    return QCat(
        LUK,
        ("a", "b", "c"),
        (
            (F(1), F(3, 4), F(1, 4)),
            (F(0), F(1), F(1, 2)),
            (F(0), F(0), F(1)),
        ),
    )


class TestValidation:
    def test_valid_chain(self, chain3):
        assert validate_qcat(chain3).passed

    def test_reflexivity_violation(self):
        c = QCat(LUK, ("a",), ((F(1, 2),),))
        res = validate_qcat(c)
        assert not res.passed and res.witness == ("a",)

    def test_composition_violation_has_triple_witness(self):
        c = QCat(
            LUK,
            ("a", "b", "c"),
            (
                (F(1), F(1), F(0)),
                (F(0), F(1), F(1)),
                (F(0), F(0), F(1)),
            ),
        )
        res = validate_qcat(c)
        assert not res.passed
        assert res.witness == ("a", "b", "c")

    def test_same_matrix_other_norm_can_differ(self):
        # 3/4 & 3/4 is 1/2 under Lukasiewicz but 3/4 under the minimum
        matrix = (
            (F(1), F(3, 4), F(1, 2)),
            (F(3, 4), F(1), F(3, 4)),
            (F(1, 2), F(3, 4), F(1)),
        )
        assert validate_qcat(QCat(LUK, ("a", "b", "c"), matrix)).passed
        assert not validate_qcat(QCat(GOD, ("a", "b", "c"), matrix)).passed

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            QCat(LUK, ("a", "a"), ((ONE, ONE), (ONE, ONE)))

    def test_two_point_always_valid(self):
        for a in QUARTERS:
            for b in QUARTERS:
                assert validate_qcat(two_point(LUK, a, b)).passed


class TestFunctors:
    def test_enumeration_into_singleton(self, chain3):
        fs = enumerate_functors(chain3, singleton(LUK))
        assert len(fs) == 1

    def test_identity_and_composition(self, chain3):
        ident = QFunctor(chain3, chain3, chain3.points)
        assert is_functor(ident)
        assert ident.compose_after(ident).mapping == ident.mapping

    def test_nonexpansive_requirement(self):
        a = two_point(LUK, F(3, 4), F(0))
        b = two_point(LUK, F(1, 4), F(0))
        # collapsing maps and the identity-shaped map a -> b
        maps = enumerate_functors(a, b)
        assert all(
            f.mapping[0] == f.mapping[1] for f in maps
        ), "3/4 cannot shrink to 1/4"

    def test_size_cap(self, chain3):
        with pytest.raises(SizeLimitExceeded) as exc:
            enumerate_functors(chain3, chain3, max_maps=3)
        err = exc.value
        assert (err.dom_size, err.cod_size, err.cap) == (3, 3, 3)
        assert str(err) == "27 candidate maps exceed the cap 3"

    def test_from_dict_roundtrip(self, chain3):
        f = QFunctor.from_dict(chain3, chain3, {"a": "b", "b": "b", "c": "c"})
        assert f("a") == "b"


class TestProductAndTensor:
    def test_structures(self):
        a = two_point(LUK, F(3, 4), F(1, 2))
        b = two_point(LUK, F(1, 2), F(1, 4))
        p = product(a, b)
        t = tensor(a, b)
        assert p.r(("0", "0"), ("1", "1")) == F(1, 2)
        assert t.r(("0", "0"), ("1", "1")) == F(1, 4)
        assert validate_qcat(p).passed and validate_qcat(t).passed

    def test_tensor_below_product(self):
        a = two_point(LUK, F(3, 4), F(1, 2))
        b = two_point(LUK, F(2, 3), F(1, 3))
        p, t = product(a, b), tensor(a, b)
        for x in p.points:
            for y in p.points:
                assert t.r(x, y) <= p.r(x, y)

    def test_mixed_norms_rejected(self):
        with pytest.raises(ValueError):
            product(two_point(LUK, 0, 0), two_point(GOD, 0, 0))

    def test_projections_are_functors(self):
        a = two_point(LUK, F(3, 4), F(1, 2))
        b = two_point(LUK, F(1, 2), F(1, 4))
        p = product(a, b)
        fst = QFunctor(p, a, tuple(x for (x, _) in p.points))
        snd = QFunctor(p, b, tuple(y for (_, y) in p.points))
        assert is_functor(fst) and is_functor(snd)


class TestHomObjects:
    def test_hom_tensor_structure_is_pointwise_meet(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        b = two_point(LUK, F(3, 4), F(3, 4))
        hom = hom_tensor(a, b)
        for f in hom.points:
            for g in hom.points:
                expected = min(b.r(f[i], g[i]) for i in range(2))
                assert hom.r(f, g) == expected

    def test_hom_power_below_hom_tensor(self):
        a = two_point(LUK, F(1, 2), F(1, 4))
        b = two_point(LUK, F(3, 4), F(1, 2))
        ht, hp = hom_tensor(a, b), hom_power(a, b)
        assert ht.points == hp.points
        for f in ht.points:
            for g in ht.points:
                assert hp.r(f, g) <= ht.r(f, g)

    @pytest.mark.parametrize("hom", [hom_power, hom_tensor])
    def test_hom_objects_reject_mixed_norms(self, hom):
        with pytest.raises(ValueError, match="different t-norms"):
            hom(two_point(LUK, 0, 0), two_point(GOD, 0, 0))

    def test_hom_objects_are_valid(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        b = two_point(LUK, F(1, 4), F(3, 4))
        assert validate_qcat(hom_tensor(a, b)).passed
        assert validate_qcat(hom_power(a, b)).passed


class TestTensorTransposition:
    def test_bijection_on_an_instance(self):
        a = two_point(LUK, F(1, 2), F(1, 2))
        b = two_point(LUK, F(3, 4), F(1, 4))
        c = two_point(LUK, F(1, 2), F(0))
        ab = tensor(a, b)
        direct = enumerate_functors(ab, c)
        hom = hom_tensor(b, c)
        curried = enumerate_functors(a, hom)
        assert len(direct) == len(curried)
        for f in direct:
            g = tensor_transpose(a, b, c, f)
            assert is_functor(g)
            back = tensor_untranspose(a, b, c, g)
            assert back.mapping == f.mapping


class TestPreorderReflections:
    def test_coreflection_keeps_only_ones(self, chain3):
        pre = por_coreflection(chain3)
        assert pre.points == chain3.points
        assert pre.matrix == tuple(
            tuple(F(int(i == j)) for j in range(3)) for i in range(3)
        )

    def test_reflection_closes_transitively(self):
        c = QCat(
            LUK,
            ("a", "b", "c"),
            (
                (F(1), F(1, 4), F(0)),
                (F(0), F(1), F(1, 4)),
                (F(0), F(0), F(1)),
            ),
        )
        pre = por_reflection(c)
        assert pre.r("a", "c") == 1, "nonzero hops compose"
        assert pre.r("c", "a") == 0
        assert {v for row in pre.matrix for v in row} == {F(0), F(1)}
        assert validate_qcat(pre).passed


def closed_category(t, prefix, rows):
    """The category on rows with unit diagonal, closed naively under
    m(i,j) >= m(k,j) & m(i,k) until nothing moves."""
    n = len(rows)
    m = [[ONE if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.product(range(n), repeat=3):
            via = tnorm_eval(t, m[k][j], m[i][k])
            if via > m[i][j]:
                m[i][j], changed = via, True
    return QCat(t, tuple(f"{prefix}{i}" for i in range(n)), tuple(map(tuple, m)))


@st.composite
def category_pairs(draw):
    t = BUILTIN_NORMS[draw(st.sampled_from(sorted(BUILTIN_NORMS)))]()
    cats = []
    for prefix in ("a", "b"):
        n = draw(st.integers(0, 3))
        row = st.lists(st.sampled_from(QUARTERS), min_size=n, max_size=n)
        cats.append(closed_category(t, prefix, draw(st.lists(row, min_size=n, max_size=n))))
    return cats


@settings(max_examples=150, deadline=None)
@given(category_pairs())
def test_constructions_match_pointwise_formulas(pair):
    """product is the meet of the factors, hom_tensor the meet over the
    points of A, and rho keeps exactly the entries equal to 1."""
    a, b = pair
    prod = product(a, b)
    assert prod.points == tuple((p, q) for p in a.points for q in b.points)
    for (p1, q1), (p2, q2) in itertools.product(prod.points, repeat=2):
        assert prod.r((p1, q1), (p2, q2)) == min(a.r(p1, p2), b.r(q1, q2))
    hom = hom_tensor(a, b)
    functors = tuple(f.mapping for f in enumerate_functors(a, b))
    assert hom.points == functors
    for f, g in itertools.product(functors, repeat=2):
        pointwise = [b.r(f[i], g[i]) for i in range(len(a))]
        assert hom.r(f, g) == min(pointwise, default=ONE)
    rho = por_coreflection(a)
    for p, q in itertools.product(a.points, repeat=2):
        assert rho.r(p, q) == (ONE if a.r(p, q) == ONE else 0)


@st.composite
def matrix_pairs(draw):
    """A norm, the rows of A and B (categories or arbitrary matrices,
    diagonals below 1 included) and B's labels in a drawn order."""
    norm = draw(st.sampled_from(sorted(BUILTIN_NORMS)))
    rows = []
    for n in (draw(st.integers(0, 3)), draw(st.integers(0, 4))):
        row = st.lists(st.sampled_from(QUARTERS), min_size=n, max_size=n)
        m = draw(st.lists(row, min_size=n, max_size=n))
        if draw(st.booleans()):
            m = closed_category(BUILTIN_NORMS[norm](), "p", m).matrix
        rows.append(m)
    labels = draw(st.permutations([f"b{i}" for i in range(len(rows[1]))]))
    return norm, rows[0], rows[1], labels


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
@example(("godel", [], [[ONE]], ["b0"]))  # |A| = 0: one empty functor
@example(("lukasiewicz", [[ONE]], [], []))  # |B| = 0: none
@example(("product", [[F(1, 2)]], [[F(1, 4)]], ["b0"]))  # diagonals below 1
@example(("remark4", [[F(1, 2)]], [[ONE, ZERO], [ZERO, F(1, 4)]], ["b1", "b0"]))
def test_functor_search_matches_exhaustive_scan(case):
    """enumerate_functors and hom_power against a scan of every image
    table in codomain index order; B's labels are not sorted, so the
    order is index order, not label order."""
    norm, a_rows, b_rows, labels = case
    t = BUILTIN_NORMS[norm]()
    a = QCat(t, tuple(f"a{i}" for i in range(len(a_rows))), tuple(map(tuple, a_rows)))
    b = QCat(t, tuple(labels), tuple(map(tuple, b_rows)))
    n = len(a_rows)
    tables = [
        table
        for table in itertools.product(range(len(b_rows)), repeat=n)
        if all(
            a_rows[i][j] <= b_rows[table[i]][table[j]]
            for i in range(n)
            for j in range(n)
        )
    ]
    images = [tuple(labels[k] for k in table) for table in tables]
    assert [f.mapping for f in enumerate_functors(a, b)] == images

    def residual(x, y):  # right adjoint of the meet
        return ONE if x <= y else y

    hom = hom_power(a, b)
    assert hom.points == tuple(images)
    assert hom.matrix == tuple(
        tuple(
            min(
                (
                    residual(a_rows[i][j], b_rows[f[i]][g[j]])
                    for i in range(n)
                    for j in range(n)
                ),
                default=ONE,
            )
            for g in tables
        )
        for f in tables
    )


class TestLifts:
    def test_initial_lift_is_the_meet(self, chain3):
        lifted = initial_lift(
            LUK,
            ("u", "v"),
            [
                ({"u": "a", "v": "b"}, chain3),
                ({"u": "b", "v": "c"}, chain3),
            ],
        )
        assert lifted.r("u", "v") == min(F(3, 4), F(1, 2))
        assert validate_qcat(lifted).passed

    def test_initial_lift_without_sources_is_indiscrete(self):
        lifted = initial_lift(LUK, ("u", "v"), [])
        assert lifted.r("u", "v") == ONE

    def test_final_lift_pushes_forward(self, chain3):
        lifted = final_lift(
            LUK, [(chain3, {"a": "x", "b": "y", "c": "z"})], ("x", "y", "z")
        )
        assert lifted.matrix == chain3.matrix

    def test_final_lift_closes_paths(self):
        # two overlapping edges force a composite value
        e1 = two_point(LUK, F(3, 4), F(0), points=("a", "b"))
        e2 = two_point(LUK, F(3, 4), F(0), points=("b", "c"))
        lifted = final_lift(
            LUK,
            [(e1, {"a": "a", "b": "b"}), (e2, {"b": "b", "c": "c"})],
            ("a", "b", "c"),
        )
        assert lifted.r("a", "c") == F(1, 2)
        assert validate_qcat(lifted).passed

    def test_final_lift_is_least_above_the_sinks(self):
        """Brute-force check of the universal property on one instance."""
        e1 = two_point(LUK, F(1, 2), F(1, 4), points=("a", "b"))
        e2 = two_point(LUK, F(3, 4), F(0), points=("b", "c"))
        sinks = [(e1, {"a": "a", "b": "b"}), (e2, {"b": "b", "c": "c"})]
        lifted = final_lift(LUK, sinks, ("a", "b", "c"))
        seeds = {
            ("a", "b"): F(1, 2),
            ("b", "a"): F(1, 4),
            ("b", "c"): F(3, 4),
            ("c", "b"): F(0),
        }
        for cand in all_categories(LUK, QUARTERS, 3):
            above = all(
                cand.r(f"p{'abc'.index(x)}", f"p{'abc'.index(y)}") >= v
                for (x, y), v in seeds.items()
            )
            if above:
                for i, x in enumerate("abc"):
                    for j, y in enumerate("abc"):
                        assert cand.matrix[i][j] >= lifted.r(x, y)

    def test_functoriality_through_the_final_lift(self):
        """Every sink map becomes a functor into the lifted structure."""
        e1 = two_point(LUK, F(1, 2), F(1, 4), points=("a", "b"))
        e2 = two_point(LUK, F(3, 4), F(0), points=("b", "c"))
        sinks = [(e1, {"a": "a", "b": "b"}), (e2, {"b": "b", "c": "c"})]
        lifted = final_lift(LUK, sinks, ("a", "b", "c"))
        for cat, f in sinks:
            functor = QFunctor(cat, lifted, tuple(f[p] for p in cat.points))
            assert is_functor(functor)
