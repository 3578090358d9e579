"""Tests for finite real-enriched categories and their constructions."""

import itertools
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat.errors import RealcatError, SizeLimitExceeded
from realcat.functors import (
    QFunctor,
    enumerate_functors,
    functor_violation,
    hom_power,
    hom_tensor,
    m_valued,
    product,
    tensor,
    tensor_transpose,
    tensor_untranspose,
)
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, final_lift, initial_lift, two_point, validate_qcat
from realcat.subconstructs import (
    coreflect_c,
    explicit,
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
    encode,
    godel,
    lukasiewicz,
    m_set,
    tnorm_eval,
)
from realcat.values import ONE, ZERO
from realcat.yoneda import curry, uncurry

LUK = lukasiewicz()
GOD = godel()

QUARTERS = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
# Value pools over other denominators: two matrices drawn from different
# pools meet only after an lcm rescale, and tie on 0, 1/2 and 1.
POOLS = [
    QUARTERS,
    [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)],
    [F(0), F(1, 5), F(1, 2), F(4, 5), F(1)],
    [F(0), F(1, 8), F(3, 8), F(1, 2), F(7, 8), F(1)],
]


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

    def test_relabel_shares_the_matrix_and_refuses_bad_labels(self, chain3):
        c = chain3.relabel(["x", "y", "z"])
        assert c.points == ("x", "y", "z") and c.matrix is chain3.matrix
        assert c.tnorm == chain3.tnorm and validate_qcat(c).passed
        for labels in (["x", "x", "z"], ["x", "y"]):
            with pytest.raises(ValueError):
                chain3.relabel(labels)

    def test_two_point_always_valid(self):
        for a in QUARTERS:
            for b in QUARTERS:
                assert validate_qcat(two_point(LUK, a, b)).passed

    def test_each_category_is_scanned_once(self, chain3):
        """The result is kept on the category, out of its fields."""
        res = validate_qcat(chain3)
        assert validate_qcat(chain3) is res
        bad = QCat(LUK, ("a",), ((F(1, 2),),))
        assert validate_qcat(bad) is validate_qcat(bad)
        same = QCat(LUK, chain3.points, chain3.matrix)
        assert same == chain3 and hash(same) == hash(chain3)
        assert repr(same) == repr(chain3)


class TestFunctors:
    def test_enumeration_into_singleton(self, chain3):
        fs = enumerate_functors(chain3, QCat(LUK, ("*",), ((ONE,),)))
        assert len(fs) == 1

    def test_identity_and_composition(self, chain3):
        ident = QFunctor(chain3, chain3, chain3.points)
        assert functor_violation(ident) is None
        assert QFunctor(chain3, chain3, ("b", "b", "c"))("a") == "b"

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (lambda c: c.index("w"), "'w' is not a point"),
            (lambda c: c.index(["a"]), "['a'] is not a point"),
            (lambda c: c.r("a", "w"), "'w' is not a point"),
            (lambda c: c.r(["a"], "b"), "['a'] is not a point"),
            (lambda c: QFunctor(c, c, ("a", "b")), "mapping length does not match domain"),
            (lambda c: QFunctor(c, c, ("a", ["b"], "c")), "image ['b'] not a codomain point"),
        ],
        ids=["index-missing", "index-unhashable", "r-missing", "r-unhashable",
             "functor-short", "functor-unhashable"],
    )
    def test_a_lookup_names_what_is_no_point(self, chain3, lookup, message):
        with pytest.raises(ValueError) as err:
            lookup(chain3)
        assert str(err.value) == message

    def test_functor_violation_is_the_first_pair_in_row_major_order(self):
        a = two_point(LUK, F(1, 2), F(1, 4))
        ident = QFunctor(a, a, a.points)
        assert functor_violation(ident) is None
        # r(0,1) = 1/2 and r(1,0) = 1/4 both exceed the discrete 0
        f = QFunctor(a, two_point(LUK, 0, 0), a.points)
        assert functor_violation(f) == ("0", "1")
        g = QFunctor(a, two_point(LUK, F(1, 2), 0), a.points)
        assert functor_violation(g) == ("1", "0")

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

    def test_search_keeps_its_own_stack(self):
        """|B| = 1 admits any |A| under the cap, so the search must not
        recurse per point: with the recursion limit below |A|, a chain
        of 150 points still maps into the singleton."""
        n = 150
        chain = QCat(
            LUK,
            tuple(range(n)),
            tuple(tuple(ONE if i <= j else ZERO for j in range(n)) for i in range(n)),
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            found = enumerate_functors(chain, QCat(LUK, ("*",), ((ONE,),)))
        finally:
            sys.setrecursionlimit(limit)
        assert [f.mapping for f in found] == [("*",) * n]


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
        assert functor_violation(fst) is None and functor_violation(snd) is None


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

    @pytest.mark.parametrize("build", [product, hom_power, hom_tensor])
    def test_constructions_are_kept_on_their_first_argument(self, build):
        """A second call with the same arguments returns the first
        result; an equal but distinct second argument or another cap
        builds it again, equal.  The memo is no part of equality."""
        a = two_point(LUK, F(1, 2), F(1, 4))
        b = two_point(LUK, F(3, 4), F(1, 2))
        twin = two_point(LUK, F(3, 4), F(1, 2))
        first = build(a, b)
        assert build(a, b) is first
        assert build(a, twin) is not first and build(a, twin) == first
        if build is not product:
            assert build(a, b, 10**5) is not first and build(a, b, 10**5) == first
        assert a == two_point(LUK, F(1, 2), F(1, 4))
        assert hash(a) == hash(two_point(LUK, F(1, 2), F(1, 4)))

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
            assert functor_violation(g) is None
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
        pool = draw(st.sampled_from(POOLS))
        row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
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
def lift_sources(draw):
    """A builtin norm, a carrier of 0-4 points and 0-3 sources: maps of
    the carrier into 1-3 point categories, each over its own value pool,
    so the sources meet only after an lcm rescale."""
    t = BUILTIN_NORMS[draw(st.sampled_from(sorted(BUILTIN_NORMS)))]()
    carrier = tuple(f"u{i}" for i in range(draw(st.integers(0, 4))))
    sources = []
    for k in range(draw(st.integers(0, 3))):
        n, pool = draw(st.integers(1, 3)), draw(st.sampled_from(POOLS))
        row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        cod = closed_category(t, f"s{k}.", draw(st.lists(row, min_size=n, max_size=n)))
        images = [draw(st.sampled_from(cod.points)) for _ in carrier]
        sources.append((dict(zip(carrier, images)), cod))
    return t, carrier, sources


@settings(max_examples=150, deadline=None)
@given(lift_sources())
def test_initial_lift_is_the_meet_of_the_sources(case):
    """d(x,y) = min_i r_i(f_i x, f_i y), 1 without sources, and the
    initial lift of categories is a category."""
    t, carrier, sources = case
    lifted = initial_lift(t, carrier, sources)
    assert lifted.points == carrier
    for x, y in itertools.product(carrier, repeat=2):
        pulled = [cod.r(f[x], f[y]) for f, cod in sources]
        assert lifted.r(x, y) == min(pulled, default=ONE)
    assert validate_qcat(lifted).passed


@settings(max_examples=100, deadline=None)
@given(category_pairs())
def test_product_is_the_initial_lift_of_the_projections(pair):
    a, b = pair
    prod = product(a, b)
    first, second = ({p: p[k] for p in prod.points} for k in (0, 1))
    lifted = initial_lift(a.tnorm, prod.points, [(first, a), (second, b)])
    assert lifted.points == prod.points and lifted.matrix == prod.matrix


# images a map may have besides its target's points: other labels, and
# unhashable values that JSON decodes to
STRAY_IMAGES = st.one_of(
    st.sampled_from(["w", "z", 0, 1.5, None, ("a",)]),
    st.lists(st.sampled_from("ax"), max_size=1),
    st.dictionaries(st.sampled_from("ax"), st.just("y"), max_size=1),
)


@st.composite
def malformed_map(draw, dom, cod):
    """A map of dom's points to cod's, often broken: no mapping at all,
    or a mapping with points omitted, extra keys and images outside cod
    or unhashable."""
    if draw(st.integers(0, 4)) == 0:
        return draw(
            st.one_of(
                st.lists(st.sampled_from(cod) if cod else STRAY_IMAGES, max_size=3),
                st.text(max_size=2),
                st.integers(),
                st.none(),
                st.frozensets(st.sampled_from(dom)) if dom else st.just(()),
            )
        )
    images = st.sampled_from(cod) if cod else STRAY_IMAGES
    if draw(st.booleans()):
        images = st.one_of(images, STRAY_IMAGES)
    f = {x: draw(images) for x in dom}
    for x in draw(st.lists(st.sampled_from(dom), max_size=2)) if dom else ():
        f.pop(x, None)
    f.update(draw(st.dictionaries(st.sampled_from(["q", 7, None]), images, max_size=2)))
    return f


LIFT_TARGETS = [
    QCat(LUK, (), ()),
    QCat(LUK, ("a",), ((ONE,),)),
    two_point(LUK, F(1, 2), 0, points=("a", "b")),
    two_point(GOD, F(1, 4), F(3, 4), points=("a", "x")),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_malformed_map_is_a_value_error_or_no_error(data):
    """Both lifts, given maps of any shape on a carrier of labels, answer
    or raise ValueError, never another error."""
    carrier = data.draw(st.lists(st.sampled_from(["x", "y", "z", 1]), unique=True, max_size=3))
    cats = data.draw(st.lists(st.sampled_from(LIFT_TARGETS), max_size=3))
    sources = [(data.draw(malformed_map(carrier, c.points)), c) for c in cats]
    sinks = [(c, data.draw(malformed_map(c.points, carrier))) for c in cats]
    for lift in (
        lambda: initial_lift(LUK, carrier, sources),
        lambda: final_lift(LUK, sinks, carrier),
    ):
        try:
            assert isinstance(lift(), QCat)
        except ValueError:
            pass


# carriers and structure values of any shape: repeated and unhashable
# labels, no sequence at all, values outside [0, 1], floats and text
MALFORMED_CARRIERS = st.one_of(
    st.lists(st.one_of(st.sampled_from(["a", "b", "x", 1]), STRAY_IMAGES), max_size=3),
    st.sampled_from([None, 3, "ab", {"a": 1}]),
)
MALFORMED_VALUES = st.one_of(
    st.sampled_from(QUARTERS),
    st.sampled_from([F(3, 2), -1, 2, 0.5, "1/2", "x", None, (), [ONE]]),
)
# categories, and a matrix with r(z,z) = 1/2 that is none
CATEGORY_POOL = [*LIFT_TARGETS, QCat(LUK, ("z",), ((F(1, 2),),))]


def malformed_matrix(n: int):
    """An n x n matrix of any values, one of the wrong shape, or none."""
    size = st.sampled_from([n, n, n + 1, max(n - 1, 0)])
    row = size.flatmap(lambda k: st.lists(MALFORMED_VALUES, min_size=k, max_size=k))
    rows = size.flatmap(lambda k: st.lists(row, min_size=k, max_size=k))
    return st.one_of(rows, st.sampled_from([None, 5, "ab", [None], [5]]))


def images(data, dom, cod):
    """A mapping for QFunctor(dom, cod, ...): malformed_map's values when
    it draws a dict, else what it drew."""
    f = data.draw(malformed_map(dom.points, cod.points))
    return tuple(f.values()) if isinstance(f, dict) else f


def functor_or_none(data, dom, cod):
    try:
        return QFunctor(dom, cod, images(data, dom, cod))
    except (ValueError, TypeError):
        return None


def built_or_drawn(data, build, *args):
    """build(*args), or a category of the pool when the draw says so or
    build refuses its arguments."""
    try:
        if data.draw(st.booleans()):
            return build(*args)
    except (ValueError, RealcatError):
        pass
    return data.draw(st.sampled_from(CATEGORY_POOL))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_constructor_input_is_a_value_type_or_realcat_error(data):
    """QCat, QFunctor, curry and uncurry, given carriers, values and maps
    of any shape, answer or raise ValueError, TypeError or a RealcatError
    that names the input: never a KeyError, IndexError or AttributeError
    from inside."""
    points = data.draw(MALFORMED_CARRIERS)
    n = len(points) if isinstance(points, (list, str, dict)) else 0
    a, c, b = (data.draw(st.sampled_from(CATEGORY_POOL)) for _ in range(3))
    calls = [
        lambda: QCat(LUK, points, data.draw(malformed_matrix(n))),
        lambda: QFunctor(a, b, images(data, a, b)),
    ]
    dom = built_or_drawn(data, product, a, c)
    if (f := functor_or_none(data, dom, b)) is not None:
        calls.append(lambda: curry(a, c, b, f))
    hom = built_or_drawn(data, hom_power, a, b)
    if (g := functor_or_none(data, data.draw(st.sampled_from([c, a])), hom)) is not None:
        calls.append(lambda: uncurry(a, c, b, g))
    for call in calls:
        try:
            call()
        except (ValueError, TypeError, RealcatError):
            pass


EIGHTHS = [F(i, 8) for i in range(9)]
# two Lukasiewicz blocks: M is [0, 1/4], [1/2, 3/4] and 1
TWO_LUK = TNorm(
    (
        Block(ZERO, F(1, 2), BlockKind.LUKASIEWICZ),
        Block(F(1, 2), ONE, BlockKind.LUKASIEWICZ),
    )
)


@st.composite
def m_valued_pairs(draw):
    """Two categories over one builtin norm or TWO_LUK with every value
    in its quantale M: closures of rows drawn from the eighths inside M,
    which M keeps, as it is closed under & and joins."""
    t = draw(st.sampled_from([*(BUILTIN_NORMS[n]() for n in sorted(BUILTIN_NORMS)), TWO_LUK]))
    values = [v for v in EIGHTHS if v in m_set(t)]
    cats = []
    for prefix in ("a", "b"):
        n = draw(st.integers(0, 3))
        row = st.lists(st.sampled_from(values), min_size=n, max_size=n)
        cats.append(closed_category(t, prefix, draw(st.lists(row, min_size=n, max_size=n))))
    return cats


@settings(max_examples=150, deadline=None)
@given(m_valued_pairs())
# values in the lower half of TWO_LUK's upper block, where & gives the
# block's start (3/4 & 3/4 = 1/2): the last case of hom_power's proof
@example([
    two_point(TWO_LUK, F(3, 4), F(1, 2)),
    closed_category(
        TWO_LUK,
        "b",
        [[ONE, F(3, 4), F(1, 2)], [F(3, 4), ONE, F(3, 4)], [F(1, 2), F(3, 4), ONE]],
    ),
])
def test_hom_power_of_m_valued_categories_is_a_category(pair):
    """The paper's first theorem at finite scale: with values in M the
    power object exists, so [A, B] is a category (the proof is in
    hom_power's docstring).  Outside M it need not be (the next test)."""
    a, b = pair
    assert m_valued(a) and m_valued(b)
    assert validate_qcat(hom_power(a, b)).passed


def test_hom_power_outside_m_need_not_be_a_category():
    """The control of the test above: a 4-point full subcategory of the
    final lift L of the (3/4, 3/4, 1/2) witness (see the CLI test on its
    [A, L]) has 3/4, outside Lukasiewicz's M, and [A, B] is no category."""
    a = two_point(LUK, F(1, 2), F(1, 2))
    q = [F(i, 4) for i in range(5)]
    b = QCat(LUK, ("w", "x", "y", "z"), [
        [q[4], q[3], q[2], q[1]],
        [q[3], q[4], q[2], q[2]],
        [q[2], q[2], q[4], q[3]],
        [q[1], q[2], q[3], q[4]],
    ])
    assert validate_qcat(b).passed
    assert m_valued(a) and not m_valued(b)
    assert not validate_qcat(hom_power(a, b)).passed


@st.composite
def matrix_pairs(draw):
    """A norm, the rows of A and B (categories or arbitrary matrices,
    diagonals below 1 included, each over its own value pool) and B's
    labels in a drawn order."""
    norm = draw(st.sampled_from(sorted(BUILTIN_NORMS)))
    rows = []
    for n in (draw(st.integers(0, 3)), draw(st.integers(0, 4))):
        pool = draw(st.sampled_from(POOLS))
        row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
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
@example(  # |B| = 1: the constant map is the one functor
    ("godel", [[F((i + j) % 5, 4) for j in range(5)] for i in range(5)], [[ONE]], ["b"])
)
@example(  # B's points 0 and 2 are isomorphic, so functors come in pairs
    (
        "lukasiewicz",
        [[ONE, F(1, 2)], [F(1, 4), ONE]],
        [[ONE, F(1, 2), ONE], [F(1, 4), ONE, F(1, 4)], [ONE, F(1, 2), ONE]],
        ["b2", "b0", "b1"],
    )
)
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


@st.composite
def maps_between_grids(draw):
    """The rows of A and B and a map between their index sets.  One
    matrix takes eighths, the other twelfths with a third among them, so
    their denominators differ (unless A has no points); an entry may come
    as an int or a string for ``unit`` to coerce, and diagonals below 1
    and non-categories are drawn too."""

    def rows(n, d):
        entry = st.integers(0, d).map(lambda k: F(k, d))
        entry = st.one_of(entry, entry.map(str), st.sampled_from([0, 1]))
        row = st.lists(entry, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))

    na, nb = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    eighths = draw(st.booleans())
    a_rows, b_rows = rows(na, 8 if eighths else 12), rows(nb, 12 if eighths else 8)
    thirds = b_rows if eighths else a_rows
    if thirds:
        thirds[draw(st.integers(0, len(thirds) - 1))][0] = F(1, 3)
    mapping = draw(st.lists(st.integers(0, nb - 1), min_size=na, max_size=na))
    return a_rows, b_rows, mapping


@settings(max_examples=300, deadline=None)
@given(maps_between_grids())
@example(([[F(1, 2)]], [[F(1, 3)]], [0]))  # a diagonal above its image's
@example(([["1/8", 1], [0, "7/8"]], [[F(1, 3), "3/4"], [1, 0]], [1, 0]))
def test_functor_violation_matches_a_fraction_scan(case):
    """The integer scan finds the pair a scan of Fractions finds first in
    row-major order, or neither finds one."""
    a_rows, b_rows, mapping = case
    n = len(a_rows)
    first = next(
        (
            (f"a{i}", f"a{j}")
            for i in range(n)
            for j in range(n)
            if F(a_rows[i][j]) > F(b_rows[mapping[i]][mapping[j]])
        ),
        None,
    )
    a = QCat(LUK, tuple(f"a{i}" for i in range(n)), tuple(map(tuple, a_rows)))
    b = QCat(LUK, tuple(f"b{k}" for k in range(len(b_rows))), tuple(map(tuple, b_rows)))
    f = QFunctor(a, b, tuple(b.points[k] for k in mapping))
    assert functor_violation(f) == first


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

    def test_lifts_take_their_maps_from_any_iterable(self, chain3):
        """A generator of maps gives the result a list gives, refusals
        included."""
        sources = [({"u": "a", "v": "b"}, chain3), ({"u": "b", "v": "c"}, chain3)]
        lifted = initial_lift(LUK, ("u", "v"), iter(sources))
        assert lifted == initial_lift(LUK, ("u", "v"), sources)
        sinks = [(chain3, {"a": "x", "b": "y", "c": "z"})]
        assert final_lift(LUK, iter(sinks), "xyz") == final_lift(LUK, sinks, "xyz")
        with pytest.raises(ValueError, match="^sink map omits point 'c'$"):
            final_lift(LUK, iter([(chain3, {"a": "x", "b": "y"})]), "xyz")

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
            assert functor_violation(functor) is None


# The builtins (grid domain: godel, lukasiewicz; Fraction domain:
# product, remark4) and two Lukasiewicz sums on the grid domain.
BUILT_NORMS = {
    **{name: BUILTIN_NORMS[name]() for name in BUILTIN_NORMS},
    "luk_thirds": TNorm(
        (
            Block(F(0), F(1, 3), BlockKind.LUKASIEWICZ),
            Block(F(2, 3), F(1), BlockKind.LUKASIEWICZ),
        )
    ),
    "luk_upper_half": TNorm((Block(F(1, 2), F(1), BlockKind.LUKASIEWICZ),)),
}
L3 = IntervalSet.of([0, F(1, 2), 1])
VALUES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), ONE]
SHAPES = [
    lambda t: k_square(t, L3),
    lambda t: k_diagonal(t, L3),
    sqrt_band,
    lambda t: explicit(t, [(0, 0), (F(1, 2), F(1, 2)), (1, 1)]),
]


def built_outputs(t, a, b):
    """Every construction that builds its result unchecked, on a and b:
    the lifts, the products and hom objects, and the reflectors.  A
    reflector that raises (an irrational root, a set that is not
    suitable under t) contributes nothing."""
    yield final_lift(t, [(a, {p: p for p in a.points})], a.points)
    to_a = {p: p for p in a.points}
    to_b = {p: b.points[0] for p in a.points}
    yield initial_lift(t, a.points, [(to_a, a), (to_b, b)])
    yield initial_lift(t, ("u", "v"), [({"u": a.points[0], "v": a.points[-1]}, a)])
    yield product(a, b)
    yield tensor(a, b)
    yield hom_power(a, b)
    yield hom_tensor(a, b)
    yield por_coreflection(a)
    yield por_reflection(a)
    for shape in SHAPES:
        for kernel in (coreflect_c, reflect_r):
            try:
                yield kernel(shape(t), a)
            except RealcatError:
                pass


class TestBuiltOutputs:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(BUILT_NORMS)),
        st.lists(
            st.integers(1, 3).flatmap(
                lambda n: st.lists(
                    st.lists(
                        st.sampled_from(VALUES),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
            min_size=2,
            max_size=2,
        ),
    )
    def test_unchecked_outputs_equal_checked_rebuilds(self, name, seeds):
        """Each output the constructions build without QCat's checks is
        the category QCat builds from the same points and matrix: equal,
        with the same hash and repr (so every entry is a Fraction), a
        tuple-of-tuples matrix, and an encoding equal to encode's.  The
        checked rebuild keeps the encoding it read the entries with."""
        t = BUILT_NORMS[name]
        a, b = (
            final_lift(t, [(QCat(t, pts, m), {p: p for p in pts})], pts)
            for m in seeds
            for pts in [tuple(f"p{i}" for i in range(len(m)))]
        )
        for out in built_outputs(t, a, b):
            rebuilt = QCat(t, out.points, out.matrix)
            assert out == rebuilt and hash(out) == hash(rebuilt)
            assert repr(out) == repr(rebuilt)
            assert type(out.matrix) is tuple
            assert all(type(row) is tuple for row in out.matrix)
            assert all(type(v) is F for row in out.matrix for v in row)
            assert "_encoded" in rebuilt.__dict__
            assert rebuilt._encoded == encode(out.matrix) == out._encoded


class TestCheckedEntries:
    """QCat checks outside entries in one pass; whatever is not a
    Fraction in [0, 1] takes values.unit's path, which coerces it or
    raises.  A float is refused, as it is no exact rational."""

    @pytest.mark.parametrize(
        "entry, value",
        [
            (1, F(1)),
            (0, F(0)),
            (True, F(1)),
            ("1/2", F(1, 2)),
            (" 3/4 ", F(3, 4)),
        ],
    )
    def test_other_types_are_coerced_to_fractions(self, entry, value):
        c = QCat(LUK, ("a", "b"), ((1, entry), (F(0), 1)))
        assert c.matrix == ((ONE, value), (ZERO, ONE))
        assert all(type(v) is F for row in c.matrix for v in row)
        assert repr(c) == repr(QCat(LUK, ("a", "b"), ((ONE, value), (ZERO, ONE))))
        assert c._encoded == encode(c.matrix)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (F(3, 2), "value 3/2 outside [0, 1]"),
            (F(-1, 2), "value -1/2 outside [0, 1]"),
            (F(-1), "value -1 outside [0, 1]"),
            (2, "value 2 outside [0, 1]"),
            (-1, "value -1 outside [0, 1]"),
            ("5/4", "value 5/4 outside [0, 1]"),
            ("-0.25", "value -1/4 outside [0, 1]"),
            (1.5, "value 1.5 is a float, not an exact rational"),
            (0.5, "value 0.5 is a float, not an exact rational"),
            (0.1, "value 0.1 is a float, not an exact rational"),
            ("x", "Invalid literal for Fraction: 'x'"),
        ],
    )
    def test_bad_entries_raise_units_error(self, entry, message):
        with pytest.raises(ValueError) as err:
            QCat(LUK, ("a", "b"), ((ONE, F(1, 2)), (entry, ONE)))
        assert str(err.value) == message

    def test_the_first_bad_entry_in_row_major_order_is_named(self):
        matrix = (
            (ONE, F(1, 2), F(5, 4)),
            (F(0), ONE, F(-1, 3)),
            (F(7, 3), F(0), ONE),
        )
        with pytest.raises(ValueError, match=r"^value 5/4 outside \[0, 1\]$"):
            QCat(LUK, ("a", "b", "c"), matrix)

    def test_lists_become_tuples(self):
        c = QCat(LUK, ("a", "b"), [[ONE, F(1, 2)], [F(0), ONE]])
        assert c.matrix == ((ONE, F(1, 2)), (ZERO, ONE))
        assert type(c.matrix) is tuple and all(type(r) is tuple for r in c.matrix)
        assert c._encoded == encode(c.matrix)

    def test_lifts_refuse_a_repeated_or_unhashable_carrier_point(self, chain3):
        source = ({"u": "a"}, chain3)
        with pytest.raises(ValueError, match="^duplicate points$"):
            initial_lift(LUK, ("u", "u"), [source])
        with pytest.raises(ValueError, match="^duplicate points$"):
            initial_lift(LUK, ("u", "u"), [])
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            initial_lift(LUK, (["u"],), [])
        sink = (chain3, {"a": "x", "b": "x", "c": "y"})
        with pytest.raises(ValueError, match="^duplicate points$"):
            final_lift(LUK, [sink], ("x", "y", "x"))
        with pytest.raises(ValueError, match="^duplicate points$"):
            final_lift(LUK, [], ("x", "x"))
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            final_lift(LUK, [], (["x"],))

    def test_lifts_refuse_a_map_that_omits_or_escapes_a_point(self, chain3):
        """Each refusal is one sentence that names the point."""
        cases = [
            (
                lambda: final_lift(
                    LUK, [(chain3, {"a": "x", "b": "y", "c": "z"})], ("x", "y")
                ),
                "sink map sends 'c' to 'z', outside the carrier",
            ),
            (
                lambda: final_lift(LUK, [(chain3, {"a": "x", "c": "y"})], ("x", "y")),
                "sink map omits point 'b'",
            ),
            (
                lambda: initial_lift(LUK, ("u", "v"), [({"u": "a"}, chain3)]),
                "source map omits point 'v'",
            ),
            (
                lambda: initial_lift(LUK, ("u", "v"), [({"u": "a", "v": "q"}, chain3)]),
                "'q' is not a point",
            ),
            (
                lambda: final_lift(LUK, [(chain3, ["x", "y", "z"])], ("x", "y", "z")),
                "sink map 0 is a list, not a mapping",
            ),
            (  # an unhashable image is no carrier point
                lambda: final_lift(
                    LUK, [(chain3, {"a": ["x"], "b": "y", "c": "y"})], ("x", "y")
                ),
                "sink map sends 'a' to ['x'], outside the carrier",
            ),
            (
                lambda: initial_lift(LUK, ("u", "v"), [({"u": ["a"], "v": "b"}, chain3)]),
                "['a'] is not a point",
            ),
            (  # each map is checked a point at a time, in order
                lambda: initial_lift(LUK, ("u", "v"), [({"u": "q"}, chain3)]),
                "'q' is not a point",
            ),
            (
                lambda: initial_lift(
                    LUK, ("u", "v"), [({"u": "a", "v": "b"}, chain3), (["a"], chain3)]
                ),
                "source map 1 is a list, not a mapping",
            ),
            (  # the maps are checked one at a time, in order
                lambda: initial_lift(
                    LUK, ("u", "v"), [({"u": "a"}, chain3), ([("u", "a")], chain3)]
                ),
                "source map omits point 'v'",
            ),
        ]
        for lift, message in cases:
            with pytest.raises(ValueError) as err:
                lift()
            assert str(err.value) == message
