"""Functors between categories and the constructions built on them.

The search for all functors A -> B, the product and tensor of two
categories, the hom objects [A, B] for each, and the transposes of the
tensor.  The categories, their validation and the meet kernel
(:func:`realcat.qcat._least`) come from :mod:`realcat.qcat`.
"""

from __future__ import annotations

from functools import wraps
from itertools import chain
from typing import Callable

from .errors import DEFAULT_MAP_CAP, SizeLimitExceeded
from .qcat import QCat, _built_qcat, _common_numerators, _least
from .tnorm import m_set
from .values import Frozen


class QFunctor(Frozen):
    """A structure-preserving map between categories; mapping holds the
    image of dom.points[i] at position i."""

    _fields = ("dom", "cod", "mapping")

    def __init__(self, dom: QCat, cod: QCat, mapping: tuple):
        if len(mapping) != len(dom.points):
            raise ValueError("mapping length does not match domain")
        positions = cod._positions
        for img in mapping:
            try:
                known = img in positions
            except TypeError:  # unhashable, so no point
                known = False
            if not known:
                raise ValueError(f"image {img!r} not a codomain point")
        self.__dict__.update(dom=dom, cod=cod, mapping=mapping)

    def __call__(self, p):
        return self.mapping[self.dom.index(p)]


def functor_violation(f: QFunctor) -> tuple | None:
    """The first pair (x, y) of domain points in row-major order with
    r(x, y) > s(fx, fy), or None when f is a functor (entries compare as
    ints, see :func:`_common_numerators`)."""
    _, dom, cod = _common_numerators(f.dom, f.cod)
    index = [f.cod.index(img) for img in f.mapping]
    for i, row in enumerate(dom):
        image_row = cod[index[i]]
        for j, fj in enumerate(index):
            if row[j] > image_row[fj]:
                return f.dom.points[i], f.dom.points[j]
    return None


def _functor_leaves(a: QCat, b: QCat, max_maps: int):
    """The functors A -> B as leaves of a search, in lexicographic order
    of their image-index tables: per leaf the indices of the images of
    every point but the last, a tuple, and the last point's images as
    1-tuples, once as indices and once as B's points.

    The images left to a point are a bitmask over B's indices (entries
    compare as ints, see :func:`_common_numerators`).  Points are
    assigned in order; entering x, the search ANDs the mask of
    r(x,x) <= s(fx,fx) with, per point y assigned before x, the mask of
    r(x,y) <= s(fx,fy) and r(y,x) <= s(fy,fx), built once per distinct
    (r(x,y), r(y,x)).  An empty set backtracks at once, and at the last
    point the whole set is one leaf.  Sets are read low bit first and
    earlier points change slowest, so the leaves come out in
    lexicographic order.  A stack replaces recursion, so |A| is not
    bounded by the recursion limit (|B| = 1 admits any |A|).  The map
    cap is checked before the first leaf."""
    na, nb = len(a.points), len(b.points)
    if nb**na > max_maps:
        raise SizeLimitExceeded(na, nb, max_maps)
    if na == 0:
        yield (), ([()], [()])
        return
    _, dom, cod = _common_numerators(a, b)
    # B's loops s(fx,fx) and cells (s(fx,fy), s(fy,fx)), the last first, so
    # that "0"/"1" flags read off them as a binary numeral make a mask with
    # bit fx, or fy * nb + fx; pairs need the cells only when |A| > 1, and
    # then nb * nb <= max_maps
    loops = [r[k] for k, r in enumerate(cod)][::-1]
    cells = [*chain.from_iterable(map(zip, zip(*cod), cod))][::-1] if na > 1 else []
    row = (1 << nb) - 1
    held: dict = {}  # r(x,x) -> x's mask; (r(x,y), r(y,x)) -> per fy, a mask
    diag, allowed = [], []  # allowed[x][y]: held[r(x,y), r(y,x)], for y < x
    for x, r in enumerate(dom):
        if (u := r[x]) not in held:
            held[u] = int("0" + "".join(["1" if u <= s else "0" for s in loops]), 2)
        diag.append(held[u])
        allowed.append([])
        for y in range(x):
            if (key := (r[y], dom[y][x])) not in held:
                u, v = key
                flags = ["1" if u <= s and v <= t else "0" for s, t in cells]
                flat = int("0" + "".join(flags), 2)
                held[key] = [flat >> fy * nb & row for fy in range(nb)]
            allowed[x].append(held[key])
    labels, tails = b.points, {}  # a last point's set -> its images as 1-tuples
    image, left = [], []  # per point before x: its image, its untried images
    while True:
        x = len(image)
        m = diag[x]
        for masks, fy in zip(allowed[x], image):
            m &= masks[fy]
        if m and x < na - 1:
            image.append(0)
            left.append(m)
        elif m:
            if m not in tails:  # bin(m)[:1:-1]: m's bits, low bit first
                ones = [(k,) for k, c in enumerate(bin(m)[:1:-1]) if c == "1"]
                tails[m] = ones, [(labels[k],) for k, in ones]
            yield tuple(image), tails[m]
        while left and not left[-1]:  # backtrack past points with no image left
            left.pop()
            image.pop()
        if not left:
            return
        low = left[-1] & -left[-1]  # the next untried image of the last point
        left[-1] ^= low
        image[-1] = low.bit_length() - 1


def _function_space(a: QCat, b: QCat, max_maps: int, pairs: Callable) -> QCat:
    """A hom object on the functors A -> B, as image tuples in the order
    of :func:`_functor_leaves`: :func:`_least` with one term per
    (x, y, bound) in pairs(ea, top), ea being A's numerators over top,
    read at x's images (rows) and y's images (columns) in B's."""
    _require_same_norm(a, b)
    labels, tables, images = b.points, [], []
    for pre, (ones, named) in _functor_leaves(a, b, max_maps):
        tables += map(pre.__add__, ones)
        images += map(tuple([labels[k] for k in pre]).__add__, named)
    at = [*zip(*tables)] or [()] * len(a.points)  # at[x]: x's image per functor
    top, ea, eb = _common_numerators(a, b)
    terms = [(eb, b.matrix, at[x], at[y], bound) for x, y, bound in pairs(ea, top)]
    return _least(a.tnorm, tuple(images), top, terms)


def enumerate_functors(
    a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP
) -> list[QFunctor]:
    """All functors A -> B in lexicographic order of the image table
    (codomain point index order), found by the search over bitmask
    domains of :func:`_functor_leaves`: a partial map that breaks
    r(x,y) <= s(fx,fy) is never extended.  Raises SizeLimitExceeded when
    |B|^|A| exceeds max_maps: the cap bounds the map space, not the work
    the search does, so it refuses the same inputs as a full scan would.

    Each functor's image tuple is built from ``b.points`` one image per
    domain point, so it passes ``QFunctor.__init__``'s checks by
    construction and is made without them, its fields written straight
    into its ``__dict__``; no index table is built."""
    labels, new, found = b.points, object.__new__, []
    for pre, (_, named) in _functor_leaves(a, b, max_maps):
        head = tuple([labels[k] for k in pre])
        for tail in named:
            f = new(QFunctor)
            fields = f.__dict__
            fields["dom"] = a
            fields["cod"] = b
            fields["mapping"] = head + tail
            found.append(f)
    return found


def _kept_on_first(build: Callable) -> Callable:
    """Memoize build(a, b, ...) on a, keyed by the identity of b and the
    remaining arguments, so a hit is O(1) and hashes no matrix.  The
    entry holds b, which keeps b's identity from passing to another
    category while the entry lives.  The memo sits in a's ``__dict__``,
    out of the fields; setdefault would build a dict on every hit."""

    @wraps(build)
    def kept(a: QCat, b: QCat, *args, **kwargs) -> QCat:
        key = (build, id(b), args, tuple(kwargs.items()))
        memo = a.__dict__.get("_built")
        if memo is None:
            memo = a.__dict__["_built"] = {}
        hit = memo.get(key)
        if hit is None or hit[0] is not b:
            hit = memo[key] = (b, build(a, b, *args, **kwargs))
        return hit[1]

    return kept


def _pair_points(a: QCat, b: QCat) -> tuple:
    return tuple((p, q) for p in a.points for q in b.points)


@_kept_on_first
def product(a: QCat, b: QCat) -> QCat:
    """Cartesian product: the initial lift of the two projections, so
    the structure is the pointwise meet min(r(x,x'), s(y,y')): one
    :func:`_least` term per projection, indexed by the pairs' components."""
    _require_same_norm(a, b)
    top, ea, eb = _common_numerators(a, b)
    nb = len(b.points)
    left = [i for i in range(len(a.points)) for _ in range(nb)]
    right = [*range(nb)] * len(a.points)
    terms = [(ea, a.matrix, left, left, top + 1), (eb, b.matrix, right, right, top + 1)]
    return _least(a.tnorm, _pair_points(a, b), top, terms)


def tensor(a: QCat, b: QCat) -> QCat:
    """Tensor product: structure is the pointwise &."""
    _require_same_norm(a, b)
    op, ra, rb = a.tnorm._and, a.matrix, b.matrix
    cells = [(i, j) for i in range(len(a.points)) for j in range(len(b.points))]
    matrix = tuple(
        tuple(op(ra[i1][i2], rb[j1][j2]) for (i2, j2) in cells)
        for (i1, j1) in cells
    )
    return _built_qcat(a.tnorm, _pair_points(a, b), matrix)


def _require_same_norm(a: QCat, b: QCat):
    if a.tnorm != b.tnorm:
        raise ValueError("categories live over different t-norms")


@_kept_on_first
def hom_tensor(a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP) -> QCat:
    """Function space for the tensor: the initial lift of the evaluations
    at the points of A on the functors A -> B (as image tuples), so
    d(f,g) = meet_x s(f x, g x), 1 when A is empty: one term per pair
    (x, x), always counted (see :func:`_function_space`)."""
    return _function_space(
        a, b, max_maps, lambda ea, top: [(x, x, top + 1) for x in range(len(ea))]
    )


@_kept_on_first
def hom_power(a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP) -> QCat:
    """Power-object candidate for the cartesian product: points are the
    functors A -> B, structure d(f,g) = meet over x,y of
    r(x,y) -> s(f x, g y) with -> the residual of the meet.  As
    u -> v is 1 for u <= v and v otherwise, d(f,g) is the least
    s(f x, g y) over the pairs where r(x,y) is larger, and 1 if none:
    one term per pair (x, y) with bound r(x,y) > 0 (see
    :func:`_function_space`); r(x,y) = 0 bounds nothing.

    [A, B] is a category when A and B are M-valued (:func:`m_valued`)
    categories, and need not be otherwise.  d(f,f) = 1 as f is a
    functor.  For transitivity take u = d(f,g), v = d(g,h) and a pair
    (x, y) with r = r(x,y) > w = s(f x, h y) (the other pairs bound
    nothing), and show u & v <= w.
    As r(x,x) = 1, u <= a = s(f x, g x), and likewise v <= b =
    s(g y, h y); by B's composition law s(g x, h y) & a <= w and
    b & s(f x, g y) <= w.  If s(g x, h y) < r, then v <= s(g x, h y)
    and u & v <= a & s(g x, h y) <= w; if s(f x, g y) < r, then
    u <= s(f x, g y) and u & v <= b & s(f x, g y) <= w.  Otherwise both
    are at least r, so a & r <= w and b & r <= w.  On M, x & y is
    min(x, y) or the start of a Lukasiewicz block: M meets no product
    block's interior, and a Lukasiewicz block [p, q] only in
    [p, (p+q)/2], where x & y = p.  If a <= w or b <= w, then u & v <=
    min(u, v) <= w.  Otherwise a & r <= w < min(a, r), so a and r lie
    in the lower half of one Lukasiewicz block [p, q] above p, and
    a & r = p <= w; so do b and r, in the same block.  Then u & v <=
    a & b = p <= w."""

    def pairs(ea, top):
        return [(x, y, r) for x, row in enumerate(ea) for y, r in enumerate(row) if r]

    return _function_space(a, b, max_maps, pairs)


def m_valued(c: QCat) -> bool:
    """Whether every entry of c lies in M (``tnorm.m_set``)."""
    m = m_set(c.tnorm)
    return all(v in m for row in c.matrix for v in row)


def tensor_transpose(a: QCat, b: QCat, c: QCat, f: QFunctor) -> QFunctor:
    """Canonical transposition of f : A (x) B -> C to A -> [B, C] with
    the tensor hom: p maps to the partial functor q |-> f(p, q)."""
    hom_bc = hom_tensor(b, c)
    images = tuple(
        tuple(f((p, q)) for q in b.points) for p in a.points
    )
    return QFunctor(a, hom_bc, images)


def tensor_untranspose(a: QCat, b: QCat, c: QCat, g: QFunctor) -> QFunctor:
    """Inverse of :func:`tensor_transpose`."""
    ab = tensor(a, b)
    images = tuple(g(p)[b.index(q)] for (p, q) in ab.points)
    return QFunctor(ab, c, images)
