"""Finite real-enriched categories and their constructions.

A category is a finite point list with an exact rational structure
matrix r satisfying r(x,x) = 1 and r(y,z) & r(x,y) <= r(x,z) over an
ambient t-norm.  Points may be strings or tuples (products and hom
objects build tuple-shaped points); all constructions are pure and
return new immutable values, with point orders fixed lexicographically
or row-major so reports are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, wraps
from itertools import chain
from typing import Callable, Sequence

from .errors import DomainError, SizeLimitExceeded
from .tnorm import (
    CheckResult, Encoded, GridDomain, TNorm, encode, encode_unit, kernel_domain
)
from .values import ONE, ZERO, unit

Point = object  # str | tuple, hashable

DEFAULT_MAP_CAP = 10**6


@dataclass(frozen=True)
class QCat:
    """Finite real-enriched category: points + structure matrix + norm."""

    tnorm: TNorm
    points: tuple
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.points)
        _require_distinct(self.points)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix shape does not match point list")
        # One pass reads, checks and encodes the entries when they are
        # Fractions in [0, 1], and keeps the encoding for the kernels;
        # anything else goes through unit, which coerces or raises.
        matrix = tuple(map(tuple, self.matrix))
        e = encode_unit(matrix)
        if e is None:
            matrix = tuple(tuple(unit(v) for v in row) for row in matrix)
        else:
            self.__dict__["_encoded"] = e
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _positions(self) -> dict:
        # Built on first lookup and kept out of the fields, so equality,
        # hashing and categories that are never queried pay nothing.
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _built(self) -> dict:
        # product, hom_power and hom_tensor with this category as first
        # argument (see _kept_on_first); kept out of the fields like
        # _positions, so equality and hashing do not change.
        return {}

    @cached_property
    def _encoded(self) -> Encoded:
        # The matrix with the lcm D of its denominators and its entries'
        # numerators over D, read once for every kernel call on this
        # category (see tnorm.kernel_domain); kept out of the fields like
        # _positions.  __post_init__ keeps the one it checked Fraction
        # entries with, so this runs only for coerced entries and for
        # what _built_qcat made.
        return encode(self.matrix)

    def index(self, p) -> int:
        """Position of p in the point list; ValueError if p is no point."""
        try:
            return self._positions[p]
        except (KeyError, TypeError):
            raise ValueError(f"{p!r} is not a point") from None

    def r(self, p, q) -> Fraction:
        return self.matrix[self.index(p)][self.index(q)]

    def relabel(self, labels: Sequence) -> "QCat":
        """The same category on new labels, distinct and one per point;
        the matrix is shared, not read again."""
        labels = tuple(labels)
        if len(labels) != len(self.points):
            raise ValueError("matrix shape does not match point list")
        _require_distinct(labels)
        return _built_qcat(self.tnorm, labels, self.matrix)

    def __len__(self):
        return len(self.points)


def _require_distinct(points: tuple) -> None:
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")


def _built_qcat(t: TNorm, points: tuple, matrix: tuple) -> QCat:
    """A category the constructions below computed themselves, made
    without ``QCat.__post_init__``'s checks.

    Safe because nothing in it comes from outside unchecked: the points
    are a checked category's points, pairs or image tuples of them, or
    a carrier or labels just checked to be distinct (the lifts,
    ``QCat.relabel``); the matrix is a category's own, or an n x n tuple
    of tuples whose entries are mins, joins and & (``TNorm._and``) of
    checked entries, ``sqrt_with`` results, or Fraction(k, d) with
    0 <= k <= d from ``GridDomain.leave``, so each is a Fraction in
    [0, 1] already.  The encoding stays lazy (``_encoded``): many
    outputs never reach a kernel."""
    c = object.__new__(QCat)
    c.__dict__.update(tnorm=t, points=points, matrix=matrix)
    return c


def two_point(t: TNorm, a, b, points=("0", "1")) -> QCat:
    """The two-point category with r(0,1) = a and r(1,0) = b.  Every
    pair (a, b) is valid: a & b <= 1 always."""
    a, b = unit(a), unit(b)
    return QCat(t, tuple(points), ((ONE, a), (b, ONE)))


def validate_qcat(c: QCat) -> CheckResult:
    """Check reflexivity and the composition inequality exactly.  A
    failure reports the first violating triple in row-major order and
    both sides.  The scan is :func:`_relax`'s, once per category: c
    keeps the result in its ``__dict__``, out of the fields like
    ``_encoded`` (a cached_property's first read takes a lock on
    Python 3.11)."""
    res = c.__dict__.get("_validated")
    if res is None:
        res = c.__dict__["_validated"] = _category_check(c)
    return res


def _category_check(c: QCat) -> CheckResult:
    """``validate_qcat``'s scan: the diagonal, then :func:`_relax` in
    row-major order, stopping at the first entry it would raise."""
    e, p = c._encoded, c.points
    for i in range(len(p)):
        if e.numerators[i][i] != e.d:  # r(x,x) = d/d = 1
            return CheckResult(
                False,
                f"r({p[i]},{p[i]}) = {c.matrix[i][i]} != 1",
                witness=(p[i],),
            )
    dom = kernel_domain(c.tnorm, e.d)
    hit = _relax(dom, dom.enter(e), check=True)
    if hit is None:
        return CheckResult(True, "valid")
    i, k, j, lhs = hit
    return CheckResult(
        False,
        f"r({p[k]},{p[j]}) & r({p[i]},{p[k]}) = {dom.value(lhs)} > "
        f"r({p[i]},{p[j]}) = {c.matrix[i][j]}",
        witness=(p[i], p[k], p[j]),
    )


def require_category(c: QCat, where: str = "") -> QCat:
    """c itself when it is a category (``validate_qcat``); otherwise
    DomainError "not a category: ..." after the prefix where."""
    res = validate_qcat(c)
    if not res.passed:
        raise DomainError(f"{where}not a category: {res.message}")
    return c


@dataclass(frozen=True)
class QFunctor:
    """A structure-preserving map between categories."""

    dom: QCat
    cod: QCat
    mapping: tuple  # image of dom.points[i] at position i

    def __post_init__(self):
        if len(self.mapping) != len(self.dom.points):
            raise ValueError("mapping length does not match domain")
        positions = self.cod._positions
        for img in self.mapping:
            try:
                known = img in positions
            except TypeError:  # unhashable, so no point
                known = False
            if not known:
                raise ValueError(f"image {img!r} not a codomain point")

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


def _common_numerators(*cats: QCat) -> tuple:
    """The lcm d of the categories' denominators (1 for none) and the
    kept numerators (``QCat._encoded``) of each matrix over d, so entries
    of different categories compare as ints."""
    d, out = 1, []
    for c in cats:
        d = math.lcm(d, c._encoded.d)
    for c in cats:
        ks, m = c._encoded.numerators, d // c._encoded.d
        out.append(ks if m == 1 else [[k * m for k in r] for r in ks])
    return d, *out


def _least(t: TNorm, points: tuple, top: int, terms: list) -> QCat:
    """The pointwise meet that ``initial_lift``, ``product`` and both hom
    objects take, as a category on points.  A term (nums, fracs, rows,
    cols, bound) offers at (p, q) the entry fracs[rows[p]][cols[q]] of a
    matrix, when its numerator over top, nums[rows[p]][cols[q]], lies
    below bound (top + 1 admits all); the entry at (p, q) is the least
    entry offered there, ONE when none is.

    Exact, with no Fraction built: as k -> k/top is strictly increasing,
    the least numerator offered names the least entry, and that entry's
    own Fraction (``names``) is the meet; top stands for no offer."""
    n = len(points)
    names, least = {top: ONE}, [top] * (n * n)
    for nums, fracs, rows, cols, bound in terms:
        names.update(zip(chain.from_iterable(nums), chain.from_iterable(fracs)))
        pulled = [r[j] for r in map(nums.__getitem__, rows) for j in cols]
        least = [v if v < u and v < bound else u for u, v in zip(least, pulled)]
    return _built_qcat(t, points, tuple(zip(*[map(names.__getitem__, least)] * n)))


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
    domain point, so it passes ``QFunctor.__post_init__``'s checks by
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
    category while the entry lives."""

    @wraps(build)
    def kept(a: QCat, b: QCat, *args, **kwargs) -> QCat:
        key = (build, id(b), args, tuple(kwargs.items()))
        hit = a._built.get(key)
        if hit is None or hit[0] is not b:
            hit = a._built[key] = (b, build(a, b, *args, **kwargs))
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
    :func:`_function_space`); r(x,y) = 0 bounds nothing."""

    def pairs(ea, top):
        return [(x, y, r) for x, row in enumerate(ea) for y, r in enumerate(row) if r]

    return _function_space(a, b, max_maps, pairs)


def initial_lift(
    t: TNorm,
    carrier: Sequence,
    sources: Sequence[tuple[Mapping, QCat]],
) -> QCat:
    """Initial structure on the carrier for maps f_i into (X_i, r_i):
    d(x,y) = meet_i r_i(f_i x, f_i y), 1 without sources: one
    :func:`_least` term per source, indexed by the images.  A repeated
    carrier point, then, map by map (:func:`_map_indices`), a map that
    is no Mapping or the first carrier point it omits or sends outside
    its category is a ValueError, raised before any meet is taken."""
    carrier = tuple(carrier)
    _require_distinct(carrier)
    pulled = [
        (cod, _map_indices("source", i, f, carrier, cod._positions))
        for i, (f, cod) in enumerate(sources)
    ]
    top, *nums = _common_numerators(*[cod for cod, _ in pulled])
    terms = [(e, cod.matrix, ix, ix, top + 1) for e, (cod, ix) in zip(nums, pulled)]
    return _least(t, carrier, top, terms)


# what each lift calls an image outside its target
_OUTSIDE = {
    "source": "{y!r} is not a point",
    "sink": "sink map sends {x!r} to {y!r}, outside the carrier",
}


def _map_indices(role: str, i: int, f: Mapping, dom: tuple, positions: dict) -> list:
    """positions[f(x)] for each point x of dom, f being the map of the
    i-th source or sink (role).  A ValueError when f is no Mapping, or
    naming the first point, in dom's order, that f omits or sends to no
    key of positions; an unhashable image is no key."""
    if not isinstance(f, Mapping):
        raise ValueError(f"{role} map {i} is a {type(f).__name__}, not a mapping")
    out = []
    for x in dom:
        if x not in f:
            raise ValueError(f"{role} map omits point {x!r}")
        try:
            out.append(positions[f[x]])
        except (KeyError, TypeError):
            raise ValueError(_OUTSIDE[role].format(x=x, y=f[x])) from None
    return out


def path_closure(dom, m: list[list]) -> None:
    """Close m in place under m(i,j) >= m(k,j) & m(i,k) for i != j, with
    & unchecked on dom's values (see ``tnorm.kernel_domain``): one exact
    pass of :func:`_relax`, which never writes the diagonal."""
    _relax(dom, m, check=False)


def _relax(dom, m: list[list], check: bool) -> tuple | None:
    """m(i,j) >= m(k,j) & m(i,k) over distinct i, j and k, with &
    unchecked on dom's values.  ``path_closure`` visits the pairs (i, k)
    with k outer and writes each raise; ``validate_qcat`` (check) visits
    them row-major and returns the first raise unwritten, as
    (i, k, j, m(k,j) & m(i,k)), or None.

    One pass with k outer is the exact closure over ([0,1], join, &):
    as x & y <= min(x, y), a cycle never raises a path and the best path
    between two points is simple (Lehmann 1977).  As a & v <= min(a, v)
    for v = m(i,k), only an a = m(k,j) above m(i,j) can raise it, and
    none does when v = 0 or j = k.  On a grid, a & v is v for a >= hi,
    a for a < lo and else max(a + v - hi, lo), with (lo, hi) =
    ``GridDomain.piece(v)`` read at the first such a (exact by
    ``GridDomain.op``); the Fraction domain (product blocks) calls its
    &.  A check may skip k = i and j = i, as the diagonal is 1 by then:
    r(i,i) & v = v, and no entry lies above r(i,i) = 1."""
    op = None if isinstance(dom, GridDomain) else dom.op
    for i, k in _pairs(len(m), check):
        row_i = m[i]
        v = row_i[k]
        if not v:
            continue
        hi = None
        for j, a in enumerate(m[k]):
            if a > row_i[j] and j != i and j != k:
                if hi is None and not op:
                    lo, hi = dom.piece(v)
                    s = v - hi
                if op:
                    a = op(a, v)
                elif a >= hi:
                    a = v
                elif a >= lo:
                    a += s
                    if a < lo:
                        a = lo
                if a > row_i[j]:
                    if check:
                        return i, k, j, a
                    row_i[j] = a
    return None


@cache
def _pairs(n: int, row_major: bool) -> tuple:
    """:func:`_relax`'s orders: the pairs (i, k) of distinct indices below
    n, row-major or with k outer, kept per n: built in each call, they
    cost more than the scan's two nested loops over range(n) would."""
    if row_major:
        return tuple((i, k) for i in range(n) for k in range(n) if i != k)
    return tuple((i, k) for k in range(n) for i in range(n) if i != k)


def final_lift(
    t: TNorm,
    sinks: Sequence[tuple[QCat, Mapping]],
    carrier: Sequence,
) -> QCat:
    """Final structure on the carrier for maps f_i from (X_i, r_i).

    The least transitive structure above the pushed-forward values:
    seed with joins of r_i over preimage pairs (1 on the diagonal, 0
    elsewhere), then take the exact path closure of the seed.  A
    repeated carrier point, then, map by map (:func:`_map_indices`), a
    map that is no Mapping or the first point of its category it omits
    or sends outside the carrier is a ValueError, raised before the seed
    is built.
    """
    carrier = tuple(carrier)
    _require_distinct(carrier)
    idx = {p: i for i, p in enumerate(carrier)}
    pushed = [
        (cat, _map_indices("sink", i, f, cat.points, idx))
        for i, (cat, f) in enumerate(sinks)
    ]
    n = len(carrier)
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for cat, images in pushed:
        for i, row in zip(images, cat.matrix):
            for j, v in zip(images, row):
                if v > m[i][j]:
                    m[i][j] = v
    e = encode(m)
    dom = kernel_domain(t, e.d)
    closed = dom.enter(e)
    path_closure(dom, closed)
    return _built_qcat(t, carrier, dom.leave(closed))


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
