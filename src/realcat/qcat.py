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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import chain
from typing import Callable, Mapping, Sequence

from .errors import SizeLimitExceeded
from .tnorm import CheckResult, Encoded, TNorm, encode, encode_unit, kernel_domain
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


def singleton(t: TNorm, point="*") -> QCat:
    """The terminal category on one point."""
    return QCat(t, (point,), ((ONE,),))


def two_point(t: TNorm, a, b, points=("0", "1")) -> QCat:
    """The two-point category with r(0,1) = a and r(1,0) = b.  Every
    pair (a, b) is valid: a & b <= 1 always."""
    a, b = unit(a), unit(b)
    return QCat(t, tuple(points), ((ONE, a), (b, ONE)))


def validate_qcat(c: QCat) -> CheckResult:
    """Check reflexivity and the composition inequality exactly.  A
    failure reports the violating triple and both sides."""
    n = len(c.points)
    e = c._encoded
    for i in range(n):
        if e.numerators[i][i] != e.d:  # r(x,x) = d/d = 1
            return CheckResult(
                False,
                f"r({c.points[i]},{c.points[i]}) = {c.matrix[i][i]} != 1",
                witness=(c.points[i],),
            )
    dom = kernel_domain(c.tnorm, e.d)
    op, m = dom.op, dom.enter(e)
    for i in range(n):
        row_i = m[i]
        for j in range(n):
            r_ij, row_j = row_i[j], m[j]
            if not r_ij:  # 0 & anything = 0: nothing to violate
                continue
            for k in range(n):
                lhs = op(row_j[k], r_ij)
                if lhs > row_i[k]:
                    return CheckResult(
                        False,
                        f"r({c.points[j]},{c.points[k]}) & "
                        f"r({c.points[i]},{c.points[j]}) = {dom.value(lhs)} > "
                        f"r({c.points[i]},{c.points[k]}) = {c.matrix[i][k]}",
                        witness=(c.points[i], c.points[j], c.points[k]),
                    )
    return CheckResult(True, "valid")


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

    def compose_after(self, other: "QFunctor") -> "QFunctor":
        """self o other (other first)."""
        if other.cod.points != self.dom.points:
            raise ValueError("composition mismatch")
        return QFunctor(
            other.dom, self.cod, tuple(self(q) for q in other.mapping)
        )


def functor_violation(f: QFunctor) -> tuple | None:
    """The first pair (x, y) of domain points in row-major order with
    r(x, y) > s(fx, fy), or None when f is a functor (entries compare as
    ints, see :func:`_common_numerators`)."""
    dom, cod = _common_numerators(f.dom, f.cod)
    index = [f.cod.index(img) for img in f.mapping]
    for i, row in enumerate(dom):
        image_row = cod[index[i]]
        for j, fj in enumerate(index):
            if row[j] > image_row[fj]:
                return f.dom.points[i], f.dom.points[j]
    return None


def is_functor(f: QFunctor) -> bool:
    return functor_violation(f) is None


def _common_numerators(a: QCat, b: QCat) -> list:
    """The kept numerators (``QCat._encoded``) of a's and b's matrices,
    both over the lcm of their denominators, so entries compare as ints."""
    d = math.lcm(a._encoded.d, b._encoded.d)
    return [
        e.numerators if e.d == d else [[k * d // e.d for k in r] for r in e.numerators]
        for e in (a._encoded, b._encoded)
    ]


def _functor_tables(a: QCat, b: QCat, max_maps: int) -> tuple[list, list]:
    """The image-index tables and the image tuples of all functors
    A -> B, in lexicographic order of the tables.

    The images left to a point are a bitmask over B's indices (entries
    compare as ints, see :func:`_common_numerators`).  Points are
    assigned in order; entering x, the search ANDs the mask of
    r(x,x) <= s(fx,fx) with, per point y assigned before x, the mask of
    r(x,y) <= s(fx,fy) and r(y,x) <= s(fy,fx), built once per distinct
    (r(x,y), r(y,x)).  An empty set backtracks at once, and at the last
    point the whole set is emitted.  Sets are read low bit first and
    earlier points change slowest, so the tables come out in
    lexicographic order.  A stack replaces recursion, so |A| is not
    bounded by the recursion limit (|B| = 1 admits any |A|)."""
    na, nb = len(a.points), len(b.points)
    if nb**na > max_maps:
        raise SizeLimitExceeded(na, nb, max_maps)
    if na == 0:
        return [()], [()]
    dom, cod = _common_numerators(a, b)
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
    tables, images = [], []
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
            pre, (ones, named) = tuple(image), tails[m]
            tables += map(pre.__add__, ones)
            images += map(tuple([labels[k] for k in pre]).__add__, named)
        while left and not left[-1]:  # backtrack past points with no image left
            left.pop()
            image.pop()
        if not left:
            return tables, images
        low = left[-1] & -left[-1]  # the next untried image of the last point
        left[-1] ^= low
        image[-1] = low.bit_length() - 1


def enumerate_functors(
    a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP
) -> list[QFunctor]:
    """All functors A -> B in lexicographic order of the image table
    (codomain point index order), found by the search over bitmask
    domains of :func:`_functor_tables`: a partial map that breaks
    r(x,y) <= s(fx,fy) is never extended.  Raises SizeLimitExceeded when
    |B|^|A| exceeds max_maps: the cap bounds the map space, not the work
    the search does, so it refuses the same inputs as a full scan would."""
    return [_built_functor(a, b, m) for m in _functor_tables(a, b, max_maps)[1]]


def _built_functor(dom: QCat, cod: QCat, mapping: tuple) -> QFunctor:
    """A functor whose image tuple the search built from ``cod.points``,
    one image per domain point, made without ``QFunctor.__post_init__``'s
    checks, which it passes by construction."""
    f = object.__new__(QFunctor)
    f.__dict__.update(dom=dom, cod=cod, mapping=mapping)
    return f


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
    the structure is the pointwise meet."""
    _require_same_norm(a, b)
    points = _pair_points(a, b)
    projections = [
        ({pq: pq[0] for pq in points}, a),
        ({pq: pq[1] for pq in points}, b),
    ]
    return initial_lift(a.tnorm, points, projections)


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
    d(f,g) = meet_x s(f x, g x)."""
    _require_same_norm(a, b)
    points = tuple(_functor_tables(a, b, max_maps)[1])
    evaluations = [({f: f[i] for f in points}, b) for i in range(len(a.points))]
    return initial_lift(a.tnorm, points, evaluations)


@_kept_on_first
def hom_power(a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP) -> QCat:
    """Power-object candidate for the cartesian product: points are the
    functors A -> B, structure d(f,g) = meet over x,y of
    r(x,y) -> s(f x, g y) with -> the residual of the meet.  As
    u -> v is 1 for u <= v and v otherwise, d(f,g) is the least
    s(f x, g y) over the pairs where r(x,y) is larger, and 1 if none."""
    _require_same_norm(a, b)
    tables, images = _functor_tables(a, b, max_maps)
    n = len(a.points)
    pairs = [(i, j, a.matrix[i][j]) for i in range(n) for j in range(n)]
    s = b.matrix

    def distance(f, g):
        d = ONE
        for i, j, r in pairs:
            v = s[f[i]][g[j]]
            if r > v and v < d:
                d = v
        return d

    matrix = tuple(tuple(distance(f, g) for g in tables) for f in tables)
    return _built_qcat(a.tnorm, tuple(images), matrix)


def initial_lift(
    t: TNorm,
    carrier: Sequence,
    sources: Sequence[tuple[Mapping, QCat]],
) -> QCat:
    """Initial structure on the carrier for maps f_i into (X_i, r_i):
    d(x,y) = meet_i r_i(f_i x, f_i y)."""
    carrier = tuple(carrier)
    pulled = [(cod.matrix, [cod.index(f[x]) for x in carrier]) for f, cod in sources]
    n = len(carrier)
    matrix = tuple(
        tuple(
            min((m[ix[i]][ix[j]] for m, ix in pulled), default=ONE)
            for j in range(n)
        )
        for i in range(n)
    )
    _require_distinct(carrier)
    return _built_qcat(t, carrier, matrix)


def path_closure(op: Callable, m: list[list]) -> None:
    """Close m in place under m(i,j) >= m(k,j) & m(i,k) for i != j,
    with op as &: the entries are values of the domain op belongs to
    (see ``tnorm.kernel_domain``), and op runs unchecked.

    One Floyd-Warshall pass (k outer) is the exact closure over the
    quantale ([0,1], join, &): x & y <= min(x, y), so a cycle never
    raises a path and the best path between two points is simple
    (Lehmann 1977).  The diagonal is never written, so a matrix whose
    diagonal lies below 1 keeps it."""
    n = len(m)
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            row_i = m[i]
            via_k = row_i[k]
            if i == k or not via_k:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                via = op(row_k[j], via_k)
                if via > row_i[j]:
                    row_i[j] = via


def final_lift(
    t: TNorm,
    sinks: Sequence[tuple[QCat, Mapping]],
    carrier: Sequence,
) -> QCat:
    """Final structure on the carrier for maps f_i from (X_i, r_i).

    The least transitive structure above the pushed-forward values:
    seed with joins of r_i over preimage pairs (1 on the diagonal, 0
    elsewhere), then take the exact path closure of the seed.
    """
    carrier = tuple(carrier)
    idx = {p: i for i, p in enumerate(carrier)}
    n = len(carrier)
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for cat, f in sinks:
        images = [idx[f[p]] for p in cat.points]
        for i, row in zip(images, cat.matrix):
            for j, v in zip(images, row):
                if v > m[i][j]:
                    m[i][j] = v
    e = encode(m)
    dom = kernel_domain(t, e.d)
    closed = dom.enter(e)
    path_closure(dom.op, closed)
    _require_distinct(carrier)
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
