"""Finite real-enriched categories and their constructions.

A category is a finite point list with an exact rational structure
matrix r satisfying r(x,x) = 1 and r(y,z) & r(x,y) <= r(x,z) over an
ambient t-norm.  Points may be strings or tuples (products and hom
objects build tuple-shaped points); all constructions are pure and
return new immutable values, with point orders fixed lexicographically
or row-major so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import SizeLimitExceeded
from .tnorm import CheckResult, TNorm, tnorm_eval
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
        if len(set(self.points)) != n:
            raise ValueError("duplicate points")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix shape does not match point list")
        object.__setattr__(
            self,
            "matrix",
            tuple(tuple(unit(v) for v in row) for row in self.matrix),
        )

    @cached_property
    def _positions(self) -> dict:
        # Built on first lookup and kept out of the fields, so equality,
        # hashing and categories that are never queried pay nothing.
        return {p: i for i, p in enumerate(self.points)}

    def index(self, p) -> int:
        """Position of p in the point list; ValueError if p is no point."""
        try:
            return self._positions[p]
        except (KeyError, TypeError):
            raise ValueError(f"{p!r} is not a point") from None

    def r(self, p, q) -> Fraction:
        return self.matrix[self.index(p)][self.index(q)]

    def relabel(self, labels: Sequence) -> "QCat":
        return QCat(self.tnorm, tuple(labels), self.matrix)

    def __len__(self):
        return len(self.points)


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
    for i in range(n):
        if c.matrix[i][i] != ONE:
            return CheckResult(
                False,
                f"r({c.points[i]},{c.points[i]}) = {c.matrix[i][i]} != 1",
                witness=(c.points[i],),
            )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = tnorm_eval(c.tnorm, c.matrix[j][k], c.matrix[i][j])
                if lhs > c.matrix[i][k]:
                    return CheckResult(
                        False,
                        f"r({c.points[j]},{c.points[k]}) & "
                        f"r({c.points[i]},{c.points[j]}) = {lhs} > "
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

    @staticmethod
    def from_dict(dom: QCat, cod: QCat, table: Mapping) -> "QFunctor":
        return QFunctor(dom, cod, tuple(table[p] for p in dom.points))

    def __call__(self, p):
        return self.mapping[self.dom.index(p)]

    def compose_after(self, other: "QFunctor") -> "QFunctor":
        """self o other (other first)."""
        if other.cod.points != self.dom.points:
            raise ValueError("composition mismatch")
        return QFunctor(
            other.dom, self.cod, tuple(self(q) for q in other.mapping)
        )


def is_functor(f: QFunctor) -> bool:
    n = len(f.dom.points)
    cod_idx = [f.cod.index(img) for img in f.mapping]
    for i in range(n):
        for j in range(n):
            if f.dom.matrix[i][j] > f.cod.matrix[cod_idx[i]][cod_idx[j]]:
                return False
    return True


def _functor_tables(a: QCat, b: QCat, max_maps: int) -> list[tuple[int, ...]]:
    """Image-index tables of all functors A -> B, in lexicographic order.

    Depth-first search: domain points are assigned in order, each to the
    codomain points in index order, and a new image is kept only if
    r(x,x) <= s(fx,fx) and, for every point y assigned before it,
    r(x,y) <= s(fx,fy) and r(y,x) <= s(fy,fx).  Entries are compared by
    exact integer rank in the sorted set of values of both matrices."""
    na, nb = len(a.points), len(b.points)
    if nb**na > max_maps:
        raise SizeLimitExceeded(na, nb, max_maps)
    if na == 0:
        return [()]
    # Values are keyed by their (numerator, denominator) pair, which is
    # unique in lowest terms and hashes ~10x faster than a Fraction.
    values = {
        v.as_integer_ratio(): v for m in (a.matrix, b.matrix) for row in m for v in row
    }
    rank = {key: k for k, key in enumerate(sorted(values, key=values.__getitem__))}
    dom = [[rank[v.as_integer_ratio()] for v in row] for row in a.matrix]
    cod = [[rank[v.as_integer_ratio()] for v in row] for row in b.matrix]
    dom_t = [list(col) for col in zip(*dom)]
    cod_t = [list(col) for col in zip(*cod)]
    # fits[x]: the images allowed for point x by the diagonal alone
    fits = [[fx for fx in range(nb) if dom[x][x] <= cod[fx][fx]] for x in range(na)]
    # A stack instead of recursion, so |A| is not bounded by the
    # interpreter's recursion limit (|B| = 1 admits any |A| under the cap).
    image: list[int] = []
    tries = [iter(fits[0])]
    tables = []
    while tries:
        x = len(image)
        out_x, in_x = dom[x], dom_t[x]
        for fx in tries[-1]:
            out_fx, in_fx = cod[fx], cod_t[fx]
            for y, fy in enumerate(image):
                if out_x[y] > out_fx[fy] or in_x[y] > in_fx[fy]:
                    break
            else:
                break  # fx fits every assigned point: keep it
        else:  # no image left for x: backtrack
            tries.pop()
            if image:
                image.pop()
            continue
        if x + 1 == na:
            tables.append((*image, fx))
        else:
            image.append(fx)
            tries.append(iter(fits[x + 1]))
    return tables


def _images(b: QCat, tables: list[tuple[int, ...]]) -> list[tuple]:
    return [tuple(b.points[k] for k in table) for table in tables]


def enumerate_functors(
    a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP
) -> list[QFunctor]:
    """All functors A -> B in lexicographic order of the image table
    (codomain point index order).

    A backtracking search assigns the points of A in order and tries the
    points of B in index order, checking each new image against itself
    and against every point already assigned; a partial map that breaks
    r(x,y) <= s(fx,fy) is never extended.  Raises SizeLimitExceeded when
    |B|^|A| exceeds max_maps: the cap bounds the map space, not the work
    the search does, so it refuses the same inputs as a full scan would."""
    tables = _functor_tables(a, b, max_maps)
    return [QFunctor(a, b, images) for images in _images(b, tables)]


def _pair_points(a: QCat, b: QCat) -> tuple:
    return tuple((p, q) for p in a.points for q in b.points)


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
    points = _pair_points(a, b)
    matrix = tuple(
        tuple(
            tnorm_eval(a.tnorm, a.r(p1, p2), b.r(q1, q2))
            for (p2, q2) in points
        )
        for (p1, q1) in points
    )
    return QCat(a.tnorm, points, matrix)


def _require_same_norm(a: QCat, b: QCat):
    if a.tnorm != b.tnorm:
        raise ValueError("categories live over different t-norms")


def hom_tensor(a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP) -> QCat:
    """Function space for the tensor: the initial lift of the evaluations
    at the points of A on the functors A -> B (as image tuples), so
    d(f,g) = meet_x s(f x, g x)."""
    _require_same_norm(a, b)
    points = tuple(_images(b, _functor_tables(a, b, max_maps)))
    evaluations = [({f: f[i] for f in points}, b) for i in range(len(a.points))]
    return initial_lift(a.tnorm, points, evaluations)


def hom_power(a: QCat, b: QCat, max_maps: int = DEFAULT_MAP_CAP) -> QCat:
    """Power-object candidate for the cartesian product: points are the
    functors A -> B, structure d(f,g) = meet over x,y of
    r(x,y) -> s(f x, g y) with -> the residual of the meet.  As
    u -> v is 1 for u <= v and v otherwise, d(f,g) is the least
    s(f x, g y) over the pairs where r(x,y) is larger, and 1 if none."""
    _require_same_norm(a, b)
    tables = _functor_tables(a, b, max_maps)
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
    return QCat(a.tnorm, tuple(_images(b, tables)), matrix)


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
    return QCat(t, carrier, matrix)


def path_closure(t: TNorm, m: list[list[Fraction]]) -> None:
    """Close m in place under m(i,j) >= m(k,j) & m(i,k) for i != j.

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
            if i == k or via_k == ZERO:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                via = tnorm_eval(t, row_k[j], via_k)
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
        for p in cat.points:
            for q in cat.points:
                i, j = idx[f[p]], idx[f[q]]
                m[i][j] = max(m[i][j], cat.r(p, q))
    path_closure(t, m)
    return QCat(t, carrier, tuple(tuple(row) for row in m))


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
