"""Finite real-enriched categories, their validation and their lifts.

A category is a finite point list with an exact rational structure
matrix r satisfying r(x,x) = 1 and r(y,z) & r(x,y) <= r(x,z) over an
ambient t-norm.  Points may be strings or tuples (products and hom
objects, in :mod:`realcat.functors`, build tuple-shaped points); all
constructions are pure and return new immutable values, with point
orders fixed lexicographically or row-major so reports are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Sequence

from .errors import DomainError
from .tnorm import (
    CheckResult, Encoded, GridDomain, TNorm, encode, encode_unit, kernel_domain
)
from .values import ONE, ZERO, Frozen, unit

Point = object  # str | tuple, hashable


class QCat(Frozen):
    """Finite real-enriched category: points + structure matrix + norm."""

    _fields = ("tnorm", "points", "matrix")

    def __init__(
        self, tnorm: TNorm, points: tuple, matrix: tuple[tuple[Fraction, ...], ...]
    ):
        n = len(points)
        _require_distinct(points)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape does not match point list")
        # One pass reads, checks and encodes the entries when they are
        # Fractions in [0, 1], and keeps the encoding for the kernels;
        # anything else goes through unit, which coerces or raises.
        matrix = tuple(map(tuple, matrix))
        e = encode_unit(matrix)
        if e is None:
            matrix = tuple(tuple(unit(v) for v in row) for row in matrix)
        else:
            self.__dict__["_encoded"] = e
        self.__dict__.update(tnorm=tnorm, points=points, matrix=matrix)

    @cached_property
    def _positions(self) -> dict:
        # Built on first lookup and kept out of the fields, so equality,
        # hashing and categories that are never queried pay nothing.
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _built(self) -> dict:
        # product, hom_power and hom_tensor with this category as first
        # argument (see functors._kept_on_first); kept out of the fields like
        # _positions, so equality and hashing do not change.
        return {}

    @cached_property
    def _encoded(self) -> Encoded:
        # The matrix with the lcm D of its denominators and its entries'
        # numerators over D, read once for every kernel call on this
        # category (see tnorm.kernel_domain); kept out of the fields like
        # _positions.  __init__ keeps the one it checked Fraction
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
    without ``QCat.__init__``'s checks.

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
