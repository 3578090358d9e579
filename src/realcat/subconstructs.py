"""Suitable subsets of the unit square and the subconstructs they cut out.

A suitable set S is closed under pairwise joins and meets (S1), under
swap (S2) and under componentwise & (S3); it determines the full
subconstruct of categories whose value pairs (r(x,y), r(y,x)) all lie
in S.  This module decides membership, checks suitability with failure
witnesses, and computes the coreflector C(r) and reflector R(r).  The
cartesian-closedness criteria are in :mod:`realcat.ccc`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import ge, le
from typing import Callable, Optional, Sequence

from .errors import DomainError, ProductIrrational
from .intervals import IntervalSet
from .qcat import QCat, _built_qcat, path_closure
from .tnorm import (
    CheckResult,
    GridDomain,
    TNorm,
    kernel_domain,
    subquantale_check,
)
from .values import ONE, Frozen, format_rat, unit

Pair = tuple[Fraction, Fraction]

# {0,1}: its square cuts out the preorders
CRISP = IntervalSet.of([0, 1])


class SuitableVariant(str, Enum):
    K_SQUARE = "k_square"
    K_DIAGONAL = "k_diagonal"
    SQRT_BAND = "sqrt_band"
    EXPLICIT = "explicit"


class SuitableSet(Frozen):
    """Symbolic description of a subset of [0,1]^2.

    A variant carries exactly the fields it reads: k for K_SQUARE and
    K_DIAGONAL, pairs for EXPLICIT, and neither for SQRT_BAND, which is
    fully determined by the t-norm.
    """

    _fields = ("tnorm", "variant", "k", "pairs")

    def __init__(
        self,
        tnorm: TNorm,
        variant: SuitableVariant,
        k: Optional[IntervalSet] = None,
        pairs: Optional[frozenset] = None,
    ):
        reads = {"explicit": "pairs", "sqrt_band": None}.get(variant, "k")
        if reads == "k" and k is None:
            raise ValueError(f"{variant.value} needs a carrier set K")
        if reads == "pairs" and pairs is None:
            raise ValueError("explicit variant needs a pair set")
        for stray, value in (("k", k), ("pairs", pairs)):
            # a field the variant does not read would still enter _lcm and
            # equality, and its file could not be told from one without it
            if stray != reads and value is not None:
                raise ValueError(
                    f"the {variant.value} suitable set carries a stray {stray!r} field"
                )
        if reads == "pairs":
            pairs = frozenset(map(_unit_pair, pairs))
        self.__dict__.update(tnorm=tnorm, variant=variant, k=k, pairs=pairs)

    @cached_property
    def _lcm(self) -> int:
        # The lcm of the denominators of the constants (K endpoints,
        # explicit coordinates) that _on_domain puts on a kernel domain.
        parts = (self.k.components if self.k is not None else ()) + tuple(
            self.pairs or ()
        )
        return math.lcm(*{v.denominator for part in parts for v in part})

    @cached_property
    def _bounds(self) -> dict:
        # (grid domain, "above" or "below") -> S's row rule there and
        # its pin; filled by _kernel_on, one entry per domain and side.
        # Kept out of the fields, so equality and hashing do not change.
        return {}

    @cached_property
    def _suitable(self) -> CheckResult:
        # check_suitable(self), which C and R require; kept out of the
        # fields like _lcm and _bounds
        return check_suitable(self)


def _unit_pair(member) -> Pair:
    """An explicit set's member as a pair of unit values; ValueError when
    it is no pair (a tuple of two)."""
    if not isinstance(member, tuple) or len(member) != 2:
        raise ValueError(f"explicit set member {_shown(member)} is not a pair")
    return unit(member[0]), unit(member[1])


def _shown(v) -> str:
    """v as the library's texts write it: a Fraction as p/q, a tuple
    entry by entry, anything else by its repr."""
    if isinstance(v, Fraction):
        return format_rat(v)
    if isinstance(v, tuple):
        inner = ", ".join(map(_shown, v))
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    return repr(v)


def k_square(t: TNorm, k: IntervalSet) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.K_SQUARE, k=k)


def k_diagonal(t: TNorm, k: IntervalSet) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.K_DIAGONAL, k=k)


def sqrt_band(t: TNorm) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.SQRT_BAND)


def explicit(t: TNorm, pairs) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.EXPLICIT, pairs=frozenset(pairs))


def contains(s: SuitableSet, pair: Pair) -> bool:
    """Exact membership in any S, suitable or not.  Explicit: (a, b) is
    a written-out pair.  The others: the row rule toward "above" (see
    ``_row_rule``) keeps the row [a, b] against the column [b, a].
    K^2: K.min_above(a) == a iff a is in K, as the components are
    sorted and disjoint.  K_diagonal: min_above(max(a, b)) equals a and
    b iff a = b is in K.  Band: (max(a, b&b), max(b, a&a)) = (a, b) is
    the Galois test a&a <= b and b&b <= a, so no root is computed."""
    a, b = unit(pair[0]), unit(pair[1])
    if s.variant is SuitableVariant.EXPLICIT:
        return (a, b) in s.pairs
    above, _ = _kernel_on(s, s.tnorm._fractions, "above")
    return _rows_fixed(above, [[a, b]], [[b, a]])


def _rows_fixed(rule: Callable, rows, cols) -> bool:
    """Whether rule, a row rule toward "above", leaves each row as it is
    against its column, stopping at the first row it moves: then each
    pair the rows and columns meet is in S.  A row may be a tuple (a
    ``view``), so it is compared with the rule's list entry by entry.
    A DomainError means a pair has no S-pair above it, so it is not in S."""
    try:
        return all(rule(row, col) == [*row] for row, col in zip(rows, cols))
    except DomainError:
        return False


def _closure_check(s: SuitableSet, members: Sequence[Pair]) -> CheckResult:
    """S1-S3 on the members of an explicit S; first violation wins."""
    op, pairs = s.tnorm._and, s.pairs
    for p in members:
        if (p[1], p[0]) not in pairs:
            return CheckResult(False, f"S2 fails: swap of {p} missing", witness=p)
    for p in members:
        for q in members:
            j = (max(p[0], q[0]), max(p[1], q[1]))
            m = (min(p[0], q[0]), min(p[1], q[1]))
            w = (op(p[0], q[0]), op(p[1], q[1]))
            if j not in pairs:
                return CheckResult(
                    False, f"S1 fails: join of {p}, {q} = {j} missing", witness=(p, q)
                )
            if m not in pairs:
                return CheckResult(
                    False, f"S1 fails: meet of {p}, {q} = {m} missing", witness=(p, q)
                )
            if w not in pairs:
                return CheckResult(
                    False, f"S3 fails: {p} & {q} = {w} missing", witness=(p, q)
                )
    return CheckResult(True, "S1-S3 hold on the tested members")


def check_suitable(s: SuitableSet) -> CheckResult:
    """Decide S1-S3 exactly.

    EXPLICIT sets are checked exhaustively.  K_SQUARE and K_DIAGONAL
    reduce to the subquantale check on K (join/meet and swap closure
    are automatic for those shapes).  The square-root band
    S = {(a,b) : a&a <= b and b&b <= a} is suitable under every t-norm,
    so it passes without a search:
    S2: the definition is symmetric in a and b.
    S1: for members (a,b), (a',b') with a >= a',
    max(a,a') & max(a,a') = a&a <= b <= max(b,b'), and
    min(a,a') & min(a,a') = a'&a' is at most a&a <= b and a'&a' <= b',
    so at most min(b,b'); the second coordinates go the same way.
    S3: (a&a') & (a&a') = (a&a) & (a'&a') <= b & b' by commutativity,
    associativity and monotonicity, and likewise with a and b swapped.
    """
    if s.variant is SuitableVariant.EXPLICIT:
        return _closure_check(s, sorted(s.pairs))
    if s.variant in (SuitableVariant.K_SQUARE, SuitableVariant.K_DIAGONAL):
        return subquantale_check(s.tnorm, s.k)
    # worded as before: the `suitable` suite report, whose digest the
    # benchmark pins, carries this message
    return CheckResult(True, "S1-S3 hold on the tested members")


def require_suitable(s: SuitableSet, where: str = "") -> SuitableSet:
    """s when S1-S3 hold (``check_suitable``, decided once per set);
    else DomainError "not a suitable set: ..." after the prefix where."""
    res = s._suitable
    if not res.passed:
        raise DomainError(f"{where}not a suitable set: {res.message}")
    return s


def is_in_cat_s(s: SuitableSet, c: QCat) -> bool:
    """Whether every pair (r(x,y), r(y,x)) of c, the diagonal included,
    lies in S, for any S, decided as in :func:`contains`, the row rule
    running on a read-only ``view`` row by row, stopping at the first
    row it moves.  DomainError when S and c live over different norms."""
    _require_same_norm(s, c)
    if s.variant is SuitableVariant.EXPLICIT:
        m = c.matrix
        return all(
            pair in s.pairs for row, col in zip(m, zip(*m)) for pair in zip(row, col)
        )
    (above, _), e, dom = _on_domain(s, c, "above")
    m = dom.view(e)
    return _rows_fixed(above, m, zip(*m))


def _require_same_norm(s: SuitableSet, c: QCat) -> None:
    if s.tnorm is not c.tnorm and s.tnorm != c.tnorm:
        raise DomainError(
            "the suitable set and the category live over different t-norms"
        )


def _on_domain(s: SuitableSet, c: QCat, side: str) -> tuple:
    """S's (rule, pin) toward side (``_kernel_on``), c's encoding
    (``QCat._encoded``, converted once) and the kernel domain of both,
    which share a norm.  The domain takes roots only for the band
    toward "below", the one rule that calls ``dom.sqrt``."""
    e = c._encoded
    roots = side == "below" and s.variant is SuitableVariant.SQRT_BAND
    dom = kernel_domain(c.tnorm, math.lcm(e.d, s._lcm), roots)
    return _kernel_on(s, dom, side), e, dom


def _kernel_on(s: SuitableSet, dom, side: str) -> tuple:
    """(rule, pin) in dom's values: S's row rule toward side, and the
    largest explicit coordinate, else 1, which a suitable K holds (an
    empty explicit S takes 1, whose lookup raises).  In a suitable S,
    (pin, pin) joins every pair with its swap, so it is in S and the
    rule keeps it (see ``_move``).  Kept on S for a grid domain, where a value map
    holds at most (d + 1)^2 keys; built per call on the Fraction
    domain, whose values are unbounded."""
    hit = s._bounds.get((dom, side))
    if hit is None:
        pin = max((v for pair in s.pairs or () for v in pair), default=ONE)
        hit = _row_rule(s, dom, side), dom.of(pin)
        if dom.__class__ is GridDomain:
            s._bounds[dom, side] = hit
    return hit


class _ValueMap(dict):
    """v -> fn(v), computed on the first lookup of v and kept; a lookup
    that raises keeps nothing."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, v):
        w = self[v] = self.fn(v)
        return w


def _row_rule(s: SuitableSet, dom, side: str) -> Callable:
    """rule(row, col) -> row moved toward side: entry j becomes the
    first coordinate of the least S-pair above ("above") or the largest
    S-pair below ("below") (row[j], col[j]).  The second coordinate of
    that pair is the rule on the swapped pair, so a row of a matrix
    against its column gives the row of the moved matrix.  The bound is
    a value map combined entry by entry with the transposed entry:
    K^2: K.min_above / K.max_below of the entry;
    K_diagonal: that map at the max / min of the two entries, the K^2
    pair at (p, p);
    band: max(x, y & y) / min(x, sqrt y), the Galois bounds of
    a&a <= b and b&b <= a;
    explicit: on the pair (x, y), the least / largest first coordinate
    of S's pairs above / below it; by S2 the rule on (y, x) gives the
    second, and by S1 their meet / join is in S.
    The map is a :class:`_ValueMap`, so it computes each value once; a
    value (pair) without a bound raises DomainError naming it, and a
    root that is not rational raises ProductIrrational."""
    if s.variant is SuitableVariant.SQRT_BAND:
        if side == "above":
            op = dom.op
            square = _ValueMap(lambda y: op(y, y))
            return lambda row, col: [
                x if x >= (q := square[y]) else q for x, y in zip(row, col)
            ]
        root = _ValueMap(dom.sqrt)
        return lambda row, col: [
            x if x <= (q := root[y]) else q for x, y in zip(row, col)
        ]
    if s.variant is SuitableVariant.EXPLICIT:
        pairs = [(dom.of(p), dom.of(q)) for p, q in s.pairs]
        toward, nearest = (ge, min) if side == "above" else (le, max)

        def first(xy):
            x, y = xy
            firsts = [p for p, q in pairs if toward(p, x) and toward(q, y)]
            if not firsts:
                raise DomainError(
                    f"no explicit member {side} ({dom.value(x)}, {dom.value(y)})"
                )
            return nearest(firsts)

        pair_bound = _ValueMap(first)
        return lambda row, col: [pair_bound[xy] for xy in zip(row, col)]
    k = IntervalSet(tuple((dom.of(lo), dom.of(hi)) for lo, hi in s.k.components))
    nearest = k.min_above if side == "above" else k.max_below

    def member(v):
        p = nearest(v)
        if p is None:
            raise DomainError(f"K has no member {side} {dom.value(v)}")
        return p

    bound = _ValueMap(member)
    if s.variant is SuitableVariant.K_SQUARE:
        return lambda row, col: [bound[x] for x in row]
    if side == "above":
        return lambda row, col: [bound[x if x >= y else y] for x, y in zip(row, col)]
    return lambda row, col: [bound[x if x <= y else y] for x, y in zip(row, col)]


def coreflect_c(s: SuitableSet, c: QCat) -> QCat:
    """C(r): per point pair, the largest S-pair componentwise below
    (r(x,y), r(y,x)); the diagonal is left as given.  S must be
    suitable (see ``_moved``).  For a category c the output is a
    category <= r: for distinct x, y, z the & of the pairs at (x,y) and
    (y,z) is in S by S3 and below r's pair at (x,z), so below the
    largest S-pair there; the other triples meet the diagonal's 1.  It
    lies in Cat_S when (1, 1) is in S, as in every suitable K^2,
    K_diagonal and band."""
    m, dom = _moved(s, c, "below")
    return _built_qcat(c.tnorm, c.points, dom.leave(m))


def _moved(s: SuitableSet, c: QCat, side: str) -> tuple:
    """c's matrix, its off-diagonal pairs moved toward side, and its
    kernel domain.  DomainError when S and c live over different
    t-norms, else when S is not suitable (``require_suitable``).  The
    matrix is the ``view`` copied into lists, as the kernels write."""
    _require_same_norm(s, c)
    require_suitable(s)
    (rule, pin), e, dom = _on_domain(s, c, side)
    m = [list(row) for row in dom.view(e)]
    _move(rule, pin, m)
    return m, dom


def _move(rule: Callable, pin, m: list[list]) -> None:
    """Move each off-diagonal pair of m to its S-pair toward the rule's
    side, rebuilding each row against its column from m as given.  The
    diagonal holds pin during that pass, so it does not raise, and is
    then put back.  When the pass raises, the pairs i < j are tried in
    row-major order, r(i,j)'s side first, so the error names the first
    pair without a bound.  One point has no pair, and an empty S's pin
    would raise: it is left alone."""
    n = len(m)
    if n < 2:
        return
    diagonal = [row[i] for i, row in enumerate(m)]
    for i, row in enumerate(m):
        row[i] = pin
    try:
        moved = [rule(row, col) for row, col in zip(m, zip(*m))]
    except (DomainError, ProductIrrational):
        for i in range(n):
            for j in range(i + 1, n):
                rule([m[i][j]], [m[j][i]])
                rule([m[j][i]], [m[i][j]])
        raise
    for i, row in enumerate(moved):
        row[i] = diagonal[i]
    m[:] = moved


def reflect_r(s: SuitableSet, c: QCat) -> QCat:
    """R(r): the least Cat_S structure above r off the diagonal, which
    is left as given.  S must be suitable (see ``_moved``).

    One raise of each pair to the least S-pair above it, then the exact
    path closure.  Both steps are monotone and inflationary and fix
    every Cat_S structure above r, so the result is the least once it
    lies in Cat_S, and it does.  After the raise every off-diagonal
    pair is in S.  The closure at (x, y) joins the & of the entries
    along each path from x to y; the reverse paths give (y, x).  The
    pair of a path and its reverse is the componentwise & of the pairs
    it crosses, in S by S3, and the join of those is in S by S1.  So a
    second raise would change nothing.  The diagonal is never read or
    written.  Both steps run on the exact kernel domain, with each
    input converted once and kept on its owner (``_kernel_on``).
    """
    m, dom = _moved(s, c, "above")
    path_closure(dom, m)
    return _built_qcat(c.tnorm, c.points, dom.leave(m))


def por_coreflection(c: QCat) -> QCat:
    """rho: the greatest preorder below r, x <= y iff r(x,y) = 1.  The
    preorders are Cat_S for S = {0,1}^2, so this is C for that S."""
    return coreflect_c(k_square(c.tnorm, CRISP), c)


def por_reflection(c: QCat) -> QCat:
    """sigma: the least preorder above r, the reflexive-transitive
    closure of {(x,y) : r(x,y) != 0}; R for S = {0,1}^2."""
    return reflect_r(k_square(c.tnorm, CRISP), c)
