"""Forward Cauchy sequences and Yoneda limits at finite scale.

Nets are restricted to eventually cyclic sequences, which loses nothing
in a finite category.  There the paper's second theorem (Yoneda
complete M-valued categories and Yoneda continuous functors are
cartesian closed) is mostly automatic.  Every finite category is Yoneda
complete: the limits of a forward Cauchy sequence are the points
isomorphic to a cycle point (:func:`yoneda_limits`).  Every functor is
Yoneda continuous, as it keeps pairs at distance 1.  What is left is
that pointwise limits in [A -> B] (:func:`realcat.qcat.hom_power`) are
limits (:func:`function_space_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, NotForwardCauchy, NotMValued
from .intervals import IntervalSet
from .qcat import (
    QCat,
    QFunctor,
    _require_same_norm,
    functor_violation,
    hom_power,
    product,
    require_category,
)
from .tnorm import CheckResult, TNorm, idempotent_set, m_set
from .values import ONE


@dataclass(frozen=True)
class FCSequence:
    """Eventually cyclic point sequence: prefix then cycle forever, in
    an ambient that must be a category (a DomainError otherwise), as the
    proof behind :func:`yoneda_limits` needs transitivity."""

    ambient: QCat
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        _require_points(self.ambient, self.prefix, self.cycle)
        require_category(self.ambient)


def _require_points(c: QCat, prefix: tuple, cycle: tuple):
    if not cycle:
        raise ValueError("cycle must be nonempty")
    for p in prefix + cycle:
        if p not in c.points:
            raise ValueError(f"{p!r} is not a point of the ambient category")


def is_forward_cauchy(s: FCSequence) -> bool:
    """The sup-inf condition equals 1 iff every ordered pair of cycle
    points (wraparound included) is at distance 1: for large enough
    window starts the inf ranges over exactly those pairs."""
    return all(s.ambient.r(p, q) == ONE for p in s.cycle for q in s.cycle)


def _isomorphic(c: QCat, p) -> tuple:
    """The points a of c with r(a, p) = r(p, a) = 1, in ambient order."""
    return tuple(a for a in c.points if c.r(a, p) == ONE and c.r(p, a) == ONE)


def yoneda_limits(s: FCSequence) -> tuple:
    """All Yoneda limits of s, pairwise isomorphic: the points a with
    r(a, x) = meet over cycle points q of r(q, x) for every x (the tail
    formula, stable on the cycle), in ambient order.

    They are the points isomorphic to p = cycle[0].  As r(p, q) =
    r(q, p) = 1 on the cycle, transitivity gives every cycle point p's
    row, so the meet is r(p, x); a point isomorphic to p has that row
    too.  Conversely a limit a has r(p, a) = r(a, a) = 1 and
    r(a, p) = r(p, p) = 1."""
    if not is_forward_cauchy(s):
        raise NotForwardCauchy("sequence is not forward Cauchy")
    return _isomorphic(s.ambient, s.cycle[0])


def canonical_limit(s: FCSequence):
    """The limit of least ambient point index (limits come in ambient
    order); all choices are isomorphic."""
    return yoneda_limits(s)[0]


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of the interpolation property of M: the idempotents way
    below 1 have supremum 1.

    case 1: some block reaches 1, so the top of M is isolated and
    compact; case 2: no block reaches 1 and idempotents accumulate at
    the top.  idempotents_way_below is the closure of the set (in case
    2 the top itself is excluded, flagged by includes_top)."""

    case: int
    idempotents_way_below: IntervalSet
    includes_top: bool
    supremum: Fraction
    passed: bool


def approx_property(t: TNorm) -> ApproxReport:
    """includes_top is ``way_below_in_m(t, 1, 1)``: a block [lo, 1]
    meets M at most in [lo, (lo+1)/2], which isolates 1 in M; with no
    such block, [hi, 1] lies in M, hi < 1 the last block's end (or 0)."""
    idm = idempotent_set(t)
    top_block = any(b.hi == ONE for b in t.blocks)
    sup = idm.supremum
    return ApproxReport(1 if top_block else 2, idm, top_block, sup, sup == ONE)


def _require_m_valued(c: QCat):
    m = m_set(c.tnorm)
    for row in c.matrix:
        for v in row:
            if v not in m:
                raise NotMValued(f"structure value {v} outside M")


def _require_functor(f: QFunctor):
    if (pair := functor_violation(f)) is not None:
        raise DomainError(f"not a functor: fails at {pair[0]}, {pair[1]}")


def function_space_limit(
    a: QCat,
    b: QCat,
    prefix: Sequence[tuple],
    cycle: Sequence[tuple],
) -> QFunctor:
    """Yoneda limit of an eventually cyclic functor sequence in the
    power-object structure on [A -> B], for M-valued categories A and B:
    x goes to the first point of B isomorphic to f0(x), f0 = cycle[0].

    It is the limit, and the pointwise one.  d(f, g) = 1 puts
    s(f x, g x) >= r(x, x) = 1, so the cycle functors and the pointwise
    limit L are pointwise isomorphic to f0 (each point sequence's
    limits are the class of f0(x), see :func:`yoneda_limits`).  So L is
    a functor, as s(L x, L y) = s(f0 x, f0 y), and d(L, g) = d(f, g) for
    every cycle functor f, as d reads only values s(f x, g y): the law
    d(L, g) = join_la meet_{la<=mu} d(f_mu, g) holds for every g.

    [A -> B] is a category then (on M, u & v is min(u, v) or a Lukasiewicz
    block's start), so no FCSequence re-checks it, at |[A -> B]|^3 cost."""
    for require in (_require_m_valued, require_category):
        for c in (a, b):
            require(c)
    hom, cycle = hom_power(a, b), tuple(cycle)
    _require_points(hom, tuple(prefix), cycle)
    if not all(hom.r(f, g) == ONE for f in cycle for g in cycle):
        raise NotForwardCauchy("functor sequence is not forward Cauchy in d_pi")
    return QFunctor(a, b, tuple(_isomorphic(b, y)[0] for y in cycle[0]))


def check_ev(a: QCat, b: QCat) -> CheckResult:
    """Whether evaluation (x, f) |-> f(x) is a functor A x [A -> B] -> B.
    It is one for all A and B over one norm (two norms: ValueError).

    A x [A -> B] carries min(r(x, y), d(f, g)), and d(f, g) <=
    r(x, y) -> s(f x, g y), as d is the meet of those residuals of the
    meet (:func:`realcat.qcat.hom_power`); min(u, u -> v) <= v."""
    _require_same_norm(a, b)
    return CheckResult(True, "evaluation is a functor")


def curry(a: QCat, c: QCat, b: QCat, f: QFunctor) -> QFunctor:
    """Transpose f : A x C -> B to C -> [A -> B] with the power-object
    structure: z |-> f(-, z).  A map f that is not a functor is a
    DomainError naming its first violating pair.

    The transpose g is a functor exactly when f is: as u -> v is 1 for
    u <= v and v otherwise, d(g z, g w) >= r(z, w) says that for all
    x, y, s(f(x, z), f(y, w)) >= min(r(x, y), r(z, w))."""
    _require_functor(f)
    hom = hom_power(a, b)
    images = tuple(
        tuple(f((x, z)) for x in a.points) for z in c.points
    )
    return QFunctor(c, hom, images)


def uncurry(a: QCat, c: QCat, b: QCat, g: QFunctor) -> QFunctor:
    """Inverse transposition of g : C -> [A -> B]: (x, z) |-> g(z)(x);
    a functor exactly when g is one (see :func:`curry`), which is
    checked as there."""
    _require_functor(g)
    dom = product(a, c)
    images = tuple(g(z)[a.index(x)] for (x, z) in dom.points)
    return QFunctor(dom, b, images)
