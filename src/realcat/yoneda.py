"""Forward Cauchy sequences and Yoneda limits at finite scale.

Nets are restricted to eventually cyclic sequences: in a finite
category every forward Cauchy tail lands in a single class of points at
mutual distance 1, so this presentation loses nothing at desk scale.
The function-space results are exercised through the power-object
structure of :func:`realcat.qcat.hom_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    NotForwardCauchy,
    NotMValued,
    PreconditionError,
)
from .intervals import IntervalSet
from .qcat import (
    QCat,
    QFunctor,
    functor_violation,
    hom_power,
    is_functor,
    product,
)
from .tnorm import (
    CheckResult,
    TNorm,
    idempotent_set,
    m_set,
    tnorm_eval,
    way_below_in_m,
)
from .values import ONE, unit


@dataclass(frozen=True)
class FCSequence:
    """Eventually cyclic point sequence: prefix then cycle forever."""

    ambient: QCat
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        for p in self.prefix + self.cycle:
            if p not in self.ambient.points:
                raise ValueError(f"{p!r} is not a point of the ambient category")

    def cycle_set(self) -> tuple:
        return tuple(dict.fromkeys(self.cycle))


def is_forward_cauchy(s: FCSequence) -> bool:
    """The sup-inf condition equals 1 iff every ordered pair of cycle
    points (wraparound included) is at distance 1: for large enough
    window starts the inf ranges over exactly those pairs."""
    cyc = s.cycle_set()
    return all(s.ambient.r(p, q) == ONE for p in cyc for q in cyc)


@dataclass(frozen=True)
class LimitSet:
    """All Yoneda limits of a sequence; members are pairwise at mutual
    distance 1, so the limit is unique up to isomorphy."""

    points: tuple


def yoneda_limits(s: FCSequence) -> LimitSet:
    """Points a with r(a, x) = meet over cycle points p of r(p, x) for
    every x.  On the cycle the sup-inf tail formula stabilizes to that
    meet; nonempty in finite categories (cycle members qualify)."""
    if not is_forward_cauchy(s):
        raise NotForwardCauchy("sequence is not forward Cauchy")
    c = s.ambient
    cyc = s.cycle_set()
    tail = {x: min(c.r(p, x) for p in cyc) for x in c.points}
    members = tuple(
        a for a in c.points if all(c.r(a, x) == tail[x] for x in c.points)
    )
    return LimitSet(members)


def canonical_limit(s: FCSequence):
    """The limit of least ambient point index (limits come in ambient
    order); all choices are isomorphic."""
    return yoneda_limits(s).points[0]


def is_alpha_monotone(s: FCSequence, alpha) -> bool:
    """Eventually alpha-monotone: some tail has all forward distances
    >= alpha; for a cyclic tail that is all ordered cycle pairs."""
    alpha = unit(alpha)
    cyc = s.cycle_set()
    return all(s.ambient.r(p, q) >= alpha for p in cyc for q in cyc)


def check_alpha_monotone_lemma(s: FCSequence, alpha) -> CheckResult:
    """Theorem harness: for idempotent alpha and an eventually
    alpha-monotone sequence, alpha ^ r(x_mu, x) <= alpha ^ r(x_la, x)
    along the tail.  A failure would indicate an implementation bug."""
    alpha = unit(alpha)
    t = s.ambient.tnorm
    if tnorm_eval(t, alpha, alpha) != alpha:
        raise PreconditionError(f"alpha = {alpha} is not idempotent")
    if not is_alpha_monotone(s, alpha):
        raise PreconditionError("sequence is not eventually alpha-monotone")
    c = s.ambient
    cyc = s.cycle_set()
    for later in cyc:
        for earlier in cyc:
            for x in c.points:
                if min(alpha, c.r(later, x)) > min(alpha, c.r(earlier, x)):
                    return CheckResult(
                        False,
                        f"monotone lemma fails at ({earlier}, {later}, {x})",
                        witness=(earlier, later, x),
                    )
    return CheckResult(True, "tail meets are monotone under alpha")


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
    idm = idempotent_set(t)
    top_block = any(b.hi == ONE for b in t.blocks)
    if top_block:
        # 1 is isolated in M, hence way below itself; every smaller
        # idempotent is way below 1 outright.
        assert way_below_in_m(t, ONE, ONE)
    else:
        assert not way_below_in_m(t, ONE, ONE) or idm.components == ((ONE, ONE),)
    sup = idm.supremum
    return ApproxReport(1 if top_block else 2, idm, top_block, sup, sup == ONE)


def _require_m_valued(c: QCat):
    m = m_set(c.tnorm)
    for row in c.matrix:
        for v in row:
            if v not in m:
                raise NotMValued(f"structure value {v} outside M")


def function_space_limit(
    a: QCat,
    b: QCat,
    prefix: Sequence[tuple],
    cycle: Sequence[tuple],
) -> QFunctor:
    """Yoneda limit of an eventually cyclic functor sequence in the
    power-object structure on [A -> B].

    The limit is computed pointwise (least-index Yoneda limit of each
    point sequence) and the limit law
    d(f, g) = join_la meet_{la<=mu} d(f_mu, g) is verified against
    every functor g before returning."""
    _require_m_valued(a)
    _require_m_valued(b)
    hom = hom_power(a, b)
    seq = FCSequence(hom, tuple(prefix), tuple(cycle))
    if not is_forward_cauchy(seq):
        raise NotForwardCauchy("functor sequence is not forward Cauchy in d_pi")
    images = []
    for i, x in enumerate(a.points):
        point_cycle = tuple(f[i] for f in seq.cycle_set())
        point_seq = FCSequence(b, (), point_cycle)
        images.append(canonical_limit(point_seq))
    limit = QFunctor(a, b, tuple(images))
    assert is_functor(limit)
    # Limit law: the tail stabilizes on the cycle, so the join-of-meets
    # collapses to the meet over cycle members.
    cyc = seq.cycle_set()
    f_point = limit.mapping
    if f_point not in hom.points:  # pragma: no cover
        raise NotForwardCauchy("pointwise limit is not a functor point")
    for g in hom.points:
        expected = min(hom.r(fm, g) for fm in cyc)
        if hom.r(f_point, g) != expected:
            raise NotForwardCauchy(
                f"limit law fails against {g}: "
                f"{hom.r(f_point, g)} != {expected}"
            )
    return limit


def check_ev(a: QCat, b: QCat) -> CheckResult:
    """Verify the evaluation map (x, f) |-> f(x) is a functor from
    A x [A -> B] to B; a failure names the first violating pair."""
    dom = product(a, hom_power(a, b))
    ev = QFunctor(dom, b, tuple(f[a.index(x)] for (x, f) in dom.points))
    pair = functor_violation(ev)
    if pair is not None:
        return CheckResult(
            False, f"evaluation fails at {pair[0]}, {pair[1]}", witness=pair
        )
    return CheckResult(True, "evaluation is a functor")


def curry(a: QCat, c: QCat, b: QCat, f: QFunctor) -> QFunctor:
    """Transpose f : A x C -> B to C -> [A -> B] with the power-object
    structure: z |-> f(-, z)."""
    hom = hom_power(a, b)
    images = tuple(
        tuple(f((x, z)) for x in a.points) for z in c.points
    )
    g = QFunctor(c, hom, images)
    assert is_functor(g)
    return g


def uncurry(a: QCat, c: QCat, b: QCat, g: QFunctor) -> QFunctor:
    """Inverse transposition: (x, z) |-> g(z)(x)."""
    dom = product(a, c)
    images = tuple(g(z)[a.index(x)] for (x, z) in dom.points)
    f = QFunctor(dom, b, images)
    assert is_functor(f)
    return f
