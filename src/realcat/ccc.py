"""The cartesian-closedness criterion for K-Cat and its witnesses.

K-Cat is cartesian closed iff K lies inside M (:func:`ccc_criterion`).
When it does not, :func:`ccc_witness` builds the finite categories at
which A x - fails to preserve a final sink, from a triple (u, v, r) at
which the distributivity identity fails.  The identity and the
power-object inequality are also checked on grids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InvalidWitness
from .intervals import IntervalSet
from .qcat import QCat, two_point
from .tnorm import CheckResult, TNorm, m_set, tnorm_eval
from .values import ONE, Frozen, unit


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


class CCCWitness(Frozen):
    """Finite witness that A x - fails to preserve a final sink.

    lhs is the product structure value (u & v) ^ r at the pair
    ((0,x),(1,y)); rhs is the final-lift value there.  lhs != rhs.
    u, v, r, lhs and rhs are Fractions; cat_a to cat_d are QCats."""

    _fields = ("u", "v", "r", "lhs", "rhs", "cat_a", "cat_b", "cat_c", "cat_d")

    def __init__(self, u, v, r, lhs, rhs, cat_a, cat_b, cat_c, cat_d):
        self.__dict__.update(
            u=u, v=v, r=r, lhs=lhs, rhs=rhs,
            cat_a=cat_a, cat_b=cat_b, cat_c=cat_c, cat_d=cat_d,
        )


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
