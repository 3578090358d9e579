"""Continuous t-norms as finite ordinal sums, with exact arithmetic.

A t-norm is presented by its Archimedean blocks: closed intervals on
which the operation is a linearly rescaled copy of either the
Lukasiewicz or the product t-norm.  Outside all block squares the
operation is the minimum.  Every query below (evaluation, residuals,
square roots, the idempotent set, the M quantale) is answered exactly
over the rationals; the only operations that can leave the rationals
are square roots inside product blocks, which raise
:class:`~realcat.errors.ProductIrrational` rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import DomainError, ProductIrrational
from .intervals import IntervalSet
from .values import ONE, ZERO, unit


class BlockKind(str, Enum):
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


@dataclass(frozen=True)
class Block:
    """One Archimedean block [lo, hi] with a linear rescaling of the
    base norm.  lo < hi; interiors of distinct blocks never overlap."""

    lo: Fraction
    hi: Fraction
    kind: BlockKind

    def __post_init__(self):
        unit(self.lo)
        unit(self.hi)
        if self.lo >= self.hi:
            raise ValueError(f"block [{self.lo}, {self.hi}] must have lo < hi")


@dataclass(frozen=True)
class TNorm:
    """Finite ordinal sum of Lukasiewicz and product blocks.

    An empty block list is the Godel norm (minimum)."""

    blocks: tuple[Block, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: b.lo))
        for prev, cur in zip(blocks, blocks[1:]):
            if cur.lo < prev.hi:
                raise ValueError(
                    f"blocks [{prev.lo},{prev.hi}] and [{cur.lo},{cur.hi}] overlap"
                )
        object.__setattr__(self, "blocks", blocks)

    def block_of_pair(self, x: Fraction, y: Fraction) -> Optional[Block]:
        for b in self.blocks:
            if b.lo <= x <= b.hi and b.lo <= y <= b.hi:
                return b
        return None

    def __call__(self, x, y) -> Fraction:
        return tnorm_eval(self, x, y)

    def __str__(self):
        if self.name:
            return self.name
        parts = ", ".join(f"{b.kind.value}[{b.lo},{b.hi}]" for b in self.blocks)
        return f"ordinal-sum({parts})"


def godel() -> TNorm:
    return TNorm((), name="godel")


def lukasiewicz() -> TNorm:
    return TNorm((Block(ZERO, ONE, BlockKind.LUKASIEWICZ),), name="lukasiewicz")


def product() -> TNorm:
    return TNorm((Block(ZERO, ONE, BlockKind.PRODUCT),), name="product")


def remark4() -> TNorm:
    """The two-block norm 2xy on [0, 1/2], max(x+y-1, 1/2) on [1/2, 1]."""
    half = Fraction(1, 2)
    return TNorm(
        (
            Block(ZERO, half, BlockKind.PRODUCT),
            Block(half, ONE, BlockKind.LUKASIEWICZ),
        ),
        name="remark4",
    )


BUILTIN_NORMS = {
    "godel": godel,
    "lukasiewicz": lukasiewicz,
    "product": product,
    "remark4": remark4,
}


def tnorm_eval(t: TNorm, x, y) -> Fraction:
    """Exact value of x & y.

    Inside a block square [a,b]^2 the linear rescalings give
    max(x+y-b, a) for a Lukasiewicz block and a + (x-a)(y-a)/(b-a) for
    a product block; elsewhere the value is min(x, y).  On a block
    boundary both formulas agree with the minimum, so the closed-square
    test is unambiguous.
    """
    x, y = unit(x), unit(y)
    b = t.block_of_pair(x, y)
    if b is None:
        return min(x, y)
    if b.kind is BlockKind.LUKASIEWICZ:
        return max(x + y - b.hi, b.lo)
    return b.lo + (x - b.lo) * (y - b.lo) / (b.hi - b.lo)


def meet_residual(x, y) -> Fraction:
    """Right adjoint of the meet on the chain: x -> y = 1 if x <= y, else y."""
    x, y = unit(x), unit(y)
    return ONE if x <= y else y


def tnorm_residual(t: TNorm, x, y) -> Fraction:
    """sup{z : x & z <= y}, always attained and rational.

    With linear block rescalings the solution of x & z = y is linear in
    z, so no irrational suprema arise here (unlike square roots).
    """
    x, y = unit(x), unit(y)
    if x <= y:
        return ONE
    # x > y.  The sup exceeds y only when x and y share a block with
    # room above y; otherwise min(x, z) <= y already forces z <= y.
    for b in t.blocks:
        if b.lo <= y and x <= b.hi and b.lo <= x:
            if b.kind is BlockKind.LUKASIEWICZ:
                return b.hi - x + y
            return b.lo + (b.hi - b.lo) * (y - b.lo) / (x - b.lo)
    return y


def sqrt_with(t: TNorm, x) -> Fraction:
    """max{z : z & z <= x}.

    Raises ProductIrrational when the maximum falls inside a product
    block and is not rational.
    """
    x = unit(x)
    for b in t.blocks:
        if b.lo <= x < b.hi:
            if b.kind is BlockKind.LUKASIEWICZ:
                return (x + b.hi) / 2
            if x == b.lo:
                return b.lo
            target = (x - b.lo) * (b.hi - b.lo)
            root = _rational_sqrt(target)
            if root is None:
                raise ProductIrrational(
                    f"sqrt of {x} under {t} is irrational"
                )
            return b.lo + root
    return x


def _rational_sqrt(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    pn = math.isqrt(v.numerator)
    pd = math.isqrt(v.denominator)
    if pn * pn == v.numerator and pd * pd == v.denominator:
        return Fraction(pn, pd)
    return None


def idempotent_set(t: TNorm) -> IntervalSet:
    """All p with p & p = p: the complement of the open block interiors."""
    parts = []
    cursor = ZERO
    for b in t.blocks:
        if cursor <= b.lo:
            parts.append((cursor, b.lo))
        cursor = b.hi
    parts.append((cursor, ONE))
    return IntervalSet.of(parts)


def m_set(t: TNorm) -> IntervalSet:
    """The quantale M = {a : a & a is idempotent}: the idempotents plus,
    for each Lukasiewicz block [a, b], the lower half [a, (a+b)/2]."""
    result = idempotent_set(t)
    for b in t.blocks:
        if b.kind is BlockKind.LUKASIEWICZ:
            result = result.union(IntervalSet.of([(b.lo, (b.lo + b.hi) / 2)]))
    return result


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a decidable verification; witness explains a failure."""

    passed: bool
    message: str = ""
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.passed


def subquantale_check(t: TNorm, k: IntervalSet) -> CheckResult:
    """Whether (K, &, 1) is a complete subquantale of ([0,1], &, 1).

    Join/meet closure is automatic for a finite union of closed
    intervals; what remains is 1 in K and closure under &.  The image
    of a product of components under the (monotone, continuous) norm is
    the interval between the corner values, so closure is decidable
    componentwise; a failure comes with an exact witness pair.
    """
    if ONE not in k:
        return CheckResult(False, "1 is not a member", witness=None)
    for lo1, hi1 in k.components:
        for lo2, hi2 in k.components:
            img_lo = tnorm_eval(t, lo1, lo2)
            img_hi = tnorm_eval(t, hi1, hi2)
            gap = k.gap_value_in(img_lo, img_hi)
            if gap is not None:
                pair = _preimage_pair(t, (lo1, hi1), (lo2, hi2), gap)
                x, y = pair
                return CheckResult(
                    False,
                    f"{x} & {y} = {gap} escapes K",
                    witness=pair,
                )
    return CheckResult(True, "complete subquantale")


def _preimage_pair(t, comp1, comp2, target):
    """Exact (x, y) in comp1 x comp2 with x & y = target.  Walks the
    monotone boundary path (lo1 fixed, then hi2 fixed), solving the
    remaining coordinate with the residual, which is rational."""
    lo1, hi1 = comp1
    lo2, hi2 = comp2
    if target <= tnorm_eval(t, lo1, hi2):
        x = lo1
        y = tnorm_residual(t, x, target)
        y = min(max(y, lo2), hi2)
    else:
        y = hi2
        x = tnorm_residual(t, y, target)
        x = min(max(x, lo1), hi1)
    assert tnorm_eval(t, x, y) == target
    return (x, y)


def k_subset_of_m(t: TNorm, k: IntervalSet) -> bool:
    """Exact containment K <= M (a & a idempotent for all a in K)."""
    return k.is_subset(m_set(t))


def way_below_in_m(t: TNorm, x, y) -> bool:
    """Decide x << y in the complete chain M.

    In a complete chain x << y iff x < y, or x = y and x is isolated
    from below (no strictly smaller members accumulate at x).
    """
    x, y = unit(x), unit(y)
    m = m_set(t)
    if x not in m or y not in m:
        raise DomainError(f"({x}, {y}) not both in M = {m.components}")
    if x < y:
        return True
    if x > y:
        return False
    return m.is_isolated_from_below(x)
