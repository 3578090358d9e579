"""Continuous t-norms as finite ordinal sums, with exact arithmetic.

A t-norm is presented by its Archimedean blocks: closed intervals on
which the operation is a linearly rescaled copy of either the
Lukasiewicz or the product t-norm.  Outside all block squares the
operation is the minimum.  Every query below (evaluation, residuals,
square roots, the idempotent set, the M quantale) is answered exactly
over the rationals; the only operations that can leave the rationals
are square roots inside product blocks, which raise
:class:`~realcat.errors.ProductIrrational` rather than approximate.

Every public function here validates its arguments with
:func:`~realcat.values.unit`.  The kernels that run & in their inner
loops skip that check.  The tensor product and ``contains`` run on
Fractions; Cat_S membership of a category, the path closure, category
validation and the reflections compute in one of two exact domains
(:func:`kernel_domain` picks one per call):

* Fractions, with & as ``TNorm._and``, compiled once per norm from the
  block bounds.  Every norm has this domain.
* Integer numerators k standing for k/d, with & read off
  :class:`GridDomain`'s block table (``GridDomain.piece``); the one scan
  behind path closure and validation, ``qcat._relax``, runs & inline.
  When every block is Lukasiewicz (the Godel norm has none), the grid
  {k/d : 0 <= k <= d} is closed under & and the meet as soon as the
  block endpoints lie on it: it is a finite MV-chain, or an ordinal sum
  of such chains (Cignoli, D'Ottaviano & Mundici 2000).  There & is
  integer addition and comparison is integer comparison.  A norm with
  a product block has only the Fraction domain.

Each input is converted to a domain once and the result is kept on the
immutable object that owns it: a norm keeps its domains (one per d) and
its M, a category its :class:`Encoded` matrix, and a suitable set its
bound on each grid domain and side.  For every variant that bound is a
row rule reading a value map that computes each value once and holds
at most d + 1 of them ((d + 1)^2 pairs for an explicit set), like a
grid domain's own memo; the Fraction domain's values are unbounded, so
there the rule is built per call.  A kernel call then only scales
integers and rebuilds rows.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, ProductIrrational
from .intervals import IntervalSet
from .values import ONE, ZERO, Frozen, unit


class BlockKind(str, Enum):
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


class Block(Frozen):
    """One Archimedean block [lo, hi] with a linear rescaling of the
    base norm.  lo < hi; interiors of distinct blocks never overlap."""

    _fields = ("lo", "hi", "kind")

    def __init__(self, lo: Fraction, hi: Fraction, kind: BlockKind):
        unit(lo)
        unit(hi)
        if lo >= hi:
            raise ValueError(f"block [{lo}, {hi}] must have lo < hi")
        self.__dict__.update(lo=lo, hi=hi, kind=kind)


class TNorm(Frozen):
    """Finite ordinal sum of Lukasiewicz and product blocks.

    An empty block list is the Godel norm (minimum).  The name is a
    label only: two norms with the same blocks are equal."""

    _fields = ("blocks", "name")

    def __init__(self, blocks: tuple[Block, ...] = (), name: Optional[str] = None):
        blocks = tuple(sorted(blocks, key=lambda b: b.lo))
        for prev, cur in zip(blocks, blocks[1:]):
            if cur.lo < prev.hi:
                raise ValueError(
                    f"blocks [{prev.lo},{prev.hi}] and [{cur.lo},{cur.hi}] overlap"
                )
        self.__dict__.update(blocks=blocks, name=name)

    def _key(self) -> tuple:
        return (self.blocks,)  # the name is left out of equality and hash

    @cached_property
    def _and(self) -> Callable[[Fraction, Fraction], Fraction]:
        """x & y on Fractions already known to lie in [0, 1], unchecked:
        the & of the Fraction domain (``GridDomain`` compiles the other).

        Compiled on first use and kept out of the fields, like
        ``QCat._positions``.  Inside a block square [a,b]^2 the linear
        rescalings give max(x+y-b, a) for a Lukasiewicz block and
        a + (x-a)(y-a)/(b-a) for a product block; elsewhere the value is
        min(x, y).  On a block boundary both formulas agree with the
        minimum, so the closed-square test is unambiguous.  The Godel
        norm and a single block spanning [0, 1] need no bounds test."""
        blocks = self.blocks
        if not blocks:
            return _meet
        if len(blocks) == 1 and blocks[0].lo == ZERO and blocks[0].hi == ONE:
            return _luk if blocks[0].kind is BlockKind.LUKASIEWICZ else _prod
        table = tuple(
            (b.lo, b.hi, b.kind is BlockKind.LUKASIEWICZ, b.hi - b.lo) for b in blocks
        )

        def ordinal_sum(x: Fraction, y: Fraction) -> Fraction:
            for lo, hi, luk, width in table:
                if lo <= x <= hi and lo <= y <= hi:
                    if luk:
                        v = x + y - hi
                        return v if v > lo else lo
                    return lo + (x - lo) * (y - lo) / width
            return x if x <= y else y

        return ordinal_sum

    @cached_property
    def _grid_lcm(self) -> Optional[int]:
        # The lcm of the block endpoints' denominators, or None when a
        # product block leaves every grid; kept out of the fields like _and.
        if any(b.kind is BlockKind.PRODUCT for b in self.blocks):
            return None
        return math.lcm(*{v.denominator for b in self.blocks for v in (b.lo, b.hi)})

    @cached_property
    def _m(self) -> IntervalSet:
        # m_set's value, built on first use and kept out of the fields
        # like _grid_lcm; IntervalSet is frozen, so callers can share it
        result = idempotent_set(self)
        for b in self.blocks:
            if b.kind is BlockKind.LUKASIEWICZ:
                result = result.union(IntervalSet.of([(b.lo, (b.lo + b.hi) / 2)]))
        return result

    @cached_property
    def _domains(self) -> dict:
        # GridDomain by d, filled by kernel_domain: one per distinct d
        return {}

    @cached_property
    def _fractions(self) -> FractionDomain:
        return FractionDomain(self)

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


def _meet(x: Fraction, y: Fraction) -> Fraction:
    return x if x <= y else y


def _luk(x: Fraction, y: Fraction) -> Fraction:
    # max(x + y - 1, 0) over the common denominator: one Fraction built
    # instead of three, and none when the value is 0
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    n = a * d + c * b - b * d
    return Fraction(n, b * d) if n > 0 else ZERO


def _prod(x: Fraction, y: Fraction) -> Fraction:
    return x * y


def _numerator(v: Fraction, d: int) -> int:
    """k with v = k/d, for a denominator d that v's divides."""
    return v.numerator * (d // v.denominator)


class Encoded(NamedTuple):
    """A matrix of Fractions with d, the lcm of its entries'
    denominators, and each entry's numerator over d: what a domain
    enters (see ``QCat._encoded``)."""

    fractions: tuple
    d: int
    numerators: tuple


def encode(matrix) -> Encoded:
    """The :class:`Encoded` form of a matrix of Fractions, read off each
    entry's ``as_integer_ratio()``."""
    return _encode(matrix, [[v.as_integer_ratio() for v in row] for row in matrix])


def encode_unit(matrix) -> Optional[Encoded]:
    """The :class:`Encoded` form of a tuple of tuples whose entries are
    all Fractions in [0, 1], checked in the pass that encodes it; None
    when an entry is not, so the caller can take ``values.unit``'s path
    for the coercion or the error.  Each entry's ``as_integer_ratio()``
    is read once, and the range is tested on integers: d // q > 0, so
    p/q lies in [0, 1] exactly when its numerator p * (d // q) over d
    lies in [0, d]."""
    # an entry of another type reads as False, which fails to unpack
    ratios = [
        [v.__class__ is Fraction and v.as_integer_ratio() for v in row]
        for row in matrix
    ]
    try:
        e = _encode(matrix, ratios)
    except TypeError:
        return None
    rows = e.numerators
    if min(map(min, rows), default=0) < 0 or max(map(max, rows), default=0) > e.d:
        return None
    return e


def _encode(matrix, ratios) -> Encoded:
    d = math.lcm(*{q for row in ratios for _, q in row})
    numerators = tuple([tuple([p * (d // q) for p, q in row]) for row in ratios])
    return Encoded(matrix, d, numerators)


class FractionDomain:
    """The kernels' values as they are: Fractions, with & as
    ``TNorm._and``.  Entering and leaving copy the matrix."""

    def __init__(self, t: TNorm):
        self.t = t
        self.op = t._and

    def of(self, v: Fraction) -> Fraction:
        return v

    def value(self, x: Fraction) -> Fraction:
        return x

    def sqrt(self, x: Fraction) -> Fraction:
        return sqrt_with(self.t, x)

    def enter(self, e: Encoded) -> list[list[Fraction]]:
        return [list(row) for row in e.fractions]

    def leave(self, m) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(row) for row in m)


class GridDomain:
    """The kernels' values as integer numerators k of k/d, with & read
    off the block endpoints scaled once to numerators.  Exact for a norm
    with only Lukasiewicz blocks when every value, every block endpoint
    and every constant the kernel compares against lies on the grid
    {k/d}: the grid is then closed under &, the meet and the join.

    A domain is built once per norm and d (``kernel_domain`` keeps it on
    the norm).  A matrix enters by scaling the numerators its
    :class:`Encoded` form already holds, and leaves through a memo from
    k to k/d that the domain keeps, so no Fraction is built twice."""

    def __init__(self, t: TNorm, d: int):
        self.d = d
        self._blocks = tuple((self.of(b.lo), self.of(b.hi)) for b in t.blocks)
        self._values: dict[int, Fraction] = {}

    def of(self, v: Fraction) -> int:
        return _numerator(v, self.d)

    def value(self, k: int) -> Fraction:
        return Fraction(k, self.d)

    def piece(self, v: int) -> tuple[int, int]:
        """(lo, hi) of the block [lo, hi) that holds v, or (v, v) when
        none does: with v fixed, & is three integer pieces (``op``)."""
        for lo, hi in self._blocks:
            if lo <= v < hi:
                return lo, hi
        return v, v

    def op(self, x: int, y: int) -> int:
        """x & y on numerators, unchecked: for (lo, hi) = ``piece(y)``, y
        when x >= hi, x when x < lo, else max(x + y - hi, lo), which is
        ``TNorm._and`` scaled by d.  Off the block square & is min(x, y):
        x >= hi lies above the block or on its top, x < lo below it or in
        the block ending at lo = y, and a y in no [lo, hi) (every Godel
        value, a block's top) takes the minimum, as blocks do on edges."""
        lo, hi = self.piece(y)
        if x >= hi:
            return y
        if x < lo:
            return x
        v = x + y - hi
        return v if v > lo else lo

    def sqrt(self, x: int) -> int:
        """``sqrt_with`` on the grid: (x+hi)/2 for (lo, hi) = ``piece(x)``,
        which reads the upper block at a shared endpoint, and x in no
        block.  Exact as ``kernel_domain`` always doubles d: x, hi even."""
        return (x + self.piece(x)[1]) // 2

    def enter(self, e: Encoded) -> list[list[int]]:
        """Fresh lists, since the kernels write into their matrix."""
        s = self.d // e.d
        return [[x * s for x in row] for row in e.numerators]

    def leave(self, m) -> tuple[tuple[Fraction, ...], ...]:
        values, d = self._values, self.d
        for k in set().union(*m).difference(values):
            values[k] = Fraction(k, d)
        return tuple([tuple(map(values.__getitem__, row)) for row in m])


def kernel_domain(t: TNorm, d: int) -> FractionDomain | GridDomain:
    """The exact domain a kernel runs in over t, for values whose
    denominators all divide d: the lcm of a matrix's ``Encoded.d`` and
    the denominators of the constants it compares against (K endpoints,
    explicit coordinates).  The norm's Fraction domain when t has a product
    block, whose & leaves every grid; else the grid whose d is twice the
    lcm of d and the block endpoints' denominators, so that the band's
    square root (x+hi)/2 stays on it.  Both are kept on the norm, so a
    domain is built and compiled once and a call only looks it up.  No
    size threshold: integers stay exact at any size."""
    base = t._grid_lcm
    if base is None:
        return t._fractions
    d = 2 * math.lcm(base, d)
    dom = t._domains.get(d)
    if dom is None:
        dom = t._domains[d] = GridDomain(t, d)
    return dom


def tnorm_eval(t: TNorm, x, y) -> Fraction:
    """Exact value of x & y, for any x, y in [0, 1] that ``Fraction``
    accepts (see ``TNorm._and`` for the formulas)."""
    return t._and(unit(x), unit(y))


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
    """The rational square root of v >= 0, or None when it is irrational."""
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
    for each Lukasiewicz block [a, b], the lower half [a, (a+b)/2].
    Built once per norm and kept on it (``TNorm._m``)."""
    return t._m


class CheckResult(Frozen):
    """Outcome of a decidable verification; witness explains a failure."""

    _fields = ("passed", "message", "witness")

    def __init__(self, passed: bool, message: str = "", witness: tuple | None = None):
        self.__dict__.update(passed=passed, message=message, witness=witness)

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
    """Exact (x, y) in comp1 x comp2 with x & y = target, for a target
    between lo1 & lo2 and hi1 & hi2.  Walks the monotone boundary path
    (lo1 fixed, then hi2 fixed), solving the remaining coordinate with
    the residual, which is rational.

    For a continuous t-norm a & (a -> t) = min(a, t).  With lo1 fixed,
    target <= lo1 & hi2 <= lo1, so lo1 & (lo1 -> target) = target; the
    residual is >= lo2 as lo1 & lo2 <= target, and a clamp down to hi2
    happens only when lo1 & hi2 <= target, that is equality.  With hi2
    fixed, target <= hi1 & hi2 <= hi2 and lo1 & hi2 < target, so the
    same holds with the clamp to [lo1, hi1]."""
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
    return (x, y)


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
