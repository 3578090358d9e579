"""Named verification suites behind the ``realcat verify`` command.

Each suite runs a batch of exact checks drawn from the library's
invariants and returns a :class:`Report`; each case records the first
failure in its scan order (:meth:`Report.check`).  Suites are
deterministic: random sampling uses fixed seeds and witnesses are minima
under the documented orders, so reports are byte-stable for identical
inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Sequence

from . import subconstructs as sub
from . import yoneda
from .intervals import IntervalSet
from .qcat import (
    QCat,
    enumerate_functors,
    hom_power,
    hom_tensor,
    product,
    tensor,
    tensor_transpose,
    tensor_untranspose,
    validate_qcat,
)
from .serialize import Report
from .subconstructs import CRISP
from .tnorm import (
    BUILTIN_NORMS,
    TNorm,
    godel,
    idempotent_set,
    lukasiewicz,
    m_set,
    meet_residual,
    remark4,
    subquantale_check,
    tnorm_eval,
    tnorm_residual,
)
from .tnorm import product as product_norm
from .values import ONE, SAMPLE_DENOMINATOR, ZERO, Record, format_rat


class WorkspaceConfig(Record):
    """The t-norm that ``realcat verify`` hands a suite (by default a
    new lukasiewicz())."""

    _fields = ("tnorm",)

    def __init__(self, tnorm: TNorm | None = None):
        self.tnorm = lukasiewicz() if tnorm is None else tnorm


def _rand_unit(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_category(
    rng: random.Random,
    t: TNorm,
    values: Sequence[Fraction],
    size: int,
) -> QCat:
    """Rejection-sample a valid category with entries from the value
    list.  Small sizes and coarse values keep acceptance high."""
    points = tuple(f"p{i}" for i in range(size))
    for _ in range(10_000):
        matrix = tuple(
            tuple(
                ONE if i == j else rng.choice(values) for j in range(size)
            )
            for i in range(size)
        )
        c = QCat(t, points, matrix)
        if validate_qcat(c):
            return c
    raise RuntimeError("could not sample a valid category")


def all_categories(t: TNorm, values: Sequence[Fraction], size: int):
    """Every valid category on `size` points with off-diagonal entries
    from the value list, in lexicographic matrix order."""
    points = tuple(f"p{i}" for i in range(size))
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    for combo in itertools.product(values, repeat=len(slots)):
        matrix = [[ONE] * size for _ in range(size)]
        for (i, j), v in zip(slots, combo):
            matrix[i][j] = v
        c = QCat(t, points, tuple(tuple(row) for row in matrix))
        if validate_qcat(c):
            yield c


# ---------------------------------------------------------------------------
# suites


def _monoid_failures(t: TNorm, rng: random.Random):
    for _ in range(2000):
        x, y, z = (_rand_unit(rng, 60) for _ in range(3))
        if tnorm_eval(t, x, y) != tnorm_eval(t, y, x):
            yield f"commutativity at ({x},{y})"
        if tnorm_eval(t, x, tnorm_eval(t, y, z)) != tnorm_eval(
            t, tnorm_eval(t, x, y), z
        ):
            yield f"associativity at ({x},{y},{z})"
        if y <= z and tnorm_eval(t, x, y) > tnorm_eval(t, x, z):
            yield f"monotonicity at ({x},{y},{z})"
        if tnorm_eval(t, x, ONE) != x:
            yield f"unit at {x}"


def _separation_failures(t: TNorm, rng: random.Random):
    idempotents = idempotent_set(t).sample(24)
    for _ in range(1000):
        p = rng.choice(idempotents)
        x = _rand_unit(rng, 60) * p  # x <= p
        y = p + _rand_unit(rng, 60) * (ONE - p)  # y >= p
        if tnorm_eval(t, x, y) != min(x, y):
            yield f"x={x}, p={p}, y={y}"


def suite_tnorm_laws(config: WorkspaceConfig) -> Report:
    rep = Report("tnorm_laws")
    rng = random.Random(20240901)
    for name, maker in sorted(BUILTIN_NORMS.items()):
        t = maker()
        rep.check(f"{name}: monoid laws on random triples", _monoid_failures(t, rng))
        rep.check(
            f"{name}: idempotent separation gives the meet",
            _separation_failures(t, rng),
        )
    return rep


def _distribution_failures(rng: random.Random):
    for _ in range(500):
        x = _rand_unit(rng, 40)
        family = [_rand_unit(rng, 40) for _ in range(rng.randint(1, 5))]
        if meet_residual(x, min(family)) != min(meet_residual(x, v) for v in family):
            yield f"meet law at x={x}, family={family}"
        if meet_residual(max(family), x) != min(meet_residual(v, x) for v in family):
            yield f"join law at x={x}, family={family}"


def _residual_failures(t: TNorm, grid: Sequence[Fraction]):
    for x, y in itertools.product(grid, repeat=2):
        res = tnorm_residual(t, x, y)
        if tnorm_eval(t, x, res) > y:
            yield f"residual unsound at ({x},{y})"
        for z in grid:
            if (tnorm_eval(t, x, z) <= y) != (z <= res):
                yield f"residual adjunction at ({x},{y},{z})"


def suite_resd_prop(config: WorkspaceConfig) -> Report:
    rep = Report("resd_prop")
    grid = IntervalSet.full().sample(SAMPLE_DENOMINATOR)
    rep.check(
        "meet residual adjunction on the grid cube",
        (
            f"adjunction at ({x},{y},{z})"
            for x, y, z in itertools.product(grid, repeat=3)
            if (min(x, y) <= z) != (y <= meet_residual(x, z))
        ),
    )
    rep.check(
        "residual distributes over finite meets and joins",
        _distribution_failures(random.Random(7)),
    )
    t = config.tnorm
    rep.check(
        f"{t}: t-norm residual adjunction on the grid", _residual_failures(t, grid)
    )
    return rep


L3 = IntervalSet.of([0, Fraction(1, 2), 1])


def suite_suitable(config: WorkspaceConfig) -> Report:
    rep = Report("suitable")
    luk = lukasiewicz()
    named = [
        ("K^2 over L3", sub.k_square(luk, L3)),
        ("K_diag over L3", sub.k_diagonal(luk, L3)),
        ("K^2 over {0,1}", sub.k_square(luk, CRISP)),
        ("K_diag over {0,1}", sub.k_diagonal(luk, CRISP)),
        ("sqrt band", sub.sqrt_band(luk)),
    ]
    for name, s in named:
        res = sub.check_suitable(s)
        rep.record(f"{name} passes S1-S3", res.passed, res.message)

    h, q = Fraction(1, 2), Fraction(1, 4)
    broken = [
        ("missing swap", sub.explicit(luk, [(0, 0), (1, 1), (h, 1)]), "S2"),
        (
            "missing join",
            sub.explicit(luk, [(0, 0), (1, 1), (h, 0), (0, h)]),
            "S1",
        ),
        (
            "missing meet",
            sub.explicit(
                luk, [(0, 0), (1, 1), (0, 1), (1, 0), (h, 1), (1, h)]
            ),
            "S1",
        ),
        (
            "missing tensor image",
            sub.explicit(
                luk,
                [(0, 0), (1, 1), (Fraction(3, 4), Fraction(3, 4))],
            ),
            "S3",
        ),
        (
            "missing tensor of mixed pair",
            sub.explicit(
                luk,
                [(0, 0), (1, 1), (h, h), (Fraction(3, 4), Fraction(3, 4)),
                 (h, Fraction(3, 4)), (Fraction(3, 4), h)],
            ),
            "S3",
        ),
    ]
    for name, s, axiom in broken:
        res = sub.check_suitable(s)
        caught = (not res.passed) and res.message.startswith(axiom)
        rep.record(
            f"broken set ({name}) fails with {axiom}", caught, res.message
        )
    return rep


def ccc_test_matrix() -> list[tuple[str, TNorm, IntervalSet]]:
    """The (t-norm, K) pairs exercised by the equivalence suite.  Each
    K is a finite complete subquantale of its norm."""
    eighth = [Fraction(k, 8) for k in range(9)]
    luk, god, prod, rm4 = lukasiewicz(), godel(), product_norm(), remark4()
    return [
        ("lukasiewicz / L3", luk, L3),
        ("lukasiewicz / {0,1}", luk, CRISP),
        ("lukasiewicz / eighths", luk, IntervalSet.of(eighth)),
        ("godel / eighths", god, IntervalSet.of(eighth)),
        ("product / {0,1}", prod, CRISP),
        (
            "remark4 / {0,1/2,5/8,3/4,1}",
            rm4,
            IntervalSet.of(
                [0, Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), 1]
            ),
        ),
        (
            "remark4 / with 7/8",
            rm4,
            IntervalSet.of(
                [0, Fraction(1, 2), Fraction(5, 8), Fraction(3, 4),
                 Fraction(7, 8), 1]
            ),
        ),
    ]


def suite_ccc_equivalence(config: WorkspaceConfig) -> Report:
    rep = Report("ccc_equivalence")
    for name, t, k in ccc_test_matrix():
        sq = subquantale_check(t, k)
        if not sq.passed:
            rep.error(name, f"not a subquantale: {sq.message}")
            continue
        criterion = sub.ccc_criterion(t, k)
        identity = sub.ccc_identity_check(t, k, k.sample(8))
        rep.record(
            f"{name}: identity check agrees with criterion "
            f"(criterion={criterion})",
            criterion == identity.passed,
            identity.message,
            witness=[format_rat(w) for w in identity.witness]
            if identity.witness
            else None,
        )
    return rep


def _power_failures(luk: TNorm, rng: random.Random):
    values = [ZERO, Fraction(1, 4), Fraction(1, 2), ONE]  # inside M, also the grid
    for i in range(10):
        c = random_category(rng, luk, values, rng.randint(2, 3))
        res = sub.power_existence_check(c, m_set(luk), values)
        if not res.passed:
            yield f"instance {i}: {res.message}"


def suite_power_existence(config: WorkspaceConfig) -> Report:
    rep = Report("power_existence")
    luk = lukasiewicz()
    rep.check(
        "M-valued categories satisfy the inequality",
        _power_failures(luk, random.Random(11)),
    )

    k5 = IntervalSet.of([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
    c = QCat(
        luk,
        ("0", "1"),
        ((ONE, Fraction(1, 2)), (Fraction(1, 2), ONE)),
    )
    res = sub.power_existence_check(c, k5, list(k5.finite_members()))
    rep.record(
        "half/half two-point category fails over the 3/4 grid",
        not res.passed
        and res.witness == (Fraction(3, 4), Fraction(3, 4), "0", "1"),
        res.message,
    )
    return rep


def _tensor_hom_failures(t: TNorm, rng: random.Random):
    values = [ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE]
    for i in range(8):
        a = random_category(rng, t, values, 2)
        b = random_category(rng, t, values, 2)
        c = random_category(rng, t, values, rng.randint(1, 2))
        ab = tensor(a, b)
        direct = enumerate_functors(ab, c)
        hom = hom_tensor(b, c)
        curried = enumerate_functors(a, hom)
        if len(direct) != len(curried):
            yield f"instance {i}: {len(direct)} != {len(curried)}"
        transposed = [tensor_transpose(a, b, c, f) for f in direct]
        if {g.mapping for g in transposed} != {g.mapping for g in curried}:
            yield f"instance {i}: transposition not a bijection"
        back = [tensor_untranspose(a, b, c, g).mapping for g in transposed]
        if back != [f.mapping for f in direct]:
            yield f"instance {i}: transpose not involutive"
        if not validate_qcat(ab) or not validate_qcat(hom):
            yield f"instance {i}: construction invalid"


def suite_monoidal(config: WorkspaceConfig) -> Report:
    rep = Report("monoidal")
    rep.check(
        "tensor-hom adjunction via canonical transposition",
        _tensor_hom_failures(config.tnorm, random.Random(23)),
    )
    return rep


def _exponential_failures(t: TNorm, rng: random.Random):
    values = sorted(set(m_set(t).sample(4)))
    for i in range(10):
        a = random_category(rng, t, values, 2)
        b = random_category(rng, t, values, 2)
        c = random_category(rng, t, values, 2)
        direct = enumerate_functors(product(a, c), b)
        curried = enumerate_functors(c, hom_power(a, b))
        if len(direct) != len(curried):
            yield f"instance {i}: {len(direct)} != {len(curried)}"
        back = [yoneda.uncurry(a, c, b, yoneda.curry(a, c, b, f)) for f in direct]
        if [g.mapping for g in back] != [f.mapping for f in direct]:
            yield f"instance {i}: curry/uncurry not inverse"
        ev = yoneda.check_ev(a, b)
        if not ev.passed:
            yield f"instance {i}: {ev.message}"


def suite_exponential_law(config: WorkspaceConfig) -> Report:
    rep = Report("exponential_law")
    rep.check(
        "exponential law and evaluation functor",
        _exponential_failures(config.tnorm, random.Random(37)),
    )
    return rep


def _limit_failures(sequences):
    for s in sequences:
        c = s.ambient
        lim = yoneda.yoneda_limits(s)
        if not lim:
            yield f"empty limit set on {c.matrix}"
        if any(c.r(p, q) != ONE for p in lim for q in lim):
            yield "limits not mutually at 1"
        for f in enumerate_functors(c, c):
            img = yoneda.FCSequence(c, (), tuple(map(f, s.cycle)))
            if not yoneda.is_forward_cauchy(img):
                yield "functor image not Cauchy"
            elif not set(map(f, lim)) <= set(yoneda.yoneda_limits(img)):
                yield "functor does not preserve limits"


def suite_yoneda(config: WorkspaceConfig) -> Report:
    rep = Report("yoneda")
    luk = lukasiewicz()
    sequences = [
        s
        for c in all_categories(luk, [ZERO, Fraction(1, 2), ONE], 2)
        for n in (1, 2)
        for cyc in itertools.product(c.points, repeat=n)
        if yoneda.is_forward_cauchy(s := yoneda.FCSequence(c, (), cyc))
    ]
    rep.check(
        f"limits on all two-point L3 categories ({len(sequences)} sequences)",
        _limit_failures(sequences),
    )

    a = QCat(luk, ("0", "1"), ((ONE, Fraction(1, 2)), (Fraction(1, 2), ONE)))
    hom = hom_power(a, a)
    cycles = [
        (f, g)
        for f, g in itertools.product(hom.points, repeat=2)
        if hom.r(f, g) == hom.r(g, f) == ONE
    ]
    rep.check(
        f"function space limit law on {len(cycles)} mutual-1 functor cycles",
        (
            "limit escaped the cycle class"
            for cycle in cycles
            if yoneda.function_space_limit(a, a, (), cycle).mapping not in cycle
        ),
    )
    return rep


def suite_approx(config: WorkspaceConfig) -> Report:
    rep = Report("approx")
    expected = {
        "godel": 2,
        "lukasiewicz": 1,
        "product": 1,
        "remark4": 1,
    }
    for name in sorted(expected):
        t = BUILTIN_NORMS[name]()
        r = yoneda.approx_property(t)
        rep.record(
            f"{name}: case {r.case}, sup {format_rat(r.supremum)}",
            r.passed and r.case == expected[name],
        )
    return rep


SUITES: dict[str, Callable[[WorkspaceConfig], Report]] = {
    "tnorm_laws": suite_tnorm_laws,
    "resd_prop": suite_resd_prop,
    "suitable": suite_suitable,
    "ccc_equivalence": suite_ccc_equivalence,
    "power_existence": suite_power_existence,
    "monoidal": suite_monoidal,
    "exponential_law": suite_exponential_law,
    "yoneda": suite_yoneda,
    "approx": suite_approx,
}


def run_suite(name: str, config: WorkspaceConfig) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config)
