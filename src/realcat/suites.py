"""Named verification suites behind the ``realcat verify`` command.

Each suite runs a batch of exact checks drawn from the library's
invariants and returns a :class:`Report`.  Suites are deterministic:
random sampling uses fixed seeds and witnesses are minima under the
documented orders, so reports are byte-stable for identical inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
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
from .values import ONE, SAMPLE_DENOMINATOR, ZERO, format_rat, uniform_grid


@dataclass
class WorkspaceConfig:
    """The t-norm that ``realcat verify`` hands a suite."""

    tnorm: TNorm = field(default_factory=lukasiewicz)


@dataclass
class Report:
    """Machine-readable outcome of one suite run."""

    suite: str
    cases: list = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "", witness=None):
        self.cases.append(
            {
                "name": name,
                "status": "pass" if passed else "fail",
                "detail": detail,
                "witness": witness,
            }
        )

    def error(self, name: str, detail: str):
        self.cases.append(
            {"name": name, "status": "error", "detail": detail, "witness": None}
        )

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "error": 0}
        for c in self.cases:
            counts[c["status"]] += 1
        return counts

    @property
    def passed(self) -> bool:
        s = self.summary
        return s["fail"] == 0 and s["error"] == 0

    def to_obj(self) -> dict:
        return {"suite": self.suite, "cases": self.cases, "summary": self.summary}

    def to_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.cases:
            mark = {"pass": "ok  ", "fail": "FAIL", "error": "ERR "}[c["status"]]
            detail = f"  ({c['detail']})" if c["detail"] else ""
            lines.append(f"  [{mark}] {c['name']}{detail}")
        s = self.summary
        lines.append(
            f"  {s['pass']} passed, {s['fail']} failed, {s['error']} errored"
        )
        return "\n".join(lines) + "\n"


def _rand_unit(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_category(
    rng: random.Random,
    t: TNorm,
    values: Sequence[Fraction],
    size: int,
    max_tries: int = 10000,
) -> QCat:
    """Rejection-sample a valid category with entries from the value
    list.  Small sizes and coarse values keep acceptance high."""
    points = tuple(f"p{i}" for i in range(size))
    for _ in range(max_tries):
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


def suite_tnorm_laws(config: WorkspaceConfig, triples: int = 2000) -> Report:
    rep = Report("tnorm_laws")
    rng = random.Random(20240901)
    for name, maker in sorted(BUILTIN_NORMS.items()):
        t = maker()
        ok = True
        detail = ""
        for _ in range(triples):
            x = _rand_unit(rng, 60)
            y = _rand_unit(rng, 60)
            z = _rand_unit(rng, 60)
            if tnorm_eval(t, x, y) != tnorm_eval(t, y, x):
                ok, detail = False, f"commutativity at ({x},{y})"
                break
            if tnorm_eval(t, x, tnorm_eval(t, y, z)) != tnorm_eval(
                t, tnorm_eval(t, x, y), z
            ):
                ok, detail = False, f"associativity at ({x},{y},{z})"
                break
            if y <= z and tnorm_eval(t, x, y) > tnorm_eval(t, x, z):
                ok, detail = False, f"monotonicity at ({x},{y},{z})"
                break
            if tnorm_eval(t, x, ONE) != x:
                ok, detail = False, f"unit at {x}"
                break
        rep.record(f"{name}: monoid laws on random triples", ok, detail)

        idm = idempotent_set(t)
        ok, detail = True, ""
        for _ in range(triples // 2):
            p = rng.choice(idm.sample(24))
            x = _rand_unit(rng, 60) * p  # x <= p
            y = p + _rand_unit(rng, 60) * (ONE - p)  # y >= p
            if tnorm_eval(t, x, y) != min(x, y):
                ok, detail = False, f"x={x}, p={p}, y={y}"
                break
        rep.record(f"{name}: idempotent separation gives the meet", ok, detail)
    return rep


def suite_resd_prop(config: WorkspaceConfig) -> Report:
    rep = Report("resd_prop")
    grid = uniform_grid(SAMPLE_DENOMINATOR)
    ok, detail = True, ""
    for x in grid:
        for y in grid:
            for z in grid:
                if (min(x, y) <= z) != (y <= meet_residual(x, z)):
                    ok, detail = False, f"adjunction at ({x},{y},{z})"
                    break
    rep.record("meet residual adjunction on the grid cube", ok, detail)

    rng = random.Random(7)
    ok, detail = True, ""
    for _ in range(500):
        x = _rand_unit(rng, 40)
        family = [_rand_unit(rng, 40) for _ in range(rng.randint(1, 5))]
        lhs = meet_residual(x, min(family))
        rhs = min(meet_residual(x, xi) for xi in family)
        if lhs != rhs:
            ok, detail = False, f"meet law at x={x}, family={family}"
            break
        lhs = meet_residual(max(family), x)
        rhs = min(meet_residual(xi, x) for xi in family)
        if lhs != rhs:
            ok, detail = False, f"join law at x={x}, family={family}"
            break
    rep.record("residual distributes over finite meets and joins", ok, detail)

    t = config.tnorm
    ok, detail = True, ""
    for x in grid:
        for y in grid:
            res = tnorm_residual(t, x, y)
            if tnorm_eval(t, x, res) > y:
                ok, detail = False, f"residual unsound at ({x},{y})"
                break
            for z in grid:
                if (tnorm_eval(t, x, z) <= y) != (z <= res):
                    ok, detail = False, f"residual adjunction at ({x},{y},{z})"
                    break
    rep.record(f"{t}: t-norm residual adjunction on the grid", ok, detail)
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


def suite_power_existence(config: WorkspaceConfig) -> Report:
    rep = Report("power_existence")
    luk = lukasiewicz()
    rng = random.Random(11)
    m_values = [ZERO, Fraction(1, 4), Fraction(1, 2), ONE]  # inside M
    grid = [ZERO, Fraction(1, 4), Fraction(1, 2), ONE]
    ok, detail = True, ""
    for i in range(10):
        c = random_category(rng, luk, m_values, rng.randint(2, 3))
        res = sub.power_existence_check(c, m_set(luk), grid)
        if not res.passed:
            ok, detail = False, f"instance {i}: {res.message}"
            break
    rep.record("M-valued categories satisfy the inequality", ok, detail)

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


def suite_monoidal(config: WorkspaceConfig) -> Report:
    rep = Report("monoidal")
    t = config.tnorm
    rng = random.Random(23)
    values = [ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE]
    ok, detail = True, ""
    for i in range(8):
        a = random_category(rng, t, values, 2)
        b = random_category(rng, t, values, 2)
        c = random_category(rng, t, values, rng.randint(1, 2))
        ab = tensor(a, b)
        direct = enumerate_functors(ab, c)
        hom = hom_tensor(b, c)
        curried = enumerate_functors(a, hom)
        if len(direct) != len(curried):
            ok, detail = False, f"instance {i}: {len(direct)} != {len(curried)}"
            break
        transposed = {
            tensor_transpose(a, b, c, f).mapping for f in direct
        }
        if transposed != {g.mapping for g in curried}:
            ok, detail = False, f"instance {i}: transposition not a bijection"
            break
        for f in direct:
            g = tensor_transpose(a, b, c, f)
            if tensor_untranspose(a, b, c, g).mapping != f.mapping:
                ok, detail = False, f"instance {i}: transpose not involutive"
                break
        if not ok:
            break
        if not validate_qcat(ab) or not validate_qcat(hom):
            ok, detail = False, f"instance {i}: construction invalid"
            break
    rep.record("tensor-hom adjunction via canonical transposition", ok, detail)
    return rep


def suite_exponential_law(config: WorkspaceConfig) -> Report:
    rep = Report("exponential_law")
    t = config.tnorm
    m = m_set(t)
    values = sorted(set(m.sample(4)))
    rng = random.Random(37)
    ok, detail = True, ""
    for i in range(10):
        a = random_category(rng, t, values, 2)
        b = random_category(rng, t, values, 2)
        c = random_category(rng, t, values, 2)
        ac = product(a, c)
        direct = enumerate_functors(ac, b)
        hom = hom_power(a, b)
        curried = enumerate_functors(c, hom)
        if len(direct) != len(curried):
            ok, detail = False, f"instance {i}: {len(direct)} != {len(curried)}"
            break
        for f in direct:
            g = yoneda.curry(a, c, b, f)
            back = yoneda.uncurry(a, c, b, g)
            if back.mapping != f.mapping:
                ok, detail = False, f"instance {i}: curry/uncurry not inverse"
                break
        if not ok:
            break
        ev = yoneda.check_ev(a, b)
        if not ev.passed:
            ok, detail = False, f"instance {i}: {ev.message}"
            break
    rep.record("exponential law and evaluation functor", ok, detail)
    return rep


def suite_yoneda(config: WorkspaceConfig) -> Report:
    rep = Report("yoneda")
    luk = lukasiewicz()
    values = [ZERO, Fraction(1, 2), ONE]
    ok, detail, checked = True, "", 0
    for c in all_categories(luk, values, 2):
        for cyc_len in (1, 2):
            for cyc in itertools.product(c.points, repeat=cyc_len):
                s = yoneda.FCSequence(c, (), cyc)
                if not yoneda.is_forward_cauchy(s):
                    continue
                checked += 1
                lim = yoneda.yoneda_limits(s)
                if not lim.points:
                    ok, detail = False, f"empty limit set on {c.matrix}"
                    break
                for p in lim.points:
                    for q in lim.points:
                        if c.r(p, q) != ONE:
                            ok, detail = False, "limits not mutually at 1"
                            break
                for f in enumerate_functors(c, c):
                    img = yoneda.FCSequence(c, (), tuple(f(p) for p in cyc))
                    if not yoneda.is_forward_cauchy(img):
                        ok, detail = False, "functor image not Cauchy"
                        break
                    img_lims = yoneda.yoneda_limits(img).points
                    if any(f(p) not in img_lims for p in lim.points):
                        ok, detail = False, "functor does not preserve limits"
                        break
            if not ok:
                break
        if not ok:
            break
    rep.record(
        f"limits on all two-point L3 categories ({checked} sequences)",
        ok,
        detail,
    )

    ok, detail = True, ""
    a = QCat(luk, ("0", "1"), ((ONE, Fraction(1, 2)), (Fraction(1, 2), ONE)))
    hom = hom_power(a, a)
    pairs = 0
    for f in hom.points:
        for g in hom.points:
            if hom.r(f, g) == ONE and hom.r(g, f) == ONE:
                lim = yoneda.function_space_limit(a, a, (), (f, g))
                pairs += 1
                if lim.mapping not in (f, g):
                    ok, detail = False, "limit escaped the cycle class"
    rep.record(
        f"function space limit law on {pairs} mutual-1 functor cycles",
        ok,
        detail,
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
