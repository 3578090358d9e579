"""Acceptance suite: the ten headline guarantees, one test (and one
printed pass/fail line) each.  Everything here is exact rational
arithmetic; the brute-force oracles are independent of the library
code they check."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from realcat import ccc, cli
from realcat import serialize as ser
from realcat import subconstructs as sub
from realcat import yoneda
from realcat.functors import enumerate_functors, hom_power, hom_tensor, product
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, final_lift, validate_qcat
from realcat.suites import (
    WorkspaceConfig,
    ccc_test_matrix,
    random_category,
    run_suite,
)
from realcat.tnorm import (
    godel,
    idempotent_set,
    lukasiewicz,
    m_set,
    remark4,
    tnorm_eval,
    tnorm_residual,
)
from realcat.tnorm import product as product_norm
from realcat.values import ONE, ZERO

LUK = lukasiewicz()
GOD = godel()
PROD = product_norm()
RM4 = remark4()


@pytest.fixture
def announce(capfd):
    def _announce(number, label, passed):
        with capfd.disabled():
            verdict = "PASS" if passed else "FAIL"
            print(f"[ACCEPTANCE {number:2d}] {verdict}: {label}")
        assert passed, f"acceptance criterion {number} failed: {label}"

    return _announce


def test_criterion_01_m_set_closed_forms(announce):
    """M reproduces the four closed forms exactly."""
    ok = (
        m_set(GOD) == IntervalSet.of([(0, 1)])
        and m_set(PROD) == IntervalSet.of([0, 1])
        and m_set(LUK) == IntervalSet.of([(0, F(1, 2)), 1])
        and m_set(RM4) == IntervalSet.of([0, (F(1, 2), F(3, 4)), 1])
    )
    announce(1, "M-set closed forms for the four built-in norms", ok)


def test_criterion_02_ccc_equivalence(announce):
    """Criterion <=> exhaustive identity check over >= 6 (t, K) pairs."""
    matrix = ccc_test_matrix()
    ok = len(matrix) >= 6
    outcomes = set()
    for name, t, k in matrix:
        criterion = ccc.ccc_criterion(t, k)
        identity = ccc.ccc_identity_check(t, k, k.sample(8))
        ok = ok and (criterion == identity.passed)
        outcomes.add(criterion)
    ok = ok and outcomes == {True, False}  # both verdicts exercised
    announce(
        2,
        f"CCC criterion agrees with the identity check on "
        f"{len(matrix)} (t-norm, K) pairs",
        ok,
    )


def test_criterion_03_witness_construction(announce, tmp_path, capfd):
    """cmd_witness pins (3/4, 3/4, 1/2) and the final lift reproduces
    the right-hand side of the identity."""
    k5 = IntervalSet.of([0, F(1, 4), F(1, 2), F(3, 4), 1])
    k_path = tmp_path / "k.json"
    k_path.write_text(ser.dumps(ser.intervalset_to_obj(k5)))
    out_path = tmp_path / "w.json"
    code = cli.main(
        ["witness", "--k", str(k_path), "--out", str(out_path)]
    )
    capfd.readouterr()
    import json

    emitted = json.loads(out_path.read_text())
    ok = code == 1
    ok = ok and (emitted["u"], emitted["v"], emitted["r"]) == (
        "3/4",
        "3/4",
        "1/2",
    )
    ok = ok and emitted["lhs"] == "1/2" and emitted["rhs"] == "1/4"

    # independent re-derivation of both sides from the construction
    u = v = F(3, 4)
    r = F(1, 2)
    w = ccc.ccc_witness(LUK, u, v, r)
    ad = product(w.cat_a, w.cat_d)
    ab = product(w.cat_a, w.cat_b)
    ac = product(w.cat_a, w.cat_c)
    lifted = final_lift(
        LUK,
        [(ab, {p: p for p in ab.points}), (ac, {p: p for p in ac.points})],
        ad.points,
    )
    lhs = ad.r(("0", "x"), ("1", "y"))
    rhs = lifted.r(("0", "x"), ("1", "y"))
    expected_rhs = max(
        tnorm_eval(LUK, min(u, r), v), tnorm_eval(LUK, min(v, r), u)
    )
    ok = ok and lhs == min(tnorm_eval(LUK, u, v), r) == F(1, 2)
    ok = ok and rhs == expected_rhs == F(1, 4)
    announce(3, "witness (3/4,3/4,1/2) with final-lift confirmation", ok)


def test_criterion_04_power_object_laws(announce):
    """hom_power on 20 random pairs: valid, K-valued, below hom_tensor."""
    rng = random.Random(404)
    k_values = [ZERO, F(1, 2), ONE]
    ok = True
    for _ in range(20):
        a = random_category(rng, LUK, k_values, rng.randint(2, 3))
        b = random_category(rng, LUK, k_values, rng.randint(2, 3))
        hp = hom_power(a, b)
        ht = hom_tensor(a, b)
        ok = ok and validate_qcat(hp).passed
        ok = ok and all(
            v in (ZERO, F(1, 2), ONE) for row in hp.matrix for v in row
        )
        n = len(hp.points)
        ok = ok and all(
            hp.matrix[i][j] <= ht.matrix[i][j]
            for i in range(n)
            for j in range(n)
        )
        if not ok:
            break
    announce(4, "power-object laws on 20 random category pairs", ok)


def test_criterion_05_exponential_law(announce):
    """|[A x C, B]| = |[C, [A, B]]| with inverse transpositions on 10
    M-valued triples."""
    rng = random.Random(505)
    m_values = [ZERO, F(1, 4), F(1, 2), ONE]
    ok = True
    for _ in range(10):
        a = random_category(rng, LUK, m_values, 2)
        b = random_category(rng, LUK, m_values, 2)
        c = random_category(rng, LUK, m_values, 2)
        ac = product(a, c)
        direct = enumerate_functors(ac, b)
        hom = hom_power(a, b)
        curried = enumerate_functors(c, hom)
        ok = ok and len(direct) == len(curried)
        images = set()
        for f in direct:
            g = yoneda.curry(a, c, b, f)
            ok = ok and yoneda.uncurry(a, c, b, g).mapping == f.mapping
            images.add(g.mapping)
        ok = ok and images == {g.mapping for g in curried}
        ok = ok and yoneda.check_ev(a, b).passed
        if not ok:
            break
    announce(5, "exponential law on 10 M-valued triples", ok)


# --- criterion 6: brute-force reflector/coreflector universal properties


SLOTS3 = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
SLOTS2 = [(0, 1), (1, 0)]


def _enum_valid(num_values, base, slots, size):
    """Integer matrices (value k/base as k) of all valid categories."""
    grids = np.meshgrid(
        *([np.arange(num_values, dtype=np.int16)] * len(slots)),
        indexing="ij",
    )
    e = np.stack([g.ravel() for g in grids], axis=1)
    col = {s: c for c, s in enumerate(slots)}

    def entry(i, j):
        if i == j:
            return np.full(len(e), base, dtype=np.int16)
        return e[:, col[(i, j)]]

    ok = np.ones(len(e), dtype=bool)
    for i, j, k in itertools.product(range(size), repeat=3):
        ok &= (entry(j, k) + entry(i, j) - base) <= entry(i, k)
    return e[ok]


def _in_s_mask(e, s, base, slots):
    """Rows whose symmetric value pairs all lie in the suitable set."""
    col = {sl: c for c, sl in enumerate(slots)}
    ok = np.ones(len(e), dtype=bool)
    seen = set()
    for (i, j) in slots:
        if (j, i) in seen:
            continue
        seen.add((i, j))
        a, b = e[:, col[(i, j)]], e[:, col[(j, i)]]
        if s.variant is sub.SuitableVariant.K_SQUARE:
            members = np.array(
                [F(v, base) in s.k for v in range(base + 1)]
            )
            ok &= members[a] & members[b]
        elif s.variant is sub.SuitableVariant.K_DIAGONAL:
            members = np.array(
                [F(v, base) in s.k for v in range(base + 1)]
            )
            ok &= (a == b) & members[a]
        else:  # sqrt band, Galois form
            ok &= np.maximum(2 * a - base, 0) <= b
            ok &= np.maximum(2 * b - base, 0) <= a
    return ok


def _as_row(c, base, slots):
    return np.array(
        [int(c.matrix[i][j] * base) for (i, j) in slots], dtype=np.int16
    )


def _universal_ok(targets, lowers, uppers, cs, chunk=128):
    """C(r) <= r <= R(r), no Cat_S structure below r escapes C(r), and
    none above escapes R(r)."""
    if not ((lowers <= targets).all() and (targets <= uppers).all()):
        return False
    for start in range(0, len(targets), chunk):
        t = targets[start : start + chunk]
        lo = lowers[start : start + chunk]
        up = uppers[start : start + chunk]
        below = (cs[None, :, :] <= t[:, None, :]).all(-1)
        bounded = (cs[None, :, :] <= lo[:, None, :]).all(-1)
        if (below & ~bounded).any():
            return False
        above = (cs[None, :, :] >= t[:, None, :]).all(-1)
        bounded = (cs[None, :, :] >= up[:, None, :]).all(-1)
        if (above & ~bounded).any():
            return False
    return True


def test_criterion_06_reflector_universal_properties(announce):
    k5 = IntervalSet.of([0, F(1, 4), F(1, 2), F(3, 4), 1])
    variants = [
        ("K^2", sub.k_square(LUK, k5), 4),
        ("K_diag", sub.k_diagonal(LUK, k5), 4),
        # sqrt values of quarters are eighths; the closure is the
        # eighth grid, so candidates range over denominator 8
        ("sqrt band", sub.sqrt_band(LUK), 8),
    ]
    ok = True
    for size, slots in ((2, SLOTS2), (3, SLOTS3)):
        quarters = _enum_valid(5, 4, slots, size)
        points = tuple(f"p{i}" for i in range(size))
        cats = []
        for row in quarters:
            matrix = [[ONE] * size for _ in range(size)]
            for (i, j), v in zip(slots, row.tolist()):
                matrix[i][j] = F(v, 4)
            cats.append(QCat(LUK, points, tuple(tuple(r) for r in matrix)))
        for label, s, base in variants:
            candidates = _enum_valid(base + 1, base, slots, size)
            cs = candidates[_in_s_mask(candidates, s, base, slots)]
            targets, lowers, uppers = [], [], []
            for c in cats:
                lower = sub.coreflect_c(s, c)
                upper = sub.reflect_r(s, c)
                ok = ok and validate_qcat(lower).passed
                ok = ok and validate_qcat(upper).passed
                ok = ok and sub.is_in_cat_s(s, lower)
                ok = ok and sub.is_in_cat_s(s, upper)
                targets.append(_as_row(c, base, slots))
                lowers.append(_as_row(lower, base, slots))
                uppers.append(_as_row(upper, base, slots))
            ok = ok and _universal_ok(
                np.array(targets), np.array(lowers), np.array(uppers), cs
            )
            assert ok, f"universal property broke for {label} at size {size}"
    announce(
        6,
        "C(r)/R(r) universal properties on all 2/3-point quarter-valued "
        "categories for K^2, K_diag and the sqrt band",
        ok,
    )


def test_criterion_07_suitability_closure(announce):
    report = run_suite("suitable", WorkspaceConfig())
    named = [c for c in report.cases if "passes S1-S3" in c["name"]]
    broken = [c for c in report.cases if "broken set" in c["name"]]
    ok = (
        report.passed
        and len(named) >= 5
        and len(broken) >= 5
        and all(c["status"] == "pass" for c in report.cases)
    )
    announce(
        7,
        f"suitability closure: {len(named)} canonical sets pass S1-S3 "
        "(K variants by the subquantale check, the sqrt band by proof), "
        f"{len(broken)} adversarial sets fail with the correct axiom",
        ok,
    )


def test_criterion_08_yoneda_suite(announce):
    values = [ZERO, F(1, 2), ONE]
    ok = True
    sequences = 0
    law_checks = 0
    for size in (1, 2, 3):
        slots = [
            (i, j) for i in range(size) for j in range(size) if i != j
        ]
        points = tuple(f"p{i}" for i in range(size))
        for combo in itertools.product(values, repeat=len(slots)):
            matrix = [[ONE] * size for _ in range(size)]
            for (i, j), v in zip(slots, combo):
                matrix[i][j] = v
            c = QCat(LUK, points, tuple(tuple(r) for r in matrix))
            if not validate_qcat(c):
                continue
            functors = enumerate_functors(c, c)
            for length in (1, 2, 3):
                for cyc in itertools.product(c.points, repeat=length):
                    s = yoneda.FCSequence(c, (), cyc)
                    if not yoneda.is_forward_cauchy(s):
                        continue
                    sequences += 1
                    lims = yoneda.yoneda_limits(s)
                    ok = ok and bool(lims)
                    ok = ok and all(
                        c.r(p, q) == ONE for p in lims for q in lims
                    )
                    for f in functors:
                        img = yoneda.FCSequence(
                            c, (), tuple(f(p) for p in cyc)
                        )
                        ok = ok and yoneda.is_forward_cauchy(img)
                        img_lims = yoneda.yoneda_limits(img)
                        ok = ok and all(f(p) in img_lims for p in lims)
                    if not ok:
                        break
            if not ok:
                break

            # function-space limit law in [c -> c]: the pointwise limit
            # L has d(L, h) = min(d(f, h), d(g, h)) for every functor h
            if size <= 2:
                hom = hom_power(c, c)
                for f, g in itertools.product(hom.points, repeat=2):
                    seq = yoneda.FCSequence(hom, (), (f, g))
                    if not yoneda.is_forward_cauchy(seq):
                        continue
                    lim = yoneda.function_space_limit(c, c, (), (f, g)).mapping
                    ok = ok and lim in hom.points and all(
                        hom.r(lim, h) == min(hom.r(f, h), hom.r(g, h))
                        for h in hom.points
                    )
                    law_checks += 1
        if not ok:
            break
    ok = ok and sequences > 1000 and law_checks >= 40
    announce(
        8,
        f"Yoneda suite: {sequences} Cauchy sequences over all L3 "
        f"categories up to 3 points, {law_checks} function-space "
        "limit-law checks",
        ok,
    )


def test_criterion_09_approx_property(announce):
    expected = {GOD: 2, LUK: 1, PROD: 1, RM4: 1}
    ok = True
    for t, case in expected.items():
        rep = yoneda.approx_property(t)
        ok = ok and rep.passed and rep.case == case and rep.supremum == ONE
    announce(
        9,
        "approximation property: sup 1 with cases (godel 2, others 1)",
        ok,
    )


def test_criterion_10_tnorm_kernel_laws(announce):
    rng = random.Random(1010)
    norms = [GOD, LUK, PROD, RM4]
    ok = True
    for t in norms:
        for _ in range(10**4):
            den = rng.randint(1, 64)
            x, y, z = (
                F(rng.randint(0, den), den) for _ in range(3)
            )
            ok = ok and tnorm_eval(t, x, y) == tnorm_eval(t, y, x)
            ok = ok and tnorm_eval(t, x, tnorm_eval(t, y, z)) == tnorm_eval(
                t, tnorm_eval(t, x, y), z
            )
            if y <= z:
                ok = ok and tnorm_eval(t, x, y) <= tnorm_eval(t, x, z)
            ok = ok and tnorm_eval(t, x, ONE) == x
            if not ok:
                break
        assert ok, f"monoid law failed for {t}"

        idm = idempotent_set(t).sample(16)
        for _ in range(10**3):
            p = rng.choice(idm)
            den = rng.randint(1, 64)
            x = F(rng.randint(0, den), den) * p
            y = p + F(rng.randint(0, den), den) * (ONE - p)
            ok = ok and tnorm_eval(t, x, y) == min(x, y)
        assert ok, f"idempotent separation failed for {t}"

    grid = [F(k, 64) for k in range(65)]
    for t in norms:
        for x in grid:
            for y in grid:
                res = tnorm_residual(t, x, y)
                # adjunction at the boundary decides it everywhere on
                # the chain: x & res <= y and anything above res breaks
                ok = ok and tnorm_eval(t, x, res) <= y
                step = res + F(1, 4096)
                if step <= ONE:
                    ok = ok and tnorm_eval(t, x, step) > y
            if not ok:
                break
        assert ok, f"residual adjunction failed for {t}"
    announce(
        10,
        "t-norm kernel: monoid laws on 10^4 random triples per norm, "
        "idempotent separation, residual adjunction on the /64 grid",
        ok,
    )
