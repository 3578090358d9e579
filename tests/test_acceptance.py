"""Acceptance suite: the ten headline guarantees, one test (and one
printed pass/fail line) each.  Everything here is exact rational
arithmetic; the brute-force oracles are independent of the library
code they check."""

import itertools
import random
from fractions import Fraction as F
from operator import le

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
# A category on n points is written as its row: the off-diagonal entries
# in SLOTS[n] order, the value k/base as the int k.


SLOTS = {n: [(i, j) for i in range(n) for j in range(n) if i != j] for n in (2, 3)}
K5 = IntervalSet.of([0, F(1, 4), F(1, 2), F(3, 4), 1])
L3 = IntervalSet.of([0, F(1, 2), 1])
# (label, S, base of the candidates' grid, S's pairs (r(i, j), r(j, i))
# written out); the band holds (a, b) when a & a <= b and b & b <= a.
# sqrt values of quarters are eighths and the band's closure is the
# eighth grid, so its candidates range over denominator 8
VARIANTS = [
    ("K^2", sub.k_square(LUK, K5), 4, {(a, b) for a in range(5) for b in range(5)}),
    ("K_diag", sub.k_diagonal(LUK, K5), 4, {(a, a) for a in range(5)}),
    (
        "sqrt band",
        sub.sqrt_band(LUK),
        8,
        {
            (a, b)
            for a in range(9)
            for b in range(9)
            if max(2 * a - 8, 0) <= b and max(2 * b - 8, 0) <= a
        },
    ),
    ("L3^2", sub.k_square(LUK, L3), 4, {(a, b) for a in (0, 2, 4) for b in (0, 2, 4)}),
    ("L3_diag", sub.k_diagonal(LUK, L3), 4, {(a, a) for a in (0, 2, 4)}),
]


def _valid_rows(size, base):
    """Rows of all valid categories on the /base grid, grown slot by slot;
    a partial row is dropped at its first broken triple
    r(j, k) & r(i, j) <= r(i, k), under Lukasiewicz a + b - base <= c."""
    at = {s: p for p, s in enumerate(SLOTS[size])}
    checks = [[] for _ in at]
    for i, j, k in itertools.permutations(range(size), 3):
        triple = (at[j, k], at[i, j], at[i, k])
        checks[max(triple)].append(triple)
    rows = [()]
    for triples in checks:
        rows = [
            row
            for prefix in rows
            for row in (prefix + (v,) for v in range(base + 1))
            if all(row[a] + row[b] - base <= row[c] for a, b, c in triples)
        ]
    return rows


def _cat_s_rows(size, base, pairs):
    """The valid rows whose pairs (r(i, j), r(j, i)) all lie in pairs."""
    at = {s: p for p, s in enumerate(SLOTS[size])}
    sym = [(at[i, j], at[j, i]) for i, j in SLOTS[size] if i < j]
    return [
        row
        for row in _valid_rows(size, base)
        if all((row[p], row[q]) in pairs for p, q in sym)
    ]


def _as_row(c, base):
    """c's row on the /base grid; an entry off the grid stays a Fraction."""
    scaled = [c.matrix[i][j] * base for i, j in SLOTS[len(c.points)]]
    return tuple(int(x) if x.denominator == 1 else x for x in scaled)


def _at_least(rows, base):
    """ge[p][v]: the bitset of the row indices k with rows[k][p] >= v."""
    ge = [[0] * (base + 1) for _ in rows[0]]
    for k, row in enumerate(rows):
        for p, x in enumerate(row):
            ge[p][x] |= 1 << k
    for col in ge:
        for v in range(base - 1, -1, -1):
            col[v] |= col[v + 1]
    return ge


def _escapes(targets, results, candidates, base):
    """Whether some candidate lies below a target r but not below the
    result of r: the AND over a candidate's slots of the bitsets above
    it, once over the targets and once over the results."""
    ge_t, ge_res = _at_least(targets, base), _at_least(results, base)
    for c in candidates:
        under_t = under_res = -1
        for p, v in enumerate(c):
            under_t &= ge_t[p][v]
            under_res &= ge_res[p][v]
        if under_t & ~under_res:
            return True
    return False


def _universal_ok(targets, lowers, uppers, candidates, base):
    """C(r) <= r <= R(r) with both among the candidates (the valid Cat_S
    rows), no candidate below r escapes C(r), and none above r escapes
    R(r); the R side is the C side on the order-dual rows base - v."""
    members = set(candidates)
    if not all(
        {lo, up} <= members and all(map(le, lo, r)) and all(map(le, r, up))
        for r, lo, up in zip(targets, lowers, uppers)
    ):
        return False

    def dual(rows):
        return [tuple(base - v for v in row) for row in rows]

    return not _escapes(targets, lowers, candidates, base) and not _escapes(
        dual(targets), dual(uppers), dual(candidates), base
    )


def _quarter_cats(size):
    """(row, category) for every valid quarter-valued category on size
    points: the targets."""
    points = tuple(f"p{i}" for i in range(size))
    cats = []
    for row in _valid_rows(size, 4):
        matrix = [[ONE] * size for _ in range(size)]
        for (i, j), v in zip(SLOTS[size], row):
            matrix[i][j] = F(v, 4)
        cats.append((row, QCat(LUK, points, tuple(map(tuple, matrix)))))
    return cats


def _reflected(cats, s, base):
    """(targets, C results, R results) as rows on the /base grid."""
    return (
        [tuple(v * base // 4 for v in row) for row, _ in cats],
        [_as_row(sub.coreflect_c(s, c), base) for _, c in cats],
        [_as_row(sub.reflect_r(s, c), base) for _, c in cats],
    )


def test_universal_property_oracle_rejects_wrong_reflectors():
    """Criterion 6's oracle on the 25 two-point quarter targets: the
    library's C and R pass, and a C that returns the top or the discrete
    category, or an R that returns C's result or the top, fails.  K^2
    over K5 holds every target, where C = R is right, so it is left out."""
    cats = _quarter_cats(2)
    assert len(cats) == 25
    for _, s, base, pairs in VARIANTS[1:]:
        targets, lowers, uppers = _reflected(cats, s, base)
        candidates = _cat_s_rows(2, base, pairs)
        top, discrete = [(base, base)] * 25, [(0, 0)] * 25
        assert _universal_ok(targets, lowers, uppers, candidates, base)
        wrong = [(top, uppers), (discrete, uppers), (lowers, lowers), (lowers, top)]
        for bad_lowers, bad_uppers in wrong:
            assert not _universal_ok(targets, bad_lowers, bad_uppers, candidates, base)


def test_criterion_06_reflector_universal_properties(announce):
    ok = True
    for size in (2, 3):
        cats = _quarter_cats(size)
        for label, s, base, pairs in VARIANTS:
            candidates = _cat_s_rows(size, base, pairs)
            ok = ok and _universal_ok(*_reflected(cats, s, base), candidates, base)
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
