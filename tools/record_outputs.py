"""Record the library's outputs on two seeded corpora, or replay them.

    python3 tools/record_outputs.py          # write both corpus files
    python3 tools/record_outputs.py --check  # replay; name the first case that differs

Each corpus is drawn with ``random.Random`` from a fixed seed, with the
standard library only, so it replays on every supported Python without
the test extras.  Both use the Godel, Lukasiewicz, product and remark4
norms and ordinal sums of Lukasiewicz blocks on a /12 grid (some with
adjacent blocks sharing an endpoint).

- ``tests/kernel_outputs.json`` (:func:`cases`): ``validate_qcat``
  (verdict, message and witness), ``final_lift``, ``reflect_r``,
  ``coreflect_c`` and ``is_in_cat_s`` on 1-14 points: categories,
  categories with one entry lowered, random matrices, all four
  suitable-set variants (suitable or not) and refused inputs.
- ``tests/functor_outputs.json`` (:func:`functor_cases`):
  ``enumerate_functors`` image tables (|A| = 0, |B| = 0 and |B| = 1
  included, and at and just past the map cap), ``product``, ``tensor``,
  ``hom_power`` and ``hom_tensor``, ``curry``, ``uncurry`` and
  ``function_space_limit``, on categories and random matrices whose
  values mix thirds with quarters, and refused inputs; then
  ``initial_lift`` (:func:`lift_cases`) for 0-3 sources over the same
  values, drawn from a stream of its own so the cases before it keep
  their draws; then ``final_lift`` refusals (:func:`sink_fault_cases`),
  one fault each, from a third stream.

Each case is stored as a digest of its output, or of its error's type
and text.

Re-record only at a commit whose outputs are known to be right, and
name in CHANGES.md every case whose digest changes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from realcat import qcat as qc  # noqa: E402
from realcat import subconstructs as sc  # noqa: E402
from realcat import yoneda  # noqa: E402
from realcat.intervals import IntervalSet  # noqa: E402
from realcat.qcat import (  # noqa: E402
    QCat,
    QFunctor,
    final_lift,
    initial_lift,
    two_point,
    validate_qcat,
)
from realcat.tnorm import (  # noqa: E402
    BUILTIN_NORMS,
    Block,
    BlockKind,
    CheckResult,
    TNorm,
    godel,
    idempotent_set,
    lukasiewicz,
    m_set,
    product,
    tnorm_eval,
)

OUTPUTS = ROOT / "tests" / "kernel_outputs.json"
FUNCTOR_OUTPUTS = ROOT / "tests" / "functor_outputs.json"
SEED = 20
ROUNDS = 480
FUNCTOR_ROUNDS = 240
LIFT_ROUNDS = 160
SINK_FAULT_ROUNDS = 80

VALUES = [F(k, 8) for k in range(9)] + [F(1, 3), F(2, 3), F(1, 5), F(1, 7), F(5, 12)]
CHAINS = ((F(0), F(1, 2), F(1)), (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))
VARIANTS = ("k_square", "k_diagonal", "sqrt_band", "explicit")
OPERATIONS = ("reflect_r", "coreflect_c", "is_in_cat_s")


def grid_sum(rng):
    """Lukasiewicz blocks between sorted cut points of the /12 grid,
    each gap between two cuts a block or left to the minimum, so
    adjacent blocks share their endpoint."""
    cuts = {rng.randrange(13) for _ in range(rng.randint(2, 5))}
    cuts = sorted(cuts | {rng.randrange(13)})
    if len(cuts) < 2:
        cuts = [0, 12]
    blocks = [
        Block(F(lo, 12), F(hi, 12), BlockKind.LUKASIEWICZ)
        for lo, hi in zip(cuts, cuts[1:])
        if rng.random() < 0.7
    ]
    return TNorm(tuple(blocks))


def draw_norm(rng):
    name = rng.choice(["godel", "lukasiewicz", "product", "remark4", "sum", "sum"])
    return (grid_sum(rng) if name == "sum" else BUILTIN_NORMS[name]()), name


def value_pool(t):
    ends = [v for b in t.blocks for v in (b.lo, b.hi, (b.lo + b.hi) / 2)]
    return VALUES + ends


def draw_matrix(rng, t, n, unit_diagonal=True):
    pool = value_pool(t)
    return [
        [F(1) if i == j and unit_diagonal else rng.choice(pool) for j in range(n)]
        for i in range(n)
    ]


def draw_sinks(rng, t, n):
    """A carrier of n points and two-point categories pushed into it."""
    pool = value_pool(t)
    carrier = tuple(f"p{i}" for i in range(n))
    sinks = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.choice(pool), rng.choice(pool)
        x, y = rng.choice(carrier), rng.choice(carrier)
        sinks.append((two_point(t, a, b, ("s", "t")), {"s": x, "t": y}))
    return sinks, carrier


def off_product(t, values):
    """values outside every product block's interior, where & keeps a
    finite set finite (a Lukasiewicz block keeps its grid)."""
    inside = [b for b in t.blocks if b.kind is BlockKind.PRODUCT]
    return [v for v in values if not any(b.lo < v < b.hi for b in inside)]


def and_closed(t, values):
    """values off product blocks, with 1, closed under &."""
    out = {F(1), *off_product(t, values)}
    while new := {tnorm_eval(t, a, b) for a in out for b in out} - out:
        out |= new
    return sorted(out)


def draw_k(rng, t):
    kind = rng.randrange(5)
    if kind == 0:
        return m_set(t)
    if kind == 1:
        return idempotent_set(t)
    if kind == 2:
        a, b = sorted((rng.choice(VALUES), rng.choice(VALUES)))
        return IntervalSet.of([(a, b), F(1)])
    points = {rng.choice(value_pool(t)) for _ in range(rng.randint(1, 4))}
    return IntervalSet.of(and_closed(t, points) if kind == 3 else sorted(points))


def draw_pairs(rng, t):
    """Pairs over a chain, closed under S1-S3 more often than not."""
    chain = rng.choice(CHAINS)
    pairs = {(rng.choice(chain), rng.choice(chain)) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.7:
        pairs = {(a, b) for a, b in pairs if off_product(t, [a, b]) == [a, b]}
        while True:
            new = {(b, a) for a, b in pairs}
            for p in pairs:
                for q in pairs:
                    new.add((max(p[0], q[0]), max(p[1], q[1])))
                    new.add((min(p[0], q[0]), min(p[1], q[1])))
                    new.add((tnorm_eval(t, p[0], q[0]), tnorm_eval(t, p[1], q[1])))
            if new <= pairs:
                break
            pairs |= new
    return sorted(pairs)


def draw_set(rng, t, variant):
    if variant == "sqrt_band":
        return sc.sqrt_band(t)
    if variant == "explicit":
        return sc.explicit(t, draw_pairs(rng, t))
    return getattr(sc, variant)(t, draw_k(rng, t))


def validated(t, points, rows):
    """validate_qcat on a category built here, so no kept result is read."""
    return validate_qcat(QCat(t, points, rows))


def cases(seed: int = SEED) -> list:
    """(id, function, arguments) per case, in a fixed order."""
    rng = random.Random(seed)
    out = []
    for r in range(ROUNDS):
        t, name = draw_norm(rng)
        n = 1 + r % 14
        points = tuple(f"p{i}" for i in range(n))
        tag = f"{r:03d} {name} n={n}"

        rows = draw_matrix(rng, t, n, unit_diagonal=rng.random() < 0.85)
        out.append((f"{tag} validate random", validated, (t, points, rows)))
        sinks, carrier = draw_sinks(rng, t, n)
        out.append((f"{tag} final_lift", final_lift, (t, sinks, carrier)))
        cat = final_lift(t, sinks, carrier)
        out.append((f"{tag} validate category", validated, (t, points, cat.matrix)))
        lowered = [list(row) for row in cat.matrix]
        i, j = rng.randrange(n), rng.randrange(n)
        lowered[i][j] = rng.choice([lowered[i][j] / 2, F(0)])
        out.append((f"{tag} validate lowered", validated, (t, points, lowered)))

        variant = VARIANTS[r % 4]
        s = draw_set(rng, t, variant)
        if rng.random() < 0.05:  # a set over another norm is refused
            s = draw_set(rng, godel() if t != godel() else lukasiewicz(), variant)
        if rng.random() < 0.5:
            target = cat
        else:
            target = QCat(t, points, draw_matrix(rng, t, n, rng.random() < 0.9))
        for op in OPERATIONS:
            out.append((f"{tag} {op} {variant}", getattr(sc, op), (s, target)))
    return out + refused()


def refused() -> list:
    """Inputs each kernel refuses, with fixed texts."""
    luk, half, prod = lukasiewicz(), F(1, 2), product()
    a = two_point(luk, half, 0)
    unsuitable = sc.explicit(luk, [(0, 0), (1, 1), (half, 1)])
    return [
        ("refused entry above 1", validated, (luk, ("x",), ((F(3, 2),),))),
        ("refused negative entry", validated, (luk, ("x",), ((F(-1, 2),),))),
        ("refused ragged matrix", validated, (luk, ("x", "y"), ((1, 0), (1,)))),
        ("refused duplicate points", validated, (luk, ("x", "x"), ((1, 0), (0, 1)))),
        (
            "refused image outside carrier",
            final_lift,
            (luk, [(a, {"0": "p", "1": "z"})], ("p", "q")),
        ),
        (
            "refused sink map omitting a point",
            final_lift,
            (luk, [(a, {"0": "p"})], ("p", "q")),
        ),
        (
            "refused source map omitting a point",
            initial_lift,
            (luk, ("p", "q"), [({"p": "0"}, a)]),
        ),
        ("refused duplicate carrier", final_lift, (luk, [], ("p", "p"))),
        ("refused unsuitable set", sc.reflect_r, (unsuitable, a)),
        ("refused set over another norm", sc.coreflect_c, (sc.sqrt_band(godel()), a)),
        (
            "refused irrational root",
            sc.coreflect_c,
            (sc.sqrt_band(prod), two_point(prod, half, 0)),
        ),
    ]


THIRDS = [F(k, 3) for k in range(4)]
QUARTERS = [F(k, 4) for k in range(5)]
MIXED = sorted({*THIRDS, *QUARTERS})
FUNCTOR_NORMS = ("godel", "lukasiewicz", "product", "remark4", "sum")


def draw_cat(rng, t, n, prefix, pool):
    """A category on n points, the final lift of two-point sinks over
    pool, or one time in four a matrix over pool that need be none."""
    points = tuple(f"{prefix}{i}" for i in range(n))
    if rng.random() < 0.25:
        return QCat(t, points, [[rng.choice(pool) for _ in points] for _ in points])
    sinks = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.choice(pool), rng.choice(pool)
        x, y = rng.choice(points), rng.choice(points)
        sinks.append((two_point(t, a, b, ("s", "t")), {"s": x, "t": y}))
    return QCat(t, points, final_lift(t, sinks, points).matrix)


def draw_map(rng, dom, cod):
    """A map dom -> cod drawn at random, functor or not; None when cod
    has no point for dom's points."""
    if dom.points and not cod.points:
        return None
    return QFunctor(dom, cod, tuple(rng.choice(cod.points) for _ in dom.points))


def functor_cases(seed: int = SEED) -> list:
    """(id, function, arguments) per case of the functor corpus, in a
    fixed order: per round a norm, A (0-3 points) and B (0-4 points)
    over thirds, quarters or both, and C (0-2 points); the search, the
    products and hom objects, curry and uncurry, and the function-space
    limit on M-valued categories."""
    rng = random.Random(seed)
    out = []
    for r in range(FUNCTOR_ROUNDS):
        name = FUNCTOR_NORMS[r % len(FUNCTOR_NORMS)]
        t = grid_sum(rng) if name == "sum" else BUILTIN_NORMS[name]()
        ends = [v for blk in t.blocks for v in (blk.lo, blk.hi)]
        pa, pb = (rng.choice([THIRDS, QUARTERS, MIXED]) + ends for _ in "ab")
        na, nb, nc = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 2)
        a, b = draw_cat(rng, t, na, "a", pa), draw_cat(rng, t, nb, "b", pb)
        c = draw_cat(rng, t, nc, "c", MIXED + ends)
        tag = f"{r:03d} {name} {na}->{nb} c={nc}"
        out.append((f"{tag} enumerate_functors", qc.enumerate_functors, (a, b)))
        for build in (qc.product, qc.tensor, qc.hom_power, qc.hom_tensor):
            out.append((f"{tag} {build.__name__}", build, (a, b)))
        if r % 3 == 0:  # the map cap at |B|^|A| and just below it
            cap = nb**na
            for label, fn, at in (
                ("enumerate", qc.enumerate_functors, cap),
                ("enumerate", qc.enumerate_functors, cap - 1),
                ("hom_power", qc.hom_power, cap - 1),
                ("hom_tensor", qc.hom_tensor, cap - 1),
            ):
                out.append((f"{tag} {label} cap={at}", fn, (a, b, at)))
        hom = qc.hom_power(a, b)
        out.append((f"{tag} enumerate C -> [A, B]", qc.enumerate_functors, (c, hom)))
        ac = qc.product(a, c)
        direct = qc.enumerate_functors(ac, b)
        picks = [direct[0], direct[-1], rng.choice(direct)] if direct else []
        for k, f in enumerate([*picks, draw_map(rng, ac, b)]):
            if f is not None:
                out.append((f"{tag} curry {k}", yoneda.curry, (a, c, b, f)))
        for k, f in enumerate(picks):
            # f's transpose z |-> f(-, z), built here because curry refuses
            # an A or C that is no category, whose uncurry cases stay
            images = tuple(tuple(f((x, z)) for x in a.points) for z in c.points)
            try:
                g = QFunctor(c, hom, images)
            except ValueError:  # a diagonal below 1: f(-, z) need be no functor
                continue
            out.append((f"{tag} uncurry {k}", yoneda.uncurry, (a, c, b, g)))
        g = draw_map(rng, c, hom)
        if g is not None:
            out.append((f"{tag} uncurry drawn", yoneda.uncurry, (a, c, b, g)))
        out += limit_cases(rng, t, tag, ends)
    return out + functor_refused() + lift_cases(seed) + sink_fault_cases(seed)


def lift_cases(seed: int = SEED) -> list:
    """initial_lift on a carrier of 0-4 points for 0-3 sources, each a
    map into a 1-3 point category over thirds, quarters or both; one
    time in eight a map omits a carrier point or sends one outside its
    category, or the carrier repeats a point."""
    rng = random.Random(seed + 1)
    out = []
    for r in range(LIFT_ROUNDS):
        name = FUNCTOR_NORMS[r % len(FUNCTOR_NORMS)]
        t = grid_sum(rng) if name == "sum" else BUILTIN_NORMS[name]()
        ends = [v for blk in t.blocks for v in (blk.lo, blk.hi)]
        carrier = [f"u{i}" for i in range(rng.randint(0, 4))]
        sources = []
        for k in range(rng.randint(0, 3)):
            pool = rng.choice([THIRDS, QUARTERS, MIXED]) + ends
            cod = draw_cat(rng, t, rng.randint(1, 3), f"s{k}.", pool)
            sources.append(({x: rng.choice(cod.points) for x in carrier}, cod))
        tag = f"{r:03d} {name} n={len(carrier)} sources={len(sources)}"
        fault = rng.randrange(8) if carrier else 1
        if fault == 0 and sources:
            f = rng.choice(sources)[0]
            if rng.random() < 0.5:
                del f[rng.choice(carrier)]
            else:
                f[rng.choice(carrier)] = "outside"
            tag += " bad map"
        elif fault == 0:
            carrier.append(carrier[0])
            tag += " repeated point"
        out.append((f"{tag} initial_lift", initial_lift, (t, carrier, sources)))
    return out


SINK_FAULTS = ("omitted point", "image outside", "no mapping", "repeated point")


def sink_fault_cases(seed: int = SEED) -> list:
    """final_lift on a carrier of 1-4 points for 1-3 sinks from 1-3 point
    categories over thirds, quarters or both, with one fault each: a map
    omits a point of its category, sends one outside the carrier or is
    no mapping, or the carrier repeats a point."""
    rng = random.Random(seed + 2)
    out = []
    for r in range(SINK_FAULT_ROUNDS):
        name = FUNCTOR_NORMS[r % len(FUNCTOR_NORMS)]
        t = grid_sum(rng) if name == "sum" else BUILTIN_NORMS[name]()
        ends = [v for blk in t.blocks for v in (blk.lo, blk.hi)]
        carrier = [f"p{i}" for i in range(rng.randint(1, 4))]
        sinks = []
        for k in range(rng.randint(1, 3)):
            pool = rng.choice([THIRDS, QUARTERS, MIXED]) + ends
            cat = draw_cat(rng, t, rng.randint(1, 3), f"s{k}.", pool)
            sinks.append((cat, {p: rng.choice(carrier) for p in cat.points}))
        fault = rng.choice(SINK_FAULTS)
        k = rng.randrange(len(sinks))
        cat, f = sinks[k]
        if fault == "omitted point":
            del f[rng.choice(cat.points)]
        elif fault == "image outside":
            f[rng.choice(cat.points)] = "outside"
        elif fault == "no mapping":
            sinks[k] = (cat, rng.choice([list(f.items()), list(f.values()), None]))
        else:
            carrier.insert(rng.randint(0, len(carrier)), rng.choice(carrier))
        tag = f"{r:03d} {name} n={len(carrier)} sinks={len(sinks)} {fault}"
        out.append((f"{tag} final_lift", final_lift, (t, sinks, carrier)))
    return out


def limit_cases(rng, t, tag, ends) -> list:
    """function_space_limit on M-valued A and B (1-3 points, a random
    matrix now and then) for a one-point cycle, an isomorphic pair, a
    drawn pair and a drawn prefix; and on a non-M-valued A."""
    m = m_set(t)
    pool = [v for v in MIXED + ends if v in m]
    a = draw_cat(rng, t, rng.randint(1, 3), "a", pool)
    b = draw_cat(rng, t, rng.randint(1, 3), "b", pool)
    hom, limit = qc.hom_power(a, b), yoneda.function_space_limit
    if not hom.points:  # a random B may admit no functor
        return [(f"{tag} limit no functor", limit, (a, b, (), ("?",)))]
    f = rng.choice(hom.points)
    iso = [g for g in hom.points if hom.r(f, g) == hom.r(g, f) == 1]
    drawn = [rng.choice(hom.points) for _ in range(2)]
    out = [
        (f"{tag} limit one point", limit, (a, b, (), (f,))),
        (f"{tag} limit isomorphic pair", limit, (a, b, (), (f, iso[-1]))),
        (f"{tag} limit drawn pair", limit, (a, b, (), drawn)),
        (f"{tag} limit drawn prefix", limit, (a, b, drawn, (f,))),
    ]
    outside = [v for v in MIXED if v not in m]
    if outside:
        above = QCat(t, ("x", "y"), ((1, outside[0]), (0, 1)))
        out.append((f"{tag} limit outside M", limit, (above, b, (), (f,))))
    return out


def functor_refused() -> list:
    """Fixed edge cases and refused inputs of the functor corpus."""
    luk, god, half = lukasiewicz(), godel(), F(1, 2)
    empty = QCat(luk, (), ())
    one = QCat(luk, ("*",), ((F(1),),))
    a = two_point(luk, half, F(1, 3))
    b = two_point(luk, F(3, 4), F(1, 4))
    chain = QCat(luk, ("x", "y", "z"), ((1, half, 0), (0, 1, half), (0, 0, 1)))
    ab = qc.product(a, b)
    bad = QFunctor(ab, b, tuple("0" if p == ("1", "1") else "1" for p in ab.points))
    low = two_point(luk, F(1, 4), 0)  # M-valued, as a is
    out = [
        ("|A| = 0 enumerate", qc.enumerate_functors, (empty, a)),
        ("|A| = |B| = 0 enumerate", qc.enumerate_functors, (empty, empty)),
        ("|B| = 0 enumerate", qc.enumerate_functors, (a, empty)),
        ("|B| = 1 enumerate", qc.enumerate_functors, (chain, one)),
        ("|A| = 0 hom_power", qc.hom_power, (empty, a)),
        ("|A| = 0 hom_tensor", qc.hom_tensor, (empty, empty)),
        ("|B| = 0 hom_power", qc.hom_power, (a, empty)),
        ("|B| = 0 hom_tensor", qc.hom_tensor, (a, empty)),
        ("|A| = 0 product", qc.product, (empty, a)),
        ("|B| = 0 tensor", qc.tensor, (a, empty)),
        ("cap at 27", qc.enumerate_functors, (chain, chain, 27)),
        ("refused cap 26", qc.enumerate_functors, (chain, chain, 26)),
        ("refused hom_power cap 26", qc.hom_power, (chain, chain, 26)),
        ("refused hom_tensor cap 0", qc.hom_tensor, (a, b, 0)),
        ("refused curry of a non-functor", yoneda.curry, (a, b, b, bad)),
        ("refused uncurry of a non-functor", yoneda.uncurry, (a, b, b, bad)),
        ("refused limit empty cycle", yoneda.function_space_limit, (a, low, (), ())),
        (
            "refused limit point outside [A, B]",
            yoneda.function_space_limit,
            (a, low, (), (("2", "0"),)),
        ),
        (
            "refused limit outside M",
            yoneda.function_space_limit,
            (a, b, (), (("0", "0"),)),
        ),
        (
            "limit into a chain",
            yoneda.function_space_limit,
            (a, chain, (), qc.hom_power(a, chain).points[-1:]),
        ),
    ]
    other = two_point(god, half, 0)
    for build in (qc.product, qc.tensor, qc.hom_power, qc.hom_tensor):
        out.append((f"refused {build.__name__} over two norms", build, (a, other)))
    return out


def outcome(fn, args) -> str:
    """fn(*args) as text: a category's points and entries, a check's
    verdict, message and witness, a functor's domain and codomain points
    and image tuple, a list of functors' image tuples (with the ends of
    the first and whether all share them), the repr of anything else, or
    the error's type and text."""
    try:
        value = fn(*args)
    except Exception as exc:  # every error is an output here
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, QCat):
        return repr((value.points, [[str(v) for v in row] for row in value.matrix]))
    if isinstance(value, CheckResult):
        return repr((value.passed, value.message, value.witness))
    if isinstance(value, QFunctor):
        return repr((value.dom.points, value.cod.points, value.mapping))
    if isinstance(value, list) and value and isinstance(value[0], QFunctor):
        dom, cod = value[0].dom, value[0].cod
        shared = all(f.dom is dom and f.cod is cod for f in value)
        return repr((dom.points, cod.points, shared, [f.mapping for f in value]))
    return repr(value)


CORPORA = ((OUTPUTS, cases), (FUNCTOR_OUTPUTS, functor_cases))


def record(seed: int = SEED, build=cases) -> dict:
    """case id -> digest of its outcome, over the cases build(seed)."""
    return {
        cid: hashlib.sha256(outcome(fn, args).encode()).hexdigest()[:16]
        for cid, fn, args in build(seed)
    }


def first_difference(recorded: dict, replayed: dict):
    """The first case id, in recorded order, whose digest differs or is
    missing on either side; None when the two agree."""
    for cid in [*recorded, *replayed]:
        if recorded.get(cid) != replayed.get(cid):
            return cid
    return None


def main(args: list) -> int:
    if args == ["--check"]:
        status = 0
        for path, build in CORPORA:
            saved = json.loads(path.read_text())
            cid = first_difference(saved["cases"], record(saved["seed"], build))
            if cid is not None:
                print(f"{path.name} differs: {cid}")
                status = 1
            else:
                print(f"{path.name}: {len(saved['cases'])} cases replay unchanged")
        return status
    if args:
        print("usage: record_outputs.py [--check]", file=sys.stderr)
        return 2
    for path, build in CORPORA:
        digests = record(SEED, build)
        path.write_text(json.dumps({"seed": SEED, "cases": digests}, indent=0) + "\n")
        print(f"{len(digests)} cases written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
