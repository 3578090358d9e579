"""Record the library's outputs on four seeded corpora, or replay them.

    python3 tools/record_outputs.py          # write the corpus files
    python3 tools/record_outputs.py --check  # replay; name the first case that differs

Each corpus is drawn with ``random.Random`` from a fixed seed, with the
standard library only, so it replays on every supported Python without
the test extras.  The first three use the Godel, Lukasiewicz, product
and remark4 norms and ordinal sums of Lukasiewicz blocks on a /12 grid (some with
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
- ``tests/cli_outputs.json`` (:func:`cli_cases`): ``cli.main`` runs,
  in-process, of every command and every ``construct`` kind on fixed
  files (valid and refused: help and usage errors, wrong arity, missing
  and undecodable files, non-categories, mixed norms, a set failing
  S1-S3, the map cap, labels and paths holding a line break), then on
  files drawn per round from a fourth stream.  Each run reads its files
  by relative name from a fresh temporary directory, with ``COLUMNS``
  fixed, so no temporary path and no terminal width reaches an output.
- ``tests/grid_outputs.json`` (:func:`grid_cases`): ``validate_qcat``,
  ``is_in_cat_s``, ``coreflect_c`` and ``reflect_r`` for all four
  variants over /12 grid sums, on matrices whose entries are thirds,
  quarters or {0, 1} only, off the block endpoints' grid; from a
  fifth stream.

Each case is stored as a digest of its output, or of its error's type
and text; a CLI case, of its exit code, stdout, stderr and the files it
wrote.  Help and usage-error texts are argparse's, whose wording and
wrapping differ between Python versions: a corpus names the Python that
recorded it, and on another one its cases whose ids start with
``argparse`` are left out of the replay.

Re-record only at a commit whose outputs are known to be right, and
name in CHANGES.md every case whose digest changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from realcat import cli  # noqa: E402
from realcat import functors as fs  # noqa: E402
from realcat import subconstructs as sc  # noqa: E402
from realcat import yoneda  # noqa: E402
from realcat.intervals import IntervalSet  # noqa: E402
from realcat.functors import QFunctor  # noqa: E402
from realcat.qcat import (  # noqa: E402
    QCat,
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
CLI_OUTPUTS = ROOT / "tests" / "cli_outputs.json"
GRID_OUTPUTS = ROOT / "tests" / "grid_outputs.json"
PYTHON = "%d.%d" % sys.version_info[:2]
ARGPARSE = "argparse "
SEED = 20
ROUNDS = 480
FUNCTOR_ROUNDS = 240
LIFT_ROUNDS = 160
SINK_FAULT_ROUNDS = 80
CLI_ROUNDS = 20
GRID_ROUNDS = 80

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


def draw_pairs(rng, t, chain=None):
    """Pairs over a chain (one of CHAINS unless given), closed under
    S1-S3 more often than not."""
    chain = chain or rng.choice(CHAINS)
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
GRID_POOLS = {"thirds": THIRDS, "quarters": QUARTERS, "crisp": [F(0), F(1)]}


def grid_cases(seed: int = SEED) -> list:
    """validate_qcat, then is_in_cat_s, coreflect_c and reflect_r for
    every variant, over a /12 grid sum (:func:`grid_sum`) on 1-5 points
    whose entries are thirds, quarters or {0, 1} only: off the block
    endpoints' grid, so a kernel's grid must fold the endpoints in
    before it doubles for the band's square root.  The sets' K and pairs
    come from the same values, closed under & or not; one time in ten
    a set lives over another norm.  Drawn from a stream of its own."""
    rng = random.Random(seed + 4)
    out = []
    for r in range(GRID_ROUNDS):
        t = grid_sum(rng)
        label = rng.choice(sorted(GRID_POOLS))
        pool = GRID_POOLS[label]
        n = 1 + r % 5
        tag = f"{r:03d} sum {label} n={n}"
        cat = draw_cat(rng, t, n, "p", pool)
        points, unit_diagonal = cat.points, rng.random() < 0.8
        drawn = QCat(t, points, [
            [F(1) if i == j and unit_diagonal else rng.choice(pool) for j in range(n)]
            for i in range(n)
        ])
        out.append((f"{tag} validate category", validated, (t, points, cat.matrix)))
        out.append((f"{tag} validate drawn", validated, (t, points, drawn.matrix)))
        for variant in VARIANTS:
            if variant == "explicit":
                s = sc.explicit(t, draw_pairs(rng, t, pool))
            elif variant == "sqrt_band":
                s = sc.sqrt_band(t)
            else:
                k = {rng.choice(pool) for _ in range(rng.randint(1, 3))}
                closed = rng.random() < 0.7
                k = IntervalSet.of(and_closed(t, k) if closed else sorted(k))
                s = getattr(sc, variant)(t, k)
            if rng.random() < 0.1:
                s = sc.sqrt_band(godel() if t.blocks else lukasiewicz())
            for target, which in ((cat, "category"), (drawn, "drawn")):
                for op in ("is_in_cat_s", "coreflect_c", "reflect_r"):
                    call = getattr(sc, op)
                    out.append((f"{tag} {op} {variant} {which}", call, (s, target)))
    return out
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
        out.append((f"{tag} enumerate_functors", fs.enumerate_functors, (a, b)))
        for build in (fs.product, fs.tensor, fs.hom_power, fs.hom_tensor):
            out.append((f"{tag} {build.__name__}", build, (a, b)))
        if r % 3 == 0:  # the map cap at |B|^|A| and just below it
            cap = nb**na
            for label, fn, at in (
                ("enumerate", fs.enumerate_functors, cap),
                ("enumerate", fs.enumerate_functors, cap - 1),
                ("hom_power", fs.hom_power, cap - 1),
                ("hom_tensor", fs.hom_tensor, cap - 1),
            ):
                out.append((f"{tag} {label} cap={at}", fn, (a, b, at)))
        hom = fs.hom_power(a, b)
        out.append((f"{tag} enumerate C -> [A, B]", fs.enumerate_functors, (c, hom)))
        ac = fs.product(a, c)
        direct = fs.enumerate_functors(ac, b)
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
    hom, limit = fs.hom_power(a, b), yoneda.function_space_limit
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
    ab = fs.product(a, b)
    bad = QFunctor(ab, b, tuple("0" if p == ("1", "1") else "1" for p in ab.points))
    low = two_point(luk, F(1, 4), 0)  # M-valued, as a is
    out = [
        ("|A| = 0 enumerate", fs.enumerate_functors, (empty, a)),
        ("|A| = |B| = 0 enumerate", fs.enumerate_functors, (empty, empty)),
        ("|B| = 0 enumerate", fs.enumerate_functors, (a, empty)),
        ("|B| = 1 enumerate", fs.enumerate_functors, (chain, one)),
        ("|A| = 0 hom_power", fs.hom_power, (empty, a)),
        ("|A| = 0 hom_tensor", fs.hom_tensor, (empty, empty)),
        ("|B| = 0 hom_power", fs.hom_power, (a, empty)),
        ("|B| = 0 hom_tensor", fs.hom_tensor, (a, empty)),
        ("|A| = 0 product", fs.product, (empty, a)),
        ("|B| = 0 tensor", fs.tensor, (a, empty)),
        ("cap at 27", fs.enumerate_functors, (chain, chain, 27)),
        ("refused cap 26", fs.enumerate_functors, (chain, chain, 26)),
        ("refused hom_power cap 26", fs.hom_power, (chain, chain, 26)),
        ("refused hom_tensor cap 0", fs.hom_tensor, (a, b, 0)),
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
            (a, chain, (), fs.hom_power(a, chain).points[-1:]),
        ),
    ]
    other = two_point(god, half, 0)
    for build in (fs.product, fs.tensor, fs.hom_power, fs.hom_tensor):
        out.append((f"refused {build.__name__} over two norms", build, (a, other)))
    return out


def run_cli(argv: tuple, files: dict) -> tuple:
    """``cli.main(argv)`` in a fresh temporary directory holding files
    (name -> text), with ``COLUMNS`` at 80: its exit code, stdout and
    stderr, and the files it wrote there (name -> text)."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            written = {
                name: Path(name).read_text()
                for name in sorted(os.listdir()) if name not in files
            }
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue(), written


def rat(v) -> str:
    """v in the "p/q" wire format, written here and not by serialize."""
    v = F(v)
    return f"{v.numerator}/{v.denominator}"


def wire_norm(t, name):
    if name in BUILTIN_NORMS:
        return name
    return {
        "blocks": [
            {"lo": rat(b.lo), "hi": rat(b.hi), "kind": b.kind.value} for b in t.blocks
        ]
    }


def wire_cat(norm, c) -> dict:
    return {
        "tnorm": norm,
        "points": list(c.points),
        "matrix": [[rat(v) for v in row] for row in c.matrix],
    }


def wire_k(k) -> dict:
    return {
        "components": [
            {"at": rat(lo)} if lo == hi else {"lo": rat(lo), "hi": rat(hi)}
            for lo, hi in k.components
        ]
    }


def wire_set(rng, t, norm, variant) -> dict:
    """A suitable-set file of the variant, its K or pairs drawn as for
    the kernel corpus; S1-S3 need not hold."""
    doc = {"variant": variant, "tnorm": norm}
    if variant == "explicit":
        doc["pairs"] = [[rat(a), rat(b)] for a, b in draw_pairs(rng, t)]
    elif variant != "sqrt_band":
        doc["k"] = wire_k(draw_k(rng, t))
    return doc


def wire_lift(rng, t, norm, family, pool) -> dict:
    """A lift spec of 0-2 entries on a carrier of 1-3 points, each a map
    between the carrier and a 1-2 point category over pool; one time in
    six a map omits a point."""
    carrier = [f"x{i}" for i in range(rng.randint(1, 3))]
    entries = []
    for k in range(rng.randint(0, 2)):
        cat = draw_cat(rng, t, rng.randint(1, 2), f"s{k}.", pool)
        if family == "sinks":
            table = {p: rng.choice(carrier) for p in cat.points}
        else:
            table = {x: rng.choice(cat.points) for x in carrier}
        if rng.random() < 1 / 6:
            del table[rng.choice(list(table))]
        entries.append({"category": wire_cat(norm, cat), "map": table})
    return {"tnorm": norm, "carrier": carrier, family: entries}


_EDGE = {
    "tnorm": "lukasiewicz",
    "points": ["a", "b"],
    "matrix": [["1/1", "1/2"], ["0/1", "1/1"]],
}
_NO_CATEGORY = {**_EDGE, "matrix": [["1/2", "1/2"], ["0/1", "1/1"]]}


def edge_lift(family, tnorm="lukasiewicz", category=_EDGE) -> dict:
    """A lift spec of one entry, category on the carrier x, y by a, b."""
    table = {"a": "x", "b": "y"} if family == "sinks" else {"x": "a", "y": "b"}
    entry = {"category": category, "map": table}
    return {"tnorm": tnorm, "carrier": ["x", "y"], family: [entry]}


# each fixed file, by name
CLI_FILES = {
    "edge.json": _EDGE,
    "godel_edge.json": {**_EDGE, "tnorm": "godel"},
    "no_category.json": _NO_CATEGORY,
    "broken\nlabel.json": {**_EDGE, "points": ["a\nb", "c"]},
    "broken_no_category.json": {
        **_EDGE, "points": ["a\nb", "c"], "matrix": [["1/2", "0/1"], ["0/1", "1/1"]]
    },
    "alike_a.json": {**_EDGE, "points": ["a", "a,b"]},
    "alike_b.json": {**_EDGE, "points": ["b,c", "c"]},
    # a 2-point category in M and a 4-point one with 3/4, whose [A, B]
    # is no category (tests/test_qcat.py's control)
    "m_half.json": {**_EDGE, "matrix": [["1/1", "1/2"], ["1/2", "1/1"]]},
    "quarters.json": {"tnorm": "lukasiewicz", "points": list("wxyz"), "matrix": [
        ["1/1", "3/4", "1/2", "1/4"],
        ["3/4", "1/1", "1/2", "1/2"],
        ["1/2", "1/2", "1/1", "3/4"],
        ["1/4", "1/2", "3/4", "1/1"],
    ]},
    "band.json": {"variant": "sqrt_band", "tnorm": "lukasiewicz"},
    "godel_band.json": {"variant": "sqrt_band", "tnorm": "godel"},
    "no_norm_band.json": {"variant": "sqrt_band"},
    "unsuitable.json": {
        "variant": "explicit",
        "tnorm": "lukasiewicz",
        "pairs": [["0/1", "0/1"], ["1/1", "1/1"], ["1/2", "1/1"]],
    },
    "quarter_k.json": {"components": [{"at": f"{i}/4"} for i in range(5)]},
    "crisp_k.json": {"components": [{"at": "0/1"}, {"at": "1/1"}]},
    "no_subquantale.json": {"components": [{"at": "1/2"}, {"at": "1/1"}]},
    "blocks.json": {"blocks": [{"lo": "0/1", "hi": "1/2", "kind": "lukasiewicz"}]},
    "unknown.json": {"neither": "kind"},
    "sinks.json": edge_lift("sinks"),
    "sources.json": edge_lift("sources"),
    "godel_sinks.json": edge_lift("sinks", tnorm="godel"),
    "godel_sources.json": edge_lift("sources", tnorm="godel"),
    "bad_sinks.json": edge_lift("sinks", category=_NO_CATEGORY),
    "bad_sources.json": edge_lift("sources", category=_NO_CATEGORY),
}
CLI_TEXTS = {name: json.dumps(doc) for name, doc in CLI_FILES.items()}
CLI_TEXTS["not_json.json"] = "not json"

CONSTRUCT_INPUTS = {
    "product": ("edge.json", "edge.json"),
    "tensor": ("edge.json", "m_half.json"),
    "hom_tensor": ("edge.json", "edge.json"),
    "hom_power": ("edge.json", "edge.json"),
    "coreflect": ("band.json", "edge.json"),
    "reflect": ("band.json", "edge.json"),
    "initial_lift": ("sources.json",),
    "final_lift": ("sinks.json",),
    "por_rho": ("edge.json",),
    "por_sigma": ("edge.json",),
}


def fixed_cli_argvs() -> list:
    """(id, argv) of the fixed CLI cases; an argv is written as one
    string split at its spaces (a file name may hold a line break)."""
    out = [
        ("argparse help", "--help"),
        ("argparse no command", ""),
        ("argparse unknown command", "nope"),
        ("argparse unknown option", "--nope"),
        ("argparse unknown kind", "construct nope edge.json"),
        ("argparse kind with a line break", "construct no\npe edge.json"),
        ("argparse no inputs", "construct product"),
        ("argparse no suite", "verify"),
        ("argparse unknown suite", "verify nope"),
        ("argparse no paths", "validate"),
        ("argparse unknown format", "validate edge.json --format xml"),
        ("argparse undeclared flag", "validate edge.json --out x.json"),
        ("argparse witness without k", "witness"),
        ("argparse max-maps 0", "construct hom_power edge.json edge.json --max-maps 0"),
        ("argparse max-maps text",
         "construct hom_tensor edge.json edge.json --max-maps x"),
    ]
    out += [
        (f"argparse {cmd} help", f"{cmd} -h")
        for cmd in ("validate", "construct", "verify", "witness")
    ]
    for kind, inputs in CONSTRUCT_INPUTS.items():
        rest = " ".join(inputs[1:])
        out += [
            (f"construct {kind}", f"construct {kind} {' '.join(inputs)}"),
            # one file too many or too few
            (f"construct {kind} arity {3 - len(inputs)}",
             f"construct {kind}" + " edge.json" * (3 - len(inputs))),
            (f"construct {kind} missing file", f"construct {kind} missing.json {rest}"),
            (f"construct {kind} undecodable file",
             f"construct {kind} not_json.json {rest}"),
        ]
    for kind in ("product", "tensor", "hom_tensor", "hom_power"):
        out += [
            (f"construct {kind} of a non-category",
             f"construct {kind} edge.json no_category.json"),
            (f"construct {kind} mixed norms",
             f"construct {kind} edge.json godel_edge.json"),
            (f"construct {kind} with a broken label",
             f"construct {kind} broken\nlabel.json edge.json"),
        ]
    for kind in ("coreflect", "reflect"):
        out += [
            (f"construct {kind} of a non-category",
             f"construct {kind} band.json no_category.json"),
            (f"construct {kind} mixed norms",
             f"construct {kind} godel_band.json edge.json"),
            (f"construct {kind} unsuitable set",
             f"construct {kind} unsuitable.json edge.json"),
            (f"construct {kind} set without norm",
             f"construct {kind} no_norm_band.json edge.json"),
            (f"construct {kind} set is a category",
             f"construct {kind} edge.json edge.json"),
        ]
    for kind in ("por_rho", "por_sigma"):
        out.append((f"construct {kind} of a non-category",
                    f"construct {kind} broken_no_category.json"))
    for kind, family, other in (
        ("final_lift", "sinks", "sources"), ("initial_lift", "sources", "sinks")
    ):
        out += [
            (f"construct {kind} of a non-category",
             f"construct {kind} bad_{family}.json"),
            (f"construct {kind} mixed norms", f"construct {kind} godel_{family}.json"),
            (f"construct {kind} of the other family", f"construct {kind} {other}.json"),
        ]
    out += [
        ("construct hom_power over max-maps",
         "construct hom_power edge.json edge.json --max-maps 3"),
        ("construct hom_tensor over max-maps",
         "construct hom_tensor edge.json edge.json --max-maps 3"),
        ("construct hom_power at max-maps",
         "construct hom_power edge.json edge.json --max-maps 4"),
        ("construct hom_power result no category",
         "construct hom_power m_half.json quarters.json"),
        ("construct product points written alike",
         "construct product alike_a.json alike_b.json"),
        ("construct product of broken labels",
         "construct product broken\nlabel.json broken\nlabel.json"),
        ("construct missing file with a line break",
         "construct product miss\ning.json edge.json"),
        ("construct out", "construct product edge.json edge.json --out out.json"),
        ("construct out into a missing directory",
         "construct tensor edge.json edge.json --out no/out.json"),
        ("validate categories", "validate edge.json quarters.json m_half.json"),
        ("validate failing", "validate edge.json no_category.json"),
        ("validate failing text",
         "validate broken_no_category.json edge.json --format text"),
        ("validate suitable sets", "validate band.json unsuitable.json --format text"),
        ("validate set without norm", "validate no_norm_band.json"),
        ("validate set without norm given one",
         "validate no_norm_band.json --tnorm godel"),
        ("validate set over another norm",
         "validate godel_band.json --tnorm lukasiewicz"),
        ("validate interval set", "validate quarter_k.json --tnorm lukasiewicz"),
        ("validate interval sets under a blocks norm",
         "validate no_subquantale.json crisp_k.json --tnorm blocks.json"),
        ("validate interval set without norm", "validate quarter_k.json"),
        ("validate unknown kind", "validate unknown.json"),
        ("validate lift spec", "validate sinks.json"),
        ("validate missing file", "validate edge.json missing.json"),
        ("validate undecodable file", "validate not_json.json"),
        ("validate missing tnorm file", "validate band.json --tnorm luk"),
        ("witness", "witness --k quarter_k.json"),
        ("witness out", "witness --k quarter_k.json --out w.json"),
        ("witness crisp", "witness --k crisp_k.json"),
        ("witness godel", "witness --k quarter_k.json --tnorm godel"),
        ("witness blocks", "witness --k quarter_k.json --tnorm blocks.json"),
        ("witness no subquantale", "witness --k no_subquantale.json"),
        ("witness missing file", "witness --k missing.json"),
        ("witness undecodable file", "witness --k not_json.json"),
        ("witness of a category", "witness --k edge.json"),
        ("witness undecodable tnorm", "witness --k crisp_k.json --tnorm not_json.json"),
        ("verify approx text", "verify approx --format text"),
        ("verify monoidal blocks", "verify monoidal --tnorm blocks.json"),
        ("verify resd_prop godel", "verify resd_prop --tnorm godel"),
        ("verify mistyped tnorm", "verify approx --tnorm luk"),
    ]
    out += [(f"verify {suite}", f"verify {suite}") for suite in cli.SUITE_NAMES]
    return [(cid, [arg for arg in argv.split(" ") if arg]) for cid, argv in out]


def cli_cases(seed: int = SEED) -> list:
    """(id, run_cli, (argv, files)) per case of the CLI corpus: the
    fixed cases, then per round a norm (a builtin, or a /12 grid sum
    written as a blocks file), A (1-3 points) and B (0-3 points) over
    thirds, quarters or both, a suitable set of a drawn variant, a K and
    two lift specs, run through every construct kind, validate and
    witness, drawn from a stream of their own."""
    out = [(cid, run_cli, (tuple(argv), CLI_TEXTS)) for cid, argv in fixed_cli_argvs()]
    rng = random.Random(seed + 3)
    for r in range(CLI_ROUNDS):
        name = FUNCTOR_NORMS[r % len(FUNCTOR_NORMS)]
        t = grid_sum(rng) if name == "sum" else BUILTIN_NORMS[name]()
        norm = wire_norm(t, name)
        ends = [v for blk in t.blocks for v in (blk.lo, blk.hi)]
        pa, pb = (rng.choice([THIRDS, QUARTERS, MIXED]) + ends for _ in "ab")
        a = draw_cat(rng, t, rng.randint(1, 3), "a", pa)
        b = draw_cat(rng, t, rng.randint(0, 3), "b", pb)
        variant = VARIANTS[r % len(VARIANTS)]
        docs = {
            "T.json": norm,
            "A.json": wire_cat(norm, a),
            "B.json": wire_cat(norm, b),
            "S.json": wire_set(rng, t, norm, variant),
            "K.json": wire_k(draw_k(rng, t)),
            "up.json": wire_lift(rng, t, norm, "sources", pa),
            "down.json": wire_lift(rng, t, norm, "sinks", pb),
        }
        files = {file: json.dumps(doc) for file, doc in docs.items()}
        tnorm = name if name in BUILTIN_NORMS else "T.json"
        fmt = ("json", "text")[r % 2]
        argvs = [
            *(("construct", kind, "A.json", "B.json")
              for kind in ("product", "tensor", "hom_tensor", "hom_power")),
            ("construct", "hom_power", "B.json", "A.json"),
            ("construct", "coreflect", "S.json", "A.json"),
            ("construct", "reflect", "S.json", "B.json"),
            ("construct", "initial_lift", "up.json"),
            ("construct", "final_lift", "down.json"),
            ("construct", "por_rho", "A.json"),
            ("construct", "por_sigma", "B.json"),
            ("validate", "A.json", "B.json", "S.json", "--format", fmt),
            ("validate", "K.json", "--tnorm", tnorm, "--format", fmt),
            ("witness", "--k", "K.json", "--tnorm", tnorm),
        ]
        for argv in argvs:
            out.append((f"{r:03d} {name} {' '.join(argv)}", run_cli, (argv, files)))
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


CORPORA = (
    (OUTPUTS, cases),
    (FUNCTOR_OUTPUTS, functor_cases),
    (CLI_OUTPUTS, cli_cases),
    (GRID_OUTPUTS, grid_cases),
)


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


def replay(path: Path, build) -> tuple[dict, dict]:
    """(recorded, replayed) digests of the corpus in path, without the
    argparse cases when this Python is not the one that recorded it."""
    saved = json.loads(path.read_text())
    recorded, replayed = saved["cases"], record(saved["seed"], build)
    if saved.get("python", PYTHON) != PYTHON:
        recorded, replayed = (
            {cid: d for cid, d in digests.items() if not cid.startswith(ARGPARSE)}
            for digests in (recorded, replayed)
        )
    return recorded, replayed


def main(args: list) -> int:
    if args == ["--check"]:
        status = 0
        for path, build in CORPORA:
            recorded, replayed = replay(path, build)
            cid = first_difference(recorded, replayed)
            if cid is not None:
                print(f"{path.name} differs: {cid}")
                status = 1
            else:
                print(f"{path.name}: {len(recorded)} cases replay unchanged")
        return status
    if args:
        print("usage: record_outputs.py [--check]", file=sys.stderr)
        return 2
    for path, build in CORPORA:
        digests = record(SEED, build)
        doc = {"seed": SEED}
        if any(cid.startswith(ARGPARSE) for cid in digests):
            doc["python"] = PYTHON
        doc["cases"] = digests
        path.write_text(json.dumps(doc, indent=0) + "\n")
        print(f"{len(digests)} cases written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
