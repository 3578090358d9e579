"""Record the category kernels' outputs on a seeded corpus, or replay it.

    python3 tools/record_outputs.py          # write tests/kernel_outputs.json
    python3 tools/record_outputs.py --check  # replay; name the first case that differs

The corpus is drawn with ``random.Random`` from a fixed seed, with the
standard library only, so it replays on every supported Python without
the test extras.  It covers ``validate_qcat`` (verdict, message and
witness), ``final_lift``, ``reflect_r``, ``coreflect_c`` and
``is_in_cat_s`` under the Godel, Lukasiewicz, product and remark4
norms and under ordinal sums of Lukasiewicz blocks on a /12 grid (some
with adjacent blocks sharing an endpoint), on 1-14 points: categories,
categories with one entry lowered, random matrices, all four
suitable-set variants (suitable or not) and refused inputs.  Each case
is stored as a digest of its output, or of its error's type and text.

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

from realcat import subconstructs as sc  # noqa: E402
from realcat.intervals import IntervalSet  # noqa: E402
from realcat.qcat import QCat, final_lift, two_point, validate_qcat  # noqa: E402
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
SEED = 20
ROUNDS = 480

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
        ("refused duplicate carrier", final_lift, (luk, [], ("p", "p"))),
        ("refused unsuitable set", sc.reflect_r, (unsuitable, a)),
        ("refused set over another norm", sc.coreflect_c, (sc.sqrt_band(godel()), a)),
        (
            "refused irrational root",
            sc.coreflect_c,
            (sc.sqrt_band(prod), two_point(prod, half, 0)),
        ),
    ]


def outcome(fn, args) -> str:
    """fn(*args) as text: a category's points and entries, a check's
    verdict, message and witness, the repr of anything else, or the
    error's type and text."""
    try:
        value = fn(*args)
    except Exception as exc:  # every error is an output here
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, QCat):
        return repr((value.points, [[str(v) for v in row] for row in value.matrix]))
    if isinstance(value, CheckResult):
        return repr((value.passed, value.message, value.witness))
    return repr(value)


def record(seed: int = SEED) -> dict:
    """case id -> digest of its outcome."""
    return {
        cid: hashlib.sha256(outcome(fn, args).encode()).hexdigest()[:16]
        for cid, fn, args in cases(seed)
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
        saved = json.loads(OUTPUTS.read_text())
        cid = first_difference(saved["cases"], record(saved["seed"]))
        if cid is not None:
            print(f"differs: {cid}")
            return 1
        print(f"{len(saved['cases'])} cases replay unchanged")
        return 0
    if args:
        print("usage: record_outputs.py [--check]", file=sys.stderr)
        return 2
    digests = record(SEED)
    OUTPUTS.write_text(json.dumps({"seed": SEED, "cases": digests}, indent=0) + "\n")
    print(f"{len(digests)} cases written to {OUTPUTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
