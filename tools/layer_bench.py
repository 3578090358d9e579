"""Time the closure layers at sizes no benchmark workload reaches.

    python3 tools/layer_bench.py                       # this checkout
    python3 tools/layer_bench.py --parent ../parent    # and another tree, interleaved
    python3 tools/layer_bench.py --sizes 8 --repeats 1 --rounds 1

For each size n, the input is one sink: a random n-point matrix of
twelfths with 1 on the diagonal (no category, in general), mapped onto
an n-point carrier by the identity, under Lukasiewicz.  Each repeat
times, one call at a time:

- ``final_lift`` of that sink, which closes the matrix;
- ``validate_qcat`` on the lift's result (``validate_qcat_lift``) and
  on a fresh ``QCat`` with the same matrix (``validate_qcat_fresh``),
  built untimed, so neither can answer from an earlier call's memo;
- ``reflect_r`` and ``coreflect_c`` over the square-root band, on the
  fresh category.

Each round runs every size in a fresh child process per tree, with the
child importing realcat from that tree's ``src/``; with ``--parent`` the
two trees alternate which goes first from round to round.  The inputs
are drawn with ``random.Random(SEED)`` and the standard library only, so
any tree that has these five functions can be timed.  The output is one
JSON block: per tree, operation and size, the quartiles [q1, median, q3]
in microseconds over all rounds and repeats (``statistics.quantiles``,
inclusive), and with ``--parent`` each median's ratio to the parent's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (8, 16, 32, 64)
SEED = 1
OPS = (
    "final_lift",
    "validate_qcat_lift",
    "validate_qcat_fresh",
    "reflect_r_band",
    "coreflect_c_band",
)


def load_realcat(src: Path) -> None:
    """Import realcat from src, never from elsewhere."""
    sys.path.insert(0, str(src))
    import realcat

    if Path(realcat.__file__).resolve().parent != (src / "realcat").resolve():
        sys.exit(f"error: imported realcat from {realcat.__file__}, not {src}")


def sink_matrix(rng: random.Random, n: int) -> tuple:
    def entry(i, j):
        return Fraction(1) if i == j else Fraction(rng.randint(0, 12), 12)

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def measure(src: Path, sizes, repeats: int) -> dict:
    """Per operation and size, the microseconds of each timed call."""
    load_realcat(src)
    from realcat.qcat import QCat, final_lift, validate_qcat
    from realcat.subconstructs import coreflect_c, reflect_r, sqrt_band
    from realcat.tnorm import lukasiewicz

    t = lukasiewicz()
    band = sqrt_band(t)
    rng = random.Random(SEED)
    clock = time.perf_counter_ns
    samples = {op: {} for op in OPS}
    for n in sizes:
        carrier = tuple(f"p{i}" for i in range(n))
        sinks = [(QCat(t, carrier, sink_matrix(rng, n)), {p: p for p in carrier})]
        runs = {op: [] for op in OPS}
        gc.collect()
        for _ in range(repeats):
            start = clock()
            lifted = final_lift(t, sinks, carrier)
            runs["final_lift"].append(clock() - start)
            fresh = QCat(t, carrier, lifted.matrix)
            for op, fn, call_args in (
                ("validate_qcat_lift", validate_qcat, (lifted,)),
                ("validate_qcat_fresh", validate_qcat, (fresh,)),
                ("reflect_r_band", reflect_r, (band, fresh)),
                ("coreflect_c_band", coreflect_c, (band, fresh)),
            ):
                start = clock()
                fn(*call_args)
                runs[op].append(clock() - start)
        for op, ns in runs.items():
            samples[op][str(n)] = [x / 1000 for x in ns]
    return samples


def child(src: Path, args) -> dict:
    """measure in a fresh process that imports realcat from src."""
    cmd = [
        sys.executable,
        "-B",
        __file__,
        "--child",
        str(src),
        "--sizes",
        ",".join(map(str, args.sizes)),
        "--repeats",
        str(args.repeats),
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def quartiles(xs: list) -> list:
    qs = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return [round(q, 2) for q in qs]


def summary(by_op: dict) -> dict:
    return {
        op: {n: quartiles(xs) for n, xs in by_n.items()} for op, by_n in by_op.items()
    }


def sizes_arg(text: str) -> list:
    sizes = [int(x) for x in text.split(",")]
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError("sizes are positive integers, comma separated")
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=sizes_arg, default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per round")
    parser.add_argument("--rounds", type=int, default=3, help="processes per tree")
    parser.add_argument("--parent", type=Path, help="a second checkout to interleave")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.rounds < 1:
        parser.error("--repeats and --rounds must be at least 1")
    if args.child:
        json.dump(measure(args.child, args.sizes, args.repeats), sys.stdout)
        return 0

    trees = {"tree": ROOT}
    if args.parent:
        if not (args.parent / "src" / "realcat" / "__init__.py").is_file():
            parser.error(f"{args.parent} holds no src/realcat")
        trees["parent"] = args.parent.resolve()
    pooled = {name: {op: {} for op in OPS} for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name in order:
            for op, by_n in child(trees[name] / "src", args).items():
                for n, xs in by_n.items():
                    pooled[name][op].setdefault(n, []).extend(xs)

    report = {
        "tool": "tools/layer_bench.py",
        "host": {
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "inputs": "one sink per size: a random n-point matrix of twelfths with "
        "1 on the diagonal, identity map, Lukasiewicz; R and C over the "
        "square-root band, on a fresh QCat with the lift's matrix",
        "seed": SEED,
        "sizes": args.sizes,
        "repeats": args.repeats,
        "rounds": args.rounds,
        "unit": "us per call, [q1, median, q3] over rounds x repeats",
        "trees": {name: summary(by_op) for name, by_op in pooled.items()},
    }
    if args.parent:
        tree, parent = report["trees"]["tree"], report["trees"]["parent"]
        report["tree_over_parent"] = {
            op: {n: round(tree[op][n][1] / parent[op][n][1], 3) for n in tree[op]}
            for op in OPS
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
