"""Command-line front end.

Four commands: ``validate`` (structural checks on input files),
``construct`` (apply a named construction and write the result),
``verify`` (run a named invariant suite), ``witness`` (decide cartesian
closedness of K-Cat and emit a failure witness when there is one).

Exit codes: 0 success or negative witness, 1 positive witness or failed
validation, >= 2 operational errors (parse 2, size cap 3, other domain
errors 5; 4 is retired).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qcat as qc
from . import serialize as ser
from . import subconstructs as sub
from .errors import ParseError, RealcatError, SizeLimitExceeded
from .suites import SUITES, Report, WorkspaceConfig, run_suite
from .tnorm import subquantale_check
from .values import ONE, ZERO

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_DOMAIN = 5

CONSTRUCT_KINDS = (
    "product",
    "tensor",
    "hom_tensor",
    "hom_power",
    "coreflect",
    "reflect",
    "initial_lift",
    "final_lift",
    "por_rho",
    "por_sigma",
)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(report: Report, fmt: str):
    if fmt == "text":
        sys.stdout.write(report.to_text())
    else:
        sys.stdout.write(ser.dumps(report.to_obj()))


def _preord_as_qcat(t, pre) -> qc.QCat:
    n = len(pre.points)
    matrix = tuple(
        tuple(ONE if pre.leq[i][j] else ZERO for j in range(n))
        for i in range(n)
    )
    return qc.QCat(t, pre.points, matrix)


def cmd_validate(args) -> int:
    report = Report("validate")
    config_tnorm = ser.tnorm_from_obj(args.tnorm) if args.tnorm else None
    for path in args.paths:
        obj = _load_json(path)
        if isinstance(obj, dict) and "matrix" in obj:
            try:
                cat = ser.qcat_from_obj(obj)
            except ParseError as exc:
                report.record(path, False, f"category invalid: {exc}")
                continue
            res = qc.validate_qcat(cat)
            report.record(path, res.passed, res.message)
        elif isinstance(obj, dict) and "variant" in obj:
            s = ser.suitable_from_obj(obj, tnorm=config_tnorm)
            res = sub.check_suitable(s, _grid(args))
            report.record(path, res.passed, res.message)
        elif isinstance(obj, dict) and "components" in obj:
            if config_tnorm is None:
                raise ParseError("subquantale check needs --tnorm")
            k = ser.intervalset_from_obj(obj)
            res = subquantale_check(config_tnorm, k)
            report.record(path, res.passed, res.message)
        else:
            raise ParseError(f"{path}: unrecognized input kind")
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def _grid(args):
    from .values import uniform_grid

    return uniform_grid(args.grid_denominator)


def cmd_construct(args) -> int:
    kind = args.kind
    if kind in ("product", "tensor", "hom_tensor", "hom_power"):
        a = ser.qcat_from_obj(_load_json(args.inputs[0]))
        b = ser.qcat_from_obj(_load_json(args.inputs[1]))
        fn = {
            "product": qc.product,
            "tensor": qc.tensor,
            "hom_tensor": lambda x, y: qc.hom_tensor(x, y, args.max_maps),
            "hom_power": lambda x, y: qc.hom_power(x, y, args.max_maps),
        }[kind]
        out = fn(a, b)
    elif kind in ("coreflect", "reflect"):
        s = ser.suitable_from_obj(_load_json(args.inputs[0]))
        c = ser.qcat_from_obj(_load_json(args.inputs[1]))
        if kind == "coreflect":
            out = sub.coreflect_c(s, c)
        else:
            out = sub.reflect_r(s, c)
    elif kind in ("por_rho", "por_sigma"):
        c = ser.qcat_from_obj(_load_json(args.inputs[0]))
        pre = (
            qc.por_coreflection(c)
            if kind == "por_rho"
            else qc.por_reflection(c)
        )
        out = _preord_as_qcat(c.tnorm, pre)
    elif kind == "initial_lift":
        spec = _load_json(args.inputs[0])
        t = ser.tnorm_from_obj(spec["tnorm"])
        sources = [
            (src["map"], ser.qcat_from_obj(src["category"]))
            for src in spec["sources"]
        ]
        out = qc.initial_lift(t, spec["carrier"], sources)
    elif kind == "final_lift":
        spec = _load_json(args.inputs[0])
        t = ser.tnorm_from_obj(spec["tnorm"])
        sinks = [
            (ser.qcat_from_obj(snk["category"]), snk["map"])
            for snk in spec["sinks"]
        ]
        _check_sink_maps(sinks, spec["carrier"])
        out = qc.final_lift(t, sinks, spec["carrier"])
    else:  # pragma: no cover
        raise ParseError(f"unknown construction {kind!r}")
    text = ser.dumps(ser.qcat_to_obj(out.relabel([ser.point_label(p) for p in out.points])))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _check_sink_maps(sinks, carrier):
    """Every sink map must send each of its points into the carrier."""
    for cat, f in sinks:
        if not isinstance(f, dict):
            raise ParseError("sink map must be an object")
        for p in cat.points:
            if p not in f:
                raise ParseError(f"sink map omits point {p!r}")
            if f[p] not in carrier:
                raise ParseError(
                    f"sink map sends {p!r} to {f[p]!r}, outside the carrier"
                )


def cmd_verify(args) -> int:
    config = WorkspaceConfig(
        tnorm=ser.tnorm_from_obj(args.tnorm or "lukasiewicz"),
        grid_denominator=args.grid_denominator,
        max_maps=args.max_maps,
    )
    report = run_suite(args.suite, config)
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def cmd_witness(args) -> int:
    t = ser.tnorm_from_obj(args.tnorm or "lukasiewicz")
    k = ser.intervalset_from_obj(_load_json(args.k))
    sq = subquantale_check(t, k)
    if not sq.passed:
        raise ParseError(f"K is not a subquantale: {sq.message}")
    grid = k.sample(args.grid_denominator)
    res = sub.ccc_identity_check(t, k, grid)
    if res.passed:
        sys.stdout.write(
            ser.dumps({"cartesian_closed": True, "criterion": sub.ccc_criterion(t, k)})
        )
        return EXIT_OK
    w = sub.ccc_witness(t, *res.witness)
    text = ser.dumps(ser.witness_to_obj(w))
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_WITNESS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realcat",
        description="exact computations with real-enriched categories",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument(
        "--tnorm", help="builtin norm name or inline JSON file"
    )
    common.add_argument("--grid-denominator", type=int, default=16)
    common.add_argument("--max-maps", type=int, default=10**6)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "validate", parents=[common], help="check input files"
    )
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = subparsers.add_parser(
        "construct", parents=[common], help="apply a construction"
    )
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = subparsers.add_parser(
        "verify", parents=[common], help="run an invariant suite"
    )
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(func=cmd_verify)

    p = subparsers.add_parser(
        "witness",
        parents=[common],
        help="decide cartesian closedness of K-Cat",
    )
    p.add_argument("--k", required=True, help="interval set JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tnorm and args.tnorm not in (
        "godel",
        "lukasiewicz",
        "product",
        "remark4",
    ):
        # treat as a path to an inline t-norm file
        args.tnorm = _load_json(args.tnorm)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except RealcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
