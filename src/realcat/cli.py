"""Command-line front end.

Four commands, each with only the flags it reads:

- ``validate PATH... [--format json|text] [--tnorm T]``: structural
  checks on category, suitable-set and interval-set files (``--tnorm``
  supplies the norm for suitable sets without one and is required for
  interval sets; a suitable set that names a different norm exits 5).
- ``construct KIND INPUT... [--max-maps N] [--out FILE]``: apply a named
  construction and write the resulting category.  Every input category
  is validated first; a matrix that is no category exits 5.
- ``verify SUITE [--format json|text] [--tnorm T]``: run a named
  invariant suite.
- ``witness --k FILE [--tnorm T] [--out FILE]``: decide cartesian
  closedness of K-Cat exactly, by K inside M, and emit a failure witness
  when there is one.  The search over the k/16 grid of K only picks
  the witness triple.

``--tnorm`` is a builtin norm name or a t-norm JSON file (default
lukasiewicz for ``verify`` and ``witness``); ``--max-maps`` caps the
functor enumeration of ``construct hom_tensor``/``hom_power`` (a positive
integer, default 10**6).  It bounds |B|^|A|, the number of maps A -> B,
not the work done: the enumeration is a backtracking search that visits
far fewer, but an input with |B|^|A| above the cap exits 3 unsearched.

Exit codes: 0 success or negative witness, 1 positive witness or failed
validation, >= 2 operational errors (parse, usage or file errors 2, size
cap 3, other domain errors 5; 4 is retired).  Every error is one line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qcat as qc
from . import serialize as ser
from . import subconstructs as sub
from .errors import DomainError, ParseError, RealcatError, SizeLimitExceeded
from .suites import SUITES, Report, WorkspaceConfig, run_suite
from .tnorm import BUILTIN_NORMS, TNorm, subquantale_check
from .values import SAMPLE_DENOMINATOR

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_DOMAIN = 5

# each construction and the number of input files it takes
CONSTRUCT_KINDS = {
    "product": 2,
    "tensor": 2,
    "hom_tensor": 2,
    "hom_power": 2,
    "coreflect": 2,
    "reflect": 2,
    "initial_lift": 1,
    "final_lift": 1,
    "por_rho": 1,
    "por_sigma": 1,
}


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _tnorm(arg: str) -> TNorm:
    """Resolve ``--tnorm``: a builtin norm name, else a t-norm JSON file."""
    if arg in BUILTIN_NORMS:
        return ser.tnorm_from_obj(arg)
    try:
        obj = _load_json(arg)
    except ParseError as exc:
        raise ParseError(
            f"--tnorm takes one of {sorted(BUILTIN_NORMS)} or a t-norm file; {exc}"
        ) from exc
    return ser.tnorm_from_obj(obj)


def _emit(report: Report, fmt: str):
    if fmt == "text":
        sys.stdout.write(report.to_text())
    else:
        sys.stdout.write(ser.dumps(report.to_obj()))


def _require_category(path: str, c: qc.QCat) -> qc.QCat:
    """Constructions read categories only: reject any other matrix."""
    res = qc.validate_qcat(c)
    if not res.passed:
        raise DomainError(f"{path}: not a category: {res.message}")
    return c


def _require_lift_categories(path: str, t: TNorm, cats) -> None:
    """A lift spec's categories are categories over the spec's norm."""
    for cat in cats:
        _require_category(path, cat)
        if cat.tnorm != t:
            raise DomainError(
                f"{path}: the lift spec and one of its categories live over "
                "different t-norms"
            )


def _category(path: str) -> qc.QCat:
    return _require_category(path, ser.qcat_from_obj(_load_json(path)))


def cmd_validate(args) -> int:
    report = Report("validate")
    config_tnorm = _tnorm(args.tnorm) if args.tnorm else None
    for path in args.paths:
        obj = _load_json(path)
        kind = ser.kind_of(obj)
        if kind == "category":
            try:
                cat = ser.qcat_from_obj(obj)
            except ParseError as exc:
                report.record(path, False, f"category invalid: {exc}")
                continue
            res = qc.validate_qcat(cat)
            report.record(path, res.passed, res.message)
        elif kind == "suitable set":
            try:
                s = ser.suitable_from_obj(obj, tnorm=config_tnorm)
            except DomainError as exc:
                raise DomainError(f"{path}: {exc}") from exc
            res = sub.check_suitable(s)
            report.record(path, res.passed, res.message)
        elif kind == "interval set":
            if config_tnorm is None:
                raise ParseError("subquantale check needs --tnorm")
            k = ser.intervalset_from_obj(obj)
            res = subquantale_check(config_tnorm, k)
            report.record(path, res.passed, res.message)
        else:
            raise ParseError(f"{path}: unrecognized input kind")
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def cmd_construct(args) -> int:
    kind = args.kind
    if len(args.inputs) != CONSTRUCT_KINDS[kind]:
        raise ParseError(
            f"construct {kind} takes {CONSTRUCT_KINDS[kind]} input file(s), "
            f"got {len(args.inputs)}"
        )
    if kind in ("product", "tensor", "hom_tensor", "hom_power"):
        a, b = _category(args.inputs[0]), _category(args.inputs[1])
        if a.tnorm != b.tnorm:
            raise DomainError("the two categories live over different t-norms")
        fn = {
            "product": qc.product,
            "tensor": qc.tensor,
            "hom_tensor": lambda x, y: qc.hom_tensor(x, y, args.max_maps),
            "hom_power": lambda x, y: qc.hom_power(x, y, args.max_maps),
        }[kind]
        out = fn(a, b)
    elif kind in ("coreflect", "reflect"):
        s = ser.suitable_from_obj(_load_json(args.inputs[0]))
        c = _category(args.inputs[1])
        if s.tnorm != c.tnorm:
            raise DomainError(
                "the suitable set and the category live over different t-norms"
            )
        out = (sub.coreflect_c if kind == "coreflect" else sub.reflect_r)(s, c)
    elif kind in ("por_rho", "por_sigma"):
        c = _category(args.inputs[0])
        out = (sub.por_coreflection if kind == "por_rho" else sub.por_reflection)(c)
    elif kind == "initial_lift":
        t, carrier, sources = ser.initial_lift_from_obj(_load_json(args.inputs[0]))
        _require_lift_categories(args.inputs[0], t, [cat for _, cat in sources])
        out = qc.initial_lift(t, carrier, sources)
    elif kind == "final_lift":
        t, sinks, carrier = ser.final_lift_from_obj(_load_json(args.inputs[0]))
        _require_lift_categories(args.inputs[0], t, [cat for cat, _ in sinks])
        out = qc.final_lift(t, sinks, carrier)
    else:  # pragma: no cover
        raise ParseError(f"unknown construction {kind!r}")
    text = ser.dumps(ser.qcat_to_obj(out.relabel([ser.point_label(p) for p in out.points])))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, WorkspaceConfig(tnorm=_tnorm(args.tnorm)))
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def cmd_witness(args) -> int:
    t = _tnorm(args.tnorm)
    k = ser.intervalset_from_obj(_load_json(args.k))
    sq = subquantale_check(t, k)
    if not sq.passed:
        raise ParseError(f"K is not a subquantale: {sq.message}")
    if sub.ccc_criterion(t, k):
        sys.stdout.write(ser.dumps({"cartesian_closed": True, "criterion": True}))
        return EXIT_OK
    # K is not inside M, so a failing triple exists.  The grid search
    # picks it when it can (its greatest failing triple is the textbook
    # instance); a grid that misses every failure falls back to the
    # exact (a, a, a & a).
    res = sub.ccc_identity_check(t, k, k.sample(SAMPLE_DENOMINATOR))
    triple = sub.ccc_failure_triple(t, k) if res.passed else res.witness
    w = sub.ccc_witness(t, *triple)
    text = ser.dumps(ser.witness_to_obj(w))
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return EXIT_WITNESS


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _map_cap(text: str) -> int:
    """``--max-maps``: a positive integer."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="realcat",
        description="exact computations with real-enriched categories",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    formats = ("json", "text")
    tnorm_help = "builtin norm name or t-norm JSON file"

    p = subparsers.add_parser("validate", help="check input files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--tnorm", help=tnorm_help)
    p.set_defaults(func=cmd_validate)

    p = subparsers.add_parser("construct", help="apply a construction")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("inputs", nargs="+")
    p.add_argument(
        "--max-maps",
        type=_map_cap,
        default=qc.DEFAULT_MAP_CAP,
        help="cap on |B|^|A|, the number of maps A -> B (not on the work "
        "of the functor search)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = subparsers.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--tnorm", default="lukasiewicz", help=tnorm_help)
    p.set_defaults(func=cmd_verify)

    p = subparsers.add_parser(
        "witness", help="decide cartesian closedness of K-Cat"
    )
    p.add_argument("--tnorm", default="lukasiewicz", help=tnorm_help)
    p.add_argument("--k", required=True, help="interval set JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
