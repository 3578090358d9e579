"""Command-line front end.

Four commands, each with only the flags it reads:

- ``validate PATH... [--format json|text] [--tnorm T]``: structural
  checks on category, suitable-set and interval-set files (``--tnorm``
  supplies the norm for suitable sets without one and is required for
  interval sets; a suitable set that names a different norm exits 5).
  A category or suitable-set file that does not decode is a failing case.
- ``construct KIND INPUT... [--max-maps N] [--out FILE]``: apply a named
  construction and write the resulting category.  Every input category
  is validated first; a matrix that is no category exits 5, and so does
  a suitable set of ``coreflect``/``reflect`` that fails S1-S3.  So does
  the result of ``hom_power``: [A, B] is a category when the values lie
  in M, not for every A and B.  Tuple-shaped points are written as flat
  labels, and a result with two points written alike (``("a", "b,c")``
  and ``("a,b", "c")``, or ``"1"`` and ``1``) exits 5 and writes nothing.
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
on stderr, and so is each case of a text report: a line break inside a
label, a path or an argument is written as its escape (``\n``).
Every reader checks a field's JSON shape before it reads a value inside
it, and names the field it finds missing or of the wrong shape.  A file
that does not decode, or a lift spec whose carrier or maps the lift
refuses, exits 2 with the file's path in the line.

The parser needs no kernel module: each command reaches its modules
through ``rc.<name>``, the package's own lazy loader, which imports a
submodule or an exported name on first use.  So ``--help`` and a usage
error load only this module and ``realcat.errors``.  ``validate`` and
the lifts load ``realcat.qcat`` but not ``realcat.functors`` (the
functor search and hom objects), which only ``product``, ``tensor`` and
the hom objects load; ``coreflect``, ``reflect``, the ``por``
constructions and a suitable-set file add ``realcat.subconstructs``;
``witness`` loads ``realcat.ccc`` and neither ``realcat.functors`` nor
``realcat.subconstructs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import (
    DEFAULT_MAP_CAP, DomainError, ParseError, RealcatError, SizeLimitExceeded, one_line
)

if TYPE_CHECKING:
    from .qcat import QCat
    from .serialize import Report
    from .tnorm import TNorm

# the package: realcat.<name> imports its module on first use
rc = sys.modules[__package__]

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_DOMAIN = 5
EXIT_CODES = {ParseError: EXIT_PARSE, SizeLimitExceeded: EXIT_SIZE}  # else EXIT_DOMAIN

# the names of realcat.suites.SUITES, so that building the parser does
# not import the suites (a test keeps the two alike)
SUITE_NAMES = (
    "approx",
    "ccc_equivalence",
    "exponential_law",
    "monoidal",
    "power_existence",
    "resd_prop",
    "suitable",
    "tnorm_laws",
    "yoneda",
)


def _file_error(path: str, exc: OSError) -> ParseError:
    """exc as one line that names path once: "D/c.json: No such file or
    directory", not Python's "[Errno 2] ... 'D/c.json'"."""
    return ParseError(f"{path}: {exc.strerror or exc}")


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise _file_error(path, exc) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _file_error(path, exc) from exc


def _decoded(path: str, decode: Callable):
    """decode applied to the JSON in path; a decode error names the file."""
    obj = _load_json(path)
    try:
        return decode(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _tnorm(arg: str) -> TNorm:
    """Resolve ``--tnorm``: a builtin norm name, else a t-norm JSON file."""
    decode, names = rc.serialize.tnorm_from_obj, rc.tnorm.BUILTIN_NORMS
    if arg in names:
        return decode(arg)
    try:
        return _decoded(arg, decode)
    except ParseError as exc:
        raise ParseError(
            f"--tnorm takes one of {sorted(names)} or a t-norm file; {exc}"
        ) from exc


def _emit(report: Report, fmt: str):
    if fmt == "text":
        sys.stdout.write(report.to_text())
    else:
        sys.stdout.write(rc.serialize.dumps(report.to_obj()))


def _require_lift_categories(path: str, t: TNorm, cats) -> None:
    """A lift spec's categories are categories over the spec's norm."""
    for cat in cats:
        rc.qcat.require_category(cat, where=f"{path}: ")
        if cat.tnorm != t:
            raise DomainError(
                f"{path}: the lift spec and one of its categories live over "
                "different t-norms"
            )


def _category(path: str) -> QCat:
    """Constructions read categories only: reject any other matrix."""
    cat = _decoded(path, rc.serialize.qcat_from_obj)
    return rc.qcat.require_category(cat, where=f"{path}: ")


def _categories(args) -> list[QCat]:
    cats = [_category(path) for path in args.inputs]
    if cats[0].tnorm != cats[-1].tnorm:
        raise DomainError("the two categories live over different t-norms")
    return cats


def _suitable_and_category(args):
    """C and R read suitable sets only: reject any other set."""
    path = args.inputs[0]
    s = _decoded(path, rc.serialize.suitable_from_obj)
    return rc.subconstructs.require_suitable(s, f"{path}: "), _category(args.inputs[1])


def _hom_power(args) -> QCat:
    """[A, B], refused when it is not a category; the check names the
    points by the labels its file shows."""
    out = rc.hom_power(*_categories(args), args.max_maps)
    labelled = out.relabel(rc.serialize.point_labels(out))
    rc.qcat.require_category(labelled, where=f"{args.kind}: the result is ")
    return out


def _lift(family: str, args) -> QCat:
    """The lift of a spec's "sources" or "sinks": a carrier or map fault
    (the lift's ValueError) exits 2 before a category fault exits 5."""
    path = args.inputs[0]
    decode = partial(rc.serialize.lift_from_obj, family=family)
    t, carrier, pairs = _decoded(path, decode)
    try:
        if family == "sinks":
            out = rc.final_lift(t, pairs, carrier)
        else:
            out = rc.initial_lift(t, carrier, [(f, cat) for cat, f in pairs])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    _require_lift_categories(path, t, [cat for cat, _ in pairs])
    return out


# each construction: the number of input files it takes, and the function
# that decodes and checks them (from the parsed arguments) and builds it
CONSTRUCT_KINDS = {
    "product": (2, lambda args: rc.product(*_categories(args))),
    "tensor": (2, lambda args: rc.tensor(*_categories(args))),
    "hom_tensor": (2, lambda args: rc.hom_tensor(*_categories(args), args.max_maps)),
    "hom_power": (2, _hom_power),
    "coreflect": (2, lambda args: rc.coreflect_c(*_suitable_and_category(args))),
    "reflect": (2, lambda args: rc.reflect_r(*_suitable_and_category(args))),
    "initial_lift": (1, partial(_lift, "sources")),
    "final_lift": (1, partial(_lift, "sinks")),
    "por_rho": (1, lambda args: rc.por_coreflection(*_categories(args))),
    "por_sigma": (1, lambda args: rc.por_reflection(*_categories(args))),
}


def cmd_validate(args) -> int:
    ser = rc.serialize
    report = ser.Report("validate")
    t = _tnorm(args.tnorm) if args.tnorm else None
    # each input kind: the decoder of its file and the check of its value;
    # subconstructs loads only when a suitable set is checked
    checks = {
        "category": (ser.qcat_from_obj, rc.validate_qcat),
        "suitable set": (
            partial(ser.suitable_from_obj, tnorm=t), lambda s: rc.check_suitable(s)
        ),
        "interval set": (ser.intervalset_from_obj, partial(rc.subquantale_check, t)),
    }
    for path in args.paths:
        obj = _load_json(path)
        kind = ser.kind_of(obj)
        if kind is None:
            raise ParseError(f"{path}: unrecognized input kind")
        if kind == "interval set" and t is None:
            raise ParseError("subquantale check needs --tnorm")
        decode, check = checks[kind]
        try:
            value = decode(obj)
        except ParseError as exc:
            report.record(path, False, f"{kind} invalid: {exc}")
            continue
        except DomainError as exc:  # a suitable set over another norm
            raise DomainError(f"{path}: {exc}") from exc
        res = check(value)
        report.record(path, res.passed, res.message)
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def cmd_construct(args) -> int:
    kind = args.kind
    arity, build = CONSTRUCT_KINDS[kind]
    if len(args.inputs) != arity:
        raise ParseError(
            f"construct {kind} takes {arity} input file(s), got {len(args.inputs)}"
        )
    text = rc.serialize.dumps(rc.serialize.qcat_to_obj(build(args)))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = rc.suites.WorkspaceConfig(tnorm=_tnorm(args.tnorm))
    report = rc.suites.run_suite(args.suite, config)
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_WITNESS


def cmd_witness(args) -> int:
    ser = rc.serialize
    t = _tnorm(args.tnorm)
    k = _decoded(args.k, ser.intervalset_from_obj)
    sq = rc.subquantale_check(t, k)
    if not sq.passed:
        raise ParseError(f"K is not a subquantale: {sq.message}")
    if rc.ccc_criterion(t, k):
        sys.stdout.write(ser.dumps({"cartesian_closed": True, "criterion": True}))
        return EXIT_OK
    # K is not inside M, so a failing triple exists.  The grid search
    # picks it when it can (its greatest failing triple is the textbook
    # instance); a grid that misses every failure falls back to the
    # exact (a, a, a & a).
    res = rc.ccc_identity_check(t, k, k.sample(rc.values.SAMPLE_DENOMINATOR))
    triple = rc.ccc.ccc_failure_triple(t, k) if res.passed else res.witness
    w = rc.ccc_witness(t, *triple)
    text = ser.dumps(ser.witness_to_obj(w))
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return EXIT_WITNESS


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {one_line(message)}\n")


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
        default=DEFAULT_MAP_CAP,
        help="cap on |B|^|A|, the number of maps A -> B (not on the work "
        "of the functor search)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = subparsers.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=SUITE_NAMES)
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
    except RealcatError as exc:
        print(f"error: {one_line(str(exc))}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_DOMAIN)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
