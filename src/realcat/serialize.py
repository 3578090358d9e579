"""JSON wire formats: t-norms, interval sets, categories, suitable sets,
lift specs (read only), and CCC witnesses and check reports (written
only).

Every reader checks a field's JSON shape before it reads any value
inside it: a missing field is "<what> is missing field '<key>'", and an
array or object of the wrong shape "<what> must be a list" (or "an
object", "a list of lists", "a list of objects").  Values are then
decoded, and the library's own checks name what is wrong with them.  A
lift spec's points are left to the lift: ``qcat.initial_lift`` and
``final_lift`` refuse a repeated carrier point and a map that omits a
point or sends one outside.

Rationals are always serialized as "p/q" strings, never as decimals, so
round-tripping is exact.  Tuple-shaped points (from products and hom
objects) are flattened to parenthesized labels on output, and a
category with two points flattened alike is refused, so emitted files
re-parse to equal values.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable

from .errors import DomainError, ParseError, one_line
from .intervals import IntervalSet
from .qcat import QCat
from .tnorm import BUILTIN_NORMS, Block, BlockKind, TNorm
from .values import Record, format_rat, parse_rat

if TYPE_CHECKING:  # for annotations; suitable_from_obj imports it when it runs
    from .subconstructs import CCCWitness, SuitableSet


def point_label(p) -> str:
    if isinstance(p, tuple):
        return "(" + ",".join(point_label(q) for q in p) + ")"
    return str(p)


def point_labels(c: QCat) -> list[str]:
    """c's points as its file writes them.  Two points written alike
    would read back as one, so they are a DomainError."""
    seen = {}
    for p in c.points:
        label = point_label(p)
        q = seen.setdefault(label, p)
        if q is not p:
            raise DomainError(f"points {q!r} and {p!r} are both written {label!r}")
    return list(seen)


_NOUNS = {list: ("a list", "lists"), dict: ("an object", "objects")}


def _field(obj: dict, key: str, what: str) -> Any:
    """obj[key] of the JSON object obj, or a ParseError naming the
    missing field."""
    if key not in obj:
        raise ParseError(f"{what} is missing field {key!r}")
    return obj[key]


def _shaped(value: Any, what: str, shape: type, of: type | None = None) -> Any:
    """value, when it is a JSON array (shape list) or object (shape
    dict), and an array of that shape's items when of is given; else a
    ParseError naming what.  Readers check a field so before reading any
    value inside it."""
    if not isinstance(value, shape) or (
        of is not None and not all(isinstance(v, of) for v in value)
    ):
        noun = _NOUNS[shape][0] + (f" of {_NOUNS[of][1]}" if of else "")
        raise ParseError(f"{what} must be {noun}")
    return value


def _member(kind: type[Enum], value: Any, what: str) -> Any:
    """The member of the enum kind whose value is value, or a ParseError
    that names value and lists the valid values."""
    values = sorted(member.value for member in kind)
    if value not in values:
        raise ParseError(f"unknown {what} {value!r}; expected one of {values}")
    return kind(value)


# ---------------------------------------------------------------------------
# t-norms


def tnorm_to_obj(t: TNorm) -> Any:
    """A builtin's name only for a norm equal to it, as names are labels."""
    if t.name in BUILTIN_NORMS and t == BUILTIN_NORMS[t.name]():
        return t.name
    return {
        "blocks": [
            {
                "lo": format_rat(b.lo),
                "hi": format_rat(b.hi),
                "kind": b.kind.value,
            }
            for b in t.blocks
        ]
    }


def tnorm_from_obj(obj: Any) -> TNorm:
    if isinstance(obj, str):
        maker = BUILTIN_NORMS.get(obj)
        if maker is None:
            raise ParseError(
                f"unknown t-norm name {obj!r}; "
                f"expected one of {sorted(BUILTIN_NORMS)}"
            )
        return maker()
    if not isinstance(obj, dict):
        raise ParseError("t-norm must be a builtin name or {'blocks': [...]}")
    blocks = _shaped(_field(obj, "blocks", "t-norm"), "t-norm blocks", list, dict)
    try:
        return TNorm(
            tuple(
                Block(
                    parse_rat(_field(b, "lo", "t-norm block")),
                    parse_rat(_field(b, "hi", "t-norm block")),
                    _member(BlockKind, _field(b, "kind", "t-norm block"), "t-norm block kind"),
                )
                for b in blocks
            )
        )
    except ValueError as exc:
        raise ParseError(f"bad block spec: {exc}") from exc


# ---------------------------------------------------------------------------
# interval sets


def intervalset_to_obj(s: IntervalSet) -> Any:
    parts = []
    for lo, hi in s.components:
        if lo == hi:
            parts.append({"at": format_rat(lo)})
        else:
            parts.append({"lo": format_rat(lo), "hi": format_rat(hi)})
    return {"components": parts}


def intervalset_from_obj(obj: Any) -> IntervalSet:
    obj = _shaped(obj, "interval set", dict)
    parts = []
    for c in _shaped(
        _field(obj, "components", "interval set"), "interval set components", list, dict
    ):
        if "at" in c:
            parts.append(parse_rat(c["at"]))
        else:
            lo = parse_rat(_field(c, "lo", "interval set component"))
            parts.append((lo, parse_rat(_field(c, "hi", "interval set component"))))
    try:
        return IntervalSet.of(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# categories


def qcat_to_obj(c: QCat) -> Any:
    return {
        "tnorm": tnorm_to_obj(c.tnorm),
        "points": point_labels(c),
        "matrix": [[format_rat(v) for v in row] for row in c.matrix],
    }


def qcat_from_obj(obj: Any) -> QCat:
    obj = _shaped(obj, "category", dict)
    t = tnorm_from_obj(_field(obj, "tnorm", "category"))
    points = _shaped(_field(obj, "points", "category"), "category points", list)
    matrix = _shaped(_field(obj, "matrix", "category"), "category matrix", list, list)
    matrix = tuple(tuple(map(parse_rat, row)) for row in matrix)
    try:
        return QCat(t, tuple(points), matrix)
    except TypeError as exc:
        raise ParseError(f"category points must be labels: {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# suitable sets


def suitable_to_obj(s: SuitableSet) -> Any:
    return {
        "variant": s.variant.value,
        "tnorm": tnorm_to_obj(s.tnorm),
        "k": intervalset_to_obj(s.k) if s.k is not None else None,
        "pairs": sorted(
            [format_rat(a), format_rat(b)] for a, b in s.pairs
        )
        if s.pairs is not None
        else None,
    }


def suitable_from_obj(obj: Any, tnorm: TNorm | None = None) -> SuitableSet:
    """Decode a suitable set under its own ``tnorm`` field.  The context
    norm ``tnorm`` stands in for a missing field; a field naming another
    norm is a DomainError (a name and a block file of one norm are the
    same norm)."""
    from .subconstructs import SuitableSet, SuitableVariant

    obj = _shaped(obj, "suitable set", dict)
    variant = _member(
        SuitableVariant, _field(obj, "variant", "suitable set"), "suitable set variant"
    )
    if "tnorm" in obj:
        own = tnorm_from_obj(obj["tnorm"])
        if tnorm is not None and own != tnorm:
            raise DomainError(
                f"the suitable set lives over {own}, not the given t-norm {tnorm}"
            )
        tnorm = own
    elif tnorm is None:
        raise ParseError("suitable set needs a t-norm (field or context)")
    k = intervalset_from_obj(obj["k"]) if obj.get("k") is not None else None
    pairs = None
    if obj.get("pairs") is not None:
        pairs = _shaped(obj["pairs"], "suitable pairs", list, list)
        if any(len(p) != 2 for p in pairs):
            raise ParseError("suitable pairs must each have two entries")
        pairs = frozenset(tuple(map(parse_rat, p)) for p in pairs)
    try:
        return SuitableSet(tnorm, variant, k=k, pairs=pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# input files and lift specs


def kind_of(obj: Any) -> str | None:
    """Which input a decoded file holds, told by its distinguishing key:
    "category", "suitable set" or "interval set" (None if none fits)."""
    if isinstance(obj, dict):
        for key, kind in (
            ("matrix", "category"),
            ("variant", "suitable set"),
            ("components", "interval set"),
        ):
            if key in obj:
                return kind
    return None


def lift_from_obj(obj: Any, family: str):
    """Decode a lift spec {"tnorm", "carrier", family: [{"category",
    "map"}]} into (t, carrier, [(category, map)]), for the "sources" of
    qcat.initial_lift or the "sinks" of qcat.final_lift.  Only shapes
    are read: the carrier is a list of labels and each map an object.
    Which point a map omits or where it sends one, and whether the
    carrier repeats a point, are the lift's own checks."""
    obj = _shaped(obj, "lift spec", dict)
    t = tnorm_from_obj(_field(obj, "tnorm", "lift spec"))
    entries = _shaped(_field(obj, family, "lift spec"), f"lift {family}", list, dict)
    pairs = [
        (qcat_from_obj(_field(e, "category", "lift spec")), _field(e, "map", "lift spec"))
        for e in entries
    ]
    carrier = _shaped(_field(obj, "carrier", "lift spec"), "lift carrier", list)
    try:
        for p in carrier:
            hash(p)
    except TypeError as exc:
        raise ParseError(f"lift carrier points must be labels: {exc}") from exc
    for _, f in pairs:
        _shaped(f, f"{family[:-1]} map", dict)
    return t, carrier, pairs


# ---------------------------------------------------------------------------
# witnesses


def witness_to_obj(w: CCCWitness) -> Any:
    return {
        "u": format_rat(w.u),
        "v": format_rat(w.v),
        "r": format_rat(w.r),
        "lhs": format_rat(w.lhs),
        "rhs": format_rat(w.rhs),
        "categories": {
            "A": qcat_to_obj(w.cat_a),
            "B": qcat_to_obj(w.cat_b),
            "C": qcat_to_obj(w.cat_c),
            "D": qcat_to_obj(w.cat_d),
        },
    }


# ---------------------------------------------------------------------------
# check reports


class Report(Record):
    """Machine-readable outcome of one suite run or one ``validate``
    command: a case per check (a new list by default), written as JSON
    (``to_obj``) or one line per case (``to_text``)."""

    _fields = ("suite", "cases")

    def __init__(self, suite: str, cases: list | None = None):
        self.suite = suite
        self.cases = [] if cases is None else cases

    def record(self, name: str, passed: bool, detail: str = "", witness=None):
        self.cases.append(
            {
                "name": name,
                "status": "pass" if passed else "fail",
                "detail": detail,
                "witness": witness,
            }
        )

    def check(self, name: str, failures: Iterable[str]):
        """Record `name` as failing with the first message `failures`
        yields (nothing after it is scanned), or as passing if none."""
        first = next(iter(failures), None)
        self.record(name, first is None, first or "")

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
            detail = f"  ({one_line(c['detail'])})" if c["detail"] else ""
            lines.append(f"  [{mark}] {one_line(c['name'])}{detail}")
        s = self.summary
        lines.append(
            f"  {s['pass']} passed, {s['fail']} failed, {s['error']} errored"
        )
        return "\n".join(lines) + "\n"


def dumps(obj: Any) -> str:
    """Stable rendering: sorted keys, fixed indentation, newline at end."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
