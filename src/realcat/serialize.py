"""JSON wire formats: t-norms, interval sets, categories, suitable sets,
lift specs (read only) and CCC witnesses (written only).

Readers check shapes and decode values.  A lift spec's points are left
to the lift: ``qcat.initial_lift`` and ``final_lift`` refuse a repeated
carrier point and a map that omits a point or sends one outside.

Rationals are always serialized as "p/q" strings, never as decimals, so
round-tripping is exact.  Tuple-shaped points (from products and hom
objects) are flattened to parenthesized labels on output, and a
category with two points flattened alike is refused, so emitted files
re-parse to equal values.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DomainError, ParseError
from .intervals import IntervalSet
from .qcat import QCat
from .subconstructs import CCCWitness, SuitableSet, SuitableVariant
from .tnorm import BUILTIN_NORMS, Block, BlockKind, TNorm
from .values import format_rat, parse_rat


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


def _require_arrays(*values):
    """A JSON array where the format has one (a string or an object would
    iterate as characters or keys).  Readers call it after decoding, but
    ``tnorm_from_obj`` before it reads a block, as a block's field read
    from a character is Python's own text."""
    for v in values:
        if not isinstance(v, list):
            raise TypeError(f"expected an array, got {type(v).__name__}")


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
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError("t-norm must be a builtin name or {'blocks': [...]}")
    try:
        _require_arrays(obj["blocks"])
        for b in obj["blocks"]:
            if not isinstance(b, dict):
                raise TypeError(f"expected an object, got {type(b).__name__}")
        return TNorm(
            tuple(
                Block(parse_rat(b["lo"]), parse_rat(b["hi"]), BlockKind(b["kind"]))
                for b in obj["blocks"]
            )
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ParseError("interval set must be {'components': [...]}")
    parts = []
    for c in obj["components"]:
        if not isinstance(c, dict):
            raise ParseError(f"bad component {c!r}")
        if "at" in c:
            parts.append(parse_rat(c["at"]))
        else:
            try:
                parts.append((parse_rat(c["lo"]), parse_rat(c["hi"])))
            except KeyError as exc:
                raise ParseError(f"bad component {c!r}") from exc
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
    if not isinstance(obj, dict):
        raise ParseError("category must be an object")
    try:
        t = tnorm_from_obj(obj["tnorm"])
        points = tuple(obj["points"])
        matrix = tuple(
            tuple(parse_rat(v) for v in row) for row in obj["matrix"]
        )
        try:
            c = QCat(t, points, matrix)
        except TypeError as exc:
            raise ParseError(f"category points must be labels: {exc}") from exc
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        _require_arrays(obj["points"], obj["matrix"], *obj["matrix"])
        return c
    except KeyError as exc:
        raise ParseError(f"category is missing field {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"category points and matrix must be lists: {exc}") from exc


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
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ParseError("suitable set must carry a 'variant'")
    try:
        variant = SuitableVariant(obj["variant"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
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
    try:
        pairs = (
            frozenset((parse_rat(a), parse_rat(b)) for a, b in obj["pairs"])
            if obj.get("pairs") is not None
            else None
        )
        s = SuitableSet(tnorm, variant, k=k, pairs=pairs)
        if pairs is not None:
            _require_arrays(obj["pairs"], *obj["pairs"])
        return s
    except TypeError as exc:
        raise ParseError(f"suitable pairs must be a list of pairs: {exc}") from exc
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
    if not isinstance(obj, dict):
        raise ParseError("lift spec must be an object")
    try:
        t = tnorm_from_obj(obj["tnorm"])
        entries = obj[family]
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries
        ):
            raise ParseError(f"lift {family} must be a list of objects")
        pairs = [(qcat_from_obj(e["category"]), e["map"]) for e in entries]
        carrier = obj["carrier"]
    except KeyError as exc:
        raise ParseError(f"lift spec is missing field {exc}") from exc
    if not isinstance(carrier, list):
        raise ParseError("lift carrier must be a list")
    try:
        for p in carrier:
            hash(p)
    except TypeError as exc:
        raise ParseError(f"lift carrier points must be labels: {exc}") from exc
    for _, f in pairs:
        if not isinstance(f, dict):
            raise ParseError(f"{family[:-1]} map must be an object")
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


def dumps(obj: Any) -> str:
    """Stable rendering: sorted keys, fixed indentation, newline at end."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
