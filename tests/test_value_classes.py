"""The package's twelve value classes behave as they did as dataclasses:
the same fields in the same positional order, a repr that names them,
equality of same-class instances with equal fields, a hash of the
fields on the frozen classes (``TNorm`` leaves its name out of both),
and refused assignment on those.  Each repr below was recorded from the
dataclass version of its class."""

from fractions import Fraction as F

import pytest

from realcat.ccc import CCCWitness, ccc_witness
from realcat.functors import QFunctor, enumerate_functors
from realcat.intervals import IntervalSet
from realcat.qcat import QCat, _built_qcat, two_point
from realcat.serialize import Report
from realcat.subconstructs import SuitableSet, SuitableVariant
from realcat.suites import WorkspaceConfig
from realcat.tnorm import Block, BlockKind, CheckResult, TNorm, godel, lukasiewicz
from realcat.yoneda import ApproxReport, FCSequence, approx_property

ONE = F(1)

LUK_REPR = (
    "TNorm(blocks=(Block(lo=Fraction(0, 1), hi=Fraction(1, 1), "
    "kind=<BlockKind.LUKASIEWICZ: 'lukasiewicz'>),), name='lukasiewicz')"
)
GODEL_REPR = "TNorm(blocks=(), name='godel')"


def cat_repr(t: str, points: str, matrix: str) -> str:
    return f"QCat(tnorm={t}, points={points}, matrix={matrix})"


EDGE = cat_repr(
    GODEL_REPR,
    "('0', '1')",
    "((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(1, 1)))",
)


def edge() -> QCat:
    return two_point(godel(), F(1, 2), 0)


def luk_witness() -> CCCWitness:
    return ccc_witness(lukasiewicz(), F(3, 4), F(3, 4), F(1, 2))


def validate_report(detail: str = "valid") -> Report:
    r = Report("validate")
    r.record("a.json", True, detail)
    return r


WITNESS_REPR = (
    "CCCWitness(u=Fraction(3, 4), v=Fraction(3, 4), r=Fraction(1, 2), "
    "lhs=Fraction(1, 2), rhs=Fraction(1, 4), cat_a="
    + cat_repr(
        LUK_REPR,
        "('0', '1')",
        "((Fraction(1, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 1)))",
    )
    + ", cat_b="
    + cat_repr(
        LUK_REPR,
        "('x', 'z')",
        "((Fraction(1, 1), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 1)))",
    )
    + ", cat_c="
    + cat_repr(
        LUK_REPR,
        "('z', 'y')",
        "((Fraction(1, 1), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 1)))",
    )
    + ", cat_d="
    + cat_repr(
        LUK_REPR,
        "('x', 'z', 'y')",
        "((Fraction(1, 1), Fraction(3, 4), Fraction(1, 2)), "
        "(Fraction(3, 4), Fraction(1, 1), Fraction(3, 4)), "
        "(Fraction(1, 2), Fraction(3, 4), Fraction(1, 1)))",
    )
    + ")"
)

# class: (a sample, an unequal instance, its fields in positional order,
# whether it is frozen, the sample's repr)
CLASSES = {
    IntervalSet: (
        lambda: IntervalSet.of([0, (F(1, 4), F(1, 2))]),
        lambda: IntervalSet.of([0]),
        ("components",),
        True,
        "IntervalSet(components=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 4), Fraction(1, 2))))",
    ),
    Block: (
        lambda: Block(F(0), F(1, 2), BlockKind.LUKASIEWICZ),
        lambda: Block(F(0), F(1, 2), BlockKind.PRODUCT),
        ("lo", "hi", "kind"),
        True,
        "Block(lo=Fraction(0, 1), hi=Fraction(1, 2), "
        "kind=<BlockKind.LUKASIEWICZ: 'lukasiewicz'>)",
    ),
    TNorm: (
        lambda: TNorm((Block(F(1, 2), ONE, BlockKind.PRODUCT),), name="half"),
        lambda: TNorm((Block(F(1, 4), ONE, BlockKind.PRODUCT),), name="half"),
        ("blocks", "name"),
        True,
        "TNorm(blocks=(Block(lo=Fraction(1, 2), hi=Fraction(1, 1), "
        "kind=<BlockKind.PRODUCT: 'product'>),), name='half')",
    ),
    CheckResult: (
        lambda: CheckResult(False, "no", witness=("a",)),
        lambda: CheckResult(False, "no"),
        ("passed", "message", "witness"),
        True,
        "CheckResult(passed=False, message='no', witness=('a',))",
    ),
    QCat: (
        edge,
        lambda: two_point(godel(), F(1, 2), F(1, 4)),
        ("tnorm", "points", "matrix"),
        True,
        EDGE,
    ),
    QFunctor: (
        lambda: QFunctor(edge(), edge(), ("0", "1")),
        lambda: QFunctor(edge(), edge(), ("1", "1")),
        ("dom", "cod", "mapping"),
        True,
        f"QFunctor(dom={EDGE}, cod={EDGE}, mapping=('0', '1'))",
    ),
    Report: (
        validate_report,
        lambda: validate_report("other"),
        ("suite", "cases"),
        False,
        "Report(suite='validate', cases=[{'name': 'a.json', 'status': 'pass', "
        "'detail': 'valid', 'witness': None}])",
    ),
    SuitableSet: (
        lambda: SuitableSet(
            godel(), SuitableVariant.EXPLICIT, pairs=frozenset({(ONE, ONE)})
        ),
        lambda: SuitableSet(godel(), SuitableVariant.SQRT_BAND),
        ("tnorm", "variant", "k", "pairs"),
        True,
        f"SuitableSet(tnorm={GODEL_REPR}, variant=<SuitableVariant.EXPLICIT: "
        "'explicit'>, k=None, pairs=frozenset({(Fraction(1, 1), Fraction(1, 1))}))",
    ),
    CCCWitness: (
        luk_witness,
        lambda: ccc_witness(lukasiewicz(), F(3, 4), F(3, 4), F(1, 4)),
        ("u", "v", "r", "lhs", "rhs", "cat_a", "cat_b", "cat_c", "cat_d"),
        True,
        WITNESS_REPR,
    ),
    FCSequence: (
        lambda: FCSequence(edge(), ("0",), ("1",)),
        lambda: FCSequence(edge(), (), ("1",)),
        ("ambient", "prefix", "cycle"),
        True,
        f"FCSequence(ambient={EDGE}, prefix=('0',), cycle=('1',))",
    ),
    ApproxReport: (
        lambda: approx_property(godel()),
        lambda: approx_property(lukasiewicz()),
        ("case", "idempotents_way_below", "includes_top", "supremum", "passed"),
        True,
        "ApproxReport(case=2, idempotents_way_below=IntervalSet(components="
        "((Fraction(0, 1), Fraction(1, 1)),)), includes_top=False, "
        "supremum=Fraction(1, 1), passed=True)",
    ),
    WorkspaceConfig: (
        WorkspaceConfig,
        lambda: WorkspaceConfig(godel()),
        ("tnorm",),
        False,
        f"WorkspaceConfig(tnorm={LUK_REPR})",
    ),
}
IDS = [cls.__name__ for cls in CLASSES]


def test_every_value_class_is_in_the_table():
    assert len(CLASSES) == 12


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_the_repr_is_the_dataclass_repr(cls):
    make, _, _, _, shown = CLASSES[cls]
    assert repr(make()) == shown


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_build_an_equal_instance_by_position_and_by_keyword(cls):
    make, _, fields, _, _ = CLASSES[cls]
    a = make()
    values = [getattr(a, f) for f in fields]
    assert cls(*values) == a == cls(**dict(zip(fields, values)))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_is_same_class_and_equal_fields(cls):
    make, other, _, _, _ = CLASSES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other() and not a == other()
    assert a.__eq__(object()) is NotImplemented and a != object()


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_frozen_class_hashes_its_fields_and_refuses_assignment(cls):
    make, _, fields, frozen, _ = CLASSES[cls]
    a = make()
    if not frozen:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        setattr(a, fields[0], getattr(make(), fields[0]))
        assert a == make()
        return
    compared = ("blocks",) if cls is TNorm else fields
    assert hash(a) == hash(make()) == hash(tuple(getattr(a, f) for f in compared))
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert a == make()


def test_a_tnorms_name_is_left_out_of_equality_and_hash():
    blocks = (Block(F(1, 2), ONE, BlockKind.PRODUCT),)
    a, b = TNorm(blocks, name="a"), TNorm(blocks, name="b")
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert lukasiewicz() == TNorm(lukasiewicz().blocks)


def test_the_defaults_are_fresh_for_each_instance():
    assert Report("x").cases == [] and Report("x").cases is not Report("x").cases
    assert WorkspaceConfig().tnorm == lukasiewicz()
    assert TNorm() == godel() and TNorm().name is None
    assert CheckResult(True) == CheckResult(True, "", None)


def test_the_unchecked_constructions_build_equal_instances():
    """``_built_qcat`` and ``enumerate_functors`` write the fields into
    ``__dict__`` themselves; what they make equals the checked build,
    hashes alike and shows the same repr."""
    c = edge()
    built = _built_qcat(c.tnorm, c.points, c.matrix)
    assert built == c and hash(built) == hash(c) and repr(built) == EDGE
    first = enumerate_functors(c, c)[0]
    f = QFunctor(c, c, first.mapping)
    assert first == f and hash(first) == hash(f) and repr(first) == repr(f)
