"""Round-trip tests for the wire formats and end-to-end CLI checks."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcat import cli
from realcat import serialize as ser
from realcat.ccc import ccc_witness
from realcat.errors import DomainError, ParseError, one_line
from realcat.functors import product
from realcat.intervals import IntervalSet
from realcat.qcat import final_lift, two_point
from realcat.subconstructs import (
    SuitableSet,
    SuitableVariant,
    check_suitable,
    explicit,
    k_diagonal,
    k_square,
    sqrt_band,
)
from realcat.tnorm import (
    Block,
    BlockKind,
    TNorm,
    godel,
    lukasiewicz,
    remark4,
    tnorm_eval,
)
from realcat.values import parse_rat

LUK = lukasiewicz()


class TestTNormFormat:
    def test_builtin_names_roundtrip(self):
        for name in ("godel", "lukasiewicz", "product", "remark4"):
            obj = ser.tnorm_to_obj(ser.tnorm_from_obj(name))
            assert obj == name

    def test_custom_blocks_roundtrip(self):
        t = TNorm(
            (
                Block(F(0), F(1, 3), BlockKind.PRODUCT),
                Block(F(1, 2), F(1), BlockKind.LUKASIEWICZ),
            )
        )
        again = ser.tnorm_from_obj(ser.tnorm_to_obj(t))
        assert again.blocks == t.blocks

    def test_a_builtin_name_is_written_only_for_that_builtin(self):
        """The name is a label that equality ignores: a Lukasiewicz norm
        named "godel" is written by its blocks, so a category over it
        reads back over Lukasiewicz, where 1/2 & 1/2 is 0, not 1/2."""
        t = TNorm((Block(F(0), F(1), BlockKind.LUKASIEWICZ),), name="godel")
        assert ser.tnorm_to_obj(t) == {
            "blocks": [{"lo": "0/1", "hi": "1/1", "kind": "lukasiewicz"}]
        }
        c = two_point(t, F(1, 2), F(1, 2))
        back = ser.qcat_from_obj(json.loads(ser.dumps(ser.qcat_to_obj(c))))
        assert back == c and back.tnorm == LUK
        assert tnorm_eval(back.tnorm, F(1, 2), F(1, 2)) == 0
        assert ser.tnorm_to_obj(TNorm((), name="godel")) == "godel"

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            ser.tnorm_from_obj("nope")

    def test_bad_block_rejected(self):
        with pytest.raises(ParseError):
            ser.tnorm_from_obj({"blocks": [{"lo": "0/1", "kind": "product"}]})

    @pytest.mark.parametrize("block", [["0/1", "1/1"]], ids=["block1-list"])
    def test_a_block_that_is_no_object_is_refused(self, block):
        """Read from a list, a block's field would be an index into it, so
        the blocks are checked to be objects first."""
        with pytest.raises(ParseError) as err:
            ser.tnorm_from_obj({"blocks": [block]})
        assert str(err.value) == "t-norm blocks must be a list of objects"

    def test_overlapping_blocks_rejected(self):
        block = {"lo": "0/1", "hi": "1/2", "kind": "product"}
        with pytest.raises(ParseError):
            ser.tnorm_from_obj({"blocks": [block, block]})

    @pytest.mark.parametrize("value", [1, 0.5, None, ["1/2"]])
    def test_rationals_must_be_strings(self, value):
        with pytest.raises(ParseError, match='"p/q" strings'):
            parse_rat(value)


class TestParseRat:
    """What the wire decode accepts and the error it raises, the same
    on every supported Python version."""

    @pytest.mark.parametrize(
        "text, value",
        [
            (" 1/2 ", F(1, 2)), ("+1/2", F(1, 2)), ("-0/1", F(0)),
            ("\u0661/\u0662", F(1, 2)), ("007/8", F(7, 8)), ("0", F(0)),
            ("1", F(1)), ("0/5", F(0)), ("1e0", F(1)),
        ],
    )
    def test_accepts(self, text, value):
        v = parse_rat(text)
        assert type(v) is F and v == value

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("1/0", ZeroDivisionError), ("\u00b2/3", ValueError), ("/2", ValueError),
            ("1/", ValueError), ("1/2/3", ValueError), ("", ValueError),
            (" ", ValueError), ("1_0/20", ValueError), ("1 /2", ValueError),
            ("1/ 2", ValueError), ("1\t/2", ValueError),
        ],
    )
    def test_refuses_a_malformed_rational(self, text, cause):
        with pytest.raises(ParseError) as err:
            parse_rat(text)
        assert str(err.value) == f"bad rational {text!r}"
        assert type(err.value.__cause__) is cause

    @pytest.mark.parametrize("text", ["3/2", "2", "1.5"])
    def test_refuses_a_rational_outside_the_unit_interval(self, text):
        with pytest.raises(ParseError) as err:
            parse_rat(text)
        assert str(err.value) == f"rational {text!r} outside [0, 1]"
        assert err.value.__cause__ is None


class TestOtherFormats:
    def test_intervalset_roundtrip(self):
        s = IntervalSet.of([(0, F(1, 2)), F(3, 4), 1])
        assert ser.intervalset_from_obj(ser.intervalset_to_obj(s)) == s

    def test_rationals_never_decimal(self):
        text = ser.dumps(ser.intervalset_to_obj(IntervalSet.of([(0, F(1, 2))])))
        assert "0.5" not in text and "1/2" in text

    def test_qcat_roundtrip(self):
        c = two_point(LUK, F(1, 3), F(2, 3))
        again = ser.qcat_from_obj(ser.qcat_to_obj(c))
        assert again == c

    def test_tuple_points_flatten_to_labels(self):
        from realcat.functors import product

        p = product(two_point(LUK, 0, 0), two_point(LUK, 0, 0, ("a", "b")))
        obj = ser.qcat_to_obj(p)
        assert obj["points"] == ["(0,a)", "(0,b)", "(1,a)", "(1,b)"]
        assert ser.qcat_from_obj(obj).matrix == p.matrix

    def test_points_written_alike_are_refused(self):
        """A file must read back as the category written, so the writer
        refuses two points that flatten to one label."""
        p = product(
            two_point(LUK, 0, 0, ("a", "a,b")), two_point(LUK, 0, 0, ("b,c", "c"))
        )
        with pytest.raises(DomainError) as err:
            ser.qcat_to_obj(p)
        assert str(err.value) == (
            "points ('a', 'b,c') and ('a,b', 'c') are both written '(a,b,c)'"
        )
        with pytest.raises(DomainError):
            ser.point_labels(two_point(LUK, 0, 0, ("1", 1)))

    def test_suitable_roundtrip_all_variants(self):
        for s in (
            k_square(LUK, IntervalSet.of([0, F(1, 2), 1])),
            k_diagonal(LUK, IntervalSet.of([0, F(1, 2), 1])),
            sqrt_band(remark4()),
            explicit(LUK, [(0, 0), (1, 1)]),
        ):
            obj = ser.suitable_to_obj(s)
            assert ser.suitable_from_obj(obj) == s
            # the file writes an absent field as null; leaving it out reads alike
            terse = {key: v for key, v in obj.items() if v is not None}
            assert ser.suitable_from_obj(terse) == s

    @pytest.mark.parametrize(
        "variant, stray",
        [
            ("explicit", "k"), ("k_square", "pairs"), ("k_diagonal", "pairs"),
            ("sqrt_band", "k"), ("sqrt_band", "pairs"),
        ],
    )
    def test_suitable_stray_field_is_refused(self, variant, stray):
        """A field the variant does not read is refused, naming it,
        rather than ignored, by the library and in a file alike, so every
        set the library builds is written as a file it reads back; null
        stays accepted.  The band reads neither field, so it is given
        only the stray one."""
        k = IntervalSet.of([0, 1])
        pairs = frozenset([(F(0), F(0)), (F(1), F(1))])
        message = f"the {variant} suitable set carries a stray {stray!r} field"
        fields = {"k": k, "pairs": pairs}
        if variant == "sqrt_band":
            fields = {stray: fields[stray]}
        with pytest.raises(ValueError) as built:
            SuitableSet(LUK, SuitableVariant(variant), **fields)
        assert str(built.value) == message
        obj = {
            "variant": variant,
            "tnorm": "lukasiewicz",
            "k": ser.intervalset_to_obj(k),
            "pairs": [["0/1", "0/1"], ["1/1", "1/1"]],
        }
        if variant == "sqrt_band":
            obj = {field: obj[field] for field in ("variant", "tnorm", stray)}
        with pytest.raises(ParseError) as err:
            ser.suitable_from_obj(obj)
        assert str(err.value) == message
        obj[stray] = None
        assert ser.suitable_from_obj(obj).variant.value == variant

    def test_suitable_tnorm_from_context(self):
        obj = {"variant": "sqrt_band"}
        s = ser.suitable_from_obj(obj, tnorm=LUK)
        assert s.tnorm == LUK
        with pytest.raises(ParseError):
            ser.suitable_from_obj(obj)
        own = {"variant": "sqrt_band", "tnorm": "godel"}
        assert ser.suitable_from_obj(own, tnorm=godel()).tnorm == godel()
        with pytest.raises(DomainError):
            ser.suitable_from_obj(own, tnorm=LUK)

    def test_witness_serialization(self):
        w = ccc_witness(LUK, F(3, 4), F(3, 4), F(1, 2))
        obj = ser.witness_to_obj(w)
        assert obj["lhs"] == "1/2" and obj["rhs"] == "1/4"
        assert set(obj["categories"]) == {"A", "B", "C", "D"}

    def test_dumps_is_stable(self):
        obj = ser.qcat_to_obj(two_point(LUK, F(1, 2), F(1, 4)))
        assert ser.dumps(obj) == ser.dumps(json.loads(ser.dumps(obj)))
        assert ser.dumps(obj).endswith("\n")


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(ser.dumps(obj))
        return str(p)

    good = two_point(LUK, F(1, 2), F(1, 4))
    bad = {
        "tnorm": "lukasiewicz",
        "points": ["0", "1"],
        "matrix": [["1/1", "1/1"], ["0/1", "1/2"]],
    }
    files = {
        "good": write("good.json", ser.qcat_to_obj(good)),
        "bad": write("bad.json", bad),
        "k_l3": write(
            "k_l3.json",
            ser.intervalset_to_obj(IntervalSet.of([0, F(1, 2), 1])),
        ),
        "k5": write(
            "k5.json",
            ser.intervalset_to_obj(
                IntervalSet.of([0, F(1, 4), F(1, 2), F(3, 4), 1])
            ),
        ),
        "dir": tmp_path,
    }
    return files


def missing_bounds():
    """(kind, S, value, message): a suitable S with no pair toward the
    pair (value, value), over norms whose kernels run on the grid
    (Lukasiewicz, Godel) and on Fractions (remark4)."""
    for norm in (lukasiewicz(), godel(), remark4()):
        half = explicit(norm, [(0, 0), (F(1, 2), F(1, 2))])
        yield "reflect", half, F(5, 7), "no explicit member above (5/7, 5/7)"
        top = explicit(norm, [(1, 1)])
        yield "coreflect", top, F(2, 7), "no explicit member below (2/7, 2/7)"
        if norm.name != "lukasiewicz":  # there every subquantale holds 0
            for shape in (k_square, k_diagonal):
                upper = shape(norm, IntervalSet.of([(F(1, 2), 1)]))
                yield "coreflect", upper, F(2, 7), "K has no member below 2/7"


class TestCLI:
    def test_validate_ok(self, workdir, capsys):
        assert cli.main(["validate", workdir["good"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"] == {"pass": 1, "fail": 0, "error": 0}

    def test_validate_failure_exits_one(self, workdir, capsys):
        assert cli.main(["validate", workdir["bad"]]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["cases"][0]["status"] == "fail"

    def test_validate_missing_file_exits_two(self, workdir):
        path = workdir["dir"] / "nope.json"
        assert _run(["validate", str(path)]) == (
            2, "", f"error: {path}: No such file or directory\n"
        )

    def test_validate_intervalset_needs_tnorm(self, workdir):
        assert cli.main(["validate", workdir["k_l3"]]) == 2
        assert (
            cli.main(
                ["validate", workdir["k_l3"], "--tnorm", "lukasiewicz"]
            )
            == 0
        )

    @pytest.mark.parametrize("norm", ["lukasiewicz", "blocks", "godel"])
    def test_validate_suitable_set_keeps_its_own_norm(self, workdir, capsys, norm):
        """A suitable set is checked under the norm it names; --tnorm may
        agree with it (by name or as a block file) but not differ."""
        s = workdir["dir"] / "s.json"
        s.write_text(
            json.dumps(
                {
                    "variant": "k_square",
                    "tnorm": "lukasiewicz",
                    "k": {"components": [{"at": "0/1"}, {"at": "3/4"}, {"at": "1/1"}]},
                }
            )
        )
        if norm == "blocks":
            norm = str(workdir["dir"] / "luk.json")
            Path(norm).write_text(
                json.dumps({"blocks": [{"lo": "0/1", "hi": "1/1", "kind": "lukasiewicz"}]})
            )
        code = cli.main(["validate", str(s), "--tnorm", norm])
        captured = capsys.readouterr()
        if norm == "godel":
            assert code == 5 and captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {s}: ")
        else:
            assert code == 1 and captured.err == ""
            [case] = json.loads(captured.out)["cases"]
            assert case["detail"] == "3/4 & 3/4 = 1/2 escapes K"

    def test_construct_roundtrips(self, workdir, capsys):
        out_path = str(workdir["dir"] / "tensor.json")
        code = cli.main(
            [
                "construct",
                "tensor",
                workdir["good"],
                workdir["good"],
                "--out",
                out_path,
            ]
        )
        assert code == 0
        emitted = json.loads(Path(out_path).read_text())
        cat = ser.qcat_from_obj(emitted)
        assert len(cat) == 4
        assert cli.main(["validate", out_path]) == 0

    def test_construct_size_cap_exits_three(self, workdir):
        code = cli.main(
            [
                "construct",
                "hom_power",
                workdir["good"],
                workdir["good"],
                "--max-maps",
                "1",
            ]
        )
        assert code == 3

    def test_construct_hom_power(self, workdir, capsys):
        """[A, A] for the Godel edge x -> y at 1/2: its functors are the
        two constants and the identity, and [A, A](f, g) is the meet of
        r(p, q) => r(f p, g q)."""
        a = workdir["dir"] / "a.json"
        a.write_text(ser.dumps(ser.qcat_to_obj(two_point(godel(), F(1, 2), 0, ("x", "y")))))
        assert cli.main(["construct", "hom_power", str(a), str(a)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "tnorm": "godel",
            "points": ["(x,x)", "(x,y)", "(y,y)"],
            "matrix": [["1/1", "1/2", "1/2"], ["0/1", "1/1", "1/2"], ["0/1", "0/1", "1/1"]],
        }

    def test_construct_out_into_a_missing_directory_exits_two(self, workdir):
        out = workdir["dir"] / "no" / "c.json"
        code, stdout, err = _run(
            ["construct", "product", workdir["good"], workdir["good"], "--out", str(out)]
        )
        assert (code, stdout, err) == (2, "", f"error: {out}: No such file or directory\n")
        assert not out.parent.exists()

    def test_construct_hom_power_refuses_a_non_category(self, workdir, capsys):
        """A and L from the (3/4, 3/4, 1/2) witness are categories, L
        being the final lift of A x B and A x C on the points of A x D,
        but their 32-point [A, L] is not: one line names the triple."""
        w = ccc_witness(LUK, F(3, 4), F(3, 4), F(1, 2))
        ab, ac, ad = (product(w.cat_a, x) for x in (w.cat_b, w.cat_c, w.cat_d))
        sinks = [(ab, {p: p for p in ab.points}), (ac, {p: p for p in ac.points})]
        lifted = final_lift(LUK, sinks, ad.points)
        paths = []
        for name, cat in (("a", w.cat_a), ("l", lifted)):
            paths.append(str(workdir["dir"] / f"{name}.json"))
            Path(paths[-1]).write_text(ser.dumps(ser.qcat_to_obj(cat)))
        assert cli.main(["validate", *paths]) == 0
        capsys.readouterr()
        assert cli.main(["construct", "hom_power", *paths]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: hom_power: the result is not a category: "
            "r(((0,z),(1,z)),((0,z),(1,y))) & r(((0,x),(1,x)),((0,z),(1,z))) "
            "= 1/2 > r(((0,x),(1,x)),((0,z),(1,y))) = 1/4\n"
        )

    def test_coreflect_explicit_set_also_carrying_k(self, workdir, capsys):
        """An explicit set is its pairs.  A K in its file is refused
        (exit 2) with a message naming the field, the same message the
        library gives when such a set is built."""
        pairs = [(0, 0), (F(1, 3), F(1, 3)), (1, 1)]
        message = "the explicit suitable set carries a stray 'k' field"
        with pytest.raises(ValueError) as err:
            SuitableSet(
                LUK, SuitableVariant.EXPLICIT, k=IntervalSet.full(), pairs=pairs
            )
        assert str(err.value) == message
        s = workdir["dir"] / "s.json"
        obj = ser.suitable_to_obj(explicit(LUK, pairs))
        obj["k"] = ser.intervalset_to_obj(IntervalSet.full())
        s.write_text(ser.dumps(obj))
        c = workdir["dir"] / "c.json"
        c.write_text(ser.dumps(ser.qcat_to_obj(two_point(LUK, F(1, 2), F(1, 2)))))
        assert cli.main(["construct", "coreflect", str(s), str(c)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {s}: {message}\n"

    @pytest.mark.parametrize(
        "kind, s, value",
        [
            ("reflect", explicit(LUK, [(0, 0), (F(1, 2), F(1, 2))]), F(3, 4)),
            ("coreflect", k_square(godel(), IntervalSet.of([F(1, 2), 1])), F(1, 4)),
        ],
        ids=["reflect", "coreflect"],
    )
    def test_construct_without_bounding_member_exits_five(
        self, workdir, capsys, kind, s, value
    ):
        """A suitable set with no pair toward one of c's values: an
        explicit set lacking (1, 1) above 3/4, Godel's {1/2, 1} below
        1/4."""
        s_path = workdir["dir"] / "s.json"
        s_path.write_text(ser.dumps(ser.suitable_to_obj(s)))
        c = workdir["dir"] / "c.json"
        c.write_text(ser.dumps(ser.qcat_to_obj(two_point(s.tnorm, value, value))))
        assert cli.main(["construct", kind, str(s_path), str(c)]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(value) in err

    @pytest.mark.parametrize("kind", ["coreflect", "reflect"])
    def test_construct_refuses_a_set_that_is_not_suitable(self, workdir, capsys, kind):
        """K = {0, 1/8, 3/4, 1} is no subquantale under Lukasiewicz
        (3/4 & 3/4 = 1/2): its K^2 is refused before C or R runs, in one
        line naming the file."""
        s = workdir["dir"] / "S.json"
        k = IntervalSet.of([0, F(1, 8), F(3, 4), 1])
        s.write_text(ser.dumps(ser.suitable_to_obj(k_square(LUK, k))))
        c = workdir["dir"] / "C.json"
        c.write_text(ser.dumps(ser.qcat_to_obj(two_point(LUK, F(3, 4), F(1, 4)))))
        assert cli.main(["construct", kind, str(s), str(c)]) == 5
        assert capsys.readouterr().err == (
            f"error: {s}: not a suitable set: 3/4 & 3/4 = 1/2 escapes K\n"
        )

    @pytest.mark.parametrize(
        "kind, s, value, message",
        [
            pytest.param(*case, id=f"{case[0]}-{case[1].variant.value}-{case[1].tnorm}")
            for case in missing_bounds()
        ],
    )
    def test_missing_bound_reads_alike_in_both_domains(
        self, workdir, capsys, kind, s, value, message
    ):
        """Lukasiewicz and Godel run the reflectors on numerators over
        one denominator, remark4 (a product block) on Fractions; each
        names the pair or value without a bound in the same one line."""
        assert check_suitable(s)
        s_path = workdir["dir"] / "s.json"
        s_path.write_text(ser.dumps(ser.suitable_to_obj(s)))
        c = workdir["dir"] / "c.json"
        c.write_text(ser.dumps(ser.qcat_to_obj(two_point(s.tnorm, value, value))))
        assert cli.main(["construct", kind, str(s_path), str(c)]) == 5
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_witness_negative(self, workdir, capsys):
        assert cli.main(["witness", "--k", workdir["k_l3"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cartesian_closed"] is True

    def test_witness_positive_pinned_triple(self, workdir, capsys):
        out_path = str(workdir["dir"] / "w.json")
        code = cli.main(
            ["witness", "--k", workdir["k5"], "--out", out_path]
        )
        assert code == 1
        emitted = json.loads(Path(out_path).read_text())
        assert (emitted["u"], emitted["v"], emitted["r"]) == (
            "3/4",
            "3/4",
            "1/2",
        )
        assert emitted["lhs"] == "1/2" and emitted["rhs"] == "1/4"

    def test_witness_godel_full_interval(self, workdir, capsys):
        full = workdir["dir"] / "full.json"
        full.write_text(
            ser.dumps(ser.intervalset_to_obj(IntervalSet.full()))
        )
        code = cli.main(
            ["witness", "--k", str(full), "--tnorm", "godel"]
        )
        assert code == 0

    def test_verify_text_mode(self, workdir, capsys):
        assert cli.main(["verify", "approx", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "suite approx" in out and "4 passed" in out

    def test_verify_is_byte_stable(self, workdir, capsys):
        cli.main(["verify", "ccc_equivalence"])
        first = capsys.readouterr().out
        cli.main(["verify", "ccc_equivalence"])
        assert capsys.readouterr().out == first

    def test_por_constructions_emit_crisp_categories(self, workdir, capsys):
        assert cli.main(["construct", "por_sigma", workdir["good"]]) == 0
        out = json.loads(capsys.readouterr().out)
        values = {v for row in out["matrix"] for v in row}
        assert values <= {"0/1", "1/1"}

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (
                ["product", "good", "x"],
                {"points": ["a"], "matrix": [["1/1"]]},
                "category is missing field 'tnorm'",
            ),
            (
                ["coreflect", "x", "good"],
                {"tnorm": "lukasiewicz"},
                "suitable set is missing field 'variant'",
            ),
            (
                ["final_lift", "x"],
                {"tnorm": "lukasiewicz", "carrier": ["x"]},
                "lift spec is missing field 'sinks'",
            ),
            (
                ["initial_lift", "x"],
                {"tnorm": "lukasiewicz", "carrier": "x", "sources": []},
                "lift carrier must be a list",
            ),
        ],
        ids=["category", "suitable-set", "final-lift", "initial-lift"],
    )
    def test_construct_names_the_file_that_fails_to_decode(
        self, workdir, capsys, argv, doc, message
    ):
        """Each reader of construct puts the path of the input it could
        not decode before the decoder's message."""
        path = workdir["dir"] / "x.json"
        path.write_text(json.dumps(doc))
        kind, *inputs = argv
        inputs = [workdir["good"] if f == "good" else str(path) for f in inputs]
        assert cli.main(["construct", kind, *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_construct_initial_lift(self, workdir, capsys):
        edge = two_point(LUK, F(1, 2), 0, points=("a", "b"))
        spec = workdir["dir"] / "lift.json"
        spec.write_text(
            ser.dumps(
                {
                    "tnorm": "lukasiewicz",
                    "carrier": ["x", "y"],
                    "sources": [
                        {"category": ser.qcat_to_obj(edge), "map": {"x": "a", "y": "b"}}
                    ],
                }
            )
        )
        assert cli.main(["construct", "initial_lift", str(spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"] == [["1/1", "1/2"], ["0/1", "1/1"]]

    def test_json_numbers_in_a_matrix(self, workdir, capsys):
        path = workdir["dir"] / "numbers.json"
        path.write_text(
            json.dumps({"tnorm": "lukasiewicz", "points": ["a"], "matrix": [[1]]})
        )
        assert cli.main(["validate", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["cases"][0]["status"] == "fail"
        assert '"p/q" strings' in out["cases"][0]["detail"]
        assert cli.main(["construct", "por_sigma", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and '"p/q" strings' in err

    @pytest.mark.parametrize(
        "matrix",
        [
            [["1/2", "0/1"], ["0/1", "1/1"]],
            [["1/1", "1/1", "0/1"], ["0/1", "1/1", "1/1"], ["0/1", "0/1", "1/1"]],
        ],
        ids=["diagonal-below-one", "edges-do-not-compose"],
    )
    def test_construct_por_rho_on_a_non_category_exits_five(
        self, workdir, capsys, matrix
    ):
        path = workdir["dir"] / "c.json"
        points = ["a", "b", "c"][: len(matrix)]
        path.write_text(
            json.dumps({"tnorm": "lukasiewicz", "points": points, "matrix": matrix})
        )
        assert cli.main(["construct", "por_rho", str(path)]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_construct_mixed_norms_exits_five(self, workdir, capsys):
        godel = workdir["dir"] / "g.json"
        godel.write_text(
            ser.dumps(ser.qcat_to_obj(two_point(ser.tnorm_from_obj("godel"), 0, 0)))
        )
        assert cli.main(["construct", "product", workdir["good"], str(godel)]) == 5
        assert capsys.readouterr().err.count("\n") == 1

    def test_construct_one_norm_spelled_two_ways(self, workdir, capsys):
        """A builtin name and its block file are one norm: the pair is
        built, and the product keeps the first input's spelling."""
        a, b = workdir["dir"] / "a.json", workdir["dir"] / "b.json"
        luk = {"blocks": [{"lo": "0/1", "hi": "1/1", "kind": "lukasiewicz"}]}
        a.write_text(json.dumps({"tnorm": "lukasiewicz", "points": ["p"], "matrix": [["1/1"]]}))
        b.write_text(json.dumps({"tnorm": luk, "points": ["p"], "matrix": [["1/1"]]}))
        assert cli.main(["construct", "product", str(a), str(b)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "tnorm": "lukasiewicz",
            "points": ["(p,p)"],
            "matrix": [["1/1"]],
        }

    def test_validate_reports_a_bad_suitable_set_per_file(self, workdir, capsys):
        s = workdir["dir"] / "s.json"
        s.write_text(json.dumps({"variant": "nope", "tnorm": "godel"}))
        assert cli.main(["validate", workdir["good"], str(s)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["summary"] == {"pass": 1, "fail": 1, "error": 0}
        assert out["cases"][1]["detail"] == (
            "suitable set invalid: unknown suitable set variant 'nope'; "
            "expected one of ['explicit', 'k_diagonal', 'k_square', 'sqrt_band']"
        )

    def test_validate_reports_a_stray_suitable_field_per_file(self, workdir, capsys):
        s = workdir["dir"] / "s.json"
        obj = ser.suitable_to_obj(k_square(LUK, IntervalSet.of([0, 1])))
        obj["pairs"] = [["0/1", "0/1"]]
        s.write_text(ser.dumps(obj))
        assert cli.main(["validate", workdir["good"], str(s)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["summary"] == {"pass": 1, "fail": 1, "error": 0}
        assert out["cases"][1]["detail"] == (
            "suitable set invalid: the k_square suitable set carries a stray "
            "'pairs' field"
        )

    def test_validate_reports_a_bad_interval_set_per_file(self, workdir, capsys):
        k = workdir["dir"] / "k.json"
        k.write_text(json.dumps({"components": [{"lo": "1/2"}]}))
        argv = ["validate", workdir["good"], str(k), "--tnorm", "godel"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["summary"] == {"pass": 1, "fail": 1, "error": 0}
        assert out["cases"][1]["detail"] == (
            "interval set invalid: interval set component is missing field 'hi'"
        )
        assert cli.main(["validate", workdir["good"], str(k)]) == 2

    @pytest.mark.parametrize(
        "kind, inputs",
        [
            ("product", ["bad", "bad"]),
            ("product", ["good", "bad"]),
            ("hom_tensor", ["bad", "good"]),
            ("hom_power", ["good", "bad"]),
            ("por_sigma", ["bad"]),
            ("reflect", ["band", "bad"]),
        ],
    )
    def test_construct_rejects_a_non_category(self, workdir, capsys, kind, inputs):
        """bad.json has r(1,1) = 1/2: constructions read categories only."""
        workdir["band"] = str(workdir["dir"] / "band.json")
        Path(workdir["band"]).write_text(ser.dumps(ser.suitable_to_obj(sqrt_band(LUK))))
        assert cli.main(["construct", kind, *(workdir[i] for i in inputs)]) == 5
        err = capsys.readouterr().err
        assert err == f"error: {workdir['bad']}: not a category: r(1,1) = 1/2 != 1\n"

    @pytest.mark.parametrize("kind", ["reflect", "coreflect"])
    def test_construct_reflect_mixed_norms_exits_five(self, workdir, capsys, kind):
        band = workdir["dir"] / "band.json"
        band.write_text(
            ser.dumps(ser.suitable_to_obj(sqrt_band(ser.tnorm_from_obj("godel"))))
        )
        assert cli.main(["construct", kind, str(band), workdir["good"]]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "different t-norms" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "hom_power", "A.json", "B.json", "--max-maps", "-5"],
            ["construct", "hom_power", "A.json", "B.json", "--max-maps", "many"],
        ],
    )
    def test_map_cap_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--max-maps" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "x.json", "--max-maps", "5"],
            ["validate", "x.json", "--out", "o.json"],
            ["construct", "tensor", "a.json", "b.json", "--tnorm", "godel"],
            ["construct", "tensor", "a.json", "b.json", "--format", "text"],
            ["verify", "approx", "--out", "o.json"],
            ["verify", "approx", "--k", "k.json"],
            ["witness", "--k", "k.json", "--format", "text"],
            ["witness", "--k", "k.json", "--max-maps", "5"],
            ["verify", "approx", "--max-maps", "5"],
        ],
    )
    def test_undeclared_flags_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("inputs", [["A.json"], ["A.json", "B.json", "C.json"]])
    def test_construct_input_count(self, capsys, inputs):
        assert cli.main(["construct", "tensor", *inputs]) == 2
        err = capsys.readouterr().err
        assert err == "error: construct tensor takes 2 input file(s), got %d\n" % len(inputs)

    def test_mistyped_tnorm_exits_two(self, capsys):
        assert cli.main(["verify", "approx", "--tnorm", "lukasiewiz"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lukasiewicz" in err

    def test_tnorm_file(self, workdir, capsys):
        norm = workdir["dir"] / "norm.json"
        norm.write_text(json.dumps({"blocks": [{"lo": "1/2", "hi": "1/1", "kind": "lukasiewicz"}]}))
        assert cli.main(["witness", "--k", workdir["k_l3"], "--tnorm", str(norm)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "cartesian_closed": True,
            "criterion": True,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "CAT", "--tnorm", "NORM"],
            ["verify", "approx", "--tnorm", "NORM"],
            ["witness", "--k", "K", "--tnorm", "NORM"],
        ],
        ids=["validate", "verify", "witness"],
    )
    def test_a_tnorm_file_that_fails_to_decode_is_named(self, workdir, argv):
        norm = workdir["dir"] / "norm.json"
        norm.write_text(json.dumps({"blocks": [{"lo": "0/1", "kind": "product"}]}))
        files = {"NORM": str(norm), "CAT": workdir["good"], "K": workdir["k_l3"]}
        hint = "--tnorm takes one of ['godel', 'lukasiewicz', 'product', 'remark4'] or a t-norm file"
        assert _run([files.get(a, a) for a in argv]) == (
            2, "", f"error: {hint}; {norm}: t-norm block is missing field 'hi'\n"
        )

    def test_witness_exact_when_the_grid_misses(self, workdir, capsys):
        """One product block [1/3, 17/50]: K = [1/3, 17/50] + {1} is not
        inside M, yet the k/16 grid of K holds only idempotents."""
        norm = workdir["dir"] / "norm.json"
        norm.write_text(
            json.dumps(
                {"blocks": [{"lo": "1/3", "hi": "17/50", "kind": "product"}]}
            )
        )
        k = workdir["dir"] / "k.json"
        k.write_text(
            ser.dumps(
                ser.intervalset_to_obj(IntervalSet.of([(F(1, 3), F(17, 50)), 1]))
            )
        )
        code = cli.main(["witness", "--k", str(k), "--tnorm", str(norm)])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert (out["u"], out["v"], out["r"]) == ("101/300", "101/300", "67/200")
        assert (out["lhs"], out["rhs"]) == ("67/200", "401/1200")


RATS = st.sampled_from(
    ["0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1"] * 3
    + ["1", "2/1", "-1/2", "x", "1/0"]
)
# "a,b" and "b,c", or "1" and 1, flatten to one label in a result
LABELS = st.sampled_from(["a", "b", "c", "a,b", "b,c", "1", 1])
KEYS = st.sampled_from(
    ["tnorm", "points", "matrix", "blocks", "lo", "hi", "kind", "at",
     "components", "variant", "k", "pairs", "carrier", "sinks", "sources",
     "category", "map"]
)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), LABELS, RATS)
JUNK = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=8,
)
NORM_NAMES = ["godel", "lukasiewicz", "product", "remark4"]


def _mostly(strategy):
    """strategy, or now and then arbitrary JSON in its place."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 7 else strategy)


@st.composite
def _mutated(draw, obj):
    """obj, now and then with one field dropped or replaced by junk."""
    obj = dict(obj)
    if obj and draw(st.integers(0, 5)) == 5:
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(JUNK)
    return obj


_BLOCKS = st.builds(
    lambda blocks: {"blocks": blocks},
    st.lists(
        st.fixed_dictionaries(
            {
                "lo": RATS,
                "hi": RATS,
                "kind": st.sampled_from(["lukasiewicz", "product", "min"]),
            }
        ),
        max_size=2,
    ),
)
TNORM_OBJS = st.integers(0, 3).flatmap(
    lambda i: st.sampled_from(NORM_NAMES) if i < 3 else _BLOCKS
)


@st.composite
def _category(draw, norm):
    """At most 3 points, mostly distinct, with a diagonal of mostly 1s."""
    points = draw(_mostly(st.lists(LABELS, max_size=3, unique=True)))
    n = len(points) if isinstance(points, list) else 0
    diagonal = st.sampled_from(["1/1"] * 5 + ["1/2"])
    matrix = [[draw(diagonal if i == j else RATS) for j in range(n)] for i in range(n)]
    return draw(_mutated({"tnorm": norm, "points": points, "matrix": matrix}))


@st.composite
def _interval_set(draw):
    if draw(st.booleans()):  # subquantales, most of them outside M
        return {
            "components": draw(
                st.sampled_from(
                    [
                        [{"lo": "0/1", "hi": "1/1"}],
                        [{"at": r} for r in ("0/1", "1/4", "1/2", "3/4", "1/1")],
                        [{"lo": "0/1", "hi": "1/2"}, {"at": "1/1"}],
                    ]
                )
            )
        }
    parts = [{"at": "1/1"}] if draw(st.integers(0, 5)) < 5 else []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            parts.append({"at": draw(RATS)})
        else:
            parts.append({"lo": draw(RATS), "hi": draw(RATS)})
    return draw(_mutated({"components": parts}))


@st.composite
def _suitable(draw, norm):
    obj = {
        "variant": draw(st.sampled_from(["k_square", "k_diagonal", "sqrt_band", "explicit", "no"])),
        "tnorm": norm,
        "k": draw(_interval_set()),
        "pairs": draw(st.lists(st.lists(RATS, min_size=2, max_size=2), max_size=3)),
    }
    return draw(_mutated(obj))


@st.composite
def _lift_spec(draw, norm, family):
    carrier = draw(_mostly(st.lists(LABELS, max_size=3, unique=True)))
    entries = []
    for _ in range(draw(st.integers(0, 2))):
        cat = draw(_category(norm))
        dom, cod = carrier, cat.get("points")
        if family == "sinks":
            dom, cod = cod, carrier
        table = {}
        if isinstance(dom, list) and isinstance(cod, list) and cod:
            table = {str(p): draw(st.sampled_from(cod)) for p in dom}
        entries.append(draw(_mutated({"category": cat, "map": table})))
    return draw(_mutated({"tnorm": norm, "carrier": carrier, family: entries}))


@st.composite
def _case(draw):
    """(argv, documents): one of the four commands over small JSON files,
    mostly of the kind it expects, with the odd bad flag value or
    undeclared flag.  Documents are named by their placeholder in argv."""
    norm = draw(st.sampled_from(NORM_NAMES))
    docs = {"NORM": draw(TNORM_OBJS)}
    tnorm = st.sampled_from(NORM_NAMES * 2 + ["lukasiewiz", "NORM"])
    command = draw(st.sampled_from(["validate", "construct", "verify", "witness"]))
    if command == "validate":
        kinds = st.one_of(_category(norm), _suitable(norm), _interval_set(), JUNK)
        docs["A"], docs["B"] = draw(kinds), draw(kinds)
        argv = ["validate", "A"] + draw(st.sampled_from([[], ["B"]]))
        flags = {"--format": st.sampled_from(["json", "text"]), "--tnorm": tnorm}
    elif command == "construct":
        kind = draw(st.sampled_from(sorted(cli.CONSTRUCT_KINDS)))
        other = draw(st.sampled_from([norm] * 5 + NORM_NAMES))
        if kind in ("initial_lift", "final_lift"):
            family = "sinks" if kind == "final_lift" else "sources"
            docs["A"] = draw(_mostly(_lift_spec(norm, family)))
        elif kind in ("coreflect", "reflect"):
            docs["A"] = draw(_mostly(_suitable(norm)))
        else:
            docs["A"] = draw(_mostly(_category(norm)))
        docs["B"] = draw(_mostly(_category(other)))
        inputs = ["A", "B"][: cli.CONSTRUCT_KINDS[kind][0]]
        if draw(st.integers(0, 9)) == 9:
            inputs = draw(st.sampled_from([["A"], ["A", "B"], ["A", "B", "B"]]))
        argv = ["construct", kind, *inputs]
        flags = {
            "--max-maps": st.sampled_from(["1", "30", "0", "-5", "x"]),
            "--out": st.just("OUT"),
        }
    elif command == "verify":
        suite = draw(st.sampled_from(["approx", "monoidal", "exponential_law", "nope"]))
        argv = ["verify", suite]
        flags = {"--format": st.sampled_from(["json", "text"]), "--tnorm": tnorm}
    else:
        docs["A"] = draw(_mostly(_interval_set()))
        argv = ["witness", "--k", "A"]
        flags = {"--tnorm": tnorm, "--out": st.just("OUT")}
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.integers(0, 9)) == 9:
        argv += [draw(st.sampled_from(["--k", "--out", "--format", "--max-maps"])), "OUT"]
    return argv, docs


def _run_case(argv, docs, tmp, raw=None):
    """Write the documents (and the raw texts) under tmp, run the CLI;
    (exit code, stderr)."""
    names = {"OUT": str(Path(tmp) / "out.json")}
    texts = {name: json.dumps(obj) for name, obj in docs.items()} | (raw or {})
    for name, text in texts.items():
        names[name] = str(Path(tmp) / f"{name}.json")
        Path(names[name]).write_text(text)
    argv = [names.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _discrete(points):
    """The discrete Godel category on the points."""
    n = len(points)
    matrix = [["1/1" if i == j else "0/1" for j in range(n)] for i in range(n)]
    return {"tnorm": "godel", "points": points, "matrix": matrix}


# results whose points flatten to one label: ("a", "b,c") and
# ("a,b", "c") are both "(a,b,c)"; "1" and 1 are both "1"
PRODUCT_COLLISION = (
    ["construct", "product", "A", "B"],
    {"A": _discrete(["a", "a,b"]), "B": _discrete(["b,c", "c"])},
)
POR_COLLISION = (["construct", "por_sigma", "A"], {"A": _discrete(["1", 1])})
# the functors ("a", "b,c") and ("a,b", "c") from two points into four
HOM_POWER_COLLISION = (
    ["construct", "hom_power", "A", "B"],
    {"A": _discrete(["x", "y"]), "B": _discrete(["a", "a,b", "b,c", "c"])},
)


@settings(max_examples=300, deadline=None)
@given(_case())
@example(PRODUCT_COLLISION)
@example(POR_COLLISION)
@example(HOM_POWER_COLLISION)
def test_cli_boundary_exit_codes(case):
    """Any argv over small arbitrary JSON files ends in a documented exit
    code with at most one line on stderr, never a traceback."""
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_case(argv, docs, tmp)
    assert code in {0, 1, 2, 3, 5}, argv
    assert err.count("\n") <= 1, (argv, err)


@pytest.mark.parametrize(
    "case, line",
    [
        (
            PRODUCT_COLLISION,
            "error: points ('a', 'b,c') and ('a,b', 'c') are both written '(a,b,c)'\n",
        ),
        (POR_COLLISION, "error: points '1' and 1 are both written '1'\n"),
        (
            HOM_POWER_COLLISION,
            "error: points ('a', 'b,c') and ('a,b', 'c') are both written '(a,b,c)'\n",
        ),
    ],
)
def test_construct_refuses_points_written_alike(case, line):
    """A result file must read back as the category it was built from,
    so two points that flatten to one label exit 5, before anything is
    written."""
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_case(argv + ["--out", "OUT"], docs, tmp) == (5, line)
        assert not (Path(tmp) / "out.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "DEEP"],
        ["construct", "product", "DEEP", "DEEP"],
        ["construct", "final_lift", "DEEP"],
        ["witness", "--k", "DEEP"],
        ["verify", "approx", "--tnorm", "DEEP"],
        ["validate", "DEEP", "--tnorm", "DEEP"],
    ],
)
def test_deeply_nested_json_is_a_parse_error(argv):
    """JSON nested past the decoder's recursion limit is a file that
    does not parse: exit 2 and one line naming the file, as for any
    other bad JSON (--tnorm prefixes its own hint)."""
    with tempfile.TemporaryDirectory() as tmp:
        deep = str(Path(tmp) / "DEEP.json")
        code, err = _run_case(argv, {}, tmp, raw={"DEEP": "[" * 100_000 + "]" * 100_000})
    assert code == 2 and err.count("\n") == 1 and err.endswith("\n")
    if "--tnorm" in argv:
        assert err.startswith("error: --tnorm takes one of ") and f"; {deep}: " in err
    else:
        assert err.startswith(f"error: {deep}: ")


# every character str.splitlines breaks a line at
LINE_BREAKS = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]


def test_one_line_escapes_each_line_break_and_nothing_else():
    assert len(LINE_BREAKS) == 10
    for c in map(chr, range(0x110000)):
        expected = repr(c)[1:-1] if c in LINE_BREAKS else c
        assert one_line(f"a{c}b") == f"a{expected}b"


def _run(argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LINE_BREAKS))
def test_a_line_break_in_a_label_path_or_argument_stays_on_one_line(brk):
    """Errors and the cases of a text report are one line each: a line
    break in a point label, a file path or an argument is escaped."""
    esc = repr(brk)[1:-1]
    with tempfile.TemporaryDirectory() as tmp:
        cat = Path(tmp) / f"c{brk}.json"
        shown = one_line(str(cat))
        cat.write_text(
            json.dumps(
                {
                    "tnorm": "lukasiewicz",
                    "points": [f"x{brk}y", "z"],
                    "matrix": [["1/2", "0/1"], ["0/1", "1/1"]],
                }
            )
        )
        why = f"r(x{esc}y,x{esc}y) = 1/2 != 1"
        assert _run(["construct", "por_rho", str(cat)]) == (
            5, "", f"error: {shown}: not a category: {why}\n"
        )
        assert _run(["validate", str(cat), "--format", "text"]) == (
            1,
            f"suite validate\n  [FAIL] {shown}  ({why})\n"
            "  0 passed, 1 failed, 0 errored\n",
            "",
        )
        missing = Path(tmp) / f"no{brk}file.json"
        code, out, err = _run(["validate", str(missing)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {one_line(str(missing))}: ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert _run(["verify", "approx", f"x{brk}y"]) == (
        2, "", f"realcat: error: unrecognized arguments: x{esc}y\n"
    )


_GODEL_IDENTITY = {
    "tnorm": "godel",
    "points": ["a", "b"],
    "matrix": [["1/1", "0/1"], ["0/1", "1/1"]],
}


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("category", {"tnorm": "godel", "points": "ab", "matrix": ["10", "01"]}, "category points must be a list"),
        ("category", {"tnorm": "godel", "points": ["a", "b"], "matrix": ["10", "01"]}, "category matrix must be a list of lists"),
        ("category", {**_GODEL_IDENTITY, "tnorm": {"blocks": "x"}}, "t-norm blocks must be a list of objects"),
        ("suitable set", {"variant": "explicit", "tnorm": "godel", "pairs": ["00", "11"]}, "suitable pairs must be a list of lists"),
    ],
    ids=["points", "rows", "blocks-nonempty-string", "pair"],
)
def test_a_string_or_object_in_place_of_an_array_is_refused(kind, doc, message):
    """Each of these decoded once, as characters or keys; now validate
    records a failing case, and construct exits 2 both for a category
    (por_rho) and for a suitable set (coreflect)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        other = Path(tmp) / "cat.json"
        other.write_text(json.dumps(_GODEL_IDENTITY))
        code, out, err = _run(["validate", str(path)])
        assert (code, err) == (1, "")
        [case] = json.loads(out)["cases"]
        assert case["status"] == "fail"
        assert case["detail"] == f"{kind} invalid: {message}"
        argv = ["construct", "por_rho", str(path)]
        if kind == "suitable set":
            argv = ["construct", "coreflect", str(path), str(other)]
        assert _run(argv) == (2, "", f"error: {path}: {message}\n")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# each reader: the run that decodes a document with it (DOC its path,
# CAT a Godel category's), the hint its error line puts before the path,
# and the kind validate reads the document as when it holds that kind's
# key (a t-norm, inside a category)
_READER_RUNS = {
    "t-norm": (
        ["verify", "approx", "--tnorm", "DOC"],
        f"--tnorm takes one of {NORM_NAMES} or a t-norm file; ",
        "category",
        "matrix",
    ),
    "interval-set": (["witness", "--k", "DOC"], "", "interval set", "components"),
    "category": (["construct", "por_rho", "DOC"], "", "category", "matrix"),
    "suitable-set": (
        ["construct", "coreflect", "DOC", "CAT"], "", "suitable set", "variant"
    ),
}


def _reader_faults():
    """(reader, document, message) for each shape fault of the t-norm,
    interval-set, category and suitable-set readers, one fault per
    document, and for the two value faults those readers name
    themselves.  The lift reader's are in _lift_faults()."""
    block = {"lo": "0/1", "hi": "1/1", "kind": "product"}
    explicit = {"variant": "explicit", "tnorm": "godel", "pairs": [["0/1", "0/1"]]}
    rows = {
        "t-norm": [
            ("number", 3, "t-norm must be a builtin name or {'blocks': [...]}"),
            ("list", ["godel"], "t-norm must be a builtin name or {'blocks': [...]}"),
            ("no-blocks", {}, "t-norm is missing field 'blocks'"),
            ("blocks", {"blocks": "x"}, "t-norm blocks must be a list of objects"),
            ("blocks-empty-string", {"blocks": ""}, "t-norm blocks must be a list of objects"),
            ("blocks-empty-object", {"blocks": {}}, "t-norm blocks must be a list of objects"),
            ("blocks-object", {"blocks": {"lo": "0/1"}}, "t-norm blocks must be a list of objects"),
            ("block", {"blocks": [["0/1", "1/1"]]}, "t-norm blocks must be a list of objects"),
            ("block-string", {"blocks": ["x"]}, "t-norm blocks must be a list of objects"),
            *(
                (f"no-{key}", {"blocks": [_without(block, key)]},
                 f"t-norm block is missing field '{key}'")
                for key in block
            ),
            (
                "kind",
                {"blocks": [{**block, "kind": "min"}]},
                "unknown t-norm block kind 'min'; expected one of ['lukasiewicz', 'product']",
            ),
        ],
        "interval-set": [
            ("number", 3, "interval set must be an object"),
            ("no-components", {}, "interval set is missing field 'components'"),
            ("components", {"components": "x"}, "interval set components must be a list of objects"),
            ("component", {"components": [3]}, "interval set components must be a list of objects"),
            ("no-lo", {"components": [{"hi": "1/2"}]}, "interval set component is missing field 'lo'"),
            ("no-hi", {"components": [{"lo": "1/2"}]}, "interval set component is missing field 'hi'"),
            ("empty", {"components": [{"lo": "3/4", "hi": "1/2"}]}, "interval [3/4, 1/2] is empty"),
        ],
        "category": [
            ("list", [_GODEL_IDENTITY], "category must be an object"),
            *(
                (f"no-{key}", _without(_GODEL_IDENTITY, key),
                 f"category is missing field '{key}'")
                for key in _GODEL_IDENTITY
            ),
            ("points", {**_GODEL_IDENTITY, "points": "ab"}, "category points must be a list"),
            ("matrix", {**_GODEL_IDENTITY, "matrix": "x"}, "category matrix must be a list of lists"),
            ("matrix-object", {**_GODEL_IDENTITY, "matrix": {"1": 0}}, "category matrix must be a list of lists"),
            ("row", {**_GODEL_IDENTITY, "matrix": [["1/1", "0/1"], "x"]}, "category matrix must be a list of lists"),
            ("tnorm", {**_GODEL_IDENTITY, "tnorm": {"blocks": [3]}}, "t-norm blocks must be a list of objects"),
        ],
        "suitable-set": [
            ("list", [explicit], "suitable set must be an object"),
            ("no-variant", _without(explicit, "variant"), "suitable set is missing field 'variant'"),
            ("variant", {**explicit, "variant": "nope"}, (
                "unknown suitable set variant 'nope'; "
                "expected one of ['explicit', 'k_diagonal', 'k_square', 'sqrt_band']"
            )),
            ("pairs", {**explicit, "pairs": "x"}, "suitable pairs must be a list of lists"),
            ("pairs-object", {**explicit, "pairs": {"01": 1}}, "suitable pairs must be a list of lists"),
            ("pair", {**explicit, "pairs": [["0/1", "0/1"], "x"]}, "suitable pairs must be a list of lists"),
            ("short-pair", {**explicit, "pairs": [["0/1"]]}, "suitable pairs must each have two entries"),
            ("long-pair", {**explicit, "pairs": [["0/1"] * 3]}, "suitable pairs must each have two entries"),
            ("k", {"variant": "k_square", "tnorm": "godel", "k": ["0/1"]}, "interval set must be an object"),
        ],
    }
    for reader, faults in rows.items():
        for name, doc, message in faults:
            yield pytest.param(reader, doc, message, id=f"{reader}-{name}")


@pytest.mark.parametrize("reader, doc, message", _reader_faults())
def test_each_reader_fault_has_its_line(
    tmp_path, reader, doc, message
):
    """The run exits 2 with one line naming the file and the fault, and
    validate, where it reads the document, records the same fault."""
    argv, hint, kind, key = _READER_RUNS[reader]
    paths = {"DOC": tmp_path / "doc.json", "CAT": tmp_path / "cat.json"}
    paths["DOC"].write_text(json.dumps(doc))
    paths["CAT"].write_text(json.dumps(_GODEL_IDENTITY))
    assert _run([str(paths.get(a, a)) for a in argv]) == (
        2, "", f"error: {hint}{paths['DOC']}: {message}\n"
    )
    if reader == "t-norm":
        doc = {"tnorm": doc, "points": ["a"], "matrix": [["1/1"]]}
    if isinstance(doc, dict) and key in doc:
        paths["DOC"].write_text(json.dumps(doc))
        code, out, err = _run(["validate", str(paths["DOC"]), "--tnorm", "godel"])
        assert (code, err) == (1, "")
        [case] = json.loads(out)["cases"]
        assert (case["status"], case["detail"]) == ("fail", f"{kind} invalid: {message}")


_EDGE = {
    "tnorm": "lukasiewicz",
    "points": ["a", "b"],
    "matrix": [["1/1", "1/2"], ["0/1", "1/1"]],
}
_NOT_A_CATEGORY = {**_EDGE, "matrix": [["1/2", "1/2"], ["0/1", "1/1"]]}
# the Lukasiewicz chain a -> b -> c; its initial lift over godel is no
# category (1/2 & 1/2 = 1/2 > r(a,c) = 0)
_CHAIN = {
    "tnorm": "lukasiewicz",
    "points": ["a", "b", "c"],
    "matrix": [["1/1", "1/2", "0/1"], ["0/1", "1/1", "1/2"], ["0/1", "0/1", "1/1"]],
}


def _lift_doc(family, drop=None, **fields):
    """A lift spec with one entry, the edge a -> b on the carrier x, y
    (a and b to x and y), with fields replacing the spec's or the
    entry's ("category", "map") and the field drop taken out."""
    table = {"a": "x", "b": "y"} if family == "sinks" else {"x": "a", "y": "b"}
    entry = {"category": fields.pop("category", _EDGE), "map": fields.pop("map", table)}
    spec = {"tnorm": "lukasiewicz", "carrier": ["x", "y"], family: [entry], **fields}
    for obj in (spec, entry):
        obj.pop(drop, None)
    return spec


def _lift_faults():
    """(kind, spec, exit code, message) for each fault a lift spec can
    have, one fault per spec, and a spec with both a map fault and a
    category fault: the map fault is named, and exits 2."""
    norms = "['godel', 'lukasiewicz', 'product', 'remark4']"
    for kind, family, role, omits, outside, unhashable in (
        (
            "initial_lift",
            "sources",
            "source",
            ({"x": "a"}, "source map omits point 'y'"),
            ({"x": "a", "y": "w"}, "'w' is not a point"),
            ({"x": "a", "y": ["b"]}, "['b'] is not a point"),
        ),
        (
            "final_lift",
            "sinks",
            "sink",
            ({"a": "x"}, "sink map omits point 'b'"),
            ({"a": "x", "b": "w"}, "sink map sends 'b' to 'w', outside the carrier"),
            ({"a": ["x"], "b": "y"}, "sink map sends 'a' to ['x'], outside the carrier"),
        ),
    ):
        doc = partial(_lift_doc, family)
        for name, spec, code, message in (
            ("spec", ["x"], 2, "lift spec must be an object"),
            ("no-tnorm", doc(drop="tnorm"), 2, "lift spec is missing field 'tnorm'"),
            ("tnorm", doc(tnorm="luk"), 2, f"unknown t-norm name 'luk'; expected one of {norms}"),
            ("no-family", doc(drop=family), 2, f"lift spec is missing field '{family}'"),
            ("family", doc(**{family: ["x"]}), 2, f"lift {family} must be a list of objects"),
            ("no-category", doc(drop="category"), 2, "lift spec is missing field 'category'"),
            ("category", doc(category=3), 2, "category must be an object"),
            ("no-map", doc(drop="map"), 2, "lift spec is missing field 'map'"),
            ("no-carrier", doc(drop="carrier"), 2, "lift spec is missing field 'carrier'"),
            ("carrier", doc(carrier="xy"), 2, "lift carrier must be a list"),
            (
                "unhashable-carrier",
                doc(carrier=[["x"], "y"]),
                2,
                "lift carrier points must be labels: unhashable type: 'list'",
            ),
            ("repeated-carrier", doc(carrier=["x", "x"]), 2, "duplicate points"),
            ("map", doc(map=["x", "y"]), 2, f"{role} map must be an object"),
            ("omitted-point", doc(map=omits[0]), 2, omits[1]),
            ("outside", doc(map=outside[0]), 2, outside[1]),
            ("unhashable-image", doc(map=unhashable[0]), 2, unhashable[1]),
            (
                "non-category",
                doc(category=_NOT_A_CATEGORY),
                5,
                "not a category: r(a,a) = 1/2 != 1",
            ),
            (
                "other-norm",
                doc(tnorm="godel", carrier=[*"abc"], category=_CHAIN, map=dict(zip("abc", "abc"))),
                5,
                "the lift spec and one of its categories live over different t-norms",
            ),
            ("map-and-category", doc(category=_NOT_A_CATEGORY, map=omits[0]), 2, omits[1]),
        ):
            yield pytest.param(kind, spec, code, message, id=f"{kind}-{name}")


@pytest.mark.parametrize("kind, spec, code, message", _lift_faults())
def test_each_lift_spec_fault_has_its_exit_code_and_line(
    tmp_path, kind, spec, code, message
):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(spec))
    assert _run(["construct", kind, str(path)]) == (
        code, "", f"error: {path}: {message}\n"
    )
