"""Round-trip tests for the wire formats and end-to-end CLI checks."""

import json
from fractions import Fraction as F

import pytest

from realcat import cli
from realcat import serialize as ser
from realcat.errors import ParseError
from realcat.intervals import IntervalSet
from realcat.qcat import QFunctor, two_point
from realcat.subconstructs import ccc_witness, explicit, k_square, sqrt_band
from realcat.tnorm import Block, BlockKind, TNorm, lukasiewicz, remark4
from realcat.yoneda import FCSequence

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

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            ser.tnorm_from_obj("nope")

    def test_bad_block_rejected(self):
        with pytest.raises(ParseError):
            ser.tnorm_from_obj({"blocks": [{"lo": "0/1", "kind": "product"}]})


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
        from realcat.qcat import product

        p = product(two_point(LUK, 0, 0), two_point(LUK, 0, 0, ("a", "b")))
        obj = ser.qcat_to_obj(p)
        assert obj["points"] == ["(0,a)", "(0,b)", "(1,a)", "(1,b)"]
        assert ser.qcat_from_obj(obj).matrix == p.matrix

    def test_functor_roundtrip(self):
        c = two_point(LUK, F(1, 2), F(1, 2))
        f = QFunctor(c, c, ("1", "0"))
        again = ser.functor_from_obj(ser.functor_to_obj(f))
        assert again.mapping == f.mapping

    def test_suitable_roundtrip_all_variants(self):
        for s in (
            k_square(LUK, IntervalSet.of([0, F(1, 2), 1])),
            sqrt_band(remark4()),
            explicit(LUK, [(0, 0), (1, 1)]),
        ):
            again = ser.suitable_from_obj(ser.suitable_to_obj(s))
            assert again == s

    def test_suitable_tnorm_from_context(self):
        obj = {"variant": "sqrt_band"}
        s = ser.suitable_from_obj(obj, tnorm=LUK)
        assert s.tnorm == LUK
        with pytest.raises(ParseError):
            ser.suitable_from_obj(obj)

    def test_fcsequence_roundtrip(self):
        c = two_point(LUK, 1, 1)
        s = FCSequence(c, ("0",), ("1", "0"))
        again = ser.fcsequence_from_obj(ser.fcsequence_to_obj(s))
        assert again == s

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
        assert cli.main(["validate", str(workdir["dir"] / "nope.json")]) == 2

    def test_validate_intervalset_needs_tnorm(self, workdir):
        assert cli.main(["validate", workdir["k_l3"]]) == 2
        assert (
            cli.main(
                ["validate", workdir["k_l3"], "--tnorm", "lukasiewicz"]
            )
            == 0
        )

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
        emitted = json.loads(open(out_path).read())
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

    @pytest.mark.parametrize(
        "table, named",
        [({"a": "x", "b": "w"}, "'w'"), ({"a": "x"}, "'b'"), (["x", "y"], "object")],
        ids=["outside-carrier", "omitted", "not-an-object"],
    )
    def test_construct_final_lift_bad_map_exits_two(
        self, workdir, capsys, table, named
    ):
        spec = workdir["dir"] / "lift.json"
        edge = two_point(LUK, F(1, 2), 0, points=("a", "b"))
        spec.write_text(
            ser.dumps(
                {
                    "tnorm": "lukasiewicz",
                    "carrier": ["x", "y"],
                    "sinks": [{"category": ser.qcat_to_obj(edge), "map": table}],
                }
            )
        )
        assert cli.main(["construct", "final_lift", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize(
        "kind, k, value",
        [("reflect", [(0, F(1, 2))], F(3, 4)), ("coreflect", [(F(1, 2), 1)], F(1, 4))],
    )
    def test_construct_without_bounding_member_exits_five(
        self, workdir, capsys, kind, k, value
    ):
        s = workdir["dir"] / "s.json"
        s.write_text(ser.dumps(ser.suitable_to_obj(k_square(LUK, IntervalSet.of(k)))))
        c = workdir["dir"] / "c.json"
        c.write_text(ser.dumps(ser.qcat_to_obj(two_point(LUK, value, value))))
        assert cli.main(["construct", kind, str(s), str(c)]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(value) in err

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
        emitted = json.loads(open(out_path).read())
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
