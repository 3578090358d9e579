"""Round-trip tests for the wire formats and end-to-end CLI checks."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcat import cli
from realcat import serialize as ser
from realcat.errors import DomainError, ParseError
from realcat.intervals import IntervalSet
from realcat.qcat import QFunctor, two_point
from realcat.subconstructs import ccc_witness, explicit, k_square, sqrt_band
from realcat.tnorm import Block, BlockKind, TNorm, godel, lukasiewicz, remark4
from realcat.values import parse_rat
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

    def test_overlapping_blocks_rejected(self):
        block = {"lo": "0/1", "hi": "1/2", "kind": "product"}
        with pytest.raises(ParseError):
            ser.tnorm_from_obj({"blocks": [block, block]})

    @pytest.mark.parametrize("value", [1, 0.5, None, ["1/2"]])
    def test_rationals_must_be_strings(self, value):
        with pytest.raises(ParseError, match='"p/q" strings'):
            parse_rat(value)


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
        own = {"variant": "sqrt_band", "tnorm": "godel"}
        assert ser.suitable_from_obj(own, tnorm=godel()).tnorm == godel()
        with pytest.raises(DomainError):
            ser.suitable_from_obj(own, tnorm=LUK)

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

    @pytest.mark.parametrize(
        "kind, drop, extra",
        [
            ("final_lift", "tnorm", {}),
            ("final_lift", "carrier", {}),
            ("final_lift", "sinks", {}),
            ("final_lift", "category", {}),
            ("final_lift", "map", {}),
            ("final_lift", None, {"carrier": ["x", "x"]}),
            ("final_lift", None, {"carrier": [["x"], "y"]}),
            ("initial_lift", "tnorm", {}),
            ("initial_lift", "carrier", {}),
            ("initial_lift", "sources", {}),
            ("initial_lift", "category", {}),
            ("initial_lift", "map", {}),
            ("initial_lift", None, {"carrier": ["x", "x"]}),
            ("initial_lift", None, {"map": {"x": "a"}}),
            ("initial_lift", None, {"map": {"x": "a", "y": "w"}}),
        ],
    )
    def test_construct_bad_lift_spec_exits_two(
        self, workdir, capsys, kind, drop, extra
    ):
        family = "sinks" if kind == "final_lift" else "sources"
        edge = two_point(LUK, F(1, 2), 0, points=("a", "b"))
        table = (
            {"a": "x", "b": "y"} if kind == "final_lift" else {"x": "a", "y": "b"}
        )
        entry = {"category": ser.qcat_to_obj(edge), "map": extra.get("map", table)}
        spec = {
            "tnorm": "lukasiewicz",
            "carrier": extra.get("carrier", ["x", "y"]),
            family: [entry],
        }
        for obj in (spec, entry):
            obj.pop(drop, None)
        path = workdir["dir"] / "lift.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["construct", kind, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

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

    @pytest.mark.parametrize("kind", ["final_lift", "initial_lift"])
    def test_construct_lift_of_a_non_category_exits_five(self, workdir, capsys, kind):
        family, table = {
            "final_lift": ("sinks", {"0": "x", "1": "y"}),
            "initial_lift": ("sources", {"x": "0", "y": "1"}),
        }[kind]
        bad = json.loads(Path(workdir["bad"]).read_text())
        spec = workdir["dir"] / "lift.json"
        spec.write_text(
            json.dumps(
                {
                    "tnorm": "lukasiewicz",
                    "carrier": ["x", "y"],
                    family: [{"category": bad, "map": table}],
                }
            )
        )
        assert cli.main(["construct", kind, str(spec)]) == 5
        err = capsys.readouterr().err
        assert err == f"error: {spec}: not a category: r(1,1) = 1/2 != 1\n"

    @pytest.mark.parametrize("kind", ["final_lift", "initial_lift"])
    def test_construct_lift_mixed_norms_exits_five(self, workdir, capsys, kind):
        """A godel spec over the Lukasiewicz chain a -> b -> c is refused:
        its initial lift would be no category over godel
        (1/2 & 1/2 = 1/2 > r(a,c) = 0)."""
        chain = {
            "tnorm": "lukasiewicz",
            "points": ["a", "b", "c"],
            "matrix": [["1/1", "1/2", "0/1"], ["0/1", "1/1", "1/2"], ["0/1", "0/1", "1/1"]],
        }
        family = "sinks" if kind == "final_lift" else "sources"
        spec = workdir["dir"] / "lift.json"
        spec.write_text(
            json.dumps(
                {
                    "tnorm": "godel",
                    "carrier": ["a", "b", "c"],
                    family: [{"category": chain, "map": {"a": "a", "b": "b", "c": "c"}}],
                }
            )
        )
        assert cli.main(["construct", kind, str(spec)]) == 5
        err = capsys.readouterr().err
        assert err == (
            f"error: {spec}: the lift spec and one of its categories "
            "live over different t-norms\n"
        )

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
LABELS = st.sampled_from(["a", "b", "c"])
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
        inputs = ["A", "B"][: cli.CONSTRUCT_KINDS[kind]]
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


def _run_case(argv, docs, tmp):
    """Write the documents under tmp, run the CLI; (exit code, stderr)."""
    names = {"OUT": str(Path(tmp) / "out.json")}
    for name, obj in docs.items():
        names[name] = str(Path(tmp) / f"{name}.json")
        Path(names[name]).write_text(json.dumps(obj))
    argv = [names.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_case())
def test_cli_boundary_exit_codes(case):
    """Any argv over small arbitrary JSON files ends in a documented exit
    code with at most one line on stderr, never a traceback."""
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_case(argv, docs, tmp)
    assert code in {0, 1, 2, 3, 5}, argv
    assert err.count("\n") <= 1, (argv, err)
