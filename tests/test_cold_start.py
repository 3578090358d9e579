"""The package loads lazily: ``import realcat`` imports no submodule, each
command imports only the modules it runs, and every name the package
exports still resolves to its module's own object."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realcat
from realcat import cli, errors, functors, suites

# the package's exports, by the submodule that defines them; product_tnorm
# is tnorm.product
EXPORTS = {
    "errors": (
        "DomainError InvalidWitness NotForwardCauchy NotMValued ParseError "
        "ProductIrrational RealcatError SizeLimitExceeded"
    ),
    "intervals": "IntervalSet",
    "qcat": "QCat final_lift initial_lift validate_qcat",
    "functors": (
        "QFunctor enumerate_functors hom_power hom_tensor product tensor "
        "tensor_transpose tensor_untranspose"
    ),
    "subconstructs": (
        "SuitableSet SuitableVariant check_suitable coreflect_c explicit "
        "k_diagonal k_square por_coreflection por_reflection reflect_r sqrt_band"
    ),
    "ccc": (
        "CCCWitness ccc_criterion ccc_identity_check ccc_witness "
        "power_existence_check"
    ),
    "tnorm": (
        "Block BlockKind CheckResult TNorm godel idempotent_set lukasiewicz "
        "m_set meet_residual product_tnorm remark4 sqrt_with subquantale_check "
        "tnorm_eval tnorm_residual way_below_in_m"
    ),
    "yoneda": (
        "ApproxReport FCSequence approx_property canonical_limit check_ev "
        "curry function_space_limit is_forward_cauchy uncurry yoneda_limits"
    ),
}
SUBMODULES = (
    "ccc cli errors functors intervals qcat serialize subconstructs suites tnorm "
    "values yoneda"
).split()
EXPORTED = [
    (name, module) for module, names in EXPORTS.items() for name in names.split()
]
# the modules no command but verify needs
HEAVY = ("realcat.subconstructs", "realcat.suites", "realcat.yoneda")
# the functor search and hom objects, and the CCC criterion
FUNCTORS, CCC = "realcat.functors", "realcat.ccc"
# standard library modules that no command loads: dataclasses imports
# inspect, and nothing the CLI runs imports either
UNUSED_STDLIB = ("dataclasses", "inspect")

SRC = Path(realcat.__file__).resolve().parent.parent
# runs the CLI on argv (none: imports only the package), then writes
# its exit code and the realcat and UNUSED_STDLIB modules loaded as the
# last line on stderr
PROBE = """
import json, sys
import realcat
code = None
if sys.argv[1:]:
    from realcat import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
watched = ("realcat", "dataclasses", "inspect")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in watched)
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def _fresh(*argv: str, cwd=None) -> tuple:
    """(exit code, realcat and UNUSED_STDLIB modules loaded) of PROBE on
    argv in a fresh interpreter."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded)


def test_import_realcat_loads_no_submodule():
    assert _fresh() == (None, {"realcat"})


@pytest.mark.parametrize("name, module", EXPORTED, ids=[n for n, _ in EXPORTED])
def test_each_exported_name_resolves_to_its_modules_object(name, module):
    own = getattr(importlib.import_module(f"realcat.{module}"), name.removesuffix("_tnorm"))
    assert getattr(realcat, name) is own
    assert name in realcat.__all__ and name in dir(realcat)


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_resolves_through_the_package(name):
    assert getattr(realcat, name) is importlib.import_module(f"realcat.{name}")
    assert name in realcat.__all__ and name in dir(realcat)


def test_the_package_exports_exactly_these_names():
    ns: dict = {}
    exec("from realcat import *", ns)
    names = {n for n, _ in EXPORTED} | set(SUBMODULES)
    assert len(EXPORTED) == 63 and set(ns) - {"__builtins__"} == names
    assert set(realcat.__all__) == names and realcat.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        realcat.nope


def test_the_parser_names_every_suite():
    assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)


def test_the_parser_caps_maps_at_the_kernels_default():
    """--max-maps defaults to the kernel's cap, which errors defines for
    the parser and functors imports."""
    args = cli.build_parser().parse_args(["construct", "product", "a", "b"])
    assert args.max_maps == functors.DEFAULT_MAP_CAP == 10**6
    assert functors.DEFAULT_MAP_CAP is errors.DEFAULT_MAP_CAP


_LUK_EDGE = {
    "tnorm": "lukasiewicz",
    "points": ["a", "b"],
    "matrix": [["1/1", "1/2"], ["0/1", "1/1"]],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cold")
    docs = {
        "cat.json": _LUK_EDGE,
        "lift.json": {
            "tnorm": "lukasiewicz",
            "carrier": ["x", "y"],
            "sinks": [{"category": _LUK_EDGE, "map": {"a": "x", "b": "y"}}],
        },
        "up.json": {
            "tnorm": "lukasiewicz",
            "carrier": ["x", "y"],
            "sources": [{"category": _LUK_EDGE, "map": {"x": "a", "y": "b"}}],
        },
        "k.json": {"components": [{"at": f"{i}/4"} for i in range(5)]},
        "band.json": {"variant": "sqrt_band", "tnorm": "lukasiewicz"},
    }
    for name, doc in docs.items():
        (d / name).write_text(json.dumps(doc))
    return d


# the modules of Cat_S alone: neither the suites nor the functor search
CAT_S_ONLY = (
    ("realcat.suites", "realcat.yoneda", FUNCTORS, CCC), ("realcat.subconstructs",)
)
# the functor search, and none of Cat_S
FUNCTORS_ONLY = ((*HEAVY, CCC), (FUNCTORS,))


@pytest.mark.parametrize(
    "argv, code, absent, present",
    [
        (["construct", "final_lift", "lift.json"], 0, (*HEAVY, FUNCTORS, CCC), ()),
        (["construct", "initial_lift", "up.json"], 0, (*HEAVY, FUNCTORS, CCC), ()),
        (["construct", "reflect", "band.json", "cat.json"], 0, *CAT_S_ONLY),
        (["construct", "coreflect", "band.json", "cat.json"], 0, *CAT_S_ONLY),
        (["construct", "por_rho", "cat.json"], 0, *CAT_S_ONLY),
        (["construct", "por_sigma", "cat.json"], 0, *CAT_S_ONLY),
        (["construct", "hom_power", "cat.json", "cat.json"], 0, HEAVY, (FUNCTORS,)),
        (["construct", "hom_tensor", "cat.json", "cat.json"], 0, *FUNCTORS_ONLY),
        (["construct", "product", "cat.json", "cat.json"], 0, *FUNCTORS_ONLY),
        (["construct", "tensor", "cat.json", "cat.json"], 0, *FUNCTORS_ONLY),
        (["validate", "cat.json", "cat.json"], 0, (*HEAVY, FUNCTORS, CCC), ()),
        (
            ["validate", "k.json", "--tnorm", "lukasiewicz"], 0,
            (*HEAVY, FUNCTORS, CCC), ("realcat.intervals", "realcat.tnorm"),
        ),
        (["--help"], 0, ("realcat.suites",), ()),
        (["witness", "--k", "k.json"], 1, (*HEAVY, FUNCTORS), (CCC,)),
    ],
    ids=[
        "final_lift", "initial_lift", "reflect", "coreflect", "por_rho", "por_sigma",
        "hom_power", "hom_tensor", "product", "tensor", "validate", "validate-k",
        "help", "witness",
    ],
)
def test_a_command_imports_only_the_modules_it_runs(
    inputs, argv, code, absent, present
):
    ran, loaded = _fresh(*argv, cwd=inputs)
    assert ran == code and "realcat.cli" in loaded and not loaded & set(absent), loaded
    assert set(present) <= loaded, loaded
    assert not loaded & set(UNUSED_STDLIB), loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["construct", "-h"], 0),
        (["construct", "nope", "a.json"], 2),
        (["verify"], 2),
        (["--nope"], 2),
    ],
    ids=["help", "construct-help", "bad-choice", "missing-suite", "bad-option"],
)
def test_help_and_a_usage_error_load_no_kernel(argv, code):
    """The parser needs no kernel module: --help, a command's help and a
    usage error load the package, cli and errors only."""
    ran, loaded = _fresh(*argv)
    assert ran == code
    assert loaded == {"realcat", "realcat.cli", "realcat.errors"}


def test_verify_and_a_suitable_set_load_what_they_need(inputs):
    """The lazy imports still run: verify loads the suites, and a
    suitable-set file the subconstructs."""
    code, loaded = _fresh("verify", "approx", cwd=inputs)
    assert code == 0 and set(HEAVY) <= loaded and not loaded & set(UNUSED_STDLIB)
    s = inputs / "s.json"
    s.write_text(json.dumps({"variant": "sqrt_band", "tnorm": "godel"}))
    code, loaded = _fresh("validate", str(s), cwd=inputs)
    assert code == 0 and "realcat.subconstructs" in loaded and "realcat.suites" not in loaded
    assert not loaded & set(UNUSED_STDLIB)
