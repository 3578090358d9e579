"""The library's outputs on the committed corpora (written by
``tools/record_outputs.py``) replay unchanged, errors included:
``kernel_outputs.json`` for validate_qcat, final_lift, reflect_r,
coreflect_c and is_in_cat_s, ``functor_outputs.json`` for the
functor search, products, hom objects, curry, uncurry, the
function-space limit, initial_lift and final_lift's refusals,
``cli_outputs.json`` for every command of the CLI, refusals included,
and ``grid_outputs.json`` for the Cat_S kernels on values off the
block endpoints' grid."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "record_outputs", ROOT / "tools" / "record_outputs.py"
)
record_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_outputs)


def first_difference_on_replay(path, build, least):
    recorded, replayed = record_outputs.replay(path, build)
    assert len(recorded) > least
    return record_outputs.first_difference(recorded, replayed)


def test_the_kernel_output_corpus_replays_unchanged():
    differs = first_difference_on_replay(
        record_outputs.OUTPUTS, record_outputs.cases, 3000
    )
    assert differs is None, f"first case that differs: {differs}"


def test_the_functor_output_corpus_replays_unchanged():
    differs = first_difference_on_replay(
        record_outputs.FUNCTOR_OUTPUTS, record_outputs.functor_cases, 3000
    )
    assert differs is None, f"first case that differs: {differs}"


def test_the_cli_output_corpus_replays_unchanged():
    """Every command and construct kind, valid and refused, run
    in-process: exit code, stdout, stderr and written files."""
    differs = first_difference_on_replay(
        record_outputs.CLI_OUTPUTS, record_outputs.cli_cases, 350
    )
    assert differs is None, f"first case that differs: {differs}"


def test_the_grid_kernel_corpus_replays_unchanged():
    """validate_qcat and the three Cat_S kernels over /12 grid sums, on
    thirds, quarters or {0, 1}: the kernel's grid folds in the block
    endpoints, and doubles for the band's roots only after them."""
    differs = first_difference_on_replay(
        record_outputs.GRID_OUTPUTS, record_outputs.grid_cases, 2000
    )
    assert differs is None, f"first case that differs: {differs}"


def test_the_first_difference_is_named_in_recorded_order():
    first = record_outputs.first_difference
    recorded = {"a": "1", "b": "2", "c": "3"}
    assert first(recorded, dict(recorded)) is None
    assert first(recorded, {**recorded, "b": "x", "c": "y"}) == "b"
    assert first(recorded, {"a": "1", "b": "2"}) == "c"
    assert first(recorded, {**recorded, "d": "4"}) == "d"
