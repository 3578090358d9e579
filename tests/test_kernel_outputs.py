"""The kernels' outputs on the committed corpus (``kernel_outputs.json``,
written by ``tools/record_outputs.py``) replay unchanged: validate_qcat,
final_lift, reflect_r, coreflect_c and is_in_cat_s, errors included."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "record_outputs", ROOT / "tools" / "record_outputs.py"
)
record_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_outputs)


def test_the_kernel_output_corpus_replays_unchanged():
    saved = json.loads(record_outputs.OUTPUTS.read_text())
    replayed = record_outputs.record(saved["seed"])
    assert len(saved["cases"]) > 3000
    differs = record_outputs.first_difference(saved["cases"], replayed)
    assert differs is None, f"first case that differs: {differs}"


def test_the_first_difference_is_named_in_recorded_order():
    first = record_outputs.first_difference
    recorded = {"a": "1", "b": "2", "c": "3"}
    assert first(recorded, dict(recorded)) is None
    assert first(recorded, {**recorded, "b": "x", "c": "y"}) == "b"
    assert first(recorded, {"a": "1", "b": "2"}) == "c"
    assert first(recorded, {**recorded, "d": "4"}) == "d"
