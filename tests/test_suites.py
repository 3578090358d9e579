"""The named verification suites behind `realcat verify` all pass, are
deterministic and print the reports the benchmark's digests pin."""

import hashlib
import json
from pathlib import Path

import pytest

from realcat import serialize as ser
from realcat.suites import SUITES, WorkspaceConfig, run_suite
from realcat.tnorm import lukasiewicz

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
SUITE_DIGESTS = json.loads(DIGESTS.read_text())["suites"]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name, WorkspaceConfig())
    failing = [c for c in report.cases if c["status"] != "pass"]
    assert report.passed, failing
    text = ser.dumps(report.to_obj())
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == SUITE_DIGESTS[name]


def test_reports_are_deterministic():
    a = run_suite("ccc_equivalence", WorkspaceConfig()).to_obj()
    b = run_suite("ccc_equivalence", WorkspaceConfig()).to_obj()
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope", WorkspaceConfig())


def test_config_validation():
    """A suite is configured by its t-norm alone (lukasiewicz by default)."""
    assert WorkspaceConfig().tnorm == lukasiewicz()
    with pytest.raises(TypeError):
        WorkspaceConfig(max_maps=16)
