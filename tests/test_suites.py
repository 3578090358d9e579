"""The named verification suites behind `realcat verify` all pass and
are deterministic."""

import pytest

from realcat.suites import SUITES, WorkspaceConfig, run_suite
from realcat.tnorm import lukasiewicz


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name, WorkspaceConfig())
    failing = [c for c in report.cases if c["status"] != "pass"]
    assert report.passed, failing


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
