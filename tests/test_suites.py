"""The named verification suites behind `realcat verify` all pass, are
deterministic and print the reports the benchmark's digests pin."""

import hashlib
import json
from pathlib import Path

import pytest

from realcat import serialize as ser
from realcat import suites
from realcat.suites import SUITES, Report, WorkspaceConfig, run_suite
from realcat.tnorm import lukasiewicz
from realcat.values import ONE, ZERO

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


def test_check_records_the_first_failure_and_stops():
    def failures():
        yield "first"
        raise AssertionError("scanned past the first failure")

    rep = Report("demo")
    rep.check("passes", iter(()))
    rep.check("fails", failures())
    assert [(c["name"], c["status"], c["detail"]) for c in rep.cases] == [
        ("passes", "pass", ""),
        ("fails", "fail", "first"),
    ]


def _details(report):
    return [c["detail"] for c in report.cases]


def test_resd_prop_reports_the_first_meet_residual_failure(monkeypatch):
    """A meet residual that is 1 wherever x > y > 0 first breaks the
    adjunction at x = y = 1/8, z = 1/16 in x, y, z order."""
    real = suites.meet_residual
    monkeypatch.setattr(
        suites, "meet_residual", lambda x, y: ONE if x > y > 0 else real(x, y)
    )
    report = run_suite("resd_prop", WorkspaceConfig())
    assert _details(report) == ["adjunction at (1/8,1/8,1/16)", "", ""]


@pytest.mark.parametrize(
    "wrong, detail",
    [
        (ONE, "residual unsound at (1/8,1/16)"),
        (ZERO, "residual adjunction at (1/8,1/16,1/16)"),
    ],
    ids=["too_large", "too_small"],
)
def test_resd_prop_reports_the_first_tnorm_residual_failure(monkeypatch, wrong, detail):
    """A t-norm residual set to `wrong` wherever x > y > 0 fails first at
    x = 1/8, y = 1/16: too large is unsound, too small breaks the
    adjunction at z = 1/16."""
    real = suites.tnorm_residual
    monkeypatch.setattr(
        suites,
        "tnorm_residual",
        lambda t, x, y: wrong if x > y > 0 else real(t, x, y),
    )
    report = run_suite("resd_prop", WorkspaceConfig())
    assert _details(report) == ["", "", detail]
