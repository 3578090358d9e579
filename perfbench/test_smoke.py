"""Smoke test of the benchmark itself (not part of the repository's tests).

    python3 -m pytest -q perfbench/test_smoke.py      # about three minutes

Every workload at its minimum size (one round, ``--seconds 1``) must
emit every metric BENCHMARK.json names, with its unit, and no failed job,
both untraced and traced; every per-layer metric must be nonzero on some
workload.  Without the program beside it the runner must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_workload_emits_every_metric():
    nonzero = set()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
                (m["name"], m["unit"]) for m in SPEC[key]
            ]
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
            nonzero |= {n for n, m in result["metrics"].items() if m["value"]}
    assert nonzero == {m["name"] for m in SPEC["per_layer"]} | {
        m["name"] for m in SPEC["end_to_end"]
    }


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("closure_small", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
