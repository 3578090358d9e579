"""Record the output digests that benchmark runs check against.

    python3 perfbench/record_digests.py

Runs every verify suite and the first rounds of every workload for each
shipped seed (untimed, with every output check), and writes
perfbench/digests.json.  Run it only at a commit whose outputs are known
to be right: afterwards a run fails every job whose output differs from
the digest recorded for its seed, round and position.  Seeds outside
SHIPPED_SEEDS get every other check.
"""

from __future__ import annotations

import json

import run
from spans import NoTrace
from workloads import WORKLOADS, short_hash

SHIPPED_SEEDS = range(16)


def main():
    rc = run.load_realcat()
    import realcat.serialize as ser
    import realcat.suites as suites

    out = {"suites": {}, "jobs": {}}
    for name in sorted(suites.SUITES):
        report = suites.run_suite(name, suites.WorkspaceConfig())
        out["suites"][name] = short_hash(ser.dumps(report.to_obj()))
    for name, cls in WORKLOADS.items():
        wl = cls(rc, run.ROOT, out)
        try:
            per_seed = {}
            for seed in SHIPPED_SEEDS:
                rounds = []
                for r in range(wl.digest_rounds):
                    row = []
                    for job in wl.round(seed, r):
                        result = wl.run(job, NoTrace())
                        wl.check(job, result)
                        row.append(wl.digest(job, result))
                    rounds.append(row)
                per_seed[str(seed)] = rounds
            out["jobs"][name] = per_seed
        finally:
            wl.close()
        print(f"{name}: {len(SHIPPED_SEEDS)} seeds x {wl.digest_rounds} rounds")
    (run.HERE / "digests.json").write_text(json.dumps(out, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
