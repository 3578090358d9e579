"""Benchmark runner for realcat.

    python3 perfbench/run.py --workload closure_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout (the CLI runs as ``python3 -m realcat.cli`` with
``PYTHONPATH=src``); nothing is installed.  One client runs jobs in a
closed loop, one at a time, for whole rounds until ``--seconds`` have
passed.  Every job's output is checked after its timer stops.  Every
reported duration is scaled to a reference host speed (clock.py).  The run
prints every metric by name with its unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs a fixed number of rounds untraced, the same rounds
again with a span around every call into a layer, then the probes, and
reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import clock as hostclock
from clock import HostClock
from spans import NoTrace, Tracer
from workloads import WORKLOADS, CheckFailed, require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
PROBE_BATCH = 2000
PROBE_REPEATS = 5
MAX_LOGGED_ERRORS = 5


def load_realcat():
    """Import realcat from this checkout's src/, never from elsewhere."""
    package = SRC / "realcat"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import realcat

    if Path(realcat.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported realcat from {realcat.__file__}, not {package}")
    return realcat


def setup_probe(workload: str) -> float:
    """One set-up in this fresh process: import realcat and build the
    workload's shared objects.  The process calibrates itself, because a
    fresh process's speed follows its own core, not the parent's."""
    clock = HostClock()
    clock.calibrate()
    clock.calibrate()
    start = time.perf_counter()
    rc = load_realcat()
    WORKLOADS[workload](rc, ROOT, {})
    elapsed = time.perf_counter() - start
    clock.calibrate()
    clock.calibrate()
    return elapsed * clock.factor(start)


def measure_setup(workload: str, clock: HostClock) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes.  For cli a set-up is
    a whole ``realcat --help`` process, timed from outside.  Each process
    calibrates itself (clock.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        start = time.perf_counter()
        if workload == "cli":
            proc = subprocess.run(
                [sys.executable, str(HERE / "cli_child.py"), "--help"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            )
            _, costs = hostclock.split_child_stderr(proc.stderr)
            if proc.returncode == 0:
                wall = time.perf_counter() - start - sum(costs)
                times.append(wall * hostclock.ratio(costs))
        else:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
                cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
            if proc.returncode == 0:
                times.append(float(proc.stdout.split()[-1]))
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return times


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Phase:
    """Per-job start times, wall latencies, CPU seconds and calibration
    slices run inside the job's own process (raw), and failure counts of
    one loop."""

    def __init__(self):
        self.starts: list[float] = []
        self.raw_latencies: list[float] = []
        self.raw_cpu: list[float] = []
        self.own_slices: list = []
        self.factors: list[float] = []  # calibrated values, set by scale()
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def scale(self, clock):
        """Scale every job by its own slices if it ran any, else by the
        runner's calibration around its start; slice time is not job time."""
        self.factors = [
            hostclock.ratio(own) if own else clock.factor(t)
            for t, own in zip(self.starts, self.own_slices)
        ]
        harness = [sum(own) for own in self.own_slices]
        self.latencies = [
            (x - h) * k for x, h, k in zip(self.raw_latencies, harness, self.factors)
        ]
        self.cpu = sum((x - h) * k for x, h, k in zip(self.raw_cpu, harness, self.factors))


def run_phase(wl, seed, seconds, rounds, tr, clock, recorded, roundtrip=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed, or exactly
    ``rounds`` rounds when that is given."""
    phase = Phase()
    clock.calibrate()
    start = time.perf_counter()
    while True:
        jobs = wl.round(seed, phase.rounds)
        want = recorded[phase.rounds] if phase.rounds < len(recorded) else None
        for i, job in enumerate(jobs):
            phase.attempted += 1
            tr.job = phase.attempted
            clock.tick()
            cpu0 = cpu_now()
            t0 = time.perf_counter()
            try:
                out = tr.call("job", wl.run, job, tr)
                error = None
            except Exception:
                error = traceback.format_exc()
            phase.raw_latencies.append(time.perf_counter() - t0)
            phase.raw_cpu.append(cpu_now() - cpu0)
            phase.starts.append(t0)
            phase.own_slices.append(getattr(out, "calibration", ()) if error is None else ())
            if error is None:
                try:
                    wl.check(job, out)
                    if want is not None:
                        require(
                            i < len(want) and wl.digest(job, out) == want[i],
                            "output differs from the digest recorded for this seed",
                        )
                    if roundtrip is not None:
                        roundtrip(tr, wl.qcats(job, out))
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                phase.failed += 1
                if phase.failed <= MAX_LOGGED_ERRORS:
                    print(f"job {phase.attempted} ({job[0]}) failed: {error}", file=sys.stderr)
        phase.rounds += 1
        elapsed = time.perf_counter() - start
        # stop at the round boundary nearest to the requested run length
        if (rounds is not None and phase.rounds >= rounds) or (
            rounds is None and elapsed * (1 + 0.5 / phase.rounds) >= seconds
        ):
            clock.calibrate()
            phase.scale(clock)
            return phase


def serialize_roundtrip(rc):
    """encode = qcat_to_obj + dumps, decode = loads + qcat_from_obj."""
    import realcat.serialize as ser

    def encode(c):
        return ser.dumps(ser.qcat_to_obj(c))

    def decode(text):
        return ser.qcat_from_obj(json.loads(text))

    def roundtrip(tr, items):
        for item in items:
            if isinstance(item, str):
                c = tr.call("serialize.decode", decode, item)
                require(tr.call("serialize.encode", encode, c) == item,
                        "re-encoding changed the JSON")
            else:
                c = tr.call("serialize.decode", decode, tr.call("serialize.encode", encode, item))
                require(
                    c.matrix == item.matrix
                    and list(c.points) == [ser.point_label(p) for p in item.points],
                    "serialize round trip changed the category",
                )

    return roundtrip


def rate(fn, work: int, clock: HostClock) -> float:
    """Operations per second of fn(), the median of PROBE_REPEATS runs."""
    runs = []
    for _ in range(PROBE_REPEATS):
        clock.calibrate()
        start = time.perf_counter()
        fn()
        runs.append((start, time.perf_counter() - start))
    clock.calibrate()
    return work / statistics.median(t * clock.factor(start) for start, t in runs)


def probes(rc, wl, seed, clock) -> dict:
    """tnorm_eval and IntervalSet lookups over a fixed seeded batch drawn
    from the workload's own structure values."""
    values = sorted({v for job in wl.round(seed, 0) for v in wl.values(job)})
    rng = random.Random(seed)
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(PROBE_BATCH)]
    batch = [rng.choice(values) for _ in range(PROBE_BATCH)]
    norms = list(wl.tnorms.values())
    k = wl.k
    tnorm_eval = rc.tnorm_eval

    def evals():
        for t in norms:
            for x, y in pairs:
                tnorm_eval(t, x, y)

    def lookups():
        for v in batch:
            k.max_below(v)
            k.min_above(v)

    return {
        "tnorm.evals_per_s": rate(evals, len(pairs) * len(norms), clock),
        "intervals.lookups_per_s": rate(lookups, 2 * len(batch), clock),
    }


def end_to_end(phase: Phase, setup: list[float], workload: str) -> dict:
    lat = phase.latencies
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_p90_ms": (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]) * 1000,
        "cpu_s_per_job": phase.cpu / len(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ops_frac": 1 - phase.failed / phase.attempted,
    }


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase, setup, workload, clock) -> dict:
    metrics: dict = {}

    def scale(start, job):
        return traced.factors[job - 1] if job else clock.factor(start)

    for name, (calls, busy, durations) in tracer.layer_times(scale).items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.p50_ms"] = statistics.median(durations) * 1000
    metrics.update(tracer.counts)
    candidates = tracer.counts["qcat.enumerate_functors.candidates"]
    if candidates:
        metrics["qcat.enumerate_functors.accept_ratio"] = (
            tracer.counts["qcat.enumerate_functors.accepted"] / candidates
        )
    if metrics.get("qcat.validate_qcat.calls"):
        metrics["qcat.validate_qcat.reject_frac"] = (
            tracer.counts["qcat.validate_qcat.rejects"] / metrics["qcat.validate_qcat.calls"]
        )
    metrics["bench.self_frac"] = metrics["job.busy_s"] / sum(traced.latencies)
    # both phases ran the same jobs: compare each job with itself
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced.latencies, untraced.latencies)
    ) - 1
    if workload == "cli":
        metrics["cli.startup_ms"] = statistics.median(setup) * 1000
    return metrics


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    rc = load_realcat()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    clock = HostClock()
    setup = measure_setup(args.workload, clock)
    digests = load_digests()
    recorded = digests.get("jobs", {}).get(args.workload, {}).get(str(args.seed), [])
    wl = WORKLOADS[args.workload](rc, ROOT, digests)
    try:
        if args.trace:
            rounds = max(1, round(args.seconds / 2 / wl.round_s))
            untraced = run_phase(wl, args.seed, None, rounds, NoTrace(), clock, recorded)
            tracer = Tracer()
            traced = run_phase(
                wl, args.seed, None, rounds, tracer, clock, recorded, serialize_roundtrip(rc)
            )
            tracer.job = None
            extra_failed = wl.traced_extras(tracer, clock)
            clock.calibrate()
            values = per_layer(tracer, untraced, traced, setup, args.workload, clock)
            values.update(probes(rc, wl, args.seed, clock))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed + extra_failed
            wanted = spec["per_layer"]
            phases = [untraced, traced]
        else:
            phase = run_phase(wl, args.seed, args.seconds, None, NoTrace(), clock, recorded)
            values = end_to_end(phase, setup, args.workload)
            attempted, failed = phase.attempted, phase.failed
            wanted = spec["end_to_end"]
            phases = [phase]
    finally:
        wl.close()

    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    lat = phases[-1].latencies
    beyond = sum(x > statistics.quantiles(lat, n=10)[-1] for x in lat) if len(lat) > 1 else 0
    print(
        f"# realcat benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print(
        f"# rounds={'+'.join(str(p.rounds) for p in phases)} jobs={len(lat)} "
        f"jobs_beyond_p90={beyond} setup_samples={len(setup)} "
        f"host_speed_factor={clock.median_factor():.4f} (raw time = reported time / factor)"
    )
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ops_frac':44s} {failed / attempted:>16.6g} frac")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
