"""The four benchmark workloads.

Each workload turns a seed into rounds of jobs (``round``), runs one job
through realcat's public API (``run``), and checks the job's output after
its timer has stopped (``check``).  A round holds one job of every kind
and size the workload mixes, so any whole number of rounds has the same
composition.  Every call into a layer goes through ``tr.call(name, fn,
*args)``: a plain call in untraced runs, a recorded span in traced ones.

Round generation uses only :mod:`gen` and the standard library; the
realcat module is handed to the constructor, which builds the shared
t-norm, interval-set and suitable-set objects (the timed set-up).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import clock
import gen
from gen import EIGHTHS, HALF, ONE, QUARTERS, ZERO

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def points(n, prefix="p"):
    return tuple(f"{prefix}{i}" for i in range(n))


def in_m(norm, v) -> bool:
    """v & v is idempotent, i.e. v lies in the quantale M of the norm."""
    square = gen.tnorm(norm, v, v)
    return gen.tnorm(norm, square, square) == square


class Workload:
    """Subclasses set ``norms`` and, in ``__init__``, ``self.k``: the
    workload's K, which the ``intervals.lookups_per_s`` probe queries."""

    name = ""
    norms: tuple = ()
    round_s = 1.0  # seconds per round at the defining commit; sizes the traced run
    digest_rounds = 2  # rounds whose job digests are recorded per shipped seed

    def __init__(self, rc, root, digests):
        self.rc = rc
        self.root = root
        self.tnorms = {name: rc.tnorm.BUILTIN_NORMS[name]() for name in self.norms}

    def canon(self, x):
        """JSON-able canonical form of a job output, for digests."""
        rc = self.rc
        if isinstance(x, rc.QCat):
            return [
                [repr(p) for p in x.points],
                [[str(v) for v in row] for row in x.matrix],
            ]
        if isinstance(x, rc.QFunctor):
            return [repr(p) for p in x.mapping]
        if isinstance(x, rc.CheckResult):
            return [x.passed, x.message]
        if isinstance(x, (list, tuple)):
            return [self.canon(y) for y in x]
        if isinstance(x, dict):
            return {k: self.canon(v) for k, v in x.items()}
        if isinstance(x, Fraction):
            return str(x)
        return x

    def digest(self, job, out) -> str:
        return short_hash(json.dumps(self.canon(out), sort_keys=True))

    def qcats(self, job, out) -> list:
        """Categories (or their JSON text) round-tripped through serialize
        in traced runs."""
        return []

    def traced_extras(self, tr, host_clock) -> int:
        """Extra traced work after the traced rounds; returns failures."""
        return 0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# closure workloads: final_lift, validate_qcat, reflect_r, coreflect_c


L5 = QUARTERS
VARIANTS = ("k_square", "k_diagonal", "sqrt_band")


def in_suitable(norm, variant, a, b) -> bool:
    """(a, b) in k_square(L5), k_diagonal(L5) or the square-root band."""
    if variant == "k_square":
        return a in L5 and b in L5
    if variant == "k_diagonal":
        return a == b and a in L5
    return gen.tnorm(norm, a, a) <= b and gen.tnorm(norm, b, b) <= a


class _Closure(Workload):
    norms = ("lukasiewicz", "godel")

    def __init__(self, rc, root, digests):
        super().__init__(rc, root, digests)
        self.k = rc.IntervalSet.of(L5)
        self.suitable = {
            name: {
                "k_square": rc.k_square(t, self.k),
                "k_diagonal": rc.k_diagonal(t, self.k),
                "sqrt_band": rc.sqrt_band(t),
            }
            for name, t in self.tnorms.items()
        }

    def project(self, tr, s, c):
        sub = self.rc.subconstructs
        inside = tr.call("subconstructs.is_in_cat_s", sub.is_in_cat_s, s, c)
        low = tr.call("subconstructs.coreflect_c", sub.coreflect_c, s, c)
        high = tr.call("subconstructs.reflect_r", sub.reflect_r, s, c)
        return inside, low, high

    def check_projection(self, norm, variant, c, inside, low, high):
        """C(r) <= r <= R(r) entrywise, both valid and in Cat_S (checked
        with the generator's arithmetic), both idempotent, and r in Cat_S
        exactly when C and R leave it alone."""
        s = self.suitable[norm][variant]
        n = len(c.points)
        require(
            all(
                low.matrix[i][j] <= c.matrix[i][j] <= high.matrix[i][j]
                for i in range(n)
                for j in range(n)
            ),
            f"C(r) <= r <= R(r) fails under {variant}",
        )
        for name, out in (("C(r)", low), ("R(r)", high)):
            require(gen.is_valid(norm, out.matrix), f"{name} is not a category")
            require(
                all(
                    in_suitable(norm, variant, out.matrix[i][j], out.matrix[j][i])
                    for i in range(n)
                    for j in range(n)
                ),
                f"{name} is not in Cat_S for {variant}",
            )
        require(self.rc.reflect_r(s, high) == high, "R is not idempotent")
        require(self.rc.coreflect_c(s, low) == low, "C is not idempotent")
        require(
            inside == (low == c) == (high == c),
            "membership disagrees with the reflectors",
        )


class ClosureLarge(_Closure):
    """Sink families on carriers of 10-14 points: the O(rounds * n^3)
    t-norm loop of final_lift and reflect_r dominates."""

    name = "closure_large"
    sizes = (10, 11, 12, 13, 14)
    round_s = 4.0

    def round(self, seed, r):
        rng = gen.rng_for(seed, self.name, r)
        jobs = []
        for norm in self.norms:
            for n in self.sizes:
                carrier, family, lifted = gen.sink_family(
                    rng, norm, n, EIGHTHS[1:], sinks=n // 2, size_range=(2, 4)
                )
                jobs.append(("lift", norm, carrier, family, lifted))
                for variant in VARIANTS:
                    jobs.append(("project", norm, variant, carrier, lifted))
        return jobs

    def run(self, job, tr):
        rc = self.rc
        t = self.tnorms[job[1]]
        if job[0] == "lift":
            _, _, carrier, family, _ = job
            sinks = [
                (tr.call("qcat.QCat", rc.QCat, t, pts, matrix), mapping)
                for pts, matrix, mapping in family
            ]
            lifted = tr.call("qcat.final_lift", rc.final_lift, t, sinks, carrier)
            valid = tr.call("qcat.validate_qcat", rc.validate_qcat, lifted)
            if not valid.passed:
                tr.count("qcat.validate_qcat.rejects")
            return lifted, valid
        _, _, variant, carrier, matrix = job
        c = tr.call("qcat.QCat", rc.QCat, t, carrier, matrix)
        return (c, *self.project(tr, self.suitable[job[1]][variant], c))

    def check(self, job, out):
        if job[0] == "lift":
            _, _, carrier, family, expected = job
            lifted, valid = out
            require(valid.passed, f"final_lift output invalid: {valid.message}")
            require(lifted.points == carrier, "final_lift changed the carrier")
            index = {p: i for i, p in enumerate(carrier)}
            for pts, matrix, mapping in family:
                for a, p in enumerate(pts):
                    for b, q in enumerate(pts):
                        require(
                            lifted.matrix[index[mapping[p]]][index[mapping[q]]]
                            >= matrix[a][b],
                            "final_lift does not dominate its seeds",
                        )
            require(lifted.matrix == expected, "final_lift differs from the reference closure")
            return
        c, inside, low, high = out
        self.check_projection(job[1], job[2], c, inside, low, high)

    def qcats(self, job, out):
        return [out[0]] if job[0] == "lift" else [out[2], out[3]]

    def values(self, job):
        matrices = [m for _, m, _ in job[3]] if job[0] == "lift" else [job[4]]
        return [v for m in matrices for row in m for v in row]


class ClosureSmall(_Closure):
    """Thousands of 2-4 point categories: per-call constant costs of the
    same layers dominate instead of the n^3 loop."""

    name = "closure_small"
    sizes = {"lukasiewicz": (2, 3, 4), "godel": (2, 3)}
    round_s = 0.04
    digest_rounds = 8

    def round(self, seed, r):
        rng = gen.rng_for(seed, self.name, r)
        return [
            ("sample", norm, n, gen.rejection_stream(rng, norm, n, QUARTERS))
            for norm in self.norms
            for n in self.sizes[norm]
        ]

    def run(self, job, tr):
        rc = self.rc
        _, norm, n, candidates = job
        t = self.tnorms[norm]
        pts = points(n)
        rejected = 0
        for matrix in candidates:
            c = tr.call("qcat.QCat", rc.QCat, t, pts, matrix)
            if tr.call("qcat.validate_qcat", rc.validate_qcat, c).passed:
                break
            rejected += 1
            tr.count("qcat.validate_qcat.rejects")
        projections = [
            self.project(tr, self.suitable[norm][variant], c) for variant in VARIANTS
        ]
        return rejected, c, projections

    def check(self, job, out):
        rejected, c, projections = out
        candidates = job[3]
        require(
            rejected == len(candidates) - 1 and c.matrix == candidates[-1],
            f"validate_qcat accepted {rejected + 1} of {len(candidates)} "
            "candidates, expected only the last",
        )
        for variant, (inside, low, high) in zip(VARIANTS, projections):
            self.check_projection(job[1], variant, c, inside, low, high)

    def qcats(self, job, out):
        return [out[1]]

    def values(self, job):
        return [v for m in job[3] for row in m for v in row]


# ---------------------------------------------------------------------------
# functors: enumerate_functors, hom objects, products, tensors, yoneda


class Functors(Workload):
    """Brute-force functor enumeration on sparse and dense pairs, plus the
    exponential and tensor-hom laws on small M-valued categories."""

    name = "functors"
    norms = ("lukasiewicz", "godel")
    # (norm, density, |A|, |B|) of the enumerated pair, one job each per round
    strata = (
        ("lukasiewicz", "sparse", 6, 4),
        ("godel", "dense", 5, 4),
        ("godel", "sparse", 7, 3),
        ("lukasiewicz", "dense", 6, 3),
    )
    m_values = (Fraction(1, 4), HALF, ONE)  # inside M for both norms
    round_s = 0.18

    def __init__(self, rc, root, digests):
        super().__init__(rc, root, digests)
        self.k = rc.m_set(self.tnorms["lukasiewicz"])

    def round(self, seed, r):
        rng = gen.rng_for(seed, self.name, r)
        high, low = EIGHTHS[5:], EIGHTHS[1:3]
        jobs = []
        for norm, density, na, nb in self.strata:
            if density == "sparse":
                big_a = gen.seeded_category(rng, norm, na, high, pairs=2 * na)
                big_b = gen.seeded_category(rng, norm, nb, low, pairs=nb)
            else:
                big_a = gen.seeded_category(rng, norm, na, low, pairs=na)
                big_b = gen.seeded_category(rng, norm, nb, high, pairs=2 * nb)
            small = [
                gen.seeded_category(rng, norm, 2, self.m_values, pairs=2)
                for _ in range(3)
            ]
            jobs.append(("functors", norm, density, big_a, big_b, *small))
        return jobs

    def run(self, job, tr):
        rc = self.rc
        _, norm, _, *matrices = job
        t = self.tnorms[norm]
        big_a, big_b, a, b, c = (
            tr.call("qcat.QCat", rc.QCat, t, points(len(m), name), m)
            for m, name in zip(matrices, "ABabc")
        )
        enum = self.enumerate
        found = enum(tr, big_a, big_b)
        hom = tr.call("qcat.hom_power", rc.hom_power, a, b)
        tr.count("qcat.hom.points", len(hom.points))
        hom_valid = tr.call("qcat.validate_qcat", rc.validate_qcat, hom)
        direct = enum(tr, tr.call("qcat.product", rc.product, a, c), b)
        curried = enum(tr, c, hom)
        round_trip = [
            tr.call(
                "yoneda.uncurry",
                rc.uncurry,
                a,
                c,
                b,
                tr.call("yoneda.curry", rc.curry, a, c, b, f),
            )
            for f in direct
        ]
        ev = tr.call("yoneda.check_ev", rc.check_ev, a, b)
        hom_t = tr.call("qcat.hom_tensor", rc.hom_tensor, c, b)
        tr.count("qcat.hom.points", len(hom_t.points))
        hom_t_valid = tr.call("qcat.validate_qcat", rc.validate_qcat, hom_t)
        direct_t = enum(tr, tr.call("qcat.tensor", rc.tensor, a, c), b)
        curried_t = enum(tr, a, hom_t)
        cycle = next(
            (
                (f, g)
                for f in hom.points
                for g in hom.points
                if f < g and hom.r(f, g) == ONE and hom.r(g, f) == ONE
            ),
            hom.points[:1],
        )
        limit = tr.call(
            "yoneda.function_space_limit", rc.function_space_limit, a, b, (), cycle
        )
        return {
            "found": found,
            "hom": hom,
            "hom_valid": hom_valid,
            "direct": direct,
            "curried": len(curried),
            "round_trip": round_trip,
            "ev": ev,
            "hom_t": hom_t,
            "hom_t_valid": hom_t_valid,
            "direct_t": len(direct_t),
            "curried_t": len(curried_t),
            "cycle": list(cycle),
            "limit": limit,
        }

    def enumerate(self, tr, a, b):
        found = tr.call("qcat.enumerate_functors", self.rc.enumerate_functors, a, b)
        tr.count("qcat.enumerate_functors.candidates", len(b.points) ** len(a.points))
        tr.count("qcat.enumerate_functors.accepted", len(found))
        return found

    def check(self, job, out):
        big_a, big_b = job[3], job[4]
        found = out["found"]
        index = {p: i for i, p in enumerate(points(len(big_b), "B"))}
        tables = [tuple(index[p] for p in f.mapping) for f in found]
        require(tables == sorted(set(tables)), "functors not in lexicographic order")
        n = len(big_a)
        require(
            all(
                big_a[i][j] <= big_b[f[i]][f[j]]
                for f in tables
                for i in range(n)
                for j in range(n)
            ),
            "enumerate_functors returned a non-functor",
        )
        require(
            len(found) == gen.functor_count(big_a, big_b),
            f"{len(found)} functors, expected {gen.functor_count(big_a, big_b)}",
        )
        require(out["hom_valid"].passed and out["hom_t_valid"].passed, "hom object invalid")
        require(len(out["direct"]) == out["curried"], "exponential law counts differ")
        require(out["direct_t"] == out["curried_t"], "tensor-hom law counts differ")
        require(
            [g.mapping for g in out["round_trip"]] == [f.mapping for f in out["direct"]],
            "uncurry . curry is not the identity",
        )
        require(out["ev"].passed, f"evaluation is not a functor: {out['ev'].message}")
        require(out["limit"].mapping in out["cycle"], "limit escaped the cycle class")

    def values(self, job):
        return [v for m in job[3:] for row in m for v in row]

    def qcats(self, job, out):
        return [out["hom"], out["hom_t"]]


# ---------------------------------------------------------------------------
# cli: one subprocess at a time over generated JSON files


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def cat_obj(norm, pts, matrix):
    return {"tnorm": norm, "points": list(pts), "matrix": [[rat(v) for v in row] for row in matrix]}


def parse_matrix(obj):
    return tuple(tuple(Fraction(v) for v in row) for row in obj["matrix"])


class Cli(Workload):
    """The realcat command, one process per job: process start-up,
    serialize, suites and cli, on values in no finite subquantale."""

    name = "cli"
    norms = ("product", "remark4")
    round_s = 22.0
    digest_rounds = 1
    suites = (
        "approx", "ccc_equivalence", "exponential_law", "monoidal",
        "power_existence", "resd_prop", "suitable", "tnorm_laws", "yoneda",
    )
    # jobs per pass of each generated kind
    mix = {"luk_chain": 16, "remark4_chain": 12, "final_lift": 22,
           "reflect": 22, "hom_power": 16, "validate": 16}
    max_den = 100

    def __init__(self, rc, root, digests):
        super().__init__(rc, root, digests)
        self.k = rc.m_set(self.tnorms["remark4"])
        self.work = root / ".perfbench" / "work"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.suite_digests = digests.get("suites", {})

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv):
        """``realcat <argv>`` in a fresh process (through cli_child.py)."""
        proc = subprocess.run(
            [sys.executable, str(CLI_CHILD), *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        proc.stderr, proc.calibration = clock.split_child_stderr(proc.stderr)
        return proc

    def round(self, seed, r):
        rng = gen.rng_for(seed, self.name, r)
        d = self.work / f"r{r}"
        d.mkdir(parents=True, exist_ok=True)
        jobs = [("verify", ["verify", s], 0, s) for s in self.suites]
        counter = iter(range(10**6))

        def path(stem):
            return str((d / f"{stem}{next(counter)}.json").relative_to(self.root))

        def witness(norm, members, intervals=(), expected=None):
            k = path("k")
            comps = [{"at": rat(v)} for v in members]
            comps += [{"lo": rat(lo), "hi": rat(hi)} for lo, hi in intervals]
            write_json(k, {"components": comps})
            if expected is None:
                expected = 0 if all(in_m(norm, v) for v in members) else 1
            return ("witness", ["witness", "--k", k, "--tnorm", norm], expected,
                    (norm, list(members), list(intervals)))

        for _ in range(self.mix["luk_chain"]):
            m = rng.randint(2, 16)
            jobs.append(witness("lukasiewicz", [Fraction(i, m - 1) for i in range(m)]))
        for _ in range(self.mix["remark4_chain"]):
            m = rng.randint(1, 10)
            chain = [ZERO] + [HALF + Fraction(j, 2 * m) for j in range(m + 1)]
            jobs.append(witness("remark4", chain))
        # M of Lukasiewicz is [0, 1/2] + {1}; the full interval is not inside it
        jobs.append(witness("lukasiewicz", [ONE], [(ZERO, HALF)], expected=0))
        jobs.append(witness("lukasiewicz", [], [(ZERO, ONE)], expected=1))

        def rational_category(norm, n):
            values = [gen.random_rational(rng, self.max_den) for _ in range(4)]
            return gen.seeded_category(rng, norm, n, values, pairs=n)

        for i in range(self.mix["final_lift"]):
            norm = ("product", "remark4")[i % 2]
            values = [gen.random_rational(rng, self.max_den) for _ in range(6)]
            carrier, family, lifted = gen.sink_family(
                rng, norm, rng.randint(5, 8), values, sinks=rng.randint(2, 3), size_range=(2, 3)
            )
            spec = path("lift")
            write_json(spec, {
                "tnorm": norm,
                "carrier": list(carrier),
                "sinks": [{"category": cat_obj(norm, pts, m), "map": f} for pts, m, f in family],
            })
            jobs.append(("construct_final_lift", ["construct", "final_lift", spec], 0, (norm, lifted)))
        for i in range(self.mix["reflect"]):
            norm = ("product", "remark4")[i % 2]
            matrix = rational_category(norm, rng.randint(4, 6))
            s, c = path("s"), path("c")
            write_json(s, {"variant": "sqrt_band", "tnorm": norm})
            write_json(c, cat_obj(norm, points(len(matrix)), matrix))
            jobs.append(("construct_reflect", ["construct", "reflect", s, c], 0, (norm, matrix)))
        for i in range(self.mix["hom_power"]):
            norm = ("product", "remark4")[i % 2]
            a = rational_category(norm, rng.randint(2, 3))
            b = rational_category(norm, rng.randint(2, 3))
            pa, pb = path("a"), path("b")
            write_json(pa, cat_obj(norm, points(len(a)), a))
            write_json(pb, cat_obj(norm, points(len(b)), b))
            jobs.append(("construct_hom_power", ["construct", "hom_power", pa, pb], 0,
                         (norm, gen.functor_count(a, b))))
        for i in range(self.mix["validate"]):
            norm = ("product", "remark4")[i % 2]
            files, valid = [], []
            for j in range(3):
                n = rng.randint(3, 5)
                if i % 2 and j == 2:
                    values = [gen.random_rational(rng, self.max_den) for _ in range(3)]
                    matrix = gen.random_matrix(rng, n, values)
                else:
                    matrix = rational_category(norm, n)
                files.append(path("v"))
                write_json(files[-1], cat_obj(norm, points(n), matrix))
                valid.append(gen.is_valid(norm, matrix))
            jobs.append(("validate", ["validate", *files], 0 if all(valid) else 1, valid))
        return self.interleave(jobs)

    @staticmethod
    def interleave(jobs):
        """Spread each kind evenly over the pass."""
        by_kind: dict = {}
        for job in jobs:
            by_kind.setdefault(job[0], []).append(job)
        keyed = [
            ((i + 0.5) / len(group), kind_index, job)
            for kind_index, group in enumerate(by_kind.values())
            for i, job in enumerate(group)
        ]
        keyed.sort(key=lambda x: (x[0], x[1]))
        return [job for _, _, job in keyed]

    def run(self, job, tr):
        return tr.call("cli." + job[0], self.spawn, job[1])

    def digest(self, job, out):
        return short_hash(f"{out.returncode}\n{out.stdout}")

    def check(self, job, proc):
        kind, argv, expected, info = job
        require(
            proc.returncode == expected,
            f"{' '.join(argv)}: exit {proc.returncode}, expected {expected}: "
            f"{proc.stderr.strip()[-300:]}",
        )
        out = json.loads(proc.stdout) if proc.stdout.strip() else None
        if kind == "verify":
            require(out["summary"]["fail"] == 0 and out["summary"]["error"] == 0,
                    f"suite {info} did not pass")
            want = self.suite_digests.get(info)
            require(want is None or short_hash(proc.stdout) == want,
                    f"suite {info} report differs from the recorded digest")
        elif kind == "witness":
            norm, members, intervals = info
            if expected == 0:
                require(out == {"cartesian_closed": True, "criterion": True}, "bad negative witness")
                return
            u, v, r, lhs, rhs = (Fraction(out[key]) for key in ("u", "v", "r", "lhs", "rhs"))
            require(lhs != rhs, "witness has lhs == rhs")
            require(all(x in members or any(lo <= x <= hi for lo, hi in intervals)
                        for x in (u, v, r)), "witness triple outside K")
            tn = gen.tnorm
            require(lhs == min(tn(norm, u, v), r), "witness lhs is wrong")
            require(rhs == max(tn(norm, min(u, r), v), tn(norm, min(v, r), u)), "witness rhs is wrong")
        elif kind == "construct_final_lift":
            require(parse_matrix(out) == info[1], "final_lift differs from the reference closure")
        elif kind == "construct_reflect":
            norm, before = info
            after = parse_matrix(out)
            n = len(before)
            tn = gen.tnorm
            require(all(after[i][j] >= before[i][j] for i in range(n) for j in range(n)),
                    "R(r) is not above r")
            require(gen.is_valid(norm, after), "R(r) is not a category")
            require(all(tn(norm, after[i][j], after[i][j]) <= after[j][i]
                        for i in range(n) for j in range(n)), "R(r) is not in the sqrt band")
        elif kind == "construct_hom_power":
            norm, count = info
            require(len(out["points"]) == count, "hom_power has the wrong number of points")
            require(gen.is_valid(norm, parse_matrix(out)), "hom_power output invalid")
        elif kind == "validate":
            require([c["status"] == "pass" for c in out["cases"]] == info,
                    "validate statuses disagree with the reference")

    def values(self, job):
        if job[0] in ("construct_final_lift", "construct_reflect"):
            return [v for row in job[3][1] for v in row]
        return []

    def traced_extras(self, tr, host_clock):
        """Run every suite in process; returns the number that failed."""
        import realcat.serialize as ser
        import realcat.suites as suites

        failed = 0
        for name in self.suites:
            host_clock.calibrate()
            report = tr.call("suites." + name, suites.run_suite, name, suites.WorkspaceConfig())
            want = self.suite_digests.get(name)
            if not report.passed or (want is not None and short_hash(ser.dumps(report.to_obj())) != want):
                print(f"suite {name} failed in process", file=sys.stderr)
                failed += 1
        return failed

    def qcats(self, job, proc):
        return [proc.stdout] if job[0].startswith("construct") else []


WORKLOADS = {w.name: w for w in (ClosureLarge, ClosureSmall, Functors, Cli)}
