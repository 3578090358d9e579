"""Seeded input generation for the benchmark, using only the standard library.

The generator never imports realcat, so two versions of the program
receive identical inputs for the same seed.  Valid categories are built
as the (join, &) path closure of random seed pairs -- the construction
``realcat.qcat.final_lift`` performs -- with the four builtin t-norm
formulas written out below.  The same closure is the reference answer
that the ``final_lift`` outputs are checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)
QUARTERS = [Fraction(k, 4) for k in range(5)]
EIGHTHS = [Fraction(k, 8) for k in range(9)]


def rng_for(seed: int, workload: str, round_index: int) -> random.Random:
    """An independent stream per (seed, workload, round)."""
    return random.Random(f"{seed}/{workload}/{round_index}")


def tnorm(name: str, x: Fraction, y: Fraction) -> Fraction:
    """x & y for the builtin norms, without validation."""
    if name == "godel":
        return min(x, y)
    if name == "lukasiewicz":
        return max(x + y - ONE, ZERO)
    if name == "product":
        return x * y
    if name == "remark4":
        if x <= HALF and y <= HALF:
            return 2 * x * y
        if x >= HALF and y >= HALF:
            return max(x + y - ONE, HALF)
        return min(x, y)
    raise ValueError(f"unknown t-norm {name!r}")


def closure(name: str, matrix) -> tuple:
    """Least matrix above ``matrix`` with a unit diagonal that satisfies
    m(i,k) & m(k,j) <= m(i,j).  One Floyd-Warshall pass is exact: the
    quantale is absorptive (x & y <= min(x, y)), so simple paths suffice."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    for i in range(n):
        m[i][i] = ONE
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            mik = m[i][k]
            if mik == ZERO:
                continue
            row_i = m[i]
            for j in range(n):
                via = tnorm(name, mik, row_k[j])
                if via > row_i[j]:
                    row_i[j] = via
    return tuple(tuple(row) for row in m)


def is_valid(name: str, matrix) -> bool:
    n = len(matrix)
    return all(matrix[i][i] == ONE for i in range(n)) and all(
        tnorm(name, matrix[i][k], matrix[k][j]) <= matrix[i][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def seeded_category(rng, name, n, values, pairs) -> tuple:
    """Closure of ``pairs`` random off-diagonal entries drawn from values."""
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(pairs):
        i, j = rng.sample(range(n), 2)
        m[i][j] = max(m[i][j], rng.choice(values))
    return closure(name, m)


def random_matrix(rng, n, values) -> tuple:
    """Unit diagonal, off-diagonal entries uniform over values."""
    return tuple(
        tuple(ONE if i == j else rng.choice(values) for j in range(n))
        for i in range(n)
    )


def sink_family(rng, name, n, values, sinks, size_range):
    """Small valid categories with maps into a carrier of n points, plus
    the final structure on the carrier (the reference answer)."""
    carrier = tuple(f"c{i}" for i in range(n))
    family = []
    pushed = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(sinks):
        m = rng.randint(*size_range)
        points = tuple(f"s{j}" for j in range(m))
        matrix = seeded_category(rng, name, m, values, pairs=m)
        images = [rng.randrange(n) for _ in range(m)]
        for p in range(m):
            for q in range(m):
                i, j = images[p], images[q]
                pushed[i][j] = max(pushed[i][j], matrix[p][q])
        family.append((points, matrix, {points[p]: carrier[images[p]] for p in range(m)}))
    return carrier, family, closure(name, pushed)


def rejection_stream(rng, name, n, values, max_tries=100_000) -> list:
    """Random candidates up to and including the first valid one."""
    out = []
    for _ in range(max_tries):
        m = random_matrix(rng, n, values)
        out.append(m)
        if is_valid(name, m):
            return out
    raise RuntimeError(f"no valid {n}-point {name} candidate in {max_tries} draws")


def random_rational(rng, max_den: int) -> Fraction:
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def functor_count(dom, cod) -> int:
    """Number of maps f with dom[i][j] <= cod[f i][f j], by a small
    backtracking search (independent of realcat's enumeration)."""
    n, k = len(dom), len(cod)
    images = []

    def extend(i):
        if i == n:
            return 1
        total = 0
        for b in range(k):
            if dom[i][i] <= cod[b][b] and all(
                dom[i][j] <= cod[b][images[j]] and dom[j][i] <= cod[images[j]][b]
                for j in range(i)
            ):
                images.append(b)
                total += extend(i + 1)
                images.pop()
        return total

    return extend(0)
