"""Independent reference implementations used as test oracles.

These deliberately avoid any code path shared with the package: plain triple
loops over interval slices, exact rationals only.  `bisect_f`, for vectors
too long for the triple loops, uses prefix sums but no loop of the package.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction

import numpy as np


def naive_f(v, x) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    n = len(v)
    for k in range(n):
        for end in range(k, n):
            s = sum(v[k : end + 1], Fraction(0))
            if x > s:
                total += x - s
    return total


def naive_row(v, x, j) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    for k in range(len(v) - j + 1):
        s = sum(v[k : k + j], Fraction(0))
        if x > s:
            total += x - s
    return total


def naive_strict_pairs(v, x) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    n = len(v)
    for k in range(n):
        for end in range(k + 1, n):
            s = sum(v[k : end + 1], Fraction(0))
            if x > s:
                total += x - s
    return total


def bisect_f(v, x) -> Fraction:
    """f(v) in O(n log n).  Each start k finds its first saturated end e by
    bisection on the prefix sums P, and the shorter intervals from k add
    (e−k−1)·(x + P[k]) − (P[k+1] + ... + P[e−1]) in one step."""
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    denom = math.lcm(x.denominator, *(e.denominator for e in v))
    xs = int(x * denom)
    prefix = list(itertools.accumulate((int(e * denom) for e in v), initial=0))
    pp = list(itertools.accumulate(prefix, initial=0))  # pp[i] = P[0] + ... + P[i-1]
    total = 0
    for k in range(len(v)):
        e = bisect.bisect_left(prefix, prefix[k] + xs, lo=k + 1)
        total += (e - k - 1) * (xs + prefix[k]) - (pp[e] - pp[k + 1])
    return Fraction(total, denom)


def naive_grid(inst, resolution: int) -> tuple[list[tuple[Fraction, ...]], Fraction]:
    """Every minimizer of ``naive_f`` over the compositions of the budget in
    steps of w/resolution, in lexicographic order, and the minimum."""
    step = inst.w / resolution
    best, minimizers = None, []
    # the last part takes the rest, so the heads run in lexicographic order
    for head in itertools.product(range(resolution + 1), repeat=inst.n - 1):
        if sum(head) > resolution:
            continue
        vector = tuple(c * step for c in head + (resolution - sum(head),))
        value = naive_f(vector, inst.x)
        if best is None or value < best:
            best, minimizers = value, [vector]
        elif value == best:
            minimizers.append(vector)
    return minimizers, best


def reference_project_rows(points: np.ndarray, total: float) -> np.ndarray:
    """Row-wise simplex projection in the textbook form: rho is the number of
    sorted entries u_k with u_k + (total - css_k)/k > 0."""
    u = np.sort(points, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    cond = u + (total - css) / np.arange(1, points.shape[1] + 1) > 0
    rho = cond.sum(axis=1)
    theta = (css[np.arange(len(points)), rho - 1] - total) / rho
    return np.maximum(points - theta[:, None], 0.0)


def random_fraction(rng: random.Random, max_num: int = 12, max_den: int = 7) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_vector(rng: random.Random, n: int, x: Fraction) -> tuple[Fraction, ...]:
    """Arbitrary nonnegative rational vector, scaled so entries straddle x."""
    scale = x / 4
    return tuple(random_fraction(rng) * scale for _ in range(n))


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def random_coprime_vector(
    rng: random.Random, primes: list[int], n: int, x: Fraction
) -> tuple[Fraction, ...]:
    """Entries in [0, x/2] whose denominators are distinct primes from ``primes``,
    a quarter of them zero."""
    out = []
    for p in rng.sample(primes, n):
        out.append(Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, p * x // 2), p))
    return tuple(out)


def random_lambda_member(rng: random.Random, inst) -> tuple[Fraction, ...]:
    """Random vector with entries in [0, x] summing exactly to w."""
    n, x, w = inst.n, inst.x, inst.w
    order = list(range(n))
    rng.shuffle(order)
    v = [Fraction(0)] * n
    remaining = w
    for i in order[:-1]:
        amount = min(x, remaining * Fraction(rng.randint(0, 8), 8))
        v[i] = amount
        remaining -= amount
    for i in order:
        take = min(x - v[i], remaining)
        v[i] += take
        remaining -= take
        if remaining == 0:
            break
    assert remaining == 0
    return tuple(v)


def twelfths_grid():
    """(n, x, w) for n = 2..16, x in {1, 3/7, 11/10} and w = x·k/12 for
    every k with 0 < w < n·x."""
    for n in range(2, 17):
        for x in (Fraction(1), Fraction(3, 7), Fraction(11, 10)):
            for k in range(1, 12 * n):
                yield n, x, x * k / 12


def naive_y_gaps(n: int, m: int, limit: int | None = None) -> tuple[int, ...] | None:
    """Lexicographically smallest y-layer gap profile (m+1 gaps, each
    floor((n+1)/(m+1)) or one more, summing to n+1) whose first m prefix sums
    lie strictly between consecutive prefix sums of the short-gaps-first
    r-layer profile (m+2 gaps summing to n+1); None when none does.

    Walks the slots of the short gaps in `itertools.combinations` order,
    which is the lexicographic order of the gap tuples.  With `limit`, more
    than `limit` arrangements raise ValueError instead of being walked.
    """
    dy, long_y = divmod(n + 1, m + 1)
    dr, long_r = divmod(n + 1, m + 2)
    gaps_r = [dr] * (m + 2 - long_r) + [dr + 1] * long_r
    sums_r = list(itertools.accumulate(gaps_r))
    short_y = m + 1 - long_y
    if limit is not None and math.comb(m + 1, short_y) > limit:
        raise ValueError(f"more than {limit} arrangements at n={n}, m={m}")
    for shorts in itertools.combinations(range(m + 1), short_y):
        gaps = [dy + 1] * (m + 1)
        for k in shorts:
            gaps[k] = dy
        sums_y = list(itertools.accumulate(gaps))
        if all(sums_r[k] < sums_y[k] < sums_r[k + 1] for k in range(m)):
            return tuple(gaps)
    return None
