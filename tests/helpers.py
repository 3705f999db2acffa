"""Independent reference implementations used as test oracles.

These deliberately avoid prefix sums and any code path shared with the
package: plain triple loops over interval slices, exact rationals only.
"""

from __future__ import annotations

import random
from fractions import Fraction


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
