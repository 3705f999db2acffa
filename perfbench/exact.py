"""Reference arithmetic for the benchmark's output checks.

Nothing here imports ``extopt``: every value the program prints is checked
against a computation made from the instance alone.  The objective

    f(v) = sum over intervals [k, l] of (x - v_k - ... - v_l)^+

is evaluated on integers scaled to a common denominator.  Instead of the
program's interval-by-interval scan, each start index finds its first
saturated end by bisection on the prefix sums and adds the shortfall of all
shorter intervals in closed form from the prefix sums of the prefix sums,
so the two computations share no loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction


def _scaled(v, x):
    denom = math.lcm(x.denominator, *(e.denominator for e in v))
    return [int(e * denom) for e in v], int(x * denom), denom


def _shortfall_scaled(vals, xs, min_len):
    # returns (sum of positive shortfalls, number of intervals with one),
    # over intervals of at least min_len entries
    n = len(vals)
    prefix = list(itertools.accumulate(vals, initial=0))
    pp = list(itertools.accumulate(prefix, initial=0))  # pp[i] = prefix[0] + ... + prefix[i-1]
    total = 0
    count = 0
    for k in range(n):
        # ends k+1 .. e-1 are unsaturated, where e is the first end with
        # prefix[e] - prefix[k] >= xs
        e = bisect.bisect_left(prefix, prefix[k] + xs, lo=k + 1)
        lo = k + min_len
        if e <= lo:
            continue
        ends = e - lo
        total += ends * (xs + prefix[k]) - (pp[e] - pp[lo])
        count += ends
    return total, count


def shortfall(v, x, min_len=1):
    """Exact f(v) (or, with min_len=2, the pair shortfall) and the number of
    intervals with positive shortfall, for a rational vector v >= 0."""
    vals, xs, denom = _scaled(v, x)
    total, count = _shortfall_scaled(vals, xs, min_len)
    return Fraction(total, denom), count


def f_exact(v, x):
    return shortfall(v, x)[0]


def f_float(v, x):
    """Float objective of a float vector, summed over every interval."""
    n = len(v)
    prefix = list(itertools.accumulate(v, initial=0.0))
    total = 0.0
    for k in range(n):
        for end in range(k + 1, n + 1):
            gap = x - (prefix[end] - prefix[k])
            if gap > 0:
                total += gap
    return total


def tau_u(n, m):
    return -((n + 1) // -(m + 1))


def tau_l(n, m):
    return (n + 1) // (m + 1)


def is_proven(n, m, r):
    """The theorems' condition for the duo construction to be optimal."""
    if r == 0:
        return True
    return tau_u(n, m) == tau_u(n, m + 1) or tau_l(n, m) == tau_l(n, m + 1)


def equidistant_value(n, x, w, m):
    t = tau_u(n, m)
    return (t - 1) * (x * (n + 1) - (w + x) * t / 2)


def middle_point_value(n, x, r):
    """f of a single leftover r < x at a middle slot: every interval costs x,
    the j(n+1-j) intervals through slot j save r."""
    j = (n + 1) // 2
    return x * n * (n + 1) / 2 - r * j * (n + 1 - j)


def supremum_bracket(n, x, w):
    """Pair shortfall of (w, 0, ..., 0): the (n-1)(n-2)/2 intervals of length
    >= 2 that avoid slot 1 cost x each, the n-1 through it (x - w)^+."""
    return Fraction((n - 1) * (n - 2), 2) * x + (n - 1) * max(x - w, Fraction(0))


def structured_minimum(n, x, w):
    """Exhaustive minimum of f over the structured vectors: m entries equal to
    x, one equal to r when r > 0, the rest zero."""
    m = math.floor(w / x)
    r = w - m * x
    best = None
    for masses in itertools.combinations(range(n), m):
        base = [Fraction(0)] * n
        for i in masses:
            base[i] = x
        slots = [j for j in range(n) if j not in masses] if r else [None]
        for j in slots:
            v = list(base)
            if j is not None:
                v[j] = r
            value = f_exact(v, x)
            if best is None or value < best:
                best = value
    return best
