"""The exact LP dual certificate that decides `verify`.

`dual_certificate` either proves a vector optimal over the slab
{u >= 0, sum u <= w}, or returns the duo construction as a strictly better
rational point.  A right-endpoint greedy at the μ fixed by the chord
between the equidistant optima decides; no flow network is built.
`check_certificate` checks a certificate from the vector alone: `_check`
rebuilds α from the vector's prefix sums (`model._prefix`), which `verify`
builds once from the solve's placement for the greedy and the checker.
Every step is in exact integers or rationals; nothing here uses floats.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .combinatorial import _twice_h
from .continuous import solve_continuous
from .errors import ConstructionError, ValidationError
from .model import Instance, _eval_placed, _scaled


@dataclass(frozen=True)
class DualCertificate:
    """Weights of the LP lower bound x·Σα − μ·w on f over {u >= 0, sum u <= w}.

    Interval [k, e) covers coordinates k..e-1.  α is 1 on every strictly
    unsaturated interval of the certified vector and on the tight intervals
    of ``runs``, 0 on all others: run (lo, hi, e) is [k, e) for k = lo..hi,
    and no two runs share an interval.  No coordinate is covered by more
    than ``mu`` intervals with α = 1.  `check_certificate` rebuilds α from
    the vector and checks all of this.  The counts describe the vector.
    """

    mu: int
    runs: tuple[tuple[int, int, int], ...]
    tight_count: int
    unsaturated_count: int


def _unsaturated(prefix: list[int], xs: int) -> list[tuple[int, int, int, int]]:
    """The unsaturated intervals as blocks (k, k, k+1, lo-1): [k, e) is
    unsaturated for e = k+1..lo-1, where [k, lo) is the first that is not."""
    return [(k, k, k + 1, bisect.bisect_left(prefix, prefix[k] + xs, k + 1) - 1)
            for k in range(len(prefix) - 1)]


def _coverage(n: int, blocks: Iterable[tuple[int, int, int, int]]) -> tuple[int, list[int]]:
    """The number of intervals in ``blocks`` and how often each coordinate
    0..n-1 lies in one of them.  A block (k1, k2, e1, e2) holds [k, e) for
    k = k1..k2 and e = e1..e2, each with k < e <= n."""
    # coordinate i lies in the intervals that start at or before i less those
    # that end at or before i: a running sum of a running sum
    diff = [0] * (n + 2)
    count = 0
    for k1, k2, e1, e2 in blocks:
        starts, ends = k2 - k1 + 1, e2 - e1 + 1
        count += starts * ends
        diff[k1] += ends
        diff[k2 + 1] -= ends
        diff[e1] -= starts
        diff[e2 + 1] += starts
    return count, list(itertools.accumulate(itertools.accumulate(diff[:n])))


def _greedy_certificate(inst: Instance, prefix: list[int], xs: int) -> DualCertificate | None:
    """The certificate at μ* = P(m) - P(m+1), where P(k) is Σ g(g-1)/2
    over the k+1 near-equal parts g of n+1: the slope, per unit of x, of
    the chord between the equidistant optima at budgets m·x and (m+1)·x.
    None when the greedy below finds no certificate.

    With μ fixed, α on the tight intervals is an interval packing under the
    coverage cap μ less the forced coverage of the unsaturated intervals.
    The tight intervals are taken by right end, ascending, and for one end
    by start, descending, each kept while every coordinate it covers is
    below μ.  This packs the most intervals under the cap (Carlisle-Lloyd;
    interval matrices are greedy matrices, Hoffman-Kolen-Sakarovitch).
    The result certifies v exactly when every mass coordinate, one where
    the prefix sums ``prefix`` of v step up, ends at coverage μ.
    """
    n = inst.n
    mu = (_twice_h(inst.m + 1, n + 1) - _twice_h(inst.m + 2, n + 1)) // 2
    unsaturated, cover = _coverage(n, _unsaturated(prefix, xs))
    if max(cover) > mu:
        return None
    # the tight starts of end e are the run of prefix[e] - xs in prefix
    first = dict(zip(reversed(prefix), range(n, -1, -1)))
    last = dict(zip(prefix, range(n + 1)))
    runs: list[tuple[int, int, int]] = []
    tight_count = 0
    for e in range(1, n + 1):
        khi = last.get(prefix[e] - xs)
        if khi is None:
            continue
        klo = first[prefix[khi]]
        tight_count += khi - klo + 1
        # [khi, e), [khi-1, e), ... nest, so the first one rejected rejects
        # all that follow; peak is the coverage maximum over the current
        # interval once the ones taken so far are counted
        peak = max(cover[khi:e])
        k = khi
        while k >= klo:
            if cover[k] > peak:
                peak = cover[k]
            if peak >= mu:
                break
            peak += 1
            k -= 1
        taken = khi - k
        if taken:
            # [khi, e) lies in every taken interval, khi - i in taken - i
            cover[khi:e] = map(taken.__add__, cover[khi:e])
            for i in range(1, taken):
                cover[khi - i] += taken - i
            runs.append((k + 1, khi, e))
    if any(c != mu for c, lo, hi in zip(cover, prefix, prefix[1:]) if lo != hi):
        return None
    return DualCertificate(
        mu=mu,
        runs=tuple(runs),
        tight_count=tight_count,
        unsaturated_count=unsaturated,
    )


def _on_budget(prefix: list[int], denom: int, inst: Instance) -> bool:
    # prefix[n] / denom == w, in integers
    return len(prefix) == inst.n + 1 and prefix[-1] * inst.w.denominator == inst.w.numerator * denom


def dual_certificate(v: Iterable, inst: Instance) -> DualCertificate | tuple[Fraction, ...]:
    """Prove v optimal over {u >= 0, sum u <= w}, or return a strictly better point.

    v must be nonnegative with n entries summing to exactly w.  For weights
    α in [0, 1] on the intervals and μ >= 0 with every coordinate covered by
    at most μ, f(u) >= x·Σα − μ·w for every feasible u (weak duality).  The
    bound equals f(v) when α = 1 on the unsaturated intervals of v, α = 0 on
    the oversaturated ones, and the coverage is exactly μ wherever v_i > 0.

    The minimum of f is the chord between the equidistant optima at budgets
    m·x and (m+1)·x, and its slope μ* is an optimal dual μ on every
    instance.  At a fixed μ the bound grows with the number of tight
    intervals taken and never exceeds f(v), so such weights exist exactly
    when a largest packing of tight intervals under the coverage cap meets
    the conditions, and the greedy of `_greedy_certificate` packs the most.
    So when it finds no certificate, v is not optimal, and the duo
    construction, which attains the chord, is returned as the better point.
    Its objective is checked against f(v) in exact arithmetic; a
    construction that is not strictly better raises ConstructionError.
    """
    placed, prefix, xs, denom = _scaled(v, inst.x)
    if not _on_budget(prefix, denom, inst):
        raise ValidationError(f"v must have {inst.n} entries summing to w = {inst.w}")
    cert = _greedy_certificate(inst, prefix, xs)
    if cert is not None:
        return cert
    construction = solve_continuous(inst)
    if not construction.objective < _eval_placed(inst.n, placed, inst.x):
        raise ConstructionError(
            f"no dual certificate for a vector the construction does not beat at {inst}"
        )
    return construction.vector


def check_certificate(v: Iterable, inst: Instance, cert: DualCertificate) -> Fraction | None:
    """The lower bound x·Σα − μ·w on f over {u >= 0, sum u <= w} that
    ``cert`` proves, when it equals f(v) for a v of n entries summing to w;
    None otherwise.

    α is rebuilt from v alone: 1 on its unsaturated intervals and on the
    runs of ``cert``, which must be tight and must not overlap.  So the
    answer does not depend on how the certificate was found.
    """
    placed, prefix, xs, denom = _scaled(v, inst.x)
    return _check(inst, prefix, xs, denom, cert, _eval_placed(len(prefix) - 1, placed, inst.x))


def _check(inst: Instance, prefix: list[int], xs: int, denom: int,
           cert: DualCertificate, f: Fraction) -> Fraction | None:
    """`check_certificate` from the vector's `_prefix` and its objective f."""
    runs = sorted(cert.runs, key=lambda run: (run[2], run[0]))
    # the prefix sums never decrease, so equal sums at lo and hi make every
    # start of the run tight
    if (not _on_budget(prefix, denom, inst) or cert.mu < 0
            or any(not 0 <= lo <= hi < e <= inst.n or prefix[lo] != prefix[hi]
                   or prefix[e] - prefix[lo] != xs for lo, hi, e in runs)
            or any(e == e2 and lo2 <= hi for (_, hi, e), (lo2, _, e2) in zip(runs, runs[1:]))):
        return None
    blocks = _unsaturated(prefix, xs) + [(lo, hi, e, e) for lo, hi, e in runs]
    count, cover = _coverage(inst.n, blocks)
    # the bound x·count - μ·w is (X·count - μ·W) / D on the instance's
    # integers; when it equals f, f is the bound
    d, big_x, big_w, _, _ = inst._ints
    bound = big_x * count - cert.mu * big_w
    fp, fq = f.as_integer_ratio()
    return f if max(cover) <= cert.mu and bound * fq == fp * d else None
