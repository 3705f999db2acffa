"""Closed-form solver for the combinatorial minimization over structured vectors.

A candidate places m masses of size x (plus one leftover mass r) on n slots.
Writing the placement as a profile of m+1 gaps that sum to n+1, the objective
depends only on the gap multiset and on where the leftover sits inside the
widest gap.  The optimal profile is near-equidistant except for one widest
gap delta*, which is found by comparing the minimal odd and even candidates
of an exact second-difference criterion.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstructionError, SizeCapError, ValidationError
from .model import Instance, Placement, _eval_placed, _materialize
from .model import eval_f  # noqa: F401  perfbench/tracing.py wraps it under this module


@dataclass(frozen=True)
class DeltaCertificate:
    """Artifacts of the widest-gap search: the odd and even candidates, their
    objective values, and the chosen delta*.

    ``window`` is the analytic bracket (d_minus, d_plus) that the second
    difference crosses zero in.  The search does not use it; ``used_fallback``
    reports that it missed, i.e. a candidate lies outside
    [ceil(d_minus), min(floor(d_plus) + 2, n - 1 - m)], or, when r = 0,
    ceil((n+1)/(m+1)) is neither candidate.
    """

    delta1: int
    delta2: int
    delta_star: int
    a_delta1: Fraction
    a_delta2: Fraction
    window: tuple[Fraction, Fraction]
    used_fallback: bool = False


def middle_points(a: int, b: int) -> tuple[int, ...]:
    """Middle point(s) of the integer range {a, ..., b}: one when a+b is even,
    two adjacent ones when a+b is odd."""
    if isinstance(a, bool) or isinstance(b, bool) or not (isinstance(a, int) and isinstance(b, int)):
        raise ValidationError(f"middle points need integers, got {a!r}, {b!r}")
    if a <= 0 or a >= b:
        raise ValidationError(f"need 0 < a < b, got a={a}, b={b}")
    return tuple(range((a + b) // 2, (a + b + 1) // 2 + 1))


def _stretch_middles(a: int, b: int) -> tuple[int, ...]:
    # middle_points extended to the degenerate single-element range
    if a == b:
        return (a,)
    return middle_points(a, b)


def near_equidistant_parts(a: int, b: int) -> tuple[int, ...]:
    """Partition b into a positive parts differing by at most one, ascending."""
    if a <= 0 or b < a:
        raise ValidationError(f"cannot split {b} into {a} positive near-equal parts")
    q, s = divmod(b, a)
    return (q,) * (a - s) + (q + 1,) * s


def h(a: int, b: int) -> Fraction:
    """Half the sum of part*(part-1) over a near-equal split of b into a parts.

    This counts the index intervals that fit strictly inside the parts; the
    closed form below equals the direct sum for every valid split.
    """
    if isinstance(a, bool) or isinstance(b, bool) or not (isinstance(a, int) and isinstance(b, int)):
        raise ValidationError(f"h needs integers, got {a!r}, {b!r}")
    if a <= 0 or b < a:
        raise ValidationError(f"need 0 < a <= b, got a={a}, b={b}")
    return Fraction(_twice_h(a, b), 2)


def _twice_h(a: int, b: int) -> int:
    q, s = divmod(b, a)
    return s * (q + 1) * q + (a - s) * q * (q - 1)


def _scale(inst: Instance) -> tuple[int, int, int]:
    """(D, X, R): x = X/D and r = R/D over D = lcm(den x, den r).  The gap
    search works on these integers, where phi and a_value are integers
    over 2D."""
    x, r = inst.x, inst.r
    d = math.lcm(x.denominator, r.denominator)
    return d, x.numerator * (d // x.denominator), r.numerator * (d // r.denominator)


def _a_scaled(n: int, m: int, xs: int, rs: int, delta: int) -> int:
    # 2D * a_value
    return (xs * (_twice_h(m, n + 1 - delta) + delta * (delta - 1))
            - 2 * rs * (delta // 2) * ((delta + 1) // 2))


def _phi_scaled(n: int, m: int, xs: int, rs: int, delta: int) -> int:
    # 2D * phi
    return ((2 * delta + 1) * (2 * xs - rs)
            - 2 * xs * ((n - delta - 1) // m + (n - delta) // m) - rs)


def a_value(inst: Instance, delta: int) -> Fraction:
    """Objective of the best structured placement whose widest gap is delta:
    x * (h(m, n + 1 - delta) + delta(delta-1)/2) - r * floor(delta/2) * ceil(delta/2)."""
    m = inst.m
    if m < 1:
        raise ValidationError("a_value needs m >= 1; the w < x case has no gap search")
    if isinstance(delta, bool) or not isinstance(delta, int) or not 1 <= delta <= inst.n + 1 - m:
        raise ValidationError(
            f"delta must be an integer in [1, {inst.n + 1 - m}], got {delta!r}"
        )
    d, xs, rs = _scale(inst)
    return Fraction(_a_scaled(inst.n, m, xs, rs, delta), 2 * d)


def phi(inst: Instance, delta: int) -> Fraction:
    """Second difference of the widest-gap objective: a_value(delta+2) - a_value(delta),
    that is (2delta+1)(x - r/2) - x(floor((n-delta-1)/m) + floor((n-delta)/m)) - r/2.

    Increasing in delta, which is what makes the parity-class bisection valid.
    """
    n, m = inst.n, inst.m
    if m < 1:
        raise ValidationError("phi needs m >= 1")
    if isinstance(delta, bool) or not isinstance(delta, int) or not 1 <= delta <= n - 1:
        raise ValidationError(f"delta must be an integer in [1, {n - 1}], got {delta!r}")
    d, xs, rs = _scale(inst)
    return Fraction(_phi_scaled(n, m, xs, rs, delta), 2 * d)


def _tau_upper(n: int, m: int) -> int:
    return -((n + 1) // -(m + 1))


def _class_candidate(n: int, m: int, xs: int, rs: int, parity: int) -> int:
    # first delta of {parity, parity+2, ..., top} with phi(delta) > 0, else top,
    # the widest feasible gap of this parity; phi(top) is never needed, as it
    # would compare with the infeasible top+2
    hi = n + 1 - m
    top = hi - (hi - parity) % 2
    k = bisect.bisect_left(
        range(parity, top, 2), True, key=lambda d: _phi_scaled(n, m, xs, rs, d) > 0
    )
    return parity + 2 * k


def delta_search(inst: Instance) -> DeltaCertificate:
    """Locate the optimal widest gap delta* for an instance with m >= 1.

    Each parity class of feasible widest gaps is bisected, whole, for its
    first positive second difference; phi is increasing, so this is exact.
    delta* is the candidate with the smaller objective (the even one on
    ties).  When r = 0 the objective's first difference is already monotone
    and delta* is ceil((n+1)/(m+1)).  Signs and comparisons are decided on
    the integers 2D * phi and 2D * a_value of `_scale`.
    """
    n, m = inst.n, inst.m
    if m < 1:
        raise ValidationError("delta_search needs m >= 1; place r at a middle point instead")
    d, xs, rs = _scale(inst)
    delta1 = _class_candidate(n, m, xs, rs, 1)
    delta2 = _class_candidate(n, m, xs, rs, 2)
    a1 = _a_scaled(n, m, xs, rs, delta1)
    a2 = _a_scaled(n, m, xs, rs, delta2)
    if rs == 0:
        delta_star = _tau_upper(n, m)
    else:
        delta_star = delta1 if a1 < a2 else delta2

    # the window (center -/+ 1) / (x(1 + 1/m) - r/2), center = r/2 + x(2n-1-m)/(2m),
    # with numerators and denominator multiplied by 2mD; the denominator is
    # positive because r < x
    denom = 2 * xs * (m + 1) - m * rs
    center = m * rs + xs * (2 * n - 1 - m)
    lo, hi = center - 2 * m * d, center + 2 * m * d
    # +2 absorbs parity rounding at the top of the window
    win_lo, win_hi = -(-lo // denom), min(hi // denom + 2, n - 1 - m)
    fallback = delta_star not in (delta1, delta2) or not all(
        win_lo <= c <= win_hi for c in (delta1, delta2)
    )
    return DeltaCertificate(
        delta1=delta1,
        delta2=delta2,
        delta_star=delta_star,
        a_delta1=Fraction(a1, 2 * d),
        a_delta2=Fraction(a2, 2 * d),
        window=(Fraction(lo, denom), Fraction(hi, denom)),
        used_fallback=fallback,
    )


def _positions_from_gaps(gaps: Sequence[int], count: int) -> tuple[int, ...]:
    return tuple(itertools.accumulate(gaps[:count]))


def _gamma_placed(inst: Instance, delta: int) -> Placement:
    """The placement (ascending nonzero entries) of `build_gamma_member`."""
    n, m, x, r = inst.n, inst.m, inst.x, inst.r
    if isinstance(delta, bool) or not isinstance(delta, int):
        raise ValidationError(f"delta must be an integer, got {delta!r}")
    if m == 0:
        if delta != n + 1:
            raise ConstructionError(f"with w < x the only valid widest gap is {n + 1}")
        return [(_stretch_middles(1, n)[0] - 1, r)]
    if not 1 <= delta <= n + 1 - m:
        raise ConstructionError(f"delta = {delta} leaves no room for {m} masses on {n} slots")
    rest = near_equidistant_parts(m, n + 1 - delta)
    if rest[-1] > delta:
        raise ConstructionError(
            f"delta = {delta} is smaller than the near-equal remainder gaps {rest}"
        )
    if r > 0 and delta < 2:
        raise ConstructionError("the widest stretch has no slot for the leftover mass")
    # the leftover sits inside the leading widest stretch, before every x
    placed = [(_stretch_middles(1, delta - 1)[0] - 1, r)] if r > 0 else []
    placed.extend((pos - 1, x) for pos in _positions_from_gaps((delta,) + rest, m))
    return placed


def build_gamma_member(inst: Instance, delta: int) -> tuple[Fraction, ...]:
    """Canonical structured vector with widest gap delta: the delta-gap first,
    the remaining gaps ascending, and the leftover mass at the smallest middle
    point of the widest stretch."""
    return _materialize(inst.n, _gamma_placed(inst, delta))


def enumerate_gamma(inst: Instance, delta: int, cap: int = 20) -> list[tuple[Fraction, ...]]:
    """Every structured vector with widest gap delta, deduplicated and in
    lexicographic order.  Bounded by ``cap`` on n to keep the output small."""
    n, m, x, r = inst.n, inst.m, inst.x, inst.r
    if n > cap:
        raise SizeCapError(f"n = {n} exceeds the enumeration cap {cap}")
    if isinstance(delta, bool) or not isinstance(delta, int) or delta < 1 or delta > n + 1:
        raise ValidationError(f"delta must be an integer in [1, {n + 1}], got {delta!r}")
    if m == 0:
        if delta != n + 1:
            return []
        out = []
        for j in _stretch_middles(1, n):
            entries = [Fraction(0)] * n
            entries[j - 1] = r
            out.append(tuple(entries))
        return sorted(set(out))

    total_rest = n + 1 - delta
    if total_rest < m:
        return []
    q, s = divmod(total_rest, m)
    if q + (1 if s else 0) > delta or (r > 0 and delta < 2):
        return []

    # a member is the widest-gap slot t plus the s slots of width q+1 among
    # the other m; the remaining gaps are q wide
    seen: set[tuple[tuple[int, ...], int]] = set()
    for t in range(m + 1):
        for longs in itertools.combinations([i for i in range(m + 1) if i != t], s):
            gaps = [q] * (m + 1)
            for i in longs:
                gaps[i] = q + 1
            gaps[t] = delta
            positions = _positions_from_gaps(gaps, m)
            boundaries = (0,) + positions + (n + 1,)
            if r > 0:
                lo, hi = boundaries[t] + 1, boundaries[t + 1] - 1
                for j in _stretch_middles(lo, hi):
                    seen.add((positions, j))
            else:
                seen.add((positions, 0))

    members = []
    for positions, j in seen:
        entries = [Fraction(0)] * n
        for pos in positions:
            entries[pos - 1] = x
        if j:
            entries[j - 1] = r
        members.append(tuple(entries))
    return sorted(set(members))


def solve_combinatorial(inst: Instance):
    """Exact minimizer over the structured placements, with its certificate."""
    from .report import PROVEN, SolveReport

    if inst.m == 0:
        placed = _gamma_placed(inst, inst.n + 1)
        return SolveReport(
            instance=inst,
            vector=_materialize(inst.n, placed),
            objective=_eval_placed(inst.n, placed, inst.x),
            status=PROVEN,
            method="combinatorial/middle-point",
        )
    cert = delta_search(inst)
    placed = _gamma_placed(inst, cert.delta_star)
    objective = _eval_placed(inst.n, placed, inst.x)
    expected = a_value(inst, cert.delta_star)
    if objective != expected:
        raise ConstructionError(
            f"built vector scores {objective}, widest-gap formula says {expected}"
        )
    return SolveReport(
        instance=inst,
        vector=_materialize(inst.n, placed),
        objective=objective,
        status=PROVEN,
        method="combinatorial/gap-profile",
        delta_cert=cert,
    )
