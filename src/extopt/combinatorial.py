"""Closed-form solver for the combinatorial minimization over structured vectors.

A candidate places m masses of size x (plus one leftover mass r) on n slots.
Writing the placement as a profile of m+1 gaps that sum to n+1, the objective
depends only on the gap multiset and on where the leftover sits inside the
widest gap.  The optimal profile is near-equidistant except for one widest
gap delta*, which is found by comparing the minimal odd and even candidates
of an exact second-difference criterion.

The gap bounds ``tau`` (a ``TauPair``) and the continuous chord ``minimum``
live here too, so the structured and continuous solvers share them;
`extopt.continuous` re-exports all three.  Every solve scores its placement
and checks it against its closed form (``_scored``); ``enumerate_gamma``
lists the structured vectors of one widest gap as plain vectors, small n only.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, SizeCapError, ValidationError
from .model import (
    Instance, Placement, _integer, _materialize, _packed, _shortfall,
)
from .model import eval_f  # noqa: F401  perfbench/tracing.py wraps it under this module
from .report import PROVEN, SolveReport


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
    _integer("a", a, 1)
    _integer("b", b, a + 1)
    return tuple(range((a + b) // 2, (a + b + 1) // 2 + 1))


def near_equidistant_parts(a: int, b: int) -> tuple[int, ...]:
    """Partition b into a positive parts differing by at most one, ascending."""
    _integer("a", a, 1)
    _integer("b", b, a)
    q, s = divmod(b, a)
    return (q,) * (a - s) + (q + 1,) * s


def h(a: int, b: int) -> Fraction:
    """Half the sum of part*(part-1) over a near-equal split of b into a parts.

    This counts the index intervals that fit strictly inside the parts; the
    closed form below equals the direct sum for every valid split.
    """
    _integer("a", a, 1)
    _integer("b", b, a)
    return Fraction(_twice_h(a, b), 2)


def _twice_h(a: int, b: int) -> int:
    q, s = divmod(b, a)
    return s * (q + 1) * q + (a - s) * q * (q - 1)


@dataclass(frozen=True)
class TauPair:
    """Ceiling and floor of (n+1)/(m+1): the widest and narrowest gaps of a
    near-equidistant placement of m masses."""

    tau_u: int
    tau_l: int


def tau(n: int, m: int) -> TauPair:
    """Gap bounds for m masses on n slots (m = 0 gives the full range n+1)."""
    _integer("n", n, 1)
    _integer("m", m, 0, n)
    q, s = divmod(n + 1, m + 1)
    return TauPair(tau_u=q + (1 if s else 0), tau_l=q)


def minimum(inst: Instance) -> Fraction:
    """The continuous minimum (1 - t)*C_m + t*C_{m+1}, t = r/x, where
    C_k = x*h(k+1, n+1) is the value of k equidistant masses of x."""
    d, xs, _, rs, _ = inst._ints
    a = _twice_h(inst.m + 1, inst.n + 1)
    b = _twice_h(inst.m + 2, inst.n + 1)
    return Fraction(xs * a + rs * (b - a), 2 * d)


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
    _integer("delta", delta, 1, inst.n + 1 - m)
    d, xs, _, rs, _ = inst._ints
    return Fraction(_a_scaled(inst.n, m, xs, rs, delta), 2 * d)


def phi(inst: Instance, delta: int) -> Fraction:
    """Second difference of the widest-gap objective: a_value(delta+2) - a_value(delta),
    that is (2delta+1)(x - r/2) - x(floor((n-delta-1)/m) + floor((n-delta)/m)) - r/2.

    Increasing in delta, which is what makes the parity-class bisection valid.
    """
    n, m = inst.n, inst.m
    if m < 1:
        raise ValidationError("phi needs m >= 1")
    _integer("delta", delta, 1, n - 1)
    d, xs, _, rs, _ = inst._ints
    return Fraction(_phi_scaled(n, m, xs, rs, delta), 2 * d)


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
    the integers 2D * phi and 2D * a_value, D the instance's common
    denominator (``Instance._ints``).
    """
    n, m = inst.n, inst.m
    if m < 1:
        raise ValidationError("delta_search needs m >= 1; place r at a middle point instead")
    d, xs, _, rs, _ = inst._ints
    delta1 = _class_candidate(n, m, xs, rs, 1)
    delta2 = _class_candidate(n, m, xs, rs, 2)
    a1 = _a_scaled(n, m, xs, rs, delta1)
    a2 = _a_scaled(n, m, xs, rs, delta2)
    if rs == 0:
        delta_star = tau(n, m).tau_u
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


def _gamma_placed(inst: Instance, delta: int) -> Placement:
    """The `Placement` of `build_gamma_member`: values (r, x) when r > 0,
    else (x,), the leftover first and then the m x-masses, whose gaps after
    the first make two runs, the short gaps and the long ones."""
    n, m, x, r = inst.n, inst.m, inst.x, inst.r
    _integer("delta", delta, 1)
    if m == 0:
        if delta != n + 1:
            raise ConstructionError(f"with w < x the only valid widest gap is {n + 1}")
        return (((((n - 1) // 2, 0),), 1),), (r,)  # the smallest middle point of the n slots
    if delta > n + 1 - m:
        raise ConstructionError(f"delta = {delta} leaves no room for {m} masses on {n} slots")
    q, s = divmod(n + 1 - delta, m)  # the m gaps besides the widest, near-equal
    if q + (s > 0) > delta:
        raise ConstructionError(
            f"delta = {delta} is smaller than the near-equal remainder gaps "
            f"{near_equidistant_parts(m, n + 1 - delta)}"
        )
    if r > 0 and delta < 2:
        raise ConstructionError("the widest stretch has no slot for the leftover mass")
    # the x-masses end the first m gaps: the widest, then the first m - 1 of
    # the remainder gaps, the m - s of width q before the s of width q + 1
    short = min(m - 1, m - s)
    if r == 0:
        code, values, lead = 0, (x,), ((delta - 1, 0),)
    else:
        # the leftover sits at the smallest middle point of the leading
        # widest stretch, slots 1..delta-1, before every x
        j = (delta - 2) // 2
        code, values, lead = 1, (r, x), ((j, 0), (delta - 2 - j, 1))
    return _packed([(lead, 1), (((q - 1, code),), short), (((q, code),), m - 1 - short)]), values


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
    _integer("delta", delta, 1, n + 1)
    rest = n + 1 - delta  # the width of the m gaps besides the widest
    if rest < m or (rest and not m):
        return []
    q, s = divmod(rest, m) if m else (0, 0)
    if q + (1 if s else 0) > delta or (r > 0 and delta < 2):
        return []

    # a member is the widest-gap slot t plus the s slots of width q+1 among
    # the other m; the remaining gaps are q wide.  With m = 0 the one gap is
    # the whole stretch.  When r > 0 the leftover sits at a middle point of
    # the widest stretch, or at its one slot
    zero = Fraction(0)
    members: set[tuple[Fraction, ...]] = set()
    for t in range(m + 1):
        for longs in itertools.combinations([i for i in range(m + 1) if i != t], s):
            gaps = [q] * (m + 1)
            for i in longs:
                gaps[i] = q + 1
            gaps[t] = delta
            boundaries = list(itertools.accumulate(gaps, initial=0))  # 0, ..., n + 1
            vec = [zero] * n
            for pos in boundaries[1:-1]:
                vec[pos - 1] = x
            if r == 0:
                members.add(tuple(vec))
                continue
            lo, hi = boundaries[t] + 1, boundaries[t + 1] - 1
            for j in middle_points(lo, hi) if lo < hi else (lo,):
                vec[j - 1] = r
                members.add(tuple(vec))
                vec[j - 1] = zero
    return sorted(members)


def _scored(inst: Instance, placed: Placement, expected: Fraction) -> Fraction:
    """The objective of ``placed``, checked against its closed form ``expected``.

    The placement's values are the instance's own x, r and y objects, so
    it is scored on the instance's integers (`Instance._ints`), each value
    looked up by identity: at r = x/2, y and r are equal values held as
    distinct objects, and each finds its own, equal, integer.
    """
    denom, xs, _, rs, ys = inst._ints
    scaled = {id(inst.x): xs, id(inst.r): rs, id(inst.y): ys}
    runs, values = placed
    objective = Fraction(_shortfall(inst.n, runs, [scaled[id(value)] for value in values], xs),
                         denom)
    if objective != expected:
        raise ConstructionError(
            f"built placement scores {objective}, the closed form says {expected}"
        )
    return objective


def solve_combinatorial(inst: Instance) -> SolveReport:
    """Exact minimizer over the structured placements, with its certificate.

    With m = 0 the leftover sits at the middle of the n slots: the intervals
    that hold it fall short by x - r and all others by x.  Otherwise the
    closed form is the chosen candidate's value from `delta_search`, or
    `a_value` when r = 0 puts delta* at neither candidate.
    """
    n = inst.n
    if inst.m == 0:
        cert, delta_star = None, n + 1
        half = (n + 1) // 2
        d, xs, _, rs, _ = inst._ints
        expected = Fraction(xs * n * (n + 1) - 2 * rs * half * (n + 1 - half), 2 * d)
    else:
        cert = delta_search(inst)
        delta_star = cert.delta_star
        if delta_star == cert.delta1:
            expected = cert.a_delta1
        elif delta_star == cert.delta2:
            expected = cert.a_delta2
        else:
            expected = a_value(inst, delta_star)
    placed = _gamma_placed(inst, delta_star)
    return SolveReport(
        instance=inst,
        placed=placed,
        objective=_scored(inst, placed, expected),
        status=PROVEN,
        method="combinatorial/middle-point" if cert is None else "combinatorial/gap-profile",
        delta_star=delta_star,
        delta_cert=cert,
    )
