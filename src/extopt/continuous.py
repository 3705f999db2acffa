"""Closed-form solvers for the continuous minimization over the simplex slab.

When the budget is an exact multiple of x the optimum spreads the masses
near-equidistantly.  Otherwise the budget splits into a y-layer (m masses of
y = x - r) and an r-layer (m+1 masses of r) whose gap profiles interleave;
the superposition is provably optimal when the two layers share a gap bound
and conjecturally optimal in general.  Reports carry an explicit
PROVEN/CONJECTURED status so the two cases are never conflated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorial import _gamma_placed, near_equidistant_parts
from .combinatorial import build_gamma_member  # noqa: F401  wrapped here by perfbench/tracing.py
from .errors import ConstructionError, ValidationError
from .model import Instance, _eval_placed, _materialize
from .model import eval_f  # noqa: F401  wrapped here by perfbench/tracing.py
from .report import CONJECTURED, PROVEN, SolveReport


@dataclass(frozen=True)
class TauPair:
    """Ceiling and floor of (n+1)/(m+1): the widest and narrowest gaps of a
    near-equidistant placement of m masses."""

    tau_u: int
    tau_l: int


@dataclass(frozen=True)
class DuoSolution:
    """Two-layer construction: m masses of y on gap profile ``gap_y`` (the
    smallest strictly interleaving one, else the canonical one) plus m+1
    masses of r on the canonical gap profile ``gap_r``.  ``placed`` holds
    the nonzero entries of their sum as ascending (index, value) pairs; the
    sum as an n-vector, ``combined``, is built from it on first access, and
    the layers as n-vectors, ``v_y`` and ``v_r``, from the gap profiles on
    each access."""

    y: Fraction
    r: Fraction
    gap_y: tuple[int, ...]
    gap_r: tuple[int, ...]
    placed: tuple[tuple[int, Fraction], ...]

    @property
    def n(self) -> int:
        return sum(self.gap_r) - 1

    @functools.cached_property
    def combined(self) -> tuple[Fraction, ...]:
        return _materialize(self.n, self.placed)

    @property
    def v_y(self) -> tuple[Fraction, ...]:
        return self._layer(self.gap_y, self.y)

    @property
    def v_r(self) -> tuple[Fraction, ...]:
        return self._layer(self.gap_r, self.r)

    def _layer(self, gaps: tuple[int, ...], value: Fraction) -> tuple[Fraction, ...]:
        # a mass ends every gap but the last, at 1-based slot positions
        positions = itertools.accumulate(gaps[:-1])
        return _materialize(self.n, [(pos - 1, value) for pos in positions])


def tau(n: int, m: int) -> TauPair:
    """Gap bounds for m masses on n slots (m = 0 gives the full range n+1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m <= n:
        raise ValidationError(f"m must be an integer in [0, {n}], got {m!r}")
    q, s = divmod(n + 1, m + 1)
    return TauPair(tau_u=q + (1 if s else 0), tau_l=q)


def closed_form_objective(inst: Instance, tau_u: int) -> Fraction:
    """Optimal value (tau_u - 1) * (x*(n+1) - (w+x)*tau_u/2) of the proven cases."""
    return (tau_u - 1) * (inst.x * (inst.n + 1) - Fraction(inst.w + inst.x, 2) * tau_u)


def solve_continuous_integer(inst: Instance) -> SolveReport:
    """Continuous optimum when w = m*x exactly: a near-equidistant placement."""
    if inst.r != 0:
        raise ValidationError(
            "w is not an exact multiple of x; use solve_continuous for the general case"
        )
    pair = tau(inst.n, inst.m)
    placed = tuple(_gamma_placed(inst, pair.tau_u))
    objective = _eval_placed(inst.n, placed, inst.x)
    expected = closed_form_objective(inst, pair.tau_u)
    if objective != expected:
        raise ConstructionError(
            f"equidistant vector scores {objective}, closed form says {expected}"
        )
    return SolveReport(
        instance=inst,
        placed=placed,
        objective=objective,
        status=PROVEN,
        method="continuous/equidistant",
        tau_main=pair,
        tau_next=tau(inst.n, inst.m + 1),
    )


def canonical_gap_profiles(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gap profiles of the two layers, short gaps first.

    The y-layer takes m+1 gaps from {d, d+1} with d = floor((n+1)/(m+1)); the
    r-layer takes m+2 gaps one level finer.  Ordered this way the partial
    sums interleave: every y-layer prefix sum lies between consecutive
    r-layer prefix sums.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m < n:
        raise ValidationError(f"m must be an integer in [0, {n - 1}], got {m!r}")
    return near_equidistant_parts(m + 1, n + 1), near_equidistant_parts(m + 2, n + 1)


def satisfies_interleaving(gaps_y: tuple[int, ...], gaps_r: tuple[int, ...]) -> bool:
    """Check the partial-sum condition: r-prefix <= y-prefix <= next r-prefix."""
    sums_y = list(itertools.accumulate(gaps_y))
    sums_r = list(itertools.accumulate(gaps_r))
    if len(sums_r) != len(sums_y) + 1:
        return False
    for idx, sy in enumerate(sums_y):
        if not (sums_r[idx] <= sy <= sums_r[idx + 1]):
            return False
    return True


def _y_positions(n: int, dy: int, r_positions: tuple[int, ...]) -> list[int] | None:
    """Smallest positions of the m = len(r_positions) - 1 y-layer masses such
    that mass k lies strictly between r-layer masses k and k+1 and each gap
    (from position 0, between masses, and to position n+1) is dy or dy+1.
    Returns None when no placement fits.

    The positions from which the rest of the layer still fits form an
    integer interval per mass; a backward sweep tightens them, and a forward
    sweep takes the smallest admissible position of each mass in turn, which
    gives the lexicographically smallest gap sequence.
    """
    m = len(r_positions) - 1
    lows = [0] * m
    lo = hi = n + 1
    for k in range(m - 1, -1, -1):
        lo = max(lo - dy - 1, r_positions[k] + 1)
        hi = min(hi - dy, r_positions[k + 1] - 1)
        if lo > hi:
            return None
        lows[k] = lo
    if not lo - dy - 1 <= 0 <= hi - dy:
        return None
    positions = []
    pos = 0
    for low in lows:
        pos = max(pos + dy, low)
        positions.append(pos)
    return positions


def build_duo(inst: Instance) -> DuoSolution:
    """Superpose the y-layer and the r-layer on near-equidistant gaps.

    The r-layer keeps the canonical short-gaps-first profile.  Each y-layer
    mass takes the smallest position that keeps it strictly between its two
    r-layer neighbours with every gap in {dy, dy+1} (``_y_positions``): the
    lexicographically smallest strictly interleaving arrangement, with no
    shared slots.  When none exists the y-layer takes the canonical profile,
    which interleaves weakly: a collision stacks y + r = x on one slot,
    still within bounds.  In the CONJECTURED regime the two canonical
    profiles interleave strictly (checked for n < 700).
    """
    n, m, x = inst.n, inst.m, inst.x
    r, y = inst.r, inst.y
    if r == 0:
        raise ValidationError("no leftover mass; use solve_continuous_integer")
    gaps_y_canon, gaps_r = canonical_gap_profiles(n, m)
    r_positions = tuple(itertools.accumulate(gaps_r[: m + 1]))
    y_at = _y_positions(n, gaps_y_canon[0], r_positions)
    if y_at is None:
        y_at = list(itertools.accumulate(gaps_y_canon[:m]))
    both = set(y_at).intersection(r_positions)
    yr = y + r
    placed = tuple(sorted(
        [(pos - 1, y) for pos in y_at if pos not in both]
        + [(pos - 1, yr if pos in both else r) for pos in r_positions]
    ))
    # the checks need only the three slot values and how many slots hold
    # each, counted by position: y == r when r = x/2
    slots = ((y, m - len(both)), (r, m + 1 - len(both)), (yr, len(both)))
    if any(value > x for value, count in slots if count):
        combined = list(_materialize(n, placed))
        raise ConstructionError(f"layer overlap pushed an entry above x in {combined}")
    if sum(value * count for value, count in slots) != inst.w:
        raise ConstructionError("combined layers do not use the whole budget")
    return DuoSolution(
        y=y,
        r=r,
        gap_y=tuple(b - a for a, b in itertools.pairwise([0, *y_at, n + 1])),
        gap_r=tuple(gaps_r),
        placed=placed,
    )


def solve_continuous(inst: Instance) -> SolveReport:
    """Continuous minimizer with an explicit optimality status.

    r = 0 dispatches to the equidistant construction (proven).  Otherwise the
    duo construction is returned: proven optimal when the two layers share a
    gap bound (equal tau_u or equal tau_l), conjectured optimal otherwise.
    """
    if inst.r == 0:
        return solve_continuous_integer(inst)
    t1 = tau(inst.n, inst.m)
    t2 = tau(inst.n, inst.m + 1)
    duo = build_duo(inst)
    objective = _eval_placed(inst.n, duo.placed, inst.x)
    proven = t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l
    if proven:
        expected = closed_form_objective(inst, t1.tau_u)
        if objective != expected:
            raise ConstructionError(
                f"duo vector scores {objective}, closed form says {expected}"
            )
    return SolveReport(
        instance=inst,
        placed=duo.placed,
        objective=objective,
        status=PROVEN if proven else CONJECTURED,
        method="continuous/duo-equidistant",
        tau_main=t1,
        tau_next=t2,
    )
