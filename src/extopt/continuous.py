"""Closed-form solvers for the continuous minimization over the simplex slab.

When the budget is an exact multiple of x the optimum spreads the masses
near-equidistantly.  Otherwise the budget splits into a y-layer (m masses of
y = x - r) and an r-layer (m+1 masses of r) whose gap profiles interleave;
the superposition is provably optimal when the two layers share a gap bound
and conjecturally optimal in general.  Reports carry an explicit
PROVEN/CONJECTURED status so the two cases are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .combinatorial import build_gamma_member
from .errors import ConstructionError, ValidationError
from .model import Instance, eval_f
from .report import CONJECTURED, PROVEN, SolveReport


@dataclass(frozen=True)
class TauPair:
    """Ceiling and floor of (n+1)/(m+1): the widest and narrowest gaps of a
    near-equidistant placement of m masses."""

    tau_u: int
    tau_l: int


@dataclass(frozen=True)
class DuoSolution:
    """Two-layer construction: m masses of y on gap profile ``gap_y`` plus
    m+1 masses of r on gap profile ``gap_r``; ``combined`` is their sum."""

    v_y: tuple[Fraction, ...]
    v_r: tuple[Fraction, ...]
    combined: tuple[Fraction, ...]
    gap_y: tuple[int, ...]
    gap_r: tuple[int, ...]


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
    vector = build_gamma_member(inst, pair.tau_u)
    objective = eval_f(vector, inst.x)
    expected = closed_form_objective(inst, pair.tau_u)
    if objective != expected:
        raise ConstructionError(
            f"equidistant vector scores {objective}, closed form says {expected}"
        )
    return SolveReport(
        instance=inst,
        vector=vector,
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
    dy = tau(n, m).tau_l
    ny = (m + 1) * (1 + dy) - (n + 1)
    gaps_y = (dy,) * ny + (dy + 1,) * (m + 1 - ny)
    dz = tau(n, m + 1).tau_l
    nz = (m + 2) * (1 + dz) - (n + 1)
    gaps_r = (dz,) * nz + (dz + 1,) * (m + 2 - nz)
    return gaps_y, gaps_r


def satisfies_interleaving(gaps_y: tuple[int, ...], gaps_r: tuple[int, ...]) -> bool:
    """Check the partial-sum condition: r-prefix <= y-prefix <= next r-prefix."""
    sums_y = []
    acc = 0
    for g in gaps_y:
        acc += g
        sums_y.append(acc)
    sums_r = []
    acc = 0
    for g in gaps_r:
        acc += g
        sums_r.append(acc)
    if len(sums_r) != len(sums_y) + 1:
        return False
    for idx, sy in enumerate(sums_y):
        if not (sums_r[idx] <= sy <= sums_r[idx + 1]):
            return False
    return True


def _arrange_y_gaps(
    m: int, dy: int, ny: int, r_positions: tuple[int, ...], strict: bool
) -> tuple[int, ...] | None:
    """Lexicographically smallest arrangement of the y-gap multiset whose mass
    positions fall (strictly, if requested) between consecutive r-layer
    positions.  Returns None when no arrangement fits.

    A state is the number of short gaps among the first ``level`` gaps.  A
    forward pass collects the reachable states per level, a backward pass
    keeps those that can still finish with ny short gaps, and the walk takes
    the short gap whenever it stays on a kept state.
    """
    total_slots = m + 1

    def steps(level: int, smalls: int) -> Iterator[tuple[int, int]]:
        # admissible next gaps, short first, with the short-gap count after each
        pos_base = smalls * dy + (level - smalls) * (dy + 1)
        for g, used in ((dy, smalls + 1), (dy + 1, smalls)):
            if used > ny or (level + 1 - used) > total_slots - ny:
                continue
            # only the first m cumulative sums carry a mass
            if level < m:
                lo, hi = r_positions[level], r_positions[level + 1]
                pos = pos_base + g
                if not (lo < pos < hi if strict else lo <= pos <= hi):
                    continue
            yield g, used

    reach = [{0}]
    for level in range(total_slots):
        reach.append({used for s in reach[level] for _, used in steps(level, s)})
    alive = [set() for _ in range(total_slots)] + [reach[total_slots] & {ny}]
    for level in range(total_slots - 1, -1, -1):
        alive[level] = {
            s for s in reach[level]
            if any(used in alive[level + 1] for _, used in steps(level, s))
        }
    if 0 not in alive[0]:
        return None
    gaps: list[int] = []
    smalls = 0
    for level in range(total_slots):
        g, smalls = next((g, used) for g, used in steps(level, smalls) if used in alive[level + 1])
        gaps.append(g)
    return tuple(gaps)


def build_duo(inst: Instance) -> DuoSolution:
    """Superpose the y-layer and the r-layer on canonical gap profiles.

    The r-layer keeps the canonical short-gaps-first profile.  The y-layer
    prefers an arrangement that interleaves strictly (no shared slots); when
    none exists it falls back to the canonical weak interleaving, where a
    collision stacks y + r = x on one slot, still within bounds.
    """
    n, m, x = inst.n, inst.m, inst.x
    r, y = inst.r, inst.y
    if r == 0:
        raise ValidationError("no leftover mass; use solve_continuous_integer")
    gaps_y_canon, gaps_r = canonical_gap_profiles(n, m)
    r_positions = []
    acc = 0
    for g in gaps_r[: m + 1]:
        acc += g
        r_positions.append(acc)
    r_positions_t = tuple(r_positions) + (n + 1,)

    dy = tau(n, m).tau_l
    ny = (m + 1) * (1 + dy) - (n + 1)
    gaps_y = _arrange_y_gaps(m, dy, ny, r_positions_t, strict=True)
    if gaps_y is None:
        gaps_y = _arrange_y_gaps(m, dy, ny, r_positions_t, strict=False)
    if gaps_y is None:  # pragma: no cover - weak interleaving always exists
        gaps_y = gaps_y_canon

    # only the 2m+1 mass positions are nonzero, so the checks below look at
    # those alone
    touched = set()
    v_y = [Fraction(0)] * n
    acc = 0
    for g in gaps_y[:m]:
        acc += g
        v_y[acc - 1] = y
        touched.add(acc - 1)
    v_r = [Fraction(0)] * n
    combined = list(v_y)
    for pos in r_positions:
        v_r[pos - 1] = r
        combined[pos - 1] += r
        touched.add(pos - 1)
    if any(combined[i] > x for i in touched):
        raise ConstructionError(f"layer overlap pushed an entry above x in {combined}")
    if sum((combined[i] for i in touched), Fraction(0)) != inst.w:
        raise ConstructionError("combined layers do not use the whole budget")
    return DuoSolution(
        v_y=tuple(v_y),
        v_r=tuple(v_r),
        combined=tuple(combined),
        gap_y=tuple(gaps_y),
        gap_r=tuple(gaps_r),
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
    objective = eval_f(duo.combined, inst.x)
    proven = t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l
    if proven:
        expected = closed_form_objective(inst, t1.tau_u)
        if objective != expected:
            raise ConstructionError(
                f"duo vector scores {objective}, closed form says {expected}"
            )
    return SolveReport(
        instance=inst,
        vector=duo.combined,
        objective=objective,
        status=PROVEN if proven else CONJECTURED,
        method="continuous/duo-equidistant",
        tau_main=t1,
        tau_next=t2,
        duo=duo,
    )
