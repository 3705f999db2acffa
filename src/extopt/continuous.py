"""Closed-form solvers for the continuous minimization over the simplex slab.

When the budget is an exact multiple of x the optimum spreads the masses
near-equidistantly.  Otherwise the budget w = m*x + r is the two canonical
near-equidistant layers added together: m masses of y = x - r and m+1
masses of r.  With t = r/x this is (1 - t)*E_m + t*E_{m+1}, E_k the
equidistant optimum at budget k*x, and it attains the chord between their
values, which is the minimum (the theorem in README "Oracles").  The duo
is built as its placement, the nonzero entries alone, and every solve
checks its objective against that chord (``minimum``).  Reports carry
the paper's PROVEN/CONJECTURED status: PROVEN when r = 0 or where the two
layers share a gap bound.

``tau``, ``TauPair`` and ``minimum`` are defined in `extopt.combinatorial`
and re-exported here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinatorial import _gamma_placed, _scored, minimum, near_equidistant_parts, tau
from .combinatorial import TauPair  # noqa: F401  re-exported as extopt.continuous.TauPair
from .combinatorial import build_gamma_member  # noqa: F401  wrapped here by perfbench/tracing.py
from .errors import ConstructionError, ValidationError
from .model import Instance, _integer
from .model import eval_f  # noqa: F401  wrapped here by perfbench/tracing.py
from .report import CONJECTURED, PROVEN, SolveReport


def closed_form_objective(inst: Instance, tau_u: int) -> Fraction:
    """Optimal value (tau_u - 1) * (x*(n+1) - (w+x)*tau_u/2) of the proven cases."""
    return (tau_u - 1) * (inst.x * (inst.n + 1) - Fraction(inst.w + inst.x, 2) * tau_u)


def solve_continuous_integer(inst: Instance) -> SolveReport:
    """Continuous optimum when w = m*x exactly: a near-equidistant placement."""
    if inst.r != 0:
        raise ValidationError(
            "w is not an exact multiple of x; use solve_continuous for the general case"
        )
    return solve_continuous(inst)


def canonical_gap_profiles(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gap profiles of the two layers, short gaps first.

    The y-layer takes m+1 gaps from {d, d+1} with d = floor((n+1)/(m+1)); the
    r-layer takes m+2 gaps one level finer.  Ordered this way the partial
    sums interleave: every y-layer prefix sum lies between consecutive
    r-layer prefix sums.
    """
    _integer("n", n, 1)
    _integer("m", m, 0, n - 1)
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


def build_duo(inst: Instance) -> tuple[tuple[int, Fraction], ...]:
    """The two canonical layers added together, as ascending (index, value)
    pairs: m masses of y at the prefix sums of the y-layer profile and m+1
    masses of r at those of the r-layer profile (``canonical_gap_profiles``).
    A slot in both layers holds y + r = x, still within bounds.  The sum is
    (1 - t)*E_m + t*E_{m+1} with t = r/x, where E_k is the equidistant
    optimum at budget k*x, so it lies on the chord ``minimum`` whether or
    not the layers interleave.
    """
    n, m, x = inst.n, inst.m, inst.x
    r, y = inst.r, inst.y
    if r == 0:
        raise ValidationError("no leftover mass; use solve_continuous_integer")
    gaps_y, gaps_r = canonical_gap_profiles(n, m)
    y_at = tuple(itertools.accumulate(gaps_y[:m]))
    r_at = tuple(itertools.accumulate(gaps_r[: m + 1]))
    both = set(y_at).intersection(r_at)
    yr = y + r
    placed = tuple(sorted(
        [(pos - 1, y) for pos in y_at if pos not in both]
        + [(pos - 1, yr if pos in both else r) for pos in r_at]
    ))
    # the checks need only the three slot values and how many slots hold
    # each, counted by position: y == r when r = x/2
    slots = ((y, m - len(both)), (r, m + 1 - len(both)), (yr, len(both)))
    if any(value > x for value, count in slots if count):
        above = [idx for idx, value in placed if value > x]
        raise ConstructionError(f"layer overlap pushed the entries at slots {above} above x")
    if sum(value * count for value, count in slots) != inst.w:
        raise ConstructionError("combined layers do not use the whole budget")
    return placed


def solve_continuous(inst: Instance) -> SolveReport:
    """Continuous minimizer with an explicit optimality status.

    r = 0 gives the equidistant placement, PROVEN.  Otherwise the duo
    construction is returned: PROVEN when the two layers share a gap bound
    (equal tau_u or equal tau_l), CONJECTURED otherwise.  Either is checked
    against the chord ``minimum``.
    """
    t1 = tau(inst.n, inst.m)
    t2 = tau(inst.n, inst.m + 1)
    exact = inst.r == 0
    placed = tuple(_gamma_placed(inst, t1.tau_u)) if exact else build_duo(inst)
    return SolveReport(
        instance=inst,
        placed=placed,
        objective=_scored(inst, placed, minimum(inst)),
        status=PROVEN if exact or t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l else CONJECTURED,
        method="continuous/equidistant" if exact else "continuous/duo-equidistant",
        tau_main=t1,
        tau_next=t2,
    )
