"""Closed-form solvers for the continuous minimization over the simplex slab.

When the budget is an exact multiple of x the optimum spreads the masses
near-equidistantly.  Otherwise the budget w = m*x + r is the two canonical
near-equidistant layers added together: m masses of y = x - r and m+1
masses of r.  With t = r/x this is (1 - t)*E_m + t*E_{m+1}, E_k the
equidistant optimum at budget k*x, and it attains the chord between their
values, which is the minimum (the theorem in README "Oracles").  The duo
is built as its `model.Placement`, the nonzero entries alone, in O(m)
whatever n, and every solve checks its objective against that chord
(``minimum``).  Reports carry the paper's PROVEN/CONJECTURED status:
PROVEN when r = 0 or where the two layers share a gap bound.

``tau``, ``TauPair`` and ``minimum`` are defined in `extopt.combinatorial`
and re-exported here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinatorial import (
    _gamma_placed, _part_ends, _scored, minimum, near_equidistant_parts, tau,
)
from .combinatorial import TauPair  # noqa: F401  re-exported as extopt.continuous.TauPair
from .combinatorial import build_gamma_member  # noqa: F401  wrapped here by perfbench/tracing.py
from .errors import ValidationError
from .model import Instance, Placement, _integer
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


def build_duo(inst: Instance) -> Placement:
    """The two canonical layers added together, as a `Placement` with values
    (y, r, y + r): m masses of y at the prefix sums of the y-layer profile
    and m+1 masses of r at those of the r-layer profile
    (``canonical_gap_profiles``).  A slot in both layers holds y + r = x,
    still within bounds.  The sum is (1 - t)*E_m + t*E_{m+1} with t = r/x,
    where E_k is the equidistant optimum at budget k*x, so it lies on the
    chord ``minimum`` whether or not the layers interleave strictly.

    The layers interleave weakly: y slot i lies between r slots i and i+1
    (the i smallest of m+2 near-equal parts sum to no more than the i
    smallest of m+1, and the largest likewise).  So the slots r_0, y_0,
    r_1, ..., y_{m-1}, r_m ascend, and a shared slot is two equal
    neighbours.  Both gaps y_i - r_i and r_{i+1} - y_i are nonnegative and
    piecewise linear in i, so their zeros are found at the few points where
    the layers' steps change (`_shared_runs`), and the placement is merged in
    O(m), whatever n.

    No self-check follows the merge: with b shared slots the counts of
    (y, r, y + r) are (m - b, m + 1 - b, b), so the budget is
    m*y + (m + 1)*r = w for every b, and y, r and y + r = x are at most x
    by `Instance`'s construction.  A merge fault would move or merge slots
    without changing either quantity; `_scored`'s exact comparison with the
    chord is what judges the placement.
    """
    n, m = inst.n, inst.m
    r, y = inst.r, inst.y
    if r == 0:
        raise ValidationError("no leftover mass; use solve_continuous_integer")
    # 0-based slots, the running sums of each layer's parts less one, in
    # the order r_0, y_0, r_1, ..., y_{m-1}, r_m
    y_short, y_long = _part_ends(m + 1, n + 1, -1)
    r_short, r_long = _part_ends(m + 2, n + 1, -1)
    slots = [0] * (2 * m + 1)
    slots[::2] = [*r_short, *r_long]
    slots[1::2] = [*y_short, *y_long]
    # each slot's code into (y, r, y + r), or 3 for a slot that is the one before it
    kinds = bytearray(b"\1\0" * m + b"\1")
    # slot 2i + offset against the next: y_i - r_i (offset 0) and
    # r_{i+1} - y_i (offset 1) change slope only where y_i, r_i or r_{i+1}
    # changes step, after the last short part of its layer
    y_bend, r_bend = len(y_short) - 1, len(r_short) - 1
    nodes = sorted(i for i in {0, m - 1, y_bend, r_bend, r_bend - 1} if 0 <= i < m)
    for offset in (0, 1):
        for a, b in _shared_runs(slots, offset, nodes):
            kinds[2 * a + offset:2 * b + offset + 1:2] = b"\2" * (b - a + 1)
            kinds[2 * a + offset + 1:2 * b + offset + 2:2] = b"\3" * (b - a + 1)
    return (tuple(itertools.compress(slots, kinds.translate(_KEPT))), (y, r, y + r),
            tuple(kinds.translate(None, b"\3")))


# selects the slots whose kind (in `build_duo`) is not 3
_KEPT = bytes([1, 1, 1, 0]) + bytes(252)


def _shared_runs(slots: list[int], offset: int, nodes: list[int]) -> list[tuple[int, int]]:
    """The runs (a, b) of ascending ``nodes`` such that slot 2i + offset
    equals the next slot for every i from node a through node b.  The gap
    between the two is nonnegative and linear in i between neighbouring
    nodes, so it vanishes on a whole piece when it vanishes at both ends,
    and otherwise at most at an end."""
    runs: list[tuple[int, int]] = []
    previous = None
    for k in nodes:
        if slots[2 * k + offset] == slots[2 * k + offset + 1]:
            if runs and runs[-1][1] == previous:
                runs[-1] = (runs[-1][0], k)
            else:
                runs.append((k, k))
        previous = k
    return runs


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
    placed = _gamma_placed(inst, t1.tau_u) if exact else build_duo(inst)
    return SolveReport(
        instance=inst,
        placed=placed,
        objective=_scored(inst, placed, minimum(inst)),
        status=PROVEN if exact or t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l else CONJECTURED,
        method="continuous/equidistant" if exact else "continuous/duo-equidistant",
        tau_main=t1,
        tau_next=t2,
    )
