"""Closed-form solvers for the continuous minimization over the simplex slab.

When the budget is an exact multiple of x the optimum spreads the masses
near-equidistantly.  Otherwise the budget w = m*x + r is the two canonical
near-equidistant layers added together: m masses of y = x - r and m+1
masses of r.  With t = r/x this is (1 - t)*E_m + t*E_{m+1}, E_k the
equidistant optimum at budget k*x, and it attains the chord between their
values, which is the minimum (the theorem in README "Oracles").  The duo
is built as its `model.Placement`, a few runs of a repeated unit, in
O(runs) whatever n and m, and every solve checks its objective against
that chord (``minimum``).  Reports carry the paper's PROVEN/CONJECTURED status:
PROVEN when r = 0 or where the two layers share a gap bound.

``tau``, ``TauPair`` and ``minimum`` are defined in `extopt.combinatorial`
and re-exported here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinatorial import _gamma_placed, _scored, minimum, near_equidistant_parts, tau
from .combinatorial import TauPair  # noqa: F401  re-exported as extopt.continuous.TauPair
from .combinatorial import build_gamma_member  # noqa: F401  wrapped here by perfbench/tracing.py
from .errors import ValidationError
from .model import Instance, Placement, _integer, _packed
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
    (y, r, x): m masses of y at the prefix sums of the y-layer profile and
    m+1 masses of r at those of the r-layer profile
    (``canonical_gap_profiles``).  A slot in both layers holds y + r, the
    instance's x, still within bounds.  The sum is (1 - t)*E_m + t*E_{m+1}
    with t = r/x, where E_k is the equidistant optimum at budget k*x, so it
    lies on the chord ``minimum`` whether or not the layers interleave
    strictly.

    With (q, s) = divmod(n + 1, k + 1), a layer of k masses puts mass i
    (0-based) at slot (i + 1)*q + max(0, i + 1 - (k + 1 - s)) - 1.  The
    layers interleave weakly: y slot i lies between r slots i and i+1 (the
    i smallest of m+2 near-equal parts sum to no more than the i smallest
    of m+1, and the largest likewise).  So the slots r_0, y_0, r_1, ...,
    y_{m-1}, r_m ascend, and a shared slot is two equal neighbours.  Index
    i contributes the tokens of y_i and of r_i unless r_i is y_{i-1}, and
    these depend only on the gaps g(i-1), f(i), g(i), where
    f(i) = y_i - r_i >= 0 and g(i) = r_{i+1} - y_i >= 0.

    The steps of r_i and y_i change once each, so f and g are linear
    between neighbouring nodes, the ends 0 and m - 1 and the indices where
    a step that f or g reads changes.  If the r-step changes on a piece
    a..b (neighbouring nodes), the piece is one index, as both indices
    around that change are nodes.  Otherwise f + g = r_{i+1} - r_i is that
    step on the piece, so f and g are constant together.  Where f is the
    same at both ends it is constant, and indices a+1..b contribute one
    unit: one run of count b - a, a 2-mass (r, y) unit, or a 1-mass y + r
    unit where a gap is 0.  On any other piece f is not constant, and then
    the piece is short: a linear integer function that is not constant
    moves by at least 1 per index, and f stays in [0, q_r + 1],
    q_r = (n+1) // (m+2), so b - a <= q_r + 1.  So such a piece adds at most
    min(m, (n+1)/(m+2) + 1) indices, written token by token, and the
    placement is built in O(runs) whatever n and m.

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
    q_y, s_y = divmod(n + 1, m + 1)
    q_r, s_r = divmod(n + 1, m + 2)
    cy, cr = m + 1 - s_y, m + 2 - s_r

    def around(i: int) -> tuple[int, int, int, int]:
        # the slots y_{i-1}, r_i, y_i, r_{i+1}; y_{-1} is slot -1
        y_at = i * q_y - 1 + (i - cy if i > cy else 0)
        r_at = (i + 1) * q_r - 1 + (i + 1 - cr if i >= cr else 0)
        return (y_at, r_at, y_at + q_y + (i >= cy), r_at + q_r + (i + 1 >= cr))

    def unit(y_last: int, r_i: int, y_i: int, r_next: int) -> tuple[tuple[int, int], ...]:
        # the tokens of index i; codes 0, 1, 2 for y, r, y + r, and r_i is
        # left out when it is y_{i-1}
        if r_i == y_i:
            return ((r_i - y_last - 1, 2),)
        return ((r_i - y_last - 1, 1),) * (r_i > y_last) + ((y_i - r_i - 1, 0 if r_next > y_i else 2),)

    # the y-step grows after index m - s_y, the r-step after m + 1 - s_r;
    # g reads the r-step one index later
    nodes = sorted(i for i in {0, m - 1, m - s_y, m + 1 - s_r, m - s_r} if 0 <= i < m)
    ends = [around(i) for i in nodes]
    pieces = [(unit(*ends[0]), 1)] if m else []
    for a, b, (_, ra, ya, _), end in zip(nodes, nodes[1:], ends, ends[1:]):
        if ya - ra == end[2] - end[1]:  # f, and so g, constant on a..b
            pieces.append((unit(*end), b - a))
        else:
            pieces += [(unit(*around(i)), 1) for i in range(a + 1, b + 1)]
    y_last, r_m, _, _ = around(m)
    pieces.append((((r_m - y_last - 1, 1),), int(r_m > y_last)))
    return _packed(pieces), (y, r, inst.x)


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
