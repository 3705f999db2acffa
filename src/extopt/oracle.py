"""Independent ground-truth engines for the closed-form solvers.

Besides the exact LP dual certificate of `extopt.certificate`, three oracles
that share no code with the gap-profile formulas:

* exhaustive enumeration of the structured placements (exact, scaled ints),
* an exact lattice search over compositions of the budget,
* a floating-point projected subgradient method over the simplex slab.

`verify_conjecture` proves the duo construction optimal by the dual
certificate alone, checked in exact integers; floats never decide.  Its
one outcome is CONFIRMED: the construction attains the minimum on every
instance, so a missing or rejected certificate is a failed self-check.
The lattice and subgradient oracles stay available as independent
references.  Only the subgradient oracle uses numpy, which it imports on
first use, so the exact paths never load it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .certificate import DualCertificate, _check, _greedy_certificate
from .continuous import solve_continuous
from .errors import ConstructionError, SizeCapError, ValidationError
from .model import Instance, _common, _grouped, _integer, _prefix, _scaled, _shortfall
from .model import eval_f  # noqa: F401  perfbench/tracing.py wraps it under this module
from .report import CONFIRMED, SolveReport

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SubgradientConfig:
    """Knobs of the projected subgradient oracle.

    ``max_iters`` is the total iteration budget across restarts.  The base
    step is w/sqrt(k) for the budget w; the scale decays geometrically
    between warm-restarted stages so the final sweeps resolve the optimum to
    float precision.  A restart counts as converged when its best value has
    not improved by more than 1e-7 for 1000 consecutive iterations at the
    finest scale.
    """

    max_iters: int = 200_000
    seed: int = 0
    restarts: int = 8


@dataclass(frozen=True)
class SubgradientResult:
    point: tuple[float, ...]
    value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class VerifyReport:
    """The duo construction proved optimal by the dual certificate.

    ``construction`` is the solve of the duo vector that was checked, and
    ``oracle_value`` the lower bound that the exact checker accepted for
    ``certificate``; it equals the construction's objective.  ``status`` is
    always CONFIRMED.
    """

    instance: Instance
    construction: SolveReport
    status: str
    oracle_value: Fraction
    certificate: DualCertificate

    @property
    def constructed_objective(self) -> Fraction:
        return self.construction.objective

    @property
    def oracle_objective(self) -> float:
        return float(self.oracle_value)

    @property
    def gap(self) -> float:
        return float(self.oracle_value - self.constructed_objective)

    @property
    def converged(self) -> bool:
        """Always true: the status rests on exact evidence."""
        return True


def brute_force_combinatorial(
    inst: Instance, cap: int = 5_000_000
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exhaustive minimum over all structured placements.

    Enumerates every choice of positions for the m full masses and, when
    r > 0, every remaining slot for the leftover.  Returns the exact minimum
    and its lexicographically smallest minimizer.
    """
    n, m = inst.n, inst.m
    cost = math.comb(n, m) * n
    if cost > cap:
        raise SizeCapError(f"{cost} candidate evaluations exceed the cap {cap}")
    denom, x_s, _, r_s, _ = inst._ints

    def placements() -> Iterator[tuple[int, ...]]:
        for combo in itertools.combinations(range(n), m):
            base = [0] * n
            for pos in combo:
                base[pos] = x_s
            if not r_s:
                yield tuple(base)
                continue
            for j in range(n):
                if base[j] == 0:
                    base[j] = r_s
                    yield tuple(base)
                    base[j] = 0

    def value(vals: tuple[int, ...]) -> int:
        # each mass is its own code: the one at index i is vals[i]
        at = list(itertools.compress(range(n), vals))
        return _shortfall(n, _grouped(at, at), vals, x_s)

    best = min(placements(), key=lambda vals: (value(vals), vals))
    vector = tuple(Fraction(v, denom) for v in best)
    return vector, Fraction(value(best), denom)


def grid_search(
    inst: Instance, resolution: int, cap: int = 10_000_000
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact minimum over the lattice of budget compositions in steps of
    w/resolution.  An upper bound on the continuous minimum; tight whenever
    the optimum lies on the lattice.

    A depth-first branch and bound over the compositions in lexicographic
    order.  Fixing part d adds the shortfall of the intervals that end after
    it; every term is nonnegative, so a prefix whose partial sum reaches the
    best value so far is pruned, and ties go to the lexicographically first
    minimizer.  ``cap`` bounds the size of the whole lattice.
    """
    _integer("resolution", resolution, 1)
    n = inst.n
    points = math.comb(resolution + n - 1, n - 1)
    if points > cap:
        raise SizeCapError(f"{points} lattice points exceed the cap {cap}")
    step = inst.w / resolution
    denom, (x_s, u_s) = _common(inst.x, step)

    # the current path: parts[:d] are fixed, prefix[:d+1] their scaled prefix
    # sums, acc[k] = prefix[0] + ... + prefix[k-1] and partial[d] the
    # shortfall of the intervals inside the first d parts
    parts = [0] * n
    prefix = [0] * (n + 1)
    acc = [0] * (n + 2)
    partial = [0] * (n + 1)
    best: tuple[int, ...] = ()
    best_val = math.inf
    d, c = 0, 0
    while d >= 0:
        left = resolution - prefix[d] // u_s
        if d == n - 1:
            c = left  # the last part takes the rest
        if c <= left:
            end = prefix[d] + c * u_s
            # intervals [s, d+1) are unsaturated exactly for prefix[s] > end - x
            s = bisect.bisect_right(prefix, end - x_s, 0, d + 1)
            val = partial[d] + (d + 1 - s) * (x_s - end) + acc[d + 1] - acc[s]
            if val < best_val:
                parts[d] = c
                if d == n - 1:
                    best, best_val = tuple(parts), val
                else:
                    prefix[d + 1] = end
                    acc[d + 2] = acc[d + 1] + end
                    partial[d + 1] = val
                    d, c = d + 1, 0
                    continue
            if d < n - 1:
                c += 1
                continue
        # every value of part d has been tried: back up one part
        d -= 1
        c = parts[d] + 1
    return tuple(c * step for c in best), Fraction(best_val, denom)


def subgradient(v: Iterable, x) -> tuple[Fraction, ...]:
    """Exact subgradient of the shortfall objective at a rational point.

    Each strictly unsaturated interval contributes -1 on its coordinates;
    exactly saturated intervals contribute the midpoint -1/2 of their
    subdifferential range.
    """
    _, prefix, xs, _ = _scaled(v, x)
    n = len(prefix) - 1
    # weights doubled to stay integral: 2 per unsaturated, 1 per saturated interval
    diff = [0] * (n + 1)
    for k in range(n):
        base = prefix[k]
        for end in range(k + 1, n + 1):
            s = prefix[end] - base
            if s > xs:
                break
            wgt = 1 if s == xs else 2
            diff[k] -= wgt
            diff[end] += wgt
    return tuple(Fraction(d, 2) for d in itertools.accumulate(diff[:n]))


def project_to_simplex(point: Sequence[float], total: float) -> tuple[float, ...]:
    """Euclidean projection onto {v >= 0, sum v = total} by sort and threshold."""
    if total <= 0:
        raise ValidationError(f"total mass must be positive, got {total}")
    import numpy as np

    arr = np.asarray(point, dtype=float).reshape(1, -1)
    ranks = np.arange(1, arr.shape[1] + 1)
    return tuple(float(v) for v in _project_rows(arr, float(total), ranks, np.arange(1))[0])


def _project_rows(
    points: np.ndarray, total: float, ranks: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Project each row onto {v >= 0, sum v = total}.

    ``ranks`` is 1..n and ``rows`` 0..len(points)-1, passed in so the
    descent loop builds them once.  With u sorted descending, theta_k is
    (u_1 + ... + u_k - total)/k; the threshold is theta_rho for the number
    rho of entries u_k above their theta_k.
    """
    import numpy as np

    u = np.sort(points, axis=1)[:, ::-1]
    theta = (np.add.accumulate(u, axis=1) - total) / ranks
    rho = np.add.reduce(u > theta, axis=1)
    return np.maximum(points - theta[rows, rho - 1][:, None], 0.0)


def _step_buffers(n: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index and scratch arrays of a lockstep descent over ``rows`` points.

    ``offsets`` holds flat offsets into a (rows, n+1) array: the starts of all
    intervals, then their ends, one column per row.  Interval [s, e) covers
    coordinates s..e-1 and has sum prefix[e] - prefix[s].  ``prefix`` is the
    (rows, n+1) prefix-sum buffer, its first column zero, and ``weights`` has
    one entry per offset.
    """
    import numpy as np

    starts, ends = np.triu_indices(n + 1, k=1)
    base = (n + 1) * np.arange(rows)
    offsets = np.concatenate([starts, ends])[:, None] + base
    return offsets, np.zeros((rows, n + 1)), np.empty(offsets.shape)


def _shortfall_and_gradient(
    points: np.ndarray,
    x: float,
    tie_eps: float,
    offsets: np.ndarray,
    prefix: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Objective values and subgradients of the rows of ``points``, on the
    buffers of `_step_buffers`.

    The gradient is a difference array: every interval adds its doubled
    weight (2 unsaturated, 1 within ``tie_eps`` of saturation, 0 saturated)
    at its start and subtracts it at its end, so a running sum gives twice
    each coordinate's coverage.  The weights are integers, so every partial
    sum is exact, and O(n^2) work and memory suffice.
    """
    import numpy as np

    n = points.shape[1]
    half = len(offsets) // 2
    np.add.accumulate(points, axis=1, out=prefix[:, 1:])
    # intervals along axis 0, rows along axis 1: the layout fixes the order
    # in which the sum over intervals adds up, and so the float f values
    bounds = prefix.take(offsets)
    gaps = bounds[half:]
    gaps -= bounds[:half]
    np.subtract(x, gaps, out=gaps)
    fvals = np.add.reduce(np.maximum(gaps, 0.0), axis=0)
    np.add(gaps >= -tie_eps, gaps > tie_eps, out=weights[:half], dtype=float)
    np.negative(weights[:half], out=weights[half:])
    counts = np.bincount(offsets.ravel(), weights=weights.ravel(), minlength=prefix.size)
    grad = np.add.accumulate(counts.reshape(prefix.shape)[:, :n], axis=1)
    grad *= -0.5
    return fvals, grad


_N_STAGES = 20
_STAGE_DECAY = 0.3
_STAGE_WINDOW = 60
_STAGE_MAX_ITERS = 300
_IMPROVEMENT_TOL = 1e-7
_STAGNATION_WINDOW = 1000


def projected_subgradient(
    inst: Instance,
    cfg: SubgradientConfig | None = None,
    start: Sequence[float] | None = None,
) -> SubgradientResult:
    """Minimize the shortfall objective over {v >= 0, sum v = w} in floats.

    All restarts advance in lockstep as rows of one array; each runs
    sqrt-diminishing steps whose scale decays geometrically between
    warm-restarted stages.  Deterministic for a fixed seed.

    ``start``, when given, replaces the first restart's random initial point
    (projected onto the feasible set), for instance to attempt descent from
    a candidate optimum.
    """
    import numpy as np

    if cfg is None:
        cfg = SubgradientConfig()
    if cfg.max_iters < 1 or cfg.restarts < 1:
        raise ValidationError("max_iters and restarts must be positive")
    n = inst.n
    x = float(inst.x)
    w = float(inst.w)
    restarts = cfg.restarts
    budget = max(1, cfg.max_iters // restarts)
    rng = np.random.default_rng(cfg.seed)

    buffers = _step_buffers(n, restarts)
    ranks = np.arange(1, n + 1)
    rows = np.arange(restarts)

    points = rng.exponential(size=(restarts, n))
    points = w * points / points.sum(axis=1, keepdims=True)
    if start is not None:
        if len(start) != n:
            raise ValidationError(f"start point must have {n} entries, got {len(start)}")
        start_row = np.asarray(start, dtype=float).reshape(1, -1)
        points[0] = _project_rows(start_row, w, ranks, rows[:1])[0]

    best_val = np.full(restarts, np.inf)
    best_pt = points.copy()
    stage = np.zeros(restarts, dtype=int)
    scale = w * _STAGE_DECAY**stage
    at_floor = stage >= _N_STAGES - 1
    k_local = np.ones(restarts)
    since = np.zeros(restarts, dtype=int)
    tie_eps = 1e-12 * max(1.0, x)
    # since and k_local grow by one a step or reset, so the stage and the
    # convergence tests wait for the first step at which a row could pass
    advance_test = min(_STAGE_WINDOW, _STAGE_MAX_ITERS - 1)
    done_test = math.inf
    converged = False

    for iterations in range(1, budget + 1):
        fvals, grad = _shortfall_and_gradient(points, x, tie_eps, *buffers)

        better = fvals < best_val
        np.copyto(best_pt, points, where=better[:, None])
        improved = fvals < best_val - _IMPROVEMENT_TOL
        np.minimum(fvals, best_val, out=best_val)
        since += 1
        since[improved] = 0

        if iterations >= done_test:  # finite once every row is at the floor
            if (since >= _STAGNATION_WINDOW).all():
                converged = True
                break
            done_test = iterations + _STAGNATION_WINDOW - since.min()

        norms = np.sqrt(np.add.reduce(grad * grad, axis=1))
        if not norms.all():
            norms[norms == 0.0] = 1.0
        alpha = scale / np.sqrt(k_local)
        alpha /= norms
        grad *= alpha[:, None]
        points = _project_rows(points - grad, w, ranks, rows)
        k_local += 1

        if iterations >= advance_test:
            advance = ((since >= _STAGE_WINDOW) | (k_local >= _STAGE_MAX_ITERS)) & ~at_floor
            if advance.any():
                stage[advance] += 1
                k_local[advance] = 1.0
                since[advance] = 0
                points[advance] = best_pt[advance]
                scale = w * _STAGE_DECAY**stage
                at_floor = stage >= _N_STAGES - 1
                if at_floor.all():
                    done_test = iterations + 1
            climbing = ~at_floor
            if climbing.any():
                wait = np.minimum(_STAGE_WINDOW - since, _STAGE_MAX_ITERS - k_local)
                advance_test = iterations + wait[climbing].min()
            else:
                advance_test = math.inf

    idx = int(np.argmin(best_val))
    return SubgradientResult(
        point=tuple(float(v) for v in best_pt[idx]),
        value=float(best_val[idx]),
        converged=converged,
        iterations=iterations * restarts,
    )


def duo_lattice_resolution(inst: Instance) -> int:
    """Lattice resolution (steps per w) that contains the duo construction."""
    # the grain is the largest rational g with y/g and r/g integers, here
    # gcd(Y, R)/D; at r = 0 it is y = x.  W = m·(Y + R) + R is a multiple
    # of gcd(Y, R)
    _, _, ws, rs, ys = inst._ints
    return ws // math.gcd(ys, rs)


def verify_conjecture(inst: Instance) -> VerifyReport:
    """Prove the duo construction optimal in exact arithmetic.

    The greedy of `dual_certificate` finds the certificate and the checker
    of `check_certificate` checks it, both on the one `_prefix` of the
    solve's placement, against the objective the solve scored.  The
    construction attains the minimum on every instance, so a missing or
    rejected certificate is a failed self-check and raises ConstructionError.
    """
    report = solve_continuous(inst)
    prefix, xs, denom = _prefix(inst.n, report.placed, inst.x)
    cert = _greedy_certificate(inst, prefix, xs)
    bound = None if cert is None else _check(inst, prefix, xs, denom, cert, report.objective)
    if bound is None:
        raise ConstructionError(f"the exact checker did not certify the construction at {inst}")
    return VerifyReport(
        instance=inst,
        construction=report,
        status=CONFIRMED,
        oracle_value=bound,
        certificate=cert,
    )
