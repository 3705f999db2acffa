"""Independent ground-truth engines for the closed-form solvers.

Three oracles, none of which shares code with the gap-profile formulas:

* exhaustive enumeration of the structured placements (exact, scaled ints),
* an exact lattice search over compositions of the budget,
* a floating-point projected subgradient method over the simplex slab.

`verify_conjecture` wires them together into the harness that checks the
duo construction outside its proven regime; a float never refutes anything
on its own, candidate violations are re-evaluated in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .continuous import solve_continuous
from .errors import SizeCapError, ValidationError
from .model import Instance, _scaled_prefix, _shortfall, eval_f
from .report import CONFIRMED, INCONCLUSIVE, VIOLATED


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
    """Outcome of checking the duo construction against the oracles.

    CONFIRMED needs the oracle to sit no lower than the construction (up to
    1e-6); VIOLATED needs a strictly better point that survives exact
    re-evaluation; anything murky is INCONCLUSIVE.
    """

    instance: Instance
    constructed_objective: Fraction
    oracle_objective: float
    gap: float
    status: str
    oracle_minimizer: tuple[float, ...]
    converged: bool


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
    denom = math.lcm(inst.x.denominator, inst.r.denominator)
    x_s = int(inst.x * denom)
    r_s = int(inst.r * denom)

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
        return _shortfall(list(itertools.accumulate(vals, initial=0)), x_s)

    best = min(placements(), key=lambda vals: (value(vals), vals))
    vector = tuple(Fraction(v, denom) for v in best)
    return vector, Fraction(value(best), denom)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_search(
    inst: Instance, resolution: int, cap: int = 10_000_000
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact minimum over the lattice of budget compositions in steps of
    w/resolution.  An upper bound on the continuous minimum; tight whenever
    the optimum lies on the lattice."""
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise ValidationError(f"resolution must be a positive integer, got {resolution!r}")
    n = inst.n
    points = math.comb(resolution + n - 1, n - 1)
    if points > cap:
        raise SizeCapError(f"{points} lattice points exceed the cap {cap}")
    step = inst.w / resolution
    denom = math.lcm(inst.x.denominator, step.denominator)
    x_s = int(inst.x * denom)
    u_s = int(step * denom)

    def value(comp: tuple[int, ...]) -> int:
        return _shortfall([c * u_s for c in itertools.accumulate(comp, initial=0)], x_s)

    best = min(_compositions(resolution, n), key=value)
    vector = tuple(c * step for c in best)
    return vector, Fraction(value(best), denom)


def subgradient(v: Iterable, x) -> tuple[Fraction, ...]:
    """Exact subgradient of the shortfall objective at a rational point.

    Each strictly unsaturated interval contributes -1 on its coordinates;
    exactly saturated intervals contribute the midpoint -1/2 of their
    subdifferential range.
    """
    prefix, xs, _ = _scaled_prefix(v, x)
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
    arr = np.asarray(point, dtype=float).reshape(1, -1)
    ranks = np.arange(1, arr.shape[1] + 1)
    return tuple(float(v) for v in _project_rows(arr, float(total), ranks)[0])


def _project_rows(points: np.ndarray, total: float, ranks: np.ndarray) -> np.ndarray:
    # ranks is 1..n, passed in so the descent loop builds it once
    u = np.sort(points, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    cond = u + (total - css) / ranks > 0
    rho = cond.sum(axis=1)
    theta = (css[np.arange(len(points)), rho - 1] - total) / rho
    return np.maximum(points - theta[:, None], 0.0)


def _interval_offsets(n: int, rows: int) -> np.ndarray:
    """Flat offsets into a (rows, n+1) array: the starts of all intervals,
    then their ends, one column per row.

    Interval [s, e) covers coordinates s..e-1 and has sum prefix[e] - prefix[s].
    """
    starts, ends = np.triu_indices(n + 1, k=1)
    base = (n + 1) * np.arange(rows)
    return np.concatenate([starts, ends])[:, None] + base


def _shortfall_and_gradient(
    points: np.ndarray, x: float, tie_eps: float, offsets: np.ndarray, prefix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objective values and subgradients of the rows of ``points``.

    ``prefix`` is a (rows, n+1) buffer whose first column is zero.  The
    gradient is a difference array: every interval adds its doubled weight
    (2 unsaturated, 1 within ``tie_eps`` of saturation, 0 saturated) at its
    start and subtracts it at its end, so a running sum gives twice each
    coordinate's coverage.  The weights are integers, so every partial sum is
    exact, and O(n^2) work and memory suffice.
    """
    n = points.shape[1]
    np.cumsum(points, axis=1, out=prefix[:, 1:])
    # intervals along axis 0, rows along axis 1: the layout fixes the order
    # in which the sum over intervals adds up, and so the float f values
    bounds = prefix.take(offsets)
    half = len(offsets) // 2
    diff = x - (bounds[half:] - bounds[:half])
    fvals = np.maximum(diff, 0.0).sum(axis=0)
    doubled = (diff >= -tie_eps).astype(float) + (diff > tie_eps)
    counts = np.bincount(
        offsets.ravel(),
        weights=np.concatenate([doubled, -doubled]).ravel(),
        minlength=prefix.size,
    ).reshape(prefix.shape)
    grad = np.cumsum(counts[:, :n], axis=1)
    grad *= -0.5
    return fvals, grad


_N_STAGES = 20
_STAGE_DECAY = 0.3
_STAGE_WINDOW = 60
_STAGE_MAX_ITERS = 300
_IMPROVEMENT_TOL = 1e-7
_STAGNATION_WINDOW = 1000
_VERIFY_TOL = 1e-6


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
    (projected onto the feasible set); the verification harness uses it to
    attempt descent from a candidate optimum.
    """
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

    offsets = _interval_offsets(n, restarts)
    prefix = np.zeros((restarts, n + 1))
    ranks = np.arange(1, n + 1)

    points = rng.exponential(size=(restarts, n))
    points = w * points / points.sum(axis=1, keepdims=True)
    if start is not None:
        if len(start) != n:
            raise ValidationError(f"start point must have {n} entries, got {len(start)}")
        points[0] = _project_rows(np.asarray(start, dtype=float).reshape(1, -1), w, ranks)[0]

    best_val = np.full(restarts, np.inf)
    best_pt = points.copy()
    stage = np.zeros(restarts, dtype=int)
    scale = w * _STAGE_DECAY**stage
    at_floor = stage >= _N_STAGES - 1
    k_local = np.ones(restarts)
    since = np.zeros(restarts, dtype=int)
    done = np.zeros(restarts, dtype=bool)
    tie_eps = 1e-12 * max(1.0, x)

    iterations = 0
    for _ in range(budget):
        iterations += 1
        fvals, grad = _shortfall_and_gradient(points, x, tie_eps, offsets, prefix)

        better = fvals < best_val
        np.copyto(best_pt, points, where=better[:, None])
        improved = fvals < best_val - _IMPROVEMENT_TOL
        np.minimum(fvals, best_val, out=best_val)
        since += 1
        since[improved] = 0

        done = at_floor & (since >= _STAGNATION_WINDOW)
        if done.all():
            break

        norms = np.sqrt((grad * grad).sum(axis=1))
        norms[norms == 0.0] = 1.0
        alpha = scale / np.sqrt(k_local)
        points = _project_rows(points - (alpha / norms)[:, None] * grad, w, ranks)
        k_local += 1

        advance = ((since >= _STAGE_WINDOW) | (k_local >= _STAGE_MAX_ITERS)) & ~at_floor
        if advance.any():
            stage[advance] += 1
            k_local[advance] = 1.0
            since[advance] = 0
            points[advance] = best_pt[advance]
            scale = w * _STAGE_DECAY**stage
            at_floor = stage >= _N_STAGES - 1

    idx = int(np.argmin(best_val))
    return SubgradientResult(
        point=tuple(float(v) for v in best_pt[idx]),
        value=float(best_val[idx]),
        converged=bool(done.all()),
        iterations=iterations * restarts,
    )


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # largest rational g with a/g and b/g integers; a, b > 0
    common = math.lcm(a.denominator, b.denominator)
    return Fraction(
        math.gcd(a.numerator * (common // a.denominator),
                 b.numerator * (common // b.denominator)),
        common,
    )


def duo_lattice_resolution(inst: Instance) -> int:
    """Lattice resolution (steps per w) that contains the duo construction."""
    if inst.r == 0:
        grain = inst.x
    else:
        grain = _frac_gcd(inst.y, inst.r)
    return int(inst.w / grain)


def _rationalize(point: Sequence[float], inst: Instance) -> tuple[Fraction, ...]:
    # snap an oracle point back into the feasible set with bounded denominators
    rat = [max(Fraction(0), Fraction(p).limit_denominator(10**6)) for p in point]
    total = sum(rat, Fraction(0))
    if total > inst.w:
        rat = [e * inst.w / total for e in rat]
    return tuple(rat)


def verify_conjecture(
    inst: Instance,
    cfg: SubgradientConfig | None = None,
    grid_cap: int = 200_000,
    resolution: int | None = None,
) -> VerifyReport:
    """Compare the duo construction with the numerical and lattice oracles.

    A float value below the construction is only reported as VIOLATED after
    the rationalized oracle point (or an exact lattice point) beats the
    construction in exact arithmetic.
    """
    report = solve_continuous(inst)
    constructed = report.objective
    # one restart descends from the candidate itself (the refutation attempt),
    # the rest search from random points
    sub = projected_subgradient(inst, cfg, start=[float(e) for e in report.vector])
    oracle_val = sub.value
    oracle_pt = sub.point

    grid_exact: Fraction | None = None
    if resolution is None:
        resolution = duo_lattice_resolution(inst)
    if resolution >= 1 and math.comb(resolution + inst.n - 1, inst.n - 1) <= grid_cap:
        grid_vec, grid_val = grid_search(inst, resolution, cap=grid_cap)
        grid_exact = grid_val
        if float(grid_val) < oracle_val:
            oracle_val = float(grid_val)
            oracle_pt = tuple(float(e) for e in grid_vec)

    gap = oracle_val - float(constructed)
    if grid_exact is not None and grid_exact < constructed:
        status = VIOLATED
    elif gap < -10 * _VERIFY_TOL:
        exact = eval_f(_rationalize(oracle_pt, inst), inst.x)
        status = VIOLATED if exact < constructed else INCONCLUSIVE
    elif gap < -_VERIFY_TOL:
        status = INCONCLUSIVE
    elif not sub.converged:
        status = INCONCLUSIVE
    else:
        status = CONFIRMED
    return VerifyReport(
        instance=inst,
        constructed_objective=constructed,
        oracle_objective=oracle_val,
        gap=gap,
        status=status,
        oracle_minimizer=oracle_pt,
        converged=sub.converged,
    )
