"""Acceptance suite: one test per release criterion, each at its stated
tolerance (exact rational comparison unless a float tolerance is given).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

from extopt import (
    CONFIRMED,
    PROVEN,
    Instance,
    QueueParams,
    brute_force_combinatorial,
    eval_f,
    externality_mean,
    externality_variance,
    grid_search,
    projected_subgradient,
    solve_combinatorial,
    solve_continuous,
    solve_continuous_integer,
    verify_conjecture,
)
from extopt.combinatorial import a_value, delta_search, phi
from extopt.continuous import (
    canonical_gap_profiles,
    closed_form_objective,
    satisfies_interleaving,
    tau,
)
from extopt.model import as_rational, eval_f_row, strict_pair_sum, supremum_vector
from extopt.oracle import duo_lattice_resolution
from helpers import random_lambda_member, random_vector

F = Fraction


def inst(n, x, w) -> Instance:
    return Instance(n, as_rational(x), as_rational(w))


def _report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS — {detail}")


def test_criterion_01_example_golden():
    i = inst(7, 1, "2.2")
    comb = solve_combinatorial(i).objective
    cont = solve_continuous(i).objective
    assert comb == F("33/5")
    assert cont == F("32/5")
    assert cont < comb
    _report(1, "combinatorial 33/5, continuous 32/5, strict improvement (exact)")


def test_criterion_02_integer_budget_closed_form():
    checked = 0
    for x in (F(1), F("11/10"), F("3/7")):
        for n in range(2, 31):
            for m in range(1, n):
                i = inst(n, x, m * x)
                report = solve_continuous_integer(i)
                tau_u = tau(n, m).tau_u
                expected = (tau_u - 1) * (x * (n + 1) - (i.w + x) * F(tau_u, 2))
                assert report.objective == expected
                checked += 1
    _report(2, f"equidistant closed form on {checked} integer-budget instances (exact)")


def test_criterion_03_combinatorial_oracle_equivalence():
    start = time.time()
    checked = 0
    x = F(1)
    for n in range(2, 13):
        for m in range(0, min(4, n - 1) + 1):
            for quarter in (0, 1, 2, 3):
                w = m * x + x * F(quarter, 4)
                if not 0 < w < n * x:
                    continue
                i = inst(n, x, w)
                closed = solve_combinatorial(i).objective
                _, best = brute_force_combinatorial(i)
                assert closed == best
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 120
    _report(3, f"closed form equals exhaustive minimum on {checked} instances "
               f"in {elapsed:.1f}s (exact)")


def test_criterion_04_widest_gap_properties():
    for n in range(2, 61):
        for m in range(1, n):
            assert delta_search(inst(n, 1, m)).delta_star == math.ceil((n + 1) / (m + 1))

    sweeps = 0
    for n in range(2, 21):
        for m in range(1, n):
            previous = 0
            for k in range(50):
                i = inst(n, 1, m + F(k, 50))
                star = delta_search(i).delta_star
                assert star >= previous
                previous = star
                sweeps += 1

    identities = 0
    for n in range(2, 21):
        for m in range(1, n):
            for r_num in (0, 1, 9):
                i = inst(n, 1, m + F(r_num, 10))
                if not i.w < n:
                    continue
                for delta in range(1, i.n - 1 - i.m + 1):
                    assert phi(i, delta) == a_value(i, delta + 2) - a_value(i, delta)
                    identities += 1
    _report(4, f"r=0 closed form to n=60, monotone over {sweeps} sweep points, "
               f"{identities} second-difference identities (exact)")


def test_criterion_05_interleaving():
    cases = 0
    for n in range(2, 201):
        for m in range(1, n):
            gaps_y, gaps_r = canonical_gap_profiles(n, m)
            assert sum(gaps_y) == n + 1 and sum(gaps_r) == n + 1
            assert satisfies_interleaving(gaps_y, gaps_r)
            cases += 1
    _report(5, f"canonical layer profiles interleave on {cases} (n, m) pairs (exact)")


def test_criterion_06_duo_regime_closed_form():
    checked = 0
    grid_checked = 0
    for n in range(2, 26):
        for tenth in range(1, 10 * n):
            w = F(tenth, 10)
            if not 0 < w < n:
                continue
            i = inst(n, 1, w)
            if i.r == 0:
                continue
            t1, t2 = tau(n, i.m), tau(n, i.m + 1)
            if t1.tau_u != t2.tau_u and t1.tau_l != t2.tau_l:
                continue
            report = solve_continuous(i)
            assert report.status == PROVEN
            expected = closed_form_objective(i, t1.tau_u)
            assert report.objective == expected
            checked += 1
            resolution = duo_lattice_resolution(i)
            if n <= 7 and math.comb(resolution + n - 1, n - 1) <= 60_000:
                _, lattice_best = grid_search(i, resolution)
                assert lattice_best == expected  # the lattice contains the optimum
                grid_checked += 1
    assert checked > 300
    _report(6, f"duo closed form on {checked} proven-regime instances, "
               f"lattice confirms {grid_checked} of them (exact)")


def test_criterion_07_conjecture_harness():
    start = time.time()
    pool = []
    for n in range(4, 21):
        for m in range(1, n // 2):
            t1, t2 = tau(n, m), tau(n, m + 1)
            if t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l:
                continue
            for j in range(1, 12):
                pool.append(inst(n, 1, m + F(j, 12)))
    assert len(pool) >= 500, f"only {len(pool)} conjecture-regime instances available"
    pool = pool[:520]
    worst_gap = 0.0
    for i in pool:
        report = verify_conjecture(i)
        assert report.status == CONFIRMED, (i, report.status, report.gap)
        assert abs(report.gap) <= 1e-6, (i, report.gap)
        worst_gap = max(worst_gap, abs(report.gap))
    elapsed = time.time() - start
    assert elapsed < 300
    _report(7, f"{len(pool)} conjecture-regime instances CONFIRMED, zero VIOLATED, "
               f"worst |gap| {worst_gap:.2e}, {elapsed:.0f}s")


def test_criterion_08_row_decomposition_and_bounds():
    rng = random.Random(20250808)
    for _ in range(1000):
        n = rng.randint(1, 15)
        x = F(rng.randint(1, 5), rng.randint(1, 4))
        v = random_vector(rng, n, x)
        total = sum((eval_f_row(v, x, j) for j in range(1, n + 1)), F(0))
        assert total == eval_f(v, x)

    for n, x, w in [(15, "1", "3.5"), (12, "11/10", "4"), (15, "3/7", "2")]:
        i = inst(n, x, w)
        tau_u = tau(i.n, i.m).tau_u
        for _ in range(1000):
            v = random_lambda_member(rng, i)
            for j in range(1, tau_u):
                assert eval_f_row(v, i.x, j) >= (i.n + 1 - j) * i.x - j * i.w
    _report(8, "1000 row decompositions and 3000 row lower-bound samples (exact)")


def test_criterion_09_subgradient_sanity():
    checked = 0
    worst = 0.0
    for n in range(2, 11):
        for quarter in range(1, 4 * n):
            i = inst(n, 1, F(quarter, 4))
            report = solve_continuous(i)
            if report.status != PROVEN:
                continue
            value = projected_subgradient(i).value
            err = abs(value - float(report.objective))
            assert err <= 1e-6, (i, err)
            worst = max(worst, err)
            checked += 1
    _report(9, f"subgradient within 1e-6 of the closed form on {checked} proven "
               f"instances, worst {worst:.2e}")


def test_criterion_10_moment_formulas():
    q = QueueParams(F("1/2"), 1, 2)
    assert externality_mean(q, 7, 1) == 14
    assert externality_mean(QueueParams(F("1/4"), 2, 4), 10, F("1/2")) == 10
    assert externality_variance(q, ("1", "1"), 1) == 16
    assert externality_variance(q, ("0", "0"), 1) == 32
    assert externality_variance(q, ("0", "1", "0", "0", "1", "0.2", "0"), 1) == F("424/5")

    extremal_checked = 0
    for n, w in [(2, "1.9"), (4, "1.5"), (5, "2"), (7, "2.2"), (8, "3")]:
        i = inst(n, 1, w)
        resolution = duo_lattice_resolution(i)
        step = i.w / resolution

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        pair_sums = [
            strict_pair_sum(tuple(c * step for c in comp), i.x)
            for comp in compositions(resolution, i.n)
        ]
        cont = solve_continuous(i)
        s_min = strict_pair_sum(cont.vector, i.x)
        s_sup = strict_pair_sum(supremum_vector(i), i.x)
        assert s_min == min(pair_sums)
        assert s_sup == max(pair_sums)
        # the variance factor is positive, so ordering the bracket orders the variance
        assert externality_variance(q, cont.vector, i.x) <= externality_variance(
            q, supremum_vector(i), i.x
        )
        extremal_checked += 1
    _report(10, f"moment formulas exact; variance extremes confirmed by lattice "
                f"enumeration on {extremal_checked} instances")
