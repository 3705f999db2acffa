"""Brute-force, lattice, and subgradient oracles plus the verify harness."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extopt import (
    CONFIRMED,
    INCONCLUSIVE,
    Instance,
    SizeCapError,
    SubgradientConfig,
    ValidationError,
    brute_force_combinatorial,
    eval_f,
    grid_search,
    projected_subgradient,
    solve_combinatorial,
    solve_continuous,
    verify_conjecture,
)
from extopt.model import as_rational
from extopt.oracle import (
    _interval_offsets,
    _shortfall_and_gradient,
    duo_lattice_resolution,
    project_to_simplex,
    subgradient,
)
F = Fraction


def inst(n, x, w) -> Instance:
    return Instance(n, as_rational(x), as_rational(w))


class TestBruteForce:
    def test_example_values(self):
        _, best = brute_force_combinatorial(inst(7, 1, "2.2"))
        assert best == F("33/5")
        vec, best = brute_force_combinatorial(inst(5, 1, 1))
        assert (vec, best) == ((0, 0, 1, 0, 0), 6)

    def test_two_slot_tie(self):
        vec, best = brute_force_combinatorial(inst(2, 1, 1))
        assert best == 1
        assert vec == (0, 1)  # lexicographically smallest of the two optima
        assert eval_f((1, 0), 1) == 1

    def test_cap(self):
        with pytest.raises(SizeCapError):
            brute_force_combinatorial(inst(30, 1, 10), cap=1000)

    def test_minimizer_achieves_value(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 9)
            m = rng.randint(0, n - 1)
            w = m + F(rng.randint(0, 3), 4)
            if not 0 < w < n:
                continue
            i = inst(n, 1, w)
            vec, best = brute_force_combinatorial(i)
            assert eval_f(vec, i.x) == best


class TestGridSearch:
    def test_example_lattice_contains_duo(self):
        i = inst(7, 1, "2.2")
        vec, best = grid_search(i, 11)
        assert best == F("32/5")
        duo = tuple(as_rational(e) for e in ("0", "0.2", "0.8", "0.2", "0.8", "0.2", "0"))
        assert eval_f(duo, 1) == best  # the duo vector lies on this lattice
        assert eval_f(vec, 1) == best

    def test_small_lattice(self):
        vec, best = grid_search(inst(3, 1, 1), 10)
        assert (vec, best) == ((0, 1, 0), 2)

    def test_resolution_one_reduces_to_vertices(self):
        i = inst(4, 1, "0.75")
        vec, best = grid_search(i, 1)
        vertex_values = []
        for k in range(4):
            v = [F(0)] * 4
            v[k] = i.w
            vertex_values.append(eval_f(v, i.x))
        assert best == min(vertex_values)
        assert sum(1 for e in vec if e != 0) == 1

    def test_upper_bounds_continuous_minimum(self):
        for n, x, w, res in [(5, "1", "1.5", 6), (6, "1", "2.5", 10), (4, "1.1", "2", 8)]:
            i = inst(n, x, w)
            _, best = grid_search(i, res)
            cont = solve_continuous(i)
            assert best >= cont.objective

    def test_validation_and_cap(self):
        with pytest.raises(ValidationError):
            grid_search(inst(3, 1, 1), 0)
        with pytest.raises(SizeCapError):
            grid_search(inst(12, 1, 5), 40, cap=10_000)


class TestSubgradientExact:
    def test_inequality_at_random_points(self):
        # f(v + t*d) >= f(v) + t * <g, d> for subgradient g, both signs of t
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 7)
            x = F(rng.randint(1, 4), rng.randint(1, 3))
            v = tuple(x * F(rng.randint(0, 6), 8) for _ in range(n))
            g = subgradient(v, x)
            for _ in range(6):
                d = tuple(F(rng.randint(-4, 4), 4) for _ in range(n))
                for t in (F(1, 64), F(-1, 64), F(1, 8)):
                    moved = tuple(e + t * di for e, di in zip(v, d))
                    if any(e < 0 for e in moved):
                        continue
                    inner = sum((gi * di for gi, di in zip(g, d)), F(0))
                    assert eval_f(moved, x) >= eval_f(v, x) + t * inner

    def test_tie_weight_is_half(self):
        # a single saturated singleton contributes exactly -1/2 there
        g = subgradient(("1", "2"), 1)
        assert g[0] == F(-1, 2)
        assert g[1] == 0

    def test_zero_vector_counts_intervals(self):
        g = subgradient(("0", "0", "0"), 1)
        # coordinate i sits in (i+1)*(n-i) intervals
        assert g == (-3, -4, -3)

    def test_descent_step_matches_exact_oracle(self):
        # dyadic entries keep every float interval sum exact, so saturation
        # ties really occur and the float step must equal the exact values
        rng = random.Random(21)
        halves = 0
        for n in range(1, 41):
            for rows in (1, 8):
                x = F(rng.randint(1, 8), 4)
                vs = [[F(rng.randint(0, 6), 4) for _ in range(n)] for _ in range(rows)]
                fvals, grad = _shortfall_and_gradient(
                    np.array(vs, dtype=float), float(x), 1e-12 * max(1.0, float(x)),
                    _interval_offsets(n, rows), np.zeros((rows, n + 1)),
                )
                for row, v in enumerate(vs):
                    exact = subgradient(v, x)
                    assert F(float(fvals[row])) == eval_f(v, x)
                    assert tuple(F(float(g)) for g in grad[row]) == exact
                    halves += sum(g.denominator == 2 for g in exact)
        assert halves > 0  # tie weights of 1/2 were exercised


class TestSimplexProjection:
    def test_projection_is_feasible_and_closest(self):
        rng = random.Random(97)
        for n in (2, 3, 4):
            for _ in range(20):
                w = rng.uniform(0.5, 3.0)
                p = [rng.uniform(-2, 3) for _ in range(n)]
                proj = project_to_simplex(p, w)
                assert all(e >= -1e-12 for e in proj)
                assert abs(sum(proj) - w) < 1e-9
                dist = sum((a - b) ** 2 for a, b in zip(p, proj))
                # dense sampling of the simplex cannot beat the projection
                for _ in range(120):
                    cuts = sorted(rng.uniform(0, w) for _ in range(n - 1))
                    q = [b - a for a, b in zip([0.0] + cuts, cuts + [w])]
                    alt = sum((a - b) ** 2 for a, b in zip(p, q))
                    assert dist <= alt + 1e-9

    def test_feasible_point_is_fixed(self):
        point = (0.25, 0.5, 0.25)
        assert project_to_simplex(point, 1.0) == pytest.approx(point, abs=1e-12)


class TestProjectedSubgradient:
    @pytest.mark.parametrize(
        "n,x,w,target",
        [
            (9, "1.1", "2.2", F("66/5")),
            (7, "1", "2.2", F("32/5")),
            (2, "1", "1", F(1)),
        ],
    )
    def test_golden_values(self, n, x, w, target):
        res = projected_subgradient(inst(n, x, w))
        assert res.converged
        assert res.value == pytest.approx(float(target), abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        cfg = SubgradientConfig(seed=42)
        a = projected_subgradient(inst(6, 1, "1.75"), cfg)
        b = projected_subgradient(inst(6, 1, "1.75"), cfg)
        assert a == b

    def test_feasible_output(self):
        res = projected_subgradient(inst(5, 1, "1.5"))
        assert all(e >= -1e-12 for e in res.point)
        assert sum(res.point) == pytest.approx(1.5, abs=1e-9)

    def test_tiny_budget_does_not_converge(self):
        res = projected_subgradient(inst(4, 1, "1.5"), SubgradientConfig(max_iters=10))
        assert not res.converged

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            projected_subgradient(inst(4, 1, 1), SubgradientConfig(max_iters=0))
        with pytest.raises(ValidationError):
            projected_subgradient(inst(4, 1, 1), SubgradientConfig(step_scale=-1.0))

    @pytest.mark.parametrize(
        "n,w,restarts,iterations",
        [
            (120, 37 + F(4, 12), 1, 2141),
            (19, 2 + F(11, 12), 8, 36864),
        ],
    )
    def test_trajectory_pin(self, n, w, restarts, iterations):
        # step counts of the descent from the duo vector, as verify runs it,
        # recorded with the dense membership-matrix gradient: the step count
        # follows every float comparison of the run, so it pins the trajectory
        i = Instance(n, F(1), w)
        start = [float(e) for e in solve_continuous(i).vector]
        res = projected_subgradient(i, SubgradientConfig(seed=1, restarts=restarts), start=start)
        assert (res.iterations, res.converged) == (iterations, True)

    def test_bounded_memory_at_n_240(self):
        # a dense interval-by-coordinate matrix alone would take 53 MiB here
        i = inst(240, 1, F(223, 3))
        tracemalloc.start()
        try:
            projected_subgradient(i, SubgradientConfig(max_iters=8 * 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestOracleSandwich:
    def test_proven_instances_agree_across_oracles(self):
        for n, x, w in [(5, "1", "2"), (7, "1", "2.2"), (8, "1", "3"), (6, "1", "3.5")]:
            i = inst(n, x, w)
            cont = solve_continuous(i)
            assert cont.status == "PROVEN"
            res = duo_lattice_resolution(i)
            _, grid_best = grid_search(i, res)
            sub = projected_subgradient(i)
            assert grid_best >= cont.objective
            assert float(grid_best) == pytest.approx(float(cont.objective), abs=1e-6)
            assert sub.value == pytest.approx(float(cont.objective), abs=1e-6)

    def test_exhaustive_agreement(self):
        for n, x, w in [(6, "1", "2.5"), (7, "1.1", "3"), (8, "1", "1.75")]:
            i = inst(n, x, w)
            assert solve_combinatorial(i).objective == brute_force_combinatorial(i)[1]


class TestDuoLatticeResolution:
    def test_examples(self):
        assert duo_lattice_resolution(inst(7, 1, "2.2")) == 11
        assert duo_lattice_resolution(inst(9, 1, "2.5")) == 5
        assert duo_lattice_resolution(inst(5, 1, 2)) == 2  # r = 0: steps of x

    def test_duo_vector_on_lattice(self):
        for n, x, w in [(7, "1", "2.2"), (9, "1", "2.5"), (11, "1.1", "2.75")]:
            i = inst(n, x, w)
            res = duo_lattice_resolution(i)
            step = i.w / res
            vec = solve_continuous(i).vector
            assert all((e / step).denominator == 1 for e in vec)


class TestVerifyConjecture:
    def test_confirmed_examples(self):
        for n, x, w in [(7, "1", "2.2"), (9, "1", "2.5"), (8, "1", "3")]:
            report = verify_conjecture(inst(n, x, w))
            assert report.status == CONFIRMED
            assert abs(report.gap) <= 1e-6
            assert report.converged

    def test_forced_early_stop_is_inconclusive(self):
        report = verify_conjecture(
            inst(2, 1, "1.5"), SubgradientConfig(max_iters=10), grid_cap=0
        )
        assert report.status == INCONCLUSIVE

    def test_deterministic(self):
        cfg = SubgradientConfig(seed=7)
        a = verify_conjecture(inst(6, 1, "1.8"), cfg)
        b = verify_conjecture(inst(6, 1, "1.8"), cfg)
        assert (a.status, a.gap, a.oracle_minimizer) == (b.status, b.gap, b.oracle_minimizer)

    def test_never_violated_on_proven_instances(self):
        rng = random.Random(3)
        for _ in range(6):
            n = rng.randint(3, 8)
            m = rng.randint(1, n - 1)
            i = inst(n, 1, m)  # r = 0: theorem territory
            report = verify_conjecture(i)
            assert report.status == CONFIRMED
