"""Brute-force, lattice, and subgradient oracles plus the verify harness."""

import itertools
import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from extopt import (
    CONFIRMED,
    ConstructionError,
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
from extopt.combinatorial import minimum, near_equidistant_parts
from extopt.model import _prefix, as_rational
from extopt.certificate import DualCertificate, check_certificate, dual_certificate
from extopt.cli import main
from extopt.oracle import (
    _project_rows,
    _shortfall_and_gradient,
    _step_buffers,
    duo_lattice_resolution,
    project_to_simplex,
    subgradient,
)
from helpers import (
    flow_certificate,
    max_flow,
    naive_f,
    naive_grid,
    random_lambda_member,
    reference_project_rows,
    shuffled_duo,
    twelfths_grid,
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

    def test_matches_naive_reference(self):
        # seeded instances, n <= 6 and resolution <= 12; ties go to the
        # lexicographically first minimizer of the plain enumeration
        rng = random.Random(31)
        tied = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            resolution = rng.randint(1, 12)
            while math.comb(resolution + n - 1, n - 1) > 2000:
                resolution -= 1
            x = F(rng.randint(1, 12), rng.randint(1, 4))
            w = n * x * F(rng.randint(1, 23), 24)
            i = Instance(n, x, w)
            minimizers, value = naive_grid(i, resolution)
            assert grid_search(i, resolution) == (minimizers[0], value)
            tied += len(minimizers) > 1
        assert tied > 10

    def test_large_n_does_not_recurse(self):
        # n = 1500 vertices: the first vertex with the fewest intervals
        # missing it sits at index 750, and w > x saturates every other one
        n = 1500
        vec, best = grid_search(inst(n, 1, "1.5"), 1)
        assert vec == tuple(F(3, 2) if k == 750 else 0 for k in range(n))
        assert best == 750 * 751 // 2 + 749 * 750 // 2

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
                    *_step_buffers(n, rows),
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

    def test_rows_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        cases = []
        for n in (1, 2, 3, 7, 19, 40):
            for rows in (1, 8):
                total = float(rng.uniform(0.5, 5.0))
                points = rng.normal(size=(rows, n)) * total
                points[rng.random(size=points.shape) < 0.3] = 0.0
                if n > 1:
                    points[:, -1] = points[:, 0]  # duplicated entries
                on_simplex = rng.exponential(size=(rows, n))
                on_simplex *= total / on_simplex.sum(axis=1, keepdims=True)
                cases += [(points, total), (np.zeros((rows, n)), total), (on_simplex, total)]
                cases.append((np.round(points * 4) / 4, 2.0))  # ties at dyadic values
        for points, total in cases:
            rows, n = points.shape
            got = _project_rows(points, total, np.arange(1, n + 1), np.arange(rows))
            assert np.array_equal(got, reference_project_rows(points, total))

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

    def test_trajectory_pin_point_and_value(self):
        # the n = 19 run of test_trajectory_pin, its value and point recorded
        # with the projection in the form of helpers.reference_project_rows
        i = Instance(19, F(1), 2 + F(11, 12))
        start = [float(e) for e in solve_continuous(i).vector]
        res = projected_subgradient(i, SubgradientConfig(seed=1, restarts=8), start=start)
        big, small = 0.9166666666666665, 0.08333333333333325
        point = [0.0] * 19
        point[4] = point[9] = point[14] = big
        point[5] = point[12] = small
        assert res.value == 41.41666666666665
        assert res.point == tuple(point)

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
        # every duo entry is a whole number of steps, and the step is the
        # largest such: y and r share no further factor, and at r = 0 it is x
        rng = random.Random(7)
        seeded = []
        while len(seeded) < 200:
            x = F(rng.randint(1, 40), rng.randint(2, 13))
            if x.denominator > 1:
                n = rng.randint(2, 60)
                seeded.append(inst(n, x, n * x * F(rng.randint(1, 999), 1000)))
        for i in [*(inst(n, x, w) for n, x, w in twelfths_grid()), *seeded]:
            res = duo_lattice_resolution(i)
            step = i.w / res
            vec = solve_continuous(i).vector
            assert all((e / step).denominator == 1 for e in vec), i
            if i.r:
                assert math.gcd(int(i.y / step), int(i.r / step)) == 1, i
            else:
                assert step == i.x, i


class TestDualCertificate:
    def test_checker_rejects_mutated_certificates(self):
        i = inst(9, 1, "2.5")
        duo = solve_continuous(i).vector
        cert = dual_certificate(duo, i)
        assert check_certificate(duo, i, cert) == naive_f(duo, i.x)
        runs = cert.runs
        assert runs == ((0, 1, 3), (2, 2, 4), (3, 3, 6), (5, 5, 7))
        prefix = [sum(duo[:e], F(0)) for e in range(i.n + 1)]
        chosen = {(k, e) for lo, hi, e in runs for k in range(lo, hi + 1)}
        unused = [(k, k, e) for k in range(i.n) for e in range(k + 1, i.n + 1)
                  if prefix[e] - prefix[k] == i.x and (k, e) not in chosen]
        # every run below that is not shifted is tight
        assert prefix[7] - prefix[4] == prefix[3] - prefix[1] == i.x
        mutations = [
            replace(cert, runs=runs[:1] + runs[2:]),  # one α flipped to 0
            replace(cert, runs=runs + tuple(unused[:1])),  # one α flipped to 1
            replace(cert, runs=runs[:3] + ((4, 5, 7),)),  # a run one start longer
            replace(cert, runs=((1, 1, 3),) + runs[1:]),  # a run one start shorter
            replace(cert, runs=((1, 2, 3),) + runs[1:]),  # a run shifted by one
            # the same Σα and bound, but [1, 3) taken twice in place of [0, 3)
            replace(cert, runs=((1, 1, 3), (1, 1, 3)) + runs[1:]),
            # the same Σα and bound, but some coordinate covered μ+1 times
            replace(cert, runs=runs[:1] + runs[2:] + tuple(unused[:1])),
            replace(cert, mu=cert.mu - 1),
        ]
        for mutated in mutations:
            assert check_certificate(duo, i, mutated) is None

    def test_structured_vector_yields_a_better_point(self):
        i = inst(7, 1, "2.2")
        structured = solve_combinatorial(i).vector
        assert naive_f(structured, i.x) == F(33, 5)
        point = dual_certificate(structured, i)
        assert not isinstance(point, DualCertificate)
        assert sum(point, F(0)) == i.w and min(point) >= 0
        assert naive_f(point, i.x) < F(33, 5)

    def test_every_cut_point_beats_its_start(self):
        rng = random.Random(11)
        cuts = 0
        for _ in range(400):
            n = rng.randint(1, 10)
            x = F(rng.randint(1, 4), rng.randint(1, 3))
            i = inst(n, x, x * F(rng.randint(1, 4 * n - 1), 4))
            v = random_lambda_member(rng, i)
            found = dual_certificate(v, i)
            if isinstance(found, DualCertificate):
                assert check_certificate(v, i, found) == naive_f(v, x)
                continue
            cuts += 1
            assert sum(found, F(0)) == i.w and min(found) >= 0
            assert naive_f(found, x) < naive_f(v, x)
        assert cuts > 150

    def test_certifies_a_conjectured_instance_at_n_200(self):
        i = inst(200, 1, 2 + F(5, 12))
        assert solve_continuous(i).status == "CONJECTURED"
        report = verify_conjecture(i)
        assert report.status == CONFIRMED
        assert report.oracle_value == report.constructed_objective
        assert report.certificate.tight_count > 1000

    def test_certifies_a_conjectured_instance_at_n_10000(self):
        i = inst(10000, 1, 4999 + F(5, 12))
        assert solve_continuous(i).status == "CONJECTURED"
        assert verify_conjecture(i).status == CONFIRMED

    def test_takes_the_vector_as_a_generator(self):
        # each function reads v once, so a one-pass iterable must do
        i = inst(9, 1, "2.5")
        duo = solve_continuous(i).vector
        cert = dual_certificate((e for e in duo), i)
        assert isinstance(cert, DualCertificate)
        assert check_certificate((e for e in duo), i, cert) == naive_f(duo, i.x)
        structured = solve_combinatorial(inst(7, 1, "2.2")).vector
        point = dual_certificate((e for e in structured), inst(7, 1, "2.2"))
        assert naive_f(point, 1) < naive_f(structured, 1)

    def test_check_validates_the_vector_once(self, monkeypatch):
        # check_certificate scores the placement its prefix sums came from:
        # one placement of v per call, which validates it, the same bounds
        from extopt import model

        placement = model._placement
        calls = []
        monkeypatch.setattr(model, "_placement", lambda *a: calls.append("p") or placement(*a))
        checked = 0
        for n, x, w in twelfths_grid():
            i = inst(n, x, w)
            if i.r == 0:
                continue
            report = solve_continuous(i)
            cert = dual_certificate(report.vector, i)
            calls.clear()
            assert check_certificate(report.vector, i, cert) == report.objective == minimum(i)
            assert calls == ["p"]
            checked += 1
        assert checked > 3000

    def test_rejects_a_vector_off_the_budget(self):
        with pytest.raises(ValidationError):
            dual_certificate((F(1), F(0)), inst(2, 1, "1.5"))

    def test_max_flow_along_a_long_path(self):
        # a path longer than the recursion limit: the path search is iterative
        n = 5000
        graph = [[] for _ in range(n)]
        heads, caps = [], []
        for u in range(n - 1):
            graph[u].append(len(heads))
            heads.append(u + 1)
            caps.append(2)
            graph[u + 1].append(len(heads))
            heads.append(u)
            caps.append(0)
        flow, level = max_flow(graph, heads, caps, 0, n - 1)
        assert flow == 2
        assert level[0] == 0 and max(level[1:]) == -1


def chord_mu(n, m):
    """P(m) - P(m+1), where P(k) sums g(g-1)/2 over the k+1 near-equal parts of n+1."""
    def pairs(k):
        return sum(g * (g - 1) // 2 for g in near_equidistant_parts(k + 1, n + 1))
    return pairs(m) - pairs(m + 1)


class TestGreedyCertificate:
    def test_matches_the_flow_over_the_grid(self):
        for n, x, w in twelfths_grid():
            i = inst(n, x, w)
            duo = solve_continuous(i).vector
            greedy = dual_certificate(duo, i)
            mu, tight = flow_certificate(duo, x)
            assert greedy.mu == mu == chord_mu(n, i.m)
            assert sum(hi - lo + 1 for lo, hi, _ in greedy.runs) == len(tight)
            flow = replace(greedy, mu=mu, runs=tuple((k, k, e) for k, e in tight))
            assert check_certificate(duo, i, greedy) == check_certificate(duo, i, flow) is not None

    def test_verify_never_needs_the_flow(self):
        cases = [inst(n, x, w) for n, x, w in twelfths_grid()]
        # the seven instances of perfbench's verify workload
        shapes = [(6, 1, 7), (5, 1, 5), (19, 2, 11), (14, 6, 7), (11, 2, 7), (32, 8, 11), (120, 37, 4)]
        cases += [inst(n, 1, m + F(j, 12)) for n, m, j in shapes]
        for i in cases:
            assert verify_conjecture(i).status == CONFIRMED

    def test_verify_certifies_a_sparse_vector_at_n_1000(self, capsys):
        # 111,389 tight intervals: the reference flow takes tens of seconds here
        report = verify_conjecture(inst(1000, 1, "5/2"))
        assert report.status == CONFIRMED
        cert = report.certificate
        assert (cert.mu, cert.tight_count) == (chord_mu(1000, 2), 111389) == (41750, 111389)
        assert len(cert.runs) <= 1000
        # the runs expand to the chosen tight intervals that verify reports
        assert main(["verify", "-n", "1000", "-x", "1", "-w", "5/2"]) == 0
        block = json.loads(capsys.readouterr().out)["result"]["certificate"]
        chosen = {(k, e) for lo, hi, e in cert.runs for k in range(lo, hi + 1)}
        assert len(chosen) == block["alpha_one_intervals"] - block["unsaturated_intervals"]

    def test_without_the_greedy_only_a_beaten_vector_gets_a_point(self, monkeypatch):
        # verify calls the greedy by its own name, dual_certificate by the module's
        monkeypatch.setattr("extopt.oracle._greedy_certificate", lambda *args: None)
        monkeypatch.setattr("extopt.certificate._greedy_certificate", lambda *args: None)
        # no certificate for the construction: a failed self-check
        with pytest.raises(ConstructionError):
            verify_conjecture(inst(9, 1, "2.5"))
        i = inst(7, 1, "2.2")
        point = dual_certificate(solve_combinatorial(i).vector, i)
        assert point == solve_continuous(i).vector
        assert naive_f(point, i.x) == F(32, 5)

    def test_decides_as_the_reference_flow(self):
        # shuffled-layer duos, optimal, mixed with random members of the
        # slab in a random share, mostly not optimal
        rng = random.Random(15)
        decided = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(1, 12)
            x = F(rng.randint(1, 4), rng.randint(1, 3))
            i = inst(n, x, x * F(rng.randint(1, 12 * n - 1), 12))
            share = rng.choice([F(1), F(1), F(3, 4), F(1, 2), F(0)])
            v = tuple(share * d + (1 - share) * u
                      for d, u in zip(shuffled_duo(rng, i), random_lambda_member(rng, i)))
            found = dual_certificate(v, i)
            certified = isinstance(found, DualCertificate)
            assert certified == (flow_certificate(v, x) is not None)
            decided[certified] += 1
            if certified:
                assert check_certificate(v, i, found) == naive_f(v, x)
            else:
                assert found == solve_continuous(i).vector
                assert naive_f(found, x) < naive_f(v, x)
        assert min(decided.values()) > 300

    def test_beats_a_sparse_non_optimal_vector_at_n_600(self):
        # the structured optimum is not a continuous one
        i = inst(600, 1, "5/2")
        assert dual_certificate(solve_combinatorial(i).vector, i) == solve_continuous(i).vector


class TestVerifyDecision:
    def test_beaten_construction_fails_the_self_check(self, monkeypatch):
        # stand the structured optimum (33/5) in for the duo vector (32/5):
        # dual_certificate finds no certificate, only the better duo vector
        monkeypatch.setattr("extopt.oracle.solve_continuous", solve_combinatorial)
        with pytest.raises(ConstructionError):
            verify_conjecture(inst(7, 1, "2.2"))

    def test_rejected_certificate_fails_the_self_check(self, monkeypatch):
        # the checker that verify calls on the prefix sums of the solve's placement
        monkeypatch.setattr("extopt.oracle._check", lambda *args: None)
        with pytest.raises(ConstructionError):
            verify_conjecture(inst(7, 1, "2.2"))

    def test_does_its_per_vector_work_once(self, capsys, monkeypatch):
        # the solve scores its placement, and verify hands that placement's
        # one prefix to the greedy and the checker: no n-vector, no second
        # validation and no second score
        cases = [inst(n, x, w) for n, x, w in itertools.islice(twelfths_grid(), 0, None, 97)]
        cases.append(inst(1000, 1, "5/2"))
        argvs = [["verify", "-n", str(i.n), "-x", str(i.x), "-w", str(i.w)] for i in cases]
        expected = []
        for argv in argvs:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)

        def refused(*args, **kwargs):
            raise AssertionError("verify repeated its per-vector work")

        monkeypatch.setattr("extopt.report._materialize", refused)
        monkeypatch.setattr("extopt.model._placement", refused)
        monkeypatch.setattr("extopt.certificate._eval_placed", refused)
        calls = []
        monkeypatch.setattr("extopt.oracle._prefix", lambda *args: calls.append(args) or _prefix(*args))
        for i, argv, out in zip(cases, argvs, expected):
            assert verify_conjecture(i).status == CONFIRMED
            assert main(argv) == 0
            assert capsys.readouterr() == (out, "")
        assert len(calls) == 2 * len(cases)

    def test_reference_oracles_respect_the_certified_bound(self):
        i = inst(5, 1, F(17, 12))
        duo = solve_continuous(i).vector
        bound = check_certificate(duo, i, dual_certificate(duo, i))
        assert grid_search(i, duo_lattice_resolution(i))[1] == bound
        sub = projected_subgradient(i, SubgradientConfig(restarts=1, max_iters=2000),
                                    start=[float(e) for e in duo])
        assert sub.value >= float(bound) - 1e-9

    def test_default_path_runs_no_float_oracle(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a float or lattice oracle ran")

        monkeypatch.setattr("extopt.oracle.projected_subgradient", forbidden)
        monkeypatch.setattr("extopt.oracle.grid_search", forbidden)
        report = verify_conjecture(inst(6, 1, 1 + F(7, 12)))
        assert report.status == CONFIRMED


class TestVerifyConjecture:
    def test_confirmed_examples(self):
        for n, x, w in [(7, "1", "2.2"), (9, "1", "2.5"), (8, "1", "3")]:
            report = verify_conjecture(inst(n, x, w))
            assert report.status == CONFIRMED
            assert abs(report.gap) <= 1e-6
            assert report.converged

    def test_forced_early_stop_still_confirmed(self):
        # a 10-step subgradient run does not converge, but it decides nothing
        cfg = SubgradientConfig(max_iters=10)
        i = inst(2, 1, "1.5")
        assert projected_subgradient(i, cfg).converged is False
        report = verify_conjecture(i)
        assert report.status == CONFIRMED and report.converged

    def test_deterministic(self):
        a = verify_conjecture(inst(6, 1, "1.8"))
        b = verify_conjecture(inst(6, 1, "1.8"))
        assert (a.status, a.gap, a.construction.placed) == (b.status, b.gap, b.construction.placed)

    def test_never_violated_on_proven_instances(self):
        rng = random.Random(3)
        for _ in range(6):
            n = rng.randint(3, 8)
            m = rng.randint(1, n - 1)
            i = inst(n, 1, m)  # r = 0: theorem territory
            report = verify_conjecture(i)
            assert report.status == CONFIRMED

    def test_checker_is_fast_on_a_sparse_vector_at_n_3000(self):
        # the unsaturated intervals number about n²/2 here; the checker counts
        # them per start instead of listing them
        i = inst(3000, 1, "5/2")
        duo = solve_continuous(i).vector
        loose = DualCertificate(mu=10**9, runs=(), tight_count=0, unsaturated_count=0)
        start = time.perf_counter()
        assert check_certificate(duo, i, loose) is None
        assert time.perf_counter() - start < 5
