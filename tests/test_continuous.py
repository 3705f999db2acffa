"""Equidistant and duo-equidistant continuous solvers."""

import random
from fractions import Fraction

import pytest

from extopt import (
    CONJECTURED,
    PROVEN,
    Instance,
    ValidationError,
    eval_f,
    solve_combinatorial,
    solve_continuous,
    solve_continuous_integer,
)
from extopt.continuous import (
    build_duo,
    canonical_gap_profiles,
    closed_form_objective,
    minimum,
    satisfies_interleaving,
    tau,
)
from extopt.model import _materialize, as_rational, eval_f_row
from helpers import (
    assert_placement, bisect_f, duo_layers, expand, masses_of, placement, random_lambda_member,
    twelfths_grid,
)

F = Fraction


def inst(n, x, w) -> Instance:
    return Instance(n, as_rational(x), as_rational(w))


class TestTau:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(7, 2, (3, 2)), (8, 3, (3, 2)), (5, 5, (1, 1)), (9, 2, (4, 3)), (9, 0, (10, 10))],
    )
    def test_examples(self, n, m, expected):
        pair = tau(n, m)
        assert (pair.tau_u, pair.tau_l) == expected

    def test_pair_invariants(self):
        for n in range(1, 40):
            for m in range(0, n + 1):
                pair = tau(n, m)
                assert pair.tau_u - pair.tau_l in (0, 1)
                assert pair.tau_l <= F(n + 1, m + 1) <= pair.tau_u

    def test_tau_u_nonincreasing_in_m(self):
        for n in range(2, 30):
            values = [tau(n, m).tau_u for m in range(0, n + 1)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            tau(0, 0)
        with pytest.raises(ValidationError):
            tau(5, 6)


class TestSolveContinuousInteger:
    def test_example_values(self):
        assert solve_continuous_integer(inst(9, "1.1", "2.2")).objective == F("66/5")
        report = solve_continuous_integer(inst(5, 1, 1))
        assert report.vector == (0, 0, 1, 0, 0)
        assert report.objective == 6
        assert solve_continuous_integer(inst(8, 1, 3)).objective == 6

    def test_is_the_continuous_solve_at_r_zero(self):
        # r = 0 is PROVEN even where the tau pairs of m and m+1 share no bound
        apart = 0
        for n, x, w in twelfths_grid():
            i = inst(n, x, w)
            if i.r:
                continue
            report = solve_continuous_integer(i)
            assert report == solve_continuous(i)
            assert (report.status, report.method) == (PROVEN, "continuous/equidistant")
            t1, t2 = report.tau_main, report.tau_next
            apart += t1.tau_u != t2.tau_u and t1.tau_l != t2.tau_l
        assert apart > 0

    def test_wrong_branch_error(self):
        with pytest.raises(ValidationError, match="solve_continuous"):
            solve_continuous_integer(inst(7, 1, "2.2"))

    def test_row_structure(self):
        # rows below the widest gap are pinned to (n+1-j)x - jw; the rest vanish
        for n, x, w in [(9, "1.1", "2.2"), (8, "1", "3"), (13, "1/2", "2"), (5, "1", "1")]:
            i = inst(n, x, w)
            report = solve_continuous_integer(i)
            tau_u = report.tau_main.tau_u
            for j in range(1, i.n + 1):
                row = eval_f_row(report.vector, i.x, j)
                if j <= tau_u - 1:
                    assert row == (i.n + 1 - j) * i.x - j * i.w
                else:
                    assert row == 0

    def test_row_lower_bound(self):
        rng = random.Random(41)
        for n, x, w in [(9, "1.1", "2.2"), (8, "1", "3"), (10, "1", "4")]:
            i = inst(n, x, w)
            tau_u = tau(i.n, i.m).tau_u
            for _ in range(40):
                v = random_lambda_member(rng, i)
                for j in range(1, tau_u):
                    assert eval_f_row(v, i.x, j) >= (i.n + 1 - j) * i.x - j * i.w

    def test_closed_form_sweep(self):
        for x in (F(1), F("11/10"), F("3/7")):
            for n in range(2, 21):
                for m in range(1, n):
                    i = inst(n, x, m * x)
                    report = solve_continuous_integer(i)
                    tau_u = tau(n, m).tau_u
                    expected = (tau_u - 1) * (x * (n + 1) - (i.w + x) * F(tau_u, 2))
                    assert report.objective == expected
                    assert closed_form_objective(i, tau_u) == expected


class TestCanonicalGapProfiles:
    def test_example_n7(self):
        gaps_y, gaps_r = canonical_gap_profiles(7, 2)
        assert gaps_y == (2, 3, 3)
        assert gaps_r == (2, 2, 2, 2)
        assert satisfies_interleaving(gaps_y, gaps_r)

    def test_example_n9(self):
        gaps_y, gaps_r = canonical_gap_profiles(9, 2)
        assert gaps_y == (3, 3, 4)
        assert gaps_r == (2, 2, 3, 3)
        assert satisfies_interleaving(gaps_y, gaps_r)

    def test_equal_levels_case(self):
        # when both layers share the same base gap the condition is immediate
        gaps_y, gaps_r = canonical_gap_profiles(9, 3)
        assert tau(9, 3).tau_l == tau(9, 4).tau_l == 2
        assert satisfies_interleaving(gaps_y, gaps_r)

    def test_sums_and_interleaving_wide_range(self):
        for n in range(2, 61):
            for m in range(1, n):
                gaps_y, gaps_r = canonical_gap_profiles(n, m)
                assert len(gaps_y) == m + 1 and sum(gaps_y) == n + 1
                assert len(gaps_r) == m + 2 and sum(gaps_r) == n + 1
                assert satisfies_interleaving(gaps_y, gaps_r)

    def test_m_zero_supported(self):
        gaps_y, gaps_r = canonical_gap_profiles(4, 0)
        assert gaps_y == (5,)
        assert gaps_r == (2, 3)


def added(i):
    # the vector of the placement of the reference layers' sum, from its
    # nonzero entries in ascending order
    v_y, v_r = duo_layers(i)
    pairs = [(k, a + b) for k, (a, b) in enumerate(zip(v_y, v_r)) if a or b]
    return _materialize(i.n, placement(pairs))


def built(i):
    # the vector of `build_duo`'s placement, checked for form and written
    # out by the runs' slices and token by token alike
    placed = build_duo(i)
    assert_placement(i.n, placed)
    vector = _materialize(i.n, placed)
    assert vector == expand(i.n, placed)
    return vector


def gaps(layer):
    # the gap profile of a layer: distances between 1-based mass slots
    ends = [0] + [k + 1 for k, e in enumerate(layer) if e] + [len(layer) + 1]
    return tuple(b - a for a, b in zip(ends, ends[1:]))


class TestBuildDuo:
    def test_paper_vector(self):
        i = inst(7, 1, "2.2")
        # values (y, r, y + r): slot 1 is shared, so it holds y + r = x
        # one run, written once: y + r at slot 1, then r, y, r at 3, 4, 5
        assert build_duo(i) == (((((1, 2), (1, 1), (0, 0), (0, 1)), 1),), (F(4, 5), F(1, 5), F(1)))
        assert built(i) == added(i) == (0, 1, 0, F(1, 5), F(4, 5), F(1, 5), 0)
        v_y, v_r = duo_layers(i)
        assert gaps(v_y) == (2, 3, 3)
        assert gaps(v_r) == (2, 2, 2, 2)

    def test_positions_n9(self):
        i = inst(9, 1, "2.5")
        v_y, v_r = duo_layers(i)
        assert [k + 1 for k, e in enumerate(v_y) if e == i.y] == [3, 6]
        assert [k + 1 for k, e in enumerate(v_r) if e == i.r] == [2, 4, 7]
        assert built(i) == added(i)

    def test_feasibility_random_instances(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(2, 24)
            x = F(rng.randint(1, 6), rng.randint(1, 4))
            m = rng.randint(0, n - 1)
            r = x * F(rng.randint(1, 7), 8)
            w = m * x + r
            if not 0 < w < n * x:
                continue
            i = inst(n, x, w)
            placed = build_duo(i)
            assert built(i) == added(i)
            _, masses = masses_of(placed)
            assert sum(masses, F(0)) == i.w
            assert all(0 < e <= i.x for e in masses)
            assert placed[1] == (i.y, i.r, i.x)
            v_y, v_r = duo_layers(i)
            assert sum(v_y, F(0)) == i.m * i.y
            assert sum(v_r, F(0)) == (i.m + 1) * i.r

    def test_layer_gap_structure(self):
        # near-vanishing leftover: the y-layer keeps near-equidistant gaps with
        # the widest one bounded by the m-mass gap bound
        i = inst(11, 1, F(3) + F(1, 1000))
        assert built(i) == added(i)
        v_y, _ = duo_layers(i)
        pair = tau(i.n, i.m)
        assert sorted(set(gaps(v_y))) in ([pair.tau_l], [pair.tau_l, pair.tau_u], [pair.tau_u])
        assert len(gaps(v_y)) == i.m + 1

    def test_layers_are_the_canonical_profiles(self):
        # both layers sit at the prefix sums of their canonical profiles,
        # whether or not those interleave strictly
        for n in range(2, 121):
            for m in range(0, n):
                i = inst(n, 1, m + F(1, 3))
                assert built(i) == added(i), (n, m)
                v_y, v_r = duo_layers(i)
                assert (gaps(v_y), gaps(v_r)) == canonical_gap_profiles(n, m), (n, m)

    def test_layers_add_up_at_large_n(self):
        # the merge finds the shared slots from the few points where the
        # layers' steps change: dense layers share most slots, sparse few
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(150, 12000)
            m = rng.choice([rng.randint(0, 3), rng.randint(n // 4, n // 2), rng.randint(0, n - 1)])
            i = inst(n, 1, m + F(rng.randint(1, 11), 12))
            assert built(i) == added(i), (n, m)

    def test_wrong_branch(self):
        with pytest.raises(ValidationError):
            build_duo(inst(9, 1, 2))


class TestMinimum:
    def test_chord_is_the_objective_on_the_grid(self):
        # the objective is scored again by an independent O(n log n) sum
        for n, x, w in twelfths_grid():
            i = inst(n, x, w)
            rep = solve_continuous(i)
            assert minimum(i) == rep.objective == bisect_f(rep.vector, x), (n, x, w)

    def test_chord_is_the_objective_up_to_n_100000(self):
        rng = random.Random(18)
        for n in (10**3, 10**4, 10**5):
            for _ in range(3):
                w = F(rng.randrange(1, 12 * n), 12)
                i = inst(n, 1, w)
                rep = solve_continuous(i)
                assert minimum(i) == rep.objective == eval_f(rep.vector, 1), (n, w)


class TestSolveContinuous:
    def test_example_statuses(self):
        rep = solve_continuous(inst(7, 1, "2.2"))
        assert (rep.status, rep.objective) == (PROVEN, F("32/5"))
        rep = solve_continuous(inst(9, "1.1", "2.2"))
        assert (rep.status, rep.objective) == (PROVEN, F("66/5"))
        rep = solve_continuous(inst(9, 1, "2.5"))
        assert rep.status == CONJECTURED
        assert (rep.tau_main.tau_u, rep.tau_next.tau_u) == (4, 3)
        assert (rep.tau_main.tau_l, rep.tau_next.tau_l) == (3, 2)

    def test_proven_matches_closed_form(self):
        for n in range(2, 26):
            for num in range(1, 4 * n):
                w = F(num, 4)
                i = inst(n, 1, w)
                rep = solve_continuous(i)
                t1, t2 = tau(n, i.m), tau(n, i.m + 1)
                if i.r == 0 or t1.tau_u == t2.tau_u or t1.tau_l == t2.tau_l:
                    assert rep.status == PROVEN
                    assert rep.objective == closed_form_objective(i, t1.tau_u)
                else:
                    assert rep.status == CONJECTURED

    def test_alternating_regime_hits_simple_floor(self):
        # once m is at least half of n the optimum collapses to n*x - w
        for n, w in [(8, "4.5"), (9, "4.25"), (10, "5.5"), (6, "3.75")]:
            i = inst(n, 1, w)
            rep = solve_continuous(i)
            assert rep.status == PROVEN
            assert rep.objective == i.n * i.x - i.w

    def test_dominates_combinatorial(self):
        for n in range(2, 13):
            for num in range(1, 2 * n):
                w = F(num, 2)
                if not 0 < w < n:
                    continue
                i = inst(n, 1, w)
                cont = solve_continuous(i)
                comb = solve_combinatorial(i)
                assert cont.objective <= comb.objective

    def test_strict_dominance_on_example(self):
        i = inst(7, 1, "2.2")
        assert solve_continuous(i).objective < solve_combinatorial(i).objective

    def test_m_zero_is_conjectured_middle_point(self):
        rep = solve_continuous(inst(4, 1, "0.5"))
        assert rep.status == CONJECTURED
        assert rep.vector == (0, F("1/2"), 0, 0)

    def test_single_slot_instance(self):
        rep = solve_continuous(inst(1, 1, "0.75"))
        assert rep.vector == (F("3/4"),)
        assert rep.objective == F("1/4")
        comb = solve_combinatorial(inst(1, 1, "0.75"))
        assert comb.vector == (F("3/4"),) and comb.objective == F("1/4")

    def test_duo_objective_via_eval(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(2, 18)
            m = rng.randint(0, n - 1)
            r = F(rng.randint(1, 5), 6)
            w = m + r
            if not 0 < w < n:
                continue
            rep = solve_continuous(inst(n, 1, w))
            assert rep.objective == eval_f(rep.vector, 1)

    def test_many_masses(self):
        # m = 5000 masses with a leftover: the y-gap arrangement must not
        # depend on the recursion limit
        i = inst(15001, 1, F(10001, 2))
        assert i.m == 5000
        rep = solve_continuous(i)
        assert sum(rep.vector, F(0)) == i.w
        assert all(0 <= e <= i.x for e in rep.vector)
        assert rep.objective == eval_f(rep.vector, i.x)
