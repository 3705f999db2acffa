"""Equidistant and duo-equidistant continuous solvers."""

import itertools
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
    satisfies_interleaving,
    tau,
)
from extopt.model import as_rational, eval_f_row
from helpers import naive_y_gaps, random_lambda_member

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


class TestBuildDuo:
    def test_paper_vector(self):
        duo = build_duo(inst(7, 1, "2.2"))
        assert duo.combined == tuple(
            as_rational(e) for e in ("0", "0.2", "0.8", "0.2", "0.8", "0.2", "0")
        )
        assert duo.gap_y == (3, 2, 3)
        assert duo.gap_r == (2, 2, 2, 2)

    def test_positions_n9(self):
        i = inst(9, 1, "2.5")
        duo = build_duo(i)
        y_pos = [k + 1 for k, e in enumerate(duo.v_y) if e == i.y]
        r_pos = [k + 1 for k, e in enumerate(duo.v_r) if e == i.r]
        assert y_pos == [3, 6]
        assert r_pos == [2, 4, 7]

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
            duo = build_duo(i)
            assert sum(duo.combined, F(0)) == i.w
            assert all(0 <= e <= i.x for e in duo.combined)
            assert sum(duo.v_y, F(0)) == i.m * i.y
            assert sum(duo.v_r, F(0)) == (i.m + 1) * i.r

    def test_layer_gap_structure(self):
        # near-vanishing leftover: the y-layer keeps near-equidistant gaps with
        # the widest one bounded by the m-mass gap bound
        i = inst(11, 1, F(3) + F(1, 1000))
        duo = build_duo(i)
        pair = tau(i.n, i.m)
        assert sorted(set(duo.gap_y)) in ([pair.tau_l], [pair.tau_l, pair.tau_u], [pair.tau_u])
        positions = [k + 1 for k, e in enumerate(duo.v_y) if e > 0]
        assert len(positions) == i.m

    def test_y_layer_is_strict_or_canonical(self):
        # the y-layer either interleaves strictly with the r-layer or, when no
        # arrangement does, is the canonical short-gaps-first profile
        strict = fallback = conjectured = 0
        for n in range(2, 121):
            for m in range(0, n):
                duo = build_duo(inst(n, 1, m + F(1, 3)))
                canonical = canonical_gap_profiles(n, m)[0]
                assert sorted(duo.gap_y) == list(canonical)
                sums_y = list(itertools.accumulate(duo.gap_y))
                sums_r = list(itertools.accumulate(duo.gap_r))
                is_strict = all(sums_r[k] < sums_y[k] < sums_r[k + 1] for k in range(m))
                if is_strict:
                    strict += 1
                else:
                    assert duo.gap_y == canonical
                    fallback += 1
                # open regime: the two canonical profiles, strictly interleaved
                t1, t2 = tau(n, m), tau(n, m + 1)
                if t1.tau_u != t2.tau_u and t1.tau_l != t2.tau_l:
                    assert is_strict and duo.gap_y == canonical, (n, m)
                    conjectured += 1
        assert strict and fallback and conjectured

    def test_y_layer_matches_naive_search(self):
        # the y-layer is the lexicographically smallest strictly interleaving
        # arrangement of the canonical gaps, else the canonical profile; the
        # reference walks every arrangement, so pairs with too many are skipped
        checked = non_canonical = 0
        for n in range(1, 61):
            for m in range(0, n):
                try:
                    expected = naive_y_gaps(n, m, limit=5000)
                except ValueError:
                    continue
                canonical = canonical_gap_profiles(n, m)[0]
                duo = build_duo(inst(n, 1, m + F(1, 3)))
                assert duo.gap_y == (canonical if expected is None else expected), (n, m)
                checked += 1
                non_canonical += duo.gap_y != canonical
        assert (checked, non_canonical) == (1063, 62)

    def test_wrong_branch(self):
        with pytest.raises(ValidationError):
            build_duo(inst(9, 1, 2))


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
