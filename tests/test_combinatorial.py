"""Gap-profile machinery and the widest-gap search."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from extopt import (
    Instance,
    SizeCapError,
    ValidationError,
    brute_force_combinatorial,
    enumerate_gamma,
    eval_f,
    solve_combinatorial,
)
from extopt.combinatorial import (
    a_value,
    build_gamma_member,
    delta_search,
    h,
    middle_points,
    near_equidistant_parts,
    phi,
)
from extopt.model import as_rational
from helpers import in_upsilon, primes_between, twelfths_grid

F = Fraction


def inst(n, x, w) -> Instance:
    return Instance(n, as_rational(x), as_rational(w))


class TestMiddlePoints:
    @pytest.mark.parametrize(
        "a,b,expected", [(1, 3, (2,)), (1, 4, (2, 3)), (3, 7, (5,)), (2, 5, (3, 4))]
    )
    def test_examples(self, a, b, expected):
        assert middle_points(a, b) == expected

    def test_count_follows_parity(self):
        for a in range(1, 12):
            for b in range(a + 1, 14):
                pts = middle_points(a, b)
                assert len(pts) == (2 if (a + b) % 2 else 1)
                assert all(a <= j <= b for j in pts)

    def test_validation(self):
        for a, b in [(3, 3), (4, 2), (0, 5), (-1, 3)]:
            with pytest.raises(ValidationError):
                middle_points(a, b)


class TestH:
    @pytest.mark.parametrize("b", range(1, 15))
    def test_single_part(self, b):
        assert h(1, b) == F(b * (b - 1), 2)

    @pytest.mark.parametrize("a,b,expected", [(2, 5, 4), (3, 9, 9), (3, 10, 12), (4, 4, 0)])
    def test_examples(self, a, b, expected):
        assert h(a, b) == expected

    def test_closed_form_matches_direct_sum(self):
        for b in range(1, 80):
            for a in range(1, b + 1):
                parts = near_equidistant_parts(a, b)
                assert sum(parts) == b
                assert max(parts) - min(parts) <= 1
                direct = F(sum(p * (p - 1) for p in parts), 2)
                assert h(a, b) == direct

    def test_validation(self):
        for a, b in [(0, 3), (5, 4), (-2, 2)]:
            with pytest.raises(ValidationError):
                h(a, b)


class TestAValue:
    def test_example_n9(self):
        i = inst(9, "1.1", "2.4")
        assert (i.m, i.r) == (2, F("1/5"))
        assert a_value(i, 4) == F("62/5")

    def test_example_n7(self):
        assert a_value(inst(7, 1, "2.2"), 3) == F("33/5")

    def test_r_zero_reduction(self):
        i = inst(9, "1.1", "2.2")
        for delta in range(1, 9):
            assert a_value(i, delta) == i.x * (h(2, 10 - delta) + F(delta * (delta - 1), 2))

    def test_equals_objective_of_built_member(self):
        # the formula must match a direct evaluation of the construction
        for n, x, w in [(7, "1", "2.2"), (9, "1.1", "2.4"), (10, "3/7", "10/7"), (6, "2", "7")]:
            i = inst(n, x, w)
            tau_u = math.ceil((i.n + 1) / (i.m + 1))
            for delta in range(tau_u, i.n + 2 - i.m):
                member = build_gamma_member(i, delta)
                assert eval_f(member, i.x) == a_value(i, delta)

    def test_validation(self):
        i = inst(7, 1, "2.2")
        for delta in (0, 7, "3"):
            with pytest.raises(ValidationError):
                a_value(i, delta)
        with pytest.raises(ValidationError):
            a_value(inst(4, 1, "0.5"), 2)  # m = 0 has no gap search


class TestPhi:
    def test_examples(self):
        assert phi(inst(9, "1.1", "2.2"), 3) == F("11/5")
        assert phi(inst(7, 1, "2.2"), 1) == F("-12/5")

    def test_is_second_difference_of_a(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 20)
            x = F(rng.randint(1, 5), rng.randint(1, 4))
            w = x * rng.randint(1, n - 1) + x * F(rng.randint(0, 3), 4)
            if not 0 < w < n * x:
                continue
            i = inst(n, x, w)
            if i.m < 1:
                continue
            for delta in range(1, i.n - 1 - i.m + 1):
                assert phi(i, delta) == a_value(i, delta + 2) - a_value(i, delta)

    def test_increasing_in_delta(self):
        i = inst(15, "1.1", "3.5")
        values = [phi(i, d) for d in range(1, 14)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self):
        i = inst(7, 1, "2.2")
        for delta in (0, 7):
            with pytest.raises(ValidationError):
                phi(i, delta)


def brute_min_a(i: Instance) -> int:
    # smallest optimal widest gap by direct minimization of the formula
    tau_u = math.ceil((i.n + 1) / (i.m + 1))
    values = {d: a_value(i, d) for d in range(tau_u, i.n + 2 - i.m)}
    best = min(values.values())
    return min(d for d, v in values.items() if v == best)


class TestDeltaSearch:
    def test_example_n9(self):
        assert delta_search(inst(9, "1.1", "2.2")).delta_star == 4

    def test_example_n7(self):
        cert = delta_search(inst(7, 1, "2.2"))
        assert cert.delta_star == 3
        assert cert.delta1 == 3 and cert.delta2 == 2
        assert cert.a_delta1 == F("33/5") and cert.a_delta2 == F("34/5")

    def test_agrees_with_formula_minimum(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 18)
            x = F(rng.randint(1, 6), rng.randint(1, 4))
            w = x * rng.randint(1, n - 1) + x * F(rng.randint(0, 7), 8)
            if not 0 < w < n * x:
                continue
            i = inst(n, x, w)
            if i.m < 1:
                continue
            cert = delta_search(i)
            assert a_value(i, cert.delta_star) == a_value(i, brute_min_a(i))

    def test_r_zero_closed_form(self):
        for n in range(2, 30):
            for m in range(1, n):
                i = inst(n, 1, m)
                assert delta_search(i).delta_star == math.ceil((n + 1) / (m + 1))

    def test_monotone_in_r(self):
        for n, m in [(7, 2), (9, 2), (12, 3), (15, 4), (10, 1)]:
            x = F(1)
            previous = 0
            for k in range(0, 20):
                i = inst(n, x, m * x + x * F(k, 20))
                star = delta_search(i).delta_star
                assert star >= previous
                previous = star

    def test_window_size_bound(self):
        # candidate windows stay small: at most ceil(4/x)/2 + 1 per parity class
        for n, x, w in [(9, "1.1", "2.2"), (7, "1", "2.2"), (20, "1/2", "4.25"), (15, "3", "7")]:
            i = inst(n, x, w)
            cert = delta_search(i)
            lo, hi = cert.window
            ints = [d for d in range(math.ceil(lo), math.floor(hi) + 1)]
            bound = math.ceil(4 / i.x) / 2 + 1
            for parity in (0, 1):
                assert len([d for d in ints if d % 2 == parity]) <= bound

    def test_large_n_candidates_are_first_sign_changes(self):
        # each class candidate is the first delta of its parity with phi > 0,
        # or the class top when phi(top - 2) <= 0; delta* is the better one
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(100, 5000)
            x = F(rng.randint(1, 40), rng.randint(1, 13))
            m = rng.randint(1, n - 1)
            i = inst(n, x, x * (m + F(rng.randint(0, 11), 12)))
            cert = delta_search(i)
            hi = n + 1 - m
            for parity, d in ((1, cert.delta1), (2, cert.delta2)):
                top = hi - (hi - parity) % 2
                assert d % 2 == parity % 2 and parity <= d <= top
                if d < top:
                    assert phi(i, d) > 0
                below = d - 2
                assert below < parity or phi(i, below) <= 0
            assert (cert.a_delta1, cert.a_delta2) == (
                a_value(i, cert.delta1), a_value(i, cert.delta2)
            )
            assert a_value(i, cert.delta_star) == min(cert.a_delta1, cert.a_delta2)

    @staticmethod
    def scan_class(i: Instance, parity: int) -> int:
        # linear reference: the first delta of the class whose second difference,
        # from the Fraction formula of a_value, is positive, else the class top;
        # every value it reads is checked against a_value and phi
        def a(d):
            return i.x * (h(i.m, i.n + 1 - d) + F(d * (d - 1), 2)) - i.r * (d // 2) * ((d + 1) // 2)

        top = i.n + 1 - i.m
        top -= (top - parity) % 2
        d, a_d = parity, a(parity)
        assert a_value(i, d) == a_d
        while d < top:
            a_next = a(d + 2)
            assert a_value(i, d + 2) == a_next
            assert phi(i, d) == a_next - a_d
            if a_next - a_d > 0:
                break
            d, a_d = d + 2, a_next
        return d

    def check_against_scan(self, i: Instance):
        cert = delta_search(i)
        assert (cert.delta1, cert.delta2) == (self.scan_class(i, 1), self.scan_class(i, 2))
        assert (cert.a_delta1, cert.a_delta2) == (a_value(i, cert.delta1), a_value(i, cert.delta2))

    @pytest.mark.parametrize("x", [F(1), F(7, 3), F(2**20 + 1, 2**20)], ids=["1", "7/3", "2^20+1"])
    def test_integer_search_matches_linear_scan(self, x):
        for n in range(2, 41):
            for m in range(1, n):
                for k in range(12):
                    self.check_against_scan(Instance(n, x, m * x + F(k, 12)))

    def test_integer_search_beyond_64_bits(self):
        # x and r with coprime denominators near 10^6: the scaled integers of
        # the search pass 2^64
        primes = primes_between(999_000, 1_000_000)
        rng = random.Random(64)
        for n in range(2, 41):
            for m in range(1, n):
                p, q1, q2, q3 = rng.sample(primes, 4)
                x = F(rng.randint(p, 5 * p), p)
                r = F(rng.randint(1, q1 * q2 * q3 - 1), q1 * q2 * q3)
                i = Instance(n, x, m * x + r * x)
                assert math.lcm(i.x.denominator, i.r.denominator) > 2**64
                self.check_against_scan(i)

    @pytest.mark.parametrize(
        "n,x,w,expected",
        [(2, "1", "13/12", True), (9, "1.1", "2.2", False), (7, "1", "2.2", False)],
    )
    def test_used_fallback_reports_window_miss(self, n, x, w, expected):
        assert delta_search(inst(n, x, w)).used_fallback is expected

    def test_m_zero_is_rejected(self):
        with pytest.raises(ValidationError):
            delta_search(inst(4, 1, "0.5"))


class TestBuildGammaMember:
    def test_examples(self):
        assert build_gamma_member(inst(5, 1, 1), 3) == (0, 0, 1, 0, 0)
        member = build_gamma_member(inst(9, "1.1", "2.4"), 4)
        xq = F("11/10")
        positions = [idx + 1 for idx, e in enumerate(member) if e == xq]
        gaps = []
        prev = 0
        for p in positions:
            gaps.append(p - prev)
            prev = p
        gaps.append(10 - prev)
        assert sorted(gaps) == [3, 3, 4]
        r_pos = [idx + 1 for idx, e in enumerate(member) if e == F("1/5")]
        assert r_pos == [2]  # middle of the leading widest stretch {1,2,3}

    def test_member_is_in_upsilon_and_matches_formula(self):
        for n, x, w in [(7, "1", "2.2"), (9, "1.1", "2.4"), (12, "1/2", "3.25")]:
            i = inst(n, x, w)
            tau_u = math.ceil((i.n + 1) / (i.m + 1))
            for delta in range(tau_u, i.n + 2 - i.m):
                member = build_gamma_member(i, delta)
                assert in_upsilon(member, i)
                assert eval_f(member, i.x) == a_value(i, delta)

    def test_m_zero_places_leftover_at_middle(self):
        assert build_gamma_member(inst(4, 1, "0.5"), 5) == (0, F("1/2"), 0, 0)
        assert build_gamma_member(inst(1, 1, "0.5"), 2) == (F("1/2"),)

    def test_infeasible_delta(self):
        from extopt import ConstructionError

        with pytest.raises(ConstructionError):
            build_gamma_member(inst(5, 1, 1), 7)  # too wide for the budget
        with pytest.raises(ConstructionError):
            build_gamma_member(inst(9, 1, "2.2"), 2)  # remainder gaps exceed delta


class TestEnumerateGamma:
    def test_unique_member(self):
        assert enumerate_gamma(inst(5, 1, 1), 3) == [(0, 0, 1, 0, 0)]

    def test_paper_vector_is_member_and_all_tie(self):
        i = inst(7, 1, "2.2")
        members = enumerate_gamma(i, 3)
        v1 = tuple(as_rational(e) for e in ("0", "1", "0", "0", "1", "0.2", "0"))
        assert v1 in members
        values = {eval_f(m, i.x) for m in members}
        assert values == {F("33/5")}
        assert all(in_upsilon(m, i) for m in members)

    def test_m_zero_two_middles(self):
        i = inst(4, 1, "0.5")
        assert enumerate_gamma(i, 5) == [
            (0, 0, F("1/2"), 0),
            (0, F("1/2"), 0, 0),
        ]

    def test_lexicographic_and_deduplicated(self):
        members = enumerate_gamma(inst(9, 1, "2.2"), 4)
        assert members == sorted(set(members))

    def test_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_gamma(inst(25, 1, 3), 9, cap=20)

    def test_convex_combinations_stay_optimal_when_r_zero(self):
        # with r = 0 every hull point of the widest-gap optima is a continuous
        # minimizer, so the value is flat across convex combinations
        rng = random.Random(23)
        for n, w in [(7, 2), (8, 3), (10, 2), (9, 3)]:
            i = inst(n, 1, w)
            star = delta_search(i).delta_star
            members = enumerate_gamma(i, star)
            value = eval_f(members[0], i.x)
            for _ in range(12):
                u = rng.choice(members)
                v = rng.choice(members)
                alpha = F(rng.randint(0, 6), 6)
                mix = tuple(alpha * a + (1 - alpha) * b for a, b in zip(u, v))
                assert eval_f(mix, i.x) == value

    def test_convex_combinations_bounded_when_r_positive(self):
        # mixing optima with r > 0 can dip strictly below the member value
        # (the hull leaves the discrete domain), but never below the
        # continuous optimum
        from extopt import solve_continuous

        rng = random.Random(29)
        for n, x, w in [(7, "1", "2.2"), (8, "1", "3.5"), (10, "1", "2.5")]:
            i = inst(n, x, w)
            star = delta_search(i).delta_star
            members = enumerate_gamma(i, star)
            value = eval_f(members[0], i.x)
            floor = solve_continuous(i).objective
            for _ in range(12):
                u = rng.choice(members)
                v = rng.choice(members)
                alpha = F(rng.randint(0, 6), 6)
                mix = tuple(alpha * a + (1 - alpha) * b for a, b in zip(u, v))
                assert floor <= eval_f(mix, i.x) <= value

    def test_convex_combination_dip_witness(self):
        # explicit pair of widest-gap optima whose midpoint scores strictly less
        i = inst(7, 1, "2.2")
        members = enumerate_gamma(i, 3)
        u = tuple(as_rational(e) for e in ("0", "1", "0.2", "0", "1", "0", "0"))
        v = tuple(as_rational(e) for e in ("0", "0", "1", "0.2", "0", "1", "0"))
        assert u in members and v in members
        mid = tuple((a + b) / 2 for a, b in zip(u, v))
        assert eval_f(u, 1) == eval_f(v, 1) == F("33/5")
        assert eval_f(mid, 1) == F("13/2")


def _is_gamma_member(v, i: Instance, delta: int) -> bool:
    # definition-based membership check, independent of enumerate_gamma
    x, r, n, m = i.x, i.r, i.n, i.m
    x_pos = [k + 1 for k, e in enumerate(v) if e == x]
    r_pos = [k + 1 for k, e in enumerate(v) if e == r] if r > 0 else []
    zeros = sum(1 for e in v if e == 0)
    if len(x_pos) != m or zeros + len(x_pos) + len(r_pos) != n:
        return False
    if r > 0 and len(r_pos) != 1:
        return False
    boundaries = [0] + x_pos + [n + 1]
    gaps = [b - a for a, b in zip(boundaries, boundaries[1:])]
    if max(gaps) != delta:
        return False
    if r == 0:
        candidates = range(len(gaps))
    else:
        j = r_pos[0]
        t = max(k for k in range(len(gaps)) if boundaries[k] < j)
        if boundaries[t + 1] <= j:
            return False
        lo, hi = boundaries[t] + 1, boundaries[t + 1] - 1
        if not (lo + hi) // 2 <= j <= (lo + hi + 1) // 2:
            return False
        candidates = [t]
    for t in candidates:
        if gaps[t] != delta:
            continue
        rest = gaps[:t] + gaps[t + 1 :]
        if not rest or max(rest) - min(rest) <= 1:
            return True
    return False


def _definition_members(i: Instance) -> dict[int, list[tuple[Fraction, ...]]]:
    # for each widest gap delta, every structured placement satisfying the
    # definition, found by filtering the raw candidate space, in
    # lexicographic order
    candidates = set()
    for x_pos in itertools.combinations(range(i.n), i.m):
        base = [F(0)] * i.n
        for p in x_pos:
            base[p] = i.x
        if i.r > 0:
            for j in range(i.n):
                if j in x_pos:
                    continue
                cand = list(base)
                cand[j] = i.r
                candidates.add(tuple(cand))
        else:
            candidates.add(tuple(base))
    return {delta: sorted(c for c in candidates if _is_gamma_member(c, i, delta))
            for delta in range(1, i.n + 2)}


class TestEnumerateAgainstDefinition:
    @pytest.mark.parametrize(
        "n,x,w", [(7, "1", "2.2"), (8, "1", "3"), (6, "3/7", "10/7"), (9, "1.1", "2.4"), (5, "1", "0.5")]
    )
    def test_matches_definition_filter(self, n, x, w):
        i = inst(n, x, w)
        for delta, expected in _definition_members(i).items():
            assert enumerate_gamma(i, delta) == expected

    def test_matches_definition_filter_on_a_grid_sample(self):
        # a seeded sample of the n <= 8 twelfths grid, with an m = 0 instance
        # and one where every widest stretch is a single slot (n = 5, w = 5/2,
        # delta = 2: the leftover may sit in any of the three gaps of 2)
        grid = [case for case in twelfths_grid() if case[0] <= 8]
        cases = random.Random(31).sample(grid, 200) + [(5, F(1), F(5, 2)), (6, F(3, 7), F(1, 7))]
        assert any(Instance(*case).m == 0 for case in cases)
        single = inst(5, 1, "5/2")
        assert enumerate_gamma(single, 2) == [
            (0, 1, 0, 1, F(1, 2)), (0, 1, F(1, 2), 1, 0), (F(1, 2), 1, 0, 1, 0),
        ]
        for case in cases:
            i = Instance(*case)
            for delta, expected in _definition_members(i).items():
                assert enumerate_gamma(i, delta) == expected, (case, delta)


class TestSolveCombinatorial:
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_m_zero_solve_checks_its_score(self, shift, monkeypatch):
        # a mass moved off the middle of n = 7 slots scores above the closed
        # form x·n(n+1)/2 - r·4·4, and the solve refuses it
        from extopt import ConstructionError, combinatorial

        original = combinatorial._gamma_placed

        def shifted(i, delta):
            # the one mass is one token: move it by its zeros before
            ((((zeros, code),), count),), values = original(i, delta)
            return ((((zeros + shift, code),), count),), values

        monkeypatch.setattr(combinatorial, "_gamma_placed", shifted)
        with pytest.raises(ConstructionError):
            solve_combinatorial(inst(7, 1, "0.5"))

    def test_example_values(self):
        assert solve_combinatorial(inst(7, 1, "2.2")).objective == F("33/5")
        assert solve_combinatorial(inst(9, "1.1", "2.2")).objective == F("66/5")

    def test_m_zero_branch(self):
        report = solve_combinatorial(inst(4, 1, "0.5"))
        assert report.vector == (0, F("1/2"), 0, 0)
        assert report.delta_star == 5
        assert report.objective == brute_force_combinatorial(inst(4, 1, "0.5"))[1]

    def test_matches_brute_force_on_small_grid(self):
        for x in (F(1), F("3/7"), F("11/10")):
            for n in range(2, 9):
                for m in range(0, min(3, n - 1) + 1):
                    for num in (0, 1, 2, 3):
                        w = m * x + x * F(num, 4)
                        if not 0 < w < n * x:
                            continue
                        i = inst(n, x, w)
                        report = solve_combinatorial(i)
                        _, best = brute_force_combinatorial(i)
                        assert report.objective == best
                        assert in_upsilon(report.vector, i)
