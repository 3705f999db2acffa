"""Core types, the shortfall objective, and the queueing moment formulas."""

import random
from fractions import Fraction

import pytest

from extopt import (
    Instance,
    QueueParams,
    StabilityError,
    TrivialRegimeError,
    ValidationError,
    eval_f,
    externality_mean,
    externality_variance,
)
from extopt.model import (
    as_rational,
    eval_f_row,
    is_in_lambda,
    is_in_upsilon,
    strict_pair_sum,
    supremum_vector,
)
from helpers import (
    naive_f,
    naive_row,
    naive_strict_pairs,
    primes_between,
    random_coprime_vector,
    random_lambda_member,
    random_vector,
)

F = Fraction

V1 = ("0", "1", "0", "0", "1", "0.2", "0")
V2 = ("0", "0.2", "0.8", "0.2", "0.8", "0.2", "0")


class TestRationalParsing:
    def test_decimal_strings_are_exact(self):
        assert as_rational("2.2") == F(11, 5)
        assert as_rational("1.1") == F(11, 10)
        assert as_rational("11/10") == F(11, 10)
        assert as_rational(3) == F(3)

    def test_floats_are_refused(self):
        with pytest.raises(ValidationError):
            as_rational(2.2)

    def test_garbage_is_refused(self):
        for bad in ("x", "1/0", "", None):
            with pytest.raises(ValidationError):
                as_rational(bad)


class TestInstance:
    def test_derived_quantities(self):
        inst = Instance(7, 1, F("11/5"))
        assert (inst.m, inst.r, inst.y) == (2, F("1/5"), F("4/5"))

    @pytest.mark.parametrize("n,x,w", [(9, "1.1", "2.4"), (5, "3/7", "1"), (2, "2", "1")])
    def test_derived_invariants(self, n, x, w):
        inst = Instance(n, as_rational(x), as_rational(w))
        assert 0 <= inst.m < inst.n
        assert inst.w == inst.m * inst.x + inst.r
        assert 0 <= inst.r < inst.x
        assert 0 < inst.y <= inst.x
        assert inst.y + inst.r == inst.x

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            Instance(0, 1, F("1/2"))
        with pytest.raises(ValidationError):
            Instance(3, 0, 1)
        with pytest.raises(ValidationError):
            Instance(3, 1, 0)

    def test_rejects_trivial_regime(self):
        with pytest.raises(TrivialRegimeError):
            Instance(3, 1, 3)
        with pytest.raises(TrivialRegimeError):
            Instance(3, 1, 5)


class TestEvalF:
    @pytest.mark.parametrize(
        "v,x,expected",
        [
            (V1, 1, F("33/5")),
            (V2, 1, F("32/5")),
            (("0",) * 6, "3/2", F("3/2") * 21),
            (("1",) * 5, 1, 0),
            (("2.2", "0", "0", "0", "0", "0", "0"), 1, 21),
        ],
    )
    def test_examples(self, v, x, expected):
        assert eval_f(v, x) == expected
        assert naive_f(v, x) == expected

    def test_matches_naive_on_random_vectors(self):
        rng = random.Random(20250809)
        for _ in range(80):
            n = rng.randint(1, 10)
            x = F(rng.randint(1, 6), rng.randint(1, 4))
            v = random_vector(rng, n, x)
            assert eval_f(v, x) == naive_f(v, x)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            eval_f((), 1)
        with pytest.raises(ValidationError):
            eval_f(("1", "-1"), 1)
        with pytest.raises(ValidationError):
            eval_f(("1",), 0)

    def test_monotone_nonincreasing_per_coordinate(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 8)
            x = F(rng.randint(1, 4), rng.randint(1, 3))
            v = list(random_vector(rng, n, x))
            i = rng.randrange(n)
            bumped = list(v)
            bumped[i] += F(rng.randint(1, 5), rng.randint(1, 5))
            assert eval_f(bumped, x) <= eval_f(v, x)

    def test_convexity_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 8)
            x = F(rng.randint(1, 4), rng.randint(1, 3))
            u = random_vector(rng, n, x)
            v = random_vector(rng, n, x)
            alpha = F(rng.randint(0, 8), 8)
            mix = tuple(alpha * a + (1 - alpha) * b for a, b in zip(u, v))
            assert eval_f(mix, x) <= alpha * eval_f(u, x) + (1 - alpha) * eval_f(v, x)


class TestEvalFRow:
    def test_singleton_row_example(self):
        assert eval_f_row(V1, 1, 1) == F("24/5")
        assert naive_row(V1, 1, 1) == F("24/5")

    def test_full_row_is_zero_when_budget_covers_x(self):
        assert eval_f_row(V1, 1, 7) == 0
        assert eval_f_row(("0.5", "0.5", "0.5"), 1, 3) == 0

    def test_zero_vector_row(self):
        assert eval_f_row(("0",) * 5, 2, 3) == 6

    def test_row_decomposition(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 9)
            x = F(rng.randint(1, 5), rng.randint(1, 3))
            v = random_vector(rng, n, x)
            rows = sum((eval_f_row(v, x, j) for j in range(1, n + 1)), F(0))
            assert rows == eval_f(v, x)

    def test_matches_naive(self):
        rng = random.Random(63)
        for _ in range(40):
            n = rng.randint(2, 9)
            x = F(rng.randint(1, 5), rng.randint(1, 3))
            v = random_vector(rng, n, x)
            j = rng.randint(1, n)
            assert eval_f_row(v, x, j) == naive_row(v, x, j)

    def test_rejects_bad_row(self):
        for j in (0, 8, -1, "2"):
            with pytest.raises(ValidationError):
                eval_f_row(V1, 1, j)


class TestStrictPairSum:
    def test_diagonal_identity(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 9)
            x = F(rng.randint(1, 5), rng.randint(1, 3))
            v = random_vector(rng, n, x)
            diagonal = sum((max(x - e, F(0)) for e in v), F(0))
            assert eval_f(v, x) == diagonal + strict_pair_sum(v, x)
            assert strict_pair_sum(v, x) == naive_strict_pairs(v, x)

    @pytest.mark.parametrize("shared_zero", [True, False], ids=["shared-zero", "distinct-zeros"])
    def test_sparse_vectors_match_naive(self, shared_zero):
        # long zero runs around 0-4 masses; the zeros are either one Fraction(0)
        # object repeated or a fresh object each, as the variance command and
        # a parsed vector give them
        rng = random.Random(2024)
        q = QueueParams(F(1, 3), F(2), F(7))
        cases = [(n, k) for n in (1, 2, 6, 19, 47) for k in range(min(n, 4) + 1)]
        cases.append((200, 4 if shared_zero else 3))
        for n, k in cases:
            x = F(rng.randint(1, 30), rng.randint(1, 9))
            zero = F(0)
            v = [zero if shared_zero else F(0) for _ in range(n)]
            for i in rng.sample(range(n), k):
                v[i] = x * F(rng.randint(1, 15), 8)  # below, at and above x
            pairs = naive_strict_pairs(v, x)
            assert strict_pair_sum(v, x) == pairs
            factor = q.lam * q.mu2 / (1 - q.rho) ** 3
            assert externality_variance(q, v, x) == factor * (n * x + 2 * pairs)


class TestLargeDenominators:
    # pairwise coprime entry denominators near 10^6 and an x over 2^20 make
    # the common denominator of the integer kernel huge
    PRIMES = primes_between(999_000, 1_000_000)
    X_DENOM = 2**20

    def random_case(self, rng):
        n = rng.randint(1, 10)
        x = F(rng.randint(self.X_DENOM, 5 * self.X_DENOM), self.X_DENOM)
        return random_coprime_vector(rng, self.PRIMES, n, x), x

    def test_kernel_matches_naive(self):
        rng = random.Random(1_000_003)
        for _ in range(40):
            v, x = self.random_case(rng)
            assert eval_f(v, x) == naive_f(v, x)
            assert strict_pair_sum(v, x) == naive_strict_pairs(v, x)
            for j in range(1, len(v) + 1):
                assert eval_f_row(v, x, j) == naive_row(v, x, j)

    def test_homogeneity(self):
        rng = random.Random(424242)
        for _ in range(40):
            v, x = self.random_case(rng)
            c = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert eval_f([c * e for e in v], c * x) == c * eval_f(v, x)


class TestQueueFormulas:
    def test_mean_examples(self):
        assert externality_mean(QueueParams(F("1/2"), 1, 2), 4, 2) == 16
        assert externality_mean(QueueParams(0, 1, 1), 3, 1) == 3
        assert externality_mean(QueueParams(F("1/4"), 2, 4), 10, F("1/2")) == 10

    def test_variance_examples(self):
        q = QueueParams(F("1/2"), 1, 2)
        assert externality_variance(q, ("1", "1"), 1) == 16
        assert externality_variance(q, ("0", "0"), 1) == 32
        assert externality_variance(q, V1, 1) == F("424/5")

    def test_variance_bracket_excludes_diagonal(self):
        # strict sum of V1 is f minus the singleton shortfalls: 6.6 - 4.8
        assert strict_pair_sum(V1, 1) == F("9/5")

    def test_variance_decoupling(self):
        # equal pair shortfall implies equal variance, whatever the diagonal does
        q = QueueParams(F("1/3"), 2, 5)
        a = ("1", "1", "0")
        b = ("2", "5", "0")
        assert strict_pair_sum(a, 1) == strict_pair_sum(b, 1)
        assert externality_variance(q, a, 1) == externality_variance(q, b, 1)

    def test_queue_validation(self):
        with pytest.raises(StabilityError):
            QueueParams(1, 1, 1)
        with pytest.raises(StabilityError):
            QueueParams(2, 1, 1)
        with pytest.raises(ValidationError):
            QueueParams(F("1/2"), 1, F("1/2"))
        with pytest.raises(ValidationError):
            QueueParams(F("1/2"), 0, 1)
        with pytest.raises(ValidationError):
            QueueParams(-1, 1, 1)


class TestSupremum:
    @pytest.mark.parametrize(
        "n,x,w,expected",
        [
            (3, "1", "1.5", ("1.5", "0", "0")),
            (2, "2", "1", ("1", "0")),
            (7, "1", "2.2", ("2.2", "0", "0", "0", "0", "0", "0")),
        ],
    )
    def test_examples(self, n, x, w, expected):
        inst = Instance(n, as_rational(x), as_rational(w))
        assert supremum_vector(inst) == tuple(as_rational(e) for e in expected)

    def test_edge_mass_dominates_center_mass(self):
        for n, x, w in [(3, F(1), F("1/2")), (5, F(2), F("3/2")), (4, F(1), F("3/4"))]:
            edge = [F(0)] * n
            edge[0] = w
            center = [F(0)] * n
            center[1] = w
            assert eval_f(edge, x) >= eval_f(center, x)


class TestMembership:
    def test_lambda_membership(self):
        assert is_in_lambda(("1", "0.5"), 2)
        assert not is_in_lambda(("1", "1.5"), 2)
        assert not is_in_lambda(("-1", "0"), 2)

    def test_upsilon_membership(self):
        inst = Instance(7, 1, F("11/5"))
        assert is_in_upsilon(V1, inst)
        assert not is_in_upsilon(V2, inst)
        assert not is_in_upsilon(("1", "1", "0.2", "0", "0", "0", "0.0001"), inst)
        integral = Instance(5, 1, 2)
        assert is_in_upsilon(("1", "0", "1", "0", "0"), integral)
        assert not is_in_upsilon(("1", "0", "0.5", "0.5", "0"), integral)

    def test_random_lambda_members_are_members(self):
        rng = random.Random(5)
        inst = Instance(6, F("5/4"), F("7/2"))
        for _ in range(50):
            v = random_lambda_member(rng, inst)
            assert is_in_lambda(v, inst.w)
            assert sum(v, F(0)) == inst.w
            assert all(e <= inst.x for e in v)
