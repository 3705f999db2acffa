"""The O(1) variance range against the O(n) references over whole vectors."""

import json
import random
from fractions import Fraction

import pytest

from extopt import Instance, QueueParams, externality_variance, solve_continuous
from extopt.cli import main
from extopt.model import supremum_vector, variance_range
from helpers import twelfths_grid

F = Fraction


def queue_grid(count=4, seed="variance-queues"):
    """Seeded stable queues given as unreduced "p/q" strings: mu2 at mu1^2,
    just above it by one part in a large denominator, or well above it."""
    rng = random.Random(seed)
    queues = []
    for i in range(count):
        k = rng.randint(2, 5)
        mu1 = F(rng.randint(1, 9), rng.randint(1, 7))
        lam = F(rng.randint(1, 99), 100) / mu1
        gap = (F(0), F(1, 10**rng.randint(12, 30) + rng.randint(1, 99)), F(rng.randint(1, 9), 4))
        mu2 = mu1 * mu1 * (1 + gap[i % 3])
        queues.append(QueueParams(*(f"{k * v.numerator}/{k * v.denominator}"
                                    for v in (lam, mu1, mu2))))
    return tuple(queues)


QUEUES = (QueueParams(F(1, 2), 1, 2), QueueParams(F(1, 3), 2, 7),
          QueueParams("2/4", "6/4", "18/4")) + queue_grid()

# w = 1/2 < x and w = 5/2 > x take both branches of (x - w)^+ in the
# supremum; 33333/2 is the dense instance at n = 10^5 (333/2 at n = 10^3)
LARGE = [(1000, F(1, 2)), (1000, F(5, 2)), (1000, F(333, 2)),
         (100_000, F(1, 2)), (100_000, F(5, 2)), (100_000, F(33333, 2))]


def reference(q, inst):
    cont = solve_continuous(inst)
    return (externality_variance(q, cont.vector, inst.x),
            externality_variance(q, supremum_vector(inst), inst.x))


def closed_form(q, inst):
    return variance_range(q, inst, solve_continuous(inst).objective)


class TestVarianceRange:
    def test_matches_the_vectors_on_the_twelfths_grid(self):
        for n, x, w in twelfths_grid():
            inst = Instance(n, x, w)
            for q in QUEUES:
                assert closed_form(q, inst) == reference(q, inst), (n, x, w)

    @pytest.mark.parametrize("x", [F(1), F(3, 7)])
    @pytest.mark.parametrize("share", [F(1, 5), F(1, 2), F(99, 100)])
    def test_matches_the_vectors_at_n_one(self, x, share):
        inst = Instance(1, x, x * share)
        for q in QUEUES:
            assert closed_form(q, inst) == reference(q, inst)

    @pytest.mark.parametrize("n,w", LARGE, ids=[f"n{n}-w{w}" for n, w in LARGE])
    def test_matches_the_vectors_at_large_n(self, n, w):
        inst = Instance(n, F(1), w)
        assert closed_form(QUEUES[0], inst) == reference(QUEUES[0], inst)


class TestVarianceCommand:
    QUEUE = ("--lambda", "1/2", "--mu1", "1", "--mu2", "2")

    def run(self, capsys, n, x, w):
        code = main(["variance", "-n", str(n), "-x", str(x), "-w", str(w), *self.QUEUE])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return json.loads(captured.out)["result"]

    @pytest.mark.parametrize("n,x,w", [(1, "1", "1/2"), (7, "1", "2.2"), (1000, "1", "1/2"),
                                       (1000, "1", "5/2"), (1000, "3/7", "333/14")])
    def test_scalars_equal_the_reference_over_the_written_vectors(self, capsys, n, x, w):
        result = self.run(capsys, n, x, w)
        q = QueueParams(F(1, 2), 1, 2)
        minimizer = [F(e) for e in result["minimizing_vector"]]
        supremum = [F(e) for e in result["supremum_vector"]]
        assert F(result["variance_min"]) == externality_variance(q, minimizer, F(x))
        assert F(result["variance_sup"]) == externality_variance(q, supremum, F(x))

    def test_rescans_no_vector(self, capsys, monkeypatch):
        # the command writes both vectors from their placements and takes
        # both scalars from closed forms: no length-n tuple, no reference
        def refused(*args, **kwargs):
            raise AssertionError("variance rescanned a vector")

        monkeypatch.setattr("extopt.report._materialize", refused)
        monkeypatch.setattr("extopt.cli.externality_variance", refused)
        monkeypatch.setattr("extopt.model.strict_pair_sum", refused)
        monkeypatch.setattr("extopt.model.supremum_vector", refused)
        result = self.run(capsys, 7, "1", "2.2")
        assert (result["variance_min"], result["variance_sup"]) == ("408/5", "296")
