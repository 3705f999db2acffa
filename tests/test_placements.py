"""The solvers' placements: the nonzero entries they build, check and score."""

from fractions import Fraction

import contextlib
import io
import itertools
import json
import math

from extopt import ConstructionError, Instance, eval_f, solve_combinatorial, solve_continuous
from extopt.cli import main
from extopt.combinatorial import _gamma_placed, build_gamma_member
from extopt.continuous import build_duo
from extopt.model import _materialize, _prefix, as_rational
from helpers import assert_placement, duo_layers, naive_f, placement, twelfths_grid

F = Fraction


def nonzero(vector):
    # the placement of a vector, from its nonzero entries in ascending order
    return placement((i, e) for i, e in enumerate(vector) if e)


class TestDuoPlacement:
    def test_layers_add_up_on_the_twelfths_grid(self):
        # collided slots take y + r; at r = x/2 the two layers hold equal
        # values, so slots must be told apart by position
        collided = halves = 0
        for n, x, w in twelfths_grid():
            i = Instance(n, x, w)
            if i.r == 0:
                continue
            v_y, v_r = duo_layers(i)
            combined = tuple(a + b for a, b in zip(v_y, v_r))
            assert sum(combined, F(0)) == i.w
            placed = build_duo(i)
            assert_placement(i.n, placed)
            assert _materialize(i.n, placed) == _materialize(i.n, nonzero(combined))
            report = solve_continuous(i)
            assert report.objective == naive_f(report.vector, i.x)
            collided += any(a and b for a, b in zip(v_y, v_r))
            halves += i.r == i.x / 2
        assert collided > 1000 and halves > 100


def combinatorial_grids():
    # the instances that test_combinatorial builds structured members on
    for n, x, w in [(7, "1", "2.2"), (9, "1.1", "2.4"), (10, "3/7", "10/7"), (6, "2", "7"),
                    (12, "1/2", "3.25"), (4, "1", "0.5"), (1, "1", "0.5")]:
        yield Instance(n, as_rational(x), as_rational(w))
    for x in (F(1), F("3/7"), F("11/10")):
        for n in range(2, 9):
            for m in range(0, min(3, n - 1) + 1):
                for num in (0, 1, 2, 3):
                    w = m * x + x * F(num, 4)
                    if 0 < w < n * x:
                        yield Instance(n, x, w)


class TestGammaPlacement:
    def test_materializes_to_the_member(self):
        # the scoring reads the placement alone: it must hold exactly the
        # member's nonzero entries, in ascending order
        built = 0
        for i in combinatorial_grids():
            for delta in range(1, i.n + 2):
                try:
                    member = build_gamma_member(i, delta)
                except ConstructionError:
                    continue
                placed = _gamma_placed(i, delta)
                assert_placement(i.n, placed)
                assert _materialize(i.n, placed) == _materialize(i.n, nonzero(member))
                built += 1
        assert built > 200


class TestLargePlacements:
    def test_solvers_score_the_vector_they_emit_at_n_10000(self):
        # thousands of masses: a colliding duo (y + r = x on shared slots), a
        # strictly interleaving duo (every mass below x), and r = 0; the
        # vector path re-derives the placement from the emitted vector
        for w in (F(6667, 2), 4999 + F(5, 12), F(2500)):
            i = Instance(10000, F(1), w)
            for report in (solve_continuous(i), solve_combinatorial(i)):
                assert eval_f(report.vector, i.x) == report.objective

    def test_solve_takes_no_id_per_mass(self, monkeypatch):
        # a placement holds its masses as codes into a few values, so the
        # solve scores and writes them with no id() per mass
        calls = []

        def counting(obj):
            calls.append(obj)
            return id(obj)

        for module in ("model", "cli", "continuous", "combinatorial"):
            monkeypatch.setattr(f"extopt.{module}.id", counting, raising=False)
        for w in ("6667/2", "10001/4", "2500"):
            i = Instance(10000, F(1), F(w))
            for solve in (solve_continuous, solve_combinatorial):
                placed = solve(i).placed
                assert_placement(i.n, placed)
                assert len(placed[1]) <= 4 and len(placed[0]) >= 2500
            for domain in ("continuous", "combinatorial"):
                calls.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["solve", "--domain", domain, "-n", "10000", "-x", "1", "-w", w])
                assert code == 0 and len(calls) <= 10, (w, domain, len(calls))


class TestLazyVector:
    def test_reports_build_the_vector_once_on_access(self):
        for n, x, w in twelfths_grid():
            i = Instance(n, x, w)
            for solve in (solve_continuous, solve_combinatorial):
                report = solve(i)
                assert report.vector == _materialize(n, report.placed)
                assert report.vector is report.vector
                # the built vector is no field: equality and hashing ignore it
                assert hash(report) == hash(solve(i)) and report == solve(i)

    def test_solve_writes_its_json_without_the_vector(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the n-vector was built")

        for module in ("model", "report", "combinatorial"):
            monkeypatch.setattr(f"extopt.{module}._materialize", forbidden)
        for w in ("6667/2", "59993/12", "2500"):
            for domain in ("continuous", "combinatorial"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["solve", "--domain", domain, "-n", "10000", "-x", "1", "-w", w])
                assert code == 0
                vector = json.loads(out.getvalue())["result"]["vector"]
                assert len(vector) == 10000 and sum(map(F, vector)) == F(w)


def scaled_prefix(vector, x):
    """(prefix, x, denom) of a dense vector: its entries and x over their
    least common denominator, the entries accumulated."""
    denom = math.lcm(x.denominator, *(e.denominator for e in vector))
    scaled = (int(e * denom) for e in vector)
    return list(itertools.accumulate(scaled, initial=0)), int(x * denom), denom


class TestPrefix:
    def test_matches_the_accumulated_scaled_vector(self):
        for n, x, w in twelfths_grid():
            i = Instance(n, x, w)
            for solve in (solve_continuous, solve_combinatorial):
                report = solve(i)
                assert _prefix(n, report.placed, x) == scaled_prefix(report.vector, x)

    def test_edge_placements(self):
        third = F(1, 3)
        cases = [
            (5, placement([]), F(3, 7)),  # no mass: n + 1 zeros
            (1, placement([(0, F(5, 2))]), F(1)),
            (4, placement([(0, F(1, 2)), (3, third)]), F(1)),  # masses at 0 and n - 1
            (6, placement([(1, third), (2, third), (5, third)]), F(2, 5)),  # one object repeated
            # equal values held as distinct objects, as y and r at r = x/2
            (5, placement([(0, F(1, 2)), (2, F(1, 2)), (4, F(1))]), F(1)),
        ]
        for n, placed, x in cases:
            assert_placement(n, placed)
            assert _prefix(n, placed, x) == scaled_prefix(_materialize(n, placed), x)
        assert cases[3][1] == ((1, 2, 5), (third,), (0, 0, 0))
        assert cases[4][1][1:] == ((F(1, 2), F(1, 2), F(1)), (0, 1, 2))
        assert _prefix(5, placement([]), F(3, 7)) == ([0] * 6, 3, 7)
        assert _prefix(4, placement([(0, F(1, 2)), (3, third)]), F(1)) == ([0, 3, 3, 3, 5], 6, 6)
        assert _prefix(6, placement([(1, third), (2, third), (5, third)]), F(2, 5)) == (
            [0, 0, 5, 10, 10, 10, 15], 6, 15)
