"""The solvers' placements: the nonzero entries they build, check and score."""

from fractions import Fraction

import contextlib
import io
import itertools
import json
import math
import os
import random
import sys
import tracemalloc

import pytest

from extopt import ConstructionError, Instance, eval_f, solve_combinatorial, solve_continuous
from extopt import cli
from extopt.cli import _dumps, _vec, main
from extopt.combinatorial import _gamma_placed, _scored, a_value, build_gamma_member
from extopt.continuous import build_duo, minimum
from extopt.model import _eval_placed, _materialize, _prefix, as_rational
from helpers import (
    assert_placement, duo_layers, expand, gamma_member, mass_count, naive_f, placement,
    twelfths_grid,
)

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



class TestScored:
    def test_scores_on_the_instance_integers_as_eval_placed(self):
        # `_scored` looks each placement value up in `Instance._ints`, where
        # `_eval_placed` rescales the values themselves: both domains, the
        # twelfths grid (r = x/2 included) and 3,000 seeded x = p/q
        rng = random.Random(17)
        seeded = []
        while len(seeded) < 3000:
            x = F(rng.randint(1, 40), rng.randint(2, 13))
            if x.denominator > 1:
                n = rng.randint(1, 60)
                seeded.append(Instance(n, x, n * x * F(rng.randint(1, 999), 1000)))
        halves = 0
        for i in [*(Instance(n, x, w) for n, x, w in twelfths_grid()), *seeded]:
            halves += i.r == i.y
            for solve in (solve_continuous, solve_combinatorial):
                placed = solve(i).placed
                objective = _eval_placed(i.n, placed, i.x)
                assert _scored(i, placed, objective) == objective, i
        assert halves > 100

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
        # entries of the member built from the definition
        built = 0
        grid = itertools.chain(combinatorial_grids(),
                               (Instance(*case) for case in twelfths_grid()))
        for i in grid:
            for delta in range(1, i.n + 2):
                try:
                    member = build_gamma_member(i, delta)
                except ConstructionError:
                    continue
                placed = _gamma_placed(i, delta)
                assert_placement(i.n, placed)
                assert member == expand(i.n, placed) == gamma_member(i, delta)
                built += 1
        assert built > 2000


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
                assert len(placed[1]) <= 4 and mass_count(placed) >= 2500
                assert len(placed[0]) <= 8
            for domain in ("continuous", "combinatorial"):
                calls.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["solve", "--domain", domain, "-n", "10000", "-x", "1", "-w", w])
                assert code == 0 and len(calls) <= 10, (w, domain, len(calls))



def seeded_instances(seed, count, n_max, density=None):
    # (n, m) drawn at random, m/n in `density` when given, r in twelfths of x
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, n_max)
        lo, hi = density or (0, 1)
        m = rng.randint(math.ceil(lo * n), min(math.floor(hi * n), n - 1))
        yield Instance(n, F(1), m + F(rng.randint(0, 11), 12))


class TestRuns:
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_builders_match_the_references_at_large_n(self, n):
        # the run form written out token by token is the layers' sum and
        # the member by its definition, sparse and dense alike
        rng = random.Random(n)
        for m in (0, 1, 3, n // 4, n // 3 + 1, n // 2, rng.randint(0, n - 1)):
            i = Instance(n, F(1), m + F(rng.randint(1, 11), 12))
            duo = build_duo(i)
            assert_placement(n, duo)
            assert expand(n, duo) == tuple(map(sum, zip(*duo_layers(i))))
            report = solve_combinatorial(i)
            assert_placement(n, report.placed)
            assert expand(n, report.placed) == gamma_member(i, report.delta_star)

    def test_dense_placements_are_a_few_runs(self):
        for i in seeded_instances(71, 300, 20000, (F(1, 4), F(1, 2))):
            for solve in (solve_continuous, solve_combinatorial):
                assert len(solve(i).placed[0]) <= 8, i

    def test_runs_stay_within_the_piece_bound(self):
        # pieces of the duo that do not repeat are at most
        # min(m, (n+1)/(m+2) + 1) indices long, two tokens each; the four
        # pieces, their units, the first index and the last r add 11 tokens
        for i in seeded_instances(73, 1500, 10**5):
            bound = 5 * min(i.m, (i.n + 1) / (i.m + 1)) + 8
            pieces = 8 * min(i.m, (i.n + 1) // (i.m + 2) + 1) + 11
            for solve in (solve_continuous, solve_combinatorial):
                runs = solve(i).placed[0]
                assert len(runs) <= bound, i
                assert sum(len(unit) for unit, _ in runs) <= pieces, i

    def test_solve_builds_and_scores_in_runs(self, monkeypatch):
        # at n = 10^9 only the expanders could build an n-slot list, and
        # they are refused: building and scoring a dense solve allocate a
        # few kilobytes
        def refused(*args):
            raise AssertionError("the placement was expanded")

        for module in ("model", "report", "combinatorial", "oracle"):
            monkeypatch.setattr(f"extopt.{module}._materialize", refused, raising=False)
            monkeypatch.setattr(f"extopt.{module}._prefix", refused, raising=False)
        n = 10**9
        for w in (F(n // 3) + F(1, 3), F(n // 2) - F(5, 12), F(n // 4)):
            i = Instance(n, F(1), w)
            for solve in (solve_continuous, solve_combinatorial):
                tracemalloc.start()
                try:
                    report = solve(i)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 100_000, (w, solve.__name__, peak)
                assert report.objective == (minimum(i) if solve is solve_continuous
                                            else a_value(i, report.delta_star))

    def test_python_work_of_a_solve_does_not_grow_with_n(self, monkeypatch):
        # build, score and write the same shape at n and 1000 n: the lines
        # Python runs stay the same in number, and only C repeats the text
        def refused(*args):
            raise AssertionError("the placement was expanded")

        for module in ("model", "report", "combinatorial"):
            monkeypatch.setattr(f"extopt.{module}._materialize", refused)
        monkeypatch.setattr("extopt.model._prefix", refused)

        def lines_run(n, w, solve):
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                count += event == "line"
                return tracer

            i = Instance(n, F(1), w)
            sys.settrace(tracer)
            try:
                text = _dumps({"vector": _vec(n, solve(i).placed)})
            finally:
                sys.settrace(None)
            return count, text

        for solve in (solve_continuous, solve_combinatorial):
            small, text = lines_run(1200, F(400) + F(1, 2), solve)
            large, _ = lines_run(1_200_000, F(400_000) + F(1, 2), solve)
            assert large <= 2 * small + 200, (solve.__name__, small, large)
            report = solve(Instance(1200, F(1), F(400) + F(1, 2)))
            vector = expand(1200, report.placed)
            assert text == json.dumps({"vector": [str(e) for e in vector]}, indent=2)


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


def random_runs(rng, n_max=400):
    """(n, placed): up to four runs of 1-3 token units, each token up to 60
    zeros and then a mass from a small pool, so that zero stretches, units
    and runs are both shorter and longer than a small block."""
    pool = (F(1), F(1, 3), F(-7, 5) + 2, F(2**70 + 1, 2**65))
    runs, length = [], 0
    for _ in range(rng.randint(0, 4)):
        unit = tuple((rng.choice((0, 1, rng.randint(2, 60))), rng.randrange(len(pool)))
                     for _ in range(rng.randint(1, 3)))
        span = sum(zeros + 1 for zeros, _ in unit)
        count = min(rng.choice((1, 2, rng.randint(3, 40))), (n_max - length) // span)
        if count < 1:
            break
        runs.append((unit, count))
        length += count * span
    return max(length, 1) + rng.choice((0, 1, rng.randint(2, 200))), (tuple(runs), pool)


class TestChunkStream:
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_write_the_indented_encoder_bytes(self, monkeypatch, block):
        # blocks far below one unit's text, so every repeat, zero stretch
        # and held-back last chunk meets a block boundary
        cases = [(n, solve(Instance(n, x, w)).placed)
                 for n, x, w in itertools.islice(twelfths_grid(), 0, None, 7)
                 for solve in (solve_continuous, solve_combinatorial)]
        rng = random.Random(block)
        cases += [random_runs(rng) for _ in range(300)]
        monkeypatch.setattr(cli, "_BLOCK", block)
        for n, placed in cases:
            entries = [str(e) for e in expand(n, placed)]
            floats = [float(e) for e in expand(n, placed)]
            written = {"vector": _vec(n, placed), "objective": F(1, 2),
                       "members": [_vec(n, placed, float), [], _vec(n, placed)]}
            plain = {"vector": entries, "objective": "1/2", "members": [floats, [], entries]}
            assert _dumps(written) == json.dumps(plain, indent=2), (n, placed)

    def test_chunks_are_bounded_by_the_block(self):
        # a sparse and a dense vector of about 10 MB, each written in chunks
        # of at most a block
        n = 10**6
        for w in (F(5, 2), F(n // 3) + F(1, 3)):
            report = solve_continuous(Instance(n, F(1), w))
            sizes = [len(chunk) for chunk in cli._chunks({"vector": _vec(n, report.placed)})]
            assert sum(sizes) > 8 * n
            assert max(sizes) <= cli._BLOCK, w

    @pytest.mark.parametrize("block", [64, cli._BLOCK])
    def test_a_unit_longer_than_a_block_is_written_in_blocks(self, monkeypatch, block):
        # a unit of many tokens and few zeros: its text, not its zeros,
        # outgrows the block
        pool = (F(1), F(1, 3), F(2**70 + 1, 2**65))
        tokens = 4 * block // 30
        unit = tuple((int(i % 97 == 0), i % 3) for i in range(tokens))
        placed = (((unit, 3),), pool)
        n = 3 * sum(zeros + 1 for zeros, _ in unit) + 5
        monkeypatch.setattr(cli, "_BLOCK", block)
        chunks = list(cli._chunks({"vector": _vec(n, placed)}))
        assert max(map(len, chunks)) <= block
        entries = [str(e) for e in expand(n, placed)]
        assert "".join(chunks) == json.dumps({"vector": entries}, indent=2)

    def test_chunk_count_follows_bytes_and_long_unit_tokens(self):
        # a unit whose text fits in a block is written in blocks, and a
        # longer one token by token: the chunks are about the bytes over a
        # block, plus a zero stretch and a mass per token of a long unit,
        # plus a remainder per run, never a chunk per zero
        sep = ",\n    "  # after an entry of a vector at the top of a dict
        for n, w in [(10**6, F(5, 2)), (10**6, F(2001, 2)), (10**6, F(666665, 2)),
                     (10**9, F(5, 2))]:
            written = _vec(n, solve_continuous(Instance(n, F(1), w)).placed)
            _, runs, texts, zero = written
            long_tokens = sum(
                count * len(unit) for unit, count in runs
                if sum(zeros * len(zero + sep) + len(texts[code] + sep)
                       for zeros, code in unit) > cli._BLOCK)
            chunks = size = 0
            for chunk in cli._chunks({"vector": written}):
                assert len(chunk) <= cli._BLOCK, (n, w)
                chunks += 1
                size += len(chunk)
            assert chunks <= -(-size // cli._BLOCK) + 2 * long_tokens + 2 * len(runs) + 2, (n, w)

    def test_peak_memory_of_a_written_solve_does_not_grow_with_n(self):
        # 1.1 MB against 1.1 GB of JSON, written to the null device: the
        # peak is a few blocks either way
        def peak(domain, n):
            argv = ["solve", "--domain", domain, "-n", str(n), "-x", "1", "-w", f"{n // 3}"]
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        for domain in ("continuous", "combinatorial"):
            small, large = peak(domain, 10**5), peak(domain, 10**8)
            assert large < 4 * cli._BLOCK, (domain, large)
            assert abs(large - small) < 300_000, (domain, small, large)


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
        thirds_then_pairs = ((((0, 0),), 3), (((1, 1), (0, 0)), 2))
        pairs_then_one = ((((1, 0), (0, 1)), 3), (((0, 1),), 1))
        cases = [
            (5, placement([]), F(3, 7)),  # no mass: n + 1 zeros
            (1, placement([(0, F(5, 2))]), F(1)),
            (4, placement([(0, F(1, 2)), (3, third)]), F(1)),  # masses at 0 and n - 1
            (6, placement([(1, third), (2, third), (5, third)]), F(2, 5)),  # one object repeated
            # equal values held as distinct objects, as y and r at r = x/2
            (5, placement([(0, F(1, 2)), (2, F(1, 2)), (4, F(1))]), F(1)),
            # 1/3 three times, then (0, 1/2, 1/3) twice, with no zero after
            (9, (thirds_then_pairs, (third, F(1, 2))), F(1)),
            # a 2-token unit three times and one token, then two zeros
            (12, (pairs_then_one, (F(1, 4), F(3, 4))), F(1, 2)),
        ]
        for n, placed, x in cases:
            assert_placement(n, placed)
            assert _materialize(n, placed) == expand(n, placed)
            assert _prefix(n, placed, x) == scaled_prefix(expand(n, placed), x)
        assert cases[3][1] == (((((1, 0),), 1), (((0, 0),), 1), (((2, 0),), 1)), (third,))
        assert cases[4][1][1] == (F(1, 2), F(1, 2), F(1))
        assert expand(9, cases[5][1]) == (third,) * 3 + (0, F(1, 2), third) * 2
        assert expand(12, cases[6][1]) == (0, F(1, 4), F(3, 4)) * 3 + (F(3, 4), 0, 0)
        assert _prefix(5, placement([]), F(3, 7)) == ([0] * 6, 3, 7)
        assert _prefix(4, placement([(0, F(1, 2)), (3, third)]), F(1)) == ([0, 3, 3, 3, 5], 6, 6)
        assert _prefix(6, placement([(1, third), (2, third), (5, third)]), F(2, 5)) == (
            [0, 0, 5, 10, 10, 10, 15], 6, 15)
        assert _prefix(9, cases[5][1], F(1)) == ([0, 2, 4, 6, 6, 9, 11, 11, 14, 16], 6, 6)
