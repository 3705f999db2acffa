"""End-to-end behaviour of the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extopt import Instance, SizeCapError, solve_combinatorial
from extopt import cli
from extopt.cli import _sweep_rows, build_parser, main
from extopt.combinatorial import a_value
from extopt.continuous import closed_form_objective, solve_continuous, tau
from helpers import bisect_f

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_continuous_golden(self, capsys):
        doc = run_json(capsys, "solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "2.2")
        assert doc["result"]["objective"] == "32/5"
        assert doc["status"] == "PROVEN"
        assert doc["versions"] == {"tool": "0.1.0", "schema": "extopt/1"}

    def test_combinatorial_golden(self, capsys):
        doc = run_json(
            capsys, "solve", "--domain", "combinatorial", "-n", "7", "-x", "1", "-w", "2.2"
        )
        assert doc["result"]["objective"] == "33/5"
        cert = doc["result"]["delta_certificate"]
        assert cert["delta_star"] == 3

    def test_ratio_string_instance(self, capsys):
        doc = run_json(
            capsys, "solve", "--domain", "continuous", "-n", "9", "-x", "11/10", "-w", "11/5"
        )
        assert doc["result"]["objective"] == "66/5"

    def test_rational_strings_round_trip(self, capsys):
        doc = run_json(capsys, "solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "2.2")
        for field in [doc["result"]["objective"], doc["instance"]["w"], *doc["result"]["vector"]]:
            assert str(F(field)) == field

    def test_many_masses(self, capsys):
        doc = run_json(capsys, "solve", "--domain", "continuous", "-n", "15001", "-x", "1",
                       "-w", "10001/2")
        assert len(doc["result"]["vector"]) == 15001

    def test_byte_identical_reruns(self, capsys):
        argv = ("solve", "--domain", "continuous", "-n", "8", "-x", "1", "-w", "3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_trivial_regime_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--domain", "continuous", "-n", "3", "-x", "1", "-w", "3")
        assert code == 3 and out == "" and "n*x" in err

    def test_invalid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "continuous", "-n", "3", "-x", "0", "-w", "1")
        assert code == 2 and err
        code, _, err = run_cli(capsys, "solve", "--domain", "continuous", "-n", "3", "-x", "oops", "-w", "1")
        assert code == 2


class TestVerify:
    def test_confirmed_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-n", "9", "-x", "1", "-w", "2.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "CONFIRMED"
        assert abs(doc["result"]["gap"]) <= 1e-6

    def test_proven_regime_sanity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-n", "7", "-x", "1", "-w", "2.2")
        assert code == 0
        assert json.loads(out)["status"] == "CONFIRMED"

    def test_forced_early_stop_exit_0(self, capsys):
        # the float oracle's flags still parse but decide nothing
        code, out, _ = run_cli(
            capsys, "verify", "-n", "2", "-x", "1", "-w", "1.5", "--max-iters", "10", "--cap", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "CONFIRMED"
        assert doc["result"]["converged"] is True

    def test_certificate_block(self, capsys):
        doc = run_json(capsys, "verify", "-n", "9", "-x", "1", "-w", "2.5", "--seed", "3")
        cert = doc["result"]["certificate"]
        assert cert["lower_bound"] == doc["result"]["constructed_objective"] == "10"
        assert cert["alpha_one_intervals"] - cert["unsaturated_intervals"] <= cert["tight_intervals"]
        assert doc["result"]["converged"] is True

    def test_beaten_construction_exit_1(self, capsys, monkeypatch):
        # the structured optimum (33/5) in place of the duo vector (32/5): no
        # certificate exists, which verify reports as a failed self-check
        monkeypatch.setattr("extopt.oracle.solve_continuous", solve_combinatorial)
        code, out, err = run_cli(capsys, "verify", "-n", "7", "-x", "1", "-w", "2.2")
        assert code == 1 and out == ""
        assert "ConstructionError" in err

    def test_failed_self_check_exit_1(self, capsys, monkeypatch):
        # the checker that verify calls on the prefix sums of the solve's placement
        monkeypatch.setattr("extopt.oracle._check", lambda *args: None)
        code, out, err = run_cli(capsys, "verify", "-n", "7", "-x", "1", "-w", "2.2")
        assert code == 1 and out == ""
        assert "ConstructionError" in err


class TestSweep:
    def test_monotone_delta_and_r_zero_rows(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "7", "--n-to", "9", "-x", "1",
            "--w-from", "0.1", "--w-to", "6.9", "--w-step", "0.1",
            "--output", str(out_path),
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        previous = {}
        for row in rows:
            key = (row["n"], row["m"])
            star = int(row["delta_star"])
            if key in previous:
                assert star >= previous[key]
            previous[key] = star
            if F(row["r"]) == 0:
                n, m = int(row["n"]), int(row["m"])
                assert star == math.ceil((n + 1) / (m + 1))

    def test_empty_range_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "5", "--n-to", "4", "-x", "1",
            "--w-from", "1", "--w-to", "2", "--w-step", "1",
            "--output", str(out_path),
        )
        assert code == 0
        content = out_path.read_text()
        assert content.splitlines() == [
            "n,x,w,m,r,delta_star,tau_u1,tau_u2,objective_closed,objective_oracle,status"
        ]

    def test_nonpositive_x_exit_2(self, capsys, tmp_path):
        for x in ("0", "-1"):
            code, out, err = run_cli(
                capsys,
                "sweep", "--n-from", "2", "--n-to", "3", "-x", x,
                "--w-from", "1", "--w-to", "2", "--w-step", "1",
                "--output", str(tmp_path / "table.csv"),
            )
            assert code == 2 and out == ""
            assert "x must be positive" in err
        assert not (tmp_path / "table.csv").exists()

    def test_empty_sweep_is_inconclusive(self, capsys, tmp_path):
        # every grid point has w >= n*x
        doc = run_json(
            capsys,
            "sweep", "--n-from", "2", "--n-to", "3", "-x", "1",
            "--w-from", "5", "--w-to", "6", "--w-step", "1",
            "--output", str(tmp_path / "table.csv"),
        )
        assert doc["result"]["rows"] == 0
        assert doc["status"] == "INCONCLUSIVE"

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--n-from", "5", "--n-to", "5", "-x", "1",
            "--w-from", "1", "--w-to", "2", "--w-step", "1",
            "--output", str(tmp_path / "missing" / "table.csv"),
        )
        assert code == 2 and "CSV" in err

    def test_cap_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "2", "--n-to", "40", "-x", "1",
            "--w-from", "0.01", "--w-to", "39", "--w-step", "0.01",
            "--output", str(tmp_path / "big.csv"), "--cap", "100",
        )
        assert code == 2

    def test_rows_match_a_walk_of_the_grid(self):
        # the walk adds w_step one grid point at a time, as the CLI once did
        rng = random.Random(11)
        for _ in range(300):
            x = F(rng.randint(1, 12), rng.randint(1, 5))
            step = F(rng.randint(1, 9), rng.randint(1, 7))
            w_from = F(rng.randint(-30, 30), rng.randint(1, 6))
            w_to = w_from + F(rng.randint(-5, 60), rng.randint(1, 4))
            n_from = rng.randint(0, 6)
            n_to = n_from + rng.randint(-1, 4)
            cap = rng.choice([5, 40, 100_000])
            walked = []
            try:
                for n in range(n_from, n_to + 1):
                    w = w_from
                    while w <= w_to:
                        if 0 < w < n * x:
                            walked.append((n, w))
                            if len(walked) > cap:
                                raise SizeCapError("cap")
                        w += step
            except SizeCapError:
                walked = None
            args = argparse.Namespace(
                x=str(x), w_from=str(w_from), w_to=str(w_to), w_step=str(step),
                n_from=n_from, n_to=n_to, cap=cap,
            )
            if walked is None:
                with pytest.raises(SizeCapError):
                    _sweep_rows(args)
            else:
                assert _sweep_rows(args) == walked

    def test_far_range_outside_the_domain_returns_at_once(self, capsys, tmp_path):
        # about 10^9 grid points, of which only 0 < w < 2 are rows
        out_path = tmp_path / "far.csv"
        doc = run_json(
            capsys,
            "sweep", "--n-from", "2", "--n-to", "2", "-x", "1",
            "--w-from", "-5000000", "--w-to", "5000000", "--w-step", "1/100",
            "--output", str(out_path),
        )
        assert doc["result"]["rows"] == 199
        with out_path.open() as handle:
            ws = [F(row["w"]) for row in csv.DictReader(handle)]
        assert ws == [F(k, 100) for k in range(1, 200)]

    @pytest.mark.parametrize(("w_from", "w_to"), [(2, 1), (10**15, 10**15 + 1)],
                             ids=["empty-w-range", "w-beyond-every-n"])
    def test_rowless_ranges_return_at_once_whatever_n_to(self, monkeypatch, w_from, w_to):
        # the loop over n starts at the first n with a row, so the cap bounds it
        def short_range(*bounds):
            span = range(*bounds)
            assert len(span) <= 10**6, f"a loop over {len(span)} values"
            return span

        monkeypatch.setattr(cli, "range", short_range, raising=False)
        args = argparse.Namespace(x="1", w_from=str(w_from), w_to=str(w_to), w_step="1",
                                  n_from=1, n_to=10**12, cap=None)
        assert _sweep_rows(args) == []

    def test_cap_is_checked_before_any_row_is_built(self, capsys, tmp_path, monkeypatch):
        # two rows for each n up to 10^12: the closed-form count exceeds
        # the cap before any row or loop over n
        def short_range(*bounds):
            span = range(*bounds)
            assert len(span) <= 100, f"a loop over {len(span)} values"
            return span

        monkeypatch.setattr(cli, "range", short_range, raising=False)
        out_path = tmp_path / "t.csv"
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-from", "1", "--n-to", "1000000000000", "-x", "1",
            "--w-from", "2", "--w-to", "3", "--w-step", "1", "--output", str(out_path),
        )
        assert time.perf_counter() - started < 1
        assert code == 2 and out == "" and "exceed 100000 instances" in err
        assert not out_path.exists()

    def test_cap_counts_rows_of_a_growing_n_range(self):
        # x far below the step: each n adds about n/1000 rows, so the count
        # passes the cap near n = 14,000 and stops there
        args = argparse.Namespace(x="1/1000", w_from="1", w_to="1000000", w_step="1",
                                  n_from=1, n_to=10**12, cap=None)
        started = time.perf_counter()
        with pytest.raises(SizeCapError):
            _sweep_rows(args)
        assert time.perf_counter() - started < 1
        args.n_to = 14000
        rows = _sweep_rows(args)
        assert len(rows) == sum(max(0, -(-n // 1000) - 1) for n in range(1, 14001)) <= 100_000

    def test_with_oracle_column(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "3", "--n-to", "3", "-x", "1",
            "--w-from", "1", "--w-to", "2", "--w-step", "1",
            "--output", str(out_path), "--with-oracle",
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            assert F(row["objective_oracle"]) == F(row["objective_closed"])

    def test_with_oracle_reaches_optimum_from_construction(self, capsys, tmp_path):
        # a float descent from random starts alone stops near 41.547 here,
        # 0.13 above the optimum 497/12; the certificate gives it exactly
        out_path = tmp_path / "oracle19.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "19", "--n-to", "19", "-x", "1",
            "--w-from", "35/12", "--w-to", "35/12", "--w-step", "1",
            "--output", str(out_path), "--with-oracle",
        )
        assert code == 0
        with out_path.open() as handle:
            (row,) = list(csv.DictReader(handle))
        assert row["objective_oracle"] == row["objective_closed"] == "497/12"

    def test_with_oracle_solves_each_row_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(inst):
            calls.append(inst)
            return solve_continuous(inst)

        monkeypatch.setattr("extopt.cli.solve_continuous", counted)
        monkeypatch.setattr("extopt.oracle.solve_continuous", counted)
        out_path = tmp_path / "once.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--n-from", "5", "--n-to", "7", "-x", "1",
            "--w-from", "0.5", "--w-to", "4", "--w-step", "0.5",
            "--output", str(out_path), "--with-oracle",
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(calls) == 24
        assert len(set(calls)) == len(calls)


class TestVariance:
    def test_example(self, capsys):
        doc = run_json(
            capsys,
            "variance", "-n", "7", "-x", "1", "-w", "2.2",
            "--lambda", "1/2", "--mu1", "1", "--mu2", "2",
        )
        assert doc["result"]["mean"] == "14"
        assert doc["result"]["variance_min"] == "408/5"
        assert doc["result"]["variance_sup"] == "296"

    def test_two_slot_example(self, capsys):
        doc = run_json(
            capsys,
            "variance", "-n", "2", "-x", "1", "-w", "1.9",
            "--lambda", "1/2", "--mu1", "1", "--mu2", "2",
        )
        assert doc["result"]["variance_min"] == "16"

    def test_lambda_zero_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "variance", "-n", "2", "-x", "1", "-w", "1", "--lambda", "0", "--mu1", "1", "--mu2", "2",
        )
        assert code == 2 and "lambda" in err

    def test_unstable_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "variance", "-n", "2", "-x", "1", "-w", "1", "--lambda", "1", "--mu1", "1", "--mu2", "2",
        )
        assert code == 3

    def test_rho_exactly_one_exit_3(self, capsys):
        # lam·mu1 = 1/2 · 2, decided on numerators and denominators
        code, out, err = run_cli(
            capsys,
            "variance", "-n", "5", "-x", "1", "-w", "1/2",
            "--lambda", "1/2", "--mu1", "2", "--mu2", "4",
        )
        assert (code, out, err) == (3, "", "error: utilization rho = 1 >= 1\n")


class TestLargeN:
    """n = 10^5, where almost every interval is unsaturated: each objective is
    checked against a closed form that does not evaluate the vector."""

    N = 100_000
    QUEUE = ("--lambda", "1/2", "--mu1", "1", "--mu2", "2")

    def run_all(self, capsys, w):
        inst = ["-n", str(self.N), "-x", "1", "-w", w]
        argvs = [["solve", "--domain", "continuous", *inst],
                 ["solve", "--domain", "combinatorial", *inst],
                 ["variance", *inst, *self.QUEUE]]
        start = time.perf_counter()
        docs = [run_json(capsys, *argv) for argv in argvs]
        return time.perf_counter() - start, docs

    def check_feasible(self, vector, w):
        assert len(vector) == self.N
        assert sum(vector) == w
        assert all(0 <= e <= 1 for e in vector)

    def check_variance(self, doc, vector, objective, w):
        # lam*mu2/(1-rho)^3 = 8 for the queue above; the pair sum is f minus
        # the singletons: 1 per zero entry and 1 - e for each mass below 1
        singles = sum(1 - e for e in vector)
        assert doc["result"]["minimizing_vector"] == [str(e) for e in vector]
        assert F(doc["result"]["variance_min"]) == 8 * (self.N + 2 * (objective - singles))
        n = self.N
        sup = F((n - 1) * (n - 2), 2) + (n - 1) * max(1 - w, 0)
        assert F(doc["result"]["variance_sup"]) == 8 * (n + 2 * sup)

    def test_two_masses_and_a_leftover(self, capsys):
        seconds, (cont, comb, var) = self.run_all(capsys, "5/2")
        inst = Instance(self.N, 1, F(5, 2))
        delta = comb["result"]["delta_certificate"]["delta_star"]
        assert F(comb["result"]["objective"]) == a_value(inst, delta)
        vector = [F(e) for e in cont["result"]["vector"]]
        self.check_feasible(vector, inst.w)
        objective = F(cont["result"]["objective"])
        assert objective == bisect_f(vector, 1)
        assert objective <= a_value(inst, delta)
        self.check_variance(var, vector, objective, inst.w)
        assert seconds < 10

    def test_one_leftover_mass(self, capsys):
        seconds, docs = self.run_all(capsys, "1/2")
        n, r = self.N, F(1, 2)
        j = (n + 1) // 2  # the smallest middle point of 1..n
        middle = F(n * (n + 1), 2) - r * j * (n + 1 - j)
        for doc in docs[:2]:
            assert F(doc["result"]["objective"]) == middle
        vector = [F(e) for e in docs[0]["result"]["vector"]]
        self.check_feasible(vector, r)
        self.check_variance(docs[2], vector, middle, r)
        assert seconds < 10

    def test_whole_masses(self, capsys):
        seconds, docs = self.run_all(capsys, "2")
        inst = Instance(self.N, 1, 2)
        expected = closed_form_objective(inst, tau(self.N, 2).tau_u)
        for doc in docs[:2]:
            assert F(doc["result"]["objective"]) == expected
        vector = [F(e) for e in docs[0]["result"]["vector"]]
        self.check_feasible(vector, 2)
        self.check_variance(docs[2], vector, expected, 2)
        assert seconds < 10


class TestEnumerate:
    def test_defaults_to_optimal_delta(self, capsys):
        doc = run_json(capsys, "enumerate", "-n", "7", "-x", "1", "-w", "2.2")
        assert doc["result"]["delta"] == 3
        assert doc["result"]["count"] == len(doc["result"]["members"]) == 12
        assert doc["status"] == "PROVEN"
        assert ["0", "1", "0", "0", "1", "1/5", "0"] in doc["result"]["members"]

    def test_explicit_delta(self, capsys):
        doc = run_json(capsys, "enumerate", "-n", "7", "-x", "1", "-w", "2.2", "--delta", "4")
        assert doc["status"] == "INCONCLUSIVE"
        assert doc["result"]["count"] >= 1

    def test_cap_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "-n", "25", "-x", "1", "-w", "3.5", "--cap", "20")
        assert code == 2

    def test_delta_zero_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "-n", "7", "-x", "1", "-w", "2.2",
                                 "--delta", "0")
        assert code == 2
        assert out == ""
        assert "delta must be an integer in [1, 8], got 0" in err



# one command line per report shape: solve continuous (r > 0, r = 0) and
# combinatorial (m >= 1, m = 0), verify, variance (r > 0, r = 0), sweep
# without and with the oracle, and enumerate with 0, 1 and 12 members
SHAPES = {
    "solve-continuous": ["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "2.2"],
    "solve-continuous-r0": ["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "2"],
    "solve-combinatorial": ["solve", "--domain", "combinatorial", "-n", "7", "-x", "1",
                            "-w", "2.2"],
    "solve-combinatorial-m0": ["solve", "--domain", "combinatorial", "-n", "7", "-x", "1",
                               "-w", "1/2"],
    "verify": ["verify", "-n", "9", "-x", "1", "-w", "2.5"],
    "variance": ["variance", "-n", "7", "-x", "1", "-w", "2.2",
                 "--lambda", "1/2", "--mu1", "1", "--mu2", "2"],
    "variance-r0": ["variance", "-n", "9", "-x", "1", "-w", "3",
                    "--lambda", "1/2", "--mu1", "1", "--mu2", "2"],
    "sweep": ["sweep", "--n-from", "7", "--n-to", "8", "-x", "1", "--w-from", "0.5",
              "--w-to", "3", "--w-step", "0.5"],
    "sweep-oracle": ["sweep", "--n-from", "7", "--n-to", "8", "-x", "1", "--w-from", "0.5",
                     "--w-to", "3", "--w-step", "0.5", "--with-oracle"],
    "enumerate-none": ["enumerate", "-n", "7", "-x", "1", "-w", "2.2", "--delta", "1"],
    "enumerate-one": ["enumerate", "-n", "7", "-x", "1", "-w", "1/2"],
    "enumerate-several": ["enumerate", "-n", "7", "-x", "1", "-w", "2.2"],
}


def shape_line(name, tmp_path):
    argv = SHAPES[name]
    return argv + ["--output", str(tmp_path / "table.csv")] if argv[0] == "sweep" else argv


class TestReportShapes:
    @pytest.mark.parametrize("name", SHAPES)
    def test_each_shape_writes_the_indented_encoder_bytes(self, capsys, tmp_path, name):
        code, out, err = run_cli(capsys, *shape_line(name, tmp_path))
        assert code == 0, err
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        if name.startswith("enumerate"):
            count = {"none": 0, "one": 1, "several": 12}[name.split("-")[1]]
            assert len(json.loads(out)["result"]["members"]) == count

    def test_each_shape_is_compiled_once(self, capsys, tmp_path, monkeypatch):
        # a warm-up run per shape compiles its form; after it no command
        # lays out its report again, and every byte stays the same
        first = {name: run_cli(capsys, *shape_line(name, tmp_path)) for name in SHAPES}

        def refused(*args):
            raise AssertionError("a report was laid out again")

        monkeypatch.setattr(cli, "_layout", refused)
        for name in SHAPES:
            code, out, err = run_cli(capsys, *shape_line(name, tmp_path))
            assert (code, out, err) == first[name] and code == 0, name

class TestInternalError:
    def test_unexpected_exception_exits_1(self, capsys, monkeypatch):
        def broken(inst):
            raise RuntimeError("boom")

        monkeypatch.setattr("extopt.cli.solve_continuous", broken)
        code, out, err = run_cli(capsys, "solve", "--domain", "continuous",
                                 "-n", "7", "-x", "1", "-w", "2.2")
        assert code == 1
        assert out == ""
        assert err.startswith("internal error")
        assert "RuntimeError: boom" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "extopt.cli", "solve", "--domain", "continuous",
             "-n", "5", "-x", "1", "-w", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["objective"] == "6"

    def test_exit_code_surfaces(self):
        proc = subprocess.run(
            [sys.executable, "-m", "extopt.cli", "solve", "--domain", "continuous",
             "-n", "3", "-x", "1", "-w", "99"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3

    def test_verify_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "extopt.cli", "verify", "-n", "9", "-x", "1", "-w", "2.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["certificate"]["lower_bound"] == "10"

    @pytest.mark.parametrize("n, w", [(10**6, "5/2"), (10**4, "3333")])
    def test_closed_stdout_exits_141_quietly(self, n, w):
        # a reader that stops after 10 bytes (``| head -c 10``) of an 11 MB
        # sparse report, whose chunks go straight to the pipe, and of a
        # 110 kB dense one, whose last bytes may still sit in stdout's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "extopt.cli", "solve", "--domain", "continuous",
             "-n", str(n), "-x", "1", "-w", w],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert head == b'{\n  "comma'
        assert (code, err) == (141, b"")

    def test_stdout_closed_before_a_small_report_exits_141_quietly(self):
        # the whole report fits in stdout's buffer, so the closed pipe shows
        # only when it is flushed; it must not wait for interpreter exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "extopt.cli", "solve", "--domain", "continuous",
                 "-n", "7", "-x", "1", "-w", "2.2"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_a_closed_stdout_is_pointed_at_the_null_device(self, monkeypatch):
        # after the broken pipe, bytes still buffered must have somewhere to
        # go when the interpreter flushes stdout at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["solve", "--domain", "continuous", "-n", "7", "-x", "1",
                         "-w", "2.2"]) == 141
            stream.write("left in the buffer")
            stream.flush()
            monkeypatch.undo()

    def test_a_broken_pipe_elsewhere_is_an_internal_error(self, capsys, monkeypatch):
        # only stdout's reader may end a command quietly
        def broken(inst):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("extopt.cli.solve_continuous", broken)
        code, out, err = run_cli(capsys, "solve", "--domain", "continuous",
                                 "-n", "7", "-x", "1", "-w", "2.2")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: BrokenPipeError")

    def test_repeated_in_process_runs_match_fresh_interpreters(self, capsys):
        argvs = [
            ["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "2.2"],
            ["solve", "--domain", "sideways", "-n", "7", "-x", "1", "-w", "2.2"],
            ["variance", "-n", "7", "-x", "1", "-w", "2.2",
             "--lambda", "1/2", "--mu1", "1", "--mu2", "2"],
            ["verify", "-n", "9", "-x", "1", "-w", "2.5"],
        ]
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            out = capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", "extopt.cli", *argv],
                                  capture_output=True, text=True)
            assert (code, out) == (proc.returncode, proc.stdout)

    def test_sweep_with_oracle_does_not_load_numpy(self, tmp_path):
        out_path = tmp_path / "oracle.csv"
        argv = ["sweep", "--n-from", "7", "--n-to", "7", "-x", "1", "--w-from", "1.2",
                "--w-to", "2.2", "--w-step", "1", "--output", str(out_path), "--with-oracle"]
        probe = ("import sys, extopt.cli; code = extopt.cli.main(sys.argv[1:]); "
                 "print(code, 'numpy' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True)
        assert proc.stderr.strip() == "0 False"
        assert len(out_path.read_text().splitlines()) == 3

    def test_exact_paths_do_not_load_numpy(self):
        probe = "import sys, extopt.cli; extopt.cli.build_parser(); print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"


INSTANCE = ["-n", "7", "-x", "1", "-w", "11/5"]
QUEUE = ["--lambda", "1/2", "--mu1", "1", "--mu2", "2"]
SOLVE = ["solve", "--domain", "continuous", *INSTANCE]

# (argv, exit code); "{tmp}" stands for a fresh directory
DISPATCH_CASES = [
    pytest.param(SOLVE, 0, id="solve-continuous"),
    pytest.param(["solve", "--domain", "combinatorial", *INSTANCE], 0, id="solve-combinatorial"),
    pytest.param(["verify", "-n", "5", "-x", "1", "-w", "17/12", "--seed", "3"], 0, id="verify"),
    pytest.param(["sweep", "--n-from", "7", "--n-to", "8", "-x", "1", "--w-from", "1",
                  "--w-to", "2", "--w-step", "1/2", "--output", "{tmp}/table.csv"],
                 0, id="sweep"),
    pytest.param(["variance", *INSTANCE, *QUEUE], 0, id="variance"),
    pytest.param(["enumerate", *INSTANCE, "--delta", "3"], 0, id="enumerate"),
    pytest.param([*SOLVE, "--bogus"], 2, id="unknown-trailing-option"),
    pytest.param([*SOLVE, "stray"], 2, id="stray-positional"),
    pytest.param(["variance", *INSTANCE, "--mu1", "1", "--mu2", "2"], 2, id="missing-flag"),
    pytest.param(["solve", "--dom", "continuous", *INSTANCE], 0, id="abbreviation"),
    pytest.param(["variance", *INSTANCE, "--lambda=1/2", "--mu1", "1", "--mu2", "2"],
                 0, id="equals-form"),
    pytest.param(["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "-1"],
                 2, id="negative-number"),
    pytest.param(["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "-1/2"],
                 2, id="negative-ratio"),
    pytest.param(["--", *SOLVE], 2, id="double-dash-before-command"),
    pytest.param(["solve", "--", "--domain", "continuous", *INSTANCE], 2,
                 id="double-dash-after-command"),
    pytest.param(["solve", "-h"], 0, id="command-help"),
    pytest.param(["--version"], 0, id="version"),
    pytest.param([], 2, id="empty"),
    pytest.param(["-n", "5", "solve"], 2, id="option-before-command"),
    pytest.param(["sideways", *INSTANCE], 2, id="unknown-command"),
    pytest.param([*SOLVE, "-n", "8"], 0, id="repeated-option-last-wins"),
    pytest.param(["solve", "--domain", "continuous", "-n", "five", "-x", "1", "-w", "11/5"],
                 2, id="bad-int"),
    pytest.param(["solve", "--domain", "sideways", *INSTANCE], 2, id="bad-choice"),
    pytest.param([*SOLVE, "-n"], 2, id="trailing-option-without-value"),
    pytest.param(["solve", "--domain", "continuous", "-n", "7", "-x", "", "-w", "11/5"],
                 2, id="empty-value"),
    pytest.param(["solve", "--domain", "continuous", "-n", "7", "-x", "-w", "1"],
                 2, id="option-as-value"),
    pytest.param(["sweep", "--n-from", "7", "--n-to", "7", "-x", "1", "--w-from", "1",
                  "--w-to", "2", "--w-step", "1", "--output", "{tmp}/table.csv", "--with-oracle"],
                 0, id="sweep-with-oracle"),
    pytest.param(["verify", "-n", "6", "-x", "1", "-w", "6/5", "--seed", "3", "--restarts", "2"],
                 0, id="verify-ignored-flags"),
]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    @pytest.mark.parametrize(("argv", "code"), DISPATCH_CASES)
    def test_matches_the_full_parser(self, capsys, monkeypatch, tmp_path, argv, code):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        dispatched = outcome(capsys, argv)
        assert dispatched[0] == code
        # the reference: the full parser's namespace, then the same command
        monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        assert outcome(capsys, argv) == dispatched

    def test_a_well_formed_line_calls_no_argparse_parse(self, capsys, monkeypatch, tmp_path):
        def refused(*args, **kwargs):
            raise AssertionError("argparse parsed")

        for name in dir(argparse.ArgumentParser):
            if name.startswith("parse_"):
                monkeypatch.setattr(argparse.ArgumentParser, name, refused)
        well_formed = [case.values[0] for case in DISPATCH_CASES
                       if case.id in {"solve-continuous", "solve-combinatorial", "verify",
                                      "sweep", "variance", "enumerate",
                                      "repeated-option-last-wins", "verify-ignored-flags"}]
        assert len(well_formed) == 8
        for argv in well_formed:
            argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
            assert outcome(capsys, argv)[0] == 0
        for argv in (["--version"], [*SOLVE, "--bogus"], ["solve", "--dom", *SOLVE[2:]]):
            with pytest.raises(AssertionError, match="argparse parsed"):
                main(argv)


def _values(action):
    """Texts for ``action``'s value: ones it takes, and ones it rejects or
    that leave the form `_read` accepts."""
    if action.choices is not None:
        return list(action.choices), ["sideways", "-continuous", ""]
    if action.type is int:
        return ["3", "7", "0", "1_0", " 9"], ["five", "", "-1", "2.5"]
    return ["1", "11/5", "2.2", "", "x"], ["-1/2", "-w", "-", "--"]


# arguments that leave the form `_read` accepts
MALFORMED = ["--bogus", "stray", "--", "-h", "-n5", "--with-oracle", "--version",
             "--lambda=1/2", "--dom", "--n-f"]


@st.composite
def command_lines(draw):
    """A command and its options in any order, some optional ones dropped and
    some repeated.  About half are then mangled: a required option dropped,
    a rejected value, a malformed argument, a missing last value."""
    name = draw(st.sampled_from(sorted(cli._parsers()[1])))
    options = cli._parsers()[1][name].options
    mangled = draw(st.booleans())
    # True about once in four draws
    rarely = st.sampled_from([True, False, False, False])

    def kept(option):
        if options[option].required:
            return not (mangled and draw(rarely))
        return draw(st.booleans())

    present = [option for option in sorted(options) if kept(option)]
    repeated = draw(st.lists(st.sampled_from(sorted(options)), max_size=2))
    argv = [name]
    for option in draw(st.permutations(present)) + repeated:
        good, bad = _values(options[option])
        argv += [option, draw(st.sampled_from(bad if mangled and draw(rarely) else good))]
    if mangled and draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(MALFORMED)))
    if mangled and len(argv) > 1 and draw(st.booleans()):
        argv.pop()
    return argv


def parsed(parse, argv):
    """``vars`` of the namespace, or the exit code and the texts written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, stdout.getvalue(), stderr.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(command_lines())
def test_parse_matches_the_full_parser(argv):
    assert parsed(cli._parse, argv) == parsed(build_parser().parse_args, argv)
