"""End-to-end behaviour of the command-line interface."""

import argparse
import csv
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from extopt import Instance, SizeCapError, solve_combinatorial
from extopt.cli import _sweep_rows, main
from extopt.combinatorial import a_value
from extopt.continuous import closed_form_objective, tau
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

    def test_violated_exit_5(self, capsys, monkeypatch):
        # the structured optimum (33/5) in place of the duo vector (32/5)
        monkeypatch.setattr("extopt.oracle.solve_continuous", solve_combinatorial)
        code, out, _ = run_cli(capsys, "verify", "-n", "7", "-x", "1", "-w", "2.2")
        assert code == 5
        doc = json.loads(out)
        assert doc["status"] == "VIOLATED" and doc["result"]["certificate"] is None
        assert doc["result"]["gap"] < 0
        assert sum(doc["result"]["oracle_minimizer"]) == pytest.approx(2.2)

    def test_failed_self_check_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("extopt.oracle.check_certificate", lambda v, inst, cert: None)
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
        for row in rows:
            oracle = float(row["objective_oracle"])
            assert oracle == pytest.approx(float(F(row["objective_closed"])), abs=1e-6)

    def test_with_oracle_reaches_optimum_from_construction(self, capsys, tmp_path):
        # from random starts alone the descent stops near 41.547 here,
        # 0.13 above the optimum 497/12, and still reports convergence
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
        closed = float(F(row["objective_closed"]))
        assert abs(float(row["objective_oracle"]) - closed) <= 1e-6


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

    def test_exact_paths_do_not_load_numpy(self):
        probe = "import sys, extopt.cli; extopt.cli.build_parser(); print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
