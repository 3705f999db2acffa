"""End-to-end behaviour of the command-line interface."""

import csv
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from extopt.cli import main

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

    def test_forced_early_stop_exit_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-n", "2", "-x", "1", "-w", "1.5", "--max-iters", "10", "--cap", "0"
        )
        assert code == 4
        assert json.loads(out)["status"] == "INCONCLUSIVE"


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
