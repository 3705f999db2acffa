"""Byte-identity of the default output of every command.

One SHA-256 digest covers the argv, exit code and stdout of `solve` in both
domains over a grid of small instances; one more per command covers
`verify`, `variance`, `enumerate` and `sweep` (with the CSV it writes).  Any
change to a vector, an objective, a certificate field, a status or the JSON
layout changes them; a change that only makes the program faster does not.
"""

import contextlib
import hashlib
import io

import pytest

from extopt.cli import main
from helpers import twelfths_grid

# recorded from the solvers before their placement-based construction
GOLDEN_SOLVE_SHA256 = "570361eada3c2e811d28932de9b54737c64399b59aa30600343abe0453b3e850"

# recorded from the `json.dumps(indent=2)` writer, before the one-pass one
GOLDEN_COMMAND_SHA256 = {
    "verify": "1089be92a341d7404bc0c58e5902bc83665fee7d449dc5b3768010f8f1a1f210",
    "variance": "304124cd7d2c8d805411610ab4b5cf013cdadb27a8e49be80c440bc0b9802590",
    "enumerate": "9802aa9946986f1db54b3998ed55095921d216160171a36f0624f98a4c66d165",
    "sweep": "65894534212a2757e70eb53b860c905c5df4bf3850ab1e321d9810a62bf5dfd6",
}


def solve_grid():
    """argv of `solve` in both domains on every instance of `twelfths_grid`."""
    for domain in ("continuous", "combinatorial"):
        for n, x, w in twelfths_grid():
            yield ["solve", "--domain", domain, "-n", str(n), "-x", str(x), "-w", str(w)]


def small_grid(top):
    """The instances of `twelfths_grid` with n <= top, as argv flags."""
    for n, x, w in twelfths_grid():
        if n <= top:
            yield ["-n", str(n), "-x", str(x), "-w", str(w)]


def verify_grid():
    """`verify` on every instance with n <= 9: all CONFIRMED."""
    for flags in small_grid(9):
        yield ["verify", *flags]


def variance_grid():
    """`variance` with three stable queues, one unstable and one invalid."""
    queues = (("1/2", "1", "2"), ("1/3", "3/2", "5/2"), ("2/5", "2", "5"),
              ("1", "1", "1"), ("0", "1", "1"))
    for flags in small_grid(6):
        for lam, mu1, mu2 in queues:
            yield ["variance", *flags, "--lambda", lam, "--mu1", mu1, "--mu2", mu2]


def enumerate_grid():
    """`enumerate` at the optimal widest gap for n <= 8, at every widest gap
    for n <= 5, and past its cap."""
    for flags in small_grid(8):
        yield ["enumerate", *flags]
    for flags in small_grid(5):
        for delta in range(0, int(flags[1]) + 3):
            yield ["enumerate", *flags, "--delta", str(delta)]
    yield ["enumerate", "-n", "25", "-x", "1", "-w", "7/2", "--cap", "20"]


def sweep_grid():
    """`sweep` over small ranges, an empty one and one with an invalid x."""
    for x in ("1", "3/7", "11/10"):
        yield ["sweep", "--n-from", "2", "--n-to", "9", "-x", x, "--w-from", "0",
               "--w-to", "12", "--w-step", "1/4", "--output", "rows.csv"]
    yield ["sweep", "--n-from", "5", "--n-to", "4", "-x", "1", "--w-from", "1",
           "--w-to", "2", "--w-step", "1", "--output", "rows.csv"]
    yield ["sweep", "--n-from", "2", "--n-to", "3", "-x", "0", "--w-from", "1",
           "--w-to", "2", "--w-step", "1", "--output", "rows.csv"]


def command_digest(grid, written=None) -> str:
    """SHA-256 over each argv, its exit code, its stdout and, when `written`
    is given, the bytes of that file after the command."""
    digest = hashlib.sha256()
    for argv in grid:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
        if written is not None and written.exists():
            digest.update(written.read_bytes())
            written.unlink()
    return digest.hexdigest()


def solve_digest() -> str:
    return command_digest(solve_grid())


def test_solve_output_is_byte_identical():
    assert solve_digest() == GOLDEN_SOLVE_SHA256


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMAND_SHA256))
def test_command_output_is_byte_identical(command, tmp_path, monkeypatch):
    # sweep names its CSV in the JSON, so the path must not vary between runs
    monkeypatch.chdir(tmp_path)
    grid = {"verify": verify_grid, "variance": variance_grid,
            "enumerate": enumerate_grid, "sweep": sweep_grid}[command]
    assert command_digest(grid(), tmp_path / "rows.csv") == GOLDEN_COMMAND_SHA256[command]
