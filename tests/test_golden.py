"""Byte-identity of the default `solve` output.

One SHA-256 digest covers the argv, exit code and stdout of `solve` in both
domains over a grid of small instances.  Any change to a vector, an
objective, a certificate field, a status or the JSON layout changes it; a
change that only makes the solvers faster does not.
"""

import contextlib
import hashlib
import io

from extopt.cli import main
from helpers import twelfths_grid

# recorded from the solvers before their placement-based construction
GOLDEN_SOLVE_SHA256 = "570361eada3c2e811d28932de9b54737c64399b59aa30600343abe0453b3e850"


def solve_grid():
    """argv of `solve` in both domains on every instance of `twelfths_grid`."""
    for domain in ("continuous", "combinatorial"):
        for n, x, w in twelfths_grid():
            yield ["solve", "--domain", domain, "-n", str(n), "-x", str(x), "-w", str(w)]


def solve_digest() -> str:
    digest = hashlib.sha256()
    for argv in solve_grid():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
    return digest.hexdigest()


def test_solve_output_is_byte_identical():
    assert solve_digest() == GOLDEN_SOLVE_SHA256
