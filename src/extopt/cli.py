"""Command-line front end: solve, verify, sweep, variance, enumerate.

JSON goes to stdout, diagnostics to stderr, CSV only through --output.
A report's scalars hold rationals as Fractions, written as exact "p/q"
strings so reports round-trip.

Exit codes: 0 success/CONFIRMED, 1 internal error, 2 invalid input or cap
exceeded, 3 trivial or unstable regime, 141 stdout closed by its reader;
4 (INCONCLUSIVE) and 5 (VIOLATED) stay reserved.  verify proves the duo
construction optimal by an exact certificate, so it exits 0, or 1 on a
failed self-check.  sweep --with-oracle writes that certificate's exact
bound per row, so no command loads numpy.

A command line of one exact form, a command name and then ``option value``
pairs that argparse would accept as they are, is read straight from that
command's option table (`_read`), which `_build_parsers` makes from the
parsers' own actions.  Any other command line goes to the full argparse
parser, which also writes every help text, version and error.

Each report shape (three for solve, one each for verify, sweep and
variance, one per member count for enumerate) is compiled once, on first
use, into a form (`_form`): its keys, punctuation and constants as the
literal text between its vectors, with a hole for each scalar.  A command
hands `_emit` that cached form, the flat tuple of its scalars and its
vectors, and builds no payload dict; `_fill` writes each scalar through
one table by exact type (a Fraction as its "p/q" string), with no encoder
built per value, into its segment's holes.  A solution vector is written
run by run from its placement: a run's unit text is repeated in blocks of
about `_BLOCK` (1 MiB) characters by `_repeated`, and a unit longer than a
block is written token by token, its zero stretches, like the zeros after
the last run, through `_repeated` too.  So each vector byte is copied once
into the stream and the memory in use stays a few blocks, whatever n.
The bytes equal ``json.dumps(payload, indent=2)`` with each Fraction
replaced by its string; `_dumps`, for the tests, reads the form and the
scalars off such a payload and takes the same fill.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from . import __version__
from .combinatorial import enumerate_gamma, solve_combinatorial
from .continuous import solve_continuous
from .errors import (
    SizeCapError,
    StabilityError,
    TrivialRegimeError,
    ValidationError,
)
from .model import (
    Instance,
    Placement,
    QueueParams,
    _common,
    _length,
    _placement,
    as_rational,
    externality_mean,
    variance_range,
)
from .model import externality_variance  # noqa: F401  wrapped here by perfbench/tracing.py
from .oracle import verify_conjecture
from .report import CONJECTURED, INCONCLUSIVE, PROVEN

SCHEMA = "extopt/1"


_ZERO = Fraction(0)


class _VectorTexts(tuple):
    """(n, runs, texts, zero) of a length-n vector for the writer: the runs
    of its placement, the JSON text of each of its values and the text of a
    zero entry."""


def _vec(
    n: int, placed: Placement, form: Callable[[Fraction], Any] = lambda entry: entry
) -> _VectorTexts:
    """The length-n vector whose nonzero entries are ``placed``, each entry
    written as the JSON text of ``form(entry)``: each entry of the
    placement's ``values`` is formatted once, whatever n."""
    runs, values = placed
    return _VectorTexts((n, runs, [_text(form(value)) for value in values],
                         _text(form(_ZERO))))


# The JSON text of a scalar by its exact type: the text `json.dumps` writes,
# and for a Fraction its exact "p/q" string, whose digits, "-" and "/" need
# no escape.  `JSONEncoder.encode` builds a new C encoder for every value
# that is not a str, so only nan and ±inf (to keep the encoder's spelling)
# or a value of another type (an IntEnum member, say) go to it.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: lambda f: float.__repr__(f) if math.isfinite(f) else _encode(f),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: '"%s"'.__mod__,
}
_encode = json.JSONEncoder().encode


def _text(value: Any) -> str:
    """The JSON text of a scalar."""
    return _SCALAR_TEXT.get(type(value), _encode)(value)


# the characters a vector's repeated text is written in at a time: one
# block is built, then written as often as it fits, so the memory a vector
# takes does not grow with n
_BLOCK = 1 << 20


def _repeated(text: str, count: int) -> Iterator[str]:
    """``text * count`` as chunks of whole copies of ``text``, each of at
    most `_BLOCK` characters unless ``text`` itself is longer."""
    per = max(1, _BLOCK // len(text))
    if count > per:
        block = text * per
        for _ in range(count // per):
            yield block
        count %= per
    if count:
        yield text * count


def _items(vector: _VectorTexts, sep: str) -> Iterator[str]:
    """The entries of ``vector`` as chunks, each entry's text followed by
    ``sep``: a unit whose whole text fits in a block is repeated by
    `_repeated`.  A longer one is written token by token, each zero stretch
    through `_repeated` and then the mass: such units come from `build_duo`'s
    few pieces or a vector's one-token masses, never as a flood of tiny
    tokens, so nothing is gathered into blocks."""
    n, runs, texts, zero = vector
    zero += sep
    for unit, count in runs:
        size = sum([zeros * len(zero) + len(texts[code]) for zeros, code in unit])
        if size + len(unit) * len(sep) <= _BLOCK:
            yield from _repeated("".join([zero * zeros + texts[code] + sep
                                          for zeros, code in unit]), count)
            continue
        for _ in range(count):
            for zeros, code in unit:
                yield from _repeated(zero, zeros)
                yield texts[code] + sep
    yield from _repeated(zero, n - _length(runs))


# In a skeleton, the place of a scalar (a hole) and of a nonempty vector
_HOLE = object()
_VECTOR = object()


class _Form(NamedTuple):
    """The JSON text of one report shape, compiled by `_form`: the text
    before, between and after its vectors as %-format strings, one "%s" per
    scalar; the index of each of these segments' first scalar, and then the
    scalar count; and the item separator of each vector."""

    segments: tuple[str, ...]
    bounds: tuple[int, ...]
    seps: tuple[str, ...]


def _layout(skeleton: Any, indent: str, out: list, seps: list) -> None:
    """Append the JSON text of ``skeleton`` to ``out`` as pieces: literal
    text with each "%" doubled, `_HOLE` for a hole and a None slot for a
    vector, whose item separator goes to ``seps``."""
    if skeleton is _HOLE:
        out.append(_HOLE)
        return
    inner = indent + "  "
    if skeleton is _VECTOR:
        out += ["[\n" + inner, None, "\n" + indent + "]"]
        seps.append(",\n" + inner)
    elif isinstance(skeleton, dict):
        if not skeleton:
            out.append("{}")
            return
        lead = "{\n" + inner
        for key, item in skeleton.items():
            out.append(lead + _SCALAR_TEXT[str](key).replace("%", "%%") + ": ")
            _layout(item, inner, out, seps)
            lead = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(skeleton, (list, tuple)):
        if not skeleton:
            out.append("[]")
            return
        lead = "[\n" + inner
        for item in skeleton:
            out.append(lead)
            _layout(item, inner, out, seps)
            lead = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(_text(skeleton).replace("%", "%%"))


def _form(skeleton: Any) -> _Form:
    """The `_Form` of ``skeleton``: the value of one report shape with
    `_HOLE` for each scalar that a report fills in, `_VECTOR` for each
    vector, and its constants (keys, the command name, versions) written
    in.  `_layout` runs once per shape; each report then only fills."""
    out: list = []
    seps: list = []
    _layout(skeleton, "", out, seps)
    segments, bounds, pieces, holes = [], [0], [], 0
    for piece in out + [None]:
        if piece is None:
            segments.append("".join(pieces))
            bounds.append(holes)
            pieces = []
        elif piece is _HOLE:
            pieces.append("%s")
            holes += 1
        else:
            pieces.append(piece)
    return _Form(tuple(segments), tuple(bounds), tuple(seps))


def _fill(form: _Form, leaves: Sequence[Any], vectors: Sequence[_VectorTexts]) -> Iterator[str]:
    """The report of shape ``form`` whose scalars, in the order of its
    holes, are ``leaves`` and whose vectors are ``vectors``, as a stream of
    chunks.

    Each scalar's text comes from `_SCALAR_TEXT` and fills its segment by
    one "%".  A vector is written by `_items` in chunks of at most about
    `_BLOCK` characters; its last chunk is held back to drop the separator
    after its last entry and is joined to the segment after it.  So each
    vector byte is copied once into the stream, and the memory in use does
    not grow with n.
    """
    segments, bounds, seps = form
    texts = tuple([_SCALAR_TEXT.get(type(leaf), _encode)(leaf) for leaf in leaves])
    last = segments[0] % texts[:bounds[1]]
    for i, vector in enumerate(vectors, 1):
        sep = seps[i - 1]
        for chunk in _items(vector, sep):
            yield last
            last = chunk
        last = last[:-len(sep)] + segments[i] % texts[bounds[i]:bounds[i + 1]]
    yield last


def _parts(value: Any, leaves: list, vectors: list) -> Any:
    """The skeleton of ``value``, a payload with string keys: each scalar
    is a hole and goes to ``leaves``, each nonempty `_VectorTexts` is a
    vector and goes to ``vectors``, in the order they are written."""
    if type(value) is _VectorTexts:
        if not value[0]:  # n = 0
            return []
        vectors.append(value)
        return _VECTOR
    if isinstance(value, dict):
        return {key: _parts(item, leaves, vectors) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_parts(item, leaves, vectors) for item in value]
    leaves.append(value)
    return _HOLE


def _chunks(value: Any) -> Iterator[str]:
    """The bytes of ``json.dumps(value, indent=2)`` as a stream of chunks,
    for a payload with string keys, where a Fraction stands for its "p/q"
    string and a `_VectorTexts` for the list of its entries: the form and
    the leaves are read off ``value``, then filled as a command's are."""
    leaves: list = []
    vectors: list = []
    return _fill(_form(_parts(value, leaves, vectors)), leaves, vectors)


def _dumps(value: Any) -> str:
    """The chunks of `_chunks` as one string."""
    return "".join(_chunks(value))


class _StdoutClosed(Exception):
    """The reader of stdout closed it while a report was written."""


def _emit(form: _Form, leaves: Sequence[Any], vectors: Sequence[_VectorTexts]) -> None:
    """Write the report of shape ``form`` with ``leaves`` and ``vectors``
    (see `_fill`) to stdout."""
    stdout = sys.stdout
    try:
        stdout.writelines(_fill(form, leaves, vectors))
        stdout.write("\n")
        # a reader that closed the pipe shows here, not at interpreter exit
        stdout.flush()
    except BrokenPipeError:
        # bytes left in stdout's buffer would fail again when the
        # interpreter flushes it at exit: point its descriptor at the null
        # device, as the `signal` module's note on SIGPIPE advises
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = stdout.fileno()  # an in-process stream may have none
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise _StdoutClosed from None


# The skeletons of the report shapes, each compiled by `_form` on its first
# use.  Every report is the envelope of `_report`, so the instance's scalars
# fill its first holes and the status its last.
_INSTANCE = {"n": _HOLE, "x": _HOLE, "w": _HOLE}
_TAU = {"tau_u": _HOLE, "tau_l": _HOLE}
# the fields of a `DeltaCertificate` in their order, the window a pair
_DELTA_CERTIFICATE = {"delta1": _HOLE, "delta2": _HOLE, "delta_star": _HOLE,
                      "a_delta1": _HOLE, "a_delta2": _HOLE, "window": [_HOLE, _HOLE],
                      "used_fallback": _HOLE}


def _report(command: str, instance: dict, result: dict) -> dict:
    return {
        "command": command,
        "instance": instance,
        "result": result,
        "status": _HOLE,
        "versions": {"tool": __version__, "schema": SCHEMA},
    }


@functools.cache
def _solve_form(shape: str) -> _Form:
    """The form of a solve of one shape: "continuous", or the combinatorial
    "gap-profile" (m >= 1) or "middle-point" (m = 0)."""
    blocks = {
        "continuous": {"tau": _TAU, "tau_next": _TAU},
        "gap-profile": {"delta_star": _HOLE, "delta_certificate": _DELTA_CERTIFICATE},
        "middle-point": {"delta_star": _HOLE},
    }[shape]
    return _form(_report("solve", _INSTANCE, {"vector": _VECTOR, "objective": _HOLE,
                                              "method": _HOLE, **blocks}))


@functools.cache
def _verify_form() -> _Form:
    return _form(_report("verify", _INSTANCE, {
        "constructed_objective": _HOLE,
        "oracle_objective": _HOLE,
        "gap": _HOLE,
        "converged": _HOLE,
        "oracle_minimizer": _VECTOR,
        "certificate": {
            "mu": _HOLE,
            "lower_bound": _HOLE,
            "tight_intervals": _HOLE,
            "alpha_one_intervals": _HOLE,
            "unsaturated_intervals": _HOLE,
        },
    }))


@functools.cache
def _sweep_form() -> _Form:
    return _form(_report("sweep", _INSTANCE, {"rows": _HOLE, "output": _HOLE}))


@functools.cache
def _variance_form() -> _Form:
    return _form(_report(
        "variance",
        {**_INSTANCE, "queue": {"lambda": _HOLE, "mu1": _HOLE, "mu2": _HOLE}},
        {"mean": _HOLE, "variance_min": _HOLE, "variance_sup": _HOLE,
         "minimizing_vector": _VECTOR, "supremum_vector": _VECTOR},
    ))


@functools.cache
def _enumerate_form(members: int) -> _Form:
    return _form(_report("enumerate", _INSTANCE, {"delta": _HOLE, "count": _HOLE,
                                                  "members": [_VECTOR] * members}))


def _make_instance(args: argparse.Namespace) -> Instance:
    return Instance(n=args.n, x=as_rational(args.x), w=as_rational(args.w))


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    if args.domain == "continuous":
        report = solve_continuous(inst)
        t1, t2 = report.tau_main, report.tau_next
        shape, blocks = "continuous", (t1.tau_u, t1.tau_l, t2.tau_u, t2.tau_l)
    else:
        report = solve_combinatorial(inst)
        cert = report.delta_cert
        if cert is None:
            shape, blocks = "middle-point", (report.delta_star,)
        else:
            shape, blocks = "gap-profile", (
                report.delta_star, cert.delta1, cert.delta2, cert.delta_star,
                cert.a_delta1, cert.a_delta2, *cert.window, cert.used_fallback)
    _emit(_solve_form(shape),
          (inst.n, inst.x, inst.w, report.objective, report.method, *blocks, report.status),
          (_vec(inst.n, report.placed),))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    report = verify_conjecture(inst)
    cert = report.certificate
    alpha_one = cert.unsaturated_count + sum(hi - lo + 1 for lo, hi, _ in cert.runs)
    _emit(_verify_form(),
          (inst.n, inst.x, inst.w, report.constructed_objective, report.oracle_objective,
           report.gap, report.converged, cert.mu, report.oracle_value, cert.tight_count,
           alpha_one, cert.unsaturated_count, report.status),
          (_vec(inst.n, report.construction.placed, float),))
    return 0


def _sweep_rows(args: argparse.Namespace) -> list[tuple[int, Fraction]]:
    x = as_rational(args.x)
    if x <= 0:
        raise ValidationError(f"x must be positive, got {x}")
    w_from = as_rational(args.w_from)
    w_to = as_rational(args.w_to)
    w_step = as_rational(args.w_step)
    if w_step <= 0:
        raise ValidationError("--w-step must be positive")
    cap = args.cap if args.cap is not None else 100_000
    # grid point k >= 0 is w_from + k*w_step; the rows are the k with
    # w <= w_to and 0 < w < n*x, so points outside the domain cost nothing
    first = max(0, math.floor(-w_from / w_step) + 1)
    last = math.floor((w_to - w_from) / w_step)
    if last < first:
        return []
    # n adds a row iff n*x > w_from + first*w_step, and then so does every
    # larger n; from n = full on, every point up to `last` is a row
    start = max(args.n_from, math.floor((w_from + first * w_step) / x) + 1)
    full = max(start, min(math.floor((w_from + last * w_step) / x) + 1, args.n_to + 1))
    denom, (xs, ws, ss) = _common(x, w_from, w_step)

    def top(n: int) -> int:
        # the last k with w_from + k*w_step < n*x, at most `last`
        return min(last, (n * xs - ws - 1) // ss)

    # count the rows before building any: each n below `full` adds at least
    # one, so the loop stops within cap + 1 steps
    count = max(0, args.n_to + 1 - full) * (last - first + 1)
    for n in range(start, full):
        if count > cap:
            break
        count += top(n) - first + 1
    if count > cap:
        raise SizeCapError(f"sweep would exceed {cap} instances")
    return [(n, w_from + k * w_step)
            for n in range(start, args.n_to + 1) for k in range(first, top(n) + 1)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    x = as_rational(args.x)
    rows = _sweep_rows(args)
    header = [
        "n", "x", "w", "m", "r", "delta_star", "tau_u1", "tau_u2",
        "objective_closed", "objective_oracle", "status",
    ]
    statuses = set()
    try:
        handle = open(args.output, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write CSV to {args.output}: {exc}") from exc
    with handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for n, w in rows:
            inst = Instance(n=n, x=x, w=w)
            comb = solve_combinatorial(inst)
            oracle_field = ""
            if args.with_oracle:
                verified = verify_conjecture(inst)
                cont = verified.construction
                oracle_field = verified.oracle_value
            else:
                cont = solve_continuous(inst)
            statuses.add(cont.status)
            writer.writerow(
                [
                    n,
                    inst.x,
                    inst.w,
                    inst.m,
                    inst.r,
                    comb.delta_star,
                    cont.tau_main.tau_u,
                    cont.tau_next.tau_u,
                    cont.objective,
                    oracle_field,
                    cont.status,
                ]
            )
    if not rows:
        status = INCONCLUSIVE
    else:
        status = PROVEN if statuses <= {PROVEN} else CONJECTURED
    _emit(_sweep_form(), (f"{args.n_from}..{args.n_to}", args.x,
                          f"{args.w_from}..{args.w_to} step {args.w_step}",
                          len(rows), args.output, status), ())
    return 0


def _cmd_variance(args: argparse.Namespace) -> int:
    lam = as_rational(args.lam)
    if lam <= 0:
        raise ValidationError("--lambda must be positive")
    q = QueueParams(lam=lam, mu1=as_rational(args.mu1), mu2=as_rational(args.mu2))
    inst = _make_instance(args)
    cont = solve_continuous(inst)
    # the solve has scored its objective and checked it against the chord
    variance_min, variance_sup = variance_range(q, inst, cont.objective)
    _emit(_variance_form(),
          (inst.n, inst.x, inst.w, q.lam, q.mu1, q.mu2, externality_mean(q, inst.n, inst.x),
           variance_min, variance_sup, cont.status),
          # the supremum vector is the placement of model.supremum_vector(inst)
          (_vec(inst.n, cont.placed), _vec(inst.n, (((((0, 0),), 1),), (inst.w,)))))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    comb = solve_combinatorial(inst)
    delta = args.delta if args.delta is not None else comb.delta_star
    cap = args.cap if args.cap is not None else 20
    members = enumerate_gamma(inst, delta, cap)
    status = PROVEN if delta == comb.delta_star else INCONCLUSIVE
    _emit(_enumerate_form(len(members)), (inst.n, inst.x, inst.w, delta, len(members), status),
          [_vec(inst.n, _placement(member)) for member in members])
    return 0


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, required=True, help="number of waiting customers")
    parser.add_argument("-x", required=True, help='tagged demand, e.g. "1.1" or "11/10"')
    parser.add_argument("-w", required=True, help="total mass budget, 0 < w < n*x")


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    # the float oracles these configured no longer decide; the flags still
    # parse so that existing command lines keep working
    ignored = " (ignored: verify decides exactly)"
    parser.add_argument("--max-iters", type=int, default=None, help=f"subgradient budget{ignored}")
    parser.add_argument("--seed", type=int, default=None, help=f"oracle RNG seed{ignored}")
    parser.add_argument("--restarts", type=int, default=None, help=f"random restarts{ignored}")
    parser.add_argument("--resolution", type=int, default=None,
                        help=f"lattice resolution{ignored}")
    parser.add_argument("--cap", type=int, default=None, help=f"lattice point cap{ignored}")


class _Command(NamedTuple):
    """One command's table for `_read`: its options that take one value, by
    option string; the namespace a command line starts from (``command``,
    every option's default, then ``func``, in the full parser's order); and
    the dests of its required options."""

    options: dict[str, argparse.Action]
    start: dict[str, Any]
    required: frozenset[str]


def _command_table(name: str, parser: argparse.ArgumentParser) -> _Command:
    """The `_Command` of the command ``name`` and its parser, read from the
    actions that its ``add_argument`` calls returned."""
    actions = [action for action in parser._actions if action.default is not argparse.SUPPRESS]
    return _Command(
        options={option: action for action in actions if action.nargs is None
                 for option in action.option_strings},
        start={"command": name, **{action.dest: action.default for action in actions},
               "func": parser.get_default("func")},
        required=frozenset(action.dest for action in actions if action.required),
    )


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The full parser, and the `_Command` table of each of its commands by name."""
    parser = argparse.ArgumentParser(
        prog="extopt",
        description="Exact solvers and oracles for the interval-shortfall objective "
        "behind queueing externalities variance bounds.",
    )
    parser.add_argument("--version", action="version", version=f"extopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a closed-form solver")
    _add_instance_flags(p_solve)
    p_solve.add_argument(
        "--domain",
        choices=("combinatorial", "continuous"),
        required=True,
        help="structured placements or the full simplex slab",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="prove the duo construction optimal, exactly")
    _add_instance_flags(p_verify)
    _add_oracle_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="batch solve over ranges, write a CSV table")
    p_sweep.add_argument("--n-from", type=int, required=True)
    p_sweep.add_argument("--n-to", type=int, required=True)
    p_sweep.add_argument("-x", required=True)
    p_sweep.add_argument("--w-from", required=True)
    p_sweep.add_argument("--w-to", required=True)
    p_sweep.add_argument("--w-step", required=True)
    p_sweep.add_argument("--output", required=True, help="CSV destination path")
    p_sweep.add_argument("--with-oracle", action="store_true",
                         help="also write verify's exact oracle objective per row")
    p_sweep.add_argument("--cap", type=int, default=None, help="instance count cap")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_var = sub.add_parser("variance", help="externalities mean and variance range")
    _add_instance_flags(p_var)
    p_var.add_argument("--lambda", dest="lam", required=True, help="arrival rate")
    p_var.add_argument("--mu1", required=True, help="mean service demand")
    p_var.add_argument("--mu2", required=True, help="second moment of service demand")
    p_var.set_defaults(func=_cmd_variance)

    p_enum = sub.add_parser("enumerate", help="list structured vectors for a widest gap")
    _add_instance_flags(p_enum)
    p_enum.add_argument("--delta", type=int, default=None,
                        help="widest gap (defaults to the optimal one)")
    p_enum.add_argument("--cap", type=int, default=None, help="max n for enumeration")
    p_enum.set_defaults(func=_cmd_enumerate)
    return parser, {name: _command_table(name, command) for name, command in sub.choices.items()}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    # built on first use and reused: parsing leaves the parsers unchanged
    return _build_parsers()


def _read(command: _Command, args: list[str]) -> argparse.Namespace | None:
    """The namespace of a command's arguments of the form ``option value
    ...``, or None when they are of any other form or argparse would reject
    them.

    Each option must be an exact key of ``command.options`` and each value
    must not start with "-"; each value passes its option's ``type`` and
    ``choices`` as in argparse (a later repeat replaces an earlier one), and
    every required option must be given.
    """
    if len(args) % 2:
        return None
    given: dict[str, Any] = {}
    for option, text in zip(args[::2], args[1::2]):
        action = command.options.get(option)
        if action is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if not command.required <= given.keys():
        return None
    return argparse.Namespace(**{**command.start, **given})


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv``.

    A command name followed by ``option value`` pairs that `_read` accepts
    is read from that command's table, with no argparse call.  Any other
    command line (help, --version, an abbreviation, ``--opt=value``, a value
    that starts with "-", ``--``, a flag, anything argparse rejects) goes to
    the full parser, which writes the help, the version or the error.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    args = None if command is None else _read(command, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (TrivialRegimeError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _StdoutClosed:
        # the reader closed stdout (``| head``, say): stop quietly with the
        # status a shell gives a process that SIGPIPE ended, 128 + 13
        return 141
    except Exception as exc:
        # a failed self-check or a bug: report it, never escape the exit-code table
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    app()
