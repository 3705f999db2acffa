"""Command-line front end: solve, verify, sweep, variance, enumerate.

JSON goes to stdout, diagnostics to stderr, CSV only through --output.
Rationals are serialized as exact "p/q" strings so reports round-trip.

Exit codes: 0 success/CONFIRMED, 1 internal error, 2 invalid input or cap
exceeded, 3 trivial or unstable regime, 4 INCONCLUSIVE verification, 5
VIOLATED verification.  verify decides by an exact certificate, so it returns
0 or 5; 4 stays reserved.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Any, Sequence

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
    QueueParams,
    as_rational,
    externality_mean,
    externality_variance,
    supremum_vector,
)
from .oracle import SubgradientConfig, projected_subgradient, verify_conjecture
from .report import CONFIRMED, CONJECTURED, INCONCLUSIVE, PROVEN, VIOLATED, SolveReport

SCHEMA = "extopt/1"

_STATUS_EXIT = {CONFIRMED: 0, INCONCLUSIVE: 4, VIOLATED: 5}


def _frac(value: Fraction) -> str:
    return str(value)


def _vec(values: Sequence[Fraction]) -> list[str]:
    # a vector repeats a few entry objects (0, x, r, ...): format each
    # object once.  Keyed by id, which hashes far faster than a Fraction;
    # ids stay unique while `values` holds the objects
    ids = list(map(id, values))
    text = {key: _frac(v) for key, v in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def _envelope(command: str, instance: dict[str, Any], result: Any, status: str) -> dict:
    return {
        "command": command,
        "instance": instance,
        "result": result,
        "status": status,
        "versions": {"tool": __version__, "schema": SCHEMA},
    }


def _instance_dict(inst: Instance) -> dict[str, Any]:
    return {"n": inst.n, "x": _frac(inst.x), "w": _frac(inst.w)}


def _solve_result(report: SolveReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "vector": _vec(report.vector),
        "objective": _frac(report.objective),
        "method": report.method,
    }
    if report.delta_star is not None:
        out["delta_star"] = report.delta_star
    if report.delta_cert is not None:
        cert = report.delta_cert
        out["delta_certificate"] = {
            "delta1": cert.delta1,
            "delta2": cert.delta2,
            "delta_star": cert.delta_star,
            "a_delta1": _frac(cert.a_delta1),
            "a_delta2": _frac(cert.a_delta2),
            "window": [_frac(cert.window[0]), _frac(cert.window[1])],
            "used_fallback": cert.used_fallback,
        }
    if report.tau_main is not None:
        out["tau"] = {"tau_u": report.tau_main.tau_u, "tau_l": report.tau_main.tau_l}
    if report.tau_next is not None:
        out["tau_next"] = {"tau_u": report.tau_next.tau_u, "tau_l": report.tau_next.tau_l}
    return out


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(indent: str) -> json.JSONEncoder:
    # no `indent`, so `encode` runs the C encoder; the item separator puts
    # each list item on its own line at `indent`
    return json.JSONEncoder(separators=(",\n" + indent, ": "))


def _dumps(value: Any, indent: str = "") -> str:
    """The bytes of ``json.dumps(value, indent=2)`` for a payload with string
    keys.  Dicts and nested lists are walked here; a flat list of scalars,
    such as a vector, goes to the C encoder in one call."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        encode = _encoder(inner).encode
        body = (f"{encode(key)}: {_dumps(item, inner)}" for key, item in value.items())
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = _encoder(inner).encode(value)[1:-1]
        else:
            body = (",\n" + inner).join(_dumps(item, inner) for item in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    return _encoder(inner).encode(value)


def _emit(payload: dict) -> None:
    print(_dumps(payload))


def _make_instance(args: argparse.Namespace) -> Instance:
    return Instance(n=args.n, x=as_rational(args.x), w=as_rational(args.w))


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    if args.domain == "combinatorial":
        report = solve_combinatorial(inst)
    else:
        report = solve_continuous(inst)
    _emit(_envelope("solve", _instance_dict(inst), _solve_result(report), report.status))
    return 0


def _subgradient_config(args: argparse.Namespace) -> SubgradientConfig:
    kwargs: dict[str, Any] = {}
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return SubgradientConfig(**kwargs)


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    report = verify_conjecture(inst)
    cert = report.certificate
    result: dict[str, Any] = {
        "constructed_objective": _frac(report.constructed_objective),
        "oracle_objective": report.oracle_objective,
        "gap": report.gap,
        "converged": report.converged,
        "oracle_minimizer": list(report.oracle_minimizer),
        "certificate": None if cert is None else {
            "mu": cert.mu,
            "lower_bound": _frac(report.oracle_value),
            "tight_intervals": cert.tight_count,
            "alpha_one_intervals": cert.unsaturated_count + len(cert.tight),
            "unsaturated_intervals": cert.unsaturated_count,
        },
    }
    _emit(_envelope("verify", _instance_dict(inst), result, report.status))
    return _STATUS_EXIT[report.status]


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
    rows: list[tuple[int, Fraction]] = []
    for n in range(args.n_from, args.n_to + 1):
        top = min(last, math.ceil((n * x - w_from) / w_step) - 1)
        if len(rows) + max(0, top - first + 1) > cap:
            raise SizeCapError(f"sweep would exceed {cap} instances")
        rows.extend((n, w_from + k * w_step) for k in range(first, top + 1))
    return rows


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
            cont = solve_continuous(inst)
            statuses.add(cont.status)
            oracle_field = ""
            if args.with_oracle:
                cfg = _subgradient_config(args)
                start = [float(e) for e in cont.vector]
                oracle_field = repr(projected_subgradient(inst, cfg, start=start).value)
            writer.writerow(
                [
                    n,
                    _frac(inst.x),
                    _frac(inst.w),
                    inst.m,
                    _frac(inst.r),
                    comb.delta_star,
                    cont.tau_main.tau_u if cont.tau_main else "",
                    cont.tau_next.tau_u if cont.tau_next else "",
                    _frac(cont.objective),
                    oracle_field,
                    cont.status,
                ]
            )
    if not rows:
        status = INCONCLUSIVE
    else:
        status = PROVEN if statuses <= {PROVEN} else CONJECTURED
    spec = {
        "n": f"{args.n_from}..{args.n_to}",
        "x": args.x,
        "w": f"{args.w_from}..{args.w_to} step {args.w_step}",
    }
    _emit(_envelope("sweep", spec, {"rows": len(rows), "output": args.output}, status))
    return 0


def _cmd_variance(args: argparse.Namespace) -> int:
    lam = as_rational(args.lam)
    if lam <= 0:
        raise ValidationError("--lambda must be positive")
    q = QueueParams(lam=lam, mu1=as_rational(args.mu1), mu2=as_rational(args.mu2))
    inst = _make_instance(args)
    cont = solve_continuous(inst)
    sup_vec = supremum_vector(inst)
    result = {
        "mean": _frac(externality_mean(q, inst.n, inst.x)),
        "variance_min": _frac(externality_variance(q, cont.vector, inst.x)),
        "variance_sup": _frac(externality_variance(q, sup_vec, inst.x)),
        "minimizing_vector": _vec(cont.vector),
        "supremum_vector": _vec(sup_vec),
    }
    instance = _instance_dict(inst)
    instance["queue"] = {"lambda": _frac(q.lam), "mu1": _frac(q.mu1), "mu2": _frac(q.mu2)}
    _emit(_envelope("variance", instance, result, cont.status))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    comb = solve_combinatorial(inst)
    delta = args.delta if args.delta is not None else comb.delta_star
    cap = args.cap if args.cap is not None else 20
    members = enumerate_gamma(inst, delta, cap=cap)
    result = {
        "delta": delta,
        "count": len(members),
        "members": [_vec(mem) for mem in members],
    }
    status = PROVEN if delta == comb.delta_star else INCONCLUSIVE
    _emit(_envelope("enumerate", _instance_dict(inst), result, status))
    return 0


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, required=True, help="number of waiting customers")
    parser.add_argument("-x", required=True, help='tagged demand, e.g. "1.1" or "11/10"')
    parser.add_argument("-w", required=True, help="total mass budget, 0 < w < n*x")


def _add_oracle_flags(parser: argparse.ArgumentParser, when: str) -> None:
    parser.add_argument("--max-iters", type=int, default=None, help=f"subgradient budget{when}")
    parser.add_argument("--seed", type=int, default=None, help=f"oracle RNG seed{when}")
    parser.add_argument("--restarts", type=int, default=None, help=f"random restarts{when}")


def build_parser() -> argparse.ArgumentParser:
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

    p_verify = sub.add_parser(
        "verify", help="prove the duo construction optimal, or find a better point, exactly"
    )
    _add_instance_flags(p_verify)
    # the float oracles these configured no longer decide; the flags still
    # parse so that existing command lines keep working
    ignored = " (ignored: verify decides exactly)"
    _add_oracle_flags(p_verify, ignored)
    p_verify.add_argument("--resolution", type=int, default=None,
                          help=f"lattice resolution{ignored}")
    p_verify.add_argument("--cap", type=int, default=None, help=f"lattice point cap{ignored}")
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
                         help="also run the subgradient oracle per row (slow)")
    p_sweep.add_argument("--cap", type=int, default=None, help="instance count cap")
    _add_oracle_flags(p_sweep, " (with --with-oracle)")
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
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and reused: parsing leaves the parser unchanged
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrivialRegimeError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed self-check or a bug: report it, never escape the exit-code table
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    app()
