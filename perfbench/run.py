"""Benchmark of the extopt CLI: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload drives ``extopt.cli.main(argv)`` in-process, in a process of
its own with single-threaded numeric libraries, and checks every output with
the arithmetic in ``exact.py``.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs every command once untraced and once
with spans around the calls into each layer, and prints the per-layer
metrics.  The last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every process started from here
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import exact  # noqa: E402
from tracing import Tracer, layer_times, write_spans  # noqa: E402
from workloads import STATUS_EXIT, WORKLOADS, Checker  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
# Every timing is scaled by REFERENCE_SECONDS / (mean calibration time
# sampled before, during and after it).  The host's speed drifts by up to a
# factor of two within seconds; the scaled times read as on a machine where
# the calibration takes REFERENCE_SECONDS.
CALIBRATION_STEPS = 96
REFERENCE_SECONDS = 0.0006
SAMPLE_SECONDS = 0.02
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import extopt.cli; extopt.cli.build_parser()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "coords_per_s": "coord/s",
    "instances_per_s": "instance/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "model.eval_f.s": "s",
    "model.eval_f.calls": "count",
    "model.eval_f.unsat_intervals": "count",
    "model.eval_f.unsat_intervals_per_s": "1/s",
    "model.strict_pair_sum.s": "s",
    "model.externality_variance.s": "s",
    "combinatorial.delta_search.s": "s",
    "combinatorial.build_gamma_member.s": "s",
    "combinatorial.solve_combinatorial.self_s": "s",
    "continuous.build_duo.s": "s",
    "continuous.build_duo.failed": "count",
    "continuous.solve_continuous.self_s": "s",
    "oracle.projected_subgradient.s": "s",
    "oracle.projected_subgradient.steps": "count",
    "oracle.step_us": "us",
    "oracle.grid_search.s": "s",
    "oracle.grid_search.points": "count",
    "oracle.verify_conjecture.self_s": "s",
    "setup.numpy_import_s": "s",
    "trace.overhead_s": "s",
}

WARMUP = {
    "solve-continuous": ["solve", "--domain", "continuous", "-n", "7", "-x", "1", "-w", "11/5"],
    "solve-combinatorial": ["solve", "--domain", "combinatorial",
                            "-n", "7", "-x", "1", "-w", "11/5"],
    "variance": ["variance", "-n", "7", "-x", "1", "-w", "11/5",
                 "--lambda", "1/2", "--mu1", "1", "--mu2", "2"],
    "verify": ["verify", "-n", "5", "-x", "1", "-w", "17/12"],
}


def calibration():
    """Seconds taken by a fixed piece of Fraction arithmetic and of small
    numpy operations, the two kinds of work that dominate the program."""
    a = np.linspace(0.0, 1.0, 480).reshape(8, 60)
    b = np.linspace(0.0, 1.0, 1200).reshape(60, 20)
    start = time.perf_counter()
    acc, third = Fraction(0), Fraction(1, 3)
    for _ in range(CALIBRATION_STEPS):
        acc = acc + third if acc < 5 else acc - 5
    for _ in range(CALIBRATION_STEPS // 8):
        np.maximum(a @ b - 1.0, 0.0).sum(axis=1)
    return time.perf_counter() - start


class Speedometer:
    """Times a call in seconds scaled to the reference speed.

    The calibration runs once before the call, every SAMPLE_SECONDS during
    it (from a SIGALRM handler) and once after.  The scale is the reference
    over the mean calibration time.  ``net_clock`` is perf_counter minus the
    time spent calibrating, so no timing includes the calibration itself.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = None
        signal.signal(signal.SIGALRM, self._sample)

    def net_clock(self):
        return time.perf_counter() - self.spent

    def _sample(self, *_):
        if self.samples is None:  # a signal that arrived after the call
            return
        start = time.perf_counter()
        try:
            self.samples.append(calibration())
        except RecursionError:  # raised near the limit by the call's own frames
            pass
        self.spent += time.perf_counter() - start

    def measure(self, fn):
        """Run fn; returns its result, its scaled seconds and the scale."""
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
        try:
            start = self.net_clock()
            result = fn()
            seconds = self.net_clock() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        samples, self.samples = self.samples, None
        scale = REFERENCE_SECONDS / statistics.fmean(samples)
        return result, seconds * scale, scale


def setup_probe(speedometer, importtime):
    """Start fresh interpreters one at a time, each importing extopt.cli and
    building its parser.  Returns their scaled wall times and, with
    -X importtime, numpy's scaled cumulative import times."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE, SRC]

    def probe():
        return subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)

    probe()  # writes bytecode
    walls, numpy_import = [], []
    for _ in range(SETUP_PROBES):
        proc, seconds, scale = speedometer.measure(probe)
        walls.append(seconds)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_import.append(int(fields[1]) / 1e6 * scale)
    return walls, numpy_import


def call_cli(cli, speedometer, argv, tracer=None):
    """Run one command.  Returns (scaled seconds, scale, exit code or None,
    stdout, error)."""
    out = io.StringIO()

    def command():
        span = tracer.open("cli.main") if tracer else None
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # an escaped error is a failed operation
            rc, error = None, type(exc).__name__
        if tracer:
            tracer.close(span, failed=error is not None)
        return rc, error

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        (rc, error), seconds, scale = speedometer.measure(command)
    return seconds, scale, rc, out.getvalue(), error


class Tally:
    """Attempted and failed operations per command kind, plus what failed."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.errors = Counter()
        self.statuses = Counter()
        self.problems = []

    def record(self, op, rc, stdout, error, checker):
        """Count one operation; True when it succeeded and passed its checks."""
        self.attempted[op.kind] += 1
        documented = STATUS_EXIT.values() if op.kind == "verify" else (0,)
        if error is None and rc not in documented:
            error = f"exit {rc}"
        if error is not None:
            self.failed[op.kind] += 1
            self.errors[(op.kind, op.n, str(op.w), error)] += 1
            return False
        try:
            payload = json.loads(stdout)
            self.statuses[(op.kind, payload["status"])] += 1
            problems = checker.check(op, rc, payload)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed output: {exc!r}"]
        for problem in problems:
            self.problems.append(f"{' '.join(op.argv)}: {problem}")
        return not problems


def layer_sums(spans, calls, scale, default_restarts):
    """Per-layer times (scaled) and counts of one traced command."""
    times = layer_times(spans)

    def get(name, key="s"):
        if name not in times:
            return 0
        return times[name][key] * (scale if key in ("s", "self_s") else 1)

    steps = 0
    for args, kwargs, result in calls["oracle.projected_subgradient"]:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        steps += result.iterations // (cfg.restarts if cfg else default_restarts)
    return {
        "cli.main.self_s": get("cli.main", "self_s"),
        "model.eval_f.s": get("model.eval_f"),
        "model.eval_f.calls": get("model.eval_f", "calls"),
        "model.eval_f.unsat_intervals": sum(
            exact.shortfall(args[0], args[1])[1] for args, _, _ in calls["model.eval_f"]),
        "model.strict_pair_sum.s": get("model.strict_pair_sum"),
        "model.externality_variance.s": get("model.externality_variance"),
        "combinatorial.delta_search.s": get("combinatorial.delta_search"),
        "combinatorial.build_gamma_member.s": get("combinatorial.build_gamma_member"),
        "combinatorial.solve_combinatorial.self_s":
            get("combinatorial.solve_combinatorial", "self_s"),
        "continuous.build_duo.s": get("continuous.build_duo"),
        "continuous.build_duo.failed": get("continuous.build_duo", "failed"),
        "continuous.solve_continuous.self_s": get("continuous.solve_continuous", "self_s"),
        "oracle.projected_subgradient.s": get("oracle.projected_subgradient"),
        "oracle.projected_subgradient.steps": steps,
        "oracle.grid_search.s": get("oracle.grid_search"),
        "oracle.grid_search.points": sum(math.comb(args[1] + args[0].n - 1, args[0].n - 1)
                                         for args, _, _ in calls["oracle.grid_search"]),
        "oracle.verify_conjecture.self_s": get("oracle.verify_conjecture", "self_s"),
    }


def with_rates(sums):
    """A round's per-layer metrics: its sums plus the two derived rates."""
    out = {key: sums[key] for key in PER_LAYER_UNITS if key in sums}
    eval_s, sub_s = sums["model.eval_f.s"], sums["oracle.projected_subgradient.s"]
    steps = sums["oracle.projected_subgradient.steps"]
    out["model.eval_f.unsat_intervals_per_s"] = (
        sums["model.eval_f.unsat_intervals"] / eval_s if eval_s else 0)
    out["oracle.step_us"] = sub_s / steps * 1e6 if steps else 0
    return out


def run_workload(name, seed, seconds, trace):
    import extopt
    import extopt.cli as cli
    from extopt.oracle import SubgradientConfig

    if os.path.dirname(os.path.abspath(extopt.__file__)) != os.path.join(SRC, "extopt"):
        raise SystemExit(f"extopt was imported from {extopt.__file__}, not from {SRC}")

    speedometer = Speedometer()
    walls, numpy_import = setup_probe(speedometer, importtime=bool(trace))
    workload = WORKLOADS[name](seed)
    checker = Checker()
    tally = Tally()
    tracer = Tracer(speedometer.net_clock) if trace else None
    default_restarts = SubgradientConfig().restarts

    ops = workload.round()
    for kind in dict.fromkeys(op.kind for op in ops):
        call_cli(cli, speedometer, WARMUP[kind])

    rounds = []  # per round, per command: scaled seconds, n, passed its checks
    layers = []  # traced runs, per round: per-layer metrics
    traced_spans = []  # per traced command: scale, spans
    start = time.perf_counter()
    while True:
        checker.reset_round()
        timed = []
        sums = Counter()
        for op in ops:
            op_seconds, _, rc, stdout, error = call_cli(cli, speedometer, op.argv)
            timed.append((op_seconds, op.n, tally.record(op, rc, stdout, error, checker)))
            if tracer:
                tracer.install()
                try:
                    traced = call_cli(cli, speedometer, op.argv, tracer)
                finally:
                    tracer.uninstall()
                traced_seconds, scale, rc, stdout, error = traced
                tally.record(op, rc, stdout, error, checker)
                spans, calls = tracer.take()
                traced_spans.append((scale, spans))
                sums.update(layer_sums(spans, calls, scale, default_restarts))
                sums["trace.overhead_s"] += traced_seconds - op_seconds
        rounds.append(timed)
        if tracer:
            layers.append(with_rates(sums))
        if time.perf_counter() - start >= seconds:
            break
        ops = workload.round()

    if trace:
        write_spans(os.path.join(HERE, "out", f"spans-{name}-seed{seed}.jsonl"), traced_spans)
        metrics = {key: statistics.median(r[key] for r in layers) for key in layers[0]}
        # an interpreter that never imports numpy reports no numpy line
        metrics["setup.numpy_import_s"] = statistics.median(numpy_import or [0.0])
        units = PER_LAYER_UNITS
    else:
        # every round runs the same commands on inputs of the same shape:
        # take each command's median over the rounds
        slots = list(zip(*rounds))
        typical = sum(statistics.median(t for t, _, _ in slot) for slot in slots)
        passed = [slot[0][1] for slot in slots if all(ok for _, _, ok in slot)]
        metrics = {
            "setup_s": statistics.median(walls),
            "coords_per_s": sum(passed) / typical,
            "instances_per_s": len(passed) / typical,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  trace {int(bool(trace))}")
    for kind in tally.attempted:
        print(f"  {kind:<20} attempted {tally.attempted[kind]:>5}  failed {tally.failed[kind]:>4}")
    for (kind, n, w, error), count in sorted(tally.errors.items()):
        print(f"  failed {count}x: {kind} n={n} w={w}: {error}")
    for (kind, status), count in sorted(tally.statuses.items()):
        print(f"  status {kind:<20} {status:<12} {count}")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    for key, value in metrics.items():
        print(f"  {key:<42} {value:>16.6f} {units[key]}")
    return {
        "correct": not tally.problems,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sparse", "dense", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "extopt", "__init__.py")):
        raise SystemExit(f"no extopt sources under {SRC}")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
