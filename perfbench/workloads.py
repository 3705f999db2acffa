"""Seeded workloads and the checks applied to every output.

For ``sparse`` and ``dense`` the seed fixes the structure of a round: the
sizes, densities and leftover classes of its instances.  Every round runs
the same commands on that structure with a fresh x = p/q and w scaled with
it; the objective is homogeneous in (v, x), so every round does the same
scans on new inputs.  Instance sizes come in pairs n = N - d and N + d: the
scans cost about n^2/(m+1), so the sum over a pair hardly depends on d, and
rounds of different seeds cost nearly the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import exact

# r > 0 instances whose continuous solve fails in every run: the y-gap
# arrangement recurses once per mass and exceeds the interpreter's recursion
# limit at about 990 masses.  They do not depend on the seed.
RECURSION_FAULT = [
    (3000, Fraction(1), Fraction(1999, 2)),
    (10000, Fraction(1), Fraction(6667, 2)),
    (10000, Fraction(1), Fraction(10001, 4)),
]


@dataclass
class Op:
    kind: str
    argv: list
    n: int
    x: Fraction
    w: Fraction
    group: int  # ops on the same instance share a group
    queue: tuple = ()  # variance: lambda, mu1, mu2

    @property
    def m(self):
        return math.floor(self.w / self.x)

    @property
    def r(self):
        return self.w - self.m * self.x


def _instance_flags(n, x, w):
    return ["-n", str(n), "-x", str(x), "-w", str(w)]


def _solve_ops(n, x, w, group):
    return [Op(f"solve-{d}", ["solve", "--domain", d] + _instance_flags(n, x, w), n, x, w, group)
            for d in ("continuous", "combinatorial")]


def _rfrac(rng, lo, hi):
    """A fraction a/b strictly inside (lo, hi), with b from 2 to 12."""
    while True:
        b = rng.randint(2, 12)
        a = rng.randint(1, b - 1)
        value = Fraction(a, b)
        if lo < value < hi:
            return value


def _x(rng):
    return Fraction(rng.randint(2, 40), rng.randint(2, 13))


def _pair(rng, centre, spread):
    d = rng.randint(0, spread)
    return (centre - d, centre + d)


class Sparse:
    """Few full masses (m = 0..3), n in the low hundreds, plus one n <= 12
    instance for the exhaustive structured check."""

    name = "sparse"

    def __init__(self, seed):
        rng = random.Random(f"sparse/{seed}")
        self.rng = rng
        self.shapes = []  # (n, m, leftover fraction of x)
        classes = [(0, (0, 1)), (1, (0, Fraction(1, 2))), (2, (Fraction(1, 2), 1)), (3, None)]
        for m, rclass in classes:
            for n in _pair(rng, 150, 20):
                self.shapes.append((n, m, _rfrac(rng, *rclass) if rclass else Fraction(0)))
        n_small = rng.randint(6, 12)
        m_small = rng.randint(0, 3)
        r_small = _rfrac(rng, 0, 1) if m_small == 0 or rng.random() < 0.7 else Fraction(0)
        self.shapes.append((n_small, m_small, r_small))

    def round(self):
        rng = self.rng
        ops = []
        for group, (n, m, rfrac) in enumerate(self.shapes):
            x = _x(rng)
            w = x * (m + rfrac)
            mu1 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            rho = Fraction(rng.randint(1, 9), 10)
            lam = rho / mu1
            mu2 = mu1 * mu1 * (1 + Fraction(rng.randint(0, 8), 4))
            ops += _solve_ops(n, x, w, group)
            argv = (["variance"] + _instance_flags(n, x, w)
                    + ["--lambda", str(lam), "--mu1", str(mu1), "--mu2", str(mu2)])
            ops.append(Op("variance", argv, n, x, w, group, queue=(lam, mu1, mu2)))
        return ops


class Dense:
    """m between n/4 and n/2, n from 10^3 to 10^4, mostly r > 0."""

    name = "dense"

    def __init__(self, seed):
        rng = random.Random(f"dense/{seed}")
        self.rng = rng
        self.shapes = []  # (n, m, leftover fraction of x)
        # r > 0 instances keep m <= 800, well below the recursion fault
        for centre, spread, density, positive_r in (
            (2400, 200, (25, 28), True),
            (1400, 150, (45, 50), True),
            (7000, 1500, (33, 36), False),
        ):
            alpha = Fraction(rng.randint(*density), 100)
            for n in _pair(rng, centre, spread):
                m = math.floor(n * alpha)
                rfrac = _rfrac(rng, 0, 1) if positive_r else Fraction(0)
                self.shapes.append((n, m, rfrac))

    def round(self):
        rng = self.rng
        ops = []
        for group, (n, m, rfrac) in enumerate(self.shapes):
            x = _x(rng)
            ops += _solve_ops(n, x, x * (m + rfrac), group)
        for offset, (n, x, w) in enumerate(RECURSION_FAULT):
            ops += _solve_ops(n, x, w, len(self.shapes) + offset)
        return ops


class Verify:
    """verify on criterion-07-style instances (x = 1, w = m + j/12).

    The instances are fixed and the seed drives the oracle's random
    restarts (--seed).  The oracle's step count differs by a factor of two
    between instances of one size, so drawing the instances by seed moved
    the throughput by about 10% from seed to seed; the restarts move it by
    about 2%.
    """

    name = "verify"
    SHAPES = [
        # conjecture regime, exact lattice oracle runs (42504 and 5985 points)
        (6, 1, 7), (5, 1, 5),
        # conjecture regime, lattice above the cap: subgradient oracle only
        (19, 2, 11), (14, 6, 7), (11, 2, 7),
        # PROVEN
        (32, 8, 11),
        (120, 37, 4),
    ]

    def __init__(self, seed):
        rng = random.Random(f"verify/{seed}")
        self.ops = []
        for group, (n, m, j) in enumerate(self.SHAPES):
            x, w = Fraction(1), m + Fraction(j, 12)
            argv = ["verify"] + _instance_flags(n, x, w) + ["--seed", str(rng.randrange(2**31))]
            if n >= 100:
                # one restart, the descent from the construction: the
                # membership matrix is full size, the run stays short
                argv += ["--restarts", "1"]
            self.ops.append(Op("verify", argv, n, x, w, group))

    def round(self):
        return list(self.ops)


WORKLOADS = {cls.name: cls for cls in (Sparse, Dense, Verify)}


# ---------------------------------------------------------------- checks

# the CLI's documented exit code of each verify status
STATUS_EXIT = {"CONFIRMED": 0, "INCONCLUSIVE": 4, "VIOLATED": 5}


def _vector(strings):
    return [Fraction(s) for s in strings]


def _feasible(op, v):
    problems = []
    if len(v) != op.n:
        problems.append(f"vector has {len(v)} entries, want {op.n}")
    if any(e < 0 or e > op.x for e in v):
        problems.append("an entry lies outside [0, x]")
    if sum(v, Fraction(0)) != op.w:
        problems.append(f"entries sum to {sum(v, Fraction(0))}, want w = {op.w}")
    return problems


class Checker:
    """Checks one op's output; keeps the exact values later ops on the same
    instance are compared with, and caches reference searches by instance."""

    def __init__(self):
        self.group_values = {}
        self._structured = {}

    def reset_round(self):
        self.group_values = {}

    def structured_minimum(self, n, x, w):
        key = (n, x, w)
        if key not in self._structured:
            self._structured[key] = exact.structured_minimum(n, x, w)
        return self._structured[key]

    def check(self, op, rc, payload):
        if rc != STATUS_EXIT.get(payload.get("status"), 0):
            return [f"exit code {rc} does not match status {payload.get('status')}"]
        if op.kind == "verify":
            return self._verify(op, payload)
        if op.kind == "variance":
            return self._variance(op, payload)
        return self._solve(op, payload)

    def _solve(self, op, payload):
        res = payload["result"]
        v = _vector(res["vector"])
        problems = _feasible(op, v)
        if problems:
            return problems
        objective = Fraction(res["objective"])
        if exact.f_exact(v, op.x) != objective:
            problems.append(f"objective {objective} != exact f {exact.f_exact(v, op.x)}")
        n, x, w, m, r = op.n, op.x, op.w, op.m, op.r
        values = self.group_values.setdefault(op.group, {})
        values[op.kind] = objective
        if op.kind == "solve-continuous":
            proven = exact.is_proven(n, m, r)
            want = "PROVEN" if proven else "CONJECTURED"
            if payload["status"] != want:
                problems.append(f"status {payload['status']}, theorems say {want}")
            if proven and objective != exact.equidistant_value(n, x, w, m):
                problems.append("objective differs from the equidistant closed form")
        else:
            if payload["status"] != "PROVEN":
                problems.append(f"status {payload['status']}, want PROVEN")
            leftovers = 1 if r else 0
            if v.count(x) != m or v.count(r) != (leftovers or n - m):
                problems.append("combinatorial vector is not structured")
            if m == 0 and objective != exact.middle_point_value(n, x, r):
                problems.append("objective differs from the middle-point value")
            if r == 0 and objective != exact.equidistant_value(n, x, w, m):
                problems.append("objective differs from the equidistant closed form")
            if n <= 12 and objective != self.structured_minimum(n, x, w):
                problems.append("objective differs from the exhaustive structured minimum")
        if "solve-continuous" in values and "solve-combinatorial" in values:
            if values["solve-continuous"] > values["solve-combinatorial"]:
                problems.append("continuous objective exceeds the combinatorial one")
        return problems

    def _variance(self, op, payload):
        res = payload["result"]
        lam, mu1, mu2 = op.queue
        rho = lam * mu1
        factor = lam * mu2 / (1 - rho) ** 3
        n, x, w = op.n, op.x, op.w
        v = _vector(res["minimizing_vector"])
        problems = _feasible(op, v)
        if problems:
            return problems
        if Fraction(res["mean"]) != n * x / (1 - rho):
            problems.append("mean differs from n x / (1 - rho)")
        pair_min = exact.shortfall(v, x, min_len=2)[0]
        if Fraction(res["variance_min"]) != factor * (n * x + 2 * pair_min):
            problems.append("variance_min differs from the exact pair shortfall")
        if Fraction(res["variance_sup"]) != factor * (n * x + 2 * exact.supremum_bracket(n, x, w)):
            problems.append("variance_sup differs from the supremum bracket")
        if _vector(res["supremum_vector"]) != [w] + [Fraction(0)] * (n - 1):
            problems.append("supremum vector is not (w, 0, ..., 0)")
        continuous = self.group_values.get(op.group, {}).get("solve-continuous")
        if continuous is not None and exact.f_exact(v, x) != continuous:
            problems.append("minimizing vector does not attain the continuous minimum")
        return problems

    def _verify(self, op, payload):
        res = payload["result"]
        n, x, w, m, r = op.n, op.x, op.w, op.m, op.r
        status = payload["status"]
        point = res["oracle_minimizer"]
        oracle = res["oracle_objective"]
        constructed = Fraction(res["constructed_objective"])
        problems = []
        wf = float(w)
        if len(point) != n or min(point) < -1e-9 or abs(sum(point) - wf) > 1e-9 * max(1.0, wf):
            problems.append("oracle minimizer is not feasible")
        elif abs(exact.f_float(point, float(x)) - oracle) > 1e-9 * max(1.0, abs(oracle)):
            problems.append("oracle value differs from the float f of its minimizer")
        if abs(res["gap"] - (oracle - float(constructed))) > 1e-9 * max(1.0, abs(oracle)):
            problems.append("gap is not oracle value minus construction")
        if exact.is_proven(n, m, r):
            closed = exact.equidistant_value(n, x, w, m)
            if status != "CONFIRMED":
                problems.append(f"PROVEN instance reported {status}")
            if constructed != closed:
                problems.append("construction differs from the equidistant closed form")
            if abs(oracle - float(closed)) > 1e-6:
                problems.append("oracle value is not within 1e-6 of the closed form")
        elif status == "CONFIRMED" and abs(res["gap"]) > 1e-6:
            problems.append("CONFIRMED with |gap| > 1e-6")
        if status == "VIOLATED":
            snapped = [max(Fraction(p), Fraction(0)) for p in point]
            total = sum(snapped, Fraction(0))
            if total > w:
                snapped = [e * w / total for e in snapped]
            if exact.f_exact(snapped, x) >= constructed:
                problems.append("VIOLATED without a point that beats the construction")
        if n <= 12 and constructed > self.structured_minimum(n, x, w):
            problems.append("construction exceeds the exhaustive structured minimum")
        return problems
