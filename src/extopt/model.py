"""Core domain types and the interval-shortfall objective.

Everything here is exact: service vectors are tuples of ``Fraction`` and the
objective is evaluated with big-integer rational arithmetic.  Binary floats
are refused on input so that decimal data like "2.2" never picks up rounding
noise (floats belong to the numerical oracle only).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import StabilityError, TrivialRegimeError, ValidationError

RationalLike = Union[Fraction, int, str]

ServiceVector = tuple[Fraction, ...]

# the nonzero entries of a vector as ascending (index, positive Fraction) pairs
Placement = Sequence[tuple[int, Fraction]]


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, a "p/q" string or a decimal string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(
            f"refusing to coerce {value!r}; pass an int, Fraction, or decimal/ratio string"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc


def service_vector(entries: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Validate and normalize a candidate solution vector."""
    items = tuple(entries)
    # a vector repeats a few entry objects (0, x, r, ...): convert and check
    # each object once.  Keyed by id, which hashes far faster than a
    # Fraction; ids stay unique while `items` holds the objects
    distinct = dict(zip(map(id, items), items))
    values = {key: as_rational(e) for key, e in distinct.items()}
    if not values:
        raise ValidationError("service vector must have at least one entry")
    if any(e.numerator < 0 for e in values.values()):
        raise ValidationError("service vector entries must be nonnegative")
    if all(map(operator.is_, values.values(), distinct.values())):
        return items  # every entry is already a Fraction
    return tuple(map(values.__getitem__, map(id, items)))


@dataclass(frozen=True)
class Instance:
    """Problem parameterization: n waiting customers, demand x, mass budget w.

    Requires 0 < w < n*x; the w >= n*x regime is rejected because the
    minimization is trivial there.  Derived quantities:

    * ``m``: number of whole x-masses that fit in w,
    * ``r``: leftover mass, 0 <= r < x,
    * ``y``: complement x - r, so y + r = x.
    """

    n: int
    x: Fraction
    w: Fraction
    m: int = field(init=False, repr=False, compare=False)
    r: Fraction = field(init=False, repr=False, compare=False)
    y: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValidationError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "w", as_rational(self.w))
        if self.x <= 0:
            raise ValidationError(f"x must be positive, got {self.x}")
        if self.w <= 0:
            raise ValidationError(f"w must be positive, got {self.w}")
        if self.w >= self.n * self.x:
            raise TrivialRegimeError(
                f"trivial regime: w = {self.w} >= n*x = {self.n * self.x}, "
                "every interval can be saturated"
            )
        m = math.floor(self.w / self.x)
        r = self.w - m * self.x
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y", self.x - r)


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate and first two service-demand moments of the queue.

    Stability (lam * mu1 < 1) is enforced at construction.  lam = 0 is
    accepted as the degenerate no-arrivals limit.
    """

    lam: Fraction
    mu1: Fraction
    mu2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", as_rational(self.lam))
        object.__setattr__(self, "mu1", as_rational(self.mu1))
        object.__setattr__(self, "mu2", as_rational(self.mu2))
        if self.lam < 0:
            raise ValidationError(f"arrival rate must be nonnegative, got {self.lam}")
        if self.mu1 <= 0:
            raise ValidationError(f"mu1 must be positive, got {self.mu1}")
        if self.mu2 < self.mu1 * self.mu1:
            raise ValidationError(
                f"mu2 = {self.mu2} < mu1^2 = {self.mu1 * self.mu1}: not a valid second moment"
            )
        if self.rho >= 1:
            raise StabilityError(f"utilization rho = {self.rho} >= 1")

    @property
    def rho(self) -> Fraction:
        return self.lam * self.mu1


def _positive(x: RationalLike) -> Fraction:
    xq = as_rational(x)
    if xq <= 0:
        raise ValidationError(f"x must be positive, got {xq}")
    return xq


def _scaled(v: Iterable[RationalLike], x: RationalLike) -> tuple[list[int], int, int]:
    """Validate (v, x) and scale both to integers over one common denominator.

    Returns the scaled entries, the scaled x and the denominator, so every
    interval sum is an exact integer.
    """
    vec = service_vector(v)
    xq = _positive(x)
    ratios = [e.as_integer_ratio() for e in vec]
    denom = math.lcm(xq.denominator, *{q for _, q in ratios})
    vals = [p * (denom // q) for p, q in ratios]
    return vals, xq.numerator * (denom // xq.denominator), denom


def _widths(n: int, at: Sequence[int]) -> list[int]:
    """Run widths z_j + 1 of a length-n vector whose K masses sit at the
    ascending indices ``at``: z_j is the number of zeros between mass j and
    mass j+1 (before the first mass for j = 0, after the last for j = K)."""
    return [b - a for a, b in zip([-1, *at], [*at, n])]


def _runs(vals: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split nonnegative entries into their K nonzero masses and the K+1 run
    widths of `_widths`."""
    at = [i for i, e in enumerate(vals) if e]
    return [vals[i] for i in at], _widths(len(vals), at)


def _shortfall(masses: Sequence[int], widths: Sequence[int], x: int) -> int:
    """Sum of (x - interval sum)^+ over all intervals, from the run widths of `_widths`.

    An interval inside zero run j falls short by x, and the run holds
    z_j(z_j+1)/2 of them.  Every other interval has a first mass a and a
    last mass b; it can start anywhere in the z_{a-1}+1 slots ending at mass
    a and end anywhere in the z_b+1 slots starting at mass b, and it falls
    short by x - S_ab, where S_ab is the sum of masses a..b.  Masses are
    positive, so the scan from each a stops at the first saturated b: the
    cost is O(K*L) for K masses and L masses before saturation, whatever the
    number of zeros.
    """
    total = x * sum(w * (w - 1) for w in widths) // 2
    k = len(masses)
    for a in range(k):
        left = widths[a]
        room = x
        for b in range(a, k):
            room -= masses[b]
            if room <= 0:
                break
            total += left * widths[b + 1] * room
    return total


def _materialize(n: int, placed: Placement) -> tuple[Fraction, ...]:
    """The length-n vector whose nonzero entries are ``placed``."""
    entries = [Fraction(0)] * n
    for i, e in placed:
        entries[i] = e
    return tuple(entries)


def _placement(vec: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The nonzero entries of a validated vector as a `Placement`."""
    # testing the numerator is cheaper than Fraction.__bool__
    return [(i, e) for i, e in enumerate(vec) if e.numerator]


def _scaled_placement(
    n: int, placed: Placement, x: Fraction
) -> tuple[list[int], list[int], int, int]:
    """The masses of ``placed`` and x as integers over one common denominator,
    with the run widths of the length-n vector: (masses, widths, x, denom).

    Each distinct value object is scaled once, as a placement repeats a few
    (x, r, ...); the cost is O(masses), whatever n.
    """
    # keyed by id, as in `service_vector`
    distinct = {id(e): e for _, e in placed}
    denom = math.lcm(x.denominator, *[e.denominator for e in distinct.values()])
    scaled = {key: e.numerator * (denom // e.denominator) for key, e in distinct.items()}
    masses = [scaled[id(e)] for _, e in placed]
    return masses, _widths(n, [i for i, _ in placed]), x.numerator * (denom // x.denominator), denom


def _eval_placed(n: int, placed: Placement, x: Fraction) -> Fraction:
    """`eval_f` of the length-n vector whose nonzero entries are ``placed``,
    ascending (index, positive Fraction) pairs, for a positive Fraction x."""
    masses, widths, xs, denom = _scaled_placement(n, placed, x)
    return Fraction(_shortfall(masses, widths, xs), denom)


def eval_f(v: Iterable[RationalLike], x: RationalLike) -> Fraction:
    """Total shortfall: sum of (x - interval sum)^+ over all index intervals.

    Evaluated on integers scaled to one denominator, so the result is exact.
    """
    vec = service_vector(v)
    return _eval_placed(len(vec), _placement(vec), _positive(x))


def eval_f_row(v: Iterable[RationalLike], x: RationalLike, j: int) -> Fraction:
    """Shortfall restricted to the n+1-j intervals of exactly j consecutive indices."""
    vals, xs, denom = _scaled(v, x)
    n = len(vals)
    if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= n:
        raise ValidationError(f"row length j must be an integer in [1, {n}], got {j!r}")
    prefix = list(itertools.accumulate(vals, initial=0))
    total = sum(max(xs - (prefix[k + j] - prefix[k]), 0) for k in range(n + 1 - j))
    return Fraction(total, denom)


def strict_pair_sum(v: Iterable[RationalLike], x: RationalLike) -> Fraction:
    """Shortfall over intervals of length at least two (the variance bracket term).

    This is the total shortfall of the vector's placement minus its
    singleton intervals: x for each zero entry and (x - mass)^+ for each mass.
    """
    vec = service_vector(v)
    n = len(vec)
    masses, widths, xs, denom = _scaled_placement(n, _placement(vec), _positive(x))
    singles = xs * (n - len(masses)) + sum(xs - e for e in masses if e < xs)
    return Fraction(_shortfall(masses, widths, xs) - singles, denom)


def externality_mean(q: QueueParams, n: int, x: RationalLike) -> Fraction:
    """Expected externalities n*x/(1 - rho); independent of the service vector."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    return n * _positive(x) / (1 - q.rho)


def externality_variance(
    q: QueueParams, v: Iterable[RationalLike], x: RationalLike
) -> Fraction:
    """Externalities variance: lam*mu2/(1-rho)^3 * (n*x + 2 * pair shortfall).

    The bracket sums intervals of length >= 2 only; singleton intervals do
    not enter, unlike :func:`eval_f`.
    """
    vec = tuple(v)
    pairs = strict_pair_sum(vec, x)  # validates v and x
    factor = q.lam * q.mu2 / (1 - q.rho) ** 3
    return factor * (len(vec) * as_rational(x) + 2 * pairs)


def supremum_vector(inst: Instance) -> tuple[Fraction, ...]:
    """Variance-maximizing allocation: the whole budget on the first coordinate."""
    return (inst.w,) + (Fraction(0),) * (inst.n - 1)


def is_in_lambda(v: Iterable[RationalLike], w: RationalLike) -> bool:
    """Membership in the continuous feasible set: nonnegative, sum <= w."""
    try:
        vec = service_vector(v)
    except ValidationError:
        return False
    return sum(vec, Fraction(0)) <= as_rational(w)


def is_in_upsilon(v: Iterable[RationalLike], inst: Instance) -> bool:
    """Membership in the combinatorial feasible set of the instance.

    m entries equal to x, one entry equal to r when r > 0, all others zero.
    """
    try:
        vec = service_vector(v)
    except ValidationError:
        return False
    if len(vec) != inst.n:
        return False
    m, r, x = inst.m, inst.r, inst.x
    n_x = sum(1 for e in vec if e == x)
    if r > 0:
        n_r = sum(1 for e in vec if e == r)
        n_zero = sum(1 for e in vec if e == 0)
        return n_x == m and n_r == 1 and n_x + n_r + n_zero == len(vec)
    n_zero = sum(1 for e in vec if e == 0)
    return n_x == m and n_x + n_zero == len(vec)
