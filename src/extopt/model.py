"""Core domain types and the interval-shortfall objective.

Everything here is exact: service vectors are tuples of ``Fraction`` and the
objective is evaluated with big-integer rational arithmetic.  Binary floats
are refused on input so that decimal data like "2.2" never picks up rounding
noise (floats belong to the numerical oracle only).

A solution travels from the solver to the JSON writer as a `Placement`, the
nonzero entries of its length-n vector in column form ``(at, values, codes)``:
``at`` holds the ascending indices of the masses, ``values`` the few value
objects they take (x, r, y, y + r, ...) and ``codes`` one small int per mass,
so that mass j is ``values[codes[j]]``.  A consumer does its per-value work
(scaling, formatting) once per entry of ``values`` and reads the masses
through ``codes``, with no per-mass tuple, ``id()`` or dict lookup.
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

# the nonzero entries of a length-n vector as (at, values, codes): mass j sits
# at index at[j], ascending, and is values[codes[j]], a positive Fraction
Placement = tuple[Sequence[int], Sequence[Fraction], Sequence[int]]


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


def _entries(items: tuple) -> tuple[list[int], dict[int, Fraction], bool]:
    """(ids, values, same) of a candidate vector's entries: the id of each
    entry, each distinct entry object's validated Fraction keyed by its id,
    and whether every entry already is that Fraction."""
    # a vector repeats a few entry objects (0, x, r, ...): convert and check
    # each object once.  Keyed by id, which hashes far faster than a
    # Fraction; ids stay unique while `items` holds the objects
    ids = list(map(id, items))
    distinct = dict(zip(ids, items))
    values = {key: as_rational(e) for key, e in distinct.items()}
    if not values:
        raise ValidationError("service vector must have at least one entry")
    if any(e.numerator < 0 for e in values.values()):
        raise ValidationError("service vector entries must be nonnegative")
    return ids, values, all(map(operator.is_, values.values(), distinct.values()))


def service_vector(entries: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Validate and normalize a candidate solution vector."""
    items = tuple(entries)
    ids, values, same = _entries(items)
    return items if same else tuple(map(values.__getitem__, ids))


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
        _integer("n", self.n, 1)
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


def _integer(name: str, value: int, lo: int, hi: int | None = None) -> int:
    """``value`` if it is an int, not a bool, in [lo, hi] (no upper bound
    when ``hi`` is None); otherwise ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < lo or (hi is not None and value > hi)):
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _common(*values: Fraction) -> tuple[int, list[int]]:
    """(D, numerators): each value as an integer over the one common
    denominator D, the least common multiple of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    denom = math.lcm(*{q for _, q in ratios})
    return denom, [p * (denom // q) for p, q in ratios]


def _positive(x: RationalLike) -> Fraction:
    xq = as_rational(x)
    if xq <= 0:
        raise ValidationError(f"x must be positive, got {xq}")
    return xq


def _scaled(v: Iterable[RationalLike], x: RationalLike) -> tuple[Placement, list[int], int, int]:
    """The `_placement` of the validated v and its `_prefix`: (placed, prefix, x, denom)."""
    vec = tuple(v)
    placed = _placement(vec)
    return (placed, *_prefix(len(vec), placed, _positive(x)))


def _widths(n: int, at: Sequence[int]) -> list[int]:
    """Run widths z_j + 1 of a length-n vector whose K masses sit at the
    ascending indices ``at``: z_j is the number of zeros between mass j and
    mass j+1 (before the first mass for j = 0, after the last for j = K)."""
    return list(map(operator.sub, [*at, n], [-1, *at]))


def _runs(vals: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split nonnegative entries into their K nonzero masses and the K+1 run
    widths of `_widths`."""
    at = list(itertools.compress(range(len(vals)), vals))
    return list(filter(None, vals)), _widths(len(vals), at)


def _shortfall(masses: Sequence[int], widths: Sequence[int], x: int) -> int:
    """Sum of (x - interval sum)^+ over all intervals, from the run widths of `_widths`.

    An interval inside zero run j falls short by x, and the run holds
    z_j(z_j+1)/2 of them.  Every other interval has a first mass a and a
    last mass b; it can start anywhere in the z_{a-1}+1 slots ending at mass
    a and end anywhere in the z_b+1 slots starting at mass b, and it falls
    short by x - S_ab, where S_ab is the sum of masses a..b.  Masses are
    positive, so the scan from each a stops at the first saturated b, and a
    mass of at least x saturates at b = a: only the masses below x start a
    scan.  The cost is O(U*L) in Python for U masses below x and L masses
    before saturation, plus C-speed passes over the K masses, whatever the
    number of zeros.
    """
    total = x * (sum(map(operator.mul, widths, widths)) - sum(widths)) // 2
    k = len(masses)
    for a in itertools.compress(range(k), map(operator.gt, itertools.repeat(x), masses)):
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
    at, values, codes = placed
    entries = [Fraction(0)] * n
    for i, code in zip(at, codes):
        entries[i] = values[code]
    return tuple(entries)


def _placement(vec: Sequence[RationalLike]) -> Placement:
    """The `Placement` of the candidate vector ``vec``, validated as by
    `service_vector`: its values are the distinct nonzero entry objects, each
    tested for zero once."""
    ids, values, _ = _entries(tuple(vec))
    nonzero = {key: e for key, e in values.items() if e}
    coded = list(map(dict(zip(nonzero, range(len(nonzero)))).get, ids))
    held = list(map(operator.is_not, coded, itertools.repeat(None)))
    return (tuple(itertools.compress(range(len(coded)), held)), tuple(nonzero.values()),
            tuple(itertools.compress(coded, held)))


def _scaled_placement(
    n: int, placed: Placement, x: Fraction
) -> tuple[list[int], list[int], int, int]:
    """The masses of ``placed`` and x as integers over one common denominator,
    with the run widths of the length-n vector: (masses, widths, x, denom).

    Each entry of ``values`` is scaled once and the masses are read through
    ``codes``; the cost is O(masses), whatever n.
    """
    at, values, codes = placed
    denom, (xs, *table) = _common(x, *values)
    return [table[code] for code in codes], _widths(n, at), xs, denom


def _prefix(n: int, placed: Placement, x: Fraction) -> tuple[list[int], int, int]:
    """(prefix, x, denom): the n + 1 prefix sums of the length-n vector whose
    nonzero entries are ``placed``, and x, as integers over one denominator."""
    masses, widths, xs, denom = _scaled_placement(n, placed, x)
    # run j of `_widths` repeats the sum of the first j masses
    sums = itertools.accumulate(masses, initial=0)
    return list(itertools.chain.from_iterable(map(itertools.repeat, sums, widths))), xs, denom


def _eval_placed(n: int, placed: Placement, x: Fraction) -> Fraction:
    """`eval_f` of the length-n vector whose nonzero entries are the
    `Placement` ``placed``, for a positive Fraction x."""
    masses, widths, xs, denom = _scaled_placement(n, placed, x)
    return Fraction(_shortfall(masses, widths, xs), denom)


def eval_f(v: Iterable[RationalLike], x: RationalLike) -> Fraction:
    """Total shortfall: sum of (x - interval sum)^+ over all index intervals.

    Evaluated on integers scaled to one denominator, so the result is exact.
    """
    vec = tuple(v)
    return _eval_placed(len(vec), _placement(vec), _positive(x))


def eval_f_row(v: Iterable[RationalLike], x: RationalLike, j: int) -> Fraction:
    """Shortfall restricted to the n+1-j intervals of exactly j consecutive indices."""
    _, prefix, xs, denom = _scaled(v, x)
    n = len(prefix) - 1
    _integer("row length j", j, 1, n)
    total = sum(max(xs - (prefix[k + j] - prefix[k]), 0) for k in range(n + 1 - j))
    return Fraction(total, denom)


def strict_pair_sum(v: Iterable[RationalLike], x: RationalLike) -> Fraction:
    """Shortfall over intervals of length at least two (the variance bracket term).

    This is the total shortfall of the vector's placement minus its
    singleton intervals: x for each zero entry and (x - mass)^+ for each mass.
    It is the O(n) reference for the closed forms of `variance_range`.
    """
    vec = tuple(v)
    n = len(vec)
    masses, widths, xs, denom = _scaled_placement(n, _placement(vec), _positive(x))
    below = list(itertools.compress(masses, map(operator.gt, itertools.repeat(xs), masses)))
    singles = xs * (n - len(masses) + len(below)) - sum(below)
    return Fraction(_shortfall(masses, widths, xs) - singles, denom)


def externality_mean(q: QueueParams, n: int, x: RationalLike) -> Fraction:
    """Expected externalities n*x/(1 - rho); independent of the service vector."""
    return _integer("n", n, 1) * _positive(x) / (1 - q.rho)


def externality_variance(
    q: QueueParams, v: Iterable[RationalLike], x: RationalLike
) -> Fraction:
    """Externalities variance: lam*mu2/(1-rho)^3 * (n*x + 2 * pair shortfall).

    The bracket sums intervals of length >= 2 only; singleton intervals do
    not enter, unlike :func:`eval_f`.  This is the O(n) reference over a
    whole vector; `variance_range` gives the two extremes in O(1).
    """
    vec = tuple(v)
    pairs = strict_pair_sum(vec, x)  # validates v and x
    return _variance_factor(q) * (len(vec) * as_rational(x) + 2 * pairs)


def _variance_factor(q: QueueParams) -> Fraction:
    return q.lam * q.mu2 / (1 - q.rho) ** 3


def variance_range(q: QueueParams, inst: Instance, f_min: Fraction) -> tuple[Fraction, Fraction]:
    """(variance_min, variance_sup) of ``inst`` in O(1), from ``f_min``, the
    exact minimum of `eval_f` over the slab.

    Minimum: every entry of the minimizer lies in [0, x], so each singleton
    interval falls short by x - v_i and the singletons sum to exactly
    n*x - w.  The pair shortfall is then f_min - (n*x - w), and the variance
    is factor*(n*x + 2*(f_min - n*x + w)) = factor*(2w - n*x + 2*f_min).
    Supremum: for `supremum_vector`, (w, 0, ..., 0), the (n-1)(n-2)/2
    intervals of length >= 2 among the zeros each fall short by x, and the
    n-1 that start at the mass by (x - w)^+.  Its entry w may exceed x, so
    the identity above does not hold there and the form is its own.
    `externality_variance` over either vector is the O(n) reference.
    """
    n = inst.n
    # both brackets as integers over one denominator: two Fractions, not ten
    denom, (xs, ws, fs) = _common(inst.x, inst.w, f_min)
    sup = n * xs + (n - 1) * ((n - 2) * xs + 2 * max(xs - ws, 0))
    factor = _variance_factor(q)
    return factor * Fraction(2 * ws - n * xs + 2 * fs, denom), factor * Fraction(sup, denom)


def supremum_vector(inst: Instance) -> tuple[Fraction, ...]:
    """Variance-maximizing allocation: the whole budget on the first coordinate.

    `variance_range` scores it in closed form; this vector is its O(n) reference.
    """
    return (inst.w,) + (Fraction(0),) * (inst.n - 1)
