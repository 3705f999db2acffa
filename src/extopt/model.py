"""Core domain types and the interval-shortfall objective.

Everything here is exact: service vectors are tuples of ``Fraction`` and the
objective is evaluated with big-integer rational arithmetic.  Binary floats
are refused on input so that decimal data like "2.2" never picks up rounding
noise (floats belong to the numerical oracle only).  A string of unsigned
ASCII digits is read without the regular expression of ``Fraction(str)``.

An `Instance` holds x, w, r and y also as integers over one denominator
(``Instance._ints``), derived once with m.  The closed forms here
(`variance_range`) and in `combinatorial` compute on those, and
`QueueParams` and `externality_mean` on numerators and denominators, so a
command builds a Fraction only for a value it writes.

A solution travels from the solver to the JSON writer as a `Placement`, the
nonzero entries of its length-n vector as runs of a repeated unit,
``(runs, values)``.  ``values`` holds the few value objects the masses take
(x, r, y, ...).  Each run is ``(unit, count)``: the unit is a tuple of
``(zeros, code)`` tokens, each meaning ``zeros`` zero entries and then the
mass ``values[code]``, and it repeats ``count`` times; zeros fill the vector
after the last run to length n.  The solvers' placements are near-periodic,
so a dense one is a handful of runs whatever n and m, and building, scoring
(`_shortfall` scans a few repetitions per run) and writing it cost
O(runs) Python.  Only `_expand` writes the runs out as an n-list, by
C-speed slice assignments; `_materialize` (the n-vector) and `_prefix`
(the n + 1 prefix sums that `verify` reads) both call it.  A given vector
comes in through `_placement` alone.
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

# the nonzero entries of a length-n vector as (runs, values).  A run is
# (unit, count): the unit, a tuple of (zeros, code) tokens, each `zeros`
# zero entries and then the mass values[code], a positive Fraction, is
# written count times; zeros fill the vector after the last run to length n
Token = tuple[int, int]
Run = tuple[tuple[Token, ...], int]
Placement = tuple[tuple[Run, ...], tuple[Fraction, ...]]


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, a "p/q" string or a decimal string to an exact Fraction.

    A string of unsigned ASCII digits, ``p`` or ``p/q``, is read as
    ``Fraction(int(p), int(q))``; every other string (a decimal, an
    exponent, a sign, spaces, underscores, non-ASCII digits) goes to
    ``Fraction(str)``.  Either path refuses a zero denominator and a digit
    string longer than ``sys.get_int_max_str_digits()`` with ValidationError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(
            f"refusing to coerce {value!r}; pass an int, Fraction, or decimal/ratio string"
        )
    try:
        if isinstance(value, str):
            p, slash, q = value.partition("/")
            if p.isascii() and p.isdigit() and (not slash or q.isascii() and q.isdigit()):
                return Fraction(int(p), int(q) if slash else 1)
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class Instance:
    """Problem parameterization: n waiting customers, demand x, mass budget w.

    Requires 0 < w < n*x; the w >= n*x regime is rejected because the
    minimization is trivial there.  Derived quantities:

    * ``m``: number of whole x-masses that fit in w,
    * ``r``: leftover mass, 0 <= r < x,
    * ``y``: complement x - r, so y + r = x,
    * ``_ints``: ``(D, X, W, R, Y)``, the integers with x = X/D, w = W/D,
      r = R/D and y = Y/D over the one denominator D = x.denominator *
      w.denominator.  The closed forms compute on these and build a
      Fraction only for a value they return.

    The derived fields take no part in ``repr``, equality or hashing.
    """

    n: int
    x: Fraction
    w: Fraction
    m: int = field(init=False, repr=False, compare=False)
    r: Fraction = field(init=False, repr=False, compare=False)
    y: Fraction = field(init=False, repr=False, compare=False)
    _ints: tuple[int, int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _integer("n", self.n, 1)
        x = as_rational(self.x)
        w = as_rational(self.w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        # on integers: with x = xp/xq and w = wp/wq, w/x = wp·xq / (xp·wq),
        # so m and the leftover r = w - m·x come from one divmod
        xp, xq = x.as_integer_ratio()
        wp, wq = w.as_integer_ratio()
        if xp <= 0:
            raise ValidationError(f"x must be positive, got {x}")
        if wp <= 0:
            raise ValidationError(f"w must be positive, got {w}")
        xs, ws = xp * wq, wp * xq
        m, rest = divmod(ws, xs)
        if m >= n:  # w >= n·x, as n is whole
            raise TrivialRegimeError(
                f"trivial regime: w = {w} >= n*x = {n * x}, "
                "every interval can be saturated"
            )
        denom = wq * xq
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", Fraction(rest, denom))
        object.__setattr__(self, "y", Fraction(xs - rest, denom))
        object.__setattr__(self, "_ints", (denom, xs, ws, rest, xs - rest))


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
        lam = as_rational(self.lam)
        mu1 = as_rational(self.mu1)
        mu2 = as_rational(self.mu2)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        # each test on numerators and (positive) denominators
        lp, lq = lam.as_integer_ratio()
        ap, aq = mu1.as_integer_ratio()
        bp, bq = mu2.as_integer_ratio()
        if lp < 0:
            raise ValidationError(f"arrival rate must be nonnegative, got {lam}")
        if ap <= 0:
            raise ValidationError(f"mu1 must be positive, got {mu1}")
        if bp * aq * aq < ap * ap * bq:
            raise ValidationError(
                f"mu2 = {mu2} < mu1^2 = {mu1 * mu1}: not a valid second moment"
            )
        if lp * ap >= lq * aq:
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


def _packed(pieces: Iterable[Run]) -> tuple[Run, ...]:
    """The runs of the (unit, count) ``pieces`` written one after another:
    a piece of count 0 is dropped, one that repeats the unit before it adds
    to that run's count, and single repetitions next to each other join
    into one unit."""
    runs: list[Run] = []
    for unit, count in pieces:
        if not count:
            continue
        if runs and runs[-1][0] == unit:
            runs[-1] = (unit, runs[-1][1] + count)
        elif runs and count == 1 == runs[-1][1]:
            runs[-1] = (runs[-1][0] + unit, 1)
        else:
            runs.append((unit, count))
    return tuple(runs)


def _grouped(at: Iterable[int], codes: Iterable[int]) -> tuple[Run, ...]:
    """The runs of the masses at the ascending indices ``at`` with ``codes``:
    each mass is a one-token unit, and equal neighbouring tokens (as many
    zeros before the same code) make one run."""
    at = list(at)
    zeros = [i - previous - 1 for previous, i in zip([-1, *at], at)]
    return tuple(((token,), len(list(group)))
                 for token, group in itertools.groupby(zip(zeros, codes)))


def _length(runs: Iterable[Run]) -> int:
    """The number of entries the runs span, up to their last mass."""
    return sum([count * (len(unit) + sum([zeros for zeros, _ in unit])) for unit, count in runs])


def _shortfall(n: int, runs: Sequence[Run], table: Sequence[int], x: int) -> int:
    """Sum of (x - interval sum)^+ over all intervals of the length-n vector
    whose nonzero entries are ``runs``, mass code c standing for ``table[c]``.

    Written out, the vector is masses M_1..M_K with z_j zeros before M_j and
    z_{K+1} after M_K.  An interval inside one zero stretch falls short by
    x, and a stretch of z zeros holds z(z+1)/2 of them.  Every other
    interval has a first mass a and a last mass b; it can start anywhere in
    the z_a + 1 slots ending at M_a and end anywhere in the z_{b+1} + 1
    slots starting at M_b, and it falls short by x - S_ab, where S_ab is
    the sum of M_a..M_b.  Masses are positive, so the scan from each a
    stops at the first saturated b, and a mass of at least x saturates at
    b = a: only the masses below x start a scan.

    The scans run on a shortened token list.  A run of count c whose unit
    holds mass U keeps c' = min(c, k + 2) repetitions, k = ceil(x / U).
    Every mass is positive, so any k whole repetitions hold k*U >= x: a
    scan from a mass in repetition j saturates within repetitions j..j+k,
    and the widths it reads (each right of a mass it passes) lie there too.
    For j + k <= c that is inside the run, and since the repetitions are
    equal the scan adds what the scan from repetition 1 adds.  So when
    c' < c the first c - k - 1 = c - c' + 1 repetitions scan alike and the
    first kept one stands for all of them, its starts weighted c - c' + 1
    (folded into ``left``); the other k + 1 kept ones are the last k + 1 of
    the run, followed by the same entries.  A scan that enters the run from
    before saturates within its first k repetitions, all kept.  The zero
    stretches are counted in full, count times the unit's sum of z(z+1).
    The cost is O(tokens) to shorten, then O(U*L) in Python for U kept
    masses below x and L masses before saturation, whatever n and m.
    """
    tokens: list[Token] = []
    cut = []  # (first token, unit, repetitions left out) of each shortened run
    for unit, count in runs:
        # c' >= 3, so a run of at most 3 repetitions keeps them all
        if count > 3:
            kept = min(count, -(-x // sum([table[code] for _, code in unit])) + 2)
            if kept < count:
                cut.append((len(tokens), unit, count - kept))
                count = kept
        tokens += unit * count
    masses = [table[code] for _, code in tokens]
    widths = [zeros + 1 for zeros, _ in tokens]
    lefts = widths[:]
    end = sum(widths)
    zero_pairs = sum(map(operator.mul, widths, widths)) - end
    for at, unit, more in cut:
        unit_widths = widths[at:at + len(unit)]
        lefts[at:at + len(unit)] = [(more + 1) * width for width in unit_widths]
        span = sum(unit_widths)
        end += more * span
        zero_pairs += more * (sum(map(operator.mul, unit_widths, unit_widths)) - span)
    tail = n - end + 1
    widths.append(tail)
    total = x * (zero_pairs + tail * tail - tail) // 2
    k = len(masses)
    for a in itertools.compress(range(k), map(operator.gt, itertools.repeat(x), masses)):
        left = lefts[a]
        room = x
        for b in range(a, k):
            room -= masses[b]
            if room <= 0:
                break
            total += left * widths[b + 1] * room
    return total


def _expand(n: int, runs: Iterable[Run], table: Sequence, zero: object) -> list:
    """The length-n list whose nonzero entries are ``runs``, code c standing
    for ``table[c]`` and every other entry ``zero``: each token of a run is
    stored into its every repetition by one slice assignment."""
    entries = [zero] * n
    start = 0
    for unit, count in runs:
        span = sum(zeros + 1 for zeros, _ in unit)
        stop = start + span * count
        at = start
        for zeros, code in unit:
            at += zeros
            entries[at:stop:span] = [table[code]] * count
            at += 1
        start = stop
    return entries


def _materialize(n: int, placed: Placement) -> tuple[Fraction, ...]:
    """The length-n vector whose nonzero entries are ``placed``."""
    runs, values = placed
    return tuple(_expand(n, runs, values, Fraction(0)))


def _placement(vec: Sequence[RationalLike]) -> Placement:
    """The `Placement` of the candidate vector ``vec``, validated: each
    distinct entry object is converted by `as_rational`, checked
    nonnegative and tested for zero once; the values are the nonzero ones,
    and the runs the masses' grouped tokens."""
    # a vector repeats a few entry objects (0, x, r, ...): convert and check
    # each object once.  Keyed by id, which hashes far faster than a
    # Fraction; ids stay unique while `items` holds the objects
    items = tuple(vec)
    ids = list(map(id, items))
    values = {key: as_rational(e) for key, e in dict(zip(ids, items)).items()}
    if not values:
        raise ValidationError("service vector must have at least one entry")
    if any(e.numerator < 0 for e in values.values()):
        raise ValidationError("service vector entries must be nonnegative")
    nonzero = {key: e for key, e in values.items() if e}
    coded = list(map(dict(zip(nonzero, range(len(nonzero)))).get, ids))
    held = list(map(operator.is_not, coded, itertools.repeat(None)))
    return (_grouped(itertools.compress(range(len(coded)), held), itertools.compress(coded, held)),
            tuple(nonzero.values()))


def _prefix(n: int, placed: Placement, x: Fraction) -> tuple[list[int], int, int]:
    """(prefix, x, denom): the n + 1 prefix sums of the length-n vector whose
    nonzero entries are ``placed``, and x, as integers over one denominator."""
    runs, values = placed
    denom, (xs, *table) = _common(x, *values)
    return list(itertools.accumulate(_expand(n, runs, table, 0), initial=0)), xs, denom


def _eval_placed(n: int, placed: Placement, x: Fraction) -> Fraction:
    """`eval_f` of the length-n vector whose nonzero entries are the
    `Placement` ``placed``, for a positive Fraction x."""
    runs, values = placed
    denom, (xs, *table) = _common(x, *values)
    return Fraction(_shortfall(n, runs, table, xs), denom)


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
    runs, values = _placement(vec)
    denom, (xs, *table) = _common(_positive(x), *values)
    # x per zero entry and x - min(mass, x) per mass
    singles = xs * n - sum(count * min(table[code], xs) for unit, count in runs for _, code in unit)
    return Fraction(_shortfall(n, runs, table, xs) - singles, denom)


def externality_mean(q: QueueParams, n: int, x: RationalLike) -> Fraction:
    """Expected externalities n*x/(1 - rho); independent of the service vector."""
    n = _integer("n", n, 1)
    xp, xq = _positive(x).as_integer_ratio()
    lp, lq = q.lam.as_integer_ratio()
    ap, aq = q.mu1.as_integer_ratio()
    # 1 - rho = (lq·aq - lp·ap) / (lq·aq)
    return Fraction(n * xp * lq * aq, xq * (lq * aq - lp * ap))


def externality_variance(
    q: QueueParams, v: Iterable[RationalLike], x: RationalLike
) -> Fraction:
    """Externalities variance: lam*mu2/(1-rho)^3 * (n*x + 2 * pair shortfall).

    The bracket sums intervals of length >= 2 only; singleton intervals do
    not enter, unlike :func:`eval_f`.  This is the O(n) reference over a
    whole vector; `variance_range` gives the two extremes in O(1).  Its
    factor is computed here with Fractions, apart from `variance_range`'s
    integer pair.
    """
    vec = tuple(v)
    pairs = strict_pair_sum(vec, x)  # validates v and x
    factor = q.lam * q.mu2 / (1 - q.rho) ** 3
    return factor * (len(vec) * as_rational(x) + 2 * pairs)


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

    The factor lam*mu2/(1-rho)^3 is one integer pair and the brackets are
    integers over the instance's denominator D (``Instance._ints``), so the
    two values are the only Fractions built.
    """
    n = inst.n
    denom, xs, ws, _, _ = inst._ints
    fp, fq = f_min.as_integer_ratio()
    lp, lq = q.lam.as_integer_ratio()
    ap, aq = q.mu1.as_integer_ratio()
    bp, bq = q.mu2.as_integer_ratio()
    # lam·mu2 / (1 - rho)^3 = (lp/lq)·(bp/bq)·(lq·aq)^3 / (lq·aq - lp·ap)^3
    top = lp * bp * lq * lq * aq * aq * aq
    bottom = bq * (lq * aq - lp * ap) ** 3
    low = (2 * ws - n * xs) * fq + 2 * fp * denom  # over denom·fq
    sup = n * xs + (n - 1) * ((n - 2) * xs + 2 * max(xs - ws, 0))  # over denom
    return Fraction(top * low, bottom * denom * fq), Fraction(top * sup, bottom * denom)


def supremum_vector(inst: Instance) -> tuple[Fraction, ...]:
    """Variance-maximizing allocation: the whole budget on the first coordinate.

    `variance_range` scores it in closed form; this vector is its O(n) reference.
    """
    return (inst.w,) + (Fraction(0),) * (inst.n - 1)
