"""Independent reference implementations used as test oracles.

These deliberately avoid any code path shared with the package: plain triple
loops over interval slices, exact rationals only.  `bisect_f`, for vectors
too long for the triple loops, uses prefix sums but no loop of the package.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np


def naive_f(v, x) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    n = len(v)
    for k in range(n):
        for end in range(k, n):
            s = sum(v[k : end + 1], Fraction(0))
            if x > s:
                total += x - s
    return total


def naive_row(v, x, j) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    for k in range(len(v) - j + 1):
        s = sum(v[k : k + j], Fraction(0))
        if x > s:
            total += x - s
    return total


def naive_strict_pairs(v, x) -> Fraction:
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    total = Fraction(0)
    n = len(v)
    for k in range(n):
        for end in range(k + 1, n):
            s = sum(v[k : end + 1], Fraction(0))
            if x > s:
                total += x - s
    return total


def bisect_f(v, x) -> Fraction:
    """f(v) in O(n log n).  Each start k finds its first saturated end e by
    bisection on the prefix sums P, and the shorter intervals from k add
    (e−k−1)·(x + P[k]) − (P[k+1] + ... + P[e−1]) in one step."""
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    denom = math.lcm(x.denominator, *(e.denominator for e in v))
    xs = int(x * denom)
    prefix = list(itertools.accumulate((int(e * denom) for e in v), initial=0))
    pp = list(itertools.accumulate(prefix, initial=0))  # pp[i] = P[0] + ... + P[i-1]
    total = 0
    for k in range(len(v)):
        e = bisect.bisect_left(prefix, prefix[k] + xs, lo=k + 1)
        total += (e - k - 1) * (xs + prefix[k]) - (pp[e] - pp[k + 1])
    return Fraction(total, denom)


def max_flow(
    graph: list[list[int]], heads: list[int], caps: list[int], source: int, sink: int
) -> tuple[int, list[int]]:
    """Dinic's maximum flow; ``caps`` holds residual capacities, updated in place.

    Arc a runs into ``heads[a]`` and its reverse is a ^ 1; ``graph[u]`` lists
    the arcs out of u.  Returns the flow value and the levels of the last
    breadth-first search: a level >= 0 marks a node the source still reaches
    in the residual graph.  The search for augmenting paths keeps its path
    in a list, so its depth is not bounded by the recursion limit.
    """
    flow = 0
    while True:
        level = [-1] * len(graph)
        level[source] = 0
        queue = [source]
        for u in queue:
            for a in graph[u]:
                if caps[a] and level[heads[a]] < 0:
                    level[heads[a]] = level[u] + 1
                    queue.append(heads[a])
        if level[sink] < 0:
            return flow, level
        nxt = [0] * len(graph)  # per node, the first out-arc not yet found useless
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(caps[a] for a in path)
                for a in path:
                    caps[a] -= push
                    caps[a ^ 1] += push
                flow += push
                path.clear()
                u = source
                continue
            arcs, i = graph[u], nxt[u]
            while i < len(arcs) and not (caps[arcs[i]] and level[heads[arcs[i]]] == level[u] + 1):
                i += 1
            nxt[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = heads[arcs[i]]
            elif u == source:
                break
            else:  # dead end: step back and skip the arc that led here
                u = heads[path.pop() ^ 1]
                nxt[u] += 1


def flow_certificate(v, x) -> tuple[int, list[tuple[int, int]]] | None:
    """The LP dual certificate of v for any μ, by one integer max-flow: μ and
    the tight intervals [k, e) with α = 1; None when no weights prove v optimal.

    The weights are a circulation on the prefix boundaries 0..n: interval
    [k, e) is the arc k -> e, fixed at 1 when unsaturated and in [0, 1] when
    tight; each v_i = 0 adds an unbounded slack arc i -> i+1, and the
    unbounded return arc n -> 0 carries μ.  Interval matrices are totally
    unimodular, so the flow from a super source to a super sink that carry
    the lower bounds finds integral weights whenever any exist.  Every
    interval is classified by a plain double loop.
    """
    v = [Fraction(e) for e in v]
    x = Fraction(x)
    n = len(v)
    denom = math.lcm(x.denominator, *(e.denominator for e in v))
    xs = int(x * denom)
    prefix = list(itertools.accumulate((int(e * denom) for e in v), initial=0))
    excess = [0] * (n + 1)
    tight = []
    for k in range(n):
        for e in range(k + 1, n + 1):
            s = prefix[e] - prefix[k]
            if s < xs:  # the arc fixed at 1 leaves -1 at its tail, +1 at its head
                excess[k] -= 1
                excess[e] += 1
            elif s == xs:
                tight.append((k, e))

    source, sink = n + 1, n + 2
    graph: list[list[int]] = [[] for _ in range(n + 3)]
    heads: list[int] = []
    caps: list[int] = []

    def add_arc(tail: int, head: int, cap: int) -> int:
        graph[tail].append(len(heads))
        heads.append(head)
        caps.append(cap)
        graph[head].append(len(heads))
        heads.append(tail)
        caps.append(0)
        return len(heads) - 2

    supply = sum(b for b in excess if b > 0)
    unbounded = supply + 1  # more than any flow
    for j, b in enumerate(excess):
        if b > 0:
            add_arc(source, j, b)
        elif b < 0:
            add_arc(j, sink, -b)
    tight_arcs = [add_arc(k, e, 1) for k, e in tight]
    for i in range(n):
        if v[i] == 0:
            add_arc(i, i + 1, unbounded)
    back = add_arc(n, 0, unbounded)
    if max_flow(graph, heads, caps, source, sink)[0] < supply:
        return None
    return caps[back ^ 1], [iv for iv, a in zip(tight, tight_arcs) if not caps[a]]


def naive_grid(inst, resolution: int) -> tuple[list[tuple[Fraction, ...]], Fraction]:
    """Every minimizer of ``naive_f`` over the compositions of the budget in
    steps of w/resolution, in lexicographic order, and the minimum."""
    step = inst.w / resolution
    best, minimizers = None, []
    # the last part takes the rest, so the heads run in lexicographic order
    for head in itertools.product(range(resolution + 1), repeat=inst.n - 1):
        if sum(head) > resolution:
            continue
        vector = tuple(c * step for c in head + (resolution - sum(head),))
        value = naive_f(vector, inst.x)
        if best is None or value < best:
            best, minimizers = value, [vector]
        elif value == best:
            minimizers.append(vector)
    return minimizers, best


def reference_project_rows(points: np.ndarray, total: float) -> np.ndarray:
    """Row-wise simplex projection in the textbook form: rho is the number of
    sorted entries u_k with u_k + (total - css_k)/k > 0."""
    u = np.sort(points, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    cond = u + (total - css) / np.arange(1, points.shape[1] + 1) > 0
    rho = cond.sum(axis=1)
    theta = (css[np.arange(len(points)), rho - 1] - total) / rho
    return np.maximum(points - theta[:, None], 0.0)


def random_fraction(rng: random.Random, max_num: int = 12, max_den: int = 7) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_vector(rng: random.Random, n: int, x: Fraction) -> tuple[Fraction, ...]:
    """Arbitrary nonnegative rational vector, scaled so entries straddle x."""
    scale = x / 4
    return tuple(random_fraction(rng) * scale for _ in range(n))


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def random_coprime_vector(
    rng: random.Random, primes: list[int], n: int, x: Fraction
) -> tuple[Fraction, ...]:
    """Entries in [0, x/2] whose denominators are distinct primes from ``primes``,
    a quarter of them zero."""
    out = []
    for p in rng.sample(primes, n):
        out.append(Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, p * x // 2), p))
    return tuple(out)


def in_lambda(v, w) -> bool:
    """Membership in the continuous feasible set: nonnegative, sum <= w."""
    v = [Fraction(e) for e in v]
    return all(e >= 0 for e in v) and sum(v, Fraction(0)) <= Fraction(w)


def in_upsilon(v, inst) -> bool:
    """Membership in the combinatorial feasible set: n entries, m of them
    equal to x, one equal to r when r > 0, all others zero."""
    v = [Fraction(e) for e in v]
    m, r = divmod(inst.w, inst.x)
    expected = collections.Counter({inst.x: m, r: 1} if r else {inst.x: m})
    return len(v) == inst.n and collections.Counter(e for e in v if e) == expected


def random_lambda_member(rng: random.Random, inst) -> tuple[Fraction, ...]:
    """Random vector with entries in [0, x] summing exactly to w."""
    n, x, w = inst.n, inst.x, inst.w
    order = list(range(n))
    rng.shuffle(order)
    v = [Fraction(0)] * n
    remaining = w
    for i in order[:-1]:
        amount = min(x, remaining * Fraction(rng.randint(0, 8), 8))
        v[i] = amount
        remaining -= amount
    for i in order:
        take = min(x - v[i], remaining)
        v[i] += take
        remaining -= take
        if remaining == 0:
            break
    assert remaining == 0
    return tuple(v)


def shuffled_duo(rng: random.Random, inst) -> tuple[Fraction, ...]:
    """(1 − t)·E_m + t·E_{m+1} with t = r/x: E_k puts a mass x at the ends of
    the k+1 near-equal parts of n+1, taken in random order, so the two
    layers need not interleave.  Optimal by the chord theorem."""
    n, x = inst.n, inst.x
    m = inst.w // x
    r = inst.w - m * x
    v = [Fraction(0)] * n
    for k, mass in ((m, x - r), (m + 1, r)):
        q, extra = divmod(n + 1, k + 1)
        gaps = [q + 1] * extra + [q] * (k + 1 - extra)
        rng.shuffle(gaps)
        for at in itertools.accumulate(gaps[:-1]):
            v[at - 1] += mass
    return tuple(v)


def duo_layers(inst) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The duo's two layers as n-vectors: m masses of y = x − r, then m+1
    masses of r.  k masses end the first k of the k+1 near-equal parts of
    n+1, short parts first: with q, s = divmod(n+1, k+1) the last s parts
    are q+1 long, so mass j ends at slot j·q + max(0, j − (k+1−s))."""
    n, x = inst.n, inst.x
    m, r = divmod(inst.w, x)
    layers = []
    for k, mass in ((m, x - r), (m + 1, r)):
        q, s = divmod(n + 1, k + 1)
        v = [Fraction(0)] * n
        for j in range(1, k + 1):
            v[j * q + max(0, j - (k + 1 - s)) - 1] = mass
        layers.append(tuple(v))
    return layers[0], layers[1]


def twelfths_grid():
    """(n, x, w) for n = 2..16, x in {1, 3/7, 11/10} and w = x·k/12 for
    every k with 0 < w < n·x."""
    for n in range(2, 17):
        for x in (Fraction(1), Fraction(3, 7), Fraction(11, 10)):
            for k in range(1, 12 * n):
                yield n, x, x * k / 12


def placement(pairs):
    """The (runs, values) placement of ascending (index, value) pairs, one
    run of one one-token unit per mass.

    Each distinct value object becomes one entry of ``values``, in order of
    first use, so a value shared by reference stays shared; equal values
    held as distinct objects stay distinct, as a solver's y and r do at
    r = x/2."""
    pairs = list(pairs)
    index = {}
    for _, e in pairs:
        index.setdefault(id(e), (len(index), e))
    runs, previous = [], -1
    for i, e in pairs:
        runs.append((((i - previous - 1, index[id(e)][0]),), 1))
        previous = i
    return tuple(runs), tuple(e for _, e in index.values())


def masses_of(placed):
    """(at, masses): the ascending indices and the values of a placement's
    masses, its runs written out one token at a time."""
    runs, values = placed
    at, masses, i = [], [], -1
    for unit, count in runs:
        for _ in range(count):
            for zeros, code in unit:
                i += zeros + 1
                at.append(i)
                masses.append(values[code])
    return at, masses


def expand(n, placed):
    """The length-n vector of a placement, entry by entry."""
    v = [Fraction(0)] * n
    for i, e in zip(*masses_of(placed)):
        v[i] = e
    return tuple(v)


def mass_count(placed):
    """The number of masses a placement holds."""
    return sum(count * len(unit) for unit, count in placed[0])


def assert_placement(n, placed):
    """Check the form of a length-n vector's placement: each run a nonempty
    unit of (zeros, code) tokens and a positive count, zeros nonnegative,
    every code naming a positive value, and the runs within n entries."""
    runs, values = placed
    assert type(runs) is tuple and type(values) is tuple
    for unit, count in runs:
        assert type(count) is int and count >= 1
        assert type(unit) is tuple and unit
        for zeros, code in unit:
            assert type(zeros) is int and zeros >= 0
            assert type(code) is int and 0 <= code < len(values) and values[code] > 0
    at, _ = masses_of(placed)
    assert not at or at[-1] < n


def shortfall_per_mass(n, placed, x) -> Fraction:
    """f of a placement's vector by the per-mass scan over its masses
    written out, M_1..M_K with z_j zeros before M_j and z_{K+1} after M_K:
    the zero stretches add x·z_j(z_j+1)/2, and the scan from each M_a < x
    adds (z_a + 1)(z_{b+1} + 1)(x − S_ab) for every b with S_ab < x,
    S_ab the sum of M_a..M_b, stopping at the first saturated b."""
    at, masses = masses_of(placed)
    x = Fraction(x)
    widths = [b - a for a, b in zip([-1, *at], [*at, n])]  # z_j + 1
    total = x * (sum(w * w for w in widths) - sum(widths)) / 2
    for a in range(len(masses)):
        if masses[a] >= x:
            continue
        left, room = widths[a], x
        for b in range(a, len(masses)):
            room -= masses[b]
            if room <= 0:
                break
            total += left * widths[b + 1] * room
    return total


def gamma_member(inst, delta):
    """The structured vector with widest gap delta from its definition: an
    x-mass at the end of each of the first m of the m+1 gaps, the delta-gap
    first and the other m near-equal, ascending; the leftover at the
    smallest middle point of the widest stretch, the 1-based slots
    1..delta−1."""
    n, x = inst.n, inst.x
    m, r = divmod(inst.w, x)
    v = [Fraction(0)] * n
    q, s = divmod(n + 1 - delta, m) if m else (0, 0)
    gaps = [delta] + [q] * (m - s) + [q + 1] * s
    for end in itertools.accumulate(gaps[:m]):
        v[end - 1] = x
    if r:
        v[(1 + delta - 1) // 2 - 1] = r
    return tuple(v)
