"""The exact LP dual certificate that decides `verify`.

One integer max-flow either proves a vector optimal over the slab
{u >= 0, sum u <= w}, or yields a strictly better rational point.  Every
step is in exact integers or rationals; nothing here uses floats.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ValidationError
from .model import Instance, _scaled, eval_f, service_vector


@dataclass(frozen=True)
class DualCertificate:
    """Weights of the LP lower bound x·Σα − μ·w on f over {u >= 0, sum u <= w}.

    Interval [k, e) covers coordinates k..e-1.  α is 1 on every strictly
    unsaturated interval of the certified vector and on the tight intervals
    in ``tight``, 0 on all others, and no coordinate is covered by more
    than ``mu`` intervals with α = 1.  `check_certificate` rebuilds α from
    the vector and checks all of this.  The counts describe the vector.
    """

    mu: int
    tight: tuple[tuple[int, int], ...]
    tight_count: int
    unsaturated_count: int


def _max_flow(
    graph: list[list[int]], heads: list[int], caps: list[int], source: int, sink: int
) -> tuple[int, list[int]]:
    """Dinic's maximum flow; ``caps`` holds residual capacities, updated in place.

    Arc a runs into ``heads[a]`` and its reverse is a ^ 1; ``graph[u]`` lists
    the arcs out of u.  Returns the flow value and the levels of the last
    breadth-first search: a level >= 0 marks a node the source still reaches
    in the residual graph, the source side of a minimum cut.  The search for
    augmenting paths keeps its path in a list, so its depth is not bounded
    by the interpreter's recursion limit.
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


def dual_certificate(v: Iterable, inst: Instance) -> DualCertificate | tuple[Fraction, ...]:
    """Prove v optimal over {u >= 0, sum u <= w}, or find a strictly better point.

    v must be nonnegative with n entries summing to exactly w.  For weights
    α in [0, 1] on the intervals and μ >= 0 with every coordinate covered by
    at most μ, f(u) >= x·Σα − μ·w for every feasible u (weak duality).  The
    bound equals f(v) when α = 1 on the unsaturated intervals of v, α = 0 on
    the oversaturated ones, and the coverage is exactly μ wherever v_i > 0.
    That is a circulation on the prefix boundaries 0..n: interval [k, e) is
    the arc k -> e, fixed at 1 when unsaturated and in [0, 1] when tight;
    each v_i = 0 adds an unbounded slack arc i -> i+1, and the unbounded
    return arc n -> 0 carries μ.  Interval matrices are totally unimodular,
    so one integer max-flow, from a super source to a super sink that carry
    the lower bounds, finds α in {0, 1} whenever any weights exist.

    Otherwise the source side X of a minimum cut gives the direction
    d_i = [i+1 in X] - [i in X], along which f falls at rate at least 1
    (Hoffman's circulation theorem).  The step starts at the largest one
    that keeps the point nonnegative, capped at x, and halves until the
    exact objective falls; the budget the step gave up goes back on the
    first coordinate, which cannot raise f.
    """
    vec = service_vector(v)
    if len(vec) != inst.n or sum(vec, Fraction(0)) != inst.w:
        raise ValidationError(f"v must have {inst.n} entries summing to w = {inst.w}")
    vals, xs, _ = _scaled(vec, inst.x)
    prefix = list(itertools.accumulate(vals, initial=0))
    n = inst.n
    # each unsaturated arc, fixed at 1, leaves an excess of +1 at its head
    # and -1 at its tail
    excess = [0] * (n + 1)
    tight_intervals = []
    unsaturated = 0
    for k in range(n):
        # ends k+1..lo-1 are unsaturated, lo..hi-1 tight
        lo = bisect.bisect_left(prefix, prefix[k] + xs, k + 1)
        hi = bisect.bisect_right(prefix, prefix[k] + xs, lo)
        unsaturated += lo - k - 1
        excess[k] -= lo - k - 1
        for e in range(k + 1, lo):
            excess[e] += 1
        tight_intervals.extend((k, e) for e in range(lo, hi))

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
    tight_arcs = [add_arc(k, e, 1) for k, e in tight_intervals]
    for i in range(n):
        if prefix[i + 1] == prefix[i]:
            add_arc(i, i + 1, unbounded)
    back = add_arc(n, 0, unbounded)
    flow, level = _max_flow(graph, heads, caps, source, sink)
    if flow == supply:
        return DualCertificate(
            mu=caps[back ^ 1],
            tight=tuple(iv for iv, a in zip(tight_intervals, tight_arcs) if not caps[a]),
            tight_count=len(tight_intervals),
            unsaturated_count=unsaturated,
        )

    reach = [int(lv >= 0) for lv in level[: n + 1]]
    d = [b - a for a, b in zip(reach, reach[1:])]
    step = min([e for e, di in zip(vec, d) if di < 0] + [inst.x])
    start = eval_f(vec, inst.x)
    while True:
        point = [e + step * di for e, di in zip(vec, d)]
        point[0] += inst.w - sum(point, Fraction(0))
        if eval_f(point, inst.x) < start:
            return tuple(point)
        step /= 2


def check_certificate(v: Iterable, inst: Instance, cert: DualCertificate) -> Fraction | None:
    """The lower bound x·Σα − μ·w on f over {u >= 0, sum u <= w} that
    ``cert`` proves, when it equals f(v) for a v of n entries summing to w;
    None otherwise.

    α is rebuilt from v alone: 1 on its unsaturated intervals and on those
    in ``cert.tight``, which must be distinct and tight.  So the answer does
    not depend on how the certificate was found.
    """
    vec = service_vector(v)
    vals, xs, _ = _scaled(vec, inst.x)
    prefix = list(itertools.accumulate(vals, initial=0))
    n = len(vec)
    tight = set(cert.tight)
    if (n != inst.n or sum(vec, Fraction(0)) != inst.w or cert.mu < 0
            or len(tight) != len(cert.tight)
            or any(not 0 <= k < e <= n or prefix[e] - prefix[k] != xs for k, e in tight)):
        return None
    # coverage as a second difference: interval [k, e) adds 1 on k..e-1
    ramp = [0] * (n + 2)
    for k, e in tight:
        ramp[k] += 1
        ramp[k + 1] -= 1
        ramp[e] -= 1
        ramp[e + 1] += 1
    unsaturated = 0
    for k in range(n):
        # ends k+1..lo-1 are unsaturated: together they cover k..lo-2 with
        # the ramp c, c-1, ..., 1, where c = lo-k-1
        lo = bisect.bisect_left(prefix, prefix[k] + xs, k + 1)
        c = lo - k - 1
        if c:
            unsaturated += c
            ramp[k] += c
            ramp[k + 1] -= c + 1
            ramp[lo] += 1
    cover = itertools.accumulate(itertools.accumulate(ramp[:n]))
    if max(cover) > cert.mu:
        return None
    bound = inst.x * (unsaturated + len(tight)) - cert.mu * inst.w
    return bound if bound == eval_f(vec, inst.x) else None
