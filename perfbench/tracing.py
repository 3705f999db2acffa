"""In-memory spans around the calls into each layer of ``extopt``.

The benchmark does not edit the program: it replaces public functions at the
module attributes their callers look them up by, records one span per call
(name, start, end, parent) and restores the originals afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module attribute, span name); one name may sit behind several lookups
WRAPPED = [
    ("extopt.cli.solve_continuous", "continuous.solve_continuous"),
    ("extopt.oracle.solve_continuous", "continuous.solve_continuous"),
    ("extopt.cli.solve_combinatorial", "combinatorial.solve_combinatorial"),
    ("extopt.cli.verify_conjecture", "oracle.verify_conjecture"),
    ("extopt.cli.externality_variance", "model.externality_variance"),
    ("extopt.model.strict_pair_sum", "model.strict_pair_sum"),
    ("extopt.continuous.eval_f", "model.eval_f"),
    ("extopt.combinatorial.eval_f", "model.eval_f"),
    ("extopt.oracle.eval_f", "model.eval_f"),
    ("extopt.continuous.build_duo", "continuous.build_duo"),
    ("extopt.combinatorial.delta_search", "combinatorial.delta_search"),
    ("extopt.combinatorial.build_gamma_member", "combinatorial.build_gamma_member"),
    ("extopt.continuous.build_gamma_member", "combinatorial.build_gamma_member"),
    ("extopt.oracle.projected_subgradient", "oracle.projected_subgradient"),
    ("extopt.oracle.grid_search", "oracle.grid_search"),
]


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, failed],
    its times read from ``clock``.  ``calls`` keeps the arguments and
    results of the wrapped calls, whose work the benchmark counts afterwards,
    outside every span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = defaultdict(list)
        self._stack = []
        self._originals = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, failed=False):
        span = self.spans[idx]
        span[2] = self.clock()
        span[4] = failed
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            self.calls[name].append((args, kwargs, result))
            return result

        return traced

    def install(self):
        for target, name in WRAPPED:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def take(self):
        """Hand over the spans and calls recorded so far and start afresh."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], defaultdict(list)
        return spans, calls


def layer_times(spans):
    """Per span name: total duration, self time (duration minus the time its
    child spans cover), number of spans and number that raised."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
    for idx, (name, start, end, parent, failed) in enumerate(spans):
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
        entry["calls"] += 1
        entry["failed"] += int(failed)
    return out


def write_spans(path, commands):
    """Write the spans of every traced command as JSON lines.  Times are
    unscaled seconds; ``scale`` is the command's calibration factor."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for number, (scale, spans) in enumerate(commands):
            for name, start, end, parent, failed in spans:
                handle.write(json.dumps(
                    {"command": number, "scale": scale, "name": name, "start": start,
                     "end": end, "parent": parent, "failed": failed}) + "\n")
