"""Spans around the package's public functions, recorded from outside the package.

Each traced name is wrapped where its caller looks it up (for example
``bdris.experiment.optimize`` is the name ``run_experiment`` calls), so the
package itself is never edited.  Spans are kept in memory as
(id, parent, name, start, end); a span's parent is the innermost open span of
its thread, or, for a worker thread with nothing open, the innermost open span
of the dispatching main thread.  Self time is a span's duration minus the part
of it its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name): every place a traced function is looked up.
WRAPPED = (
    ("bdris.cli", "main", "cli.main"),
    ("bdris.cli", "run_experiment", "experiment.run_experiment"),
    ("bdris.cli", "write_records_csv", "experiment.write_records_csv"),
    ("bdris.cli", "summarize", "experiment.summarize"),
    ("bdris.cli", "write_summary_csv", "experiment.write_summary_csv"),
    ("bdris.experiment", "gen_rayleigh", "channel.gen"),
    ("bdris.experiment", "is_tc_adversarial", "adversarial.is_tc_adversarial"),
    ("bdris.experiment", "optimize", "optimize.optimize"),
    ("bdris.optimize", "optimize", "optimize.optimize"),
    ("bdris.optimize", "build_tc_system", "optimize.build_tc_system"),
    ("bdris.optimize", "min_norm_least_squares", "linalg.min_norm_least_squares"),
    ("bdris.optimize", "scattering_from_susceptance", "architecture.scattering_from_susceptance"),
    ("bdris.optimize", "received_power", "architecture.received_power"),
    ("bdris.architecture", "check_symmetric_unitary", "linalg.check_symmetric_unitary"),
)

# Counts taken from a span's arguments and result, by span name: the n^3 of
# each dense Cayley solve, optimize() results that are not consistent, and
# least-squares solutions of rank below min(m, k).
COUNTERS = {
    "architecture.scattering_from_susceptance":
        lambda args, result: {"architecture.scattering_from_susceptance.dense_ops": result.n ** 3},
    "optimize.optimize":
        lambda args, result: {"optimize.inconsistent": int(not result.consistent)},
    "linalg.min_norm_least_squares":
        lambda args, result: {"linalg.min_norm_least_squares.rank_deficient":
                              int(result.numerical_rank < min(args[0].shape))},
}


class Tracer:
    """Installs span wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        self._local.stack = self._main_stack
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if counter is not None:
                counts = counter(args, result)
                with self._lock:
                    self.counts.update(counts)
            return result

        return traced

    def totals(self) -> dict[str, float]:
        """Per span name: calls, summed duration (s) and summed self time (self_s)."""
        children = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        out.update(self.counts)
        return out


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
