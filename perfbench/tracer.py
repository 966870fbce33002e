"""Span tracing for the benchmark's traced run, installed from outside.

The program has no tracing of its own, so the tracer wraps the public
functions of each leastpriv module: where the function is defined and
wherever another leastpriv module imported it by name (for example
`leastpriv.cli.load_store`).  Each span aggregates `calls`, `total_s`
and `self_s` by name; self time is a span's duration minus the part
its child spans cover.  Spans are aggregated in memory rather than kept
one by one, because hot functions run about a million times a round.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

# Layers whose module's public functions are traced.  `cli` is absent:
# its only public function is `main`, which the benchmark wraps in one
# `cli.<command>` span per call.
LAYERS = ("monitor", "events", "decision", "emitter", "explorer", "simharness",
          "environment", "options")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._children: list[float] = []  # child time of each open span

    def _enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if self._children:
            self._children[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        start = self._enter()
        try:
            yield
        finally:
            self._leave(name, start)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(counts, args, result) records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, start)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced


def _count_parsed(counts, args, records):
    counts["monitor.records_parsed"] += len(records)


def _count_recorded(counts, args, states):
    counts["monitor.records_recorded"] += sum(
        sum(s.syscall_counts.values()) + sum(s.capability_counts.values()) for s in states.values()
    )


def _count_read(counts, args, result):
    counts["decision.store_bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, result):
    counts["decision.store_bytes_written"] += os.path.getsize(args[1])


_AFTER = {
    "monitor.parse_trace": _count_parsed,
    "monitor.replay_trace": _count_recorded,
    "decision.load_store": _count_read,
    "decision.save_store": _count_written,
}


def install(tracer: Tracer) -> None:
    """Replace every public leastpriv function by its traced wrapper."""
    import leastpriv.cli  # noqa: F401  (imports every layer)
    from leastpriv.explorer import EventProbe

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "leastpriv"]
    for layer in LAYERS:
        module = sys.modules[f"leastpriv.{layer}"]
        for name, fn in list(vars(module).items()):
            public = not name.startswith("_") and isinstance(fn, types.FunctionType)
            if not public or fn.__module__ != module.__name__:
                continue
            span = f"{layer}.{name}"
            wrapped = tracer.wrap(span, fn, _AFTER.get(span))
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, wrapped)

    evaluate = EventProbe.evaluate

    def counted_evaluate(probe, *args, **kwargs):
        before = probe.evaluations
        result = evaluate(probe, *args, **kwargs)
        tracer.counts["explorer.probe_evaluations"] += probe.evaluations - before
        return result

    EventProbe.evaluate = tracer.wrap("explorer.EventProbe.evaluate", counted_evaluate)
