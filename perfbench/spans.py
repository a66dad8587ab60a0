"""Span recording for the traced benchmark pass.

A :class:`Recorder` keeps spans in memory. Each thread has its own stack
of open spans, so a span opened in a worker thread never takes a span of
another thread as its parent unless the parent is given explicitly (as
the sweep pool does for the points it runs). A span's self time is its
duration minus the part of its interval that its children cover; children
that overlap in time (parallel sweep points) are counted once.

Only the standard library is used here, so the self-test runs without the
program's dependencies.
"""

import functools
import threading
import time
from contextlib import contextmanager

PROBE = "trace.probe"  # bookkeeping spans; excluded from layer metrics


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end")

    def __init__(self, name, parent, thread, start, end=None):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span and counter store."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = Span(name, parent, threading.get_ident(), self.clock())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Map each span to its duration minus the time its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end))
    return {id(span): span.duration - _covered(
        span.start, span.end, children.get(id(span), ()))
        for span in spans}


def descends_from(span, root_name):
    while span is not None:
        if span.name == root_name:
            return True
        span = span.parent
    return False


def summarize(spans, own):
    """Per-name call count and summed self time, probes left out.

    ``own`` maps ``id(span)`` to self time, as :func:`self_times` gives it.
    """
    table = {}
    for span in spans:
        if span.name == PROBE:
            continue
        calls, self_s = table.get(span.name, (0, 0.0))
        table[span.name] = (calls + 1, self_s + own[id(span)])
    return table


def traced(recorder, name, fn, probe=None):
    """Wrap ``fn`` so each call is a span named ``name``.

    ``probe(result, args, kwargs)`` runs after the span closes, inside a
    probe span, so its cost is charged neither to ``name`` nor to the
    caller. The wrapped result is returned unchanged.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if probe is not None:
            with recorder.span(PROBE):
                probe(result, args, kwargs)
        return result
    return wrapper


def rebind(modules, original, replacement):
    """Replace every module-level binding of ``original``; return the count."""
    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count
