"""Self-test of the span arithmetic and the tracing wrappers.

Usage: python3 perfbench/selftest.py

Checks self time on a synthetic span tree (overlapping and overhanging
children included), nesting through the recorder, the per-thread parent
stack, the sweep pool's explicit cross-thread parent, and that wrappers
return the wrapped results unchanged. The traced benchmark pass runs it
first and stops if it fails.
"""

import threading
import types

from layers import SWEEP_POINT, _traced_pool
from spans import (PROBE, Recorder, Span, descends_from, rebind, self_times,
                   summarize, traced)


class SelfTestError(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def close(a, b):
    return abs(a - b) < 1e-12


def test_self_time_arithmetic():
    root = Span("root", None, 1, 0.0, 10.0)
    a = Span("a", root, 1, 1.0, 4.0)
    b = Span("b", root, 2, 3.0, 6.0)  # overlaps a: parallel worker
    leaf = Span("leaf", a, 1, 2.0, 3.0)
    late = Span("late", root, 2, 8.0, 12.0)  # overhangs the root's end
    own = self_times([root, a, b, leaf, late])
    # root: 10 minus the union [1, 6] and the in-window part [8, 10]
    expect(close(own[id(root)], 3.0), f"root self {own[id(root)]}")
    expect(close(own[id(a)], 2.0), f"a self {own[id(a)]}")
    expect(close(own[id(b)], 3.0), f"b self {own[id(b)]}")
    expect(close(own[id(leaf)], 1.0), f"leaf self {own[id(leaf)]}")
    expect(close(own[id(late)], 4.0), f"late self {own[id(late)]}")
    table = summarize([root, a, b, leaf, late,
                       Span(PROBE, root, 1, 0.0, 1.0)], own)
    expect("trace.probe" not in table, "probe spans reach the summary")
    expect(table["a"] == (1, own[id(a)]), f"summary of a {table['a']}")
    expect(descends_from(leaf, "root") and not descends_from(root, "a"),
           "ancestry")


def test_recorder_nesting():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer") as outer:          # 0 .. 5
        with recorder.span("first") as first:      # 1 .. 2
            pass
        with recorder.span("second") as second:    # 3 .. 4
            expect(recorder.current() is second, "current span")
    expect(recorder.current() is None, "stack not emptied")
    expect(first.parent is outer and second.parent is outer,
           "children not parented to the enclosing span")
    expect(outer.parent is None, "root has a parent")
    own = self_times(recorder.spans)
    expect(close(own[id(outer)], 3.0), f"outer self {own[id(outer)]}")


def test_per_thread_stacks():
    recorder = Recorder()
    barrier = threading.Barrier(2, timeout=10)
    inner_spans = {}

    def worker(label):
        with recorder.span(f"outer-{label}") as outer:
            barrier.wait()  # both outer spans are open at once
            with recorder.span(f"inner-{label}") as inner:
                barrier.wait()
            inner_spans[label] = (outer, inner)

    with recorder.span("main"):
        threads = [threading.Thread(target=worker, args=(label,))
                   for label in ("x", "y")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    expect(not any(thread.is_alive() for thread in threads), "worker hung")
    expect(sorted(inner_spans) == ["x", "y"], "a worker did not finish")
    for label, (outer, inner) in inner_spans.items():
        expect(inner.parent is outer, f"inner-{label} nested under "
               f"{inner.parent and inner.parent.name}")
        expect(outer.parent is None,
               f"outer-{label} adopted the main thread's span")
        expect(inner.thread == outer.thread != threading.get_ident(),
               f"thread of {label}")


def test_pool_parents_points():
    recorder = Recorder()
    pool_class = _traced_pool(recorder)
    marker = object()
    with recorder.span("cli.main") as main:
        with pool_class(max_workers=2) as pool:
            futures = [pool.submit(lambda value: value, marker)
                       for _ in range(3)]
            results = [future.result(timeout=10) for future in futures]
    expect(all(result is marker for result in results),
           "pool changed the point results")
    points = [s for s in recorder.spans if s.name == SWEEP_POINT]
    expect(len(points) == 3, f"{len(points)} point spans")
    expect(all(point.parent is main for point in points),
           "points not parented to the submitting span")
    expect(recorder.counters["cli.sweep.queue_wait_s"] >= 0, "queue wait")


def test_wrappers_are_transparent():
    recorder = Recorder()
    marker = object()
    probed = []

    def payload(value, *, scale=1):
        """Docstring."""
        return marker if value is None else value * scale

    wrapped = traced(recorder, "layer.payload", payload,
                     probe=lambda result, args, kwargs: probed.append(
                         (result, args, kwargs)))
    expect(wrapped(None) is marker, "wrapper changed the result object")
    expect(traced(recorder, "layer.nothing", lambda: None)() is None,
           "wrapper changed a None result")
    expect(wrapped(3, scale=2) == 6, "wrapper changed arguments")
    expect(wrapped.__name__ == "payload" and wrapped.__doc__ == "Docstring.",
           "wrapper lost the function's metadata")
    expect(probed[1] == (6, (3,), {"scale": 2}), f"probe saw {probed[1]}")

    def failing():
        raise KeyError("boom")

    try:
        traced(recorder, "layer.failing", failing)()
    except KeyError:
        pass
    else:
        raise SelfTestError("wrapper swallowed an exception")
    names = [span.name for span in recorder.spans]
    expect(names.count("layer.payload") == 2 and "layer.failing" in names
           and "layer.nothing" in names,
           f"spans recorded: {names}")
    expect(all(span.parent is None for span in recorder.spans),
           "probe span nested under the wrapped call")

    module = types.ModuleType("fake")
    module.payload = module.alias = payload
    other = types.ModuleType("other")
    other.payload = payload
    expect(rebind([module, other], payload, wrapped) == 3, "rebind count")
    expect(module.alias is wrapped and other.payload is wrapped, "rebind")


TESTS = (test_self_time_arithmetic, test_recorder_nesting,
         test_per_thread_stacks, test_pool_parents_points,
         test_wrappers_are_transparent)


def run_all():
    for test in TESTS:
        test()


if __name__ == "__main__":
    run_all()
    print(f"selftest: {len(TESTS)}/{len(TESTS)} passed")
