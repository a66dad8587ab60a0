"""Per-layer instrumentation of the ``spinheat`` package for the traced pass.

The layers are the package modules below. Every public function a layer
defines is wrapped in a span named ``<layer>.<function>``, and the wrapper
replaces the function under every name a ``spinheat`` module binds it to
(``engine.diagonalize``, ``cli.brute_force_oracle``, ...), so calls are
recorded whichever module makes them. ``spectral``, ``constants`` and
``errors`` do closed-form scalar work only and are left alone.

A few boundaries also carry counts, taken from the values that cross them:
the size of each assembled superoperator, the size of each exact-oracle
state, the right-hand-side evaluations of the direct integrator, and the
time each sweep point waits between submission and start.
"""

import importlib
import inspect
import sys
from concurrent.futures import ThreadPoolExecutor

from spans import (Recorder, descends_from, rebind, self_times, summarize,
                   traced)

LAYERS = ("config", "quantum_core", "liouvillian", "propagator", "engine",
          "hyperfine", "cli")
SWEEP_POINT = "cli.sweep_point"
COMPLEX_BYTES = 16


def _matrix_size(matrix):
    """(dimension, stored nonzeros, bytes held) of a dense or sparse matrix.

    Sparse assembly is a planned change to the program; the benchmark must
    measure it without being edited.
    """
    nnz = getattr(matrix, "nnz", None)
    if nnz is None:
        return matrix.shape[0], int((matrix != 0).sum()), int(matrix.nbytes)
    held = sum(int(getattr(matrix, part).nbytes)
               for part in ("data", "indices", "indptr")
               if hasattr(matrix, part))
    return matrix.shape[0], int(nnz), held


def _probes(recorder):
    def superoperator(result, args, kwargs):
        dim, nnz, held = _matrix_size(result)
        recorder.maximum("liouvillian.superop_dim", dim)
        recorder.maximum("liouvillian.superop_nnz", nnz)
        recorder.maximum("liouvillian.superop_bytes", held)

    def propagate(result, args, kwargs):
        rho0 = args[0] if args else kwargs["rho0"]
        # two dense d x d complex matrix-vector products, d = dim(rho)^2
        recorder.add("propagator.propagate.bytes_computed",
                     2 * rho0.size**2 * COMPLEX_BYTES)

    def oracle(result, args, kwargs):
        recorder.maximum("hyperfine.oracle_dim", int(result.size))

    return {"liouvillian.build_superoperator": superoperator,
            "propagator.propagate": propagate,
            "hyperfine.brute_force_oracle": oracle}


def _counting_solve_ivp(recorder, solve_ivp):
    def counted(*args, **kwargs):
        solution = solve_ivp(*args, **kwargs)
        recorder.add("propagator.integrate_direct.rhs_evals",
                     int(solution.nfev))
        return solution
    return counted


def _traced_pool(recorder):
    class TracedPool(ThreadPoolExecutor):
        """Runs each submitted sweep point as a span under the submitter."""

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()
            submitted = recorder.clock()

            def point():
                recorder.add("cli.sweep.queue_wait_s",
                             recorder.clock() - submitted)
                with recorder.span(SWEEP_POINT, parent=parent):
                    return fn(*args, **kwargs)
            return super().submit(point)
    return TracedPool


def instrument():
    """Wrap every layer of the imported package; return the recorder."""
    recorder = Recorder()
    modules = {name: importlib.import_module(f"spinheat.{name}")
               for name in LAYERS}
    package = [module for name, module in sys.modules.items()
               if name == "spinheat" or name.startswith("spinheat.")]
    probes = _probes(recorder)
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            rebind(package, value,
                   traced(recorder, name, value, probes.get(name)))
    propagator, cli = modules["propagator"], modules["cli"]
    if hasattr(propagator, "solve_ivp"):
        rebind(package, propagator.solve_ivp,
               _counting_solve_ivp(recorder, propagator.solve_ivp))
    if hasattr(cli, "ThreadPoolExecutor"):
        rebind(package, cli.ThreadPoolExecutor, _traced_pool(recorder))
    return recorder


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder):
    """Metrics of the recorded spans, keyed by metric name."""
    spans = recorder.spans
    own = self_times(spans)
    table = summarize(spans, own)
    metrics = dict(recorder.counters)
    for name, (calls, self_s) in table.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.self_s"] = sum(
            self_s for name, (_, self_s) in table.items()
            if name.startswith(layer + "."))
    # the cli layer counts only what runs inside main: set-up parses too
    metrics["cli.self_s"] = sum(
        own[id(span)] for span in spans
        if span.name.startswith("cli.") and descends_from(span, "cli.main"))
    stages = sum(2 if span.name == "engine.run_cycle" else 1
                 for span in spans
                 if span.name == "engine.run_cycle"
                 or (span.name == "engine.run_stage"
                     and not descends_from(span.parent, "engine.run_cycle")))
    metrics["engine.diag_per_stage"] = _ratio(
        metrics.get("propagator.diagonalize.calls", 0), stages)
    return metrics
