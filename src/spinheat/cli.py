"""Command-line runner: single stages, full cycles, erasure studies, sweeps.

The CLI parses arguments, makes one library call per run kind, writes the
record it gets back and maps errors to exit codes. Each record builds its
own summary and CSV rows (``Trajectory``, ``CycleResult``,
``VerifiedErasure``), and one writer puts them out. Artifacts are
deterministic: identical configuration produces byte-identical CSV and
JSON output. Every file starts with a comment header listing the resolved
parameters, marking each as a default or a user override, so a run is
reproducible from its own header.

A sweep runs its points in the fork pool of :mod:`spinheat.pool`
(``--jobs`` caps its workers), and each worker writes its own points'
artifacts, so the output does not depend on the worker count: the index
entries and the rho_XX traces come back in point order. ``check`` calls
``invariant_checks``, which runs the grid points in the same pool.
"""

import argparse
import itertools
import json
import os
import sys

from . import __version__, blas_threads
from .config import (SWEEP_AXES, parse_axes, parse_config,
                     sweep_point_config, to_engine_config, to_erasure_inputs)
from .engine import (invariant_checks, run_cycle, run_stage1,
                     truncation_convergence)
from .errors import ConfigError, NumericalError, PositivityError
from .hyperfine import run_erasure
from .pool import pool_results

# The outcome of each error class the library raises: the status of a
# sweep point, and the exit code and stderr prefix of a run, that end in
# it. Any other error of a sweep point gives the status "error", and the
# sweep exit code 3.
_OUTCOMES = {ConfigError: ("config-error", 2, "config error"),
             PositivityError: ("positivity-abort", 4, "positivity abort"),
             NumericalError: ("numerical-error", 3, "numerical failure")}


def _format_value(value):
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path, run_config, columns, rows):
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# spinheat {__version__}\n# kind = {run_config.kind}\n")
        for name, value in run_config.values.items():
            handle.write(f"# {name} = {_format_value(value)}  "
                         f"[{run_config.provenance[name]}]\n")
        handle.write("# columns: " + ",".join(columns) + "\n")
        # "%.17g" formats a float as _format_value does, in one call per row
        float_row = ",".join(["%.17g"] * len(columns)) + "\n"
        for row in rows:
            if all([isinstance(v, float) for v in row]):
                handle.write(float_row % tuple(row))
            else:
                handle.write(",".join(_format_value(v) for v in row) + "\n")


def _write_summary(path, run_config, summary):
    """Write ``summary`` as JSON after the run's identification, parameters
    and provenance."""
    payload = {"tool": "spinheat", "version": __version__,
               "blas_threads": blas_threads(), "kind": run_config.kind,
               "parameters": dict(run_config.values),
               "provenance": dict(run_config.provenance), **summary}
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run(run_config):
    """The library record of a stage1, cycle or erasure run, and the
    summary it builds of itself."""
    if run_config.kind == "erasure":
        return run_erasure(*to_erasure_inputs(run_config))
    run = run_cycle if run_config.kind == "cycle" else run_stage1
    record = run(to_engine_config(run_config))
    return record, record.summary()


def _write_artifacts(out_dir, run_config, record, summary):
    """Write ``<kind>.csv`` of the record's rows and ``<kind>_summary.json``
    of its summary."""
    kind = run_config.kind
    _write_csv(os.path.join(out_dir, f"{kind}.csv"), run_config,
               record.columns, record.rows())
    _write_summary(os.path.join(out_dir, f"{kind}_summary.json"), run_config,
                   summary)


def _write_or_refuse(write, target, *args):
    """``write(target, *args)``, a write of the parent process to the file
    or directory ``target``. An OSError is a configuration error that
    names the file the error names, or ``target`` where the error names
    none (the file opened but its bytes did not land)."""
    try:
        write(target, *args)
    except OSError as err:
        raise ConfigError(
            f"cannot write {err.filename or target}: {err}") from None


def _sweep_point(run_config, entry, out_dir):
    """The index entry and rho_XX trace (None on an error, which the entry
    records) of one sweep point, written under ``out_dir``."""
    try:
        point_dir = os.path.join(out_dir, entry["directory"])
        os.makedirs(point_dir, exist_ok=True)
        point_config = sweep_point_config(run_config, entry["values"])
        traj, summary = _run(point_config)
        _write_artifacts(point_dir, point_config, traj, summary)
        return entry, traj.rho_XX
    except tuple(_OUTCOMES) as err:
        status, message = _OUTCOMES[type(err)][0], str(err)
    except Exception as err:
        # any other failure is recorded too, so that the remaining points
        # and the index are still written; the sweep then exits 3
        status, message = "error", f"{type(err).__name__}: {err}"
    return {**entry, "status": status, "message": message}, None


def _lost_point(entry, reason):
    """The ``error`` result of a sweep point whose worker died."""
    return {**entry, "status": "error",
            "message": f"sweep worker {reason}"}, None


def _sweep(run_config, args):
    axes = dict(parse_axes(args.axes))
    points = list(itertools.product(*axes.values()))
    starts = [{"index": index, "values": dict(zip(axes, combo)),
               "directory": f"point_{index:03d}", "status": "ok",
               "message": None} for index, combo in enumerate(points)]
    results = pool_results(
        lambda entry: _sweep_point(run_config, entry, args.out), starts,
        args.jobs, _lost_point)
    entries, traces = zip(*results)
    index = {"axes": axes, "points": entries,
             "convergence": truncation_convergence([*axes], points, traces)}
    index_path = os.path.join(args.out, "sweep_index.json")
    _write_or_refuse(_write_summary, index_path, run_config, index)
    ok = sum(entry["status"] == "ok" for entry in entries)
    print(f"sweep: {ok}/{len(entries)} points ok -> {args.out}")
    failed = [entry for entry in entries if entry["status"] == "error"]
    for entry in failed:
        print(f"sweep failure: {entry['directory']}: {entry['message']}",
              file=sys.stderr)
    return 3 if failed else 0


def _check_report(run_config):
    records = invariant_checks(to_engine_config(run_config))
    for record in records:
        status = "PASS" if record.passed else "FAIL"
        print(f"{record.label}: {record.name} = {record.value:.3e} "
              f"(tolerance {record.tolerance:g}) {status}")
    passed = sum(record.passed for record in records)
    print(f"check: {passed}/{len(records)} passed")
    return 0 if passed == len(records) else 3


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinheat",
        description="Quantum-dot spin-heat engine simulator.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (repeatable)")
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind, text in (
            ("stage1", "run the heat-extraction stage"),
            ("cycle", "run a full two-stage cycle"),
            ("erasure", "run one collective-erasure step with the exact "
                        "verifier"),
            ("sweep", "grid of stage-1 runs"),
            ("check", "run the superoperator invariant suite")):
        subparsers.add_parser(kind, parents=[common], help=text)
    sweep = subparsers.choices["sweep"]
    sweep.add_argument("--axis", metavar="KEY=V1,V2,...", action="append",
                       default=[], dest="axes",
                       help=f"sweep axis over one of {', '.join(SWEEP_AXES)} "
                            "(repeatable; product grid)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the sweep points, at "
                            "most one per usable CPU and per point; points "
                            "run inline where os.fork is missing (default 1)")
    return parser


def _dispatch(args):
    run_config = parse_config(args.kind, config_path=args.config,
                              overrides=args.overrides)
    if args.kind == "check":
        return _check_report(run_config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot use output directory {args.out}: {err}") from None
    if args.kind == "sweep":
        return _sweep(run_config, args)
    record, summary = _run(run_config)
    _write_or_refuse(_write_artifacts, args.out, run_config, record, summary)
    report = {
        "stage1": "stage1: peak rho_XX {trajectory[peak_rho_XX][value]:.4f} "
                  "at {trajectory[peak_rho_XX][time_ps]:.2f} ps",
        "cycle": "cycle: switch {switch[time_ps]:.2f} ps, final rho_dn "
                 "{final_populations[dn]:.4f}",
        "erasure": "erasure: up population {up_population[oracle]:.4f} "
                   "(floor {up_population[floor]:.4f})",
    }[args.kind]
    print(f"{report.format_map(summary)} -> {args.out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except tuple(_OUTCOMES) as err:
        _, code, prefix = _OUTCOMES[type(err)]
        print(f"{prefix}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
