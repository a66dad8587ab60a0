"""Command-line runner: single stages, full cycles, erasure studies, sweeps.

The CLI parses arguments, calls the library, writes the records it gets
back and maps errors to exit codes. Each record builds its own summary
and CSV rows (``Trajectory``, ``CycleResult``, ``VerifiedErasure``), and
one writer puts them out. Artifacts are deterministic: identical
configuration produces byte-identical CSV and JSON output. Every file
starts with a comment header listing the resolved parameters, marking
each as a default or a user override, so a run is reproducible from its
own header.

A sweep runs its points, and ``check`` its four grid points, in the fork
pool of :mod:`spinheat.pool` (``--jobs`` caps a sweep's workers), so the
output does not depend on the worker count: a sweep's index entries and
rho_XX traces, and a check point's records. The first error of the check
points in grid order is raised, as an inline run would.
"""

import argparse
import itertools
import json
import os
import sys

from . import __version__, blas_threads
from .config import (SWEEP_AXES, parse_axes, parse_config,
                     sweep_point_config, to_engine_config, to_erasure_inputs)
from .engine import (CHECK_GRID, heat_extraction_stage, initial_state,
                     invariant_checks, run_cycle, run_stage,
                     truncation_convergence)
from .errors import ConfigError, NumericalError, PositivityError
from .hyperfine import pulse_feasibility, verified_erasure_step
from .pool import pool_results


def _format_value(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


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
    and provenance; return what was written."""
    payload = {"tool": "spinheat", "version": __version__,
               "blas_threads": blas_threads(), "kind": run_config.kind,
               "parameters": dict(run_config.values),
               "provenance": dict(run_config.provenance), **summary}
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _run(run_config):
    """The library record of a stage1, cycle or erasure run, and the
    summary it builds of itself."""
    v = run_config.values
    if run_config.kind == "erasure":
        profile, feasibility_pulse = to_erasure_inputs(run_config)
        step = verified_erasure_step(profile, v["pulse_duration_ps"])
        report = pulse_feasibility(feasibility_pulse, v["sigma_nm"],
                                   v["wire_radius_nm"], v["standoff_nm"])
        return step, step.summary(report, v["suppression_phi_tau_sigma"])
    cfg = to_engine_config(run_config)
    if run_config.kind == "cycle":
        record = run_cycle(cfg)
    else:
        record = run_stage(initial_state(cfg), heat_extraction_stage(cfg), cfg)
    return record, record.summary()


def _write_artifacts(run_config, out_dir, record, summary):
    """Write ``<kind>.csv`` of the record's rows and ``<kind>_summary.json``
    of its summary; return the summary as written."""
    kind = run_config.kind
    _write_csv(os.path.join(out_dir, f"{kind}.csv"), run_config,
               record.columns, record.rows())
    return _write_summary(os.path.join(out_dir, f"{kind}_summary.json"),
                          run_config, summary)


def _point_entry(index, values, status="ok", message=None):
    return {"index": index, "values": values,
            "directory": f"point_{index:03d}", "status": status,
            "message": message}


def _sweep_point(run_config, values, index, out_dir):
    entry = _point_entry(index, values)
    rho_XX = None
    try:
        point_dir = os.path.join(out_dir, entry["directory"])
        os.makedirs(point_dir, exist_ok=True)
        point_config = sweep_point_config(run_config, values)
        traj, summary = _run(point_config)
        _write_artifacts(point_config, point_dir, traj, summary)
        rho_XX = traj.rho_XX
    except ConfigError as err:
        entry.update(status="config-error", message=str(err))
    except PositivityError as err:
        entry.update(status="positivity-abort", message=str(err))
    except NumericalError as err:
        entry.update(status="numerical-error", message=str(err))
    except Exception as err:
        # any other failure is recorded too, so that the remaining points
        # and the index are still written; the sweep then exits 3
        entry.update(status="error", message=f"{type(err).__name__}: {err}")
    return entry, rho_XX


def _lost_point(task, reason):
    """The ``error`` result of a sweep point whose worker died."""
    _, values, index, _ = task
    return _point_entry(index, values, "error", f"sweep worker {reason}"), None


def _sweep(run_config, args):
    axes = parse_axes(args.axes)
    keys = [key for key, _ in axes]
    points = list(itertools.product(*[values for _, values in axes]))
    tasks = [(run_config, dict(zip(keys, combo)), index, args.out)
             for index, combo in enumerate(points)]
    results = pool_results(lambda task: _sweep_point(*task), tasks,
                           args.jobs, _lost_point)
    entries = [entry for entry, _ in results]
    _write_summary(os.path.join(args.out, "sweep_index.json"), run_config, {
        "axes": {key: list(values) for key, values in axes},
        "points": entries,
        "convergence": truncation_convergence(
            keys, points, [trace for _, trace in results])})
    ok = sum(entry["status"] == "ok" for entry in entries)
    print(f"sweep: {ok}/{len(entries)} points ok -> {args.out}")
    failed = [entry for entry in entries if entry["status"] == "error"]
    for entry in failed:
        print(f"sweep failure: {entry['directory']}: {entry['message']}",
              file=sys.stderr)
    return 3 if failed else 0


def _lost_check_point(task, reason):
    """The error that stands in for a check point whose worker died."""
    return NumericalError(f"check worker {reason}")


def _check_report(run_config, stream):
    cfg = to_engine_config(run_config)
    records = [record for point_records in pool_results(
        lambda point: invariant_checks(cfg, grid=(point,)), CHECK_GRID,
        len(CHECK_GRID), _lost_check_point) for record in point_records]
    for record in records:
        status = "PASS" if record.passed else "FAIL"
        stream.write(f"{record.label}: {record.name} = {record.value:.3e} "
                     f"(tolerance {record.tolerance:g}) {status}\n")
    passed = sum(record.passed for record in records)
    stream.write(f"check: {passed}/{len(records)} passed\n")
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
    subparsers.add_parser("stage1", parents=[common],
                          help="run the heat-extraction stage")
    subparsers.add_parser("cycle", parents=[common],
                          help="run a full two-stage cycle")
    subparsers.add_parser("erasure", parents=[common],
                          help="run one collective-erasure step with the "
                               "exact verifier")
    sweep = subparsers.add_parser("sweep", parents=[common],
                                  help="grid of stage-1 runs")
    sweep.add_argument("--axis", metavar="KEY=V1,V2,...", action="append",
                       default=[], dest="axes",
                       help=f"sweep axis over one of {', '.join(SWEEP_AXES)} "
                            "(repeatable; product grid)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the sweep points, at "
                            "most one per usable CPU and per point; points "
                            "run inline where os.fork is missing (default 1)")
    subparsers.add_parser("check", parents=[common],
                          help="run the superoperator invariant suite")
    return parser


def _dispatch(args):
    run_config = parse_config(args.kind, config_path=args.config,
                              overrides=args.overrides)
    if args.kind == "check":
        return _check_report(run_config, sys.stdout)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot use output directory {args.out}: {err}") from None
    if args.kind == "sweep":
        return _sweep(run_config, args)
    record, summary = _run(run_config)
    summary = _write_artifacts(run_config, args.out, record, summary)
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PositivityError as err:
        print(f"positivity abort: {err}", file=sys.stderr)
        return 4
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
