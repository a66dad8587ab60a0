"""Command-line runner: single stages, full cycles, erasure studies, sweeps.

Artifacts are deterministic: identical configuration produces
byte-identical CSV and JSON output. Every file starts with a comment
header listing the resolved parameters, marking each as a default or a
user override, so a run is reproducible from its own header.
"""

import argparse
import dataclasses
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, blas_threads
from .config import (RunConfig, SWEEP_AXES, convert_value, parameter_table,
                     parse_config, split_assignment, to_engine_config,
                     to_erasure_inputs)
from .engine import (heat_extraction_stage, initial_state, invariant_checks,
                     run_cycle, run_stage, truncation_convergence)
from .errors import ConfigError, NumericalError, PositivityError
from .hyperfine import pulse_feasibility, verified_erasure_step

TRAJECTORY_COLUMNS = ("t_ps", "rho_up", "rho_dn", "rho_XX", "dN1", "Q1bar",
                      "min_eig")


def _format_value(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _header_lines(run_config):
    lines = [f"spinheat {__version__}", f"kind = {run_config.kind}"]
    for name, value in run_config.values.items():
        marker = run_config.provenance[name]
        lines.append(f"{name} = {_format_value(value)}  [{marker}]")
    return lines


def _write_csv(path, run_config, columns, rows):
    with open(path, "w", newline="\n") as handle:
        for line in _header_lines(run_config):
            handle.write(f"# {line}\n")
        handle.write("# columns: " + ",".join(columns) + "\n")
        # "%.17g" formats a float as _format_value does, in one call per row
        float_row = ",".join(["%.17g"] * len(columns)) + "\n"
        for row in rows:
            if all([isinstance(v, float) for v in row]):
                handle.write(float_row % tuple(row))
            else:
                handle.write(",".join(_format_value(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _summary_base(run_config):
    return {
        "tool": "spinheat",
        "version": __version__,
        "blas_threads": blas_threads(),
        "kind": run_config.kind,
        "parameters": dict(run_config.values),
        "provenance": dict(run_config.provenance),
    }


def _trajectory_rows(traj):
    return zip(traj.times, traj.rho_up, traj.rho_dn, traj.rho_XX, traj.dN1,
               traj.Q1bar, traj.min_eigenvalue)


def _trajectory_summary(traj):
    peak = int(np.argmax(traj.rho_XX))
    return {
        "rows": int(traj.times.size),
        "peak_rho_XX": {"value": float(traj.rho_XX[peak]),
                        "time_ps": float(traj.times[peak])},
        "dN1_at_peak": float(traj.dN1[peak]),
        "final": {"rho_up": float(traj.rho_up[-1]),
                  "rho_dn": float(traj.rho_dn[-1]),
                  "rho_XX": float(traj.rho_XX[-1])},
        "min_eigenvalue": float(np.min(traj.min_eigenvalue)),
        "used_dense_propagation": bool(traj.used_dense_propagation),
    }


def _stage1_artifacts(run_config, out_dir):
    cfg = to_engine_config(run_config)
    traj = run_stage(initial_state(cfg), heat_extraction_stage(cfg), cfg)
    _write_csv(os.path.join(out_dir, "stage1.csv"), run_config,
               TRAJECTORY_COLUMNS, _trajectory_rows(traj))
    summary = _summary_base(run_config)
    summary["trajectory"] = _trajectory_summary(traj)
    _write_json(os.path.join(out_dir, "stage1_summary.json"), summary)
    return summary, traj


def _cycle_artifacts(run_config, out_dir):
    cfg = to_engine_config(run_config)
    result = run_cycle(cfg)
    _write_csv(os.path.join(out_dir, "cycle.csv"), run_config,
               TRAJECTORY_COLUMNS, _trajectory_rows(result.trajectory))
    up, dn, exciton = result.electron_populations
    summary = _summary_base(run_config)
    summary["trajectory"] = _trajectory_summary(result.trajectory)
    summary["switch"] = {
        "time_ps": float(result.switch.time),
        "from_local_maximum": bool(result.switch.from_local_maximum),
    }
    summary["stage2_duration_ps"] = float(result.stage2_duration)
    summary["ledger"] = {
        "heat_meV": float(result.ledger.Q_heat),
        "work_meV": float(result.ledger.W_work),
        "spinlabor_hbar": float(result.ledger.spinlabor),
        "spintherm_hbar": float(result.ledger.spintherm),
        "transfer_probability": float(result.ledger.transfer_probability),
    }
    summary["final_populations"] = {"up": float(up), "dn": float(dn),
                                    "exciton": float(exciton)}
    _write_json(os.path.join(out_dir, "cycle_summary.json"), summary)
    return summary


def _erasure_artifacts(run_config, out_dir):
    v = run_config.values
    profile, feasibility_pulse = to_erasure_inputs(run_config)
    step = verified_erasure_step(profile, v["pulse_duration_ps"])
    report = pulse_feasibility(feasibility_pulse, v["sigma_nm"],
                               v["wire_radius_nm"], v["standoff_nm"])
    suppression = step.suppression
    branches = [dataclasses.asdict(branch) for branch in step.branches]
    summary = _summary_base(run_config)
    summary["gamma_rad2_per_ps2"] = float(profile.gamma)
    summary["flop_duration_ps"] = float(step.flop_duration)
    summary["suppression"] = {
        "phi_tau_sigma": float(v["suppression_phi_tau_sigma"]),
        "discrete_ratio": float(suppression.ratio),
        "continuum_ratio": float(abs(suppression.continuum) / profile.gamma),
    }
    summary["branches"] = branches
    summary["up_population"] = {
        "collective_map": float(step.up_population_map),
        "oracle": float(step.up_population_oracle),
        "floor": float(step.up_population_floor),
    }
    summary["feasibility"] = {key: float(val) for key, val in
                              dataclasses.asdict(report).items()}
    _write_csv(os.path.join(out_dir, "erasure.csv"), run_config,
               tuple(branches[0]), [tuple(b.values()) for b in branches])
    _write_json(os.path.join(out_dir, "erasure_summary.json"), summary)
    return summary


def _parse_axes(axis_args, table):
    axes = []
    seen = set()
    for text in axis_args:
        key, raw = split_assignment(text, "--axis")
        if key not in SWEEP_AXES:
            raise ConfigError(
                f"sweep axis must be one of {', '.join(SWEEP_AXES)}, got {key}")
        if key in seen:
            raise ConfigError(f"duplicate sweep axis {key}")
        seen.add(key)
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not items:
            raise ConfigError(f"--axis {key} lists no values")
        axes.append((key, [convert_value(table[key], item) for item in items]))
    return axes


def _sweep_point(run_config, keys, combo, index, out_dir):
    directory = f"point_{index:03d}"
    point_dir = os.path.join(out_dir, directory)
    overrides = dict(zip(keys, combo))
    values = dict(run_config.values)
    values.update(overrides)
    provenance = dict(run_config.provenance)
    provenance.update({key: "user" for key in overrides})
    point_config = RunConfig(kind="stage1", values=values,
                             provenance=provenance)
    entry = {"index": index, "values": overrides, "directory": directory,
             "status": "ok", "message": None}
    rho_XX = None
    try:
        os.makedirs(point_dir, exist_ok=True)
        _, traj = _stage1_artifacts(point_config, point_dir)
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


def _sweep_artifacts(run_config, axes, jobs, out_dir):
    keys = [key for key, _ in axes]
    points = list(itertools.product(*[values for _, values in axes]))
    if not points:
        points = [()]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_sweep_point, run_config, keys, combo, index,
                               out_dir)
                   for index, combo in enumerate(points)]
        results = [future.result() for future in futures]
    entries = [entry for entry, _ in results]
    traces = [trace for _, trace in results]
    index_payload = _summary_base(run_config)
    index_payload["axes"] = {key: list(values) for key, values in axes}
    index_payload["points"] = entries
    index_payload["convergence"] = truncation_convergence(keys, points,
                                                          traces)
    _write_json(os.path.join(out_dir, "sweep_index.json"), index_payload)
    return index_payload


def _check_report(run_config, stream):
    records = invariant_checks(to_engine_config(run_config))
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
                       help="concurrent sweep points (default 1)")
    subparsers.add_parser("check", parents=[common],
                          help="run the superoperator invariant suite")
    return parser


def _dispatch(args):
    run_config = parse_config(args.kind, config_path=args.config,
                              overrides=args.overrides)
    if args.kind == "check":
        return _check_report(run_config, sys.stdout)
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "stage1":
        summary, _ = _stage1_artifacts(run_config, args.out)
        peak = summary["trajectory"]["peak_rho_XX"]
        print(f"stage1: peak rho_XX {peak['value']:.4f} at "
              f"{peak['time_ps']:.2f} ps -> {args.out}")
    elif args.kind == "cycle":
        summary = _cycle_artifacts(run_config, args.out)
        print(f"cycle: switch {summary['switch']['time_ps']:.2f} ps, "
              f"final rho_dn {summary['final_populations']['dn']:.4f} "
              f"-> {args.out}")
    elif args.kind == "erasure":
        summary = _erasure_artifacts(run_config, args.out)
        up = summary["up_population"]
        print(f"erasure: up population {up['oracle']:.4f} "
              f"(floor {up['floor']:.4f}) -> {args.out}")
    elif args.kind == "sweep":
        axes = _parse_axes(args.axes, parameter_table("stage1"))
        payload = _sweep_artifacts(run_config, axes, args.jobs, args.out)
        ok = sum(1 for p in payload["points"] if p["status"] == "ok")
        print(f"sweep: {ok}/{len(payload['points'])} points ok -> {args.out}")
        failed = [p for p in payload["points"] if p["status"] == "error"]
        for point in failed:
            print(f"sweep failure: {point['directory']}: {point['message']}",
                  file=sys.stderr)
        if failed:
            return 3
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
