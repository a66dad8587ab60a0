"""Benchmark of the ``spinheat`` command line, end to end and per layer.

Usage, from the root of a checkout (numpy and scipy installed, the package
under ``src/``):

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``cycle``, ``sweep``, ``erasure`` and ``check``
(see ``workloads.py``), or ``all`` to run each in turn. The load is a
closed loop with one client: one CLI invocation at a time, each in a fresh
interpreter (``child.py``) that imports ``spinheat.cli``, parses the run's
config and calls ``spinheat.cli.main``. Invocations repeat until
``--seconds`` have passed (at least three of them).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the invocations: wall time and CPU time
of ``cli.main``, the child's peak resident set size, and set-up time from
interpreter start until ``spinheat.cli`` is imported and the config parsed.

With ``--trace 1`` each round runs the workload once untraced and once
with every layer wrapped in spans (``layers.py``), and the run reports the
per-layer metrics and the tracing overhead. For ``sweep`` a round also runs
the grid at ``--jobs 1``, untraced for the speed-up and traced for the
layer metrics. The span arithmetic is self-tested first.

Every invocation's output is checked (``workloads.py``) and compared byte
for byte with the first invocation of the run; an invocation that exits
non-zero or fails either check counts as failed. The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details, including the machine
block. Both are also written to ``.perfbench_out/results/``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SWEEP_JOBS, WORKLOADS, sweep_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
MIN_ROUNDS = {False: 3, True: 1}
RUN_LIMIT_S = 170  # a run ends within this many seconds of its start
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


class NoMeasurement(Exception):
    """No invocation of a run got as far as timing ``cli.main``."""


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads():
    """Thread count of each OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def _proc_field(path, field):
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_block():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if any)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "memory": _proc_field("/proc/meminfo", "MemTotal"),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": _blas_threads()},
        "thread_env": {key: value for key, value in os.environ.items()
                       if key.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _artifacts(out_dir, stdout):
    """Bytes of each file the CLI wrote; its report if it wrote none."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files or {"<stdout>": stdout.encode()}


def _trajectory_rows(files):
    """Data rows of the trajectory CSVs (those whose first column is t_ps)."""
    rows = 0
    for data in files.values():
        lines = data.decode().splitlines()
        if any(line.startswith("# columns: t_ps,") for line in lines):
            rows += sum(1 for line in lines if not line.startswith("#"))
    return rows


def invoke(argv, work, trace, deadline):
    """Run one CLI invocation in a fresh interpreter and check its output."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"argv": argv + ["--out", str(out_dir)], "src": str(SRC),
            "trace": trace, "result": str(result_path)}
    record = {"argv": argv, "trace": trace, "problems": []}
    start = monotonic()
    with open(work / "stdout.txt", "w") as stdout, \
            open(work / "stderr.txt", "w") as stderr:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)], cwd=work,
                stdout=stdout, stderr=stderr,
                timeout=max(1.0, deadline - start))
            status = proc.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
            record["timed_out"] = True
    record["elapsed_s"] = monotonic() - start
    report = (work / "stdout.txt").read_text()
    if status != 0 or not result_path.is_file():
        errors = (work / "stderr.txt").read_text().strip().splitlines()
        record["problems"].append(
            f"child ended with {status}: {' | '.join(errors[-3:])}")
        return record
    result = json.loads(result_path.read_text())
    record.update(setup_s=result["ready"] - start, wall_s=result["wall_s"],
                  cpu_s=result["cpu_s"],
                  peak_rss_mb=result["peak_rss_kb"] / 1024,
                  exit_code=result["exit_code"],
                  layers=result.get("layers"))
    if result["exit_code"] != 0:
        record["problems"].append(f"spinheat exited {result['exit_code']}")
        return record
    files = _artifacts(out_dir, report)
    record["digest"] = {name: hashlib.sha256(data).hexdigest()
                        for name, data in files.items()}
    record["artifact_bytes"] = sum(len(data) for data in files.values())
    record["trajectory_rows"] = _trajectory_rows(files)
    try:
        record["problems"].extend(WORKLOADS[argv[0]][1](out_dir, report))
    except (OSError, KeyError, TypeError, ValueError) as err:
        record["problems"].append(f"unreadable output: {err!r}")
    return record


def _plan(workload, seed, trace):
    argv = WORKLOADS[workload][0](seed)
    if not trace:
        return [(argv, False)]
    if workload == "sweep":
        return [(argv, False), (sweep_argv(seed, 1), False),
                (sweep_argv(seed, 1), True)]
    return [(argv, False), (argv, True)]


def run_rounds(plan, seconds, trace, work, started):
    """Repeat the plan's invocations until ``seconds`` have passed."""
    deadline = monotonic() + seconds
    hard_deadline = started + RUN_LIMIT_S
    records, round_times = [], []
    while True:
        now = monotonic()
        if len(round_times) >= MIN_ROUNDS[trace] and (
                now + statistics.median(round_times) > deadline):
            break
        if round_times and now + max(round_times) > hard_deadline:
            break
        for argv, traced in plan:
            records.append(invoke(argv, work, traced, hard_deadline))
        round_times.append(monotonic() - now)
        if any(r.get("timed_out") for r in records):
            break
    # an invocation must reproduce the first one's artifacts byte for byte
    reference = next((r["digest"] for r in records if "digest" in r), None)
    for record in records:
        if "digest" in record and record["digest"] != reference:
            changed = sorted(name for name in set(record["digest"])
                             | set(reference)
                             if record["digest"].get(name)
                             != reference.get(name))
            record["problems"].append(
                f"artifacts differ from the first invocation: {changed}")
    return records


def tail(values):
    """Highest percentile with TAIL_SAMPLES samples beyond it, if any."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return {"percentile": 100 * (n - TAIL_SAMPLES) / n,
            "value": ordered[n - TAIL_SAMPLES - 1]}


def end_to_end(records):
    measured = [r for r in records if "wall_s" in r]
    summary = {}
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        values = [r[name] for r in measured]
        summary[name] = {"median": statistics.median(values),
                         "samples": len(values), "tail": tail(values),
                         "values": values}
    return summary


def _median_wall(records, argv, traced):
    values = [r["wall_s"] for r in records
              if r["argv"] == argv and r["trace"] == traced and "wall_s" in r]
    return statistics.median(values) if values else None


def per_layer(records, plan, names):
    """Medians over the traced invocations; 0 where a layer did not run."""
    rows = []
    for record in records:
        if not (record["trace"] and record.get("layers")
                and "artifact_bytes" in record):
            continue
        layers = dict(record["layers"])
        propagate_calls = layers.get("propagator.propagate.calls", 0)
        layers["engine.rows_per_propagate"] = (
            record["trajectory_rows"] / propagate_calls
            if propagate_calls else 0.0)
        layers["cli.artifact_bytes"] = record["artifact_bytes"]
        rows.append(layers)
    metrics = {name: statistics.median(row.get(name, 0) for row in rows)
               for name in names if rows}
    traced_argv = next(argv for argv, traced in plan if traced)
    traced_wall = _median_wall(records, traced_argv, True)
    plain_wall = _median_wall(records, traced_argv, False)
    if traced_wall is not None and plain_wall is not None:
        metrics["trace.overhead_s"] = traced_wall - plain_wall
    if plan[0][0][0] == "sweep":
        jobs_1 = _median_wall(records, plan[1][0], False)
        jobs_n = _median_wall(records, plan[0][0], False)
        if jobs_1 is not None and jobs_n is not None:
            metrics["cli.sweep.speedup"] = jobs_1 / jobs_n
            metrics["cli.sweep.parallel_efficiency"] = (
                jobs_1 / jobs_n / SWEEP_JOBS)
    return {name: metrics.get(name, 0) for name in names}


def run_workload(workload, seed, seconds, trace, spec, machine):
    started = monotonic()
    plan = _plan(workload, seed, trace)
    work = ROOT / ".perfbench_out" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        records = run_rounds(plan, seconds, trace, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in records if r["problems"])
    untraced = [r for r in records if not r["trace"] and r["argv"] == plan[0][0]]
    if not any("wall_s" in r for r in untraced):
        raise NoMeasurement(f"{workload}: no invocation completed: "
                           f"{records[0]['problems']}")
    timings = end_to_end(untraced)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(records, plan, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {name: timings[name]["median"] for name in names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine,
        "inputs": [argv for argv, _ in plan],
        "end_to_end": timings,
        "invocations": [{key: value for key, value in r.items()
                         if key not in ("digest", "layers")}
                        for r in records],
        "problems": [p for r in records for p in r["problems"]],
    }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return detail, result


def print_table(detail, result):
    print(f"{detail['workload']} seed={detail['seed']} "
          f"trace={int(detail['trace'])}: {result['attempted']} invocations, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        line = f"  {name:<40} {metric['value']:.6g} {metric['unit']}"
        timing = detail["end_to_end"].get(name)
        if timing is not None:
            spread = (f"tail p{timing['tail']['percentile']:.0f} "
                      f"{timing['tail']['value']:.6g}" if timing["tail"]
                      else f"no tail percentile below {TAIL_SAMPLES + 1} "
                           "samples")
            line += f"  (median of {timing['samples']}; {spread})"
        print(line)
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinheat" / "cli.py").is_file():
        print(f"perfbench: no spinheat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        import selftest
        selftest.run_all()
    machine = machine_block()
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            detail, result = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace), spec, machine)
        except NoMeasurement as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        print_table(detail, result)
        results_dir = ROOT / ".perfbench_out" / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        (results_dir / f"{stem}.json").write_text(
            json.dumps({"detail": detail, "result": result}, indent=1))
        results[workload] = (detail, result)
    if len(workloads) == 1:
        detail, result = results[workloads[0]]
    else:
        detail = {name: d for name, (d, _) in results.items()}
        result = {
            "correct": all(r["correct"] for _, r in results.values()),
            "attempted": sum(r["attempted"] for _, r in results.values()),
            "failed": sum(r["failed"] for _, r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, (_, r) in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
