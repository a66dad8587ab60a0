"""Summarize benchmark runs across seeds, e.g. into a baseline file.

Usage: python3 perfbench/summarize.py [--out FILE] [--label TEXT] [RESULT...]

Each RESULT is a file that ``run.py`` wrote to ``.perfbench_out/results/``
(default: all of them). For every workload the end-to-end metrics of the
untraced runs are given as median and quartiles over the runs, with the
spread (third minus first quartile, as a share of the median) next to the
metric's bound in ``BENCHMARK.json``; the per-layer metrics of the traced
runs are given as medians. ``--out`` also writes the summary, with the
machine block of the first run, as JSON.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def summarize(paths, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    machine = None
    for path in paths:
        payload = json.loads(Path(path).read_text())
        detail, result = payload["detail"], payload["result"]
        machine = machine or detail["machine"]
        mode = "traced" if detail["trace"] else "untraced"
        runs.setdefault(detail["workload"], {}).setdefault(mode, []).append(
            (detail, result))
    workloads = {}
    for workload, modes in sorted(runs.items()):
        entry = {}
        for mode, items in modes.items():
            results = [result for _, result in items]
            block = {"runs": len(items),
                     "seeds": sorted(detail["seed"] for detail, _ in items),
                     "seconds": sorted({detail["seconds"]
                                        for detail, _ in items}),
                     "attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results),
                     "metrics": {}}
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                first, median, third = _quartiles(values)
                metric = {"unit": results[0]["metrics"][name]["unit"],
                          "median": median}
                if mode == "untraced":
                    metric.update(q1=first, q3=third,
                                  spread=(third - first) / median,
                                  bound=bounds.get(name))
                block["metrics"][name] = metric
            entry[mode] = block
        workloads[workload] = entry
    return {"machine": machine, "workloads": workloads}


def print_summary(summary):
    for workload, entry in summary["workloads"].items():
        for mode, block in entry.items():
            print(f"{workload} {mode}: {block['runs']} runs, "
                  f"{block['attempted']} invocations, {block['failed']} failed")
            for name, m in block["metrics"].items():
                line = f"  {name:<40} {m['median']:.6g} {m['unit']}"
                if "spread" in m:
                    line += (f"  quartiles {m['q1']:.6g}..{m['q3']:.6g}"
                             f"  spread {m['spread']:.4f}"
                             f" (bound {m['bound']})")
                print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    paths = args.results or sorted(
        (ROOT / ".perfbench_out" / "results").glob("*.json"))
    if not paths:
        print("summarize: no result files", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize(paths, spec)
    print_summary(summary)
    if args.out:
        summary = {"label": args.label, **summary}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
