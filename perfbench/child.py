"""One benchmark invocation: a fresh interpreter running one spinheat CLI call.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``src`` (the directory that
holds the ``spinheat`` package), ``result`` (where to write the timings)
and ``trace`` (record per-layer spans). The CLI's own output goes to this
process's stdout and stderr. The result file holds the monotonic clock
reading once ``spinheat.cli`` is imported and the config parsed, the wall
and CPU time of ``cli.main``, its exit code (or ``"uncaught exception"``),
the peak resident set size and, when tracing, the per-layer metrics.
"""

import json
import os
import resource
import sys
import time
import traceback


# Children are counted too, so that a process pool in the program would
# still show in the CPU time and peak memory.
def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_kb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import spinheat.cli as cli
    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(spec["src"]):
        raise SystemExit(f"spinheat imported from {package_dir}, "
                         f"not from {spec['src']}")
    recorder = None
    if spec["trace"]:
        from layers import instrument
        recorder = instrument()
    args = cli.build_parser().parse_args(spec["argv"])
    cli.parse_config(args.kind, config_path=args.config,
                     overrides=args.overrides)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception:  # an escaped error is a failed run, still timed
        traceback.print_exc()
        code = "uncaught exception"
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    sys.stdout.flush()

    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_kb": _peak_rss_kb(), "exit_code": code}
    if recorder is not None:
        from layers import layer_metrics
        result["layers"] = layer_metrics(recorder)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
