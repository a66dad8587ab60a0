"""The four benchmark workloads: CLI inputs made from a seed, and output checks.

Each workload is one ``spinheat`` run kind. ``argv(seed)`` gives the CLI
arguments (without ``--out``); ``check(out_dir, stdout)`` returns a
list of problems with the run's output, empty when it is correct.

The sizes are chosen so one invocation takes about two seconds on two
cores and one run of the benchmark collects ten or more of them: the
timings of single invocations on a shared machine scatter by about ten
percent, and only the median of many stays put. So ``cycle`` runs at
``n_levels=8`` (superoperator 576 x 576) rather than the reference 15,
``sweep`` on ``n_levels`` 5 and 7, ``erasure`` on 9 nuclei (oracle on
1024 states) and ``check`` at ``n_levels=6`` rather than its default 8.
Each still runs the code paths it is here for.
"""

import json
import math
import os
import random

CYCLE_LEVELS = 8
# cycle_summary.json of the seed code at n_levels=8, default otherwise
CYCLE_REFERENCE = {
    ("switch", "time_ps"): 9.75,
    ("trajectory", "peak_rho_XX", "value"): 0.47717140410715075,
    ("ledger", "transfer_probability"): 0.4646120998850716,
    ("final_populations", "up"): 0.5204801838925643,
    ("final_populations", "dn"): 0.46461209988507174,
    ("final_populations", "exciton"): 0.014907716222359127,
}
CYCLE_TOLERANCE = 1e-8
SWEEP_LEVELS = (5, 7)
SWEEP_TEMPERATURE_K = (60.0, 150.0)
SWEEP_JOBS = 2
ERASURE_NUCLEI = 9
ERASURE_JITTER_NM = 0.2
FIDELITY_FLOOR = 1 - 1e-9
CHECK_LEVELS = 6
CHECK_VERDICT = "check: 16/16 passed"


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


def _lookup(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def cycle_argv(seed):
    # the reference cycle has no random input: the seed does not apply
    return ["cycle", "--set", f"n_levels={CYCLE_LEVELS}"]


def cycle_check(out_dir, stdout):
    summary = _load(out_dir, "cycle_summary.json")
    problems = []
    for path, expected in CYCLE_REFERENCE.items():
        value = _lookup(summary, path)
        if not abs(value - expected) <= CYCLE_TOLERANCE:
            problems.append(f"{'.'.join(path)} = {value!r}, "
                            f"reference {expected!r}")
    ledger = summary["ledger"]
    if ledger["work_meV"] != ledger["heat_meV"]:
        problems.append("ledger W != Q")
    if ledger["spinlabor_hbar"] != -ledger["spintherm_hbar"]:
        problems.append("ledger spinlabor != -spintherm")
    return problems


def sweep_temperatures(seed):
    rng = random.Random(f"sweep-{seed}")
    low, high = SWEEP_TEMPERATURE_K
    first = round(rng.uniform(low, high), 1)
    second = first
    while second == first:
        second = round(rng.uniform(low, high), 1)
    return sorted((first, second))


def sweep_argv(seed, jobs=SWEEP_JOBS):
    levels = ",".join(str(n) for n in SWEEP_LEVELS)
    temperatures = ",".join(f"{t:g}" for t in sweep_temperatures(seed))
    return ["sweep", "--jobs", str(jobs), "--axis", f"n_levels={levels}",
            "--axis", f"temperature_K={temperatures}"]


def sweep_check(out_dir, stdout):
    points = _load(out_dir, "sweep_index.json")["points"]
    expected = len(SWEEP_LEVELS) * len(SWEEP_TEMPERATURE_K)
    problems = [f"point {p['index']}: {p['status']} {p['message']}"
                for p in points if p["status"] != "ok"]
    if len(points) != expected:
        problems.append(f"{len(points)} points, expected {expected}")
    return problems


def erasure_argv(seed):
    lattice_seed = random.Random(f"erasure-{seed}").randrange(2**31)
    return ["erasure", "--set", f"nucleus_count={ERASURE_NUCLEI}",
            "--set", f"lattice_jitter_nm={ERASURE_JITTER_NM}",
            "--set", f"seed={lattice_seed}"]


def erasure_check(out_dir, stdout):
    summary = _load(out_dir, "erasure_summary.json")
    problems = [f"branch {b['branch']}: fidelity {b['fidelity']!r}"
                for b in summary["branches"]
                if not b["fidelity"] >= FIDELITY_FLOOR]
    up = summary["up_population"]
    if not (math.isfinite(up["oracle"]) and up["oracle"] >= up["floor"]):
        problems.append(f"oracle up population {up['oracle']!r} "
                        f"below floor {up['floor']!r}")
    return problems


def check_argv(seed):
    # the invariant suite has fixed parameter sets: the seed does not apply
    return ["check", "--set", f"n_levels={CHECK_LEVELS}"]


def check_check(out_dir, stdout):
    if CHECK_VERDICT not in stdout.splitlines():
        return [f"no '{CHECK_VERDICT}' line in the report"]
    return []


WORKLOADS = {
    "cycle": (cycle_argv, cycle_check),
    "sweep": (sweep_argv, sweep_check),
    "erasure": (erasure_argv, erasure_check),
    "check": (check_argv, check_check),
}
