"""Committed output reference: the artifacts of six dot-dynamics runs and
two erasure runs, regenerated in process and compared with
``tests/output_reference.json``.

The runs are ``cycle`` at n_levels 8 and 15, a ``cycle`` whose long work
pulse (n_levels=6, hbar_omega2 1 meV) takes Taylor steps after a
dense-stepped stage 1, a dense-stepped ``stage1`` (n_levels=8, gamma_ph
3 meV), the benchmark-shaped sweep (n_levels 5 and 7 x 60 and 150 K,
``--jobs 1``), the ``check`` records at n_levels=6, the default
``erasure`` and the benchmark-shaped one (9 nuclei, jittered lattice,
fixed seed). Every summary value and every 10th CSV row is compared,
column by column. A value must equal the reference bit for bit, except in
the columns and summary values fed by BLAS and LAPACK kernels (BLAS_FED),
whose bits may depend on the CPU kernel OpenBLAS picks: there it may move
by at most BLAS_TOLERANCE. Times, row counts, the switch time, the
work-pulse duration, flags, statuses and tolerances stay exact.

Regenerate the reference after a change that is meant to move outputs:

    PYTHONPATH=src python tests/test_output_reference.py
"""

import json
import math
import pathlib
import tempfile

import pytest

from spinheat.cli import main
from spinheat.config import parse_config, to_engine_config
from spinheat.engine import invariant_checks

REFERENCE = pathlib.Path(__file__).with_name("output_reference.json")

RUNS = {
    "cycle_8": ["cycle", "--set", "n_levels=8"],
    "cycle_15": ["cycle", "--set", "n_levels=15"],
    "cycle_long_pulse": ["cycle", "--set", "n_levels=6",
                         "--set", "hbar_omega2_meV=1.0"],
    "stage1_dense_8": ["stage1", "--set", "n_levels=8",
                       "--set", "gamma_ph_meV=3"],
    "sweep": ["sweep", "--jobs", "1", "--axis", "n_levels=5,7",
              "--axis", "temperature_K=60,150"],
    "erasure": ["erasure"],
    "erasure_jittered_9": ["erasure", "--set", "nucleus_count=9",
                           "--set", "lattice_jitter_nm=0.2",
                           "--set", "seed=1234"],
}
CHECK_LEVELS = 6
ROW_STRIDE = 10
# Leaf names of the values read from stepped coordinates (Taylor steps end
# in a matrix product, dense steps in expm and matrix-vector products, the
# check's oracle in eig) through the functionals' matrix product or
# eigvalsh: the CSV columns other than t_ps, the summary values made from
# them (``value`` is peak_rho_XX's) and the check records' values; and
# the erasure values read from the sector oracle's eigh (``oracle`` is the
# summary's up population)
BLAS_FED = {
    "rho_up", "rho_dn", "rho_XX", "dN1", "Q1bar", "min_eig", "value",
    "dN1_at_peak", "min_eigenvalue", "heat_meV", "work_meV",
    "spinlabor_hbar", "spintherm_hbar", "transfer_probability", "up", "dn",
    "exciton", "max_rho_XX_drift", "check_value", "fidelity",
    "up_population_oracle", "oracle",
}
BLAS_TOLERANCE = 1e-13
# run inputs and identification, not outputs
SKIPPED_KEYS = {"parameters", "provenance", "tool", "version", "axes"}


def _flatten(payload, prefix=""):
    """Leaves of a JSON value as {dotted path: value}."""
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = ((str(i), v) for i, v in enumerate(payload))
    else:
        return {prefix: payload}
    flat = {}
    for key, value in items:
        if not prefix and key in SKIPPED_KEYS:
            continue
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return flat


def _cell(text):
    """A CSV cell as a float, or as its text where it holds none (the
    erasure branch names)."""
    try:
        return float(text)
    except ValueError:
        return text


def _csv_values(path):
    """Every ROW_STRIDE-th data row of a CSV artifact as {row.column:
    value}, and its row count."""
    lines = path.read_text().splitlines()
    columns = next(line for line in lines if line.startswith("# columns: "))
    names = columns.removeprefix("# columns: ").split(",")
    rows = [line for line in lines if not line.startswith("#")]
    values = {"rows": len(rows)}
    for number in range(0, len(rows), ROW_STRIDE):
        for name, cell in zip(names, rows[number].split(",")):
            values[f"{number}.{name}"] = _cell(cell)
    return values


def run_outputs(name, out_dir):
    """The outputs of one run of RUNS, its artifacts written under
    ``out_dir``, by artifact and dotted key."""
    out_dir = pathlib.Path(out_dir)
    assert main(RUNS[name] + ["--out", str(out_dir)]) == 0
    outputs = {}
    for path in sorted(out_dir.rglob("*.*")):
        key = path.relative_to(out_dir).as_posix()
        outputs[key] = (_csv_values(path) if path.suffix == ".csv"
                        else _flatten(json.loads(path.read_text())))
    return outputs


def check_outputs():
    """The check records at n_levels=CHECK_LEVELS, by label and name."""
    cfg = to_engine_config(parse_config(
        "check", overrides=[f"n_levels={CHECK_LEVELS}"]))
    return {f"{r.label} {r.name}": {"check_value": r.value,
                                    "tolerance": r.tolerance,
                                    "passed": r.passed}
            for r in invariant_checks(cfg)}


def check_mismatches(got, expected):
    """Where check records ``got`` differ from the reference ``expected``,
    both {label name: record}: each record's fields are compared as
    leaves, so that its value gets BLAS_TOLERANCE and its tolerance and
    verdict stay exact."""
    return mismatches({"check": _flatten(got)}, {"check": _flatten(expected)})


def mismatches(got, expected):
    """Where ``got`` differs from the reference ``expected``, both
    {artifact: {dotted key: value}}."""
    if sorted(got) != sorted(expected):
        return [f"artifacts {sorted(got)} against {sorted(expected)}"]
    problems = []
    for artifact, values in expected.items():
        if sorted(got[artifact]) != sorted(values):
            problems.append(f"{artifact}: keys differ from the reference")
            continue
        for key, want in values.items():
            value = got[artifact][key]
            bound = (BLAS_TOLERANCE if key.rpartition(".")[2] in BLAS_FED
                     else 0.0)
            if type(value) is not type(want) or not (
                    value == want
                    or isinstance(want, float) and abs(value - want) <= bound):
                problems.append(f"{artifact} {key}: {value!r} against "
                                f"{want!r} (tolerance {bound:g})")
    return problems


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_the_committed_reference(name, reference, tmp_path,
                                                 capsys):
    got = run_outputs(name, tmp_path)
    capsys.readouterr()
    assert mismatches(got, reference[name]) == []


def test_check_records_match_the_committed_reference(reference):
    got = check_outputs()
    assert len(got) == 16
    assert check_mismatches(got, reference["check"]) == []


def test_mismatches_hold_exact_values_and_bound_blas_fed_ones():
    expected = {"a.csv": {"0.t_ps": 0.5, "0.rho_XX": 0.25, "rows": 3}}
    moved = {"a.csv": {"0.t_ps": 0.5, "0.rho_XX": 0.25 + 1e-14, "rows": 3}}
    assert mismatches(moved, expected) == []
    moved["a.csv"]["0.rho_XX"] = 0.25 + 1e-12
    assert len(mismatches(moved, expected)) == 1
    moved["a.csv"].update({"0.rho_XX": 0.25,
                           "0.t_ps": math.nextafter(0.5, 1.0)})
    assert len(mismatches(moved, expected)) == 1
    moved["a.csv"].update({"0.t_ps": 0.5, "rows": 3.0})
    assert len(mismatches(moved, expected)) == 1
    status = {"i.json": {"points.0.status": "ok"}}
    assert len(mismatches({"i.json": {"points.0.status": "error"}},
                          status)) == 1
    record = {"check_value": 1.5e-15, "tolerance": 1e-10, "passed": True}
    records = {"T=60K gamma_ph=0.001meV trace_annihilation": record}
    moved = {key: dict(value, check_value=value["check_value"] + 1e-14)
             for key, value in records.items()}
    assert check_mismatches(moved, records) == []
    moved = {key: dict(value, passed=False) for key, value in records.items()}
    assert len(check_mismatches(moved, records)) == 1


def regenerate():
    outputs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out_dir:
            outputs[name] = run_outputs(name, out_dir)
    outputs["check"] = check_outputs()
    with open(REFERENCE, "w", newline="\n") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    regenerate()
