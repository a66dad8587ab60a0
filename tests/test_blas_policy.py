"""The process-wide BLAS thread policy.

Importing ``spinheat`` sets numpy's OpenBLAS to one thread, so the dense
kernels (the expm steps, the oracle's eig and inv) give bits that do not
depend on ``OPENBLAS_NUM_THREADS``; numpy loaded by ``import spinheat``
starts OpenBLAS on one thread whatever the variable says. Each test runs
fresh interpreters, one at a time: OpenBLAS reads the variable only when
it starts.
"""

import json
import os
import subprocess
import sys

import pytest

import spinheat

SRC = os.path.dirname(os.path.dirname(spinheat.__file__))
# numpy's OpenBLAS thread count, read without spinheat's own getter
OPENBLAS_THREADS = (
    "import ctypes\n"
    "from numpy._core import _multiarray_umath\n"
    "threads = ctypes.CDLL(_multiarray_umath.__file__)"
    ".scipy_openblas_get_num_threads64_\n")


def fresh(script, threads=None, *args):
    """The stdout of ``script`` run in a fresh interpreter, with
    ``OPENBLAS_NUM_THREADS`` set to ``threads`` or, for None, unset."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_sets_one_thread_and_loads_only_the_kernel_module():
    lines = fresh(OPENBLAS_THREADS + "import sys, spinheat.cli\n"
                  "print(threads(), spinheat.blas_threads())\n"
                  "print(sorted(name for name in sys.modules"
                  " if name.split('.')[0] == 'scipy'))\n",
                  "2").splitlines()
    assert lines == ["1 1", "['scipy.sparse._sparsetools']"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count threads in")
@pytest.mark.parametrize("threads", [None, "2", "4"])
def test_import_starts_no_openblas_worker_and_restores_the_variable(
        threads):
    # spinheat imported first: numpy's OpenBLAS loads on one thread
    lines = fresh("import os, spinheat.cli\n"
                  "print(len(os.listdir('/proc/self/task')))\n"
                  "print(spinheat.blas_threads())\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n",
                  threads).splitlines()
    assert lines == ["1", "1", str(threads)]


def test_missing_thread_symbol_is_an_import_error_naming_it():
    # no fallback: a numpy whose OpenBLAS lacks the setter is refused
    lines = fresh("import ctypes\n"
                  "ctypes.CDLL = lambda path: object()\n"
                  "try:\n"
                  "    import spinheat\n"
                  "except ImportError as err:\n"
                  "    print(err)\n").splitlines()
    assert len(lines) == 1
    assert "scipy_openblas_set_num_threads64_" in lines[0]


# dense stage1 (n_levels=8, gamma_ph 3 meV), the check report at n_levels 6
# and 8 (the oracle's eig) and a dense two-point sweep; the sweep's --jobs
# is the script's second argument
DENSE_RUNS = """\
import contextlib, io, pathlib, sys
from spinheat.cli import main
out, jobs = pathlib.Path(sys.argv[1]), sys.argv[2]
def run(argv):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert main(argv) == 0
    return stream.getvalue()
for n_levels in (6, 8):
    print(run(["check", "--set", f"n_levels={n_levels}"]), end="")
run(["stage1", "--out", str(out / "stage1"), "--set", "n_levels=8",
     "--set", "gamma_ph_meV=3"])
run(["sweep", "--out", str(out / "sweep"), "--jobs", jobs,
     "--set", "n_levels=8", "--axis", "gamma_ph_meV=1,3"])
"""


def artifacts(out):
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_dense_outputs_do_not_depend_on_openblas_num_threads(tmp_path):
    # the variable unset, 1 and 2, the sweep at --jobs 2, 1 and 2
    outputs = []
    for threads, jobs in ((None, "2"), ("1", "1"), ("2", "2")):
        out = tmp_path / f"threads-{threads}"
        report = fresh(DENSE_RUNS, threads, str(out), jobs)
        assert report.splitlines()[-1] == "check: 16/16 passed"
        outputs.append((report, artifacts(out)))
    report, files = outputs[0]
    assert len(files) == 7  # stage1, two sweep points, the sweep index
    for name in ("stage1/stage1_summary.json", "sweep/sweep_index.json"):
        assert json.loads(files[name])["blas_threads"] == 1
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
