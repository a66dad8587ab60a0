"""The CSR record against ``scipy.sparse``, and the loader of its kernels.

Every operation of :class:`spinheat.csr.CSR` runs the kernel sequence of the
matching ``scipy.sparse.csr_array`` operation, so its ``data``, ``indices``
and ``indptr`` must equal scipy's exactly: on the COO entries and the
generators of both stages, and on random COO input with duplicates and
entries that cancel. The real generator that ``propagator._real_form``
scatters from those records must equal scipy's T V T^-1 up to rounding.
The loader must leave ``scipy/__init__`` and ``scipy/sparse/__init__``
unrun and share one kernel module with a ``scipy.sparse`` imported before
or after it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from reference import graph_components, hermitian_basis, scipy_csr

import spinheat
import spinheat.liouvillian as liouvillian_module
from spinheat.config import parse_config, to_engine_config
from spinheat.csr import KERNELS, from_coo
from spinheat.engine import (heat_extraction_stage, stage_machinery,
                             work_output_stage)
from spinheat.propagator import _real_form

SRC = os.path.dirname(os.path.dirname(spinheat.__file__))


def assert_same(record, reference):
    """The record holds scipy's arrays exactly, with scipy's dtypes."""
    assert record.shape == reference.shape
    assert record.nnz == reference.nnz
    for part in ("data", "indices", "indptr"):
        ours, theirs = getattr(record, part), getattr(reference, part)
        assert ours.dtype == theirs.dtype, part
        assert np.array_equal(ours, theirs), part


def generator_entries(monkeypatch, stage_id, n_levels):
    """The COO entries a stage generator is assembled from, and the
    generator."""
    entries = []

    def recording(*args):
        entries.append(args)
        return from_coo(*args)

    monkeypatch.setattr(liouvillian_module, "from_coo", recording)
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"n_levels={n_levels}"]))
    stage = (heat_extraction_stage(cfg) if stage_id == "heat_extraction"
             else work_output_stage(cfg))
    v = stage_machinery(stage, cfg)[1]
    (coo,) = entries
    return coo, v


def random_coo(seed, dim=40, size=900, dtype=complex, row_sorted=False):
    """COO entries with many duplicates, half of them cancelled exactly by
    an entry of opposite sign at the same place."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, dim, size)
    cols = rng.integers(0, dim // 2, size) * 2  # odd columns stay empty
    data = rng.standard_normal(size).astype(dtype)
    if dtype is complex:
        data += 1j * rng.standard_normal(size)
    half = size // 2
    rows, cols = np.concatenate((rows, rows[:half])), np.concatenate(
        (cols, cols[:half]))
    data = np.concatenate((data, -data[:half]))
    if row_sorted:
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
    return data, rows.astype(np.int32), cols.astype(np.int32), (dim, dim)


def scipy_from_coo(data, rows, cols, shape):
    # from 32-bit coordinates, as the record takes them
    coordinates = (rows.astype(np.int32), cols.astype(np.int32))
    return sp.csr_array((data, coordinates), shape=shape)


def check_operations(v):
    """Every record operation on a square complex generator ``v`` against
    scipy, through to the shifted real blocks that the Taylor steps read."""
    reference_v = scipy_csr(v)
    assert np.array_equal(v.toarray(), reference_v.toarray())
    w = _real_form(v)
    t, t_inv = hermitian_basis(round(v.shape[0]**0.5))
    reference = (t @ reference_v @ t_inv).real
    assert np.max(abs(scipy_csr(w) - reference)) <= 1e-15 * np.max(
        abs(w.data))
    assert np.all(w.data != 0)
    reference_w = scipy_csr(w)
    blocks = [(w, reference_w)] + [
        (w.submatrix(index), reference_w[index][:, index])
        for index in graph_components(w)]
    for block, reference_block in blocks[1:]:
        assert_same(block, reference_block)
    for block, reference_block in blocks:
        trace = block.trace()
        assert trace == reference_block.trace()
        mu = trace / block.shape[0]
        a = block.minus_identity(mu)
        reference_a = reference_block - mu * sp.eye_array(
            block.shape[0], format="csr")
        assert_same(a, reference_a)
        assert np.array_equal(a.abs_column_sums(),
                              abs(reference_a).sum(axis=0))


@pytest.mark.parametrize("n_levels", [3, 8, 15])
@pytest.mark.parametrize("stage_id", ["heat_extraction", "work_output"])
def test_generator_operations_match_scipy(monkeypatch, stage_id, n_levels):
    coo, v = generator_entries(monkeypatch, stage_id, n_levels)
    summed = from_coo(*coo)
    reference = scipy_from_coo(*coo)
    assert_same(summed, reference)
    reference.eliminate_zeros()
    assert_same(summed.eliminate_zeros(), reference)
    assert_same(v, reference)
    check_operations(v)


@pytest.mark.parametrize("row_sorted", [False, True],
                         ids=["unsorted", "row-sorted"])
@pytest.mark.parametrize("dtype", [complex, float])
def test_random_coo_operations_match_scipy(dtype, row_sorted):
    coo = random_coo(11, dtype=dtype, row_sorted=row_sorted)
    record = from_coo(*coo)
    reference = scipy_from_coo(*coo)
    assert_same(record, reference)
    assert np.any(record.data == 0)  # cancelled, not yet eliminated
    reference.eliminate_zeros()
    record = record.eliminate_zeros()
    assert_same(record, reference)
    index = np.flatnonzero(np.random.default_rng(13).random(40) < 0.6)
    assert_same(record.submatrix(index), reference[index][:, index])
    assert np.array_equal(record.toarray(), reference.toarray())


def test_random_complex_generator_operations_match_scipy():
    # a complex square record of dimension 6^2 through every operation,
    # made Hermiticity-preserving as V + S conj(V) S, S the swap of each
    # coordinate with its transpose partner, for _real_form to accept it
    data, rows, cols, shape = random_coo(21, dim=36)
    col, row = np.divmod(np.arange(36, dtype=np.int32), 6)
    partner = row * 6 + col
    hermitian = (np.concatenate((data, data.conj())),
                 np.concatenate((rows, partner[rows])),
                 np.concatenate((cols, partner[cols])), shape)
    check_operations(from_coo(*hermitian).eliminate_zeros())


def fresh(script, path=SRC):
    """The stdout lines of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


SCIPY_MODULES = ("sorted(name for name in sys.modules"
                 " if name.split('.')[0] == 'scipy')")
SCIPY_WORKS = ("a = scipy.sparse.csr_array(np.arange(9.0).reshape(3, 3))\n"
               "print((a @ a @ np.ones(3)).tolist())\n")


def test_cli_import_loads_only_the_kernel_module():
    lines = fresh(f"import sys, spinheat.cli\nprint({SCIPY_MODULES})\n")
    assert lines == [repr([KERNELS])]


@pytest.mark.parametrize("spinheat_first", [True, False],
                         ids=["spinheat-first", "scipy-first"])
def test_scipy_sparse_shares_the_kernel_module(spinheat_first):
    imports = ["import spinheat.cli, spinheat.csr",
               "import scipy.sparse"]
    if not spinheat_first:
        imports.reverse()
    lines = fresh("import sys\nimport numpy as np\n" + "\n".join(imports)
                  + f"\nmodule = sys.modules[{KERNELS!r}]\n"
                  "print(module is spinheat.csr._kernels,"
                  " module.csr_matvec is spinheat.csr.csr_matvec)\n"
                  + SCIPY_WORKS)
    assert lines == ["True True", "[54.0, 162.0, 270.0]"]


def test_missing_kernel_file_is_an_import_error_naming_it(tmp_path):
    # a scipy package without sparse/_sparsetools: the loader must not
    # fall back to importing scipy.sparse
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    lines = fresh(
        "try:\n"
        "    import spinheat.csr\n"
        "except ImportError as err:\n"
        "    print(err.path)\n"
        "    print(err)\n",
        path=os.pathsep.join((str(tmp_path), SRC)))
    missing = str(tmp_path / "scipy" / "sparse" / "_sparsetools")
    assert lines[0].startswith(missing)
    assert lines[0] in lines[1]
