"""Compressed sparse row (CSR) matrices on scipy's compiled kernels.

The generators are stored in CSR form and worked on by the C++ kernels of
scipy's ``sparse/_sparsetools`` extension. The one product is a record
times a vector, which the Taylor steps make by calling ``csr_matvec``
directly; no record is multiplied from the left, nor by another record.
``import scipy.sparse`` would also run ``scipy/__init__`` and
``scipy/sparse/__init__``, about 0.25 s of imports (``numpy.f2py`` and
``numpy.testing`` among them) that nothing here uses, so the extension is
loaded from its file alone and registered under its own module name,
where a later ``import scipy.sparse`` finds and shares it. :class:`CSR`
holds only the operations the package runs, each the kernel sequence that
the same ``scipy.sparse.csr_array`` operation runs, so both give the same
bits. Indices are 32-bit, as scipy picks them at these
sizes: n_levels <= 60 bounds every generator's dimension by 180^2, so its
entries number below 180^4 < 2^31.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

KERNELS = "scipy.sparse._sparsetools"


def _load_kernels():
    """``scipy.sparse._sparsetools``: the module scipy.sparse loaded, if it
    did, else the extension loaded from its file and registered."""
    if KERNELS in sys.modules:
        return sys.modules[KERNELS]
    scipy = importlib.util.find_spec("scipy")  # finds, does not import
    if scipy is None:
        raise ImportError("spinheat needs scipy", name="scipy")
    path = os.path.join(scipy.submodule_search_locations[0], "sparse",
                        "_sparsetools" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's CSR kernels are not at {path}",
                          name=KERNELS, path=path)
    loader = ExtensionFileLoader(KERNELS, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(KERNELS, path, loader=loader))
    loader.exec_module(module)
    sys.modules[KERNELS] = module
    return module


_kernels = _load_kernels()
csr_matvec = _kernels.csr_matvec


def _output(rows, size, dtype):
    """Empty indptr, indices and data for a kernel to fill."""
    return (np.empty(rows + 1, np.int32), np.empty(size, np.int32),
            np.empty(size, dtype))


def _canonical(indptr, indices, data, shape):
    """The record with sorted indices and summed duplicates, made as
    scipy's ``sum_duplicates`` makes it: the sort runs only when some row
    is unsorted, the sum only when some row is not canonical."""
    if not _kernels.csr_has_canonical_format(shape[0], indptr, indices):
        if not _kernels.csr_has_sorted_indices(shape[0], indptr, indices):
            _kernels.csr_sort_indices(shape[0], indptr, indices, data)
        _kernels.csr_sum_duplicates(*shape, indptr, indices, data)
    return CSR(indptr, indices, data, shape)


def from_coo(data, rows, cols, shape):
    """The CSR record of COO entries, duplicates summed, as
    ``scipy.sparse.csr_array((data, (rows, cols)), shape)`` builds it from
    32-bit ``rows`` and ``cols``."""
    out = _output(shape[0], data.size, data.dtype)
    _kernels.coo_tocsr(*shape, data.size, rows.astype(np.int32, copy=False),
                       cols.astype(np.int32, copy=False), data, *out)
    return _canonical(*out, shape)


class CSR:
    """A sparse matrix as CSR arrays ``indptr``, ``indices`` and ``data``
    (the kernels' argument order), which no operation below changes in
    place."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape):
        nnz = indptr[-1]  # kernel outputs may run past nnz
        self.indptr, self.shape = indptr, tuple(shape)
        self.indices, self.data = indices[:nnz], data[:nnz]

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def eliminate_zeros(self):
        """The same matrix without its explicitly stored zeros."""
        arrays = self.indptr.copy(), self.indices.copy(), self.data.copy()
        _kernels.csr_eliminate_zeros(*self.shape, *arrays)
        return CSR(*arrays, self.shape)

    def trace(self):
        diagonal = np.empty(min(self.shape), self.data.dtype)
        _kernels.csr_diagonal(0, *self.shape, self.indptr, self.indices,
                              self.data, diagonal)
        return diagonal.sum()

    def minus_identity(self, mu):
        """self - mu I of a square record; entries that come out 0 are
        dropped."""
        dim = self.shape[0]
        identity = (np.arange(dim + 1, dtype=np.int32),
                    np.arange(dim, dtype=np.int32), np.full(dim, mu))
        out = _output(dim, self.nnz + dim,
                      np.result_type(self.data, identity[2]))
        _kernels.csr_minus_csr(*self.shape, self.indptr, self.indices,
                               self.data, *identity, *out)
        return CSR(*out, self.shape)

    def abs_column_sums(self):
        """The column sums of |self|, each added in row order, as scipy's
        ``abs(m).sum(axis=0)`` adds them for a record without duplicates."""
        return np.bincount(self.indices, weights=np.abs(self.data),
                           minlength=self.shape[1])

    def submatrix(self, index):
        """``m[index][:, index]`` of a square record, for sorted unique
        coordinates ``index``."""
        position = np.full(self.shape[0], -1, np.int32)
        position[index] = np.arange(index.size)
        rows = np.repeat(position, np.diff(self.indptr))
        cols = position[self.indices]
        keep = (rows >= 0) & (cols >= 0)
        indptr = np.zeros(index.size + 1, np.int32)
        indptr[1:] = np.cumsum(np.bincount(rows[keep], minlength=index.size))
        return CSR(indptr, cols[keep], self.data[keep], (index.size,) * 2)

    def toarray(self):
        out = np.zeros(self.shape, self.data.dtype)
        _kernels.csr_todense(*self.shape, self.indptr, self.indices,
                             self.data, out)
        return out
