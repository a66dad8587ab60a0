"""Quantum-dot spin-heat engine simulator.

Importing the package sets numpy's bundled OpenBLAS to one thread for the
whole process, so that dense kernels give bits that do not depend on
``OPENBLAS_NUM_THREADS``; ``blas_threads()`` reads the count back. Where
numpy is not yet loaded, it loads with ``OPENBLAS_NUM_THREADS=1`` set for
the import alone, so OpenBLAS starts no worker thread, which would spin
for about 0.1 s of CPU before it sleeps; the caller's value is restored.
The setter call covers a process that imported numpy first. The dynamic
linker finds the symbols through numpy's ``_multiarray_umath``.
"""

import ctypes
import os

_caller_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from numpy._core import _multiarray_umath
finally:
    if _caller_threads is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _caller_threads

__version__ = "0.1.0"

_OPENBLAS = ctypes.CDLL(_multiarray_umath.__file__)
try:
    _OPENBLAS.scipy_openblas_set_num_threads64_(1)
    blas_threads = _OPENBLAS.scipy_openblas_get_num_threads64_
except AttributeError as err:  # its message names the missing symbol
    raise ImportError(
        f"numpy's OpenBLAS cannot set its thread count: {err}") from None
