"""Propagation of the vectorized master equation dvec(rho)/dt = V vec(rho).

:func:`evolve` is the one production path: it samples the state on an output
grid by applying exp(V h) over each run of equal steps h. The action of a
step comes from one of two schemes, picked by :func:`is_stiff`. Generators
whose ||V - mu||_1 t is small against dim^3 take the truncated Taylor
scheme of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488, 2011;
``scipy.sparse.linalg.expm_multiply``), which needs only sparse
matrix-vector products and costs in proportion to ||V - mu||_1 t. The
others form exp(V h) once per run with ``scipy.linalg.expm`` (scaling and
squaring, Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009) and
step with dense matrix-vector products, a cost fixed by the dimension.

:func:`diagonalize` and :func:`propagate` sum eigenmodes instead. They share
nothing with :func:`evolve` but the superoperator, and serve as the oracle
that the invariant checks compare it with.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm  # before scipy.sparse: see the engine imports
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError

# Largest ||(V - mu) t||_1 given to one expm_multiply call (mu = tr V / dim,
# the shift scipy applies). Up to 2 l p_max (p_max + 3) theta_55 / 55 = 63.4
# (condition 3.13 of Al-Mohy & Higham for one column) scipy picks the Taylor
# degree and scaling from the exact 1-norm; beyond it, from onenormest, whose
# random probe vectors come from NumPy's global generator, shared by all
# threads, so byte-identical artifacts would rest on an estimate converging.
# Below the stiffness threshold the short calls are no slower than one call
# over the whole grid (n_levels=8, gamma_ph 1 meV: 0.69 s vs 0.76 s).
STEP_NORM_LIMIT = 60.0
# evolve steps densely when ||V - mu||_1 t_span > dim^3 / STIFF_RATIO: dense
# steps cost O(dim^3); the sparse products of Taylor steps follow
# ||V - mu||_1 t_span and cost mostly call overhead at nnz <= 2e4. Stage-1
# wall time (20 ps, 401 points; 2 cores, OpenBLAS 0.3.31), Taylor/dense in s,
# by n_levels and gamma_ph in meV, with y = ||V - mu||_1 t_span / dim^3:
#   5: 0.001 (y=3.4e-5) 0.21/0.03; 6: 0.001 (1.3e-5) 0.18/0.09;
#   7: 0.001 (6.1e-6) 0.22/0.21; 8: 0.001 (3.1e-6) 0.28/0.31, 0.3 (9.2e-6)
#   0.25/0.29, 1 (2.9e-5) 0.91/0.39, 30 (8.6e-4) 19.6/0.45; 10: 1 (1.0e-5)
#   0.87/0.81; 12: 1 (4.3e-6) 1.6/2.1; 15: 0.3 (4.6e-7) 0.94/6.6,
#   1 (1.5e-6) 3.7/8.6, 3 (4.4e-6) 9.1/9.2.
# Break-even y is 4e-6 to 1e-5 for n_levels 7 to 15; nnz y spreads 3.7x.
# The threshold, y = 9.1e-6, sits between n_levels=6 and 7 at default
# friction: at 7 the two tie on time, and expm's workspace adds 26 MB of
# peak memory per concurrent run (sweep at --jobs 2: 91 -> 116 MB).
STIFF_RATIO = 1.1e5
# Largest log2 ||V h||_1 of a dense step: expm squares about that many
# times, each a dense dim^3 product (0.8 s at n_levels=15 on 2 cores).
MAX_LOG2_STEP_NORM = 40.0


@dataclass(frozen=True)
class EigenPropagator:
    """Full eigensystem of one superoperator."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    dual_vectors: np.ndarray
    biorthonormality_residual: float


def diagonalize(v):
    """Eigendecompose a superoperator (dense or sparse) and build its dual basis.

    Duals come from inverting the right-eigenvector matrix, which enforces
    biorthonormality directly; its residual measures how far from defective
    the generator is. A failed decomposition or a singular eigenvector
    matrix raises :class:`NumericalError`.
    """
    try:
        eigenvalues, right = np.linalg.eig(sp.csr_array(v).toarray())
        dual = np.linalg.inv(right)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"superoperator eigendecomposition failed: {err}") from err
    residual = float(np.max(np.abs(dual @ right - np.eye(right.shape[0]))))
    return EigenPropagator(eigenvalues=eigenvalues, right_vectors=right,
                           dual_vectors=dual, biorthonormality_residual=residual)


def propagate(rho0, ep, times):
    """rho0 evolved to ``times`` (ps) as a sum over eigenmodes: one state for
    a scalar time, a stack of states for an array of times."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"propagation times must be nonnegative, got {times}")
    dim = rho0.shape[0]
    c = ep.dual_vectors @ rho0.reshape(-1, order="F")
    vecs = ep.right_vectors @ (
        c[:, None] * np.exp(np.outer(ep.eigenvalues, times)))
    return vecs.T.reshape(times.shape + (dim, dim)).swapaxes(-1, -2)


def _shifted_one_norm(v):
    """||V - mu||_1; inf or nan when it overflows, which evolve rejects."""
    dim = v.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = v - (v.trace() / dim) * sp.eye_array(dim, format="csr")
        return float(abs(shifted).sum(axis=0).max())


def _equal_step_runs(times):
    """[step, count] runs of equal consecutive steps from t = 0 through times."""
    runs = []
    for h in np.diff(times, prepend=0.0):
        if runs and abs(h - runs[-1][0]) <= 1e-9 * runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    return runs


def is_stiff(v, t_span):
    """Whether stepping the sparse generator ``v`` densely over ``t_span`` ps
    is cheaper than Taylor steps."""
    return bool(_shifted_one_norm(v) * t_span > v.shape[0]**3 / STIFF_RATIO)


def _taylor_steps(v, x, times, norm):
    """Vectorized states at ``times`` by chained expm_multiply calls.

    A run of equal steps h is cut into ``sub`` equal sub-steps per output
    step so that one sub-step stays under STEP_NORM_LIMIT, and each call
    covers as many sub-steps as the limit allows.
    """
    out = np.empty((times.size, x.size), dtype=complex)
    i = 0
    for h, count in _equal_step_runs(times):
        if h == 0:
            out[i:i + count] = x
            i += count
            continue
        sub = max(1, math.ceil(h * norm / STEP_NORM_LIMIT))
        total = count * sub
        per_call = (int(STEP_NORM_LIMIT // (h / sub * norm)) if norm > 0
                    else total)
        done = 0
        while done < total:
            m = min(per_call, total - done)
            ys = expm_multiply(v, x, start=0.0, stop=m * h / sub, num=m + 1,
                               endpoint=True)
            picks = [j for j in range(1, m + 1) if (done + j) % sub == 0]
            out[i:i + len(picks)] = ys[picks]
            i += len(picks)
            x = ys[-1]
            done += m
    return out


def _dense_steps(v, x, times):
    """Vectorized states at ``times``: one exp(V h) per run of equal steps h,
    applied by dense matrix-vector products. A step with log2 ||V h||_1 above
    MAX_LOG2_STEP_NORM is refused before any dense work."""
    runs = _equal_step_runs(times)
    with np.errstate(over="ignore"):
        step_norm = float(abs(v).sum(axis=0).max()) * max(h for h, _ in runs)
    if not step_norm <= 2.0**MAX_LOG2_STEP_NORM:
        raise NumericalError(
            f"a grid step of the generator has ||V h||_1 = {step_norm:.3g}, "
            f"beyond 2^{MAX_LOG2_STEP_NORM:g}")
    out = np.empty((times.size, x.size), dtype=complex)
    i = 0
    for h, count in runs:
        if h == 0:
            out[i:i + count] = x
            i += count
            continue
        step = expm((v * h).toarray())
        for _ in range(count):
            x = step @ x
            out[i] = x
            i += 1
    return out


def evolve(rho0, v, times):
    """States exp(V t) rho0 at each of ``times`` (ps, nondecreasing, >= 0).

    Returns ``(states, used_dense)``: an array of shape (len(times), d, d)
    and whether the dense steps ran. Uniform grids with a shorter last step,
    grids starting after 0 and single times all work; each run of equal
    steps is advanced together. Non-finite generators or states raise
    :class:`NumericalError`.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("evolve needs a nonempty nondecreasing grid from t >= 0")
    v = sp.csr_array(v)
    norm = _shifted_one_norm(v)
    if not (np.all(np.isfinite(v.data)) and math.isfinite(norm)):
        raise NumericalError("superoperator entries or 1-norm are not finite")
    x = rho0.reshape(-1, order="F").astype(complex)
    used_dense = is_stiff(v, times[-1])
    vecs = (_dense_steps(v, x, times) if used_dense
            else _taylor_steps(v, x, times, norm))
    if not np.all(np.isfinite(vecs)):
        raise NumericalError("propagated states are not finite")
    states = vecs.reshape(times.size, *rho0.shape).transpose(0, 2, 1)
    return states, used_dense
