"""Propagation of the vectorized master equation dvec(rho)/dt = V vec(rho).

:func:`evolve` is the one production entry point: it samples the state on an
output grid. By default it applies exp(V h) step by step with the truncated
Taylor scheme of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488, 2011;
``scipy.sparse.linalg.expm_multiply``), which needs only sparse
matrix-vector products and costs in proportion to ||V||_1 t. For stiff
generators, where that product is large against the dimension, it instead
diagonalizes V once (:func:`diagonalize`) and sums eigenmodes
(:func:`propagate`), a cost fixed by the dimension.

The eigendecomposition and the adaptive integrator :func:`integrate_direct`
share nothing but the superoperator, so they also serve as the two
independent oracles of the invariant checks.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from .errors import NumericalError

DEFECT_THRESHOLD = 1e-6
DEFAULT_GRID_DT = 0.05  # ps
DEFAULT_TOL = 1e-9
# Largest ||(V - mu) t||_1 given to one expm_multiply call (mu = tr V / dim,
# the shift scipy applies). Up to 2 l p_max (p_max + 3) theta_55 / 55 = 63.4
# (condition 3.13 of Al-Mohy & Higham for one column) scipy picks the Taylor
# degree and scaling from the exact 1-norm; beyond it, from onenormest, whose
# random probe vectors come from NumPy's global generator, shared by all
# threads, so byte-identical artifacts would rest on an estimate converging.
# Below the stiffness threshold the short calls are no slower than one call
# over the whole grid (n_levels=8, gamma_ph 1 meV: 0.69 s vs 0.76 s).
STEP_NORM_LIMIT = 60.0
# evolve diagonalizes when x = ||V - mu||_1 t_span / dim^2 > 1 / STIFF_RATIO.
# Stage-1 wall time (20 ps, 401 grid points), Taylor steps vs. dense
# eigendecomposition, measured on a 2-core host with OpenBLAS 0.3.31:
#   n_levels=8  (dim 576):  gamma_ph 0.001 meV (x=0.0018) 0.20 s;
#     1 meV (x=0.017) 0.81 s; 3 meV (x=0.050) 2.3 s; 10 meV (x=0.16) 7.6 s;
#     30 meV (x=0.49) 19.6 s; eigendecomposition 0.9-1.8 s at any gamma_ph
#   n_levels=15 (dim 2025): 0.001 meV (x=0.0003) 0.58 s; 1 meV (x=0.0030)
#     4.2 s; 3 meV (x=0.0089) 10.0 s; eigendecomposition 18.9 s
# Break-even falls at x = 0.017-0.035 for n_levels=8 and x = 0.017 for 15.
STIFF_RATIO = 40.0
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class EigenPropagator:
    """Full eigensystem of one superoperator, sorted slowest-decaying first."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    dual_vectors: np.ndarray
    biorthonormality_residual: float
    defective: bool


def diagonalize(v):
    """Eigendecompose a superoperator (dense or sparse) and build its dual basis.

    Duals come from inverting the right-eigenvector matrix, which enforces
    biorthonormality directly; its residual doubles as the defectiveness
    probe. A failed decomposition raises :class:`NumericalError`.
    """
    if sp.issparse(v):
        v = v.toarray()
    try:
        eigenvalues, right = np.linalg.eig(v)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"superoperator eigendecomposition failed: {err}") from err
    order = np.argsort(-eigenvalues.real)
    eigenvalues = eigenvalues[order]
    right = right[:, order]
    try:
        dual = np.linalg.inv(right)
        gram = dual @ right
        residual = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    except np.linalg.LinAlgError:
        dual = np.linalg.pinv(right)
        residual = np.inf
    return EigenPropagator(
        eigenvalues=eigenvalues,
        right_vectors=right,
        dual_vectors=dual,
        biorthonormality_residual=residual,
        defective=not residual <= DEFECT_THRESHOLD,
    )


def propagate(rho0, ep, t):
    """Evolve rho0 to time t (ps) as a sum over eigenmodes."""
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    dim = rho0.shape[0]
    c = ep.dual_vectors @ rho0.reshape(-1, order="F")
    vec = ep.right_vectors @ (c * np.exp(ep.eigenvalues * t))
    return vec.reshape(dim, dim, order="F")


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
    """Whether diagonalizing the sparse generator ``v`` once is cheaper than
    Taylor steps over ``t_span`` ps."""
    return _shifted_one_norm(v) * t_span > v.shape[0]**2 / STIFF_RATIO


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


def evolve(rho0, v, times):
    """States exp(V t) rho0 at each of ``times`` (ps, nondecreasing, >= 0).

    Returns ``(states, used_eigen)``: an array of shape (len(times), d, d)
    and whether the stiff eigendecomposition branch ran. Uniform grids with
    a shorter last step, grids starting after 0 and single times all work;
    each run of equal steps is advanced together.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("evolve needs a nonempty nondecreasing grid from t >= 0")
    v = sp.csr_array(v)
    norm = _shifted_one_norm(v)
    if not (np.all(np.isfinite(v.data)) and math.isfinite(norm)):
        raise NumericalError("superoperator entries or 1-norm are not finite")
    dim = rho0.shape[0]
    if is_stiff(v, times[-1]):
        ep = diagonalize(v)
        if ep.defective:
            raise NumericalError(
                "stiff generator has a defective eigendecomposition "
                f"(biorthonormality residual {ep.biorthonormality_residual:.1e})")
        growth = float(np.max(ep.eigenvalues.real)) * times[-1]
        if not growth < LOG_FLOAT_MAX:
            raise NumericalError(
                f"generator modes grow by exp({growth:.3g}) over "
                f"{times[-1]:g} ps, beyond floating-point range")
        return np.array([propagate(rho0, ep, t) for t in times]), True
    vecs = _taylor_steps(v, rho0.reshape(-1, order="F").astype(complex),
                         times, norm)
    return vecs.reshape(times.size, dim, dim).transpose(0, 2, 1), False


def integrate_direct(rho0, v, t_end, tol=DEFAULT_TOL, grid_dt=DEFAULT_GRID_DT):
    """Adaptive direct integration of dvec(rho)/dt = V vec(rho).

    Returns (times, states) sampled on a uniform grid of spacing grid_dt.
    ``v`` may be dense or sparse; the right-hand side is one matrix-vector
    product. Serves as the independent oracle for the other two paths.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    dim = rho0.shape[0]
    times = np.arange(0.0, t_end + grid_dt / 2, grid_dt)
    if times[-1] > t_end:
        times[-1] = t_end
    sol = solve_ivp(
        lambda _, y: v @ y, (0.0, t_end), rho0.reshape(-1, order="F"),
        method="DOP853", rtol=tol, atol=tol * 1e-3, t_eval=times)
    if not sol.success:
        raise NumericalError(f"direct integration failed: {sol.message}")
    states = [sol.y[:, k].reshape(dim, dim, order="F") for k in range(sol.y.shape[1])]
    return sol.t, states
