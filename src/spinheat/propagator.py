"""Propagation of the vectorized master equation dvec(rho)/dt = V vec(rho).

:func:`evolve` is the one production path: it samples the state on an output
grid by applying exp(V h) over each run of equal steps h. The action of a
step comes from one of two schemes, picked by :func:`is_stiff`. Generators
whose ||V - mu||_1 t is small against dim^3 take the truncated Taylor
scheme of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488, 2011, Alg. 5.2),
restated here: with A = V - mu (mu = tr V / dim) it needs only sparse
matrix-vector products and costs in proportion to ||A||_1 t. Its Taylor
degree and block count come from the exact 1-norm alone, which bounds
||A^p||^(1/p) from above for every p, so no norm estimate (and none of its
random probes) is ever needed and repeated runs give the same bits. The
other generators form exp(V h) once per run with ``scipy.linalg.expm``
(scaling and squaring, Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
970, 2009) and step with dense matrix-vector products, a cost fixed by the
dimension.

:func:`diagonalize` and :func:`propagate` sum eigenmodes instead. They share
nothing with :func:`evolve` but the superoperator, and serve as the oracle
that the invariant checks compare it with.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm  # before scipy.sparse: see the engine imports
import scipy.sparse as sp

from .errors import NumericalError

# theta_m for unit roundoff u = 2^-53: the largest ||A||_1 t for which m
# Taylor terms of exp(A t) meet the backward-error bound u. Entries m <= 30
# from Higham & Al-Mohy, Acta Numer. 19, 159 (2010), Table A.3; m = 35..55
# from Al-Mohy & Higham (2011), Table 3.1.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
UNIT_ROUNDOFF = 2.0**-53
# evolve steps densely when ||V - mu||_1 t_span > dim^3 / STIFF_RATIO: dense
# steps cost O(dim^3); the sparse products of Taylor steps follow
# ||V - mu||_1 t_span. Stage-1 stepping time (20 ps, 401 points; 2 cores,
# OpenBLAS 0.3.31), Taylor/dense in s, by n_levels and gamma_ph in meV,
# with y = ||V - mu||_1 t_span / dim^3:
#   5: 0.001 (y=3.4e-5) 0.028/0.033; 6: 0.001 (1.3e-5) 0.038/0.046,
#   0.1 (1.6e-5) 0.029/0.049; 7: 0.001 (6.1e-6) 0.057/0.11; 8: 0.001
#   (3.1e-6) 0.061/0.25, 0.3 (9.3e-6) 0.11/0.22, 1 (2.9e-5) 0.36/0.26;
#   10: 1 (1.0e-5) 0.47/0.67; 12: 1 (4.3e-6) 1.4/2.2, 3 (1.3e-5) 3.3/2.3;
#   15: 0.3 (4.6e-7) 0.49/5.9, 1 (1.5e-6) 2.8/8.3, 3 (4.4e-6) 5.7/7.5,
#   10 (1.5e-5) 21/8.6.
# Break-even y falls with size: above 3.4e-5 up to n_levels=6, about 1.8e-5
# at 8, 1.4e-5 at 10, 8e-6 at 12 and 5.5e-6 at 15. The threshold,
# y = 9.1e-6, lies inside that band. Raising it would trade seconds at
# n_levels >= 12 for tenths below; lowering it would add expm's workspace
# (26 MB per concurrent run at n_levels=7) where Taylor steps are faster.
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


def _shift(v):
    """A = V - mu and mu = tr V / dim, the generator the Taylor steps expand."""
    dim = v.shape[0]
    mu = v.trace() / dim
    return v - mu * sp.eye_array(dim, format="csr"), mu


def _shifted_one_norm(v):
    """||V - mu||_1; inf or nan when it overflows, which evolve rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(abs(_shift(v)[0]).sum(axis=0).max())


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


def _taylor_parameters(t_norm):
    """Taylor degree m* and block count s for exp(A t), t ||A||_1 = ``t_norm``:
    the pair with t_norm / s <= theta_m that needs the fewest products m s,
    the lower degree on ties (Al-Mohy & Higham 2011, Sec. 3)."""
    pairs = []
    for m, theta in TAYLOR_THETA.items():
        s = max(1, math.ceil(t_norm / theta))
        if t_norm / s > theta:  # t_norm / theta rounded down to an integer
            s += 1
        pairs.append((m * s, m, s))
    _, m_star, s = min(pairs)
    return m_star, s


def _taylor_terms(a, z, span, terms):
    """Fill rows p = 0, 1, ... of ``terms`` with (span A)^p / p! z until the
    series of exp(span A) z passes the stopping test of Al-Mohy & Higham
    (two consecutive terms below u ||partial sum||_inf) or ``terms`` is
    full; return the rows filled."""
    terms[0] = z
    total = z.copy()
    previous = np.abs(z).max()
    for p in range(1, len(terms)):
        np.multiply(a @ terms[p - 1], span / p, out=terms[p])
        total += terms[p]
        current = np.abs(terms[p]).max()
        if previous + current <= UNIT_ROUNDOFF * np.abs(total).max():
            break
        previous = current
    return terms[:p + 1]


def _taylor_steps(v, x, times, norm):
    """Vectorized states at ``times`` by truncated Taylor series, ``norm``
    being ||V - mu||_1 (Al-Mohy & Higham 2011, Alg. 5.2).

    Each run of ``count`` equal steps h takes one (m*, s) for its span
    count h. Output steps are cut into ceil(s / count) sub-steps when
    s > count, and the run's q sub-steps into blocks of floor(q / s), so
    that a block's span times the norm stays within theta_m*. A block's
    Taylor terms are summed until the series at the block's end converges,
    which bounds every earlier sample of the block too; all its samples
    then come from one matrix product, exp(k delta mu) sum_p (k / d)^p K_p
    for K_p = (d delta A)^p / p! z.
    """
    a, mu = _shift(v)
    out = np.empty((times.size, x.size), dtype=complex)
    i = 0
    for h, count in _equal_step_runs(times):
        if h == 0:
            out[i:i + count] = x
            i += count
            continue
        m_star, s = _taylor_parameters(count * h * norm)
        sub = -(-s // count)
        q = count * sub
        block = q // s
        delta = h / sub
        terms = np.empty((m_star + 1, x.size), dtype=complex)
        for start in range(0, q, block):
            d = min(block, q - start)
            k = np.arange(1, d + 1)
            used = _taylor_terms(a, x, d * delta, terms)
            weights = (k / d)[:, None] ** np.arange(len(used))
            # real weights on the real and imaginary parts: one real product
            ys = (weights @ used.view(float)).view(complex)
            ys *= np.exp(k * delta * mu)[:, None]
            x = ys[-1]
            # blocks hold whole output steps (sub = 1) or, as q < 2 s then,
            # one sub-step each, kept when it ends an output step
            if (start + d) % sub == 0:
                out[i:i + d] = ys
                i += d
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
