"""Propagation of the vectorized master equation dvec(rho)/dt = V vec(rho).

A master equation maps Hermitian states to Hermitian states, so in a basis
of Hermitian matrices (:func:`_hermitian_basis`, T vec(rho) real for
Hermitian rho) its generator W = T V T^-1 is real. Every propagation here
runs in that basis, in real arithmetic: :func:`_real_form` builds W once
per generator and refuses one that does not preserve Hermiticity.

The electronic selection rules split every stage generator exactly into
invariant blocks, and :func:`prepare` finds them as the connected
components of W's sparsity graph: the {g, X} x {g, X} and (o, o)
coordinates, and the o x {g, X} coherences with their conjugates (g the
driven ground level, o the other). Entries between invariant blocks are
zero by construction, so each is propagated and diagonalized on its own.
:func:`prepare` is the one entry point: its :class:`Prepared` record holds
T, the shifted form of the whole W and the invariant blocks; it is built
once per generator and serves both paths below.

:func:`evolve` is the one production path: it samples the state on an
output grid by applying exp(W h) over each run of equal steps h to the
vector T vec(rho0), real as rho0 must be exactly Hermitian, and gathers the
states back. It steps only the invariant blocks where T vec(rho0) is
nonzero; the other coordinates stay exactly 0. The stepped blocks take one
of two schemes, picked once per call by :func:`is_stiff` from the whole W
(STIFF_RATIO says why not per block). Generators whose ||W - mu||_1 t is
small against dim^3 take the truncated Taylor scheme of Al-Mohy & Higham
(SIAM J. Sci. Comput. 33, 488, 2011, Alg. 5.2), restated here: with
A = W - mu on a block (mu = tr W / dim, W and dim the block's) it needs
only sparse matrix-vector products and costs in proportion to ||A||_1 t.
Its Taylor degree and block count come from the exact 1-norm alone, which
bounds ||A^p||^(1/p) from above for every p, so no norm estimate (and none
of its random probes) is ever needed and repeated runs give the same bits.
The other generators form exp(W h) of each block once per run with
:func:`expm`, a Pade [13/13] approximant with scaling and squaring (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179, 2005) written in numpy, and step with
dense matrix-vector products, a cost fixed by the dimension. Its scaling
exponent also comes from the exact 1-norm. scipy is used for
``scipy.sparse`` only: ``scipy.linalg`` would load scipy's own OpenBLAS,
whose thread pool beside numpy's slows every dense kernel of the process.

:func:`diagonalize` and :func:`propagate` sum eigenmodes instead: each
invariant block's eigenvectors R and duals R^-1, kept in the Hermitian
basis. They share nothing with :func:`evolve` but the superoperator, the
Hermitian basis, the invariant blocks (exact similarities) and the gather
:func:`_from_hermitian` back to states, and serve as the oracle that the
invariant checks compare it with.
"""

import math
from typing import NamedTuple

import numpy as np
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
# Pade [13/13] coefficients b_0..b_13 and theta_13, the largest ||A||_1 for
# which the approximant of exp(A) meets the backward-error bound u (Higham
# 2005, Table 2.3 and Alg. 2.3).
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
THETA13 = 5.371920351148152
# evolve steps densely when ||W - mu||_1 t_span > dim^3 / STIFF_RATIO, W,
# mu and dim those of the whole generator: dense steps cost O(dim^3); the
# sparse products of Taylor steps follow ||W - mu||_1 t_span. Stage-1
# stepping time of the real steppers on the whole generator (20 ps, 401
# points; 2 cores, OpenBLAS 0.3.31), Taylor/dense in s, by n_levels and
# gamma_ph in meV, with y = ||W - mu||_1 t_span / dim^3:
#   4: 0.001 (y=1.1e-4) 0.029/0.006; 5: 0.001 (3.4e-5) 0.034/0.014, 0.1
#   (4.3e-5) 0.030/0.013; 6: 0.001 (1.3e-5) 0.041/0.025, 0.1 (1.8e-5)
#   0.036/0.028, 0.3 (4.0e-5) 0.090/0.026; 7: 0.001 (6.1e-6) 0.048/0.059,
#   0.1 (8.7e-6) 0.041/0.068, 0.3 (2.0e-5) 0.10/0.061; 8: 0.001 (3.1e-6)
#   0.068/0.12, 0.3 (1.1e-5) 0.21/0.13, 1 (3.4e-5) 0.45/0.13; 10: 0.3
#   (4.0e-6) 0.29/0.42, 0.6 (7.6e-6) 0.53/0.45; 12: 1 (5.3e-6) 1.03/0.99,
#   3 (1.6e-5) 2.9/0.94; 15: 0.3 (5.7e-7) 0.78/2.5, 1 (1.8e-6) 1.7/3.2,
#   3 (5.4e-6) 5.0/3.2, 10 (1.8e-5) 16.7/3.6.
# Break-even y falls with size: below 1.3e-5 at n_levels <= 6, about
# 1.3e-5 at 7, 6e-6 at 8 and 10, 5e-6 at 12 and 3.3e-6 at 15. The
# threshold, y = 9.1e-6, lies inside that band. Lowering it would gain at
# n_levels >= 8 and lose at 7.
# The same threshold on the stage-1 block alone (5 n_levels^2
# coordinates, y about 5.8 times larger) would step it densely at
# n_levels 7 and 8. Wall time falls there (n_levels=8: 0.028 s against
# 0.051 s), but the dense steps run on both OpenBLAS threads, and the
# second one spins on after them: CPU time of the n_levels=8 cycle rose
# from 0.10-0.13 s to 0.17-0.19 s. So the choice stays with the whole
# generator until a cost model weighs CPU as well as wall time.
STIFF_RATIO = 1.1e5
# Largest log2 ||W h||_1 of a dense step: expm squares about that many
# times, each a dense dim^3 product (0.2 s at n_levels=15 on 2 cores).
MAX_LOG2_STEP_NORM = 40.0
# Rows that _from_hermitian gathers at a time: each of its working copies
# holds 0.5 MB at n_levels=15.
GATHER_ROWS = 16
# Largest max |Im W| / max |W| that _real_form drops from W = T V T^-1 as
# rounding; assembling a Liouvillian leaves about 1e-16.
HERMITICITY_TOLERANCE = 1e-12


class BlockModes(NamedTuple):
    """Eigensystem of one invariant block of W: its Hermitian-basis
    coordinates, its eigenvalues, the right eigenvector matrix R and R^-1."""

    index: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    inverse: np.ndarray


class EigenPropagator(NamedTuple):
    """Eigensystem of one generator: T, the eigenvalues of all blocks, the
    :class:`BlockModes` of each and the largest biorthonormality residual."""

    t: sp.csr_array
    eigenvalues: np.ndarray
    blocks: tuple
    biorthonormality_residual: float


def diagonalize(prepared):
    """Eigendecompose each invariant block of a :class:`Prepared` generator
    on its own, in the Hermitian basis.

    Duals come from inverting each block's right-eigenvector matrix, which
    enforces biorthonormality directly; the largest residual over the
    blocks measures how far from defective the generator is. A failed
    decomposition or a singular eigenvector matrix raises
    :class:`NumericalError`.
    """
    blocks = []
    residual = 0.0
    for block in prepared.blocks:
        try:
            values, vectors = np.linalg.eig(block.w.toarray())
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError as err:
            raise NumericalError(
                f"superoperator eigendecomposition failed: {err}") from err
        blocks.append(BlockModes(block.index, values, vectors, inverse))
        residual = max(residual, float(np.max(np.abs(
            inverse @ vectors - np.eye(values.size)))))
    eigenvalues = np.concatenate([block.eigenvalues for block in blocks])
    return EigenPropagator(prepared.t, eigenvalues, tuple(blocks), residual)


def propagate(rho0, ep, times):
    """rho0 evolved to ``times`` (ps) as a sum over eigenmodes: one state for
    a scalar time, a stack of states for an array of times. Only the blocks
    where R^-1 T vec(rho0) is nonzero are summed, and the coordinates are
    gathered back as :func:`evolve` gathers them."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"propagation times must be nonnegative, got {times}")
    y = ep.t @ rho0.reshape(-1, order="F").astype(complex)
    vecs = np.zeros((times.size, y.size), dtype=complex)
    for block in ep.blocks:
        c = block.inverse @ y[block.index]
        if np.any(c):
            vecs[:, block.index] = (block.right @ (c[:, None] * np.exp(
                np.outer(block.eigenvalues, times)))).T
    _from_hermitian(vecs)
    return vecs.reshape(times.shape + rho0.shape).swapaxes(-1, -2)


def _one_norm(m):
    """Exact ||m||_1 of a dense or sparse matrix; inf or nan on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(abs(m).sum(axis=0).max())


def _real_form(v):
    """The real W = T V T^-1 of a CSR generator V, and T, refused when V's
    entries are not finite or when it does not preserve Hermiticity beyond
    rounding. W has sorted indices, so that abs() in :func:`_one_norm`
    permutes none of its entries; V itself is only read."""
    if not np.all(np.isfinite(v.data)):
        raise NumericalError("superoperator entries are not finite")
    t, t_inv = _hermitian_basis(math.isqrt(v.shape[0]))
    w = t @ v @ t_inv
    imag = np.abs(w.data.imag).max(initial=0.0)
    real = np.abs(w.data.real).max(initial=0.0)
    if not imag <= HERMITICITY_TOLERANCE * real:
        raise NumericalError("the generator does not preserve Hermiticity")
    w = w.real
    w.sum_duplicates()
    return w, t


class Shifted(NamedTuple):
    """A = W - mu with mu = tr W / dim, the real generator the Taylor steps
    expand, and ||A||_1, which sizes them and picks the stepper."""

    a: sp.csr_array
    mu: float
    norm: float


def _shift(w):
    """W - mu and its 1-norm; a norm that overflows comes back inf or nan,
    which evolve rejects."""
    dim = w.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = w.trace() / dim
        a = w - mu * sp.eye_array(dim, format="csr")
    return Shifted(a, mu, _one_norm(a))


class Block(NamedTuple):
    """One invariant block of W: its Hermitian-basis coordinates (sorted),
    W restricted to them, and the :class:`Shifted` form of that."""

    index: np.ndarray
    w: sp.csr_array
    shifted: Shifted


class Prepared(NamedTuple):
    """A generator made ready for :func:`evolve` and :func:`diagonalize`:
    the Hermitian basis T, the :class:`Shifted` form of the whole W, which
    picks the stepper, and the invariant blocks of W (each a
    :class:`Block`), in the order of their first coordinate."""

    t: sp.csr_array
    shifted: Shifted
    blocks: tuple


def _components(w):
    """Connected components of the sparsity graph |W| + |W|^T of a CSR
    matrix, as sorted index arrays in the order of their first index. Each
    round of label propagation lowers every node's label to the smallest
    label of its edges, then jumps each label to its own label."""
    dim = w.shape[0]
    nonzero = w.data != 0
    rows = np.repeat(np.arange(dim), np.diff(w.indptr))[nonzero]
    cols = w.indices[nonzero]
    labels = np.arange(dim)
    while True:
        lowest = np.minimum(labels[rows], labels[cols])
        lowered = labels.copy()
        np.minimum.at(lowered, rows, lowest)
        np.minimum.at(lowered, cols, lowest)
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            break
        labels = lowered
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def prepare(v):
    """The :class:`Prepared` record of a generator, dense or sparse. A
    generator refused by :func:`_real_form` raises :class:`NumericalError`."""
    w, t = _real_form(sp.csr_array(v))
    blocks = []
    for index in _components(w):
        w_block = w[index][:, index]
        blocks.append(Block(index, w_block, _shift(w_block)))
    return Prepared(t, _shift(w), tuple(blocks))


def _equal_step_runs(times):
    """[step, count] runs of equal consecutive steps from t = 0 through times."""
    runs = []
    for h in np.diff(times, prepend=0.0):
        if runs and abs(h - runs[-1][0]) <= 1e-9 * runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    return runs


def is_stiff(shifted, t_span):
    """Whether stepping the generator densely over ``t_span`` ps is cheaper
    than Taylor steps, judged from its :class:`Shifted` form."""
    return bool(shifted.norm * t_span > shifted.a.shape[0]**3 / STIFF_RATIO)


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


def _taylor_steps(shifted, x, times, out):
    """Fill ``out`` with the Hermitian-basis coordinates at ``times``, one
    row per time, by truncated Taylor series of the :class:`Shifted`
    generator (Al-Mohy & Higham 2011, Alg. 5.2) applied to the real vector
    ``x``, and return it.

    Each run of ``count`` equal steps h takes one (m*, s) for its span
    count h. Output steps are cut into ceil(s / count) sub-steps when
    s > count, and the run's q sub-steps into blocks of floor(q / s), so
    that a block's span times the norm stays within theta_m*. A block's
    Taylor terms are summed until the series at the block's end converges,
    which bounds every earlier sample of the block too; all its samples
    then come from one matrix product, exp(k delta mu) sum_p (k / d)^p K_p
    for K_p = (d delta A)^p / p! z.
    """
    a, mu, norm = shifted
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
        terms = np.empty((m_star + 1, x.size))
        for start in range(0, q, block):
            d = min(block, q - start)
            k = np.arange(1, d + 1)
            used = _taylor_terms(a, x, d * delta, terms)
            weights = (k / d)[:, None] ** np.arange(len(used))
            ys = weights @ used
            ys *= np.exp(k * delta * mu)[:, None]
            x = ys[-1]
            # blocks hold whole output steps (sub = 1) or, as q < 2 s then,
            # one sub-step each, kept when it ends an output step
            if (start + d) % sub == 0:
                out[i:i + d] = ys
                i += d
    return out


def _scaling_exponent(norm):
    """Smallest s >= 0 with norm / 2^s <= THETA13, for a finite norm."""
    s = max(0, math.ceil(math.log2(norm / THETA13))) if norm > THETA13 else 0
    if norm / 2.0**s > THETA13:  # the log rounded down to an integer
        s += 1
    return s


def expm(m):
    """exp(m) of a dense square matrix: the Pade [13/13] approximant of
    m / 2^s squared s times, s from the exact 1-norm (Higham 2005, Alg. 2.3
    at degree 13)."""
    s = _scaling_exponent(_one_norm(m))
    a = m * 2.0**-s
    powers = np.empty((3,) + a.shape, dtype=a.dtype)  # a^2, a^4, a^6
    np.matmul(a, a, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    diagonal = np.diag_indices(len(a))

    def even_sum(c0, c2, c4, c6):
        # one pass over the three powers instead of one per term
        out = np.tensordot((c2, c4, c6), powers, axes=1)
        out[diagonal] += c0
        return out

    b = PADE13
    u = powers[2] @ even_sum(0.0, b[9], b[11], b[13])
    u += even_sum(b[1], b[3], b[5], b[7])
    u = a @ u
    w = powers[2] @ even_sum(0.0, b[8], b[10], b[12])
    w += even_sum(b[0], b[2], b[4], b[6])
    del a, powers  # free before the solve allocates its workspace
    numerator = w + u
    w -= u
    del u
    r = np.linalg.solve(w, numerator)
    for _ in range(s):
        r = r @ r
    return r


def _hermitian_basis(dim):
    """Sparse T and T^-1 for column-stacked dim x dim matrices. T vec(rho)
    holds rho's diagonal, Re rho_ij at (i, j) and Im rho_ij at (j, i) for
    i < j, so it is real for Hermitian rho, and T V T^-1 is real for any
    generator V that maps Hermitian matrices to Hermitian matrices."""
    # 32-bit indices, as the assembled generator has: W and W - mu keep
    # them, which halves the index traffic of the Taylor steps' products
    own = np.arange(dim * dim, dtype=np.int32)
    col, row = np.divmod(own, dim)
    side = [row < col, row > col]
    coordinates = (np.concatenate((own, own)),
                   np.concatenate((own, row * dim + col)))

    def own_plus_partner(own_factor, partner_factor):
        factors = np.concatenate((np.select(side, own_factor, 1.0),
                                  np.select(side, partner_factor, 0.0)))
        return sp.csr_array((factors, coordinates), shape=(own.size,) * 2)

    return (own_plus_partner([0.5, 0.5j], [0.5, -0.5j]),
            own_plus_partner([1.0, -1j], [1j, 1.0]))


def _from_hermitian(vecs):
    """Replace each row y of the complex stack ``vecs`` by the column-stacked
    matrix T^-1 y, GATHER_ROWS rows at a time: for i < j, rho_ij and rho_ji
    are y at (i, j) plus and minus i times y at (j, i), and rho_ii is y at
    (i, i)."""
    n = vecs.shape[-1]
    dim = math.isqrt(n)
    own = np.arange(n)
    col, row = np.divmod(own, dim)
    partner = row * dim + col
    lower = row > col
    real_at = np.where(lower, partner, own)
    imag_at = np.where(lower, own, partner)
    phase = 1j * np.sign(col - row)
    for start in range(0, len(vecs), GATHER_ROWS):
        rows = vecs[start:start + GATHER_ROWS]
        y = rows.copy()
        rows[...] = y[:, real_at] + phase * y[:, imag_at]
    return vecs


def _dense_steps(w, x, times, out):
    """Fill ``out`` with the Hermitian-basis coordinates at ``times``, one
    row per time, and return it: one real exp(W h) per run of equal steps
    h, applied by dense matrix-vector products to the real vector ``x``. A
    step with log2 ||W h||_1 above MAX_LOG2_STEP_NORM is refused
    before any dense work."""
    runs = _equal_step_runs(times)
    step_norm = _one_norm(w) * max(h for h, _ in runs)
    if not step_norm <= 2.0**MAX_LOG2_STEP_NORM:
        raise NumericalError(
            f"a grid step of the generator has ||W h||_1 = {step_norm:.3g}, "
            f"beyond 2^{MAX_LOG2_STEP_NORM:g}")
    i = 0
    for h, count in runs:
        if h == 0:
            out[i:i + count] = x
            i += count
            continue
        step = expm((w * h).toarray())
        for _ in range(count):
            x = step @ x
            out[i] = x
            i += 1
    return out


def evolve(rho0, prepared, times):
    """States exp(V t) rho0 at each of ``times`` (ps, nondecreasing, >= 0),
    for the :class:`Prepared` record of a generator V.

    Returns ``(states, used_dense)``: exactly Hermitian states of shape
    (len(times), d, d), and whether the propagated invariant blocks took
    dense steps. Uniform grids with a shorter last step, grids starting
    after 0 and single times all work; each run of equal steps is advanced
    together. A rho0 that is not exactly Hermitian raises ValueError;
    non-finite generators or states raise :class:`NumericalError`.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("evolve needs a nonempty nondecreasing grid from t >= 0")
    if not math.isfinite(prepared.shifted.norm):
        raise NumericalError("the superoperator's 1-norm is not finite")
    y = prepared.t @ rho0.reshape(-1, order="F").astype(complex)
    if np.any(y.imag):
        raise ValueError("evolve propagates exactly Hermitian states only")
    # the steppers' rows go into the real parts of the stack that then
    # holds the states
    vecs = np.zeros((times.size, y.size), dtype=complex)
    used_dense = is_stiff(prepared.shifted, times[-1])
    for block in prepared.blocks:
        x0 = y.real[block.index]
        if not np.any(x0):
            continue  # an invariant block that starts at 0 stays at 0
        rows = np.empty((times.size, x0.size))
        if used_dense:
            _dense_steps(block.w, x0, times, rows)
        else:
            _taylor_steps(block.shifted, x0, times, rows)
        vecs.real[:, block.index] = rows
    _from_hermitian(vecs)
    if not np.all(np.isfinite(vecs)):
        raise NumericalError("propagated states are not finite")
    states = vecs.reshape(times.size, *rho0.shape).transpose(0, 2, 1)
    return states, used_dense
