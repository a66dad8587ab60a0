"""Propagation of the vectorized master equation dvec(rho)/dt = V vec(rho).

A master equation maps Hermitian states to Hermitian states, so in a basis
of Hermitian matrices (:func:`_hermitian_layout`, T vec(rho) real for
Hermitian rho; Havel, J. Math. Phys. 44, 534, 2003) its generator
W = T V T^-1 is real. Every propagation here runs in that basis, in real
arithmetic: :func:`_real_form` forms W once per generator, in one scatter
over V's entries, and refuses one that does not preserve Hermiticity.

The electronic selection rules split every stage generator exactly into
invariant blocks: the {g, X} x {g, X} and (o, o) coordinates, and the
o x {g, X} coherences C with their conjugates C^dagger (g the driven
ground level, o the other). :func:`prepare` finds them in one search of
V's sparsity graph and joins its connected components with those of their
transpose partners p: P is its own partner set, and C and C^dagger are
two components that nothing in V couples and that p swaps, joined into
one conjugate-pair block. Entries between invariant blocks are zero by
construction, so each is propagated and diagonalized on its own.
:func:`prepare` is the one entry point: the tuple of blocks it returns,
each with its restriction of W, is built once per generator and serves
both paths below.

:func:`evolve` is the one production path: it samples the trajectory on
an output grid by applying exp(W h) over each run of equal steps h to the
vector T vec(rho0), real as rho0 must be exactly Hermitian, and returns
the real coordinates it steps, one row per time, written by the steppers
straight into one preallocated stack. It steps only the invariant blocks
where T vec(rho0) is nonzero; the other coordinates stay exactly 0. An
observable is read off the coordinates as a linear functional
(:func:`functional`), and :func:`from_hermitian` gathers states back, or
principal blocks of them (:func:`principal_positions`), where matrices
are needed. Each stepped block takes one of two
schemes, picked for it by :func:`is_stiff`. With W, mu and dim the
block's, blocks whose ||W - mu||_1 t is small against dim^3 take the
truncated Taylor scheme of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
488, 2011, Alg. 5.2), restated here: with A = W - mu (mu = tr W / dim)
it needs only sparse matrix-vector products and costs in proportion to
||A||_1 t.
Its degree is fixed, TAYLOR_DEGREE = 55, the paper's largest, and its
block count comes from the exact 1-norm alone, which bounds
||A^p||^(1/p) from above for every p, so no norm estimate (and none of its
random probes) is ever needed and repeated runs give the same bits. The
degree only caps the series: the stopping test ends each one first.
Each product is one direct call of scipy's CSR kernel, the one ``a @ x``
ends in, into a preallocated row, so the terms carry the bits of
``a @ x`` without its dispatch and allocation. The stopping test forms
the partial sum and reads its norm only when it can pass against twice the
running sum of the term norms, which bounds that norm up to rounding far
below the factor 2, so the series is truncated at the term where a test
that reads the norm at every term would truncate it.
The other blocks form exp(W h) once per run with :func:`expm`, a Pade
[13/13] approximant with scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26, 1179, 2005) written in numpy, and step with dense
matrix-vector products, a cost fixed by the dimension. Its scaling
exponent also comes from the exact 1-norm. Of scipy only the compiled
CSR kernels are used, through :mod:`spinheat.csr`, which loads them
without importing ``scipy.sparse``; ``scipy.linalg`` would load scipy's
own OpenBLAS, whose thread pool beside numpy's slows every dense kernel of
the process.

Every dense kernel (expm, eig, inv) runs on the one OpenBLAS thread that
importing :mod:`spinheat` sets for the process, so its bits do not depend
on ``OPENBLAS_NUM_THREADS``. Dense blocks above ~700 coordinates give up a
second thread's wall time: stage1 at n_levels=15, gamma_ph 10 meV, takes
1.30 s against 0.98 s (CPU 1.42 against 1.84 s).

:func:`diagonalize` and :func:`propagate` sum eigenmodes instead: each
invariant block's eigenvectors R and duals R^-1, kept in the Hermitian
basis. A conjugate-pair block is decomposed on its complex half, V on C,
of half the block's dimension: its modes and their conjugates are the
block's, and its biorthonormality residual is measured on that half.
They share nothing with :func:`evolve` but the superoperator, the
Hermitian basis, the invariant blocks (exact similarities) and the gather
:func:`to_hermitian` of the start state, and serve as the oracle that the
invariant checks compare it with, coordinate by coordinate.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .csr import CSR, csr_matvec, from_coo
from .errors import NumericalError

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
# The Taylor degree and theta_55, the largest ||A||_1 t for which 55 terms
# of exp(A t) meet the backward-error bound u (Al-Mohy & Higham 2011,
# Table 3.1). The degree only caps the series, which the stopping test
# ends first: no series of the stage runs measured took over 40 products.
TAYLOR_DEGREE = 55
THETA55 = 9.9
# evolve steps a block densely when ||A||_1 t_span > dim^3 / STIFF_RATIO,
# A = W - mu, W, mu and dim the block's: dense steps cost O(dim^3) per run,
# the sparse products of Taylor steps follow ||A||_1 t_span. Stepping time
# of the stage-1 block (5 n_levels^2 coordinates; 20 ps, 401 points; one
# OpenBLAS 0.3.31 thread, CPU time at most wall time; best of 3 or 5),
# Taylor/dense wall time in s, by n_levels and gamma_ph in meV, with
# y = ||A||_1 t_span / dim^3:
#   4: 0.001 (y=6.1e-4) 0.014/0.0024, 0.1 (7.4e-4) 0.012/0.0023, 0.3
#   (1.4e-3) 0.018/0.0024, 1 (4.0e-3) 0.081/0.0024, 3 (1.1e-2) 0.17/0.0024;
#   5: 0.001 (2.0e-4) 0.017/0.0047, 0.1 (2.5e-4) 0.014/0.0049, 0.3
#   (5.3e-4) 0.030/0.0049, 1 (1.5e-3) 0.094/0.0050; 6: 0.001 (7.8e-5)
#   0.022/0.0093, 0.1 (1.1e-4) 0.019/0.0092, 0.3 (2.3e-4) 0.047/0.0089;
#   7: 0.001 (3.6e-5) 0.026/0.018, 0.1 (5.1e-5) 0.023/0.017, 0.3 (1.2e-4)
#   0.051/0.017; 8: 0.001 (1.8e-5) 0.019/0.026, 0.1 (2.7e-5) 0.028/0.030,
#   0.3 (6.5e-5) 0.060/0.026, 1 (2.0e-4) 0.16/0.035; 9: 0.001 (1.0e-5)
#   0.022/0.047, 0.1 (1.5e-5) 0.023/0.043, 0.3 (3.8e-5) 0.076/0.045;
#   10: 0.001 (5.9e-6) 0.024/0.079, 0.1 (9.2e-6) 0.026/0.078, 0.3 (2.3e-5)
#   0.083/0.072, 0.6 (4.4e-5) 0.18/0.077, 1 (7.2e-5) 0.23/0.093; 11: 0.1
#   (5.8e-6) 0.049/0.16, 0.3 (1.5e-5) 0.15/0.18, 1 (4.6e-5) 0.42/0.20;
#   12: 0.001 (2.4e-6) 0.052/0.25, 0.3 (9.8e-6) 0.16/0.27, 1 (3.1e-5)
#   0.49/0.30, 3 (9.1e-5) 1.48/0.36; 13: 0.3 (6.7e-6) 0.24/0.39, 1 (2.1e-5)
#   0.60/0.47, 3 (6.2e-5) 1.77/0.50; 14: 1 (1.5e-5) 0.74/0.64, 3 (4.4e-5)
#   2.20/0.78; 15: 0.001 (7.6e-7) 0.084/0.78, 1 (1.1e-5) 0.84/0.93, 3
#   (3.2e-5) 2.49/1.03, 10 (1.1e-4) 8.3/1.17.
# Break-even y falls with size: it lies between 2.7e-5 and 3.6e-5 at
# n_levels 7 and 8, near 2e-5 at 10 to 12 and near 1.2e-5 at 15. The
# threshold, y = 3.0e-5, sits between the n_levels 7 and 8 points, where
# the faster stepper takes 0.7-0.93 of the slower one's time. It picks the
# faster stepper, or one within 15 % of it, at every point above but
# three, where Taylor steps are taken and dense steps are faster: 10, 0.3
# meV (1.15x), 13, 1 meV (1.28x) and 14, 1 meV (1.15x). A threshold that
# follows the size needs a cost model per block.
STIFF_RATIO = 3.3e4
# Largest log2 ||W h||_1 of a dense step: expm squares about that many
# times, each a dense dim^3 product (0.06 s for the 1125-coordinate
# stage-1 block at n_levels=15 on one OpenBLAS thread).
MAX_LOG2_STEP_NORM = 40.0
# Largest invariant block made dense, for an expm step or an eig. Peak RSS
# of whole runs (2 cores, OpenBLAS 0.3.31) by n_levels, with the stage-1
# block of 5 n_levels^2 coordinates: check 144, 285, 444, 623 and 856 MiB
# at 12, 15, 18, 20 and 22 (blocks 720 to 2420); dense stage1 137, 223,
# 307 and 424 MiB at 15, 18, 20 and 22. check grows by about 125 MiB per
# 10^6 of the block's squared dimension, to about 900 MiB at this bound,
# so both stay within the 1 GiB that MAX_GRID_BYTES allows the state grid.
MAX_DENSE_DIMENSION = 2500
# Largest max |Im W| / max |Re W| that _real_form drops from its scatter of
# T V T^-1 as rounding; the assembled stage generators leave about 1e-16.
HERMITICITY_TOLERANCE = 1e-12


class BlockModes(NamedTuple):
    """Eigensystem of one invariant block of W: its Hermitian-basis
    coordinates, its eigenvalues, the right eigenvector matrix R and R^-1,
    both in the Hermitian basis. A conjugate-pair block lists the
    eigenvalues of its complex half first, then their conjugates, and the
    columns of R and rows of R^-1 of the conjugates are the exact
    conjugates of the first half's."""

    index: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    inverse: np.ndarray


class EigenPropagator(NamedTuple):
    """Eigensystem of one generator: the eigenvalues of all blocks, the
    :class:`BlockModes` of each and the largest biorthonormality residual
    (each conjugate-pair block's measured on its complex half)."""

    eigenvalues: np.ndarray
    blocks: tuple
    biorthonormality_residual: float


def diagonalize(blocks):
    """Eigendecompose each invariant :class:`Block` of a generator, as
    :func:`prepare` returns them, on its own; the modes are kept in the
    Hermitian basis.

    A block without a ``half`` is decomposed as its real W, a
    conjugate-pair block on its complex half (:func:`_pair_modes`). Duals
    come from inverting the eigenvector matrix, which enforces
    biorthonormality directly; its residual max |R^-1 R - I|, taken as
    max |U^-1 U - I| on the complex half of a pair block, measures how far
    from defective the generator is, and the largest over the blocks is
    kept. A failed decomposition, an eigenvector matrix that is singular
    or whose inverse overflows, or a block larger than MAX_DENSE_DIMENSION
    (a pair block's whole dimension) raises :class:`NumericalError`.
    """
    layout = _hermitian_layout(sum(block.index.size for block in blocks))
    modes = []
    residual = 0.0
    for block in blocks:
        w = _dense(block.w)
        try:
            if block.half is None:
                values, vectors = np.linalg.eig(w)
                inverse = _eigenvector_inverse(vectors)
                gram = inverse @ vectors
            else:
                values, vectors, inverse, gram = _pair_modes(block, w,
                                                             layout)
        except np.linalg.LinAlgError as err:
            raise NumericalError(
                f"superoperator eigendecomposition failed: {err}") from err
        modes.append(BlockModes(block.index, values, vectors, inverse))
        residual = max(residual, float(np.max(np.abs(
            gram - np.eye(gram.shape[0])))))
    eigenvalues = np.concatenate([block.eigenvalues for block in modes])
    return EigenPropagator(eigenvalues, tuple(modes), residual)


def _eigenvector_inverse(vectors):
    """R^-1 of the eigenvectors R; an inverse that overflows fails the
    decomposition as a singular R does."""
    inverse = np.linalg.inv(vectors)
    if not np.all(np.isfinite(inverse)):
        raise np.linalg.LinAlgError("eigenvector inverse is not finite")
    return inverse


def _pair_modes(block, w, layout):
    """Eigenvalues, R, R^-1 and the complex half's U^-1 U of a
    conjugate-pair :class:`Block` K u p(K) whose real W is the dense ``w``:
    the eigenvalues lambda and eigenvectors U of V on K, then conj lambda.

    T and T^-1 pair each k in K only with p(k), so V on K is the sum of
    T^-1[r, r'] W[r', c'] T[c', c] over r' in (r, p(r)) and c' in (c, p(c)):
    four gathers of ``w``. Its eigenvector u, taken as 0 on p(K), is the
    column of R with T[k, k] u_k at k and T[p(k), k] u_k at p(k); row k of
    U^-1 times T^-1 is the row of R^-1 with T^-1[k, k] and T^-1[k, p(k)]
    times its entry k at k and p(k). W is real, so conj lambda takes the
    conjugate column and row.
    """
    pairs, t, t_inv = layout
    half = block.half
    at = (np.searchsorted(block.index, half),
          np.searchsorted(block.index, pairs[1, half]))
    t, t_inv = t[:, half], t_inv[:, half]
    v = sum(t_inv[a][:, None] * w[np.ix_(at[a], at[b])] * t[b]
            for a in range(2) for b in range(2))
    values, vectors = np.linalg.eig(v)
    inverse = _eigenvector_inverse(vectors)
    m = half.size
    right = np.empty((2 * m, 2 * m), dtype=complex)
    dual = np.empty_like(right)
    for a in range(2):
        right[at[a], :m] = t[a][:, None] * vectors
        dual[:m, at[a]] = inverse * t_inv[a]
    right[:, m:] = right[:, :m].conj()
    dual[m:] = dual[:m].conj()
    return (np.concatenate([values, values.conj()]), right, dual,
            inverse @ vectors)


def propagate(rho0, ep, times):
    """Hermitian-basis coordinates of rho0 evolved to ``times`` (ps) as a
    sum over eigenmodes, complex: one row of d^2 for a scalar time, one row
    per time for an array of times. Only the blocks where R^-1 T vec(rho0)
    is nonzero are summed; the other coordinates are 0."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"propagation times must be nonnegative, got {times}")
    y = to_hermitian(rho0)
    coords = np.zeros((times.size, y.size), dtype=complex)
    for block in ep.blocks:
        c = block.inverse @ y[block.index]
        if np.any(c):
            coords[:, block.index] = (block.right @ (c[:, None] * np.exp(
                np.outer(block.eigenvalues, times)))).T
    return coords.reshape(times.shape + y.shape)


def _one_norm(m):
    """Exact ||m||_1 of a dense matrix or a CSR record without duplicates;
    inf or nan on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(m, CSR):
            return float(m.abs_column_sums().max())
        return float(abs(m).sum(axis=0).max())


def _dense(m):
    """A CSR square block as a dense array, refused before it is
    allocated when it is larger than MAX_DENSE_DIMENSION."""
    if m.shape[0] > MAX_DENSE_DIMENSION:
        raise NumericalError(
            f"dense work on an invariant block of {m.shape[0]} coordinates "
            f"is beyond {MAX_DENSE_DIMENSION}; lower n_levels")
    return m.toarray()


@functools.lru_cache
def _hermitian_layout(n):
    """The Hermitian basis of column-stacked matrices of n entries. T
    vec(rho) holds rho's diagonal, Re rho_ij at (i, j) and Im rho_ij at
    (j, i) for i < j, so T V T^-1 is real for any generator V that maps
    Hermitian matrices to Hermitian matrices. T and T^-1 pair each
    coordinate k only with its transpose partner p(k) (p(k) = k on the
    diagonal, where the partner factors are 0). Returns, each of shape
    (2, n), the pairs (k, p(k)), T's column k as (T[k, k], T[p(k), k]) and
    T^-1's row k as (T^-1[k, k], T^-1[k, p(k)]). Built once per n and
    shared by every caller, so the three arrays are read-only."""
    dim = math.isqrt(n)
    # 32-bit indices, as the assembled generator has: W and W - mu keep
    # them, which halves the index traffic of the Taylor steps' products
    own = np.arange(n, dtype=np.int32)
    col, row = np.divmod(own, dim)
    # the factors of k below, on and above the diagonal
    side = np.sign(col - row) + 1
    t = np.array([[0.5j, 1.0, 0.5], [0.5, 0.0, -0.5j]])[:, side]
    t_inv = np.array([[-1j, 1.0, 1.0], [1.0, 0.0, 1j]])[:, side]
    layout = np.array([own, row * dim + col]), t, t_inv
    for array in layout:
        array.flags.writeable = False
    return layout


def _real_form(v):
    """The real W = T V T^-1 of a CSR generator V, refused when V's
    entries are not finite or when it does not preserve Hermiticity beyond
    rounding. W is canonical (sorted, no duplicates) and stores no zeros.
    One scatter over V's entries forms it: V[r, c] adds
    T[r', r] V[r, c] T^-1[c, c'] at r' in (r, p(r)) and c' in (c, p(c)).
    """
    if not np.all(np.isfinite(v.data)):
        raise NumericalError("superoperator entries are not finite")
    pairs, t, t_inv = _hermitian_layout(v.shape[0])
    rows = np.repeat(pairs[0], np.diff(v.indptr))
    cols = v.indices
    # np.take gathers these columns several times faster than indexing
    data = ((np.take(t, rows, axis=1) * v.data)[:, None]
            * np.take(t_inv, cols, axis=1))
    targets = np.broadcast_arrays(np.take(pairs, rows, axis=1)[:, None],
                                  np.take(pairs, cols, axis=1))
    w = from_coo(data.ravel(), *(m.ravel() for m in targets), v.shape)
    imag = np.abs(w.data.imag).max(initial=0.0)
    real = np.abs(w.data.real).max(initial=0.0)
    if not imag <= HERMITICITY_TOLERANCE * real:
        raise NumericalError("the generator does not preserve Hermiticity")
    return CSR(w.indptr, w.indices, w.data.real, w.shape).eliminate_zeros()


class Shifted(NamedTuple):
    """A = W - mu with mu = tr W / dim, the real generator the Taylor steps
    expand, and ||A||_1, which sizes them and picks the stepper."""

    a: CSR
    mu: float
    norm: float


def _shift(w):
    """W - mu and its 1-norm; a norm that overflows comes back inf or nan,
    which evolve rejects."""
    dim = w.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = w.trace() / dim
        a = w.minus_identity(mu)
    return Shifted(a, mu, _one_norm(a))


class Block(NamedTuple):
    """One invariant block of W: its Hermitian-basis coordinates (sorted),
    W restricted to them, and ``half``: for a conjugate-pair block
    K u p(K), the sorted coordinates K of its complex half (the one holding
    the block's first coordinate), and None for any other block. Only
    :func:`evolve` forms the :class:`Shifted` W, and only for the blocks it
    steps."""

    index: np.ndarray
    w: CSR
    half: np.ndarray | None


def _component_labels(rows, cols, count):
    """For each node of the graph on 0..count-1 with the undirected edges
    (rows[i], cols[i]), the smallest node of its connected component. Each
    round of label propagation lowers every node's label to the smallest
    label of its edges, then jumps each label to its own label."""
    labels = np.arange(count)
    while True:
        lowest = np.minimum(labels[rows], labels[cols])
        lowered = labels.copy()
        np.minimum.at(lowered, rows, lowest)
        np.minimum.at(lowered, cols, lowest)
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return labels
        labels = lowered


def prepare(v):
    """The invariant blocks of a CSR generator's real W, a tuple of
    :class:`Block` in the order of their first coordinate, each with its
    restriction of W and nothing formed for stepping. A generator refused
    by :func:`_real_form` raises :class:`NumericalError`.

    Each connected component of V's sparsity graph is labelled by its
    smallest coordinate; the components joined by the edges
    (label[k], label[p(k)]), p the transpose partner, form one block,
    which T and T^-1 then leave invariant. A block is a conjugate pair,
    with ``half`` the component that holds its first coordinate, when it
    is exactly two components that p swaps.
    """
    w = _real_form(v)
    dim = v.shape[0]
    label = _component_labels(np.repeat(np.arange(dim), np.diff(v.indptr)),
                              v.indices, dim)
    partner = label[_hermitian_layout(dim)[0][1]]
    group = _component_labels(label, partner, dim)[label]
    # one stable sort leaves each block's coordinates sorted
    order = np.argsort(group, kind="stable")
    blocks = []
    for index in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        own = label[index]
        pair = (np.count_nonzero(own == index) == 2
                and not np.any(own == partner[index]))
        blocks.append(Block(index, w.submatrix(index),
                            index[own == index[0]] if pair else None))
    return tuple(blocks)


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
    """Whether stepping an invariant block densely over ``t_span`` ps is
    cheaper than Taylor steps, judged from the block's :class:`Shifted`
    form against STIFF_RATIO."""
    return bool(shifted.norm * t_span > shifted.a.shape[0]**3 / STIFF_RATIO)


def _taylor_blocks(t_norm):
    """The fewest blocks s for exp(A t), t ||A||_1 = ``t_norm``, with
    t_norm / s <= THETA55."""
    s = max(1, math.ceil(t_norm / THETA55))
    # t_norm / THETA55 may round across an integer either way
    if t_norm / s > THETA55:
        s += 1
    elif s > 1 and t_norm / (s - 1) <= THETA55:
        s -= 1
    return s


def _taylor_terms(a, z, span, terms):
    """Fill rows p = 0, 1, ... of ``terms``, all zero on entry, with
    (span A)^p / p! z until the series of exp(span A) z passes the
    stopping test of Al-Mohy & Higham (two consecutive terms below
    u ||partial sum||_inf) or ``terms`` is full; return the rows filled.

    Each product is one call of the CSR kernel that ``a @ x`` ends in,
    adding into the zero row, so the terms carry the bits ``a @ x`` gives.
    The running sum of the term norms bounds ||partial sum||_inf from
    above; rounding can carry the computed norm past that bound by a
    relative O(p u) only, far below the factor 2, so while the test fails
    against twice the bound it fails against the norm too, and the partial
    sum is formed only when the test can pass: the series stops at the
    same term. Its axis-0 reduce adds the rows in order, the bits of a
    running total.
    """
    n = z.size
    terms[0] = z
    scratch = np.empty_like(z)
    # np.maximum.reduce, not ndarray.max, skips a Python wrapper per term
    previous = bound = np.maximum.reduce(np.abs(z, out=scratch))
    for p in range(1, len(terms)):
        term = terms[p]
        csr_matvec(n, n, a.indptr, a.indices, a.data, terms[p - 1], term)
        term *= span / p
        current = np.maximum.reduce(np.abs(term, out=scratch))
        bound += current
        tail = previous + current
        if tail <= 2 * UNIT_ROUNDOFF * bound:
            total = np.add.reduce(terms[:p + 1], axis=0)
            if tail <= UNIT_ROUNDOFF * np.maximum.reduce(
                    np.abs(total, out=total)):
                break
        previous = current
    return terms[:p + 1]


def _taylor_steps(shifted, x, times, out, index):
    """Write the Hermitian-basis coordinates at ``times`` into columns
    ``index`` of ``out``, one row per time, by truncated Taylor series of
    the :class:`Shifted` generator (Al-Mohy & Higham 2011, Alg. 5.2)
    applied to the real vector ``x``.

    Each run of ``count`` equal steps h takes one block count s for its
    span count h (:func:`_taylor_blocks`). Output steps are cut into
    ceil(s / count) sub-steps when s > count, and the run's q sub-steps
    into blocks of floor(q / s), so that a block's span times the norm
    stays within THETA55. A block's Taylor terms, in rows of one buffer of
    TAYLOR_DEGREE + 1 allocated zero per call and zeroed again after each
    block, are summed until the series at the block's end converges,
    which bounds every earlier sample of the block too; all its samples
    then come from one matrix product, exp(k delta mu) sum_p (k / d)^p K_p
    for K_p = (d delta A)^p / p! z.
    """
    a, mu, norm = shifted
    terms = np.zeros((TAYLOR_DEGREE + 1, x.size))
    i = 0
    for h, count in _equal_step_runs(times):
        if h == 0:
            out[i:i + count, index] = x
            i += count
            continue
        s = _taylor_blocks(count * h * norm)
        sub = -(-s // count)
        q = count * sub
        block = q // s
        delta = h / sub
        for start in range(0, q, block):
            d = min(block, q - start)
            k = np.arange(1, d + 1)
            used = _taylor_terms(a, x, d * delta, terms)
            weights = (k / d)[:, None] ** np.arange(len(used))
            ys = weights @ used
            used.fill(0.0)  # the next series adds its products into zeros
            ys *= np.exp(k * delta * mu)[:, None]
            x = ys[-1]
            # blocks hold whole output steps (sub = 1) or, as q < 2 s then,
            # one sub-step each, kept when it ends an output step
            if (start + d) % sub == 0:
                out[i:i + d, index] = ys
                i += d


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


def to_hermitian(rho):
    """T vec(rho) of a square matrix: a gather over transpose partners."""
    pairs, t, _ = _hermitian_layout(rho.size)
    y = t * rho.reshape(-1, order="F")
    return y[0] + y[1, pairs[1]]


def from_hermitian(y):
    """The matrices T^-1 y of Hermitian-basis coordinates, (..., d^2) ->
    (..., d, d): for i < j, rho_ij and rho_ji are y at (i, j) plus and
    minus i times y at (j, i), and rho_ii is y at (i, i)."""
    pairs, _, t_inv = _hermitian_layout(y.shape[-1])
    vecs = t_inv[1] * y[..., pairs[1]]
    vecs += t_inv[0] * y  # in place: one complex temporary less
    dim = math.isqrt(y.shape[-1])
    return vecs.reshape(y.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def principal_positions(subset, dim):
    """Positions, in the Hermitian-basis coordinates of dim x dim matrices,
    of the principal block rho[subset][:, subset], columns outer. Sorted
    ``subset`` keeps each pair's order, so from_hermitian of the gathered
    coordinates is that block of the gathered state, bit for bit."""
    return (subset[:, None] * dim + subset).ravel()


def functional(op):
    """The real vector f with f @ y = Tr(op rho) for a Hermitian ``op`` and
    the coordinates y of any Hermitian rho. The basis is orthogonal, with
    norm 1 on the diagonal and 1/2 off it: y at (i, j) and (j, i), i < j,
    weigh E_ij + E_ji and i (E_ij - E_ji), whose traces against op are
    2 Re op_ij and 2 Im op_ij, so f is T vec(op) weighted 1 on the diagonal
    and 2 off it."""
    pairs = _hermitian_layout(op.size)[0]
    return to_hermitian(op).real * np.where(pairs[0] == pairs[1], 1.0, 2.0)


def _dense_steps(w, x, times, out, index):
    """Write the Hermitian-basis coordinates at ``times`` into columns
    ``index`` of ``out``, one row per time: one real exp(W h) per run of
    equal steps h, applied by dense matrix-vector products to the real
    vector ``x``. A step with log2 ||W h||_1 above MAX_LOG2_STEP_NORM, or a
    W larger than MAX_DENSE_DIMENSION, is refused before any dense work.
    W is made dense anew for each run, so that no dense copy of it is held
    while expm works."""
    runs = _equal_step_runs(times)
    step_norm = _one_norm(w) * max(h for h, _ in runs)
    if not step_norm <= 2.0**MAX_LOG2_STEP_NORM:
        raise NumericalError(
            f"a grid step of the generator has ||W h||_1 = {step_norm:.3g}, "
            f"beyond 2^{MAX_LOG2_STEP_NORM:g}")
    i = 0
    for h, count in runs:
        if h == 0:
            out[i:i + count, index] = x
            i += count
            continue
        step = expm(_dense(w) * h)
        for _ in range(count):
            x = step @ x
            # a 1-D scatter into the row view; out[i, index] = x takes
            # twice as long
            out[i][index] = x
            i += 1


def evolve(rho0, blocks, times):
    """Hermitian-basis coordinates of exp(V t) rho0 at each of ``times``
    (ps, nondecreasing, >= 0), for the invariant blocks of a generator V,
    as :func:`prepare` returns them.

    Returns ``(coords, used_dense)``: a real array of shape
    (len(times), d^2), exactly 0 outside the stepped blocks, and whether
    some stepped block took dense steps. The array is allocated once and
    each stepped block's stepper writes its states straight into the
    block's columns. Each stepped block's :class:`Shifted` W is formed
    here, and picks its stepper (:func:`is_stiff`). Uniform grids with a
    shorter last step, grids starting after 0 and single times all work;
    each run of equal steps is advanced together. A rho0 that is not
    exactly Hermitian raises ValueError; an occupied block with a
    non-finite 1-norm, and coordinates that are not finite, raise
    :class:`NumericalError`.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("evolve needs a nonempty nondecreasing grid from t >= 0")
    if not np.array_equal(rho0, rho0.conj().T):
        raise ValueError("evolve propagates exactly Hermitian states only")
    y = to_hermitian(rho0).real
    coords = np.zeros((times.size, y.size))
    used_dense = False
    for block in blocks:
        x0 = y[block.index]
        if not np.any(x0):
            continue  # an invariant block that starts at 0 stays at 0
        shifted = _shift(block.w)
        if not math.isfinite(shifted.norm):
            raise NumericalError("the superoperator's 1-norm is not finite")
        if is_stiff(shifted, times[-1]):
            used_dense = True
            _dense_steps(block.w, x0, times, coords, block.index)
        else:
            _taylor_steps(shifted, x0, times, coords, block.index)
    if not np.all(np.isfinite(coords)):
        raise NumericalError("propagated states are not finite")
    return coords, used_dense
