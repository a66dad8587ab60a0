"""Test-only references for the dot dynamics and the ledger.

Production code needs none of these. The adaptive DOP853 integrator shares
nothing with ``propagator`` but the superoperator, so it cross-checks the
eigenmode oracle; ``superoperator`` assembles the master equation term by
term from sparse Kronecker products (``hamiltonian_superoperator``,
``lindblad_dissipator``), the reference of the one-pass assembly in
``liouvillian``; ``expectation`` and ``min_eigenvalue`` read Tr(op rho)
and the smallest eigenvalue off whole states, the per-state references of
the engine's sampling from coordinates; ``taylor_terms`` is the Taylor
term loop through ``a @ x`` that reads the partial-sum norm at every term,
which the production loop must match bit for bit; ``hermitian_basis``
writes T and T^-1 out entry by entry, the reference of the real generator
W = T V T^-1 and of the gathers between states and coordinates;
``graph_components`` takes scipy's connected components of |W| + |W|^T,
the reference of the invariant blocks that ``propagator.prepare`` finds;
``unitary_expectations`` and ``unitary_state`` propagate a stage without
dissipation exactly, from one ``eigh`` of its Hamiltonian, the reference of
the Taylor steps and the sampling at any ``n_levels``;
``basis_index`` spells out the composite-basis ordering in closed form, and
``spinlabor_bound`` is the analytic erasure cost that criterion 11 anchors
the ledger against. ``csr_record`` and ``scipy_csr`` convert between
scipy's sparse arrays and the package's :class:`~spinheat.csr.CSR` records;
every product of a record with a vector here goes through ``scipy_csr``.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from spinheat.constants import HBAR
from spinheat.csr import CSR
from spinheat.errors import NumericalError
from spinheat.propagator import UNIT_ROUNDOFF
from spinheat.quantum_core import N_ELECTRONIC


def csr_record(m):
    """A dense matrix or a scipy sparse array as a CSR record, built as
    ``scipy.sparse.csr_array(m)`` builds it."""
    m = sp.csr_array(m)
    return CSR(m.indptr, m.indices, m.data, m.shape)


def scipy_csr(m):
    """A copy of a CSR record as a ``scipy.sparse.csr_array``."""
    return sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape,
                        copy=True)


def graph_components(m):
    """Connected components of the sparsity graph |M| + |M|^T of a CSR
    record, by ``scipy.sparse.csgraph``, as sorted index arrays in the
    order of their first index."""
    graph = abs(scipy_csr(m))
    _, labels = connected_components(graph + graph.T, directed=False)
    components = {}
    for index, label in enumerate(labels.tolist()):
        components.setdefault(label, []).append(index)
    return [np.array(index) for index in sorted(components.values())]


def hermitian_basis(dim):
    """T and T^-1 for column-stacked dim x dim matrices, as scipy CSR
    arrays built entry by entry: T vec(rho) holds rho_ii at (i, i), and
    Re rho_ij at (i, j) and Im rho_ij at (j, i) for i < j."""
    t, t_inv = {}, {}
    for j in range(dim):
        for i in range(dim):
            k, k_partner = j * dim + i, i * dim + j  # rho_ij, rho_ji
            if i == j:
                t[k, k] = t_inv[k, k] = 1.0
            elif i < j:
                # Re rho_ij = (rho_ij + rho_ji) / 2 and
                # Im rho_ij = (rho_ij - rho_ji) / 2i, at (i, j) and (j, i)
                t[k, k] = t[k, k_partner] = 0.5
                t[k_partner, k], t[k_partner, k_partner] = -0.5j, 0.5j
                # rho_ij = Re + i Im and rho_ji = Re - i Im
                t_inv[k, k], t_inv[k, k_partner] = 1.0, 1j
                t_inv[k_partner, k], t_inv[k_partner, k_partner] = 1.0, -1j
    return tuple(sp.csr_array((list(m.values()), tuple(zip(*m))),
                              shape=(dim * dim,) * 2) for m in (t, t_inv))


def basis_index(x, n):
    """Flat product-space index of electronic level ``x``, oscillator level ``n``."""
    return N_ELECTRONIC * n + x


def spinlabor_bound(gamma_spin):
    """Minimum spinlabor to erase one bit, ln2 / gamma, in hbar."""
    if gamma_spin == 0:
        raise ValueError("unpolarized reservoir: erasure cost is unbounded")
    return float(np.log(2.0) / gamma_spin)


def expectation(rho, op):
    """Tr(op rho) of one state, or of each state of a stack (..., d, d).

    Complex; callers take .real for Hermitian ops, which is also the value
    on the Hermitian part of rho.
    """
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.shape[-2:] != op.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs op {op.shape}")
    return np.einsum("ij,...ji->...", op, rho)


def min_eigenvalue(rho):
    """Smallest eigenvalue of one Hermitian matrix: the per-state positivity
    monitor that the engine's batched sampling is checked against."""
    return float(np.linalg.eigvalsh(rho)[0])


def taylor_terms(a, z, span, terms):
    """Fill rows p = 0, 1, ... of ``terms`` with (span A)^p / p! z until the
    series of exp(span A) z passes the stopping test of Al-Mohy & Higham
    (two consecutive terms below u ||partial sum||_inf) or ``terms`` is
    full; return the rows filled."""
    a = scipy_csr(a)
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


def _energy_basis(h, rho0):
    """Energies E and eigenvectors U of a Hamiltonian h (meV), and rho0 in
    the energy basis, U^dag rho0 U."""
    energies, u = np.linalg.eigh(h)
    return energies, u, u.conj().T @ rho0 @ u


def unitary_state(h, rho0, t):
    """exp(-i h t / hbar) rho0 exp(i h t / hbar) at one time ``t`` (ps)."""
    energies, u, r = _energy_basis(h, rho0)
    phase = np.exp(-1j * energies * t / HBAR)
    return u @ (phase[:, None] * r * phase.conj()) @ u.conj().T


def unitary_expectations(h, rho0, ops, times):
    """Tr(op rho(t)) for each of ``ops`` (rows) at each of ``times`` (ps,
    columns) under rho(t) = exp(-i h t / hbar) rho0 exp(i h t / hbar),
    exact up to rounding at any time.

    In the energy basis rho(t)_jl = a_j R_jl conj(a_l), with R = U^dag rho0 U
    and the phases a_j = exp(-i E_j t / hbar); so with M = U^dag op U,
    Tr(op rho(t)) = sum_jl a_j G_jl conj(a_l) for G = M^T * R (entrywise):
    one product of the phase matrix A (one row per time) with G, summed
    against conj(A).
    """
    energies, u, r = _energy_basis(h, rho0)
    phases = np.exp(-1j * np.outer(times, energies) / HBAR)
    return np.array([
        np.sum(phases @ ((u.conj().T @ op @ u).T * r) * phases.conj(),
               axis=1).real for op in ops])


def integrate_direct(rho0, v, t_end, tol=1e-9, grid_dt=0.05):
    """Adaptive direct integration of dvec(rho)/dt = V vec(rho).

    Returns (times, states) sampled on a uniform grid of spacing grid_dt.
    ``v`` may be dense, a scipy sparse array or a CSR record; the
    right-hand side is one matrix-vector product.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if isinstance(v, CSR):
        v = scipy_csr(v)
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


def _left(a):
    """Superoperator of rho -> a rho."""
    return sp.kron(sp.eye_array(a.shape[0], dtype=complex), sp.csr_array(a),
                   format="csr")


def _right(b):
    """Superoperator of rho -> rho b."""
    return sp.kron(sp.csr_array(b.T), sp.eye_array(b.shape[0], dtype=complex),
                   format="csr")


def hamiltonian_superoperator(h):
    """Superoperator of the commutator term (1/i hbar)[H, rho]."""
    return (_left(h) - _right(h)) / (1j * HBAR)


def lindblad_dissipator(o):
    """Vectorized 2 O rho O^dag - O^dag O rho - rho O^dag O, unit prefactor."""
    o = np.asarray(o, dtype=complex)
    odo = o.conj().T @ o
    return (2 * sp.kron(sp.csr_array(o.conj()), sp.csr_array(o), format="csr")
            - _left(odo) - _right(odo))


def superoperator(h, dissipation, ops):
    """The master-equation generator of ``liouvillian.build_superoperator``,
    summed term by term as a CSR array."""
    v = hamiltonian_superoperator(h)
    v = v + (dissipation.gamma_R / 2) * (lindblad_dissipator(ops.lower_up)
                                         + lindblad_dissipator(ops.lower_dn))
    q, p = ops.q1, ops.p1
    # friction: (gamma/i hbar) [Q, {P, rho}]
    anti = _left(p) + _right(p)
    comm_q = _left(q) - _right(q)
    v = v + (dissipation.gamma_ph / (1j * HBAR)) * (comm_q @ anti)
    # diffusion: -(2 gamma E_th / hbar^2) [Q, [Q, rho]]
    v = v - (2 * dissipation.gamma_ph * dissipation.E_th / HBAR**2) * (comm_q @ comm_q)
    return v.tocsr()
