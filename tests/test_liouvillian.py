"""Stage Hamiltonian assembly and master-equation superoperator.

The central check rebuilds the master equation right side in plain matrix
form, term by term, and compares it with the vectorized superoperator action
on random density matrices. The one-pass assembly is also compared entry by
entry with ``reference.superoperator``, which sums the terms as sparse
Kronecker products.
"""

from dataclasses import replace

import numpy as np
import pytest
from reference import (
    basis_index, hamiltonian_superoperator, lindblad_dissipator, scipy_csr,
    superoperator,
)

from spinheat.config import parse_config, to_engine_config
from spinheat.constants import HBAR
from spinheat.engine import (
    CHECK_GRID, dissipation_spec, heat_extraction_stage,
    stage_hamiltonian_spec, work_output_stage,
)
from spinheat.quantum_core import (
    IDX_DN, IDX_UP, IDX_X, embed, fock_operators,
    level_projector, product_operators, thermal_state,
)
from spinheat.liouvillian import (
    DissipationSpec, StageHamiltonianSpec, build_hamiltonian,
    build_superoperator,
)
from spinheat.spectral import thermal_energy

OMEGA1 = np.sqrt(5.0) / HBAR
D1 = 1.7513886028084389  # rad/ps, zeroth-moment coupling at default parameters

STAGE1 = StageHamiltonianSpec(
    driven_transition=IDX_UP, rabi_energy=0.75, exciton_energy=2.0,
    coupling_D1=D1)


def dissipation(gamma_ph_mev=0.001, temperature=60.0, gamma_r_mev=6.6e-4):
    return DissipationSpec(
        gamma_R=gamma_r_mev / HBAR,
        gamma_ph=gamma_ph_mev / HBAR,
        E_th=thermal_energy(temperature, OMEGA1))


def dense_rhs(rho, h, d, q1, p1, sm_up, sm_dn):
    """Independent matrix-form evaluation of the master equation."""
    out = (h @ rho - rho @ h) / (1j * HBAR)

    def lind(o):
        return 2 * o @ rho @ o.conj().T - o.conj().T @ o @ rho - rho @ o.conj().T @ o

    out = out + (d.gamma_R / 2) * (lind(sm_up) + lind(sm_dn))
    anti = p1 @ rho + rho @ p1
    out = out + (d.gamma_ph / (1j * HBAR)) * (q1 @ anti - anti @ q1)
    inner = q1 @ rho - rho @ q1
    out = out - (2 * d.gamma_ph * d.E_th / HBAR**2) * (q1 @ inner - inner @ q1)
    return out


def test_hamiltonian_decoupled_spectrum():
    n_c = 6
    spec = StageHamiltonianSpec(IDX_UP, 0.0, 0.0, 0.0)
    h = build_hamiltonian(spec, product_operators(n_c, OMEGA1))
    evals = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort(np.repeat(HBAR * OMEGA1 * (np.arange(n_c) + 0.5), 3))
    assert np.allclose(evals, expected, atol=1e-10)


def test_hamiltonian_drive_block_structure():
    # Matrix element rabi/2 between |up,n> and |X,n>, independent of n;
    # the standard rotating-frame convention in which rabi_energy/hbar is the
    # on-resonance Rabi frequency.
    n_c = 5
    h = build_hamiltonian(STAGE1, product_operators(n_c, OMEGA1))
    for n in range(n_c):
        el = h[basis_index(IDX_X, n), basis_index(IDX_UP, n)]
        assert el == pytest.approx(0.75 / 2, rel=1e-14)
        assert h[basis_index(IDX_X, n), basis_index(IDX_DN, n)] == 0.0


def test_hamiltonian_dressed_splitting():
    # n = 0 two-level sub-block at zero phonon coupling splits by
    # sqrt(detuning^2 + rabi^2); frozen from 2x2 eigenvalues.
    spec = StageHamiltonianSpec(IDX_UP, 0.75, 2.0, 0.0)
    h = build_hamiltonian(spec, product_operators(4, OMEGA1))
    idx = [basis_index(IDX_UP, 0), basis_index(IDX_X, 0)]
    block = h[np.ix_(idx, idx)]
    evals = np.linalg.eigvalsh(block)
    assert evals[1] - evals[0] == pytest.approx(2.1360009363293826, rel=1e-12)


def test_hamiltonian_phonon_coupling_on_exciton_only():
    n_c = 5
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    _, q1, _, _ = fock_operators(n_c, OMEGA1)
    for n in range(n_c - 1):
        el = h[basis_index(IDX_X, n), basis_index(IDX_X, n + 1)]
        assert el == pytest.approx(HBAR * D1 * q1[n, n + 1], rel=1e-12)
        assert h[basis_index(IDX_UP, n), basis_index(IDX_UP, n + 1)] == 0.0


def test_hamiltonian_hermitian():
    h = build_hamiltonian(STAGE1, product_operators(8, OMEGA1))
    assert np.allclose(h, h.conj().T, atol=1e-12)


def test_dissipator_identity_is_zero():
    sup = lindblad_dissipator(np.eye(4, dtype=complex))
    assert np.allclose(sup.toarray(), 0.0, atol=1e-14)


def test_dissipator_two_level_decay():
    # O = |g><e| on rho = |e><e| gives 2|g><g| - 2|e><e| at unit prefactor.
    o = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    sup = lindblad_dissipator(o)
    out = (sup @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.allclose(out, np.array([[2.0, 0.0], [0.0, -2.0]]), atol=1e-14)


def test_dissipator_traceless_action():
    rng = np.random.default_rng(5)
    d = 6
    o = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    sup = lindblad_dissipator(o)
    out = (sup @ rho.reshape(-1, order="F")).reshape(d, d, order="F")
    assert abs(np.trace(out)) < 1e-12


def test_hamiltonian_superoperator_closed_form():
    rng = np.random.default_rng(2)
    d = 9
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    sup = hamiltonian_superoperator(h)
    expected = (np.kron(np.eye(d), h) - np.kron(h.T, np.eye(d))) / (1j * HBAR)
    assert np.allclose(sup.toarray(), expected, atol=1e-12)


def test_superoperator_matches_dense_oracle():
    n_c = 4
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    d = dissipation()
    v = build_superoperator(h, d, ops)
    rng = np.random.default_rng(17)
    dim = 3 * n_c
    for _ in range(20):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        lhs = (scipy_csr(v) @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")
        rhs = dense_rhs(rho, h, d, ops.q1, ops.p1, ops.lower_up, ops.lower_dn)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_superoperator_trace_preserving():
    n_c = 10
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    v = build_superoperator(h, dissipation(), ops)
    vec_id = np.eye(3 * n_c, dtype=complex).reshape(-1, order="F")
    assert np.max(np.abs(vec_id.conj() @ scipy_csr(v))) < 1e-10


def test_superoperator_unitary_limit_imaginary_spectrum():
    n_c = 4
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    v = build_superoperator(h, DissipationSpec(0.0, 0.0, 0.0), ops)
    evals = np.linalg.eigvals(v.toarray())
    assert np.max(np.abs(evals.real)) < 1e-8


def test_superoperator_spectrum_left_half_plane():
    n_c = 5
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    v = build_superoperator(h, dissipation(gamma_ph_mev=0.1), ops)
    assert np.max(np.linalg.eigvals(v.toarray()).real) < 1e-8


def test_superoperator_preserves_hermiticity():
    n_c = 4
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    v = build_superoperator(h, dissipation(), ops)
    rho = embed(level_projector(IDX_UP), thermal_state(OMEGA1, 60.0, n_c))
    out = (scipy_csr(v) @ rho.reshape(-1, order="F")).reshape(3 * n_c, 3 * n_c, order="F")
    assert np.allclose(out, out.conj().T, atol=1e-10)


def test_dimension_mismatch_rejected():
    ops = product_operators(4, OMEGA1)
    h = build_hamiltonian(STAGE1, product_operators(5, OMEGA1))
    with pytest.raises(ValueError):
        build_superoperator(h, dissipation(), ops)


def one_norm(m):
    return float(abs(m).sum(axis=0).max())


@pytest.mark.parametrize("n_levels", [*range(3, 9), 15])
def test_superoperator_matches_term_by_term_reference(n_levels):
    cfg = to_engine_config(parse_config(
        "check", overrides=[f"n_levels={n_levels}"]))
    for temperature, gamma_ph in CHECK_GRID:
        point = replace(cfg, temperature_K=temperature,
                        gamma_ph_meV=gamma_ph)
        ops = product_operators(point.n_levels, point.omega1_tilde_meV / HBAR)
        for stage in (heat_extraction_stage(point), work_output_stage(point)):
            h = build_hamiltonian(stage_hamiltonian_spec(stage, point), ops)
            d = dissipation_spec(point)
            v = build_superoperator(h, d, ops)
            reference = superoperator(h, d, ops)
            assert v.nnz == reference.nnz
            assert (one_norm(scipy_csr(v) - reference)
                    <= 1e-15 * one_norm(reference))
