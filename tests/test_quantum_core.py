"""Operator construction, embedding, thermal states, expectation values.

Expected numbers are frozen from independent evaluations (ladder matrix
elements, truncated geometric sums, naive double-sum traces) so that the
implementation is tested against arithmetic it does not share.
"""

import numpy as np
import pytest
from reference import basis_index, expectation, min_eigenvalue

from spinheat.constants import HBAR
from spinheat.quantum_core import (
    IDX_UP, IDX_X,
    embed, fock_operators,
    level_projector, thermal_state, transition_operator,
)

OMEGA1 = np.sqrt(5.0) / HBAR  # rad/ps


def test_fock_dimensions_and_hermiticity():
    a, q, p, num = fock_operators(6, OMEGA1)
    for m in (a, q, p, num):
        assert m.shape == (6, 6)
    assert np.allclose(q, q.conj().T, atol=1e-14)
    assert np.allclose(p, p.conj().T, atol=1e-14)
    assert np.allclose(num, np.diag(np.arange(6)), atol=1e-14)


def test_fock_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        fock_operators(1, OMEGA1)


def test_canonical_commutator_truncation_corner():
    # [Q,P] = i hbar everywhere except the last diagonal entry, which
    # collects the truncation defect -i hbar (N_c - 1).
    n_c = 2
    _, q, p, _ = fock_operators(n_c, OMEGA1)
    comm = q @ p - p @ q
    expected = np.diag([1j * HBAR, -1j * HBAR * (n_c - 1)])
    assert np.allclose(comm, expected, atol=1e-12)


def test_canonical_commutator_bulk():
    _, q, p, _ = fock_operators(10, OMEGA1)
    comm = q @ p - p @ q
    assert np.allclose(comm[:9, :9], 1j * HBAR * np.eye(9), atol=1e-12)
    assert np.allclose(comm - np.diag(np.diag(comm)), 0.0, atol=1e-12)


def test_ground_state_position_variance():
    # <0|Q^2|0> = hbar / (2 omega); frozen at omega = sqrt(5)/hbar.
    _, q, _, _ = fock_operators(10, OMEGA1)
    q2 = (q @ q)[0, 0].real
    assert q2 == pytest.approx(0.09687607545154968, rel=1e-12)


def test_embed_identity():
    assert np.allclose(embed(np.eye(3), np.eye(7)), np.eye(21), atol=1e-15)


def test_embed_trace_factorizes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = a + a.conj().T
    b = b + b.conj().T
    assert np.trace(embed(a, b)) == pytest.approx(np.trace(a) * np.trace(b), rel=1e-12)


def test_embed_matrix_elements_follow_basis_convention():
    # Oscillator-major ordering: index(x, n) = 3 n + x.
    n_c = 4
    _, q, _, _ = fock_operators(n_c, OMEGA1)
    op = embed(level_projector(IDX_X), q)
    for n in range(n_c):
        for m in range(n_c):
            assert op[basis_index(IDX_X, n), basis_index(IDX_X, m)] == pytest.approx(q[n, m])
            assert op[basis_index(IDX_UP, n), basis_index(IDX_UP, m)] == 0.0


def test_embed_rejects_wrong_system_dimension():
    with pytest.raises(ValueError):
        embed(np.eye(4), np.eye(5))


def test_embed_preserves_hermiticity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ha, hb = a + a.conj().T, b + b.conj().T
    m = embed(ha, hb)
    assert np.allclose(m, m.conj().T, atol=1e-12)


def test_thermal_state_zero_temperature():
    rho = thermal_state(OMEGA1, 0.0, 5)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


def test_thermal_state_high_temperature_uniform():
    rho = thermal_state(OMEGA1, 1e9, 6)
    assert np.allclose(np.diag(rho).real, np.full(6, 1 / 6), atol=1e-5)


def test_thermal_state_mean_occupation_frozen():
    # Truncated Bose-Einstein sum at T = 60 K, 15 levels.
    rho = thermal_state(OMEGA1, 60.0, 15)
    nbar = np.sum(np.arange(15) * np.diag(rho).real)
    assert nbar == pytest.approx(1.825322106960095, abs=1e-10)


def test_thermal_state_diagonal_and_normalized():
    rho = thermal_state(OMEGA1, 150.0, 15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, np.diag(np.diag(rho)), atol=1e-15)
    assert np.allclose(rho, rho.conj().T, atol=1e-15)


def test_thermal_state_rejects_negative_temperature():
    with pytest.raises(ValueError):
        thermal_state(OMEGA1, -1.0, 5)


def test_expectation_normalization_and_projector():
    n_c = 4
    rho_sys = np.zeros((3, 3), dtype=complex)
    rho_sys[IDX_UP, IDX_UP] = 1.0
    bath = np.zeros((n_c, n_c), dtype=complex)
    bath[0, 0] = 1.0
    rho = embed(rho_sys, bath)
    assert expectation(rho, np.eye(3 * n_c)) == pytest.approx(1.0)
    proj = embed(level_projector(IDX_UP), np.eye(n_c))
    assert expectation(rho, proj) == pytest.approx(1.0)


def test_expectation_against_double_sum():
    rng = np.random.default_rng(11)
    d = 12
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    naive = sum(op[i, j] * rho[j, i] for i in range(d) for j in range(d))
    assert expectation(rho, op) == pytest.approx(naive, rel=1e-12)


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(4) / 4, np.eye(5))


def test_number_operator_quadrature_consistency():
    # a^dag a agrees with (P^2 + w^2 Q^2)/(2 hbar w) - 1/2 away from the
    # truncation corner.
    n_c = 9
    _, q, p, num = fock_operators(n_c, OMEGA1)
    quad = (p @ p + OMEGA1**2 * (q @ q)) / (2 * HBAR * OMEGA1) - 0.5 * np.eye(n_c)
    assert np.allclose(quad[: n_c - 2, : n_c - 2], num[: n_c - 2, : n_c - 2], atol=1e-10)


def test_transition_operator_shape():
    # sigma^- for the up transition maps |X> to |up>.
    sm = transition_operator(IDX_UP)
    expected = np.zeros((3, 3))
    expected[IDX_UP, IDX_X] = 1.0
    assert np.allclose(sm, expected)


def test_min_eigenvalue_reports_smallest():
    rho = np.diag([0.7, 0.4, -0.1]).astype(complex)
    assert min_eigenvalue(rho) == pytest.approx(-0.1, abs=1e-12)
