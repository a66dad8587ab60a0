"""Grid propagation, the dense exponential, eigendecomposition and direct
adaptive integration.

The eigenmode path and the test-only direct integrator
(``reference.integrate_direct``) share nothing but the superoperator itself,
so their agreement is the module's central evidence; the production path
``evolve`` and both of its steppers are then pinned to the eigenmode path.
A closed-form Rabi oscillation pins the direct integrator independently of
both. ``scipy.linalg.expm`` is the test-side reference of the in-house
dense exponential.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm as reference_expm
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import hamiltonian_superoperator, integrate_direct

from spinheat.config import parse_config, to_engine_config
from spinheat.constants import HBAR
from spinheat.engine import (
    CHECK_GRID, heat_extraction_stage, stage_machinery, work_output_stage,
)
from spinheat.errors import NumericalError
from spinheat.quantum_core import (
    IDX_DN, IDX_UP, N_ELECTRONIC, embed, level_projector,
    product_operators, thermal_state,
)
from spinheat.liouvillian import (
    DissipationSpec, StageHamiltonianSpec, build_hamiltonian,
    build_superoperator,
)
from spinheat.propagator import (
    GATHER_ROWS, MAX_LOG2_STEP_NORM, TAYLOR_THETA, THETA13, _dense_steps,
    _from_hermitian, _hermitian_basis, _one_norm, _real_form,
    _scaling_exponent, _shift, _taylor_parameters, _taylor_steps,
    diagonalize, evolve, expm, is_stiff, prepare, propagate,
)
from spinheat.spectral import thermal_energy

OMEGA1 = np.sqrt(5.0) / HBAR
D1 = 1.7513886028084389

STAGE1 = StageHamiltonianSpec(
    driven_transition=IDX_UP, rabi_energy=0.75, detuning_energy=2.0,
    coupling_D1=D1, omega1=OMEGA1)


def stage1_superoperator(n_c, gamma_ph_mev=0.001, temperature=60.0):
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    d = DissipationSpec(gamma_R=6.6e-4 / HBAR, gamma_ph=gamma_ph_mev / HBAR,
                        E_th=thermal_energy(temperature, OMEGA1))
    return build_superoperator(h, d, ops), ops


def initial_state(n_c, temperature=60.0):
    return embed(level_projector(IDX_UP), thermal_state(OMEGA1, temperature, n_c))


def mode_vectors(ep):
    """The oracle's right eigenvectors mapped back by T^-1: one
    column-stacked matrix per row, in the order of ``ep.eigenvalues``."""
    dim = ep.t.shape[0]
    modes = np.zeros((dim, dim), dtype=complex)
    start = 0
    for block in ep.blocks:
        modes[start:start + block.eigenvalues.size, block.index] = block.right.T
        start += block.eigenvalues.size
    return _from_hermitian(modes)


def test_diagonal_superoperator_is_its_own_eigenbasis():
    # the generator of a d = 2 system scaling rho_11 by -1 and the
    # coherences by -2 -+ 3i: diagonal and Hermiticity-preserving
    v = np.diag([0.0, -2.0 + 3.0j, -2.0 - 3.0j, -1.0])
    ep = diagonalize(prepare(v))
    assert np.allclose(sorted(ep.eigenvalues, key=lambda z: (-z.real, -z.imag)),
                       [0.0, -1.0, -2.0 + 3.0j, -2.0 - 3.0j])
    # rho_00, the coherence pair (Im rho_01, Re rho_01) and rho_11
    assert [block.index.tolist() for block in ep.blocks] == [[0], [1, 2], [3]]
    for block in ep.blocks:
        assert np.allclose(block.inverse @ block.right,
                           np.eye(block.index.size), atol=1e-12)
    # mapped back, each mode is a standard basis matrix up to phase and
    # scale, the one that v scales by the mode's eigenvalue
    modes = mode_vectors(ep)
    overlap = np.abs(modes) / np.linalg.norm(modes, axis=1)[:, None]
    assert np.allclose(np.sort(overlap, axis=1), [[0, 0, 0, 1]] * 4,
                       atol=1e-12)
    assert np.allclose(np.diag(v)[np.argmax(overlap, axis=1)], ep.eigenvalues)


def test_biorthonormality_at_production_parameters():
    v, _ = stage1_superoperator(8)
    ep = diagonalize(prepare(v))
    assert ep.biorthonormality_residual <= 1e-8
    for block in ep.blocks:
        gram = block.inverse @ block.right
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8


def test_spectrum_in_left_half_plane():
    v, _ = stage1_superoperator(6, gamma_ph_mev=0.1)
    ep = diagonalize(prepare(v))
    assert np.max(ep.eigenvalues.real) <= 1e-8


def test_unique_stationary_direction():
    v, _ = stage1_superoperator(4, gamma_ph_mev=0.1)
    ep = diagonalize(prepare(v))
    assert int(np.sum(np.abs(ep.eigenvalues) <= 1e-8)) == 1


def test_propagate_identity_at_time_zero():
    v, _ = stage1_superoperator(5)
    ep = diagonalize(prepare(v))
    rho0 = initial_state(5)
    assert np.max(np.abs(propagate(rho0, ep, 0.0) - rho0)) < 1e-10


def test_propagate_rejects_negative_time():
    v, _ = stage1_superoperator(4)
    ep = diagonalize(prepare(v))
    with pytest.raises(ValueError):
        propagate(initial_state(4), ep, -1.0)


def test_propagate_preserves_trace():
    v, _ = stage1_superoperator(6)
    ep = diagonalize(prepare(v))
    rho0 = initial_state(6)
    for t in np.linspace(0.0, 20.0, 11):
        assert np.trace(propagate(rho0, ep, t)).real == pytest.approx(1.0, abs=1e-9)


def test_propagate_stacks_states_for_an_array_of_times():
    v, _ = stage1_superoperator(4)
    ep = diagonalize(prepare(v))
    rho0 = initial_state(4)
    times = np.array([0.0, 0.7, 3.1])
    stacked = propagate(rho0, ep, times)
    assert stacked.shape == (3, 12, 12)
    for t, state in zip(times, stacked):
        assert np.max(np.abs(state - propagate(rho0, ep, t))) <= 1e-14


def test_completeness_reconstructs_random_state():
    v, _ = stage1_superoperator(4)
    ep = diagonalize(prepare(v))
    rng = np.random.default_rng(23)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    y = ep.t @ column_stacked(rho)
    coordinates = np.zeros((1, y.size), dtype=complex)
    for block in ep.blocks:
        coordinates[0, block.index] = block.right @ (
            block.inverse @ y[block.index])
    recon = _from_hermitian(coordinates)[0].reshape(12, 12, order="F")
    assert np.max(np.abs(recon - rho)) < 1e-8


def test_direct_integrator_constant_under_zero_generator():
    rho0 = initial_state(3)
    times, states = integrate_direct(rho0, np.zeros((81, 81), dtype=complex), 1.0,
                                     grid_dt=0.25)
    assert np.allclose(states[-1], rho0, atol=1e-12)
    assert times[-1] == pytest.approx(1.0)


def test_direct_integrator_rabi_period():
    # Resonant two-level drive: population returns with period 2 pi hbar / E.
    rabi = 0.75
    h = np.array([[0.0, rabi / 2], [rabi / 2, 0.0]], dtype=complex)
    v = hamiltonian_superoperator(h)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    period = 2 * np.pi * HBAR / rabi
    times, states = integrate_direct(rho0, v, 2 * period, tol=1e-10, grid_dt=period / 400)
    pop = np.array([s[0, 0].real for s in states])
    # first full revival
    revival = times[np.argmax(pop[150:550]) + 150]
    assert revival == pytest.approx(period, rel=1e-3)


def test_propagate_matches_direct_integration():
    # The module's central cross-oracle check.
    v, _ = stage1_superoperator(8)
    ep = diagonalize(prepare(v))
    rho0 = initial_state(8)
    times, states = integrate_direct(rho0, v, 20.0, tol=1e-10, grid_dt=0.5)
    worst = max(np.max(np.abs(propagate(rho0, ep, t) - s))
                for t, s in zip(times, states))
    assert worst <= 1e-6


def test_stationary_state_invariant_under_direct_integration():
    v, _ = stage1_superoperator(4, gamma_ph_mev=0.1)
    ep = diagonalize(prepare(v))
    k = int(np.argmin(np.abs(ep.eigenvalues)))
    dim = 12
    rho_ss = mode_vectors(ep)[k].reshape(dim, dim, order="F")
    rho_ss = (rho_ss + rho_ss.conj().T) / 2
    rho_ss /= np.trace(rho_ss).real
    _, states = integrate_direct(rho_ss, v, 50.0, tol=1e-10, grid_dt=10.0)
    assert np.max(np.abs(states[-1] - rho_ss)) <= 1e-6


GRIDS = (
    np.arange(0.0, 20.0 + 0.025, 0.05),  # stage-1 grid
    np.append(np.arange(0.0, 1.2 + 0.025, 0.05), 1.23),  # short last step
    np.linspace(0.8, 1.2, 41) * np.pi * HBAR / 4.316,  # pi-pulse candidates
)
GRID_IDS = ["stage1", "short-last-step", "pi-candidates"]


def eigenmode_vectors(rho0, v, times):
    """Oracle states at ``times``, column-stacked as the steppers return them."""
    states = propagate(rho0, diagonalize(prepare(v)), times)
    return states.transpose(0, 2, 1).reshape(times.size, -1)


@pytest.mark.parametrize("times, dense", zip(GRIDS, (True, False, False)),
                         ids=GRID_IDS)
def test_evolve_matches_eigenmode_propagation(times, dense):
    # at n_levels=6 the 20 ps stage is stepped densely, the short grids by
    # Taylor steps
    v, _ = stage1_superoperator(6)
    rho0 = initial_state(6)
    states, used_dense = evolve(rho0, prepare(v), times)
    assert used_dense is dense
    assert states.shape == (times.size, 18, 18)
    assert np.max(np.abs(states - propagate(rho0, diagonalize(prepare(v)), times))) <= 1e-10


def column_stacked(rho):
    return rho.reshape(-1, order="F").astype(complex)


def real_stepping(v, rho0):
    """The real generator W of ``v`` and the Hermitian-basis coordinates of
    a Hermitian ``rho0``, as the steppers take them."""
    w, t = _real_form(sp.csr_array(v))
    y = t @ column_stacked(rho0)
    assert not np.any(y.imag)
    return w, y.real


def rows_for(times, y):
    """The array a stepper fills: one row of coordinates per time."""
    return np.empty((times.size,) + y.shape)


def vectors(coordinates):
    """Column-stacked states of real Hermitian-basis coordinates."""
    return _from_hermitian(coordinates.astype(complex))


@pytest.mark.parametrize("stepper", ["taylor", "dense"])
@pytest.mark.parametrize("times", GRIDS, ids=GRID_IDS)
def test_steppers_match_eigenmode_propagation(times, stepper):
    v, _ = stage1_superoperator(6)
    rho0 = initial_state(6)
    w, y = real_stepping(v, rho0)
    if stepper == "taylor":
        ys = _taylor_steps(_shift(w), y, times, rows_for(times, y))
    else:
        ys = _dense_steps(w, y, times, rows_for(times, y))
    vecs = vectors(ys)
    assert np.max(np.abs(vecs - eigenmode_vectors(rho0, v, times))) <= 1e-10


@pytest.mark.parametrize("times", [
    np.array([20.0]),  # one output step, cut into sub-steps
    np.array([0.0, 10.0, 20.0]),  # fewer output steps than blocks
    np.arange(1.5, 3.0 + 0.025, 0.05),  # first sample after t = 0
], ids=["single-time", "coarse", "late-start"])
def test_taylor_steps_match_eigenmode_propagation_off_the_stage_grid(times):
    v, _ = stage1_superoperator(6)
    rho0 = initial_state(6)
    w, y = real_stepping(v, rho0)
    shifted = _shift(w)
    # the first output step needs several blocks: it is cut into sub-steps
    steps = np.diff(times, prepend=0.0)
    assert _taylor_parameters(steps[steps > 0][0] * shifted.norm)[1] > 1
    vecs = vectors(_taylor_steps(shifted, y, times, rows_for(times, y)))
    assert np.max(np.abs(vecs - eigenmode_vectors(rho0, v, times))) <= 1e-10


def test_taylor_steps_under_zero_generator_match_eigenmode_propagation():
    rho0 = initial_state(3)
    v = sp.csr_array((81, 81), dtype=complex)
    times = np.array([0.0, 0.5, 2.0])
    w, y = real_stepping(v, rho0)
    vecs = vectors(_taylor_steps(_shift(w), y, times,
                                 rows_for(times, y)))
    assert np.max(np.abs(vecs - eigenmode_vectors(rho0, v, times))) <= 1e-10


def test_taylor_steps_are_bitwise_repeatable():
    v, _ = stage1_superoperator(6)
    w, y = real_stepping(v, initial_state(6))
    shifted = _shift(w)
    first = _taylor_steps(shifted, y, GRIDS[0], rows_for(GRIDS[0], y))
    assert np.array_equal(
        first, _taylor_steps(shifted, y, GRIDS[0], rows_for(GRIDS[0], y)))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12))
@example(2762.1000000000004)  # t_norm / theta_55 rounds down to exactly 279
def test_taylor_parameters_keep_each_block_within_theta(t_norm):
    m_star, s = _taylor_parameters(t_norm)
    assert s >= 1
    assert t_norm / s <= TAYLOR_THETA[m_star]


def relative_error(result, reference):
    return _one_norm(result - reference) / _one_norm(reference)


@pytest.mark.parametrize("n_levels", range(3, 9))
def test_expm_matches_scipy_on_check_grid_steps(n_levels):
    cfg = to_engine_config(parse_config(
        "check", overrides=[f"n_levels={n_levels}"]))
    for temperature, gamma_ph in CHECK_GRID:
        point = replace(cfg, temperature=temperature,
                        gamma_ph_energy=gamma_ph)
        _, v = stage_machinery(heat_extraction_stage(point), point)
        step = (v * point.grid_dt).toarray()
        assert relative_error(expm(step), reference_expm(step)) <= 1e-12


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("norm", np.logspace(-3, 3, 13))
def test_expm_matches_scipy_on_random_matrices(norm, dtype):
    # complex as the generators are, real as the dense steps use them
    rng = np.random.default_rng(int(np.log10(norm) * 2) + 7)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    if dtype is float:
        m = m.real.copy()
    m *= norm / _one_norm(m)
    result = expm(m)
    assert result.dtype == m.dtype
    assert relative_error(result, reference_expm(m)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0**1000))
@example(85.95072561837043)  # 16 theta_13 exactly: s = 4
@example(85.95072561837044)  # one ulp above, yet log2(norm / theta_13) = 4
def test_scaling_exponent_brings_the_norm_within_theta13(norm):
    s = _scaling_exponent(norm)
    assert _one_norm(np.array([[norm]]) / 2.0**s) <= THETA13
    assert s == 0 or norm / 2.0**(s - 1) > THETA13


def test_hermitian_basis_makes_states_and_liouvillians_real():
    t, t_inv = _hermitian_basis(9)
    assert np.array_equal((t @ t_inv).toarray(), np.eye(81))
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    y = t @ column_stacked(m + m.conj().T)
    assert np.max(np.abs(y.imag)) == 0.0
    # the gather back is T^-1, on real and on complex coordinates, over
    # more rows than it gathers at a time
    assert np.array_equal(vectors(y.real[None])[0], t_inv @ y.real)
    shape = (2 * GATHER_ROWS + 3, 81)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(_from_hermitian(stack.copy()), (t_inv @ stack.T).T)
    v, _ = stage1_superoperator(3, gamma_ph_mev=0.1)
    w = (t @ v @ t_inv).toarray()
    assert np.max(np.abs(w.imag)) <= 1e-15 * np.max(np.abs(w.real))
    # the gather that evolve and the oracle share, at the check sizes
    # (n_levels 6 and 8)
    for dim in (18, 24):
        _, t_inv = _hermitian_basis(dim)
        shape = (3, dim * dim)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(_from_hermitian(stack.copy()),
                              (t_inv @ stack.T).T)


def one_ulp_off_hermitian(n_c):
    """The initial state with coherences, one of which misses the conjugate
    of its partner by one ulp."""
    rho = initial_state(n_c) + 0.25 * (np.eye(3 * n_c, k=1)
                                       + np.eye(3 * n_c, k=-1))
    rho[0, 1] = np.nextafter(rho[0, 1].real, 1.0)
    return rho


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("rho0", [
    random_matrix(12, 11),
    one_ulp_off_hermitian(4),
    np.full((12, 12), np.nan + 0j),
], ids=["random", "one-ulp", "nan"])
def test_evolve_refuses_a_non_hermitian_state(rho0):
    v, _ = stage1_superoperator(4)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(rho0, prepare(v), GRIDS[1])


@pytest.mark.parametrize("dense", [False, True], ids=["taylor", "dense"])
def test_evolve_returns_exactly_hermitian_states(monkeypatch, dense):
    # sampling reads one triangle of each state, and the switch state is
    # the next stage's start: both rely on exact Hermiticity
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: dense)
    v1, _ = stage_generator("heat_extraction", 5)
    states1, _ = evolve(initial_state(5), prepare(v1), GRIDS[0])
    v2, _ = stage_generator("work_output", 5)
    states2, _ = evolve(states1[195], prepare(v2), GRIDS[2])  # t = 9.75 ps
    for states in (states1, states2):
        assert np.array_equal(states, states.conj().swapaxes(-1, -2))


# evolve on the stage-1 grid at n_levels=6 takes dense steps, on the short
# grid Taylor steps (test_evolve_matches_eigenmode_propagation)
GENERATOR_USES = [
    lambda v: evolve(initial_state(6), prepare(v), GRIDS[1]),
    lambda v: evolve(initial_state(6), prepare(v), GRIDS[0]),
    lambda v: diagonalize(prepare(v)),
]
GENERATOR_USE_IDS = ["taylor", "dense", "diagonalize"]


@pytest.mark.parametrize("run", GENERATOR_USES, ids=GENERATOR_USE_IDS)
def test_generator_that_breaks_hermiticity_is_refused(run):
    # rho -> 0.1 i rho takes Hermitian states to anti-Hermitian ones
    v, _ = stage1_superoperator(6)
    with pytest.raises(NumericalError, match="Hermiticity"):
        run(v + 0.1j * sp.eye_array(324))


@pytest.mark.parametrize("run", GENERATOR_USES, ids=GENERATOR_USE_IDS)
def test_propagation_leaves_the_generator_untouched(run):
    v, _ = stage1_superoperator(6)
    indices, data = v.indices.copy(), v.data.copy()
    run(v)
    assert np.array_equal(v.indices, indices)
    assert np.array_equal(v.data, data)


def test_evolve_stiff_branch_matches_eigenmode_propagation():
    v, _ = stage1_superoperator(4, gamma_ph_mev=30.0)
    rho0 = initial_state(4)
    times = np.arange(0.0, 2.0 + 0.025, 0.05)
    assert is_stiff(prepare(v).shifted, times[-1])
    states, used_dense = evolve(rho0, prepare(v), times)
    assert used_dense
    ep = diagonalize(prepare(v))
    assert np.max(np.abs(states[-1] - propagate(rho0, ep, times[-1]))) <= 1e-10


@pytest.mark.parametrize("gamma_ph, stiff", [(0.001, False), (1e6, True)])
def test_default_stage_branch(gamma_ph, stiff):
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"gamma_ph_meV={gamma_ph}"]))
    _, v = stage_machinery(heat_extraction_stage(cfg), cfg)
    assert is_stiff(prepare(v).shifted, cfg.stage1_duration) is stiff


def test_evolve_rejects_non_finite_generator():
    v, _ = stage1_superoperator(3)
    v.data[0] = np.nan
    with pytest.raises(NumericalError):
        evolve(initial_state(3), prepare(v), [0.0, 1.0])


def test_dense_steps_refuse_an_oversized_step_before_expm(monkeypatch):
    import spinheat.propagator as propagator_module

    def unreachable(*args):
        raise AssertionError("expm ran")

    monkeypatch.setattr(propagator_module, "expm", unreachable)
    v, _ = stage1_superoperator(3)
    w, y = real_stepping(v, initial_state(3))
    h = 2.0**(MAX_LOG2_STEP_NORM + 1) / _one_norm(w)
    with pytest.raises(NumericalError, match="beyond 2"):
        _dense_steps(w, y, np.array([0.0, h]), np.empty((2, y.size)))


def test_evolve_rejects_non_finite_states(monkeypatch):
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "_taylor_steps",
                        lambda shifted, x, times, out: out.fill(np.nan))
    v, _ = stage1_superoperator(3)
    with pytest.raises(NumericalError, match="not finite"):
        evolve(initial_state(3), prepare(v), [0.0, 0.1])


def stage_generator(stage_id, n_levels):
    """A stage generator at the defaults and the stage it belongs to."""
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"n_levels={n_levels}"]))
    stage = (heat_extraction_stage(cfg) if stage_id == "heat_extraction"
             else work_output_stage(cfg))
    return stage_machinery(stage, cfg)[1], stage


def coherence_block(stage, n_levels):
    """Coordinates of the o x {g, X} coherences and their conjugates, o the
    ground level the stage does not drive; every other coordinate is in
    {g, X} x {g, X} or (o, o). Product-space index m holds electronic
    level m % N_ELECTRONIC."""
    other = IDX_DN if stage.driven_transition == IDX_UP else IDX_UP
    dim = N_ELECTRONIC * n_levels
    col, row = np.divmod(np.arange(dim * dim), dim)
    return (row % N_ELECTRONIC == other) != (col % N_ELECTRONIC == other)


@pytest.mark.parametrize("n_levels", [4, 8, 15])
@pytest.mark.parametrize("stage_id", ["heat_extraction", "work_output"])
def test_blocks_are_the_selection_rule_sets(stage_id, n_levels):
    v, stage = stage_generator(stage_id, n_levels)
    coherences = coherence_block(stage, n_levels)
    prepared = prepare(v)
    population, coherence = (block.index for block in prepared.blocks)
    assert np.array_equal(population, np.flatnonzero(~coherences))
    assert np.array_equal(coherence, np.flatnonzero(coherences))
    assert (population.size, coherence.size) == (5 * n_levels**2,
                                                 4 * n_levels**2)
    w, _ = _real_form(sp.csr_array(v))
    assert not np.any(w[population][:, coherence].data)
    assert not np.any(w[coherence][:, population].data)


@pytest.mark.parametrize("dense", [False, True], ids=["taylor", "dense"])
def test_stage1_stays_in_its_block(monkeypatch, dense):
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: dense)
    v, stage = stage_generator("heat_extraction", 6)
    rho0 = initial_state(6)
    prepared = prepare(v)
    states, _ = evolve(rho0, prepared, GRIDS[0])
    outside = coherence_block(stage, 6).reshape(18, 18, order="F")
    assert np.all(states[:, outside] == 0.0)
    # the oracle's coefficients of the coherence block are exactly 0 too
    ep = diagonalize(prepared)
    y = ep.t @ column_stacked(rho0)
    population, coherence = (block.inverse @ y[block.index]
                             for block in ep.blocks)
    assert np.all(coherence == 0.0)
    assert np.all(population != 0.0)


@pytest.mark.parametrize("n_levels", [6, 10])
def test_restricted_taylor_steps_match_full_space_steps(monkeypatch,
                                                        n_levels):
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: False)
    v, _ = stage1_superoperator(n_levels)
    rho0 = initial_state(n_levels)
    times = GRIDS[0]
    w, y = real_stepping(v, rho0)
    full = vectors(_taylor_steps(_shift(w), y, times, rows_for(times, y)))
    states, used_dense = evolve(rho0, prepare(v), times)
    assert not used_dense
    restricted = states.transpose(0, 2, 1).reshape(times.size, -1)
    assert np.max(np.abs(restricted - full)) <= 1e-14
    assert np.max(np.abs(restricted - eigenmode_vectors(rho0, v, times))) \
        <= 1e-10


def test_switch_state_propagates_both_blocks():
    # the stage-2 start holds up-X coherences, which lie in stage 2's
    # coherence block (up is its undriven level): both blocks are stepped
    v1, _ = stage_generator("heat_extraction", 5)
    rho0 = initial_state(5)
    rho_switch = evolve(rho0, prepare(v1), np.array([0.0, 9.75]))[0][-1]
    v2, stage2 = stage_generator("work_output", 5)
    prepared = prepare(v2)
    coherences = coherence_block(stage2, 5).reshape(15, 15, order="F")
    assert np.any(rho_switch[coherences] != 0.0)
    times = GRIDS[2]
    states, _ = evolve(rho_switch, prepared, times)
    assert np.all(np.any(states[1:, coherences] != 0.0, axis=1))
    oracle = propagate(rho_switch, diagonalize(prepared), times)
    assert np.max(np.abs(states - oracle)) <= 1e-10
