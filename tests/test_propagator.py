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
from scipy.optimize import linear_sum_assignment
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    csr_record, expectation, graph_components, hamiltonian_superoperator,
    hermitian_basis, integrate_direct, scipy_csr, taylor_terms,
)

from spinheat.config import parse_config, to_engine_config
from spinheat.constants import HBAR
from spinheat.engine import (
    CHECK_GRID, _stage_grid, heat_extraction_stage, initial_state as
    stage1_start, run_cycle, stage_machinery, work_output_stage,
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
    MAX_LOG2_STEP_NORM, TAYLOR_DEGREE, THETA13, THETA55, _dense_steps,
    _one_norm, _real_form, _scaling_exponent, _shift, _taylor_blocks,
    _taylor_steps, _taylor_terms, csr_matvec, diagonalize, evolve, expm,
    from_hermitian, functional, is_stiff, prepare, principal_positions,
    propagate, to_hermitian,
)
from spinheat.spectral import thermal_energy

OMEGA1 = np.sqrt(5.0) / HBAR
D1 = 1.7513886028084389

STAGE1 = StageHamiltonianSpec(
    driven_transition=IDX_UP, rabi_energy=0.75, exciton_energy=2.0,
    coupling_D1=D1)


def stage1_superoperator(n_c, gamma_ph_mev=0.001, temperature=60.0):
    ops = product_operators(n_c, OMEGA1)
    h = build_hamiltonian(STAGE1, ops)
    d = DissipationSpec(gamma_R=6.6e-4 / HBAR, gamma_ph=gamma_ph_mev / HBAR,
                        E_th=thermal_energy(temperature, OMEGA1))
    return build_superoperator(h, d, ops), ops


def initial_state(n_c, temperature=60.0):
    return embed(level_projector(IDX_UP), thermal_state(OMEGA1, temperature, n_c))


def vectors(coordinates):
    """Column-stacked states of Hermitian-basis coordinates, one row per
    row of coordinates."""
    states = from_hermitian(coordinates)
    return states.swapaxes(-1, -2).reshape(states.shape[:-2] + (-1,))


def state_gap(coords, oracle):
    """Largest |rho_ij| difference between the states of two stacks of
    coordinates (T^-1 is exact on their difference)."""
    return np.max(np.abs(from_hermitian(coords - oracle)))


def mode_vectors(ep):
    """The oracle's right eigenvectors mapped back by T^-1: one
    column-stacked matrix per row, in the order of ``ep.eigenvalues``."""
    dim = ep.eigenvalues.size
    modes = np.zeros((dim, dim), dtype=complex)
    start = 0
    for block in ep.blocks:
        modes[start:start + block.eigenvalues.size, block.index] = block.right.T
        start += block.eigenvalues.size
    return vectors(modes)


def test_diagonal_superoperator_is_its_own_eigenbasis():
    # the generator of a d = 2 system scaling rho_11 by -1 and the
    # coherences by -2 -+ 3i: diagonal and Hermiticity-preserving
    v = np.diag([0.0, -2.0 + 3.0j, -2.0 - 3.0j, -1.0])
    ep = diagonalize(prepare(csr_record(v)))
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
    assert np.max(np.abs(from_hermitian(propagate(rho0, ep, 0.0)) - rho0)) \
        < 1e-10


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
        state = from_hermitian(propagate(rho0, ep, t))
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-9)


def test_propagate_stacks_states_for_an_array_of_times():
    v, _ = stage1_superoperator(4)
    ep = diagonalize(prepare(v))
    rho0 = initial_state(4)
    times = np.array([0.0, 0.7, 3.1])
    stacked = propagate(rho0, ep, times)
    assert stacked.shape == (3, 144)
    for t, coords in zip(times, stacked):
        assert state_gap(coords, propagate(rho0, ep, t)) <= 1e-14


def test_completeness_reconstructs_random_state():
    v, _ = stage1_superoperator(4)
    ep = diagonalize(prepare(v))
    rng = np.random.default_rng(23)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    y = to_hermitian(rho)
    coordinates = np.zeros(y.size, dtype=complex)
    for block in ep.blocks:
        coordinates[block.index] = block.right @ (
            block.inverse @ y[block.index])
    recon = from_hermitian(coordinates)
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
    worst = max(np.max(np.abs(from_hermitian(propagate(rho0, ep, t)) - s))
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
    """Oracle states at ``times``, column-stacked."""
    return vectors(propagate(rho0, diagonalize(prepare(v)), times))


@pytest.mark.parametrize("times, dense", zip(GRIDS, (True, False, False)),
                         ids=GRID_IDS)
def test_evolve_matches_eigenmode_propagation(times, dense):
    # at n_levels=6 the 20 ps stage is stepped densely, the short grids by
    # Taylor steps
    v, _ = stage1_superoperator(6)
    rho0 = initial_state(6)
    coords, used_dense = evolve(rho0, prepare(v), times)
    assert used_dense is dense
    assert coords.shape == (times.size, 324)
    assert coords.dtype == float
    assert state_gap(coords, propagate(rho0, diagonalize(prepare(v)),
                                       times)) <= 1e-10


def column_stacked(rho):
    return rho.reshape(-1, order="F").astype(complex)


def real_stepping(v, rho0):
    """The real generator W of ``v`` and the Hermitian-basis coordinates of
    a Hermitian ``rho0``, as the steppers take them."""
    y = to_hermitian(rho0)
    assert not np.any(y.imag)
    return _real_form(v), y.real


def stepped_rows(stepper, generator, y, times):
    """The rows that ``stepper`` writes from ``y``: one row of coordinates
    per time, into a stack of ``y``'s coordinates alone."""
    rows = np.empty((times.size,) + y.shape)
    stepper(generator, y, times, rows, np.arange(y.size))
    return rows


@pytest.mark.parametrize("stepper", ["taylor", "dense"])
@pytest.mark.parametrize("times", GRIDS, ids=GRID_IDS)
def test_steppers_match_eigenmode_propagation(times, stepper):
    v, _ = stage1_superoperator(6)
    rho0 = initial_state(6)
    w, y = real_stepping(v, rho0)
    if stepper == "taylor":
        ys = stepped_rows(_taylor_steps, _shift(w), y, times)
    else:
        ys = stepped_rows(_dense_steps, w, y, times)
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
    assert _taylor_blocks(steps[steps > 0][0] * shifted.norm) > 1
    vecs = vectors(stepped_rows(_taylor_steps, shifted, y, times))
    assert np.max(np.abs(vecs - eigenmode_vectors(rho0, v, times))) <= 1e-10


def test_taylor_steps_under_zero_generator_match_eigenmode_propagation():
    rho0 = initial_state(3)
    v = csr_record(sp.csr_array((81, 81), dtype=complex))
    times = np.array([0.0, 0.5, 2.0])
    w, y = real_stepping(v, rho0)
    vecs = vectors(stepped_rows(_taylor_steps, _shift(w), y, times))
    assert np.max(np.abs(vecs - eigenmode_vectors(rho0, v, times))) <= 1e-10


def test_taylor_steps_are_bitwise_repeatable():
    v, _ = stage1_superoperator(6)
    w, y = real_stepping(v, initial_state(6))
    shifted = _shift(w)
    first = stepped_rows(_taylor_steps, shifted, y, GRIDS[0])
    assert np.array_equal(
        first, stepped_rows(_taylor_steps, shifted, y, GRIDS[0]))


def counting(loop, counts):
    """``loop`` as a Taylor term loop that appends its number of terms to
    ``counts``."""
    def counted(a, z, span, terms):
        used = loop(a, z, span, terms)
        counts.append(len(used))
        return used
    return counted


def assert_steps_match_the_reference_loop(monkeypatch, blocks, rho0, times):
    """Taylor steps of every block that ``rho0`` occupies equal, bit for
    bit, those of the reference term loop, block by block in the same
    number of terms."""
    import spinheat.propagator as propagator_module
    y = to_hermitian(rho0)
    stepped = 0
    for block in blocks:
        x = y.real[block.index]
        if not np.any(x):
            continue
        results = []
        for loop in (_taylor_terms, taylor_terms):
            counts = []
            monkeypatch.setattr(propagator_module, "_taylor_terms",
                                counting(loop, counts))
            rows = stepped_rows(_taylor_steps, _shift(block.w), x, times)
            results.append((rows, counts))
        (rows, counts), (reference_rows, reference_counts) = results
        assert counts == reference_counts
        assert np.array_equal(rows, reference_rows)
        stepped += 1
    assert stepped


@pytest.mark.parametrize("n_levels", [4, 8, 15])
@pytest.mark.parametrize("stage_id", ["heat_extraction", "work_output"])
def test_taylor_steps_match_the_reference_loop(monkeypatch, stage_id,
                                               n_levels):
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"n_levels={n_levels}"]))
    stage1 = heat_extraction_stage(cfg)
    blocks = prepare(stage_machinery(stage1, cfg)[1])
    rho0 = stage1_start(cfg)
    times = _stage_grid(stage1.duration, cfg.grid_dt_ps)
    if stage_id == "work_output":
        # from a switch state, which occupies both blocks of stage 2
        rho0 = from_hermitian(evolve(rho0, blocks, np.array([0.0, 9.75]))[0][-1])
        stage2 = work_output_stage(cfg)
        blocks = prepare(stage_machinery(stage2, cfg)[1])
        times = _stage_grid(stage2.duration, cfg.grid_dt_ps)
    assert_steps_match_the_reference_loop(monkeypatch, blocks, rho0, times)


@pytest.mark.parametrize("temperature, gamma_ph", CHECK_GRID)
def test_taylor_steps_match_the_reference_loop_on_the_check_grid(
        monkeypatch, temperature, gamma_ph):
    cfg = replace(to_engine_config(parse_config("check")),
                  temperature_K=temperature, gamma_ph_meV=gamma_ph)
    stage = heat_extraction_stage(cfg)
    blocks = prepare(stage_machinery(stage, cfg)[1])
    assert_steps_match_the_reference_loop(
        monkeypatch, blocks, stage1_start(cfg),
        _stage_grid(stage.duration, cfg.grid_dt_ps))


@pytest.mark.parametrize("overrides", [
    ["n_levels=8"], ["n_levels=15"], ["n_levels=6", "hbar_omega2_meV=1.0"],
], ids=["cycle-8", "cycle-15", "cycle-long-pulse"])
def test_every_taylor_series_of_a_cycle_stops_before_its_buffer_is_full(
        monkeypatch, overrides):
    # the stopping test, not TAYLOR_DEGREE, ends every series: the longest
    # fill 36, 27 and 41 of their TAYLOR_DEGREE + 1 rows (35, 26 and 40
    # products); BLAS-fed bits may move a stop by a term across CPUs, so
    # no tighter bound is asserted
    import spinheat.propagator as propagator_module
    counts = []
    monkeypatch.setattr(propagator_module, "_taylor_terms",
                        counting(_taylor_terms, counts))
    run_cycle(to_engine_config(parse_config("cycle", overrides=overrides)))
    assert counts
    assert max(counts) < TAYLOR_DEGREE + 1


def test_csr_kernel_matches_the_sparse_product():
    # the Taylor terms call the kernel that ``a @ x`` ends in directly: a
    # scipy that changes or removes it fails here
    v, _ = stage1_superoperator(8)
    w, y = real_stepping(v, initial_state(8))
    a = _shift(w).a
    rng = np.random.default_rng(3)
    for x in (y, rng.standard_normal(y.size)):
        out = np.zeros(y.size)
        csr_matvec(y.size, y.size, a.indptr, a.indices, a.data, x, out)
        assert np.array_equal(out, scipy_csr(a) @ x)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12))
@example(2762.1000000000004)  # t_norm / theta_55 rounds down to exactly 279
@example(306.90000000000003)  # rounds up past 31, yet t_norm / 31 <= theta_55
@example(100.0)  # 11 blocks: 100 / 11 <= theta_55 < 100 / 10
def test_taylor_blocks_are_the_fewest_within_theta(t_norm):
    s = _taylor_blocks(t_norm)
    assert t_norm / s <= THETA55
    assert s == 1 or t_norm / (s - 1) > THETA55


def relative_error(result, reference):
    return _one_norm(result - reference) / _one_norm(reference)


@pytest.mark.parametrize("n_levels", range(3, 9))
def test_expm_matches_scipy_on_check_grid_steps(n_levels):
    cfg = to_engine_config(parse_config(
        "check", overrides=[f"n_levels={n_levels}"]))
    for temperature, gamma_ph in CHECK_GRID:
        point = replace(cfg, temperature_K=temperature,
                        gamma_ph_meV=gamma_ph)
        _, v = stage_machinery(heat_extraction_stage(point), point)
        step = (scipy_csr(v) * point.grid_dt_ps).toarray()
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
    t, t_inv = hermitian_basis(9)
    assert np.array_equal((t @ t_inv).toarray(), np.eye(81))
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    y = t @ column_stacked(m + m.conj().T)
    assert np.max(np.abs(y.imag)) == 0.0
    assert np.array_equal(to_hermitian(m + m.conj().T), y)
    # the gather back is T^-1, on real and on complex coordinates
    assert np.array_equal(vectors(y.real), t_inv @ y.real)
    v, _ = stage1_superoperator(3, gamma_ph_mev=0.1)
    w = (t @ scipy_csr(v) @ t_inv).toarray()
    assert np.max(np.abs(w.imag)) <= 1e-15 * np.max(np.abs(w.real))
    # at the check sizes (n_levels 6 and 8), on stacks
    for dim in (18, 24):
        _, t_inv = hermitian_basis(dim)
        shape = (3, dim * dim)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(vectors(stack), (t_inv @ stack.T).T)


def test_from_hermitian_inverts_to_hermitian_on_a_stack():
    # bit for bit, from the complex coordinates and from their real part
    states = np.array([random_hermitian_state(12, seed)
                       for seed in range(5)])
    coords = np.array([to_hermitian(rho) for rho in states])
    assert from_hermitian(coords).shape == (5, 12, 12)
    assert np.array_equal(from_hermitian(coords), states)
    assert np.array_equal(from_hermitian(coords.real), states)


@pytest.mark.parametrize("dim", [6, 12, 24])
def test_principal_positions_gather_the_principal_block_bit_for_bit(dim):
    # random real coordinates are those of a Hermitian state, and every
    # subset size from a single level to the whole state is drawn
    rng = np.random.default_rng(dim)
    y = rng.standard_normal((5, dim * dim))
    states = from_hermitian(y)
    for size in range(1, dim + 1):
        subset = np.sort(rng.choice(dim, size, replace=False))
        block = from_hermitian(y[..., principal_positions(subset, dim)])
        assert np.array_equal(block, states[..., subset, :][..., :, subset])


@pytest.mark.parametrize("dim", [3, 12, 18, 24])
def test_functional_reads_the_trace_of_random_hermitian_matrices(dim):
    op, rho = (random_hermitian_state(dim, seed) for seed in (dim, dim + 1))
    y = to_hermitian(rho).real
    reference = expectation(rho, op).real
    # relative to the sum of the magnitudes of the terms of the trace
    scale = np.sum(np.abs(op) * np.abs(rho.T))
    assert abs(functional(op) @ y - reference) <= 1e-14 * scale
    assert functional(op).dtype == float


def test_functional_reads_the_sampled_operators():
    ops = product_operators(8, OMEGA1)
    rho = random_hermitian_state(24, 3)
    y = to_hermitian(rho).real
    for op in (ops.proj_up, ops.proj_dn, ops.proj_x, ops.number, ops.q1):
        reference = expectation(rho, op).real
        scale = np.sum(np.abs(op) * np.abs(rho.T))
        assert abs(functional(op) @ y - reference) <= 1e-14 * scale


def test_to_hermitian_is_t_on_any_state():
    # T vec(rho) of a state that is not Hermitian has an imaginary part;
    # the gather is T on it all the same
    rho = random_matrix(12, 17)
    t, _ = hermitian_basis(12)
    y = to_hermitian(rho)
    assert np.any(y.imag)
    assert np.array_equal(y, t @ column_stacked(rho))


@pytest.mark.parametrize("n_levels", [3, 4, 5, 6, 7, 8, 15])
@pytest.mark.parametrize("stage_id", ["heat_extraction", "work_output"])
def test_real_form_is_t_v_t_inverse(stage_id, n_levels):
    # the scatter over V's entries against T V T^-1 multiplied out by
    # scipy from the entry-by-entry T and T^-1
    v, _ = stage_generator(stage_id, n_levels)
    w = _real_form(v)
    t, t_inv = hermitian_basis(3 * n_levels)
    reference = t @ scipy_csr(v) @ t_inv
    scale = np.max(np.abs(w.data))
    assert np.max(np.abs(reference.imag)) <= 1e-15 * scale
    assert np.max(np.abs(scipy_csr(w) - reference.real)) <= 1e-15 * scale
    assert np.all(w.data != 0)


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
    # evolve returns real coordinates, whose states are exactly Hermitian:
    # the positivity monitor reads one triangle of each, and the switch
    # state is the next stage's start
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: dense)
    v1, _ = stage_generator("heat_extraction", 5)
    coords1, _ = evolve(initial_state(5), prepare(v1), GRIDS[0])
    v2, _ = stage_generator("work_output", 5)
    switch = from_hermitian(coords1[195])  # t = 9.75 ps
    coords2, _ = evolve(switch, prepare(v2), GRIDS[2])
    for coords in (coords1, coords2):
        assert coords.dtype == float
        states = from_hermitian(coords)
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
        run(csr_record(scipy_csr(v) + 0.1j * sp.eye_array(324)))


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
    population = prepare(v)[0]
    assert is_stiff(_shift(population.w), times[-1])
    coords, used_dense = evolve(rho0, prepare(v), times)
    assert used_dense
    ep = diagonalize(prepare(v))
    assert state_gap(coords[-1], propagate(rho0, ep, times[-1])) <= 1e-10


@pytest.mark.parametrize("gamma_ph, stiff", [(0.001, False), (1e6, True)])
def test_default_stage_branch(gamma_ph, stiff):
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"gamma_ph_meV={gamma_ph}"]))
    _, v = stage_machinery(heat_extraction_stage(cfg), cfg)
    population = prepare(v)[0]
    assert is_stiff(_shift(population.w), cfg.stage1_duration_ps) is stiff


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
        _dense_steps(w, y, np.array([0.0, h]), np.empty((2, y.size)),
                     np.arange(y.size))


@pytest.mark.parametrize("stepper", ["_taylor_steps", "_dense_steps"],
                         ids=["taylor", "dense"])
def test_evolve_rejects_non_finite_states(monkeypatch, stepper):
    # the stepper that is_stiff picks fills the block's rows with NaN
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: stepper == "_dense_steps")
    monkeypatch.setattr(propagator_module, stepper,
                        lambda generator, x, times, out, index:
                        out.fill(np.nan))
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
    population, coherence = (block.index for block in prepare(v))
    assert np.array_equal(population, np.flatnonzero(~coherences))
    assert np.array_equal(coherence, np.flatnonzero(coherences))
    assert (population.size, coherence.size) == (5 * n_levels**2,
                                                 4 * n_levels**2)
    w = scipy_csr(_real_form(v))
    assert not np.any(w[population][:, coherence].data)
    assert not np.any(w[coherence][:, population].data)


@pytest.mark.parametrize("dense", [False, True], ids=["taylor", "dense"])
def test_stage1_stays_in_its_block(monkeypatch, dense):
    import spinheat.propagator as propagator_module
    monkeypatch.setattr(propagator_module, "is_stiff",
                        lambda shifted, t_span: dense)
    v, stage = stage_generator("heat_extraction", 6)
    rho0 = initial_state(6)
    blocks = prepare(v)
    coords, _ = evolve(rho0, blocks, GRIDS[0])
    assert np.all(coords[:, coherence_block(stage, 6)] == 0.0)
    # the oracle's coefficients of the coherence block are exactly 0 too
    ep = diagonalize(blocks)
    y = to_hermitian(rho0)
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
    full = vectors(stepped_rows(_taylor_steps, _shift(w), y, times))
    coords, used_dense = evolve(rho0, prepare(v), times)
    assert not used_dense
    restricted = vectors(coords)
    assert np.max(np.abs(restricted - full)) <= 1e-14
    assert np.max(np.abs(restricted - eigenmode_vectors(rho0, v, times))) \
        <= 1e-10


def test_switch_state_propagates_both_blocks():
    # the stage-2 start holds up-X coherences, which lie in stage 2's
    # coherence block (up is its undriven level): both blocks are stepped
    v1, _ = stage_generator("heat_extraction", 5)
    rho0 = initial_state(5)
    switch = evolve(rho0, prepare(v1), np.array([0.0, 9.75]))[0][-1]
    v2, stage2 = stage_generator("work_output", 5)
    blocks = prepare(v2)
    coherences = coherence_block(stage2, 5)
    assert np.any(switch[coherences] != 0.0)
    rho_switch = from_hermitian(switch)
    times = GRIDS[2]
    coords, _ = evolve(rho_switch, blocks, times)
    assert np.all(np.any(coords[1:, coherences] != 0.0, axis=1))
    oracle = propagate(rho_switch, diagonalize(blocks), times)
    assert state_gap(coords, oracle) <= 1e-10


# both stage generators at n_levels 3-8 and the stage-1 generator at the
# default size
ORACLE_CASES = [(stage_id, n_levels) for n_levels in range(3, 9)
                for stage_id in ("heat_extraction", "work_output")]
ORACLE_CASES.append(("heat_extraction", 15))


def random_hermitian_state(dim, seed):
    """A random density matrix that equals its conjugate transpose bit for
    bit, with every entry nonzero, so that it occupies every block."""
    m = random_matrix(dim, seed)
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    assert np.array_equal(rho, rho.conj().T)
    return rho


@pytest.mark.parametrize("stage_id, n_levels", ORACLE_CASES)
def test_blocks_are_the_components_of_w_joined_from_their_halves(
        stage_id, n_levels):
    v, _ = stage_generator(stage_id, n_levels)
    blocks = prepare(v)
    assert [block.index.tolist() for block in blocks] == [
        index.tolist() for index in graph_components(_real_form(v))]
    population, coherence = blocks
    assert population.half is None
    # the coherence block is K and its transpose partners p(K), disjoint
    dim = 3 * n_levels
    col, row = np.divmod(coherence.half, dim)
    partners = np.sort(row * dim + col)
    assert not np.intersect1d(coherence.half, partners).size
    assert np.array_equal(np.union1d(coherence.half, partners),
                          coherence.index)


@pytest.mark.parametrize("stage_id, n_levels", ORACLE_CASES)
def test_oracle_modes_are_eigenmodes_of_each_full_real_block(stage_id,
                                                             n_levels):
    v, _ = stage_generator(stage_id, n_levels)
    blocks = prepare(v)
    ep = diagonalize(blocks)
    for block, modes in zip(blocks, ep.blocks):
        w = block.w.toarray()
        right = modes.right
        assert np.max(np.abs(w @ right - right * modes.eigenvalues)) <= (
            1e-12 * _one_norm(w))
        assert np.max(np.abs(modes.inverse @ right
                             - np.eye(block.index.size))) <= 1e-12
        if block.half is not None:
            reference = np.linalg.eigvals(w)
            rows, cols = linear_sum_assignment(
                np.abs(reference[:, None] - modes.eigenvalues))
            assert np.max(np.abs(reference[rows]
                                 - modes.eigenvalues[cols])) <= 1e-12
    rho0 = random_hermitian_state(3 * n_levels, n_levels)
    coords, _ = evolve(rho0, blocks, GRIDS[1])
    assert state_gap(coords, propagate(rho0, ep, GRIDS[1])) <= 1e-10


def test_each_block_takes_its_own_stepper(monkeypatch):
    # over the 20 ps stage at n_levels=8, ||A||_1 t / dim^3 of the
    # population block (320 coordinates) lies below the threshold and that
    # of the coherence block (256) above it: a state that occupies both
    # steps the first by Taylor steps and the second densely
    import spinheat.propagator as propagator_module
    v, _ = stage1_superoperator(8)
    blocks = prepare(v)
    population, coherence = blocks
    times = GRIDS[0]
    assert not is_stiff(_shift(population.w), times[-1])
    assert is_stiff(_shift(coherence.w), times[-1])
    stepped = []
    for name in ("_taylor_steps", "_dense_steps"):
        def spy(generator, x, times, out, index, name=name,
                real=getattr(propagator_module, name)):
            stepped.append((name, x.size))
            real(generator, x, times, out, index)
        monkeypatch.setattr(propagator_module, name, spy)
    rho0 = random_hermitian_state(24, 8)
    coords, used_dense = evolve(rho0, blocks, times)
    assert stepped == [("_taylor_steps", 320), ("_dense_steps", 256)]
    assert used_dense
    oracle = propagate(rho0, diagonalize(blocks), times)
    assert state_gap(coords, oracle) <= 1e-10


def test_blocks_are_the_components_of_w_where_v_breaks_the_pair_symmetry():
    # the diagonal generator of test_diagonal_superoperator_is_its_own_
    # eigenbasis with a 1e-13 entry feeding rho_10 from rho_00 but none
    # feeding rho_01: Hermiticity holds to rounding, V's components {0, 1},
    # {2}, {3} do not pair up under transposition, and W's are the blocks
    v = np.diag([0.0, -2.0 + 3.0j, -2.0 - 3.0j, -1.0])
    v[1, 0] = 1e-13
    blocks = prepare(csr_record(v))
    assert [block.index.tolist() for block in blocks] == [
        [0, 1, 2], [3]]
    assert all(block.half is None for block in blocks)
    rho0 = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, 0.5]])
    coords, _ = evolve(rho0, blocks, GRIDS[1])
    oracle = propagate(rho0, diagonalize(blocks), GRIDS[1])
    assert state_gap(coords, oracle) <= 1e-12
    assert np.max(np.abs(from_hermitian(coords[-1])[0, 1]
                         - rho0[0, 1] * np.exp((-2.0 - 3.0j) * 1.23))) \
        <= 1e-12
