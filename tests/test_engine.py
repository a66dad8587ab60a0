"""Stage orchestration, switch-time policy, cycle ledger, spin-reservoir math.

Band-level dynamics checks live in the acceptance suite; these tests pin the
policies (switch selection, ledger identities, convention mapping) and the
fast invariants at reduced truncation.
"""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from reference import (
    expectation, min_eigenvalue, spinlabor_bound, unitary_expectations,
    unitary_state,
)

from spinheat.config import parse_config, to_engine_config
from spinheat.constants import HBAR
from spinheat.engine import (
    EIGVALSH_ROWS, _min_eigenvalues, _sample, _stage_grid, stage_machinery,
    StageConfig, Trajectory, find_switch_time,
    heat_extraction_stage, initial_state, invariant_checks, make_ledger,
    run_cycle, run_stage, run_stage1, stage_hamiltonian_spec,
    truncation_convergence, work_output_stage,
)
from spinheat.errors import NumericalError, PositivityError
from spinheat.liouvillian import build_hamiltonian
from spinheat.propagator import evolve, from_hermitian, prepare
from spinheat.quantum_core import (
    IDX_DN, IDX_UP, IDX_X, embed, level_projector, product_operators,
    thermal_state,
)


def engine_config(**overrides):
    """The stage1 defaults at n_levels=8 over 12 ps, with ``overrides``."""
    return replace(to_engine_config(parse_config("stage1")),
                   **{"n_levels": 8, "stage1_duration_ps": 12.0, **overrides})


def synthetic_trajectory(times, rho_xx, dn1):
    n = len(times)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        rho_up=np.zeros(n), rho_dn=np.zeros(n),
        rho_XX=np.asarray(rho_xx, dtype=float),
        dN1=np.asarray(dn1, dtype=float),
        Q1bar=np.zeros(n), min_eigenvalue=np.zeros(n))


def test_detuning_mapping_relaxed_reference():
    # Laser red-detuned by 2 meV from the relaxed line: the vertical-frame
    # exciton coefficient adds the full-bath reorganization energy.
    cfg = engine_config()
    spec = stage_hamiltonian_spec(heat_extraction_stage(cfg), cfg)
    assert spec.exciton_energy == pytest.approx(2.0 + 0.24377902463017737, rel=1e-12)
    assert spec.rabi_energy == pytest.approx(0.75)
    assert spec.driven_transition == IDX_UP
    # effective mode coupling energy, scheme-invariant combination
    omega1 = cfg.omega1_tilde_meV / HBAR
    hg = HBAR * spec.coupling_D1 * np.sqrt(HBAR / (2 * omega1))
    assert hg == pytest.approx(0.35880340426067636, rel=1e-9)


def test_detuning_mapping_vertical_reference():
    cfg = engine_config(detuning_reference="vertical")
    spec = stage_hamiltonian_spec(heat_extraction_stage(cfg), cfg)
    assert spec.exciton_energy == pytest.approx(2.0, rel=1e-12)


def test_work_stage_resonant_on_down_transition():
    cfg = engine_config()
    stage = work_output_stage(cfg)
    assert stage.driven_transition == IDX_DN
    assert stage.detuning_energy == 0.0
    spec = stage_hamiltonian_spec(stage, cfg)
    assert spec.exciton_energy == pytest.approx(0.24377902463017737, rel=1e-12)


def test_undriven_stage_is_stationary_for_populations():
    cfg = engine_config(n_levels=6, stage1_duration_ps=4.0)
    stage = StageConfig(driven_transition=IDX_UP, rabi_energy=0.0,
                        detuning_energy=-cfg.energy_gap_meV, duration=4.0)
    rho0 = embed(level_projector(IDX_UP),
                 thermal_state(cfg.omega1_tilde_meV / HBAR, cfg.temperature_K, 6))
    traj = run_stage(rho0, stage, cfg)
    assert np.allclose(traj.rho_up, 1.0, atol=1e-8)
    assert np.allclose(traj.rho_XX, 0.0, atol=1e-10)
    assert np.allclose(traj.dN1, 0.0, atol=1e-8)


def test_trajectory_population_conservation_and_grid():
    cfg = engine_config(n_levels=6, stage1_duration_ps=6.0)
    rho0 = embed(level_projector(IDX_UP),
                 thermal_state(cfg.omega1_tilde_meV / HBAR, cfg.temperature_K, 6))
    traj = run_stage(rho0, heat_extraction_stage(cfg), cfg)
    total = traj.rho_up + traj.rho_dn + traj.rho_XX
    assert np.max(np.abs(total - 1.0)) < 1e-8
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(6.0)
    assert np.allclose(np.diff(traj.times), 0.05)
    # exciton transfer visibly under way
    assert traj.rho_XX.max() > 0.1


def test_switch_time_single_peak():
    times = np.linspace(0.0, 10.0, 101)
    rho = np.exp(-((times - 4.0) ** 2))
    sw = find_switch_time(synthetic_trajectory(times, rho, np.zeros_like(times)))
    assert sw.time == pytest.approx(4.0)
    assert sw.from_local_maximum


def test_switch_time_prefers_smaller_heat_signature():
    times = np.linspace(0.0, 10.0, 201)
    rho = np.exp(-((times - 3.0) ** 2) / 0.1) + np.exp(-((times - 7.0) ** 2) / 0.1)
    dn1 = 0.3 - 0.4 * np.exp(-((times - 7.0) ** 2) / 2.0)
    sw = find_switch_time(synthetic_trajectory(times, rho, dn1))
    assert sw.time == pytest.approx(7.0, abs=0.05)


def test_switch_time_tie_breaks_earliest():
    times = np.linspace(0.0, 10.0, 201)
    rho = np.exp(-((times - 3.0) ** 2) / 0.1) + np.exp(-((times - 7.0) ** 2) / 0.1)
    dn1 = np.zeros_like(times)
    sw = find_switch_time(synthetic_trajectory(times, rho, dn1))
    assert sw.time == pytest.approx(3.0, abs=0.05)


def test_switch_time_monotone_fallback_flag():
    times = np.linspace(0.0, 5.0, 51)
    rho = times / 5.0
    sw = find_switch_time(synthetic_trajectory(times, rho, np.zeros_like(times)))
    assert sw.time == pytest.approx(5.0)
    assert not sw.from_local_maximum


def test_ledger_identities_and_idealized_transfer():
    ledger = make_ledger(energy_gap=2.0, transfer_probability=1.0)
    assert ledger.W_work == ledger.Q_heat == pytest.approx(2.0)
    assert ledger.spinlabor == pytest.approx(-1.0)
    assert ledger.spintherm == pytest.approx(1.0)
    assert ledger.spinlabor == -ledger.spintherm
    half = make_ledger(energy_gap=2.0, transfer_probability=0.47)
    assert half.W_work == half.Q_heat == pytest.approx(0.94)
    assert half.spinlabor == -half.spintherm == pytest.approx(-0.47)


def test_cycle_reduced_truncation_smoke():
    # Full-band cycle checks run in the acceptance suite at n_levels=15;
    # this exercises the orchestration end to end at n_levels=8.
    cfg = engine_config()
    result = run_cycle(cfg)
    assert 8.0 <= result.switch.time <= 10.5
    t_pi = np.pi * HBAR / cfg.hbar_omega2_meV
    assert 0.8 * t_pi <= result.stage2_duration <= 1.2 * t_pi
    assert result.ledger.W_work == result.ledger.Q_heat
    assert result.ledger.spinlabor == -result.ledger.spintherm
    # hand-off state for the erasure stage: diagonal electron mixture
    assert result.trajectory.rho_dn[-1] > 0.3
    assert result.trajectory.rho_XX[-1] < 0.1
    assert result.trajectory.times[-1] == pytest.approx(
        result.switch.time + result.stage2_duration, abs=0.06)
    # stage-2 grid continues the stage-1 clock
    assert np.all(np.diff(result.trajectory.times) > 0)


def test_zero_duration_stage2_counts_no_transfer():
    # a cycle cut at the switch time: stage 1 alone moves almost no
    # population into the down state
    cfg = engine_config()
    traj = run_stage1(cfg)
    k_switch = int(np.searchsorted(traj.times, find_switch_time(traj).time))
    assert abs(traj.rho_dn[k_switch] - traj.rho_dn[0]) < 5e-3


def test_truncation_convergence_pairs_neighbours_sharing_other_axes():
    keys = ("temperature_K", "n_levels")
    points = [(60.0, 6), (60.0, 4), (150.0, 4), (60.0, 5), (150.0, 5),
              (150.0, 6)]
    traces = [np.array([0.0, 0.3]), np.array([0.0, 0.1, 9.0]),
              np.array([0.5]), np.array([0.0, 0.2]), None,
              np.array([0.5004, 7.0])]
    report = truncation_convergence(keys, points, traces)
    # the failed (150 K, 5) point is skipped, so (150 K, 4) pairs with 6;
    # each group is ordered by n_levels whatever the point order, and the
    # drift is taken over the shorter trace
    assert [entry["n_levels"] for entry in report] == [[4, 5], [5, 6], [4, 6]]
    assert [entry["point_indices"] for entry in report] == [[1, 3], [3, 0],
                                                            [2, 5]]
    drifts = [entry["max_rho_XX_drift"] for entry in report]
    assert drifts == pytest.approx([0.1, 0.1, 4e-4], rel=1e-9)
    assert [entry["converged"] for entry in report] == [False, False, True]


def _nan_evolve(real):
    def evolve(rho0, v, times):
        coords, used_dense = real(rho0, v, times)
        return coords * np.nan, used_dense
    return evolve


def _nan_propagate(real):
    return lambda rho0, ep, times: real(rho0, ep, times) * np.nan


@pytest.mark.parametrize("name, poison", [("evolve", _nan_evolve),
                                          ("propagate", _nan_propagate)],
                         ids=["production", "oracle"])
def test_invariant_checks_fail_on_non_finite_propagation(monkeypatch, name,
                                                         poison):
    import spinheat.engine as engine_module
    monkeypatch.setattr(engine_module, name,
                        poison(getattr(engine_module, name)))
    records = invariant_checks(engine_config(n_levels=3, stage1_duration_ps=1.0))
    assert len(records) == 16
    failed = [(r.label, r.name) for r in records if not r.passed]
    assert [name for _, name in failed] == ["propagation_agreement"] * 4


def _check_bits(records):
    return [(r.label, r.name, r.value.hex(), r.tolerance, r.passed)
            for r in records]


def test_invariant_checks_do_not_depend_on_the_worker_count(monkeypatch):
    # one usable CPU runs the four grid points inline, four fork a worker
    # per point
    import spinheat.pool as pool_module
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cfg = engine_config(n_levels=3, stage1_duration_ps=1.0)
    runs = []
    for cpus in (1, 4):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: cpus)
        runs.append(_check_bits(invariant_checks(cfg)))
        assert len(forks) == (0 if cpus == 1 else 4)
    assert len(runs[0]) == 16
    assert runs[0] == runs[1]


def test_invariant_checks_raise_for_a_dead_worker(monkeypatch):
    import spinheat.engine as engine_module
    import spinheat.pool as pool_module
    from spinheat.engine import CHECK_GRID
    point_checks = engine_module._point_checks

    def dying(cfg, point):
        # runs in the second of two forked workers, never in pytest
        if point == CHECK_GRID[1]:
            os._exit(7)
        return point_checks(cfg, point)

    monkeypatch.setattr(engine_module, "_point_checks", dying)
    monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
    with pytest.raises(NumericalError,
                       match="^check worker exited with status 7$"):
        invariant_checks(engine_config(n_levels=3, stage1_duration_ps=1.0))


def test_trace_record_reads_the_propagated_generator(monkeypatch):
    # W, which evolve and the oracle share, leaks trace through one entry
    # of a diagonal-coordinate row; V, where the trace record once read
    # it, is left as it is
    import spinheat.propagator as propagator_module
    real_form = propagator_module._real_form

    def leaking(v):
        w = real_form(v)
        dim = math.isqrt(w.shape[0])
        row = next(k for k in range(0, w.shape[0], dim + 1)
                   if w.indptr[k + 1] > w.indptr[k])
        w.data[w.indptr[row]] += 1e-6
        return w

    monkeypatch.setattr(propagator_module, "_real_form", leaking)
    records = invariant_checks(engine_config(n_levels=3, stage1_duration_ps=1.0))
    trace = [r for r in records if r.name == "trace_annihilation"]
    assert len(trace) == 4
    assert not any(r.passed for r in trace)
    assert all(r.value > 1e-7 for r in trace)


def test_truncation_convergence_needs_a_level_axis():
    assert truncation_convergence(("temperature_K",), [(60.0,), (150.0,)],
                                  [np.zeros(3), np.zeros(3)]) == []


def test_spinlabor_bound_values():
    assert spinlabor_bound(np.log(3.0)) == pytest.approx(0.6309297535714574, rel=1e-12)
    assert spinlabor_bound(np.log(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert spinlabor_bound(1e9) == pytest.approx(0.0, abs=1e-8)


def test_spinlabor_bound_rejects_unpolarized():
    with pytest.raises(ValueError):
        spinlabor_bound(0.0)


def stage1_stack(n_levels=4, duration=2.0):
    """Stage-1 coordinates on the output grid, their times and the
    operators."""
    cfg = engine_config(n_levels=n_levels, stage1_duration_ps=duration)
    ops, v = stage_machinery(heat_extraction_stage(cfg), cfg)
    times = _stage_grid(cfg.stage1_duration_ps, cfg.grid_dt_ps)
    coords, _ = evolve(initial_state(cfg), prepare(v), times)
    return coords, times, ops


def test_vectorized_sampling_matches_per_state_reference():
    coords, times, ops = stage1_stack()
    # a perturbation well above rounding; any real coordinates are those of
    # a Hermitian state
    rng = np.random.default_rng(5)
    coords = coords + 1e-6 * rng.standard_normal(coords.shape)
    traj = _sample(coords, times, ops, None, -1.0, False)
    states = from_hermitian(coords)
    nbar = np.array([expectation(rho, ops.number).real for rho in states])
    reference = {
        "rho_up": [expectation(rho, ops.proj_up).real for rho in states],
        "rho_dn": [expectation(rho, ops.proj_dn).real for rho in states],
        "rho_XX": [expectation(rho, ops.proj_x).real for rho in states],
        "dN1": nbar - nbar[0],
        "Q1bar": [expectation(rho, ops.q1).real for rho in states],
        "min_eigenvalue": [min_eigenvalue(rho) for rho in states],
    }
    for name, values in reference.items():
        assert np.max(np.abs(getattr(traj, name) - values)) <= 1e-12, name


def test_positivity_monitor_reads_the_blocks_of_a_stage1_stack():
    # stage 1 leaves every dn-{up, X} coherence at exactly 0, so the monitor
    # diagonalizes the {up, X} x bath and dn x bath blocks, in chunks
    coords, _, _ = stage1_stack(duration=5.0)
    assert len(coords) > EIGVALSH_ROWS
    states = from_hermitian(coords)
    split = states.reshape(len(states), 4, 3, 4, 3)
    assert not np.any(split[:, :, IDX_DN, :, [IDX_UP, IDX_X]])
    full = np.linalg.eigvalsh(states)[:, 0]
    assert np.max(np.abs(_min_eigenvalues(coords) - full)) <= 1e-15
    # one coherence anywhere in the stack: every state is diagonalized
    # whole; coordinate (up, dn) is Re rho_{up,dn} = Re rho_{dn,up}
    coords = coords.copy()
    coords[-1, 12 * IDX_DN + IDX_UP] = 1e-9
    states = from_hermitian(coords)
    assert states[-1, IDX_DN, IDX_UP] == states[-1, IDX_UP, IDX_DN] == 1e-9
    assert np.array_equal(_min_eigenvalues(coords),
                          np.linalg.eigvalsh(states)[:, 0])


def test_positivity_monitor_gathers_no_whole_state_of_a_stage1_stack(
        monkeypatch):
    # n_levels=4: 12 x 12 states, whose dn x bath block holds 4 x 4
    # coordinates and whose {up, X} x bath block 8 x 8
    import spinheat.engine as engine_module
    coords, _, _ = stage1_stack(duration=5.0)
    gathered = []

    def spy(y):
        gathered.append(y.shape)
        return from_hermitian(y)

    monkeypatch.setattr(engine_module, "from_hermitian", spy)
    _min_eigenvalues(coords)
    assert {shape[1] for shape in gathered} == {16, 64}
    assert max(shape[0] for shape in gathered) == EIGVALSH_ROWS


def default_stage1_stack(overrides):
    """Stage-1 coordinates of the stage1 defaults with ``overrides`` on
    their whole 401-point grid: 13 chunks of EIGVALSH_ROWS states."""
    cfg = to_engine_config(parse_config("stage1", overrides=overrides))
    stage = heat_extraction_stage(cfg)
    times = _stage_grid(stage.duration, cfg.grid_dt_ps)
    return evolve(initial_state(cfg),
                  prepare(stage_machinery(stage, cfg)[1]), times)[0]


def all_blocks_minimum(states):
    """np.minimum of the smallest eigvalsh value of the dn x bath and
    {up, X} x bath principal blocks of each state, taken from the whole
    state."""
    level = np.arange(states.shape[-1]) % 3
    blocks = [np.flatnonzero(level == IDX_DN), np.flatnonzero(level != IDX_DN)]
    return np.minimum(*[np.linalg.eigvalsh(states[:, at[:, None], at])[:, 0]
                        for at in blocks])


@pytest.mark.parametrize("overrides", [
    ["n_levels=8"],
    ["n_levels=8", "gamma_ph_meV=0", "gamma_R_meV=0"],
    ["n_levels=10", "gamma_R_meV=1"],
    ["n_levels=8", "temperature_K=5"],
], ids=["default-8", "dissipation-free-8", "radiative-10", "cold-8"])
def test_positivity_monitor_equals_its_all_blocks_reference(overrides):
    # the default stack certifies its {up, X} x bath blocks by Cholesky in
    # all chunks but the first; the other three certify none and take both
    # blocks' eigvalsh in every chunk
    coords = default_stage1_stack(overrides)
    assert len(coords) == 401
    assert np.array_equal(_min_eigenvalues(coords),
                          all_blocks_minimum(from_hermitian(coords)))


def test_positivity_monitor_certifies_the_chunks_of_a_default_stack(
        monkeypatch):
    # the first ~15-20 states of a stack hold no exciton yet, so both of
    # their blocks have the smallest eigenvalue 0 and the first chunk's
    # certificate fails; every later chunk's succeeds
    coords = default_stage1_stack(["n_levels=8"])
    factorize = np.linalg.cholesky
    outcomes = []

    def counted(b):
        try:
            factor = factorize(b)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _min_eigenvalues(coords)
    assert len(outcomes) == 13
    assert sum(outcomes) >= 12


def test_positivity_monitor_diagonalizes_whole_states_of_stage2(
        monkeypatch):
    # the long work pulse of the output reference, from a stage-1 state
    # that holds up-X coherences: 44 states with dn-{up, X} coherences,
    # diagonalized whole with no certificate
    cfg = to_engine_config(parse_config(
        "cycle", overrides=["n_levels=6", "hbar_omega2_meV=1.0"]))
    stage1 = heat_extraction_stage(cfg)
    rho0 = from_hermitian(evolve(
        initial_state(cfg), prepare(stage_machinery(stage1, cfg)[1]),
        np.array([0.0, 9.75]))[0][-1])
    stage2 = work_output_stage(cfg)
    coords, _ = evolve(rho0, prepare(stage_machinery(stage2, cfg)[1]),
                       _stage_grid(stage2.duration, cfg.grid_dt_ps))
    assert len(coords) > EIGVALSH_ROWS
    states = from_hermitian(coords)
    assert np.any(states[:, IDX_DN::3, IDX_UP::3])
    monkeypatch.setattr(np.linalg, "cholesky", None)
    assert np.array_equal(_min_eigenvalues(coords),
                          np.linalg.eigvalsh(states)[:, 0])


@pytest.mark.parametrize("k", [0, 17, 40])
def test_sampling_names_the_first_non_positive_state(k):
    coords, times, ops = stage1_stack()
    coords = coords.copy()
    for index in (k, len(coords) - 1):  # the last state offends too
        coords[index, ::13] -= 0.01  # the diagonal of a 12 x 12 state
    with pytest.raises(PositivityError, match=f"at t={times[k]:.3f} ps"):
        _sample(coords, times, ops, None, -1e-3, False)


@pytest.mark.parametrize("n_levels", [8, 15])
def test_stage1_run_stays_within_the_grid_price(n_levels):
    # MAX_GRID_BYTES prices a grid at 16 B per coordinate per point, with
    # points = duration / grid_dt + 2: the real coordinate stack (8 B), the
    # stepped block's rows (8 B per coordinate of the block) and the
    # sampling's chunked gather must fit within that on the default grid
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"n_levels={n_levels}"]))
    rho0 = initial_state(cfg)
    stage = heat_extraction_stage(cfg)
    points = cfg.stage1_duration_ps / cfg.grid_dt_ps + 2
    tracemalloc.start()
    try:
        run_stage(rho0, stage, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= points * 16 * (3 * n_levels)**2


@pytest.mark.parametrize("n_levels", [8, 15])
def test_evolve_steps_straight_into_its_stack(n_levels):
    # the steppers write the stepped block's states into the stack that
    # evolve returns: beside it, a row buffer of the stage-1 block (5/9 of
    # the stack) would take the peak to 1.65x
    cfg = to_engine_config(parse_config(
        "stage1", overrides=[f"n_levels={n_levels}"]))
    stage = heat_extraction_stage(cfg)
    blocks = prepare(stage_machinery(stage, cfg)[1])
    rho0 = initial_state(cfg)
    times = _stage_grid(stage.duration, cfg.grid_dt_ps)
    tracemalloc.start()
    try:
        coords, _ = evolve(rho0, blocks, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * coords.nbytes


# Largest |difference| allowed between a dissipation-free run and the exact
# unitary reference, in rho_up, rho_dn, rho_XX, dN1 and Q1bar on every row:
# the largest measured was 9.8e-15 (dN1, stage 1 at n_levels=40, 150 K),
# and 3.2e-15 over the whole cycle at n_levels=15
UNITARY_TOLERANCE = 1e-13


def dissipation_free_config(n_levels, temperature):
    """The default run at ``n_levels`` and ``temperature`` with
    gamma_ph = gamma_R = 0, through the config path."""
    return to_engine_config(parse_config("cycle", overrides=[
        f"n_levels={n_levels}", f"temperature_K={temperature}",
        "gamma_ph_meV=0", "gamma_R_meV=0"]))


def unitary_series(cfg, stage, rho0, times):
    """The stage's Hamiltonian and the exact rho_up, rho_dn, rho_XX, mean
    occupation and Q1bar at ``times`` from rho0, with no dissipation."""
    ops = product_operators(cfg.n_levels, cfg.omega1_tilde_meV / HBAR)
    h = build_hamiltonian(stage_hamiltonian_spec(stage, cfg), ops)
    return h, unitary_expectations(h, rho0, (
        ops.proj_up, ops.proj_dn, ops.proj_x, ops.number, ops.q1), times)


def unitary_gap(traj, series, nbar0):
    """Largest |difference| between a trajectory's observables and the
    reference series, dN1 measured from the occupation ``nbar0``."""
    up, dn, xx, nbar, q1 = series
    return max(float(np.max(np.abs(got - want))) for got, want in (
        (traj.rho_up, up), (traj.rho_dn, dn), (traj.rho_XX, xx),
        (traj.dN1, nbar - nbar0), (traj.Q1bar, q1)))


@pytest.mark.parametrize("temperature", [60.0, 150.0])
@pytest.mark.parametrize("n_levels", [15, 40])
def test_dissipation_free_stage1_matches_the_exact_unitary_reference(
        n_levels, temperature):
    # the Hamiltonian assembly, the real generator, the invariant blocks,
    # the Taylor steps and the sampling functionals at converged sizes,
    # beyond the reach of check's eigenmode oracle
    cfg = dissipation_free_config(n_levels, temperature)
    traj = run_stage1(cfg)
    _, series = unitary_series(cfg, heat_extraction_stage(cfg),
                               initial_state(cfg), traj.times)
    assert unitary_gap(traj, series, series[3][0]) <= UNITARY_TOLERANCE


def test_dissipation_free_cycle_matches_the_exact_unitary_reference():
    # stage 2 starts from the exact state at the engine's switch time and
    # runs for the engine's refined work-pulse duration
    cfg = dissipation_free_config(15, 60.0)
    result = run_cycle(cfg)
    traj = result.trajectory
    k_switch = int(np.searchsorted(traj.times, result.switch.time))
    rho0 = initial_state(cfg)
    h1, first = unitary_series(cfg, heat_extraction_stage(cfg), rho0,
                               traj.times[:k_switch + 1])
    times2 = _stage_grid(result.stage2_duration, cfg.grid_dt_ps)[1:]
    assert np.array_equal(traj.times[k_switch + 1:],
                          result.switch.time + times2)
    _, second = unitary_series(
        cfg, work_output_stage(cfg, duration=result.stage2_duration),
        unitary_state(h1, rho0, result.switch.time), times2)
    series = np.concatenate([first, second], axis=1)
    assert unitary_gap(traj, series, first[3][0]) <= UNITARY_TOLERANCE
