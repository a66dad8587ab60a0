"""Cycle orchestration: staged drives, observables, and the angular-momentum ledger.

Two convention mappings live here, at the boundary between config values and
Hamiltonian coefficients, and nowhere else:

* Rabi energies follow the standard convention (rabi/hbar is the
  on-resonance Rabi frequency); the Hamiltonian builder applies the /2
  matrix element itself, so the engine passes config values through.
* Laser detunings are measured from the phonon-relaxed exciton line, which
  is the observable line position: the relaxed line sits one full-bath
  reorganization energy below the bare (vertical) exciton, so the
  rotating-frame exciton coefficient is (-detuning + reorganization).
  Setting ``detuning_reference="vertical"`` drops the shift.

The heat-extraction stage drives the up transition red-detuned by the
photon energy gap; the work-output stage drives the down transition
resonantly and lasts one pi pulse, locally refined because the phonon
dressing detunes the bare pi time slightly.

Each stage generator is prepared once, where it is built
(``propagator.prepare``: the invariant blocks of its real generator in the
Hermitian basis), and every propagation with it reuses those blocks: the
pi-pulse candidates and the work pulse share the stage-2 ones, and the
invariant checks hand the same blocks to the eigenmode oracle and to
``evolve``. Stage 1 starts in the block of {up, X} x {up, X} and
(dn, dn) and never leaves it; the switch state also holds up-X coherences,
so stage 2 steps the coherence block too. ``evolve`` returns the real
Hermitian-basis coordinates of the grid states; the observables are linear
functionals of them (``propagator.functional``), read in one product per
stage. The positivity monitor gathers, ``EIGVALSH_ROWS`` states at a time,
only the principal blocks it reads (whole states only when a stack holds a
dn-{up, X} coherence). It diagonalizes the smallest block, dn x bath, and
certifies that block's smallest eigenvalue as the state's by one Cholesky
factorization of the {up, X} x bath block shifted by it, which costs far
less than that block's eigenvalues; it diagonalizes the larger block too
only in a chunk where a factorization fails. The cycle's hand-off gathers
one state.

The invariant checks of the stage-1 generator and the truncation-convergence
report of an n_levels sweep verify the dot dynamics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import ConfigError, NumericalError, PositivityError
from .quantum_core import (
    IDX_DN, IDX_UP, IDX_X, N_ELECTRONIC, embed, level_projector,
    product_operators, thermal_state,
)
from .liouvillian import (
    DissipationSpec, StageHamiltonianSpec, build_hamiltonian, build_superoperator,
)
from .propagator import (
    diagonalize, evolve, from_hermitian, functional, prepare,
    principal_positions, propagate, to_hermitian,
)
from .pool import pool_results
from .spectral import reorganization_energy, thermal_energy


@dataclass(frozen=True)
class EngineConfig:
    """Physical and numerical parameters for one engine run, named by their
    config keys (``config.parameter_table``), whose suffixes give the units."""

    temperature_K: float
    gamma_ph_meV: float  # friction, as hbar*gamma
    gamma_R_meV: float  # radiative decay, as hbar*gamma
    omega_b_meV: float  # spectral cutoff
    alpha_p_over_4pi2_ps2: float  # meV-normalized coupling parameter
    omega1_tilde_meV: float  # effective-mode quantum
    hbar_omega1_meV: float  # stage-1 Rabi energy
    hbar_omega2_meV: float  # stage-2 Rabi energy
    energy_gap_meV: float  # red detuning of stage 1; also the per-photon gain
    n_levels: int
    stage1_duration_ps: float  # stage-1 window and switch search range
    grid_dt_ps: float
    detuning_reference: str  # "relaxed" or "vertical"
    positivity_abort: float


@dataclass(frozen=True)
class StageConfig:
    """One constant-drive stage. ``detuning_energy`` is the laser detuning
    relative to the driven transition (negative = red)."""

    driven_transition: int
    rabi_energy: float
    detuning_energy: float
    duration: float

    def __post_init__(self):
        if self.driven_transition == IDX_UP and self.detuning_energy > 0:
            raise ValueError("a stage driving the up transition must be "
                             "red-detuned (detuning <= 0)")
        if self.driven_transition == IDX_DN and self.detuning_energy != 0.0:
            raise ValueError("a stage driving the down transition must be "
                             "resonant")


@dataclass
class Trajectory:
    times: np.ndarray
    rho_up: np.ndarray
    rho_dn: np.ndarray
    rho_XX: np.ndarray
    dN1: np.ndarray  # change in mean mode occupation from the reference
    Q1bar: np.ndarray  # mean mode displacement
    min_eigenvalue: np.ndarray
    used_dense_propagation: bool = False

    columns = ("t_ps", "rho_up", "rho_dn", "rho_XX", "dN1", "Q1bar",
               "min_eig")

    def rows(self):
        """The CSV rows, one per grid time, in ``columns`` order."""
        return zip(self.times, self.rho_up, self.rho_dn, self.rho_XX,
                   self.dN1, self.Q1bar, self.min_eigenvalue)

    def summary(self):
        """The run summary's ``trajectory`` entry."""
        peak = int(np.argmax(self.rho_XX))
        return {"trajectory": {
            "rows": int(self.times.size),
            "peak_rho_XX": {"value": float(self.rho_XX[peak]),
                            "time_ps": float(self.times[peak])},
            "dN1_at_peak": float(self.dN1[peak]),
            "final": {"rho_up": float(self.rho_up[-1]),
                      "rho_dn": float(self.rho_dn[-1]),
                      "rho_XX": float(self.rho_XX[-1])},
            "min_eigenvalue": float(np.min(self.min_eigenvalue)),
            "used_dense_propagation": bool(self.used_dense_propagation),
        }}


_SERIES = ("rho_up", "rho_dn", "rho_XX", "dN1", "Q1bar", "min_eigenvalue")


@dataclass(frozen=True)
class SwitchResult:
    time: float
    from_local_maximum: bool


@dataclass(frozen=True)
class CycleLedger:
    """Per-cycle accounting. Energies in meV, angular momentum in hbar."""

    Q_heat: float
    W_work: float
    spinlabor: float
    spintherm: float
    transfer_probability: float


@dataclass(frozen=True)
class CycleResult:
    trajectory: Trajectory
    ledger: CycleLedger
    switch: SwitchResult
    stage2_duration: float

    columns = Trajectory.columns

    def rows(self):
        return self.trajectory.rows()

    def summary(self):
        """The trajectory's summary with the switch, the work pulse, the
        ledger and the electron populations of the last row."""
        summary = self.trajectory.summary()
        final = summary["trajectory"]["final"]
        ledger = self.ledger
        summary.update({
            "switch": {"time_ps": float(self.switch.time),
                       "from_local_maximum":
                           bool(self.switch.from_local_maximum)},
            "stage2_duration_ps": float(self.stage2_duration),
            "ledger": {
                "heat_meV": float(ledger.Q_heat),
                "work_meV": float(ledger.W_work),
                "spinlabor_hbar": float(ledger.spinlabor),
                "spintherm_hbar": float(ledger.spintherm),
                "transfer_probability": float(ledger.transfer_probability),
            },
            "final_populations": {"up": final["rho_up"],
                                  "dn": final["rho_dn"],
                                  "exciton": final["rho_XX"]},
        })
        return summary


def heat_extraction_stage(cfg):
    return StageConfig(driven_transition=IDX_UP,
                       rabi_energy=cfg.hbar_omega1_meV,
                       detuning_energy=-cfg.energy_gap_meV,
                       duration=cfg.stage1_duration_ps)


def work_output_stage(cfg, duration=None):
    if duration is None:
        duration = np.pi * HBAR / cfg.hbar_omega2_meV
    return StageConfig(driven_transition=IDX_DN,
                       rabi_energy=cfg.hbar_omega2_meV,
                       detuning_energy=0.0, duration=duration)


def stage_hamiltonian_spec(stage, cfg):
    """Map a stage description to Hamiltonian coefficients. A cutoff and
    coupling strength whose mode coupling leaves floating-point range are a
    configuration error; the reorganization energy, of lower order in the
    cutoff, is then finite too."""
    omega_b = cfg.omega_b_meV / HBAR
    try:
        coupling_d1 = np.sqrt(2 * cfg.alpha_p_over_4pi2_ps2 * omega_b**4)
    except OverflowError:  # omega_b**4 of a Python float
        coupling_d1 = math.inf
    if not math.isfinite(coupling_d1):
        raise ConfigError(
            f"omega_b_meV = {cfg.omega_b_meV:g} with alpha_p_over_4pi2_ps2 "
            f"= {cfg.alpha_p_over_4pi2_ps2:g} gives a mode coupling that is "
            "not finite")
    exciton = -stage.detuning_energy
    if cfg.detuning_reference == "relaxed":
        exciton += reorganization_energy(cfg.alpha_p_over_4pi2_ps2,
                                         cfg.omega_b_meV)
    elif cfg.detuning_reference != "vertical":
        raise ValueError(f"unknown detuning_reference {cfg.detuning_reference!r}")
    return StageHamiltonianSpec(
        driven_transition=stage.driven_transition,
        rabi_energy=stage.rabi_energy,
        exciton_energy=exciton,
        coupling_D1=coupling_d1)


def _mode_frequency(cfg):
    """The effective mode's angular frequency omega1, in rad/ps. A mode
    quantum whose position scale sqrt(hbar / 2 omega1) or whose energy
    over the kept levels leaves floating-point range is refused before
    any state or operator is built from it."""
    omega1 = cfg.omega1_tilde_meV / HBAR
    if not (math.isfinite(cfg.omega1_tilde_meV * cfg.n_levels)
            and math.isfinite(HBAR / (2 * omega1))):
        raise NumericalError(
            f"omega1_tilde_meV = {cfg.omega1_tilde_meV:g} gives a mode "
            "position scale or level energy that is not finite")
    return omega1


def dissipation_spec(cfg):
    omega1 = _mode_frequency(cfg)
    return DissipationSpec(
        gamma_R=cfg.gamma_R_meV / HBAR,
        gamma_ph=cfg.gamma_ph_meV / HBAR,
        E_th=thermal_energy(cfg.temperature_K, omega1))


def initial_state(cfg):
    """Stage-1 start: electron spin-up, mode thermal at the lattice temperature."""
    omega1 = _mode_frequency(cfg)
    return embed(level_projector(IDX_UP),
                 thermal_state(omega1, cfg.temperature_K, cfg.n_levels))


def stage_machinery(stage, cfg):
    """Operator set and assembled superoperator for one stage."""
    ops = product_operators(cfg.n_levels, _mode_frequency(cfg))
    h = build_hamiltonian(stage_hamiltonian_spec(stage, cfg), ops)
    v = build_superoperator(h, dissipation_spec(cfg), ops)
    return ops, v


def _stage_grid(duration, grid_dt):
    times = np.arange(0.0, duration + grid_dt / 2, grid_dt)
    if times.size == 0 or times[-1] < duration - 1e-12:
        times = np.append(times, duration)
    times[-1] = min(times[-1], duration)
    return times


# States that _min_eigenvalues gathers from their coordinates at a time:
# 1 MB of complex states at n_levels=15; with the gather's temporaries,
# sampling stays within the grid price of config.MAX_GRID_BYTES
EIGVALSH_ROWS = 32


def _min_eigenvalues(coords):
    """Smallest eigenvalue of each state of a stack of Hermitian-basis
    coordinates, as evolve returns them, EIGVALSH_ROWS states at a time.
    When no state holds a dn-{up, X} coherence, as in every stage-1 stack
    (evolve leaves that invariant block at exactly 0), each state is block
    diagonal: only its dn x bath and {up, X} x bath principal blocks are
    gathered from the coordinates, and the smaller of their smallest
    eigenvalues is the state's. Otherwise each whole state is gathered.
    Product-space index m holds electronic level m % N_ELECTRONIC.

    Only the smallest block, dn x bath, is diagonalized outright, giving
    each state's candidate lambda. Each larger block B, {up, X} x bath, is
    certified instead, by one batched Cholesky factorization of B - lambda I
    per chunk. In floating point Cholesky succeeds only on a matrix within
    its backward error, a few ulps of ||B||, of a positive definite one, so
    a success shows lambda_min(B) >= lambda to within that error, the
    accuracy eigvalsh has itself: lambda is the state's smallest eigenvalue
    to a few ulps, and on every stack tested it equals the smaller of both
    blocks' eigvalsh values bit for bit. numpy refuses the whole batch when
    one factorization fails (a state whose blocks tie, as at the start of
    stage 1, or whose B holds the smaller eigenvalue); such a chunk takes
    the smaller of both blocks' eigvalsh values. Whole states are one
    block, diagonalized with no certificate.
    """
    count, size = coords.shape
    dim = math.isqrt(size)
    bath = dim // N_ELECTRONIC
    # [state, bath, level, bath, level], over the coordinates' (column,
    # row): views, so the test copies nothing
    split = coords.reshape(count, bath, N_ELECTRONIC, bath, N_ELECTRONIC)
    whole = any(np.any(split[:, :, IDX_DN, :, x])
                or np.any(split[:, :, x, :, IDX_DN]) for x in (IDX_UP, IDX_X))
    level = np.arange(dim) % N_ELECTRONIC
    # the smallest block first
    subsets = ([np.arange(dim)] if whole
               else [np.flatnonzero(level == IDX_DN),
                     np.flatnonzero(level != IDX_DN)])
    smallest, *larger = [principal_positions(subset, dim)
                         for subset in subsets]
    lowest = np.empty(count)
    for start in range(0, count, EIGVALSH_ROWS):
        rows = slice(start, start + EIGVALSH_ROWS)
        low = np.linalg.eigvalsh(from_hermitian(coords[rows, smallest]))[:, 0]
        for at in larger:
            shifted = from_hermitian(coords[rows, at])
            diagonal = np.arange(shifted.shape[-1])
            shifted[:, diagonal, diagonal] -= low[:, None]
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                low = np.minimum(low, np.linalg.eigvalsh(
                    from_hermitian(coords[rows, at]))[:, 0])
        lowest[rows] = low
    return lowest


def _sample(coords, times, ops, occupation_ref, abort_threshold, used_dense):
    """Trajectory of a stack of Hermitian-basis coordinates, as ``evolve``
    returns them: the five observables in one product with their
    functionals; a smallest eigenvalue below ``abort_threshold`` raises
    :class:`PositivityError`."""
    observables = np.stack([functional(op) for op in (
        ops.proj_up, ops.proj_dn, ops.proj_x, ops.number, ops.q1)], axis=1)
    rho_up, rho_dn, rho_xx, nbar, q1bar = (coords @ observables).T
    min_eig = _min_eigenvalues(coords)
    below = np.flatnonzero(min_eig < abort_threshold)
    if below.size:
        k = below[0]
        raise PositivityError(
            f"smallest density-matrix eigenvalue {min_eig[k]:.3e} at "
            f"t={times[k]:.3f} ps fell below {abort_threshold:.1e}")
    ref = nbar[0] if occupation_ref is None else occupation_ref
    return Trajectory(times=times, rho_up=rho_up, rho_dn=rho_dn, rho_XX=rho_xx,
                      dN1=nbar - ref, Q1bar=q1bar, min_eigenvalue=min_eig,
                      used_dense_propagation=used_dense)


def _evolve_stage(rho0, stage, cfg, ops, blocks, occupation_ref=None):
    """Trajectory of one stage and its coordinates on the output grid, for
    the stage generator's invariant blocks; dN1 is measured from
    ``occupation_ref``, by default from the first sample."""
    times = _stage_grid(stage.duration, cfg.grid_dt_ps)
    coords, used_dense = evolve(rho0, blocks, times)
    traj = _sample(coords, times, ops, occupation_ref, cfg.positivity_abort,
                   used_dense)
    return traj, coords


def run_stage(rho0, stage, cfg):
    """Propagate one stage and sample the observables on the output grid."""
    ops, v = stage_machinery(stage, cfg)
    return _evolve_stage(rho0, stage, cfg, ops, prepare(v))[0]


def run_stage1(cfg):
    """The ``stage1`` run: the heat-extraction stage from its start state."""
    return run_stage(initial_state(cfg), heat_extraction_stage(cfg), cfg)


def find_switch_time(traj):
    """Hand-off point: the exciton maximum that coincides with the deepest
    phonon absorption.

    Among local maxima of the exciton population, picks the one with the
    smallest dN1 (most heat absorbed), earliest on ties. Falls back to the
    global argmax, flagged, when the trajectory has no interior maximum.
    """
    rho = traj.rho_XX
    interior = [k for k in range(1, len(rho) - 1)
                if rho[k] >= rho[k - 1] and rho[k] >= rho[k + 1]]
    if not interior:
        return SwitchResult(time=float(traj.times[np.argmax(rho)]),
                            from_local_maximum=False)
    best = min(interior, key=lambda k: (traj.dN1[k], traj.times[k]))
    return SwitchResult(time=float(traj.times[best]), from_local_maximum=True)


def make_ledger(energy_gap, transfer_probability):
    """Accounting for one cycle at the given net up-to-down transfer.

    Each transferred excitation absorbs one energy gap of phonon heat and
    re-emits it as the work gain between the two lasers, so W = Q holds
    identically; the spin ledger books -1 hbar of spinlabor against +1 hbar
    of spintherm per transfer.
    """
    p = transfer_probability
    return CycleLedger(Q_heat=energy_gap * p, W_work=energy_gap * p,
                       spinlabor=-p, spintherm=p,
                       transfer_probability=p)


def _stitch(parts):
    """One trajectory from (trajectory, row slice, clock offset) parts."""
    series = {name: np.concatenate([getattr(traj, name)[rows]
                                    for traj, rows, _ in parts])
              for name in _SERIES}
    times = np.concatenate([offset + traj.times[rows]
                            for traj, rows, offset in parts])
    return Trajectory(times=times, **series, used_dense_propagation=any(
        traj.used_dense_propagation for traj, _, _ in parts))


# the pi-pulse refinement: PI_CANDIDATES durations spread evenly over
# PI_WINDOW times the bare pi time
PI_WINDOW = (0.8, 1.2)
PI_CANDIDATES = 41


def run_cycle(cfg):
    """Heat extraction, hand-off at the switch optimum, then the work pulse.

    The work pulse is a pi pulse at the stage-2 Rabi energy, refined within
    +-20% to maximize the final down population (the phonon dressing
    slightly shifts the bare pi time). The hand-off state is the stage-1
    grid state at the switch time, and one prepared stage-2 generator
    serves both the refinement and the work pulse.
    """
    rho0 = initial_state(cfg)
    stage1 = heat_extraction_stage(cfg)
    ops, v1 = stage_machinery(stage1, cfg)
    traj1, coords1 = _evolve_stage(rho0, stage1, cfg, ops, prepare(v1))
    switch = find_switch_time(traj1)
    k_switch = int(np.searchsorted(traj1.times, switch.time))
    rho_switch = from_hermitian(coords1[k_switch])

    stage2 = work_output_stage(cfg)
    v2 = prepare(stage_machinery(stage2, cfg)[1])
    candidates = np.linspace(PI_WINDOW[0] * stage2.duration,
                             PI_WINDOW[1] * stage2.duration, PI_CANDIDATES)
    coords, _ = evolve(rho_switch, v2, candidates)
    down = coords @ functional(ops.proj_dn)
    stage2_duration = float(candidates[int(np.argmax(down))])

    nbar0 = functional(ops.number) @ to_hermitian(rho0).real
    traj2, _ = _evolve_stage(
        rho_switch, work_output_stage(cfg, duration=stage2_duration), cfg,
        ops, v2, nbar0)
    combined = _stitch([(traj1, slice(0, k_switch + 1), 0.0),
                        (traj2, slice(1, None), switch.time)])

    transfer = combined.rho_dn[-1] - combined.rho_dn[0]
    return CycleResult(trajectory=combined,
                       ledger=make_ledger(cfg.energy_gap_meV, transfer),
                       switch=switch, stage2_duration=stage2_duration)


CHECK_GRID = ((60.0, 0.001), (60.0, 0.1), (150.0, 0.001), (150.0, 0.1))
CONVERGENCE_DRIFT_LIMIT = 1e-3


@dataclass(frozen=True)
class InvariantCheck:
    """One invariant at one grid point."""

    label: str
    name: str
    value: float
    tolerance: float
    passed: bool  # value <= tolerance


def _trace_residual(blocks):
    """Largest |d Tr(rho) / dt| per unit coordinate under the invariant
    blocks of W: Tr(rho) is the sum of rho's diagonal coordinates, so this
    is the largest absolute column sum of each block's W over the rows of
    its diagonal coordinates, summed from the stored entries."""
    dim = math.isqrt(sum(block.index.size for block in blocks))
    sums = []
    for block in blocks:
        w = block.w
        diagonal = np.repeat(block.index % (dim + 1) == 0, np.diff(w.indptr))
        sums.append(np.bincount(w.indices[diagonal],
                                weights=w.data[diagonal],
                                minlength=w.shape[1]))
    # np.max, unlike max(), lets a NaN sum fail the check
    return float(np.max(np.abs(np.concatenate(sums))))


def _point_checks(cfg, point):
    """The four invariant records of ``cfg`` at one (temperature K,
    gamma_ph meV) point of CHECK_GRID."""
    temperature, gamma_ph = point
    point_cfg = replace(cfg, temperature_K=temperature, gamma_ph_meV=gamma_ph)
    label = f"T={temperature:g}K gamma_ph={gamma_ph:g}meV"
    _, v = stage_machinery(heat_extraction_stage(point_cfg), point_cfg)
    blocks = prepare(v)
    trace_residual = _trace_residual(blocks)
    ep = diagonalize(blocks)
    rho0 = initial_state(point_cfg)
    times = _stage_grid(point_cfg.stage1_duration_ps, point_cfg.grid_dt_ps)
    coords, _ = evolve(rho0, blocks, times)
    # np.max, unlike max(), lets a NaN coordinate fail the check
    agreement = float(np.max(np.abs(coords - propagate(rho0, ep, times))))
    checks = (
        ("trace_annihilation", trace_residual, 1e-10),
        ("max_real_eigenvalue", float(np.max(ep.eigenvalues.real)), 1e-8),
        ("biorthonormality", float(ep.biorthonormality_residual), 1e-8),
        ("propagation_agreement", agreement, 1e-6),
    )
    return [InvariantCheck(label, name, value, tol, value <= tol)
            for name, value, tol in checks]


def invariant_checks(cfg):
    """Stage-1 generator invariants and oracle agreement at each
    (temperature K, gamma_ph meV) point of CHECK_GRID, four records per
    point in grid order: trace annihilation, no growing mode, biorthonormal
    eigenvectors, and the production propagator matching the eigenmode
    oracle on the output grid. Every record reads the invariant blocks of
    the real W that ``evolve`` steps and the oracle decomposes: trace
    annihilation their rows of diagonal coordinates, and the eigenvalue
    and biorthonormality records take the largest value over the blocks,
    each decomposed on its own. A point's records depend on that point
    alone, so the points run in the fork pool of :mod:`spinheat.pool` and
    give the records, or the first error in grid order, of an inline loop;
    a worker that dies is a NumericalError.
    """
    return [record for records in pool_results(
                lambda point: _point_checks(cfg, point), CHECK_GRID,
                len(CHECK_GRID),
                lambda point, reason: NumericalError(f"check worker {reason}"))
            for record in records]


def truncation_convergence(keys, points, traces):
    """rho_XX drift between neighbouring n_levels among runs that share
    every other axis value. ``points`` holds each run's axis values in
    ``keys`` order; a failed run has trace None and is skipped.
    """
    if "n_levels" not in keys:
        return []
    level_pos = keys.index("n_levels")
    groups = {}
    for index, combo in enumerate(points):
        if traces[index] is None:
            continue
        rest = tuple(v for k, v in enumerate(combo) if k != level_pos)
        groups.setdefault(rest, []).append((combo[level_pos], index))
    report = []
    for rest, members in sorted(groups.items()):
        members.sort()
        for (level_a, idx_a), (level_b, idx_b) in zip(members, members[1:]):
            size = min(traces[idx_a].size, traces[idx_b].size)
            drift = float(np.max(np.abs(traces[idx_a][:size]
                                        - traces[idx_b][:size])))
            report.append({
                "n_levels": [int(level_a), int(level_b)],
                "point_indices": [idx_a, idx_b],
                "max_rho_XX_drift": drift,
                "converged": bool(drift < CONVERGENCE_DRIFT_LIMIT),
            })
    return report

