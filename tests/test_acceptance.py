"""End-to-end acceptance criteria.

Each test records exactly one [criterion NN] PASS/FAIL line; conftest
echoes the collected lines after the run, outside output capture, so a
full run always shows eleven verdicts. Expensive trajectories are
computed once in module-scoped fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from reference import integrate_direct, scipy_csr, spinlabor_bound

from spinheat.config import parse_config, to_engine_config
from spinheat.engine import (heat_extraction_stage, initial_state, run_cycle,
                             run_stage1, stage_machinery)
from spinheat.hyperfine import (ELECTRON_DN, ELECTRON_UP, CouplingProfile,
                                PulseSpec, apply_pulse, collective_to_vector,
                                flop_duration, gamma_tilde,
                                initial_collective_state, pulse_feasibility,
                                sector_oracle, state_from_terms,
                                verified_erasure_step)
from spinheat.propagator import (
    diagonalize, from_hermitian, prepare, propagate,
)

SIGMA_NM = 5.0


VERDICT_LINES = []


def verdict(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def timed_stage(cfg):
    start = time.perf_counter()
    traj = run_stage1(cfg)
    return traj, time.perf_counter() - start


def peak_info(traj):
    k = int(np.argmax(traj.rho_XX))
    return float(traj.rho_XX[k]), float(traj.times[k]), float(traj.dN1[k])


@pytest.fixture(scope="module")
def base_config():
    return to_engine_config(parse_config("stage1"))


@pytest.fixture(scope="module")
def stage_60(base_config):
    return timed_stage(base_config)


@pytest.fixture(scope="module")
def stage_150(base_config):
    return timed_stage(dataclasses.replace(base_config, temperature_K=150.0))


@pytest.fixture(scope="module")
def stage_60_damped(base_config):
    return timed_stage(dataclasses.replace(base_config, gamma_ph_meV=0.1))


@pytest.fixture(scope="module")
def stage_150_damped(base_config):
    return timed_stage(dataclasses.replace(
        base_config, temperature_K=150.0, gamma_ph_meV=0.1))


@pytest.fixture(scope="module")
def cycle_result(base_config):
    return run_cycle(base_config)


@pytest.fixture(scope="module")
def reduced_sets():
    """Four drive/damping sets at reduced truncation, with oracle comparison."""
    base = to_engine_config(parse_config("check"))
    results = []
    for temperature in (60.0, 150.0):
        for gamma_ph in (0.001, 0.1):
            cfg = dataclasses.replace(base, temperature_K=temperature,
                                      gamma_ph_meV=gamma_ph)
            start = time.perf_counter()
            _, v = stage_machinery(heat_extraction_stage(cfg), cfg)
            ep = diagonalize(prepare(v))
            rho0 = initial_state(cfg)
            times, direct = integrate_direct(rho0, v, cfg.stage1_duration_ps,
                                             grid_dt=cfg.grid_dt_ps)
            gap = max(float(np.max(np.abs(
                from_hermitian(propagate(rho0, ep, t)) - state)))
                for t, state in zip(times, direct))
            elapsed = time.perf_counter() - start
            dim = 3 * cfg.n_levels
            trace_residual = float(np.max(np.abs(
                np.eye(dim).reshape(-1, order="F") @ scipy_csr(v))))
            results.append({
                "label": f"T={temperature:g} gph={gamma_ph:g}",
                "agreement": gap,
                "elapsed": elapsed,
                "trace_residual": trace_residual,
                "max_real_eig": float(np.max(ep.eigenvalues.real)),
                "biorthonormality": float(ep.biorthonormality_residual),
            })
    return results


def difference(u, v):
    """u - v of two exact sector states {k: vector}, concatenated over the
    sectors of either."""
    return np.concatenate([u.get(k, 0) - v.get(k, 0)
                           for k in sorted(u.keys() | v.keys())])


def chain_profile(count=8, envelope="gaussian", scale=0.05,
                  phi_tau_sigma=0.0, tau=1.0):
    x = np.linspace(-2 * SIGMA_NM, 2 * SIGMA_NM, count)
    if envelope == "gaussian":
        couplings = scale * np.exp(-x**2 / (4 * SIGMA_NM**2))
    else:
        couplings = np.full(count, scale)
    rates = (phi_tau_sigma / (tau * SIGMA_NM)) * x
    return CouplingProfile(x=x, couplings=couplings, sigma=SIGMA_NM,
                           pulse_rates=rates)


def test_criterion_01_stage1_peak_band(stage_60):
    traj, elapsed = stage_60
    value, at, _ = peak_info(traj)
    ok = 0.40 <= value <= 0.60 and 8.0 <= at <= 12.0 and elapsed < 60.0
    verdict(1, ok, f"T=60K peak rho_XX = {value:.4f} at {at:.2f} ps "
                   f"(band [0.40, 0.60] within [8, 12] ps), "
                   f"runtime {elapsed:.1f} s < 60 s")


def test_criterion_02_high_temperature_peak(stage_60, stage_150):
    value_60, at_60, _ = peak_info(stage_60[0])
    value, at, _ = peak_info(stage_150[0])
    ok = 0.50 <= value <= 0.70 and at < at_60
    verdict(2, ok, f"T=150K peak rho_XX = {value:.4f} at {at:.2f} ps "
                   f"(band [0.50, 0.70], earlier than {at_60:.2f} ps)")


def test_criterion_03_heat_absorbed_at_peak(stage_60, stage_150):
    _, _, dn1_60 = peak_info(stage_60[0])
    _, _, dn1_150 = peak_info(stage_150[0])
    ok = dn1_60 < 0.0 and dn1_150 < 0.0
    verdict(3, ok, f"mode occupation change at peak: {dn1_60:+.4f} (60K), "
                   f"{dn1_150:+.4f} (150K), both negative")


def test_criterion_04_damping_ordering(stage_60, stage_150, stage_60_damped,
                                       stage_150_damped):
    spans = {}
    for label, (traj, _) in (("60K weak", stage_60),
                             ("60K strong", stage_60_damped),
                             ("150K weak", stage_150),
                             ("150K strong", stage_150_damped)):
        window = (traj.times >= 5.0) & (traj.times <= 15.0)
        spans[label] = float(np.ptp(traj.Q1bar[window]))
    ok = (spans["60K strong"] < spans["60K weak"]
          and spans["150K strong"] < spans["150K weak"])
    verdict(4, ok, "Q1bar peak-to-peak over [5, 15] ps: "
                   f"60K {spans['60K strong']:.4f} < {spans['60K weak']:.4f}, "
                   f"150K {spans['150K strong']:.4f} < {spans['150K weak']:.4f}")


def test_criterion_05_cycle_transfer(cycle_result):
    result = cycle_result
    traj = result.trajectory
    dn, exciton = traj.rho_dn[-1], traj.rho_XX[-1]
    ok = (8.0 <= result.switch.time <= 10.0
          and result.switch.from_local_maximum
          and 0.40 <= dn <= 0.60 and exciton <= 0.05)
    verdict(5, ok, f"switch at {result.switch.time:.2f} ps (in [8, 10]), "
                   f"final rho_dn = {dn:.4f} (band [0.40, 0.60]), "
                   f"rho_XX = {exciton:.4f} <= 0.05")


def test_criterion_06_propagator_oracle_equivalence(reduced_sets):
    worst = max(entry["agreement"] for entry in reduced_sets)
    slowest = max(entry["elapsed"] for entry in reduced_sets)
    ok = worst <= 1e-6 and slowest < 30.0
    verdict(6, ok, f"eigenmode vs direct integration over 20 ps, 4 sets: "
                   f"max |drho| = {worst:.2e} <= 1e-6, "
                   f"slowest set {slowest:.1f} s < 30 s")


def test_criterion_07_superoperator_invariants(reduced_sets):
    trace = max(entry["trace_residual"] for entry in reduced_sets)
    real = max(entry["max_real_eig"] for entry in reduced_sets)
    biorth = max(entry["biorthonormality"] for entry in reduced_sets)
    ok = trace <= 1e-10 and real <= 1e-8 and biorth <= 1e-8
    verdict(7, ok, f"trace annihilation {trace:.2e} <= 1e-10, "
                   f"max Re eig {real:.2e} <= 1e-8, "
                   f"biorthonormality {biorth:.2e} <= 1e-8")


def test_criterion_08_hyperfine_exactness():
    profile = chain_profile(envelope="uniform")
    flop = flop_duration(profile)
    oracle = sector_oracle(profile, [("exchange", flop)],
                           initial_collective_state(ELECTRON_DN))
    expected = collective_to_vector(
        state_from_terms([(ELECTRON_UP, (0.0,), -1j)]), profile)
    flip_gap = float(np.max(np.abs(difference(oracle, expected))))
    worst_excess = -np.inf
    tau = 1.0
    for phi_tau_sigma in (2.0, 4.0, 8.0):
        graded = chain_profile(phi_tau_sigma=phi_tau_sigma, tau=tau)
        state = apply_pulse(state_from_terms([(ELECTRON_UP, (0.0,), 1.0)]),
                            tau, graded)
        vec = collective_to_vector(state, graded)
        bound = 2 * abs(gamma_tilde(graded, tau).discrete) / graded.gamma
        period = 2 * np.pi / np.sqrt(graded.gamma)
        for t in np.linspace(0.0, 1.1 * period, 41):
            residual = float(np.linalg.norm(difference(
                sector_oracle(graded, [("exchange", t)], state), vec)))
            worst_excess = max(worst_excess, residual - bound)
    ok = flip_gap <= 1e-10 and worst_excess <= 1e-9
    verdict(8, ok, f"uniform N=8 quarter-flop gap {flip_gap:.2e} <= 1e-10; "
                   f"pinned-state residual excess over 2|gamma_tilde|/gamma "
                   f"{worst_excess:+.2e} <= 1e-9 for phi*tau*sigma in 2,4,8")


def test_criterion_09_erasure_fidelity():
    tau = 1.0
    profile = chain_profile(phi_tau_sigma=8.0, tau=tau)
    ratio = abs(gamma_tilde(profile, tau).discrete) / profile.gamma
    step = verified_erasure_step(profile, tau)
    fidelities = [branch.fidelity for branch in step.branches]
    up_population = step.up_population_oracle
    floor = 1 - 2 * ratio
    ok = min(fidelities) >= 0.99 and up_population >= floor
    verdict(9, ok, f"50/50 erasure step at N=8: min branch fidelity "
                   f"{min(fidelities):.4f} >= 0.99, up population "
                   f"{up_population:.4f} >= {floor:.4f}")


def test_criterion_10_feasibility_numbers():
    pulse = PulseSpec(gradient=1.0, duration=1.0, g_n=5.0)
    report = pulse_feasibility(pulse, sigma=5.0, wire_radius=5.0, standoff=5.0)
    ct_error = abs(report.current_time_threshold - 4e-10) / 4e-10
    current_error = abs(report.current_threshold - 0.4) / 0.4
    ok = ct_error <= 0.05 and current_error <= 0.05
    verdict(10, ok, f"current-time threshold "
                    f"{report.current_time_threshold:.3e} A s vs 4e-10 "
                    f"({100 * ct_error:.1f}%), current at 1 ns "
                    f"{report.current_threshold:.3f} A vs 0.4 "
                    f"({100 * current_error:.1f}%), both within 5%")


def test_criterion_11_ledger_identities(cycle_result):
    ledger = cycle_result.ledger
    anchor = spinlabor_bound(math.log(2.0))
    ok = (ledger.W_work == ledger.Q_heat
          and ledger.spinlabor == -ledger.spintherm
          and anchor == 1.0)
    verdict(11, ok, f"W = Q = {ledger.W_work:.6f} meV exactly, "
                    f"spinlabor = -spintherm = {ledger.spinlabor:.6f}, "
                    f"spinlabor_bound(ln 2) = {anchor:g}")
