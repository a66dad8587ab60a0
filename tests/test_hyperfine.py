"""Tests for the collective nuclear-spin erasure machinery.

The sector oracle (exact eigendecomposition of each excitation sector a
state occupies) is the reference for every closed-form collective map; the
closed forms are exact for zero or one excitation and approximate at order
n/N beyond that. The oracle itself is cross-checked against a dense
full-space reference (``full_space_reference.py``) at small N.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from full_space_reference import embed, full_space_oracle, full_vector
from hypothesis import given, settings
from hypothesis import strategies as st

import spinheat
from spinheat.constants import HBAR_SI, MU_N_SI
from spinheat.errors import ConfigError
from spinheat.hyperfine import (
    ELECTRON_DN,
    ELECTRON_UP,
    CouplingProfile,
    ExcitationApproximationWarning,
    PulseSpec,
    Term,
    apply_pulse,
    collective_to_vector,
    electron_up_population,
    erasure_step,
    evolve_collective,
    flop_duration,
    gamma_tilde,
    initial_collective_state,
    pulse_feasibility,
    sector_oracle,
    state_from_terms,
)

SIGMA = 5.0  # nm, electron wavefunction spread used across the chain tests


def chain_profile(n=8, envelope="gaussian", scale=0.05, phi=0.0, offset_rate=0.0):
    """N nuclei on the x axis spanning [-2 sigma, 2 sigma]."""
    x = np.linspace(-2 * SIGMA, 2 * SIGMA, n)
    if envelope == "gaussian":
        couplings = scale * np.exp(-x**2 / (4 * SIGMA**2))
    else:
        couplings = np.full(n, scale)
    return CouplingProfile(x=x, couplings=couplings,
                           pulse_rates=phi * x + offset_rate, sigma=SIGMA)


def gradient_profile_for(phi_tau_sigma, tau_ps, envelope="gaussian", n=8):
    phi = phi_tau_sigma / (tau_ps * SIGMA)
    return chain_profile(n=n, envelope=envelope, phi=phi)


def inner(u, v):
    """<u|v> of two sector states {k: vector}."""
    return sum(np.vdot(u[k], v[k]) for k in u.keys() & v.keys())


def difference(u, v):
    """u - v of two sector states, concatenated over the sectors of either."""
    return np.concatenate([u.get(k, 0) - v.get(k, 0)
                           for k in sorted(u.keys() | v.keys())])


def fidelity(u, v):
    return abs(inner(u, v)) ** 2 / (inner(u, u).real * inner(v, v).real)


class TestOracle:
    def test_single_nucleus_exchange_oscillation(self):
        a = 0.3
        profile = CouplingProfile(x=np.zeros(1), couplings=np.array([a]),
                                  sigma=SIGMA, pulse_rates=np.zeros(1))
        init = initial_collective_state(ELECTRON_DN)
        flipped = collective_to_vector(
            state_from_terms([(ELECTRON_UP, (0.0,), 1.0)]), profile)
        for t in np.linspace(0.0, 2 * np.pi / a, 17):
            vec = sector_oracle(profile, [("exchange", t)], init)
            assert abs(abs(inner(flipped, vec)) ** 2 - np.sin(a * t) ** 2) < 1e-12

    def test_unitarity_through_mixed_schedule(self):
        profile = chain_profile(n=6, phi=0.4)
        init = initial_collective_state(ELECTRON_DN)
        schedule = [("exchange", 3.7), ("pulse", 1.2), ("exchange", 0.9),
                    ("pulse", 0.3), ("exchange", 11.0)]
        vec = sector_oracle(profile, schedule, init)
        assert abs(inner(vec, vec).real - 1.0) < 1e-12

    def test_full_flip_uniform_couplings(self):
        profile = chain_profile(envelope="uniform")
        t_flip = flop_duration(profile)
        vec = sector_oracle(profile, [("exchange", t_flip)],
                            initial_collective_state(ELECTRON_DN))
        target = collective_to_vector(
            state_from_terms([(ELECTRON_UP, (0.0,), -1j)]), profile)
        assert np.linalg.norm(difference(vec, target)) < 1e-10

    def test_full_flip_nonuniform_couplings(self):
        profile = chain_profile(envelope="gaussian")
        vec = sector_oracle(profile, [("exchange", flop_duration(profile))],
                            initial_collective_state(ELECTRON_DN))
        target = collective_to_vector(
            state_from_terms([(ELECTRON_UP, (0.0,), -1j)]), profile)
        assert np.linalg.norm(difference(vec, target)) < 1e-10

    def test_up_zero_is_fixed_point(self):
        profile = chain_profile()
        init = initial_collective_state(ELECTRON_UP)
        vec = sector_oracle(profile, [("exchange", 25.0)], init)
        assert np.linalg.norm(
            difference(vec, collective_to_vector(init, profile))) < 1e-12

    def test_oracle_rejects_large_n(self):
        # 40 nuclei: sector k = 2 has C(41, 2) = 820 states and is verified;
        # k = 3 (C(41, 3) = 10660) and a 20-excitation state, whose
        # construction would walk through C(40, 20) ~ 1.4e11 configurations,
        # exceed the sector cap and are refused before anything is built
        profile = CouplingProfile(x=np.arange(40.0),
                                  couplings=np.full(40, 0.1), sigma=SIGMA,
                                  pulse_rates=np.zeros(40))
        vec = sector_oracle(profile, [("exchange", 1.0)],
                            state_from_terms([(ELECTRON_DN, (0.0,), 1.0)]))
        assert [(k, v.size) for k, v in vec.items()] == [(2, 820)]
        for electron, n in ((ELECTRON_DN, 2), (ELECTRON_UP, 20)):
            with pytest.raises(ValueError, match="exact-verifier limit"):
                sector_oracle(profile, [("exchange", 1.0)],
                              state_from_terms([(electron, (0.0,) * n, 1.0)]))


class TestSectorOracle:
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           entries=st.lists(st.tuples(
               st.sampled_from((ELECTRON_UP, ELECTRON_DN)),
               st.lists(st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
                        max_size=3),
               st.complex_numbers(max_magnitude=1.0)), min_size=1, max_size=4),
           schedule=st.lists(st.tuples(st.sampled_from(("exchange", "pulse")),
                                       st.floats(0.0, 20.0)), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_space_reference(self, n, seed, entries, schedule):
        rng = np.random.default_rng(seed)
        profile = CouplingProfile(x=np.sort(rng.uniform(-10, 10, n)),
                                  couplings=rng.uniform(0.01, 0.5, n),
                                  pulse_rates=rng.uniform(-1, 1, n),
                                  sigma=SIGMA)
        state = state_from_terms(entries)
        built = embed(collective_to_vector(state, profile), profile)
        assert np.max(np.abs(built - full_vector(state, profile))) <= 1e-12
        evolved = embed(sector_oracle(profile, schedule, state), profile)
        reference = full_space_oracle(profile, schedule, state)
        assert np.max(np.abs(evolved - reference)) <= 1e-12


class TestCollectiveAlgebra:
    def test_lowering_appends_zero_history(self):
        profile = chain_profile(phi=0.25)
        history = (0.7, 1.3, 0.4)
        for n in range(4):
            # sector n of an electron-up state with n flips: the up block
            # (C(N, n) configurations) holds the whole state
            lower = profile.lowering_block(n)
            state = state_from_terms([(ELECTRON_UP, history[:n], 1.0)])
            vec = collective_to_vector(state, profile)[n][:lower.shape[1]]
            target = collective_to_vector(
                state_from_terms([(ELECTRON_UP, history[:n] + (0.0,), 1.0)]),
                profile)[n + 1][:lower.shape[0]]
            assert np.linalg.norm(lower @ vec - target) < 1e-12

    def test_pulse_phase_on_unflipped_state(self):
        profile = chain_profile(phi=0.3, offset_rate=0.11)
        tau = 2.1
        state = initial_collective_state(ELECTRON_UP)
        pulsed = apply_pulse(state, tau, profile)
        theta_total = 0.5 * profile.pulse_rates.sum()
        assert len(pulsed.terms) == 1
        assert abs(pulsed.terms[0].amplitude - np.exp(-1j * theta_total * tau)) < 1e-12
        oracle = sector_oracle(profile, [("pulse", tau)], state)
        assert np.linalg.norm(
            difference(collective_to_vector(pulsed, profile), oracle)) < 1e-12

    def test_pulse_on_single_flip_matches_oracle(self):
        profile = chain_profile(phi=0.3, offset_rate=0.07)
        tau = 1.7
        state = state_from_terms([(ELECTRON_UP, (0.0,), 1.0)])
        pulsed = apply_pulse(state, tau, profile)
        assert pulsed.terms[0].history == (tau,)
        assert abs(pulsed.terms[0].amplitude - 1.0) < 1e-12
        oracle = sector_oracle(profile, [("pulse", tau)], state)
        assert np.linalg.norm(
            difference(collective_to_vector(pulsed, profile), oracle)) < 1e-12

    def test_pulse_extends_newest_history_entry(self):
        profile = chain_profile(phi=0.2)
        state = state_from_terms([(ELECTRON_DN, (0.9, 0.6), 1.0)])
        pulsed = apply_pulse(state, 0.5, profile)
        assert pulsed.terms[0].history == (0.9, 0.6 + 0.5)
        oracle = sector_oracle(profile, [("pulse", 0.5)], state)
        assert np.linalg.norm(
            difference(collective_to_vector(pulsed, profile), oracle)) < 1e-11

    def test_fixed_point_residual_bound(self):
        # post-pulse single-flip states stay put up to 2|gamma_tilde|/gamma
        for phi_tau_sigma in (2.0, 4.0, 8.0):
            tau = 1.0
            profile = gradient_profile_for(phi_tau_sigma, tau)
            state = apply_pulse(state_from_terms([(ELECTRON_UP, (0.0,), 1.0)]),
                                tau, profile)
            vec = collective_to_vector(state, profile)
            bound = 2 * abs(gamma_tilde(profile, tau).discrete) / profile.gamma
            period = 2 * np.pi / np.sqrt(profile.gamma)
            worst = 0.0
            for t in np.linspace(0.0, 1.1 * period, 45):
                evolved = sector_oracle(profile, [("exchange", t)], state)
                worst = max(worst, np.linalg.norm(difference(evolved, vec)))
            assert worst <= bound + 1e-9
            # the bound is saturated at the half period of the exchange rotation
            half = sector_oracle(
                profile, [("exchange", np.pi / np.sqrt(profile.gamma))], state)
            assert np.linalg.norm(difference(half, vec)) >= 0.98 * bound

    def test_evolve_collective_exact_for_fresh_spin_down(self):
        profile = chain_profile(phi=0.3)
        state = initial_collective_state(ELECTRON_DN)
        for t in (0.0, 2.5, flop_duration(profile)):
            mapped = collective_to_vector(evolve_collective(state, profile, t),
                                          profile)
            oracle = sector_oracle(profile, [("exchange", t)], state)
            assert np.linalg.norm(difference(mapped, oracle)) < 1e-10

    def test_evolve_collective_multistep_overlap(self):
        tau = 1.0
        profile = gradient_profile_for(8.0, tau)
        ratio = abs(gamma_tilde(profile, tau).discrete) / profile.gamma
        t1, t2 = 0.4 * flop_duration(profile), 0.6 * flop_duration(profile)
        start = initial_collective_state(ELECTRON_DN)
        state = apply_pulse(evolve_collective(start, profile, t1), tau, profile)
        with pytest.warns(ExcitationApproximationWarning):
            state = evolve_collective(state, profile, t2)
        state = apply_pulse(state, tau, profile)
        oracle = sector_oracle(
            profile,
            [("exchange", t1), ("pulse", tau), ("exchange", t2), ("pulse", tau)],
            start)
        n_max = max(term.n for term in state.terms)
        bound = 1 - 5 * (ratio + n_max / profile.count)
        assert fidelity(collective_to_vector(state, profile), oracle) >= bound
        assert fidelity(collective_to_vector(state, profile), oracle) >= 0.9

    def test_evolve_warns_on_high_excitation(self):
        profile = chain_profile()
        state = state_from_terms([(ELECTRON_DN, (1.0,), 1.0)])
        with pytest.warns(ExcitationApproximationWarning):
            evolve_collective(state, profile, 1.0)


class TestGammaTilde:
    def test_zero_duration_gives_gamma(self):
        profile = chain_profile(phi=0.4)
        assert gamma_tilde(profile, 0.0).discrete == pytest.approx(profile.gamma)

    def test_offset_only_changes_phase(self):
        base = chain_profile(phi=0.4)
        shifted = chain_profile(phi=0.4, offset_rate=0.8)
        tau = 1.3
        a = gamma_tilde(base, tau).discrete
        b = gamma_tilde(shifted, tau).discrete
        assert abs(abs(a) - abs(b)) < 1e-14

    def test_requires_pulse_rates(self):
        # gamma_tilde reads one pulse rate per coupling, so a profile without
        # them, or with rates that do not pair with the couplings, is refused
        x = np.linspace(-2 * SIGMA, 2 * SIGMA, 8)
        for rates in (None, np.zeros(3)):
            with pytest.raises(ValueError):
                gamma_tilde(CouplingProfile(x=x, couplings=np.full(8, 0.05),
                                            sigma=SIGMA, pulse_rates=rates), 1.0)

    def test_continuum_agreement_on_fine_lattice(self):
        # simple cubic lattice, spacing sigma/4, out to 4 sigma on each axis;
        # contact couplings follow |psi|^2 of a spherical Gaussian envelope
        # (the overall scale cancels in every ratio below)
        sigma = 3.0
        offsets = np.arange(-16, 17) * (sigma / 4)
        grid = np.meshgrid(offsets, offsets, offsets, indexing="ij")
        positions = np.stack([g.ravel() for g in grid], axis=1)
        couplings = np.exp(-np.sum(positions**2, axis=1) / (2 * sigma**2))
        tau = 1.0
        phi = 4.0 / (tau * sigma)
        x = positions[:, 0]
        profile = CouplingProfile(x=x, couplings=couplings,
                                  pulse_rates=phi * x, sigma=sigma)
        result = gamma_tilde(profile, tau)
        assert abs(result.continuum / profile.gamma - np.exp(-4.0)) < 1e-12
        assert abs(result.discrete - result.continuum) <= 0.05 * abs(result.continuum)

    @given(st.integers(2, 7), st.floats(0.1, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_modulus_never_exceeds_gamma(self, n, tau):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-10, 10, n))
        profile = CouplingProfile(x=x,
                                  couplings=rng.uniform(0.01, 0.4, n),
                                  pulse_rates=rng.uniform(-1, 1, n), sigma=SIGMA)
        assert abs(gamma_tilde(profile, tau).discrete) <= profile.gamma + 1e-12


class TestErasureStep:
    def test_spin_up_branch_is_fixed(self):
        tau = 1.0
        profile = gradient_profile_for(8.0, tau)
        mixture = [(1.0, initial_collective_state(ELECTRON_UP))]
        out = erasure_step(mixture, profile, tau)
        assert len(out) == 1
        weight, state = out[0]
        assert weight == 1.0
        assert len(state.terms) == 1
        term = state.terms[0]
        assert term.electron == ELECTRON_UP and term.n == 0
        assert abs(abs(term.amplitude) - 1.0) < 1e-12

    def test_spin_down_branch_exact(self):
        tau = 1.0
        profile = gradient_profile_for(8.0, tau)
        out = erasure_step([(1.0, initial_collective_state(ELECTRON_DN))],
                           profile, tau)
        _, state = out[0]
        assert len(state.terms) == 1
        term = state.terms[0]
        assert term.electron == ELECTRON_UP and term.history == (tau,)
        assert abs(term.amplitude + 1j) < 1e-12
        oracle = sector_oracle(
            profile, [("exchange", flop_duration(profile)), ("pulse", tau)],
            initial_collective_state(ELECTRON_DN))
        assert np.linalg.norm(
            difference(collective_to_vector(state, profile), oracle)) < 1e-10

    def test_balanced_mixture_erases(self):
        tau = 1.0
        profile = gradient_profile_for(8.0, tau)
        ratio = abs(gamma_tilde(profile, tau).discrete) / profile.gamma
        mixture = [(0.5, initial_collective_state(ELECTRON_UP)),
                   (0.5, initial_collective_state(ELECTRON_DN))]
        out = erasure_step(mixture, profile, tau)
        assert all(term.electron == ELECTRON_UP
                   for _, state in out for term in state.terms)
        up_pop = 0.0
        for (weight, state), start in zip(out, mixture):
            oracle = sector_oracle(
                profile, [("exchange", flop_duration(profile)), ("pulse", tau)],
                start[1])
            assert fidelity(collective_to_vector(state, profile), oracle) >= 0.99
            up_pop += weight * electron_up_population(oracle, profile)
        assert up_pop >= 1 - 2 * ratio

    def test_second_cycle_fidelity_bound(self):
        # Chain sizes are chosen so the sampled gradient phases do not alias
        # into a coherent revival (a 6-site chain at this gradient lands on
        # |gamma_tilde|/gamma ~ 0.99 and is legitimately rejected).
        tau = 1.0
        fidelities = {}
        for n_spins in (4, 8, 10):
            profile = gradient_profile_for(8.0, tau, n=n_spins)
            ratio = abs(gamma_tilde(profile, tau).discrete) / profile.gamma
            start = state_from_terms([(ELECTRON_DN, (tau,), 1.0)])
            with pytest.warns(ExcitationApproximationWarning):
                out = erasure_step([(1.0, start)], profile, tau)
            _, state = out[0]
            oracle = sector_oracle(
                profile, [("exchange", flop_duration(profile)), ("pulse", tau)],
                start)
            n_max = max(term.n for term in state.terms)
            bound = 1 - 5 * (ratio + n_max / n_spins)
            fidelities[n_spins] = fidelity(
                collective_to_vector(state, profile), oracle)
            assert fidelities[n_spins] >= bound
        assert fidelities[10] >= 0.9

    def test_ineffective_pulse_rejected(self):
        profile = chain_profile(phi=0.0, offset_rate=0.5)
        mixture = [(1.0, initial_collective_state(ELECTRON_DN))]
        with pytest.raises(ConfigError):
            erasure_step(mixture, profile, 1.0)

    def test_long_pulse_warns(self):
        tau = 0.5 * flop_duration(chain_profile())
        profile = gradient_profile_for(8.0, tau)
        with pytest.warns(UserWarning, match="flop"):
            apply_pulse(initial_collective_state(ELECTRON_UP), tau, profile)


class TestStateBookkeeping:
    def test_excitation_count_is_the_history_length(self):
        assert Term(ELECTRON_UP, (0.5, 1.0), 1.0).n == 2
        assert Term(ELECTRON_DN, (), 1.0).n == 0

    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_evolution_preserves_bookkeeping_norm(self, t1, t2):
        profile = chain_profile(n=4, phi=0.3)
        state = initial_collective_state(ELECTRON_DN)
        state = evolve_collective(state, profile, t1)
        state = apply_pulse(state, 0.7, profile)
        state = evolve_collective(state, profile, t2)
        norm_square = sum(abs(term.amplitude) ** 2 for term in state.terms)
        assert abs(norm_square - 1.0) < 1e-10


class TestCouplingProfile:
    def test_couplings_must_be_positive(self):
        with pytest.raises(ValueError):
            CouplingProfile(x=np.zeros(2), couplings=np.array([0.1, -0.1]),
                            sigma=SIGMA, pulse_rates=np.zeros(2))


def test_import_leaves_out_scipy():
    # configurations are bit patterns and the sector blocks numpy arrays,
    # so the erasure machinery needs no scipy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(spinheat.__file__)))
    script = ("import sys, spinheat.hyperfine\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestPulseFeasibility:
    def test_threshold_numbers(self):
        pulse = PulseSpec(gradient=1.0, duration=1.0, g_n=5.0)
        report = pulse_feasibility(pulse, sigma=5.0, wire_radius=5.0, standoff=5.0)
        assert report.gradient_time_threshold == pytest.approx(
            0.4175873963379625, rel=1e-12)
        assert report.current_time_threshold == pytest.approx(
            4.175873963379625e-10, rel=1e-12)
        assert report.current_threshold == pytest.approx(
            0.4175873963379625, rel=1e-12)

    def test_doubling_sigma_halves_gradient_threshold(self):
        pulse = PulseSpec(gradient=1.0, duration=1.0, g_n=5.0)
        a = pulse_feasibility(pulse, 5.0, 5.0, 5.0)
        b = pulse_feasibility(pulse, 10.0, 5.0, 5.0)
        assert b.gradient_time_threshold == pytest.approx(
            a.gradient_time_threshold / 2)

    def test_margin_ratio(self):
        # gradient of 1 T/nm for 1 ns = 1 T s / m against the quoted threshold
        pulse = PulseSpec(gradient=1.0, duration=1.0, g_n=5.0)
        report = pulse_feasibility(pulse, 5.0, 5.0, 5.0)
        assert report.margin_ratio == pytest.approx(
            1.0 / (2 * 0.4175873963379625), rel=1e-12)

    def test_suppression_parameter(self):
        pulse = PulseSpec(gradient=1.0, duration=1.0, g_n=5.0)
        report = pulse_feasibility(pulse, 5.0, 5.0, 5.0)
        phi = 5.0 * MU_N_SI / HBAR_SI * 1e-12 * 1.0
        assert report.suppression_parameter == pytest.approx(phi * 1e3 * 5.0)
        assert report.continuum_suppression == pytest.approx(
            np.exp(-report.suppression_parameter**2 / 4))
