"""Closed forms of the phonon bath and the thermal closure energy.

The bath integrals the simulation uses (the engine's effective-mode coupling
and the reorganization energy) are checked against adaptive quadrature of
the spectral density; frozen numbers come from independent evaluations of
the truncated integrals and coth.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinheat.config import parse_config, to_engine_config
from spinheat.constants import HBAR
from spinheat.engine import heat_extraction_stage, stage_hamiltonian_spec
from spinheat.spectral import reorganization_energy, thermal_energy

OMEGA1 = np.sqrt(5.0) / HBAR
DEFAULTS = to_engine_config(parse_config("stage1"))


def density_moment(alpha, omega_b, power):
    """Integral of w^power J(w), J(w) = alpha w^3 exp(-w^2 / 2 w_b^2)."""
    # Gaussian falloff makes the tail beyond 10 w_b < 1e-15 of the total.
    value, _ = quad(lambda w: alpha * w**(3 + power)
                    * np.exp(-w**2 / (2 * omega_b**2)),
                    0.0, 10 * omega_b, limit=200)
    return value


def mode_coupling_squared(cfg):
    spec = stage_hamiltonian_spec(heat_extraction_stage(cfg), cfg)
    return spec.coupling_D1**2


def test_coupling_moment_closed_form_and_quadrature():
    # The engine's mode coupling is the zeroth moment of J with w_b in
    # rad/ps: D1^2 = 2 alpha_p w_b^4.
    omega_b = DEFAULTS.omega_b_meV / HBAR
    closed = mode_coupling_squared(DEFAULTS)
    assert closed == pytest.approx(2 * 0.06 * omega_b**4, rel=1e-14)
    assert closed == pytest.approx(3.0673620380472957, rel=1e-10)
    assert density_moment(DEFAULTS.alpha_p_over_4pi2_ps2, omega_b, 0) == pytest.approx(
        closed, rel=1e-8)


def test_coupling_moment_zero_coupling():
    cfg = dataclasses.replace(DEFAULTS, alpha_p_over_4pi2_ps2=0.0)
    assert mode_coupling_squared(cfg) == 0.0
    assert density_moment(0.0, cfg.omega_b_meV / HBAR, 0) == 0.0


def test_coupling_moment_quartic_scaling():
    doubled = dataclasses.replace(DEFAULTS,
                                  omega_b_meV=2 * DEFAULTS.omega_b_meV)
    assert mode_coupling_squared(doubled) == pytest.approx(
        16 * mode_coupling_squared(DEFAULTS), rel=1e-12)


@given(st.floats(0.01, 5.0), st.floats(0.5, 6.0))
@settings(max_examples=25, deadline=None)
def test_moment_property_quadrature_matches_closed_forms(alpha, wb_mev):
    cfg = dataclasses.replace(DEFAULTS, alpha_p_over_4pi2_ps2=alpha,
                              omega_b_meV=wb_mev)
    assert mode_coupling_squared(cfg) == pytest.approx(
        density_moment(alpha, wb_mev / HBAR, 0), rel=1e-6)
    # reorganization energy: integral of J(w)/w, evaluated in meV
    assert reorganization_energy(alpha, wb_mev) == pytest.approx(
        density_moment(alpha, wb_mev, -1), rel=1e-6)


def test_thermal_energy_zero_point():
    assert thermal_energy(0.0, OMEGA1) == pytest.approx(HBAR * OMEGA1 / 2, rel=1e-14)


def test_thermal_energy_frozen_values():
    assert thermal_energy(60.0, OMEGA1) == pytest.approx(5.250736638364544, rel=1e-12)
    assert thermal_energy(150.0, OMEGA1) == pytest.approx(12.958218207613482, rel=1e-12)


def test_thermal_energy_classical_limit():
    from spinheat.constants import KB
    t_hot = 6 * HBAR * OMEGA1 / KB
    assert thermal_energy(t_hot, OMEGA1) == pytest.approx(KB * t_hot, rel=0.01)


def test_thermal_energy_monotone():
    temps = np.linspace(0.0, 400.0, 41)
    vals = [thermal_energy(t, OMEGA1) for t in temps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_thermal_energy_rejects_negative_temperature():
    with pytest.raises(ValueError):
        thermal_energy(-2.0, OMEGA1)


def test_effective_coupling_energy_anchored():
    # meV-normalized moment arithmetic: with the default (0.06, 1.48 meV)
    # inputs the derived mode frequency reproduces the pinned sqrt(5) meV to
    # half a percent, which fixes the normalization; the same arithmetic then
    # gives the reorganization energy below. The mode coupling energy itself
    # is pinned through the engine in test_detuning_mapping_relaxed_reference.
    assert reorganization_energy(0.06, 1.48) == pytest.approx(
        0.24377902463017737, rel=1e-12)
    derived = np.sqrt(8 * 0.06 * 1.48**6)
    assert derived == pytest.approx(np.sqrt(5.0), rel=5e-3)
