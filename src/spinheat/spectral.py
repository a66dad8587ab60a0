"""Closed forms of the acoustic-phonon bath used by the dot dynamics.

The bath enters through a super-ohmic density with a Gaussian cutoff,
``J(w) = alpha_p w^3 exp(-w^2 / 2 w_b^2)``. Two of its integrals reach the
simulation: the full-bath reorganization energy, which places the relaxed
exciton line, and (in ``engine.stage_hamiltonian_spec``) the zeroth moment
2 alpha_p w_b^4, the squared coupling of the single effective mode. The
mode frequency is taken from config. The residual bath closes the mode with
a thermal energy given by the quantum coth formula.
"""

import numpy as np

from .constants import HBAR, KB


def thermal_energy(temperature, omega1):
    """Mean thermal energy of the closure, (hbar w/2) coth(hbar w / 2 kB T).

    Reduces to the zero-point energy at T = 0 and to kB T classically.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    half = HBAR * omega1 / 2
    if temperature == 0:
        return half
    return half / np.tanh(half / (KB * temperature))


def reorganization_energy(alpha_cfg, omega_b_mev):
    """Full-bath reorganization energy, integral of J(w)/w, in meV.

    Evaluated with energies in meV and ``alpha_cfg`` in ps^2. That
    normalization is fixed by the mode frequency: the frequency moment
    sqrt(8 alpha w_b^6) at the default (0.06, 1.48 meV) gives 2.246 meV,
    the pinned sqrt(5) meV to half a percent. The truncated single mode
    carries only part of this shift (coupling^2 / mode frequency); the
    friction closure stands in for the residual bath dynamically but carries
    no static shift, so line positions measured from the relaxed exciton
    need the full value.
    """
    return alpha_cfg * omega_b_mev**3 * np.sqrt(2 * np.pi) / 2
