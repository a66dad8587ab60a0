"""Physical constants in the package unit system (meV, ps, K, T, nm)."""

import numpy as np

HBAR = 0.6582119569  # meV ps
KB = 0.08617333  # meV / K

# SI values used only by the hyperfine field estimates.
HBAR_SI = 1.054571817e-34  # J s
MU_N_SI = 5.0507837461e-27  # J / T  (nuclear magneton)
MU_0_SI = 4e-7 * np.pi  # T m / A

# Nuclear precession rate per tesla, in package time units.
NUCLEAR_RATE_PER_TESLA = MU_N_SI / HBAR_SI * 1e-12  # rad / (ps T), per unit g_n
