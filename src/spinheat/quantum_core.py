"""Truncated-oscillator and three-level operators on the product space.

Basis convention, fixed once and used everywhere: oscillator-major ordering,
``index(x, n) = 3*n + x`` with the electronic levels (up, down, exciton)
mapped to (0, 1, 2). The three-level block for a given oscillator level is
contiguous, which keeps population extraction cheap.

All operators are plain complex ndarrays; energies are in meV and times in
ps throughout, so angular frequencies carry rad/ps.
"""

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB

IDX_UP = 0
IDX_DN = 1
IDX_X = 2

N_ELECTRONIC = 3


def fock_operators(n_c, omega1):
    """Truncated ladder, mass-weighted quadratures, and number operator.

    Parameters
    ----------
    n_c : int
        Oscillator truncation level, at least 2.
    omega1 : float
        Effective-mode angular frequency in rad/ps.

    Returns
    -------
    (annihilate, Q1, P1, number) : tuple of (n_c, n_c) complex ndarrays
        ``Q1 = sqrt(hbar/2 omega)(a + a^dag)`` and
        ``P1 = i sqrt(hbar omega/2)(a^dag - a)``, so [Q1, P1] = i hbar away
        from the truncation corner.
    """
    if n_c < 2:
        raise ValueError(f"need at least 2 oscillator levels, got {n_c}")
    if omega1 <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega1}")
    a = np.diag(np.sqrt(np.arange(1, n_c)), k=1).astype(complex)
    q1 = np.sqrt(HBAR / (2 * omega1)) * (a + a.conj().T)
    p1 = 1j * np.sqrt(HBAR * omega1 / 2) * (a.conj().T - a)
    number = np.diag(np.arange(n_c, dtype=float)).astype(complex)
    return a, q1, p1, number


def embed(system_op, bath_op):
    """Tensor product on the product space under the recorded basis ordering.

    With oscillator-major indexing the embedding is kron(bath, system).
    """
    system_op = np.asarray(system_op)
    bath_op = np.asarray(bath_op)
    if system_op.shape != (N_ELECTRONIC, N_ELECTRONIC):
        raise ValueError(f"system operator must be 3x3, got {system_op.shape}")
    if bath_op.ndim != 2 or bath_op.shape[0] != bath_op.shape[1]:
        raise ValueError(f"bath operator must be square, got {bath_op.shape}")
    return np.kron(bath_op, system_op)


def level_projector(x):
    """Projector |x><x| on the three-level system."""
    proj = np.zeros((N_ELECTRONIC, N_ELECTRONIC), dtype=complex)
    proj[x, x] = 1.0
    return proj


def transition_operator(ground_idx):
    """Lowering operator |ground><X| for the optical transition from ``ground_idx``."""
    op = np.zeros((N_ELECTRONIC, N_ELECTRONIC), dtype=complex)
    op[ground_idx, IDX_X] = 1.0
    return op


def thermal_state(omega1, temperature, n_c):
    """Gibbs state of the truncated mode, diagonal in the Fock basis.

    Populations follow exp(-hbar omega n / kB T) renormalized on the kept
    levels; T = 0 returns the ground-state projector.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    pops = np.zeros(n_c)
    if temperature == 0:
        pops[0] = 1.0
    else:
        pops = np.exp(-HBAR * omega1 * np.arange(n_c) / (KB * temperature))
        pops /= pops.sum()
    return np.diag(pops).astype(complex)


@dataclass(frozen=True)
class ProductOperators:
    """Frequently used operators embedded on the 3 N_c product space."""

    identity: np.ndarray
    q1: np.ndarray
    p1: np.ndarray
    number: np.ndarray
    mode_energy: np.ndarray  # hbar omega (a^dag a + 1/2) on all electronic levels
    proj_up: np.ndarray
    proj_dn: np.ndarray
    proj_x: np.ndarray
    lower_up: np.ndarray  # |up><X|
    lower_dn: np.ndarray  # |dn><X|


def product_operators(n_c, omega1):
    """Build the embedded operator set shared by the Liouvillian and engine.

    The oscillator energy is kept in ladder form, hbar omega (a^dag a + 1/2),
    so every truncated level carries exactly (n + 1/2) quanta; the quadrature
    form (P^2 + w^2 Q^2)/2 would differ in the truncation corner.
    """
    a, q1, p1, number = fock_operators(n_c, omega1)
    i_bath = np.eye(n_c, dtype=complex)
    i_sys = np.eye(N_ELECTRONIC, dtype=complex)
    return ProductOperators(
        identity=embed(i_sys, i_bath),
        q1=embed(i_sys, q1),
        p1=embed(i_sys, p1),
        number=embed(i_sys, number),
        mode_energy=embed(i_sys, HBAR * omega1 * (number + 0.5 * i_bath)),
        proj_up=embed(level_projector(IDX_UP), i_bath),
        proj_dn=embed(level_projector(IDX_DN), i_bath),
        proj_x=embed(level_projector(IDX_X), i_bath),
        lower_up=embed(transition_operator(IDX_UP), i_bath),
        lower_dn=embed(transition_operator(IDX_DN), i_bath),
    )
