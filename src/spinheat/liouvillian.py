"""Stage Hamiltonian and master-equation superoperator assembly.

The master equation evolved here has four pieces: the coherent commutator,
radiative decay of the exciton into each ground state, a position-momentum
friction term, and a position-position diffusion term proportional to the
closure's mean thermal energy. The last two are of Caldeira-Leggett form and
are assembled verbatim, with no secular simplification, so the generator is
not guaranteed completely positive; positivity is monitored downstream.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho).
The generator is assembled in one pass as a CSR record (:mod:`.csr`):
every term is folded into K_L rho, rho K_R or one of five sandwiches
A rho B of sparse operators on the 3 N_c-dimensional dot-mode space, and
the COO entries of their Kronecker products are summed once. Only 1.7 % of
the generator's entries are nonzero at N_c = 8, and the share falls as N_c
grows.
"""

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .csr import from_coo
from .quantum_core import IDX_DN, IDX_UP

_GROUND_LEVELS = (IDX_UP, IDX_DN)


@dataclass(frozen=True)
class StageHamiltonianSpec:
    """Constant-drive stage Hamiltonian parameters.

    ``rabi_energy`` follows the standard convention in which
    rabi_energy / hbar is the on-resonance Rabi frequency: the drive matrix
    element is rabi_energy / 2, the dressed splitting is
    sqrt(detuning^2 + rabi^2), and a resonant pi pulse lasts
    pi hbar / rabi_energy. ``detuning_energy`` is the rotating-frame
    coefficient of the exciton projector. ``coupling_D1`` (rad/ps) scales the
    mass-weighted mode displacement on the exciton.
    """

    driven_transition: int
    rabi_energy: float
    detuning_energy: float
    coupling_D1: float

    def __post_init__(self):
        if self.rabi_energy < 0:
            raise ValueError(f"rabi_energy must be nonnegative, got {self.rabi_energy}")
        if self.driven_transition not in _GROUND_LEVELS:
            raise ValueError("driven_transition must be an electronic ground level")


@dataclass(frozen=True)
class DissipationSpec:
    """Rates in 1/ps (config values in meV are divided by hbar) and E_th in meV."""

    gamma_R: float
    gamma_ph: float
    E_th: float

    def __post_init__(self):
        if self.gamma_R < 0 or self.gamma_ph < 0 or self.E_th < 0:
            raise ValueError("dissipation parameters must be nonnegative")


def build_hamiltonian(spec, ops):
    """Assemble the stage Hamiltonian on the product space.

    H = (rabi/2)(raise + lower on the driven transition)
        + |X><X| (detuning + hbar D1 Q1)
        + hbar omega1 (a^dag a + 1/2),

    the mode frequency, in Q1 and the mode energy, being the one ``ops``
    was built with.
    """
    lower = ops.lower_up if spec.driven_transition == IDX_UP else ops.lower_dn
    drive = (spec.rabi_energy / 2) * (lower + lower.conj().T)
    exciton = ops.proj_x @ (spec.detuning_energy * ops.identity
                            + HBAR * spec.coupling_D1 * ops.q1)
    return drive + exciton + ops.mode_energy


def _kron_entries(b, a):
    """COO rows, columns and values of kron(b, a) for dense b and a: the
    superoperator of rho -> a rho b^T."""
    b_rows, b_cols = np.nonzero(b)
    a_rows, a_cols = np.nonzero(a)
    dim = a.shape[0]
    return ((b_rows[:, None] * dim + a_rows).ravel(),
            (b_cols[:, None] * dim + a_cols).ravel(),
            (b[b_rows, b_cols][:, None] * a[a_rows, a_cols]).ravel())


# coefficients or products that overflow leave entries that are not
# finite, and prepare refuses those before any run uses them
@np.errstate(over="ignore", invalid="ignore")
def build_superoperator(h, dissipation, ops):
    """Full master-equation generator acting on vec(rho), as a CSR record.

    Every term is written as K_L rho, rho K_R or a sandwich A rho B, with
    the left factors folded into K_L and the right factors into K_R:

        (1/i hbar) [H, rho]        -> K_L += H / i hbar, K_R -= H / i hbar
        (gamma_R / 2) D[O] rho     -> gamma_R O rho O^dag,
                                      K_L and K_R -= (gamma_R / 2) O^dag O
        f [Q, {P, rho}]            -> f Q rho P - f P rho Q,
                                      K_L += f QP, K_R -= f PQ
        -c [Q, [Q, rho]]           -> 2 c Q rho Q, K_L and K_R -= c Q^2

    with D[O] rho = 2 O rho O^dag - O^dag O rho - rho O^dag O,
    f = gamma_ph / i hbar (friction) and c = 2 gamma_ph E_th / hbar^2
    (diffusion). The COO entries of I kron K_L, K_R^T kron I
    and the five sandwiches are summed into one CSR record.
    """
    if h.shape != ops.identity.shape:
        raise ValueError(
            f"Hamiltonian dimension {h.shape} does not match operators "
            f"{ops.identity.shape}")
    commutator = 1 / (1j * HBAR)
    friction = dissipation.gamma_ph / (1j * HBAR)
    diffusion = 2 * dissipation.gamma_ph * dissipation.E_th / HBAR**2
    q, p = ops.q1, ops.p1
    decay = (dissipation.gamma_R / 2) * sum(
        o.conj().T @ o for o in (ops.lower_up, ops.lower_dn))
    k_left = commutator * h - decay + friction * (q @ p) - diffusion * (q @ q)
    k_right = -commutator * h - decay - friction * (p @ q) - diffusion * (q @ q)
    # rho -> a rho b is kron(b^T, a) on vec(rho)
    pieces = [_kron_entries(b, a) for b, a in (
        (ops.identity, k_left),
        (k_right.T, ops.identity),
        (ops.lower_up.conj(), dissipation.gamma_R * ops.lower_up),
        (ops.lower_dn.conj(), dissipation.gamma_R * ops.lower_dn),
        (p.T, friction * q),
        (q.T, -friction * p),
        (q.T, 2 * diffusion * q),
    )]
    rows, cols, data = (np.concatenate(part) for part in zip(*pieces))
    dim = h.shape[0] ** 2
    # entries that cancel exactly, such as the diagonal of an undamped
    # commutator, are dropped
    return from_coo(data, rows, cols, (dim, dim)).eliminate_zeros()
