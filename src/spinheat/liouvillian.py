"""Stage Hamiltonian and master-equation superoperator assembly.

The master equation evolved here has four pieces: the coherent commutator,
radiative decay of the exciton into each ground state, a position-momentum
friction term, and a position-position diffusion term proportional to the
closure's mean thermal energy. The last two are of Caldeira-Leggett form and
are assembled verbatim, with no secular simplification, so the generator is
not guaranteed completely positive; positivity is monitored downstream.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho).
Superoperators are assembled as ``scipy.sparse`` CSR arrays from sparse
Kronecker products; every term is a product of a few sparse operators on
the 3 N_c-dimensional dot-mode space, so only 1.7 % of the generator's
entries are nonzero at N_c = 8, and the share falls as N_c grows.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .constants import HBAR
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
    omega1: float

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
        + hbar omega1 (a^dag a + 1/2).
    """
    if ops.omega1 != spec.omega1:
        raise ValueError("operator set and stage spec disagree on the mode frequency")
    lower = ops.lower_up if spec.driven_transition == IDX_UP else ops.lower_dn
    drive = (spec.rabi_energy / 2) * (lower + lower.conj().T)
    exciton = ops.proj_x @ (spec.detuning_energy * ops.identity
                            + HBAR * spec.coupling_D1 * ops.q1)
    return drive + exciton + ops.mode_energy


def _left(a):
    """Superoperator of rho -> a rho."""
    return sp.kron(sp.eye_array(a.shape[0], dtype=complex), sp.csr_array(a),
                   format="csr")


def _right(b):
    """Superoperator of rho -> rho b."""
    return sp.kron(sp.csr_array(b.T), sp.eye_array(b.shape[0], dtype=complex),
                   format="csr")


def hamiltonian_superoperator(h):
    """Superoperator of the commutator term (1/i hbar)[H, rho]."""
    return (_left(h) - _right(h)) / (1j * HBAR)


def lindblad_dissipator(o):
    """Vectorized 2 O rho O^dag - O^dag O rho - rho O^dag O, unit prefactor."""
    o = np.asarray(o, dtype=complex)
    odo = o.conj().T @ o
    return (2 * sp.kron(sp.csr_array(o.conj()), sp.csr_array(o), format="csr")
            - _left(odo) - _right(odo))


def build_superoperator(h, dissipation, ops):
    """Full master-equation generator acting on vec(rho), as a CSR array."""
    if h.shape != ops.identity.shape:
        raise ValueError(
            f"Hamiltonian dimension {h.shape} does not match operators "
            f"{ops.identity.shape}")
    v = hamiltonian_superoperator(h)
    v = v + (dissipation.gamma_R / 2) * (lindblad_dissipator(ops.lower_up)
                                         + lindblad_dissipator(ops.lower_dn))
    q, p = ops.q1, ops.p1
    # friction: (gamma/i hbar) [Q, {P, rho}]
    anti = _left(p) + _right(p)
    comm_q = _left(q) - _right(q)
    v = v + (dissipation.gamma_ph / (1j * HBAR)) * (comm_q @ anti)
    # diffusion: -(2 gamma E_th / hbar^2) [Q, [Q, rho]]
    v = v - (2 * dissipation.gamma_ph * dissipation.E_th / HBAR**2) * (comm_q @ comm_q)
    return v.tocsr()
