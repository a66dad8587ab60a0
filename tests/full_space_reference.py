"""Dense full-space reference for the excitation-sector oracle.

The electron-nuclear space has 2^(N+1) states, the electron-up block first;
a nuclear configuration is a bit pattern with bit j set when nucleus j is
flipped. The reference builds collective states with the full 2^N-state
lowering operator and evolves them with one dense eigendecomposition of the
whole exchange Hamiltonian. It costs O(8^N), so it only cross-checks
``hyperfine.collective_to_vector`` and ``hyperfine.sector_oracle`` at small
N; production code never builds this space.
"""

import numpy as np
from scipy import sparse


def _configs(profile):
    return np.arange(1 << profile.count)


def _lowering(profile):
    configs = _configs(profile)
    rows, cols, data = [], [], []
    scale = profile.couplings / np.sqrt(profile.gamma)
    for j in range(profile.count):
        unflipped = configs[(configs >> j) & 1 == 0]
        rows.append(unflipped | (1 << j))
        cols.append(unflipped)
        data.append(np.full(unflipped.size, scale[j]))
    return sparse.csr_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(configs.size, configs.size))


def _pulse_diagonal(profile):
    bits = (_configs(profile)[:, None] >> np.arange(profile.count)) & 1
    return 0.5 * profile.pulse_rates.sum() - bits @ profile.pulse_rates


def full_vector(state, profile):
    """2^(N+1) vector of a collective state."""
    dim = 1 << profile.count
    lower = _lowering(profile)
    diag = _pulse_diagonal(profile)
    full = np.zeros(2 * dim, dtype=complex)
    for term in state.terms:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        for entry in term.history:
            vec = lower @ vec
            if entry != 0.0:
                vec = np.exp(-1j * diag * entry) * vec
        block = term.electron * dim
        full[block:block + dim] += term.amplitude * vec
    return full


def full_space_oracle(profile, schedule, initial):
    """Exact evolution of a collective state over the full space, with the
    schedule format of ``hyperfine.sector_oracle``."""
    dim = 1 << profile.count
    configs = _configs(profile)
    rows, cols, data = [], [], []
    for j, a_j in enumerate(profile.couplings):
        unflipped = configs[(configs >> j) & 1 == 0]
        rows.append(unflipped | (1 << j))  # electron up, nucleus flipped
        cols.append(unflipped + dim)  # electron down, nucleus unflipped
        data.append(np.full(unflipped.size, a_j))
    half = sparse.coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * dim, 2 * dim)).toarray()
    eigenvalues, eigenvectors = np.linalg.eigh(half + half.T)
    pulse_diag = np.tile(_pulse_diagonal(profile), 2)
    vec = full_vector(initial, profile)
    for kind, duration in schedule:
        if kind == "exchange":
            weights = eigenvectors.T @ vec
            vec = eigenvectors @ (np.exp(-1j * eigenvalues * duration) * weights)
        else:
            vec = np.exp(-1j * pulse_diag * duration) * vec
    return vec


def embed(sectors, profile):
    """2^(N+1) vector of sector vectors: sector k lists the electron-up
    configurations with k flipped nuclei, then the electron-down ones with
    k - 1, each in ascending order of the bit pattern."""
    dim = 1 << profile.count
    configs = _configs(profile)
    flips = np.array([bin(c).count("1") for c in configs])
    full = np.zeros(2 * dim, dtype=complex)
    for k, vec in sectors.items():
        up = configs[flips == k]
        down = dim + configs[flips == k - 1]
        assert vec.shape == (up.size + down.size,)
        full[up] = vec[:up.size]
        full[down] = vec[up.size:]
    return full
