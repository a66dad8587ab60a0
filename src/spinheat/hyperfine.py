"""Collective nuclear-spin erasure: exchange flip-flops and gradient pulses.

The electron exchanges spin with N polarized nuclei through contact
couplings a_j. Collective states are tracked symbolically as kets |n>_t:
n excitations created by alternating collective lowering operators and
field-gradient pulses, labeled by the pulse-history vector t (newest entry
last). The closed-form maps implemented here are exact for n <= 1 and
accurate to O(n/N) beyond. An exact verifier arbitrates every
approximation: the exchange and the pulse conserve k = (flipped nuclei) +
[electron down], so it works in the excitation sectors a state occupies,
each of dimension C(N+1, k), and never builds the 2^(N+1)-state space. A
nuclear configuration is its bit pattern sum_j 2^j over the flipped nuclei
j, so configurations are ordered as integers, and the sector blocks are
plain numpy arrays built where they are used.

Unit conventions: couplings and pulse rates in rad/ps, the chain
coordinate and sigma in nm, pulse and exchange durations in ps. PulseSpec,
the input of the nanowire feasibility estimate, carries its duration in ns
and its gradient in T/nm; SI constants enter only there.
"""

import itertools
import math
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .constants import HBAR_SI, MU_0_SI, MU_N_SI, NUCLEAR_RATE_PER_TESLA
from .errors import ConfigError

ELECTRON_UP = 0
ELECTRON_DN = 1

AMPLITUDE_PRUNE = 1e-12
EXCITATION_WARN_FRACTION = 0.05
SHORT_PULSE_FRACTION = 0.1
INEFFECTIVE_RATIO = 0.9
# longest erasure chain; the erasure run occupies sectors of dimension 1
# and N + 1 only, and int64 bit patterns hold up to 62 nuclei
MAX_ORACLE_SPINS = 40
# largest excitation sector the exact verifier builds and diagonalizes
# densely; above every sector of N <= 12 (C(13, 6) = 1716)
MAX_SECTOR_DIMENSION = 2048


class ExcitationApproximationWarning(UserWarning):
    """The closed-form collective maps carry O(n/N) error; n/N grew large."""


class Term(NamedTuple):
    electron: int
    history: tuple
    amplitude: complex

    @property
    def n(self):
        """The excitation count: one per entry of ``history``."""
        return len(self.history)


@dataclass(frozen=True)
class CollectiveNuclearState:
    """Superposition over electron x |n>_t kets."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.electron not in (ELECTRON_UP, ELECTRON_DN):
                raise ValueError(f"unknown electron label {term.electron!r}")


def state_from_terms(entries):
    return CollectiveNuclearState(terms=tuple(
        Term(electron, tuple(history), complex(amplitude))
        for electron, history, amplitude in entries))


def initial_collective_state(electron=ELECTRON_UP):
    return state_from_terms([(electron, (), 1.0)])


def _merged(entries):
    """Merge amplitude contributions sharing (electron, history); prune tiny."""
    acc = {}
    for electron, history, amplitude in entries:
        key = (electron, history)
        acc[key] = acc.get(key, 0.0) + amplitude
    return CollectiveNuclearState(terms=tuple(
        Term(e, h, a) for (e, h), a in acc.items()
        if abs(a) > AMPLITUDE_PRUNE))


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Contact couplings and pulse precession rates of nuclei at x (nm)."""

    x: np.ndarray  # chain coordinate, nm
    couplings: np.ndarray  # rad/ps
    sigma: float  # nm
    pulse_rates: np.ndarray  # rad/ps

    def __post_init__(self):
        for name in ("couplings", "x", "pulse_rates"):
            array = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, array)
            if array.shape != (self.couplings.size,):
                raise ValueError(f"{name} shape {array.shape} does not match "
                                 f"{self.couplings.size} couplings")
        if not np.all(np.isfinite(self.couplings) & (self.couplings > 0)):
            raise ValueError("couplings must be positive and finite")
        if not np.isfinite(np.sum(np.abs(self.pulse_rates))):
            raise ValueError("pulse rates overflow")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def count(self):
        return self.couplings.size

    @property
    def gamma(self):
        """Sum of squared couplings, rad^2/ps^2."""
        return float(np.sum(self.couplings ** 2))

    def lowering_block(self, m):
        """Collective lowering from m to m + 1 flipped nuclei: a dense array
        with entries a_j/sqrt(gamma), columns and rows in :func:`_layer`
        order."""
        source, target = _layer(self.count, m), _layer(self.count, m + 1)
        cols, nuclei = np.nonzero(
            (source[:, None] >> np.arange(self.count) & 1) == 0)
        rows = np.searchsorted(target, source[cols] | 1 << nuclei)
        block = np.zeros((target.size, source.size))
        block[rows, cols] = (self.couplings / np.sqrt(self.gamma))[nuclei]
        return block

    def pulse_diagonal(self, m):
        """Eigenvalues of the pulse generator on the configurations with m
        flipped nuclei, rad/ps, in :func:`_layer` order; each sums the rates
        of its flipped nuclei in ascending order."""
        patterns = _layer(self.count, m)
        bits = patterns[:, None] >> np.arange(self.count) & 1
        flipped = np.nonzero(bits)[1].reshape(patterns.size, m)
        return (0.5 * self.pulse_rates.sum()
                - self.pulse_rates[flipped].sum(axis=1))


def flop_duration(profile):
    """Electron spin flop time pi/(2 sqrt(gamma)), ps."""
    return float(np.pi / (2 * np.sqrt(profile.gamma)))


@dataclass(frozen=True)
class PulseSpec:
    """Nanowire-driven gradient pulse B(x) = gradient*x; feasibility input."""

    gradient: float  # T/nm
    duration: float  # ns
    g_n: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")

    @property
    def phi(self):
        """Precession-rate gradient g_n mu_n B'/hbar, rad/(ps nm)."""
        return self.g_n * NUCLEAR_RATE_PER_TESLA * self.gradient


@dataclass(frozen=True)
class GammaTildeResult:
    """Pulse-weighted coupling sum, discrete and in the continuum limit."""

    discrete: complex
    continuum: complex
    gamma: float

    @property
    def ratio(self):
        return abs(self.discrete) / self.gamma

    @property
    def continuum_ratio(self):
        return abs(self.continuum) / self.gamma


def gamma_tilde(profile, tau):
    """Sum a_j^2 e^{-i theta_j tau} and its Gaussian continuum reference.

    tau is in ps. The continuum value gamma * exp(-phi^2 tau^2 sigma^2 / 4)
    recovers the rate gradient phi from the stored rates by linear fit.
    """
    rates = profile.pulse_rates
    weights = profile.couplings ** 2
    discrete = complex(np.sum(weights * np.exp(-1j * rates * tau)))
    x = profile.x
    x_var = np.sum((x - x.mean()) ** 2)
    if x_var > 0:
        phi = np.sum((rates - rates.mean()) * (x - x.mean())) / x_var
    else:
        phi = 0.0
    gamma = profile.gamma
    with np.errstate(over="ignore"):  # a Gaussian beyond range is 0
        continuum = gamma * np.exp(-(phi * tau * profile.sigma) ** 2 / 4)
    return GammaTildeResult(discrete=discrete, continuum=complex(continuum),
                            gamma=gamma)


def _warn_if_excited(state, profile):
    n_max = max((term.n for term in state.terms), default=0)
    if n_max / profile.count > EXCITATION_WARN_FRACTION:
        warnings.warn(
            f"collective map error grows as n/N = {n_max}/{profile.count}",
            ExcitationApproximationWarning, stacklevel=3)


def evolve_collective(state, profile, t):
    """Closed-form exchange evolution for duration t (ps).

    Spin-up terms are fixed points; spin-down terms rotate into the ket
    with one more excitation and a fresh zero history entry. Exact for
    n = 0, accurate to O(gamma_tilde/gamma) + O(n/N) otherwise.
    """
    _warn_if_excited(state, profile)
    angle = np.sqrt(profile.gamma) * t
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    entries = []
    for term in state.terms:
        if term.electron == ELECTRON_UP:
            entries.append((ELECTRON_UP, term.history, term.amplitude))
        else:
            entries.append((ELECTRON_DN, term.history, term.amplitude * cos_a))
            entries.append((ELECTRON_UP, term.history + (0.0,),
                            -1j * sin_a * term.amplitude))
    return _merged(entries)


def apply_pulse(state, tau, profile):
    """Gradient pulse of duration tau (ps) in the collective bookkeeping.

    Extends each ket's newest history entry by the pulse duration; the
    history-free ket picks up the explicit phase exp(-i Theta tau). This is
    exact: the same phase on excited kets is absorbed by the history
    extension.
    """
    flop = flop_duration(profile)
    if tau > SHORT_PULSE_FRACTION * flop:
        warnings.warn(
            f"pulse duration {tau:.3g} ps is not short against the spin "
            f"flop time {flop:.3g} ps; the sudden approximation degrades",
            UserWarning, stacklevel=2)
    theta_total = 0.5 * float(np.sum(profile.pulse_rates))
    entries = []
    for term in state.terms:
        if term.n == 0:
            entries.append((term.electron, term.history,
                            term.amplitude * np.exp(-1j * theta_total * tau)))
        else:
            extended = term.history[:-1] + (term.history[-1] + tau,)
            entries.append((term.electron, extended, term.amplitude))
    return _merged(entries)


def erasure_step(mixture, profile, tau):
    """One erasure round: exchange for a quarter flop, then a tau (ps) pulse.

    mixture is a list of (weight, CollectiveNuclearState) branches. Fails
    when the pulse leaves |gamma_tilde|/gamma near unity, since the newly
    written excitation would not become a fixed point.
    """
    result = gamma_tilde(profile, tau)
    if result.ratio > INEFFECTIVE_RATIO:
        raise ConfigError(
            f"pulse ineffective: |gamma_tilde|/gamma = {result.ratio:.3f} "
            f"leaves the written excitation mobile")
    t_flop = flop_duration(profile)
    return [(weight, apply_pulse(evolve_collective(branch, profile, t_flop),
                                 tau, profile))
            for weight, branch in mixture]


def _layer(count, m):
    """Bit patterns sum_j 2^j over the flipped nuclei j of the C(count, m)
    nuclear configurations with m flips, in ascending order."""
    flips = np.array(list(itertools.combinations(range(count), m)),
                     dtype=np.int64).reshape(math.comb(count, m), m)
    return np.sort((1 << flips).sum(axis=1))


def _require_sectors(profile, k_max):
    """Refuse, before building anything, a state whose construction walks
    through a sector larger than MAX_SECTOR_DIMENSION; C(N+1, k) peaks at
    k = (N+1)/2."""
    widest = math.comb(profile.count + 1,
                       min(k_max, (profile.count + 1) // 2))
    if widest > MAX_SECTOR_DIMENSION:
        raise ValueError(
            f"a state with k = {k_max} on {profile.count} nuclei touches an "
            f"excitation sector of dimension {widest}, above the "
            f"exact-verifier limit {MAX_SECTOR_DIMENSION}")


def collective_to_vector(state, profile):
    """Exact sector vectors {k: vector} of a collective state.

    k = (flipped nuclei) + [electron down] is conserved by the exchange and
    the pulse. Sector k lists the electron-up configurations with k flips,
    then the electron-down configurations with k - 1, each in the order of
    :func:`_layer`; its dimension is C(N+1, k).
    """
    _require_sectors(profile, max((term.n + term.electron
                                   for term in state.terms), default=0))
    sectors = {}
    for term in state.terms:
        vec = np.ones(1, dtype=complex)
        for m, entry in enumerate(term.history):
            vec = profile.lowering_block(m) @ vec
            if entry != 0.0:
                vec = np.exp(-1j * profile.pulse_diagonal(m + 1)
                             * entry) * vec
        k = term.n + term.electron
        if k not in sectors:
            sectors[k] = np.zeros(math.comb(profile.count + 1, k),
                                  dtype=complex)
        start = term.electron * math.comb(profile.count, k)
        sectors[k][start:start + vec.size] += term.amplitude * vec
    return sectors


def _inner(u, v):
    """<u|v> of two sector states."""
    return sum(np.vdot(u[k], v[k]) for k in sorted(u.keys() & v.keys()))


def electron_up_population(sectors, profile):
    """Electron-up probability of a sector state: the first C(N, k)
    entries of each sector k."""
    return float(sum(np.sum(np.abs(vec[:math.comb(profile.count, k)]) ** 2)
                     for k, vec in sorted(sectors.items())))


def _exchange_block(profile, k):
    """Flip-flop Hamiltonian sum_j a_j (s+ I_j- + h.c.) on sector k."""
    if k == 0:
        return np.zeros((1, 1))
    coupling = np.sqrt(profile.gamma) * profile.lowering_block(k - 1)
    up, down = coupling.shape
    block = np.zeros((up + down, up + down))
    block[:up, up:] = coupling
    block[up:, :up] = coupling.T
    return block


def sector_oracle(profile, schedule, initial):
    """Exact evolution of a collective state, sector by sector.

    schedule is a sequence of ("exchange", t_ps) and ("pulse", tau_ps)
    segments; initial is a CollectiveNuclearState. Each occupied sector's
    exchange block is diagonalized once and reused across segments; the
    pulse is diagonal. Returns sector vectors as
    :func:`collective_to_vector` does.
    """
    for kind, _ in schedule:
        if kind not in ("exchange", "pulse"):
            raise ValueError(f"unknown schedule segment {kind!r}")
    evolved = {}
    for k, vec in collective_to_vector(initial, profile).items():
        eigenvalues, eigenvectors = np.linalg.eigh(_exchange_block(profile, k))
        pulse_diag = np.concatenate(
            [profile.pulse_diagonal(m) for m in (k, k - 1) if m >= 0])
        for kind, duration in schedule:
            if kind == "exchange":
                weights = eigenvectors.T @ vec
                vec = eigenvectors @ (np.exp(-1j * eigenvalues * duration)
                                      * weights)
            else:
                vec = np.exp(-1j * pulse_diag * duration) * vec
        evolved[k] = vec
    return evolved


@dataclass(frozen=True)
class ErasureBranch:
    """One branch of a verified erasure step; its fields are artifact keys."""

    branch: str  # starting electron spin, "up" or "down"
    weight: float
    fidelity: float  # overlap of the collective map with the exact state
    up_population_map: float
    up_population_oracle: float
    term_count: int  # kets in the collective state after the step


@dataclass(frozen=True)
class VerifiedErasure:
    """An erasure step on the unpolarized electron, replayed exactly."""

    suppression: GammaTildeResult  # at the pulse duration
    flop_duration: float  # ps
    branches: tuple  # ErasureBranch, up then down
    up_population_map: float
    up_population_oracle: float

    columns = tuple(field.name for field in fields(ErasureBranch))

    @property
    def up_population_floor(self):
        """Fixed-point bound 1 - 2 |gamma_tilde|/gamma on the up population."""
        return 1 - 2 * self.suppression.ratio

    def rows(self):
        """The CSV rows, one per branch, in ``columns`` order."""
        return [astuple(branch) for branch in self.branches]

    def summary(self, feasibility, phi_tau_sigma):
        """The erasure run's summary, with the nanowire ``feasibility``
        report of its pulse and the phi tau sigma that set the pulse."""
        suppression = self.suppression
        return {
            "gamma_rad2_per_ps2": float(suppression.gamma),
            "flop_duration_ps": float(self.flop_duration),
            "suppression": {
                "phi_tau_sigma": float(phi_tau_sigma),
                "discrete_ratio": float(suppression.ratio),
                "continuum_ratio": float(suppression.continuum_ratio),
            },
            "branches": [asdict(branch) for branch in self.branches],
            "up_population": {
                "collective_map": float(self.up_population_map),
                "oracle": float(self.up_population_oracle),
                "floor": float(self.up_population_floor),
            },
            "feasibility": {key: float(value) for key, value
                            in asdict(feasibility).items()},
        }


def verified_erasure_step(profile, tau):
    """:func:`erasure_step` with a pulse of duration tau (ps) on a 50/50
    electron mixture, each branch replayed by :func:`sector_oracle`.
    Overlaps and populations are sums over the occupied sectors.
    """
    mixture = [(0.5, initial_collective_state(ELECTRON_UP)),
               (0.5, initial_collective_state(ELECTRON_DN))]
    stepped = erasure_step(mixture, profile, tau)
    flop = flop_duration(profile)
    branches = []
    for (weight, state), (_, start) in zip(stepped, mixture):
        oracle = sector_oracle(
            profile, [("exchange", flop), ("pulse", tau)], start)
        mapped = collective_to_vector(state, profile)
        norm_sq = float(_inner(mapped, mapped).real)
        fidelity = abs(_inner(mapped, oracle))**2 / (
            norm_sq * float(_inner(oracle, oracle).real))
        branches.append(ErasureBranch(
            branch="up" if start.terms[0].electron == ELECTRON_UP else "down",
            weight=weight, fidelity=float(fidelity),
            up_population_map=electron_up_population(mapped, profile)
            / norm_sq,
            up_population_oracle=electron_up_population(oracle, profile),
            term_count=len(state.terms)))
    return VerifiedErasure(
        suppression=gamma_tilde(profile, tau), flop_duration=flop,
        branches=tuple(branches),
        up_population_map=sum(b.weight * b.up_population_map
                              for b in branches),
        up_population_oracle=sum(b.weight * b.up_population_oracle
                                 for b in branches))


@dataclass(frozen=True)
class FeasibilityReport:
    """Gradient-pulse requirements for a current-carrying nanowire."""

    gradient_time_product: float  # T s / m
    gradient_time_threshold: float  # T s / m
    required_current: float  # A, to produce the pulse's gradient
    current_time_product: float  # A s
    current_time_threshold: float  # A s
    current_threshold: float  # A, threshold at the pulse's duration
    suppression_parameter: float  # phi tau sigma
    continuum_suppression: float  # exp(-(phi tau sigma)^2 / 4)
    margin_ratio: float


def pulse_feasibility(pulse, sigma, wire_radius, standoff):
    """Feasibility of driving the pulse with a nanowire current.

    Geometry in nm. The wire carries current I at distance
    (wire_radius + standoff); linearizing its field gives the gradient
    mu_0 I / (2 pi d^2). The current-time threshold quotes the level at
    suppression parameter phi tau sigma = 1, twice the bare gradient-time
    threshold; the margin ratio is measured against it. A pulse whose
    numbers leave floating-point range, including a duration that
    underflows to 0 s and any report field that is not finite, is a
    configuration error.
    """
    if sigma <= 0 or wire_radius <= 0 or standoff < 0:
        raise ValueError("geometry must be positive")
    try:
        sigma_m = sigma * 1e-9
        distance_m = (wire_radius + standoff) * 1e-9
        tau_s = pulse.duration * 1e-9
        gradient_si = pulse.gradient * 1e9  # T/m
        wire_factor = 2 * np.pi * distance_m**2 / MU_0_SI  # A per (T/m)
        gradient_time_threshold = HBAR_SI / (
            2 * pulse.g_n * MU_N_SI * sigma_m)
        current_time_threshold = wire_factor * 2 * gradient_time_threshold
        required_current = wire_factor * gradient_si
        current_time_product = required_current * tau_s
        parameter = pulse.phi * (pulse.duration * 1e3) * sigma
        report = FeasibilityReport(
            gradient_time_product=gradient_si * tau_s,
            gradient_time_threshold=gradient_time_threshold,
            required_current=required_current,
            current_time_product=current_time_product,
            current_time_threshold=current_time_threshold,
            current_threshold=current_time_threshold / tau_s,
            suppression_parameter=parameter,
            continuum_suppression=float(np.exp(-parameter**2 / 4)),
            margin_ratio=current_time_product / current_time_threshold,
        )
        if all(map(math.isfinite, astuple(report))):
            return report
    except (ZeroDivisionError, OverflowError):
        pass
    raise ConfigError(
        f"feasibility of {pulse} at sigma {sigma:g} nm, wire radius "
        f"{wire_radius:g} nm, standoff {standoff:g} nm leaves "
        "floating-point range")
