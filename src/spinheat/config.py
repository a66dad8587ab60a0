"""Flat key=value run configuration with per-parameter provenance.

Every key carries a unit suffix and a literature default; a resolved
config remembers which values the user supplied, so output headers can
distinguish defaults from overrides. Dot-dynamics runs (stage1, cycle,
sweep, check) and erasure runs use separate key tables; supplying a key
from the wrong table is reported as such rather than as an unknown key.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.random import default_rng

from .constants import HBAR
from .engine import CHECK_GRID, PI_CANDIDATES, PI_WINDOW, EngineConfig
from .errors import ConfigError
from .hyperfine import MAX_ORACLE_SPINS, CouplingProfile, PulseSpec


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    value_type: type
    default: object
    description: str
    check: Optional[Callable] = None


def _positive(name, value):
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _nonnegative(name, value):
    if value < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value}")


def _negative(name, value):
    if value >= 0:
        raise ConfigError(f"{name} must be negative, got {value}")


def _nonzero(name, value):
    if value == 0:
        raise ConfigError(f"{name} must be nonzero")


def _choice(*options):
    def check(name, value):
        if value not in options:
            raise ConfigError(
                f"{name} must be one of {', '.join(options)}, got {value!r}")
    return check


def _int_range(lo, hi):
    def check(name, value):
        if not lo <= value <= hi:
            raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")
    return check


_DOT_SPECS = (
    ParameterSpec("temperature_K", float, 60.0,
                  "phonon bath temperature", _positive),
    ParameterSpec("gamma_ph_meV", float, 0.001,
                  "effective-mode friction, as hbar*gamma_ph", _nonnegative),
    ParameterSpec("gamma_R_meV", float, 6.6e-4,
                  "radiative decay per ground state, as hbar*gamma_R",
                  _nonnegative),
    ParameterSpec("omega_b_meV", float, 1.48,
                  "spectral-density cutoff quantum", _positive),
    ParameterSpec("alpha_p_over_4pi2_ps2", float, 0.06,
                  "phonon coupling strength alpha_p/(2 pi)^2", _nonnegative),
    ParameterSpec("omega1_tilde_meV", float, math.sqrt(5.0),
                  "effective-mode quantum", _positive),
    ParameterSpec("hbar_omega1_meV", float, 0.75,
                  "stage-1 Rabi energy", _positive),
    ParameterSpec("hbar_omega2_meV", float, 4.316,
                  "stage-2 Rabi energy", _positive),
    ParameterSpec("energy_gap_meV", float, 2.0,
                  "stage-1 red detuning; per-transfer energy gain",
                  _nonnegative),
    ParameterSpec("n_levels", int, 15,
                  "oscillator truncation level", _int_range(2, 60)),
    ParameterSpec("stage1_duration_ps", float, 20.0,
                  "stage-1 window and switch search range", _positive),
    ParameterSpec("grid_dt_ps", float, 0.05,
                  "output grid spacing", _positive),
    ParameterSpec("detuning_reference", str, "relaxed",
                  "zero-detuning reference line: relaxed or vertical",
                  _choice("relaxed", "vertical")),
    ParameterSpec("positivity_abort", float, -1e-3,
                  "abort when a density-matrix eigenvalue drops below this",
                  _negative),
)

_ERASURE_SPECS = (
    ParameterSpec("nucleus_count", int, 8,
                  f"nuclei in the chain, at most {MAX_ORACLE_SPINS}; the "
                  "exact verifier replays the step in the excitation "
                  "sectors it occupies, of dimension 1 and N+1",
                  _int_range(1, MAX_ORACLE_SPINS)),
    ParameterSpec("sigma_nm", float, 5.0,
                  "electron envelope width", _positive),
    ParameterSpec("coupling_scale_rad_per_ps", float, 0.05,
                  "peak hyperfine coupling", _positive),
    ParameterSpec("coupling_envelope", str, "gaussian",
                  "coupling profile along the chain: gaussian or uniform",
                  _choice("gaussian", "uniform")),
    ParameterSpec("suppression_phi_tau_sigma", float, 8.0,
                  "pulse suppression parameter phi*tau*sigma", _nonnegative),
    ParameterSpec("pulse_duration_ps", float, 1.0,
                  "gradient-pulse duration used in the erasure step",
                  _positive),
    ParameterSpec("lattice_jitter_nm", float, 0.0,
                  "uniform random site displacement half-width; 0 disables",
                  _nonnegative),
    ParameterSpec("seed", int, 0,
                  "random seed for lattice jitter", _nonnegative),
    ParameterSpec("g_n", float, 5.0,
                  "nuclear g-factor", _nonzero),
    ParameterSpec("pulse_gradient_T_per_nm", float, 1.0,
                  "physical pulse gradient for the feasibility report",
                  _positive),
    ParameterSpec("pulse_duration_ns", float, 1.0,
                  "physical pulse duration for the feasibility report",
                  _positive),
    ParameterSpec("wire_radius_nm", float, 5.0,
                  "nanowire radius", _positive),
    ParameterSpec("standoff_nm", float, 5.0,
                  "wire-to-dot standoff", _nonnegative),
)

# Largest grid in bytes, for the stage-1 grid and for a cycle's stage-2
# window with its pi-pulse candidates, at 16 B per grid point for each of
# the (3 n_levels)^2 coordinates of a state: evolve writes every point's
# real coordinates (8 B each) straight into one stack, and sampling
# gathers principal blocks a few rows at a time; a default stage-1 run
# peaks at 0.76 (n_levels=8) and 0.71 (15) of that price. The other 8 B
# stay priced: with a Taylor block count s = 1 (a short stage on a fine
# grid) one batch of Taylor steps holds the whole block's grid beside the
# stack. 13 MB at the defaults, 0.65 GB with grid_dt_ps=1e-3.
MAX_GRID_BYTES = 2**30

DOT_KINDS = ("stage1", "cycle", "sweep", "check")
RUN_KINDS = DOT_KINDS + ("erasure",)

# The check suite targets the oracle-equivalence budget, which is stated
# at a reduced truncation level.
_CHECK_DEFAULTS = {"n_levels": 8}

SWEEP_AXES = ("temperature_K", "gamma_ph_meV", "hbar_omega1_meV",
              "energy_gap_meV", "n_levels")


def parameter_table(kind):
    if kind not in RUN_KINDS:
        raise ConfigError(f"unknown run kind {kind!r}")
    specs = _ERASURE_SPECS if kind == "erasure" else _DOT_SPECS
    table = {}
    for spec in specs:
        default = _CHECK_DEFAULTS.get(spec.name) if kind == "check" else None
        if default is not None:
            spec = ParameterSpec(spec.name, spec.value_type, default,
                                 spec.description, spec.check)
        table[spec.name] = spec
    return table


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one run kind."""

    kind: str
    values: dict
    provenance: dict  # parameter name -> "default" | "user"


def split_assignment(text, origin):
    key, separator, raw = text.partition("=")
    if not separator or not key.strip():
        raise ConfigError(f"{origin} entry {text!r} is not of the form key=value")
    return key.strip(), raw.strip()


def _read_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    entries = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        entries.append(split_assignment(stripped, f"{path}:{number}"))
    return entries


def convert_value(spec, raw):
    if spec.value_type is str:
        value = raw
    elif spec.value_type is int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{spec.name} expects an integer, got {raw!r}") from None
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{spec.name} expects a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{spec.name} must be finite, got {raw!r}")
    if spec.check is not None:
        spec.check(spec.name, value)
    return value


def _other_table_hint(kind, key):
    other = _DOT_SPECS if kind == "erasure" else _ERASURE_SPECS
    if any(spec.name == key for spec in other):
        usage = "erasure runs" if kind != "erasure" else "dot-dynamics runs"
        return f"config key {key} applies to {usage}, not kind={kind}"
    return f"unknown config key {key}"


def parse_config(kind, config_path=None, overrides=()):
    """Resolve defaults, a config file, and --set overrides, in that order."""
    table = parameter_table(kind)
    values = {name: spec.default for name, spec in table.items()}
    provenance = {name: "default" for name in table}
    entries = []
    if config_path is not None:
        entries.extend(_read_config_file(config_path))
    for text in overrides:
        entries.append(split_assignment(text, "--set"))
    for key, raw in entries:
        spec = table.get(key)
        if spec is None:
            raise ConfigError(_other_table_hint(kind, key))
        values[key] = convert_value(spec, raw)
        provenance[key] = "user"
    return RunConfig(kind=kind, values=values, provenance=provenance)


def parse_axes(axis_args):
    """The (key, values) of each sweep ``--axis key=v1,v2,...``, in order."""
    table = parameter_table("stage1")
    axes = []
    for text in axis_args:
        key, raw = split_assignment(text, "--axis")
        if key not in SWEEP_AXES:
            raise ConfigError(
                f"sweep axis must be one of {', '.join(SWEEP_AXES)}, got {key}")
        if key in dict(axes):
            raise ConfigError(f"duplicate sweep axis {key}")
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not items:
            raise ConfigError(f"--axis {key} lists no values")
        axes.append((key, [convert_value(table[key], item) for item in items]))
    return axes


def sweep_point_config(run_config, values):
    """The stage1 config of a sweep point: the sweep's, with the point's
    axis ``values`` set by the user."""
    return RunConfig(
        kind="stage1", values={**run_config.values, **values},
        provenance={**run_config.provenance, **dict.fromkeys(values, "user")})


def _check_grid(name, duration, grid_dt, extra, n_levels, remedy):
    """Refuse a grid over ``duration`` ps in steps of ``grid_dt``, plus
    ``extra`` points, whose end overflows or whose price would exceed
    MAX_GRID_BYTES."""
    if not math.isfinite(duration + grid_dt / 2):
        raise ConfigError(
            f"the {name} grid of {duration:.3g} ps in steps of {grid_dt:.3g} "
            "ps ends beyond the largest float")
    points = duration / grid_dt + 2 + extra
    grid_bytes = points * 16 * (3 * n_levels)**2
    if not grid_bytes <= MAX_GRID_BYTES:
        raise ConfigError(
            f"the {name} grid of {points:.3g} points needs {grid_bytes:.3g} "
            f"B, beyond {MAX_GRID_BYTES}; {remedy}")


def to_engine_config(run_config):
    """Engine parameters of a dot-dynamics run. A stage-1 grid, or for a
    cycle a stage-2 window with its pi-pulse candidates, whose price would
    exceed MAX_GRID_BYTES, or whose end overflows, is a configuration
    error, and so is a cycle whose pi time is not finite, and a check
    given a temperature or friction, which its fixed grid sets."""
    v = run_config.values
    if run_config.kind == "check":
        fixed = [key for key in ("temperature_K", "gamma_ph_meV")
                 if run_config.provenance[key] == "user"]
        if fixed:
            grid = ", ".join(f"({t:g} K, {g:g} meV)" for t, g in CHECK_GRID)
            raise ConfigError(
                f"check runs the fixed (temperature_K, gamma_ph_meV) grid "
                f"{grid}; {' and '.join(fixed)} cannot be set")
    _check_grid("stage-1", v["stage1_duration_ps"], v["grid_dt_ps"], 0,
                v["n_levels"], "raise grid_dt_ps or shorten stage1_duration_ps")
    if run_config.kind == "cycle":
        pi_time = np.pi * HBAR / v["hbar_omega2_meV"]
        if not math.isfinite(pi_time):
            raise ConfigError(
                f"hbar_omega2_meV = {v['hbar_omega2_meV']:g} gives a pi time "
                "that is not finite")
        _check_grid("stage-2", PI_WINDOW[1] * pi_time, v["grid_dt_ps"],
                    PI_CANDIDATES, v["n_levels"],
                    "raise hbar_omega2_meV or grid_dt_ps")
    return EngineConfig(**v)


@np.errstate(over="ignore", invalid="ignore")
def to_erasure_inputs(run_config):
    """The arguments of ``hyperfine.run_erasure`` for an erasure run: the
    coupling profile, with the erasure pulse's precession rates, the pulse
    duration in ps, its phi tau sigma, the feasibility pulse, and the
    nanowire's radius and standoff in nm. Valid keys can still give couplings
    that underflow to zero, or an envelope, coupling sum, rates or pulse
    phases that overflow; these are configuration errors. The sum of |rates|
    times the pulse duration bounds every phase the pulse forms."""
    v = run_config.values
    count = v["nucleus_count"]
    sigma = v["sigma_nm"]
    x = np.linspace(-2 * sigma, 2 * sigma, count) if count > 1 else np.zeros(1)
    scale = v["coupling_scale_rad_per_ps"]
    try:
        if v["lattice_jitter_nm"] > 0:
            # uniform() raises OverflowError when twice the jitter overflows
            rng = default_rng(v["seed"])
            x = x + rng.uniform(-v["lattice_jitter_nm"],
                                v["lattice_jitter_nm"], count)
        rates = (v["suppression_phi_tau_sigma"]
                 / (v["pulse_duration_ps"] * sigma)) * x
        if v["coupling_envelope"] == "gaussian":
            # a sigma whose square underflows divides by 0; the couplings
            # that leaves, 0 or NaN, CouplingProfile refuses
            with np.errstate(divide="ignore", invalid="ignore"):
                couplings = scale * np.exp(-x**2 / (4 * sigma**2))
        else:
            couplings = np.full(count, scale)
        profile = CouplingProfile(x=x, couplings=couplings, sigma=sigma,
                                  pulse_rates=rates)
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        raise ConfigError(
            "no usable nuclear chain from sigma_nm, lattice_jitter_nm, "
            f"coupling_scale_rad_per_ps and pulse_duration_ps: {err}"
        ) from None
    phase_bound = float(np.sum(np.abs(rates))) * v["pulse_duration_ps"]
    if not math.isfinite(phase_bound):
        raise ConfigError(
            f"suppression_phi_tau_sigma = {v['suppression_phi_tau_sigma']:g} "
            f"with pulse_duration_ps = {v['pulse_duration_ps']:g} gives pulse "
            "phases that are not finite")
    if not 0 < profile.gamma < math.inf:
        raise ConfigError(
            f"coupling sum gamma = {profile.gamma:g} rad^2/ps^2 is not "
            "positive and finite; rescale coupling_scale_rad_per_ps")
    feasibility_pulse = PulseSpec(gradient=v["pulse_gradient_T_per_nm"],
                                  duration=v["pulse_duration_ns"],
                                  g_n=v["g_n"])
    return (profile, v["pulse_duration_ps"], v["suppression_phi_tau_sigma"],
            feasibility_pulse, v["wire_radius_nm"], v["standoff_nm"])
