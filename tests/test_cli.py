"""Config resolution and CLI artifact contracts."""

import ast
import contextlib
import io
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinheat
import spinheat.config as config_module
import spinheat.engine as engine_module
import spinheat.pool as pool_module
from spinheat.cli import _format_value, _write_csv, main
from spinheat.constants import HBAR
from spinheat.config import (MAX_GRID_BYTES, parameter_table, parse_config,
                             to_engine_config)
from spinheat.errors import ConfigError, NumericalError

TINY = ["--set", "n_levels=4", "--set", "stage1_duration_ps=2"]


def read_rows(path):
    return np.loadtxt(path, delimiter=",", comments="#")


class TestParseConfig:
    def test_defaults_carry_reference_values(self):
        rc = parse_config("stage1")
        assert rc.values["temperature_K"] == 60.0
        assert rc.values["gamma_ph_meV"] == 0.001
        assert rc.values["hbar_omega1_meV"] == 0.75
        assert rc.values["hbar_omega2_meV"] == 4.316
        assert rc.values["energy_gap_meV"] == 2.0
        assert rc.values["omega_b_meV"] == 1.48
        assert rc.values["alpha_p_over_4pi2_ps2"] == 0.06
        assert rc.values["omega1_tilde_meV"] == pytest.approx(math.sqrt(5.0))
        assert rc.values["n_levels"] == 15
        assert all(origin == "default" for origin in rc.provenance.values())

    def test_check_kind_reduces_truncation_default(self):
        assert parse_config("check").values["n_levels"] == 8
        assert parse_config("stage1").values["n_levels"] == 15

    def test_config_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "temperature_K = 80\n"
            "n_levels=6\n")
        rc = parse_config("stage1", config_path=str(path),
                          overrides=["n_levels=9"])
        assert rc.values["temperature_K"] == 80.0
        assert rc.values["n_levels"] == 9
        assert rc.provenance["temperature_K"] == "user"
        assert rc.provenance["n_levels"] == "user"
        assert rc.provenance["gamma_ph_meV"] == "default"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config("stage1", overrides=["bogus_key=1"])

    def test_wrong_kind_key_gets_hint(self):
        with pytest.raises(ConfigError, match="nucleus_count.*erasure"):
            parse_config("stage1", overrides=["nucleus_count=8"])
        with pytest.raises(ConfigError, match="temperature_K"):
            parse_config("erasure", overrides=["temperature_K=60"])

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="temperature_K"):
            parse_config("stage1", overrides=["temperature_K=-5"])

    def test_integer_key_rejects_fraction(self):
        with pytest.raises(ConfigError, match="n_levels.*integer"):
            parse_config("stage1", overrides=["n_levels=15.5"])

    def test_choice_key_rejects_unknown_option(self):
        with pytest.raises(ConfigError, match="detuning_reference"):
            parse_config("stage1", overrides=["detuning_reference=skew"])

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("stage1", overrides=["temperature_K"])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="temperature_K"):
            parse_config("stage1", overrides=["temperature_K=nan"])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="no-such-file"):
            parse_config("stage1", config_path="no-such-file.cfg")

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"\xff\xfe=1\n")
        with pytest.raises(ConfigError, match="latin.cfg"):
            parse_config("stage1", config_path=str(path))
        assert main(["stage1", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file")
        assert str(path) in err and "Traceback" not in err

    def test_engine_config_mapping(self):
        rc = parse_config("cycle", overrides=["temperature_K=75",
                                              "grid_dt_ps=0.1"])
        cfg = to_engine_config(rc)
        assert cfg.temperature == 75.0
        assert cfg.grid_dt == 0.1
        assert cfg.rabi1_energy == 0.75
        assert cfg.rabi2_energy == 4.316
        assert cfg.omega1_energy == pytest.approx(math.sqrt(5.0))
        assert cfg.detuning_reference == "relaxed"

    def test_parameter_table_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="fancy"):
            parameter_table("fancy")


class TestStage1Command:
    def test_artifacts_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["stage1", "--out", str(out)] + TINY) == 0
        data = read_rows(out_a / "stage1.csv")
        assert data.shape == (41, 7)
        assert data[0, 0] == 0.0
        assert data[-1, 0] == pytest.approx(2.0)
        # populations plus exciton sum to one on every row
        assert np.allclose(data[:, 1] + data[:, 2] + data[:, 3], 1.0,
                           atol=1e-9)
        assert (out_a / "stage1.csv").read_bytes() == \
               (out_b / "stage1.csv").read_bytes()
        assert (out_a / "stage1_summary.json").read_bytes() == \
               (out_b / "stage1_summary.json").read_bytes()

    def test_header_records_provenance(self, tmp_path):
        out = tmp_path / "run"
        assert main(["stage1", "--out", str(out), "--set", "temperature_K=70"]
                    + TINY) == 0
        header = [line for line in
                  (out / "stage1.csv").read_text().splitlines()
                  if line.startswith("#")]
        assert header[0].startswith("# spinheat ")
        assert "# kind = stage1" in header
        assert "# temperature_K = 70  [user]" in header
        assert "# gamma_ph_meV = 0.001  [default]" in header
        assert header[-1].startswith("# columns: t_ps,rho_up,")

    def test_config_file_flows_through(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_levels=4\nstage1_duration_ps=1\n")
        out = tmp_path / "run"
        assert main(["stage1", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "stage1_summary.json").read_text())
        assert summary["parameters"]["n_levels"] == 4
        assert summary["provenance"]["n_levels"] == "user"
        assert summary["trajectory"]["rows"] == 21

    def test_invalid_override_exits_2(self, tmp_path, capsys):
        assert main(["stage1", "--out", str(tmp_path),
                     "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["gamma_ph_meV=1e300",
                                          "temperature_K=1e308"])
    def test_unrepresentable_generator_exits_3(self, tmp_path, capsys,
                                               override):
        assert main(["stage1", "--out", str(tmp_path),
                     "--set", override] + TINY) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err

    def test_vanishing_temperature_warns_nothing(self, tmp_path):
        # hbar omega1 / kB T overflows to inf: the mode starts in its
        # ground state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stage1", "--out", str(tmp_path),
                         "--set", "temperature_K=1e-307"] + TINY) == 0
        summary = json.loads((tmp_path / "stage1_summary.json").read_text())
        assert summary["trajectory"]["final"]["rho_XX"] > 0

    @pytest.mark.parametrize("kind", ["stage1", "cycle", "check"])
    def test_unrepresentable_mode_coupling_exits_2(self, tmp_path, capsys,
                                                  kind):
        # omega_b**4 overflows a Python float, which raises OverflowError
        assert main([kind, "--out", str(tmp_path), "--set", "n_levels=3",
                     "--set", "omega_b_meV=1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "omega_b_meV" in err and "Traceback" not in err

    def test_huge_friction_refused_before_dense_work(self, tmp_path, capsys,
                                                     monkeypatch):
        # at the default n_levels=15 a dense step would square 2025 x 2025
        # matrices about 1000 times; the step-norm bound refuses it first
        import spinheat.propagator as propagator_module
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(propagator_module, "expm",
                            spy("expm", propagator_module.expm))
        monkeypatch.setattr(np.linalg, "eig", spy("eig", np.linalg.eig))
        assert main(["stage1", "--out", str(tmp_path),
                     "--set", "gamma_ph_meV=1e300"]) == 3
        assert calls == []
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("kind", ["stage1", "cycle", "check"])
    def test_oversized_dense_block_refused_before_dense_work(
            self, tmp_path, capsys, monkeypatch, kind):
        # n_levels=4 steps densely, and check decomposes its blocks densely;
        # a bound just below the stage-1 block (5 n_levels^2 = 80
        # coordinates) refuses both before any expm or eig
        import spinheat.propagator as propagator_module
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(propagator_module, "MAX_DENSE_DIMENSION", 79)
        monkeypatch.setattr(propagator_module, "expm",
                            spy("expm", propagator_module.expm))
        monkeypatch.setattr(np.linalg, "eig", spy("eig", np.linalg.eig))
        assert main([kind, "--out", str(tmp_path)] + TINY) == 3
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "80 coordinates" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_levels", [23, 24])
    def test_strong_friction_on_an_oversized_block_refused_before_dense_work(
            self, tmp_path, capsys, monkeypatch, n_levels):
        # at gamma_ph = 30 meV the stage-1 block of 5 n_levels^2 > 2500
        # coordinates is stiff enough for dense steps, so the run is
        # refused before any expm or eig instead of taking Taylor steps
        import spinheat.propagator as propagator_module
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(propagator_module, "expm",
                            spy("expm", propagator_module.expm))
        monkeypatch.setattr(np.linalg, "eig", spy("eig", np.linalg.eig))
        assert main(["stage1", "--out", str(tmp_path),
                     "--set", f"n_levels={n_levels}",
                     "--set", "gamma_ph_meV=30"]) == 3
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert f"{5 * n_levels**2} coordinates" in err

    @pytest.mark.parametrize("override", ["grid_dt_ps=1e-300",
                                          "stage1_duration_ps=1e300"])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, override):
        assert main(["stage1", "--out", str(tmp_path),
                     "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "grid_dt_ps" in err and "Traceback" not in err

    def test_grid_bound_sits_at_max_grid_bytes(self):
        # refused or accepted in config, before any grid is built
        points = MAX_GRID_BYTES / (16 * 12**2)  # grid points at n_levels=4
        for count, fits in ((points - 12, True), (points + 10, False)):
            run_config = parse_config("stage1", overrides=[
                "n_levels=4", "stage1_duration_ps=1",
                f"grid_dt_ps={1 / (count - 2)!r}"])
            if fits:
                assert to_engine_config(run_config).n_levels == 4
            else:
                with pytest.raises(ConfigError, match="stage-1 grid"):
                    to_engine_config(run_config)

    def test_stiff_positivity_abort_exits_4_promptly(self, tmp_path):
        # Taylor steps would need ~1e9 matrix-vector products here; dense
        # steps form exp(V h) once and reach the positivity check.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(spinheat.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "spinheat.cli", "stage1",
             "--out", str(tmp_path), "--set", "n_levels=4",
             "--set", "gamma_ph_meV=1e6"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 4
        assert proc.stderr.startswith("positivity abort:")


class TestCycleCommand:
    def test_summary_ledger_identities(self, tmp_path):
        out = tmp_path / "cycle"
        assert main(["cycle", "--out", str(out)] + TINY) == 0
        summary = json.loads((out / "cycle_summary.json").read_text())
        ledger = summary["ledger"]
        assert ledger["work_meV"] == ledger["heat_meV"]
        assert ledger["spinlabor_hbar"] == -ledger["spintherm_hbar"]
        assert ledger["transfer_probability"] == pytest.approx(
            summary["final_populations"]["dn"], abs=1e-12)
        assert 0.0 < summary["switch"]["time_ps"] <= 2.0
        assert summary["stage2_duration_ps"] > 0.0
        data = read_rows(out / "cycle.csv")
        assert data.shape[1] == 7
        # combined trajectory extends past the switch time
        assert data[-1, 0] > summary["switch"]["time_ps"]

    @pytest.mark.parametrize("omega2", ["1e-300", "1e-320"])
    def test_unbounded_stage2_grid_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, omega2):
        # 1e-300 gives a pi time of 2e300 ps, 1e-320 one that overflows
        import spinheat.cli as cli_module

        def unreachable(cfg):
            raise AssertionError("the cycle ran")

        monkeypatch.setattr(cli_module, "run_cycle", unreachable)
        assert main(["cycle", "--out", str(tmp_path), "--set", "n_levels=3",
                     "--set", f"hbar_omega2_meV={omega2}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "hbar_omega2_meV" in err and "Traceback" not in err

    def test_stage2_grid_bound_sits_at_max_grid_bytes(self):
        # the stage-2 window, 1.2 pi hbar / hbar_omega2_meV, on the 0.05 ps
        # grid plus the 41 pi candidates, at n_levels=4
        points = MAX_GRID_BYTES / (16 * 12**2)
        for count, fits in ((points - 12, True), (points + 10, False)):
            omega2 = 1.2 * math.pi * HBAR / (0.05 * (count - 2 - 41))
            run_config = parse_config("cycle", overrides=[
                "n_levels=4", f"hbar_omega2_meV={omega2!r}"])
            if fits:
                assert to_engine_config(run_config).rabi2_energy == omega2
            else:
                with pytest.raises(ConfigError, match="stage-2 grid"):
                    to_engine_config(run_config)

    @pytest.mark.parametrize("kind", ["stage1", "sweep"])
    def test_stage1_runs_accept_any_pi_time(self, kind):
        run_config = parse_config(kind, overrides=["hbar_omega2_meV=1e-320"])
        assert to_engine_config(run_config).rabi2_energy == 1e-320


class TestErasureCommand:
    def test_default_report(self, tmp_path):
        out = tmp_path / "erasure"
        assert main(["erasure", "--out", str(out)]) == 0
        summary = json.loads((out / "erasure_summary.json").read_text())
        assert summary["parameters"]["nucleus_count"] == 8
        suppression = summary["suppression"]
        assert suppression["phi_tau_sigma"] == 8.0
        assert suppression["discrete_ratio"] < 0.05
        for branch in summary["branches"]:
            assert branch["fidelity"] >= 0.99
        up = summary["up_population"]
        assert up["oracle"] >= up["floor"]
        assert up["floor"] == pytest.approx(
            1 - 2 * suppression["discrete_ratio"])
        feasibility = summary["feasibility"]
        assert feasibility["current_time_threshold"] == pytest.approx(
            4.175873963379625e-10, rel=1e-12)
        assert feasibility["current_threshold"] == pytest.approx(
            0.4175873963379625, rel=1e-12)
        rows = [line for line in (out / "erasure.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 2
        assert rows[0].startswith("up,") and rows[1].startswith("down,")

    def test_summary_is_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["erasure", "--out", str(tmp_path)]) == 0
        json.loads((tmp_path / "erasure_summary.json").read_text(),
                   parse_constant=refuse)

    def test_forty_nuclei_verified(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(spinheat.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "spinheat.cli", "erasure",
             "--out", str(tmp_path), "--set", "nucleus_count=40"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "erasure_summary.json").read_text())
        assert summary["parameters"]["nucleus_count"] == 40
        branches = summary["branches"]
        assert len(branches) == 2
        assert all(b["fidelity"] >= 1 - 1e-9 for b in branches)
        up = summary["up_population"]
        assert up["oracle"] >= up["floor"]

    def test_forty_one_nuclei_exits_2(self, tmp_path, capsys):
        assert main(["erasure", "--out", str(tmp_path),
                     "--set", "nucleus_count=41"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_ineffective_pulse_exits_2(self, tmp_path, capsys):
        code = main(["erasure", "--out", str(tmp_path / "x"),
                     "--set", "suppression_phi_tau_sigma=0"])
        assert code == 2
        assert "ineffective" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "lattice_jitter_nm=1e6", "sigma_nm=1e-300", "sigma_nm=1e300",
        "coupling_scale_rad_per_ps=1e300", "coupling_scale_rad_per_ps=1e-300",
        "g_n=1e-300", "pulse_gradient_T_per_nm=1e300",
        "pulse_duration_ps=1e-320", "pulse_duration_ns=1e-320",
        "lattice_jitter_nm=1.7e308"])
    def test_unusable_chain_exits_2(self, tmp_path, capsys, override):
        # each key is valid alone, but the couplings underflow to zero, the
        # jitter's range, the envelope width, the couplings' squared sum or
        # the pulse rates overflow, or the feasibility estimate leaves
        # floating-point range (the feasibility duration underflows to 0 s)
        assert main(["erasure", "--out", str(tmp_path),
                     "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore")
    def test_overflowing_pulse_phases_exit_2(self, tmp_path, capsys):
        # the rates are finite, but rates times the pulse duration is not
        assert main(["erasure", "--out", str(tmp_path),
                     "--set", "suppression_phi_tau_sigma=1.7e308",
                     "--set", "pulse_duration_ps=1e30"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    @pytest.mark.parametrize("overrides", [
        ("wire_radius_nm=1.7e308", "standoff_nm=1.7e308"),
        ("sigma_nm=1e30", "pulse_gradient_T_per_nm=1e300"),
        ("pulse_gradient_T_per_nm=1e-320", "pulse_duration_ns=1.7e308"),
    ], ids=["distance", "suppression", "vanishing-gradient"])
    def test_non_finite_feasibility_exits_2(self, tmp_path, capsys,
                                            overrides):
        # Python float products overflow to inf, and inf times a gradient
        # that underflows gives NaN, without raising
        argv = ["erasure", "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert not (tmp_path / "erasure_summary.json").exists()

    def test_vanishing_continuum_reference_warns_nothing(self, tmp_path):
        # the continuum Gaussian of phi tau sigma = 1e300 underflows to 0;
        # squaring its exponent overflows on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["erasure", "--out", str(tmp_path),
                         "--set", "suppression_phi_tau_sigma=1e300"]) == 0
        summary = json.loads((tmp_path / "erasure_summary.json").read_text())
        assert summary["suppression"]["continuum_ratio"] == 0.0

    def test_jitter_is_seeded(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["erasure", "--out", str(out),
                         "--set", "lattice_jitter_nm=0.3",
                         "--set", "seed=7"]) == 0
            outs.append((out / "erasure_summary.json").read_bytes())
        assert outs[0] == outs[1]
        out_c = tmp_path / "c"
        assert main(["erasure", "--out", str(out_c),
                     "--set", "lattice_jitter_nm=0.3",
                     "--set", "seed=8"]) == 0
        gamma = json.loads(outs[0])["gamma_rad2_per_ps2"]
        gamma_c = json.loads(
            (out_c / "erasure_summary.json").read_text())["gamma_rad2_per_ps2"]
        assert gamma != gamma_c


@pytest.fixture
def deadline():
    """Fail a run whose forked workers or pipes hang, rather than hang."""
    def expire(signum, frame):
        raise TimeoutError("run still going after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The pid of the caller of each os.fork."""
    calls = []
    real_fork = os.fork

    def spy():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls


def _failing_points(*failing):
    """engine._point_checks that raises NumericalError, naming the point,
    at the CHECK_GRID indices in ``failing``."""
    from spinheat.engine import CHECK_GRID, _point_checks

    def checks(cfg, point):
        if CHECK_GRID.index(point) in failing:
            raise NumericalError(f"injected at point "
                                 f"{CHECK_GRID.index(point)}")
        return _point_checks(cfg, point)
    return checks


@pytest.mark.usefixtures("deadline")
class TestCheckCommand:
    def test_all_invariants_pass(self, capsys):
        code = main(["check", "--set", "n_levels=4",
                     "--set", "stage1_duration_ps=5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "check: 16/16 passed"
        assert sum(1 for line in lines if line.endswith("PASS")) == 16
        assert not any(line.endswith("FAIL") for line in lines)

    @pytest.mark.parametrize("source", ["set", "config"])
    @pytest.mark.parametrize("key", ["temperature_K", "gamma_ph_meV"])
    def test_keys_of_the_fixed_grid_exit_2(self, tmp_path, capsys, key,
                                           source):
        # CHECK_GRID sets both at every point, so a given value would be
        # ignored
        if source == "set":
            argv = ["--set", f"{key}=5"]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = 5\n")
            argv = ["--config", str(path)]
        assert main(["check"] + argv + TINY) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert key in lines[0] and "(60 K, 0.001 meV)" in lines[0]

    @pytest.mark.parametrize("argv, failing, code", [
        (TINY, (), 0),
        (["--set", "n_levels=3", "--set", "omega_b_meV=1e300"], (), 2),
        (TINY, (1, 2), 3),
    ], ids=["passing", "config-error", "two-failing-points"])
    def test_forked_points_report_as_inline(self, capsys, monkeypatch, forks,
                                            argv, failing, code):
        # with two workers, points 0 and 2 run in one and 1 and 3 in the
        # other; the first error in grid order is reported
        monkeypatch.setattr(engine_module, "_point_checks",
                            _failing_points(*failing))
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        runs = [(main(["check"] + argv), capsys.readouterr())]
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        runs.append((main(["check"] + argv), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        if failing:
            assert runs[0][1].out == ""
            assert runs[0][1].err == "numerical failure: injected at point 1\n"

    @pytest.mark.parametrize("die, status", [
        (lambda: os._exit(7), "exited with status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit-status", "signal"])
    def test_dead_worker_exits_3(self, capsys, monkeypatch, die, status):
        from spinheat.engine import CHECK_GRID

        def dying(cfg, point):
            # runs in the second of two forked workers, never in pytest
            if point == CHECK_GRID[1]:
                die()
            return point_checks(cfg, point)

        point_checks = engine_module._point_checks
        monkeypatch.setattr(engine_module, "_point_checks", dying)
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        assert main(["check"] + TINY) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: check worker {status}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cores, workers", [(1, 0), (2, 2), (3, 3),
                                                (8, 4)])
    def test_workers_capped_by_grid_and_cores(self, capsys, monkeypatch,
                                              forks, cores, workers):
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: cores)
        assert main(["check"] + TINY) == 0
        assert len(forks) == workers
        assert capsys.readouterr().out.endswith("check: 16/16 passed\n")


@pytest.mark.usefixtures("deadline")
class TestSweepCommand:
    def test_grid_artifacts_and_index(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150",
                     "--axis", "gamma_ph_meV=0.001,0.1"] + TINY) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["axes"] == {"temperature_K": [60.0, 150.0],
                                 "gamma_ph_meV": [0.001, 0.1]}
        assert [p["status"] for p in index["points"]] == ["ok"] * 4
        assert index["points"][1]["values"] == {"temperature_K": 60.0,
                                                "gamma_ph_meV": 0.1}
        for point in index["points"]:
            rows = read_rows(out / point["directory"] / "stage1.csv")
            assert rows.shape == (41, 7)

    def test_point_header_marks_axis_values_as_user(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out),
                     "--axis", "temperature_K=60,150"] + TINY) == 0
        text = (out / "point_001" / "stage1.csv").read_text()
        assert "# temperature_K = 150  [user]" in text
        assert "# kind = stage1" in text

    def test_empty_axis_single_run(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        plain_out = tmp_path / "plain"
        assert main(["sweep", "--out", str(sweep_out)] + TINY) == 0
        assert main(["stage1", "--out", str(plain_out)] + TINY) == 0
        index = json.loads((sweep_out / "sweep_index.json").read_text())
        assert len(index["points"]) == 1
        assert (sweep_out / "point_000" / "stage1.csv").read_bytes() == \
               (plain_out / "stage1.csv").read_bytes()

    def test_jobs_do_not_change_artifacts(self, tmp_path):
        outs = []
        for jobs, name in (("1", "serial"), ("3", "parallel")):
            out = tmp_path / name
            assert main(["sweep", "--out", str(out), "--jobs", jobs,
                         "--axis", "temperature_K=60,90,150"] + TINY) == 0
            outs.append(out)
        for point in ("point_000", "point_001", "point_002"):
            assert (outs[0] / point / "stage1.csv").read_bytes() == \
                   (outs[1] / point / "stage1.csv").read_bytes()
        assert (outs[0] / "sweep_index.json").read_bytes() == \
               (outs[1] / "sweep_index.json").read_bytes()

    def test_failed_point_recorded_and_sweep_continues(self, tmp_path,
                                                       monkeypatch):
        import spinheat.cli as cli_module
        real = cli_module._run

        def flaky(run_config):
            if run_config.values["temperature_K"] == 150.0:
                raise NumericalError("injected failure")
            return real(run_config)

        monkeypatch.setattr(cli_module, "_run", flaky)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out),
                     "--axis", "temperature_K=60,150"] + TINY) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["points"][0]["status"] == "ok"
        assert index["points"][1]["status"] == "numerical-error"
        assert "injected" in index["points"][1]["message"]
        assert (out / "point_000" / "stage1.csv").exists()

    def test_unexpected_point_failure_recorded_and_exits_3(
            self, tmp_path, capsys, monkeypatch):
        import spinheat.cli as cli_module
        real = cli_module._run

        def broken(run_config):
            if run_config.values["temperature_K"] == 150.0:
                raise RuntimeError("injected bug")
            return real(run_config)

        monkeypatch.setattr(cli_module, "_run", broken)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150,90"] + TINY) == 3
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["ok", "error", "ok"]
        assert index["points"][1]["message"] == "RuntimeError: injected bug"
        assert (out / "point_002" / "stage1.csv").exists()
        err = capsys.readouterr().err
        assert "point_001" in err and "Traceback" not in err

    @pytest.mark.parametrize("die, message", [
        (lambda: os._exit(7), "sweep worker exited with status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         "sweep worker killed by signal 9"),
    ], ids=["exit-status", "signal"])
    def test_dead_worker_maps_to_error_and_exits_3(
            self, tmp_path, capsys, monkeypatch, die, message):
        import spinheat.cli as cli_module
        real = cli_module._run

        def dying(run_config):
            # runs in the second of two forked workers, never in pytest
            if run_config.values["temperature_K"] == 150.0:
                die()
            return real(run_config)

        monkeypatch.setattr(cli_module, "_run", dying)
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150,90"] + TINY) == 3
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["ok", "error", "ok"]
        assert index["points"][1]["message"] == message
        assert (out / "point_002" / "stage1.csv").exists()
        err = capsys.readouterr().err
        assert f"point_001: {message}" in err and "Traceback" not in err

    def test_short_worker_result_maps_to_error(self, tmp_path, monkeypatch):

        def cut_short(obj, handle, protocol=None):
            handle.write(pickle.dumps(obj, protocol)[:20])

        monkeypatch.setattr(pickle, "dump", cut_short)
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150"] + TINY) == 3
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["message"] for p in index["points"]] == [
            "sweep worker exited with status 0, result cut short"] * 2

    def test_parent_failure_kills_and_reaps_workers(self, tmp_path,
                                                    monkeypatch):

        def fail(data):
            raise RuntimeError("parent failed")

        monkeypatch.setattr(pickle, "loads", fail)
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="parent failed"):
            main(["sweep", "--out", str(tmp_path), "--jobs", "2",
                  "--axis", "temperature_K=60,150"] + TINY)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("temperatures, cores", [
        ("60,90,150", None), ("60", None), ("60,90,150", 1)])
    def test_workers_capped_by_points_and_cores(self, tmp_path, monkeypatch,
                                                forks, temperatures, cores):
        if cores is not None:
            monkeypatch.setattr(pool_module, "usable_cpus", lambda: cores)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "100000",
                     "--axis", f"temperature_K={temperatures}"] + TINY) == 0
        workers = min(len(temperatures.split(",")),
                      pool_module.usable_cpus())
        assert len(forks) == (workers if workers > 1 else 0)

    def test_failed_fork_is_not_an_output_error(self, tmp_path,
                                                monkeypatch):
        def refuse():
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 2)
        with pytest.raises(BlockingIOError, match="no process left"):
            main(["sweep", "--out", str(tmp_path), "--jobs", "2",
                  "--axis", "temperature_K=60,150"] + TINY)

    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_capped_by_usable_cpus(self, tmp_path, monkeypatch,
                                           forks, affinity):
        # a process pinned to one CPU of two forks no worker; without an
        # affinity call every CPU of the host counts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150"] + TINY) == 0
        assert len(forks) == (0 if affinity else 2)

    def test_points_run_inline_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--jobs", "2",
                     "--axis", "temperature_K=60,150"] + TINY) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["ok", "ok"]

    def test_jobs_do_not_change_dense_taylor_or_failing_points(
            self, tmp_path):
        # n_levels=3 and (5, 1 meV) step densely, (5, 0.001 meV) by Taylor
        # steps, and 1e300 meV fails with numerical-error
        grid = ["--axis", "n_levels=3,5",
                "--axis", "gamma_ph_meV=0.001,1,1e300",
                "--set", "stage1_duration_ps=2"]
        trees = []
        for run, jobs in enumerate(("1", "2", "3", "2")):
            out = tmp_path / f"run{run}"
            assert main(["sweep", "--out", str(out), "--jobs", jobs]
                        + grid) == 0
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*"))
                          if path.is_file()})
        assert all(tree == trees[0] for tree in trees[1:])
        index = json.loads(trees[0][pathlib.Path("sweep_index.json")])
        assert [p["status"] for p in index["points"]] == [
            "ok", "ok", "numerical-error"] * 2
        dense = [json.loads(trees[0][pathlib.Path(f"point_{i:03d}",
                                                  "stage1_summary.json")])
                 ["trajectory"]["used_dense_propagation"]
                 for i in (0, 1, 3, 4)]
        assert dense == [True, True, False, True]

    def test_unwritable_point_artifact_recorded_as_error(self, tmp_path,
                                                         capsys):
        # a point's own artifacts are written by the worker that runs it:
        # a write that fails there is that point's error, not the sweep's
        out = tmp_path / "sweep"
        (out / "point_001" / "stage1.csv").mkdir(parents=True)
        assert main(["sweep", "--out", str(out),
                     "--axis", "temperature_K=60,150"] + TINY) == 3
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["ok", "error"]
        assert index["points"][1]["message"].startswith(
            "IsADirectoryError: [Errno 21] ")
        err = capsys.readouterr().err
        assert "point_001: IsADirectoryError" in err
        assert "Traceback" not in err

    def test_unrepresentable_point_recorded_and_index_written(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--set", "n_levels=3",
                     "--axis", "gamma_ph_meV=1e300,0.001"]) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == [
            "numerical-error", "ok"]
        assert (out / "point_001" / "stage1.csv").exists()

    def test_oversized_grid_points_recorded_and_index_written(self,
                                                              tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out),
                     "--set", "stage1_duration_ps=1e300",
                     "--axis", "temperature_K=60,150"]) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["config-error"] * 2
        assert "stage-1 grid" in index["points"][0]["message"]

    def test_truncation_axis_emits_convergence_report(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out),
                     "--axis", "n_levels=4,5,6",
                     "--set", "stage1_duration_ps=2"]) == 0
        index = json.loads((out / "sweep_index.json").read_text())
        report = index["convergence"]
        assert [entry["n_levels"] for entry in report] == [[4, 5], [5, 6]]
        for entry in report:
            assert entry["max_rho_XX_drift"] >= 0.0
            assert isinstance(entry["converged"], bool)
        # richer truncation only refines the tail of the ladder
        assert report[1]["max_rho_XX_drift"] <= report[0]["max_rho_XX_drift"]

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path),
                     "--axis", "grid_dt_ps=0.1,0.2"])
        assert code == 2
        assert "grid_dt_ps" in capsys.readouterr().err

    def test_duplicate_axis_rejected(self, tmp_path):
        code = main(["sweep", "--out", str(tmp_path),
                     "--axis", "temperature_K=60",
                     "--axis", "temperature_K=80"])
        assert code == 2


class TestArgumentErrors:
    @pytest.mark.parametrize("kind, argv", [
        ("stage1", TINY), ("cycle", TINY), ("erasure", []),
        ("sweep", ["--axis", "temperature_K=60,150"] + TINY)])
    @pytest.mark.parametrize("under_file", [False, True],
                             ids=["file", "under-file"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, kind, argv,
                                  under_file):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        out = taken / "run" if under_file else taken
        assert main([kind, "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot use output directory "
                              f"{out}: ")
        assert len(err.splitlines()) == 1
        assert taken.read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize("kind, argv, artifact", [
        ("stage1", TINY, "stage1.csv"),
        ("cycle", TINY, "cycle_summary.json"),
        ("erasure", [], "erasure_summary.json"),
        ("sweep", ["--axis", "temperature_K=60,150"] + TINY,
         "sweep_index.json")], ids=["stage1", "cycle", "erasure", "sweep"])
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, kind, argv,
                                         artifact):
        taken = tmp_path / artifact
        taken.mkdir()
        assert main([kind, "--out", str(tmp_path)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"config error: cannot write {taken}: [Errno 21] ")
        assert len(captured.err.splitlines()) == 1
        assert not any(taken.iterdir())

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_nonpositive_jobs_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--jobs", "0"])
        assert err.value.code == 2


def test_csv_rows_are_written_as_format_value_writes_them(tmp_path):
    # all-float rows take one "%.17g" format call per row, the others
    # _format_value per value: the bytes must not depend on which
    extremes = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                1.7e308, -1.7e308, 0.1, 1 / 3, -2.5e-17]
    rows = [(v, np.float64(v), -np.float64(v)) for v in extremes]
    rows += [(1, 2.5, np.float64(-0.0)), (np.float64(0.1), 7, "up"),
             (True, math.inf, 10**20)]
    path = tmp_path / "rows.csv"
    _write_csv(path, parse_config("stage1"), ("a", "b", "c"), rows)
    lines = path.read_text().splitlines()
    assert lines[-len(rows) - 1] == "# columns: a,b,c"
    assert lines[-len(rows):] == [
        ",".join(_format_value(v) for v in row) for row in rows]


def test_cli_imports_no_numpy_and_defines_no_record():
    # the CLI parses, calls the library and writes what the records build
    # of themselves: no array arithmetic and no record classes of its own
    tree = ast.parse(pathlib.Path(spinheat.__file__).with_name("cli.py")
                     .read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"numpy", "scipy", "dataclasses", "typing"}
    assert not any(isinstance(node, ast.ClassDef) for node in ast.walk(tree))


def test_cli_reads_no_config_key_and_assembles_no_run():
    # each run kind is one library call: the CLI names no config key, so
    # it reads no value by key, and no piece of a run
    tree = ast.parse(pathlib.Path(spinheat.__file__).with_name("cli.py")
                     .read_text())
    keys = {key for kind in config_module.RUN_KINDS
            for key in parameter_table(kind)}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert not strings & keys
    assert not any(isinstance(node, ast.Subscript)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "values"
                   for node in ast.walk(tree))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"initial_state", "heat_extraction_stage",
                        "verified_erasure_step", "pulse_feasibility",
                        "CHECK_GRID"}


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # scipy.linalg would also load scipy's own BLAS; the stage1 run at
    # n_levels=4 takes the dense steps, so a lazy import would show there
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(spinheat.__file__)))
    script = (
        "import sys, spinheat.cli\n"
        "loaded = lambda: [name for name in ('scipy.integrate', 'scipy.linalg')"
        " if name in sys.modules]\n"
        "print(loaded())\n"
        f"code = spinheat.cli.main(['stage1', '--out', {str(tmp_path)!r},"
        " '--set', 'n_levels=4'])\n"
        "print(code, loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


def test_cli_main_imports_nothing(tmp_path):
    # the benchmark's order: import, parse, then time main alone; a lazy
    # import in main (numpy.random for the jitter) would land in its time
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(spinheat.__file__)))
    runs = [["erasure", "--set", "lattice_jitter_nm=0.2"],
            ["cycle", *TINY],
            ["sweep", "--jobs", "2", "--axis", "temperature_K=60,90", *TINY],
            ["check", *TINY]]
    script = (
        "import sys, spinheat.cli as cli\n"
        f"for argv in {runs!r}:\n"
        f"    argv += ['--out', {str(tmp_path)!r}]\n"
        "    args = cli.build_parser().parse_args(argv)\n"
        "    cli.parse_config(args.kind, config_path=args.config,\n"
        "                     overrides=args.overrides)\n"
        "    before = set(sys.modules)\n"
        "    code = cli.main(argv)\n"
        "    print(argv[0], code, sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line for line in lines
            if line.startswith(("erasure ", "cycle ", "sweep ", "check "))
            ] == ["erasure 0 []", "cycle 0 []", "sweep 0 []", "check 0 []"]


def test_cli_import_leaves_out_process_pools():
    # a sweep forks its workers with os.fork; these modules would add their
    # import time to every run kind's start-up
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(spinheat.__file__)))
    script = (
        "import sys, spinheat.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0]\n"
        "             in ('concurrent', 'multiprocessing', 'subprocess')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


# the float keys of both tables; int and choice keys parse no such value
EXTREME_KEYS = {
    table: tuple(name for name, spec in parameter_table(table).items()
                 if spec.value_type is float)
    for table in ("stage1", "erasure")}
EXTREME_BASE = {
    "stage1": ("n_levels=3", "stage1_duration_ps=1"),
    "cycle": ("n_levels=3", "stage1_duration_ps=1"),
    "erasure": ("nucleus_count=4",),
    "check": ("n_levels=3", "stage1_duration_ps=1"),
}
# magnitudes from 1e-320 to 1.7e308, spread evenly over the decades, of
# either sign
EXTREME_VALUES = st.builds(
    lambda mantissa, exponent, sign: sign * min(
        max(mantissa * 10.0**exponent, 1e-320), 1.7e308),
    st.floats(1.0, 10.0, exclude_max=True), st.integers(-320, 308),
    st.sampled_from((1.0, -1.0)))


def _extreme_runs():
    def assignments(kind):
        keys = EXTREME_KEYS["erasure" if kind == "erasure" else "stage1"]
        return st.tuples(st.just(kind), st.lists(
            st.tuples(st.sampled_from(keys), EXTREME_VALUES),
            min_size=1, max_size=2).map(tuple))
    return st.sampled_from(tuple(EXTREME_BASE)).flatmap(assignments)


# erasure's sudden-approximation warning is intended; any RuntimeWarning
# is a defect
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(run=_extreme_runs())
@example(run=("erasure", (("suppression_phi_tau_sigma", 1.7e308),
                          ("pulse_duration_ps", 1e30))))
@example(run=("erasure", (("wire_radius_nm", 1.7e308),
                          ("standoff_nm", 1.7e308))))
@example(run=("erasure", (("sigma_nm", 1e30),
                          ("pulse_gradient_T_per_nm", 1e300))))
@example(run=("erasure", (("pulse_gradient_T_per_nm", 1e-320),
                          ("pulse_duration_ns", 1.7e308))))
# the stage-1 grid's end, duration + grid_dt / 2, overflows
@example(run=("stage1", (("stage1_duration_ps", 1.7e308),
                         ("grid_dt_ps", 1.7e308))))
@example(run=("cycle", (("stage1_duration_ps", 1.7e308),
                        ("grid_dt_ps", 1.7e308))))
@example(run=("check", (("stage1_duration_ps", 1.7e308),
                        ("grid_dt_ps", 1.7e308))))
def test_extreme_values_map_to_an_exit_code(run):
    """Any value of one or two keys exits 0, 2, 3 or 4, never with a
    traceback, and an exit 0 leaves a strict-JSON summary, or for check a
    report whose verdict says every record passed. Every grid is held to
    16 MB, so that a drawn grid size or pi time exits 2 before it
    allocates much."""
    kind, assignments = run
    argv = [kind]
    for override in EXTREME_BASE[kind] + tuple(
            f"{key}={value!r}" for key, value in assignments):
        argv += ["--set", override]
    err, report = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(config_module, "MAX_GRID_BYTES", 2**24), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(report):
        code = main(argv + ["--out", out])
        summaries = [path.read_text()
                     for path in pathlib.Path(out).glob("*_summary.json")]
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0 and kind == "check":
        assert report.getvalue().splitlines()[-1] == "check: 16/16 passed"
    elif code == 0:
        assert len(summaries) == 1
        json.loads(summaries[0], parse_constant=_refuse_constant)


@pytest.mark.parametrize("argv, message", [
    # hbar / 2 omega1 overflows: the position scale is not finite
    (["stage1", "--set", "omega1_tilde_meV=1e-309"],
     "numerical failure: omega1_tilde_meV = 1e-309 "),
    # hbar omega1 (n + 1/2) overflows in the mode energy
    (["cycle", "--set", "omega1_tilde_meV=1e308"],
     "numerical failure: omega1_tilde_meV = 1e+308 "),
    # the diffusion coefficient 2 gamma_ph E_th / hbar^2 overflows
    (["stage1", "--set", "gamma_ph_meV=6.3e169",
      "--set", "omega1_tilde_meV=1.5e173"],
     "numerical failure: superoperator entries are not finite"),
    # the inverse of the oracle's eigenvectors overflows
    (["check", "--set", "gamma_R_meV=1e200"],
     "numerical failure: superoperator eigendecomposition failed: "
     "eigenvector inverse is not finite"),
    # sigma^2 underflows to 0 in the Gaussian envelope's exponent
    (["erasure", "--set", "sigma_nm=6.3e-279",
      "--set", "lattice_jitter_nm=2e-24"],
     "config error: no usable nuclear chain"),
], ids=["position-scale", "mode-energy", "diffusion", "oracle-inverse",
        "envelope"])
def test_overflow_is_refused_warning_nothing(tmp_path, capsys, argv,
                                             message):
    # a forked check worker inherits the filter and sends the error back
    for override in EXTREME_BASE[argv[0]]:
        argv = argv + ["--set", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(tmp_path)])
    assert code == (2 if message.startswith("config") else 3)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
