import ast
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polarlat
from polarlat import cli, fields, meanfield
from polarlat.cli import load_config, main
from polarlat.errors import ConfigError
from polarlat.fields import ScalarField3D, write_field
from polarlat.model import SystemParams
from polarlat.observables import bhm_ratio


def run_cli(*args):
    return main(list(args))


def make_gaussian_files(tmp_path, n=25, box=3.0, sigma=1.0, chi=1e-19):
    ax = np.linspace(-box, box, n)
    dx = ax[1] - ax[0]
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    phi = ScalarField3D(np.exp(-(x * x + y * y + z * z) / (2 * sigma * sigma)),
                        (dx, dx, dx), (-box, -box, -box))
    kc = ScalarField3D(np.full(phi.shape, 12.0), phi.spacing, phi.origin)
    c3 = ScalarField3D(np.full(phi.shape, chi), phi.spacing, phi.origin)
    paths = {}
    for name, field in (("phi", phi), ("kc", kc), ("chi3", c3)):
        path = tmp_path / f"{name}.f3d"
        write_field(field, path)
        paths[name] = str(path)
    return paths


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["system"]["big_n"] == 8
        assert cfg["run"]["seed"] == 12345

    def test_file_and_types(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nbig_n = 3\ndetuning_g = 12\n"
                        "[phase_diagram]\npgm = yes\n"
                        "[critical]\nbig_n_list = 1, 3 8\n")
        cfg = load_config(str(path))
        assert cfg["system"]["big_n"] == 3
        assert cfg["phase_diagram"]["pgm"] is True
        assert cfg["critical"]["big_n_list"] == (1, 3, 8)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nbign = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_overrides(self):
        cfg = load_config(None, ["system.big_n=5", "run.seed=9"])
        assert cfg["system"]["big_n"] == 5
        assert cfg["run"]["seed"] == 9

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            load_config(None, ["system.big_n=three"])
        with pytest.raises(ConfigError):
            load_config(None, ["nosection.key=1"])
        with pytest.raises(ConfigError):
            load_config(None, ["garbage"])

    @pytest.mark.parametrize("value", ["/data/50%/phi.f3d", "%(x)s", "100%%"])
    def test_values_are_literal(self, tmp_path, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[kerr]\nphi_file = {value}\n")
        assert load_config(str(path))["kerr"]["phi_file"] == value
        assert run_cli("critical", "--config", str(path), "--outdir",
                       str(tmp_path / "out"),
                       "--set", "critical.big_n_list=1") == 0

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbig_n = 3\n",
        "[DEFAULT]\nbig_n = 3\n[run]\nseed = 1\n",
        "[system]\nz = 4\n[DEFAULT]\n",
    ])
    def test_default_section_rejected(self, tmp_path, capsys, text):
        # a [DEFAULT] key would be ignored or merged into every section
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"section \[DEFAULT\]$"):
            load_config(str(path))
        out = tmp_path / "out"
        assert run_cli("critical", "--config", str(path), "--outdir",
                       str(out)) == 2
        assert capsys.readouterr().err == (
            "polarlat: config error: unknown config section [DEFAULT]\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
    def test_seed_range_is_philox_keys(self, seed):
        assert load_config(None, [f"run.seed={seed}"])["run"]["seed"] == seed

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_seed_outside_philox_keys_rejected_at_load(
            self, tmp_path, monkeypatch, capsys, source, seed):
        flags = [f"--seed={seed}"] if source == "flag" else []
        if source == "environment":
            monkeypatch.setenv("POLARLAT_SEED", seed)
        out = tmp_path / "out"
        assert run_cli("disorder", "--outdir", str(out), *flags,
                       "--set", "disorder.points=2",
                       "--set", "disorder.sample_count=100") == 2
        assert capsys.readouterr().err == (
            f"polarlat: config error: run.seed must be in [0, 2**128), "
            f"got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,limit,extra", [
        ("phase_diagram.t_points", cli.MAX_CELLS, "phase_diagram.mu_points=1"),
        ("disorder.points", round(cli.MAX_GRID_POINTS ** (1 / 3)), None),
        # 112 count-table entries at n_mean 3
        ("disorder.sample_count", cli.MAX_DRAWS // 112, None),
    ])
    def test_array_size_bounds(self, key, limit, extra):
        # each bound admits its largest array and rejects one entry more,
        # at load time and with no array made
        sets = [extra] if extra else []
        assert load_config(None, [*sets, f"{key}={limit}"])
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            load_config(None, [*sets, f"{key}={limit + 1}"])

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")


class TestValidateCommand:
    def test_passes(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_failure(self, capsys, monkeypatch):
        # an interaction energy off by 1e-3 relative must not pass
        from polarlat import observables

        exact = observables.interaction_energy
        monkeypatch.setattr(observables, "interaction_energy",
                            lambda params: exact(params) * (1.0 + 1e-3))
        assert run_cli("validate") == 4
        assert "FAIL  interaction_energy_n8" in capsys.readouterr().out


class TestPhaseDiagramCommand:
    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("phase-diagram", "--outdir", str(out),
                       "--set", "phase_diagram.t_points=1",
                       "--set", "phase_diagram.t_max_g=0",
                       "--set", "phase_diagram.mu_points=1",
                       "--set", "phase_diagram.mu_min_g=-2.7",
                       "--set", "phase_diagram.mu_max_g=-2.7")
        assert code == 0
        rows = (out / "phase_diagram.csv").read_text().splitlines()
        assert rows[0] == "t,mu,psi,phase,filling"
        assert len(rows) == 2
        assert rows[1] == "0.0,-2.7,0.0,MI,1"
        meta = json.loads((out / "phase_diagram.json").read_text())
        assert meta["config"]["version"]
        assert (out / "config_snapshot.json").exists()

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        args = ("phase-diagram",
                "--set", "phase_diagram.t_points=3",
                "--set", "phase_diagram.t_max_g=0.018",
                "--set", "phase_diagram.mu_points=4",
                "--set", "phase_diagram.mu_min_g=-2.82",
                "--set", "phase_diagram.mu_max_g=-2.66",
                "--set", "phase_diagram.pgm=true")
        outputs = []
        for parent, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            outdir = tmp_path / parent / "out"
            assert run_cli(*args, "--outdir", str(outdir),
                           "--workers", workers) == 0
            outputs.append({name: (outdir / name).read_bytes()
                            for name in ("phase_diagram.csv",
                                         "phase_diagram.json",
                                         "phase_diagram.pgm")})
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("setting", [
        "phase_diagram.t_points=0",
        "phase_diagram.mu_points=0",
    ])
    def test_empty_axis_rejected_at_load(self, tmp_path, setting):
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out),
                       "--set", setting) == 2
        assert not out.exists()

    @pytest.mark.parametrize("settings", [
        ("phase_diagram.mu_min_g=nan", "phase_diagram.mu_points=1"),
        ("phase_diagram.t_min_g=0.02", "phase_diagram.t_max_g=0.01"),
        ("phase_diagram.t_min_g=-0.01", "phase_diagram.t_points=2",
         "phase_diagram.mu_points=2"),
        ("phase_diagram.mu_min_g=-2.7", "phase_diagram.mu_max_g=-2.7"),
        ("phase_diagram.t_max_g=inf", "phase_diagram.t_points=1"),
    ], ids=["mu_min_nan", "t_min_above_max", "t_min_negative",
            "mu_min_equals_max", "t_max_inf"])
    def test_bad_axis_value_rejected_at_load(self, tmp_path, settings):
        out = tmp_path / "out"
        args = [arg for item in settings for arg in ("--set", item)]
        assert run_cli("phase-diagram", "--outdir", str(out), *args) == 2
        assert not out.exists()

    def test_summary_counts_sf_and_runaway_cells(self, tmp_path, capsys):
        # t = 1 g is far above the lobe tip: both cells there run away
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out),
                       "--set", "phase_diagram.t_max_g=1.0",
                       "--set", "phase_diagram.t_points=2",
                       "--set", "phase_diagram.mu_min_g=-2.75",
                       "--set", "phase_diagram.mu_max_g=-2.7",
                       "--set", "phase_diagram.mu_points=2") == 0
        assert f"2x2 cells (2 SF, 2 runaway) -> {out} (" in capsys.readouterr().err
        meta = json.loads((out / "phase_diagram.json").read_text())
        assert meta["runaway_cells"] == 2

    @pytest.mark.parametrize("source", [
        ("--workers", "0"),
        ("--workers", "-3"),
        ("--set", "run.workers=0"),
        "POLARLAT_WORKERS=0",
    ])
    def test_workers_below_one_rejected_at_load(self, tmp_path, monkeypatch,
                                                source):
        if isinstance(source, str):
            monkeypatch.setenv(*source.split("="))
            source = ()
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out), *source,
                       "--set", "phase_diagram.t_points=1",
                       "--set", "phase_diagram.mu_points=1") == 2
        assert not out.exists()

    def test_override_precedence(self, tmp_path, monkeypatch):
        # flag > environment > --set > config file > default
        monkeypatch.setenv("POLARLAT_SEED", "777")
        monkeypatch.setenv("POLARLAT_WORKERS", "0")
        seeds = []
        for flags in (("--seed", "5", "--workers", "1"), ("--workers", "1")):
            out = tmp_path / str(len(seeds)) / "out"
            assert run_cli("phase-diagram", "--outdir", str(out), *flags,
                           "--set", "run.seed=3",
                           "--set", "phase_diagram.t_points=1",
                           "--set", "phase_diagram.t_max_g=0",
                           "--set", "phase_diagram.mu_points=1") == 0
            snap = json.loads((out / "config_snapshot.json").read_text())
            seeds.append(snap["run"]["seed"])
        assert seeds == [5, 777]

    def test_physical_units(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out), "--physical-units",
                       "--set", "phase_diagram.t_points=1",
                       "--set", "phase_diagram.t_max_g=0",
                       "--set", "phase_diagram.mu_points=1",
                       "--set", "phase_diagram.mu_min_g=-2.7",
                       "--set", "phase_diagram.mu_max_g=-2.7") == 0
        row = (out / "phase_diagram.csv").read_text().splitlines()[1]
        mu_value = float(row.split(",")[1])
        assert mu_value == pytest.approx(-2.7 * 2 * math.pi * 33.3e9, rel=1e-12)


class TestCriticalCommand:
    def test_single_row(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "critical.big_n_list=1") == 0
        rows = (out / "critical.csv").read_text().splitlines()
        assert rows[0].startswith("big_n,detuning_g,t_c,u,c_ph_sq,ratio")
        fields = rows[1].split(",")
        assert fields[-1] == "ok"
        assert float(fields[3]) == pytest.approx(2 - math.sqrt(2.0), rel=1e-9)
        assert float(fields[4]) == 0.5
        # the CLI hands its t_c to the library ratio, which finds the same
        assert fields[5] == repr(bhm_ratio(SystemParams.dimensionless(1)))

    def test_input_error_leaves_no_output(self, tmp_path):
        # g = 0 passes the load-time checks but not SystemParams: every row
        # is computed before the first write, so nothing is written
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "critical.big_n_list=1",
                       "--set", "system.g_ghz=0") == 2
        assert not out.exists()

    def test_every_row_failed_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # lobe 1 is empty at detuning -1e9 g: the only row fails
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "critical.big_n_list=1",
                       "--set", "critical.detuning_g_list=-1e9") == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "every row failed, the first at big_n=1, detuning_g=" in err
        assert "LobeError" in err

    def test_overflowing_row_fails_as_a_row(self, tmp_path, capsys):
        # at detuning 1e308 g the manifold energies overflow and lobe 1 has
        # a nan bound: that row fails, the detuning-0 row is written
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "critical.big_n_list=1",
                       "--set", "critical.detuning_g_list=0, 1e308") == 0
        rows = (out / "critical.csv").read_text().splitlines()
        assert rows[1].endswith(",ok")
        assert rows[2] == "1,1e+308,nan,nan,nan,nan,nan,nan,NumericalError"
        assert "error" not in capsys.readouterr().err

    def test_unphysical_row_is_input_error(self, tmp_path, capsys):
        # the impurity transition 1e6 g below an 817 nm cavity is negative:
        # bad input fails the run, where a numerical failure fails a row
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "critical.big_n_list=1",
                       "--set", "critical.detuning_g_list=0, 1e6") == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "polarlat: input error: omega_ph and omega_ex must be positive\n")

    def test_zero_wavelength_is_one_line_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("critical", "--outdir", str(out),
                       "--set", "system.wavelength_nm=0") == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "polarlat: config error: system.wavelength_nm must be > 0, "
            "got 0.0\n")


class TestDisorderCommand:
    def test_small_scan_deterministic(self, tmp_path):
        args = ("disorder",
                "--set", "system.detuning_g=12",
                "--set", "disorder.points=3",
                "--set", "disorder.sample_count=400")
        blobs = []
        for parent in ("a", "b"):
            outdir = tmp_path / parent / "out"
            assert run_cli(*args, "--outdir", str(outdir)) == 0
            blobs.append({name: (outdir / name).read_bytes()
                          for name in ("disorder_grid.csv",
                                       "disorder_boundary.csv",
                                       "disorder_summary.json")})
        assert blobs[0] == blobs[1]
        summary = json.loads(blobs[0]["disorder_summary.json"])
        assert summary["clean"]["t_c_g"] > 0
        rows = blobs[0]["disorder_grid.csv"].decode().splitlines()
        assert len(rows) == 1 + 27

    def test_seed_changes_results(self, tmp_path):
        args = ("disorder", "--set", "system.detuning_g=12",
                "--set", "disorder.points=3",
                "--set", "disorder.sample_count=400")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(*args, "--outdir", str(out1), "--seed", "1") == 0
        assert run_cli(*args, "--outdir", str(out2), "--seed", "2") == 0
        a = (out1 / "disorder_grid.csv").read_bytes()
        b = (out2 / "disorder_grid.csv").read_bytes()
        assert a != b

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLARLAT_SEED", "777")
        out = tmp_path / "out"
        assert run_cli("disorder", "--outdir", str(out),
                       "--set", "system.detuning_g=12",
                       "--set", "disorder.points=2",
                       "--set", "disorder.sample_count=200") == 0
        snap = json.loads((out / "config_snapshot.json").read_text())
        assert snap["run"]["seed"] == 777

    @pytest.mark.parametrize("setting", [
        "disorder.method=bogus",
        "disorder.n_dist=bogus",
        "disorder.quantile=0.7",
        "disorder.quantile=0",
        "disorder.points=0",
        "disorder.sample_count=0",
        "disorder.safety_factor=-5",
        "disorder.n_mean=0",
        "disorder.sigma_omega_max_g=0",
        "disorder.sigma_omega_max_g=inf",
        "disorder.delta_g_max=-0.1",
        "disorder.delta_g_max=1.5",
        # binomial counts need n_sigma_max^2 < n_mean (p = 0 at equality)
        pytest.param(("disorder.n_dist=binomial", "disorder.n_sigma_max=2"),
                     id="binomial-n_mean=3-n_sigma_max=2"),
        pytest.param(("disorder.n_mean=4", "disorder.n_dist=binomial",
                      "disorder.n_sigma_max=2"),
                     id="binomial-n_mean=4-n_sigma_max=2"),
        "disorder.n_sigma_max=0",
        "loss.q_cavity=0",
        "loss.tau_e_s=-1e-9",
        "loss.purcell_f=0",
        "loss.eta=0",
        "loss.eta=1",
        "system.g_ghz=0",
        "system.big_n=0",
        "system.z=0",
        "system.wavelength_nm=0",
        "system.wavelength_nm=-1",
        "critical.big_n_list=",
        "critical.big_n_list=0",
        "critical.big_n_list=3 0",
        "critical.detuning_g_list=",
    ])
    def test_invalid_value_rejected_at_load(self, tmp_path, setting):
        out = tmp_path / "out"
        sets = [arg for item in ((setting,) if isinstance(setting, str)
                                 else setting) for arg in ("--set", item)]
        assert run_cli("disorder", "--outdir", str(out),
                       "--set", "system.detuning_g=12",
                       "--set", "disorder.points=2",
                       "--set", "disorder.sample_count=200", *sets) == 2
        assert not out.exists()


class TestKerrCommand:
    @pytest.mark.parametrize("case", ["f3db-header", "f3dt-header", "phi-1e200",
                                      "k_c-1e100"])
    def test_input_past_the_limits_is_one_input_error(self, tmp_path, case):
        # headers that claim 10000^3 values, and fields whose products pass
        # the float range: one line, exit 2, no traceback and no warning
        paths = make_gaussian_files(tmp_path, n=8)
        if case == "f3db-header":
            Path(paths["phi"]).write_bytes(fields._HEADER.pack(
                b"F3DB", 1, 0, *(10_000,) * 3, *(1.0,) * 3, *(0.0,) * 3))
        elif case == "f3dt-header":
            Path(paths["phi"]).write_text(
                "F3DT 1\n10000 10000 10000\n1 1 1\n0 0 0\n1.0\n")
        else:
            amp, k_c = (1e200, 12.0) if case == "phi-1e200" else (1e77, 1e100)
            field = fields.read_field(paths["phi"])
            write_field(field.scaled(amp), paths["phi"])
            write_field(ScalarField3D(np.full(field.shape, k_c), field.spacing,
                                      field.origin), paths["kc"])
        code, err = run_strict(
            "kerr", "--outdir", str(tmp_path / "out"),
            "--set", f"kerr.phi_file={paths['phi']}",
            "--set", f"kerr.k_c_file={paths['kc']}",
            "--set", f"kerr.chi3_file={paths['chi3']}")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("polarlat: input error: ")
        assert ("byte offset" in err) == case.endswith("header")
        assert not (tmp_path / "out").exists()

    def test_gaussian_fixture(self, tmp_path):
        paths = make_gaussian_files(tmp_path)
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}",
                       "--set", "kerr.d_x_m=1.0") == 0
        payload = json.loads((out / "kerr.json").read_text())
        assert payload["t_self_energy_units"] == pytest.approx(
            math.exp(-0.25), rel=2e-3)
        assert payload["u_self_energy_units"] < 0
        assert payload["quadrature_error_t"] < 0.01

    def test_zero_nonlinearity(self, tmp_path):
        paths = make_gaussian_files(tmp_path, chi=0.0)
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 0
        payload = json.loads((out / "kerr.json").read_text())
        assert payload["u_self_energy_units"] == 0.0

    def test_missing_files_config_error(self, tmp_path):
        assert run_cli("kerr", "--outdir", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("key", ["phi", "kc", "chi3"])
    @pytest.mark.parametrize("bad", ["", "missing.f3d", "."])
    def test_bad_file_key_rejected_before_output(self, tmp_path, key, bad):
        # an empty key, a path that does not exist or a directory: exit 2
        # with nothing written to the output directory
        paths = make_gaussian_files(tmp_path, n=5)
        paths[key] = str(tmp_path / bad) if bad else ""
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["phi", "kc", "chi3"])
    def test_bad_magic_rejected_before_output(self, tmp_path, key, capsys):
        paths = make_gaussian_files(tmp_path, n=5)
        with open(paths[key], "r+b") as fh:
            fh.write(b"JUNK")
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 2
        assert "unrecognized magic" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_mismatch_writes_nothing(self, tmp_path, capsys):
        paths = make_gaussian_files(tmp_path, n=5)
        (tmp_path / "other").mkdir()
        other = make_gaussian_files(tmp_path / "other", n=7)
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={other['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 2
        assert "polarlat: input error: phi and k_c grids differ" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_zero_norm_mode_is_an_input_error(self, tmp_path, capsys):
        paths = make_gaussian_files(tmp_path, n=5)
        zero = ScalarField3D(np.zeros((5, 5, 5)), (1.5, 1.5, 1.5),
                             (-3.0, -3.0, -3.0))
        write_field(zero, paths["phi"])
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 2
        err = capsys.readouterr().err
        assert "polarlat: input error: mode normalization integral is 0" in err
        assert not out.exists()

    def test_malformed_field_reports_offset(self, tmp_path, capsys):
        paths = make_gaussian_files(tmp_path, n=7)
        broken = tmp_path / "broken.f3d"
        broken.write_bytes(open(paths["phi"], "rb").read()[:100])
        code = run_cli("kerr", "--outdir", str(tmp_path / "out"),
                       "--set", f"kerr.phi_file={broken}",
                       "--set", f"kerr.k_c_file={paths['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}")
        assert code == 2
        assert "byte offset" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nbig_n = not-a-number\n")
        assert run_cli("validate", "--config", str(path)) == 2

    def test_numerical_failure(self, tmp_path):
        # mu axis above the lobe accumulation point: no finite filling
        out = tmp_path / "out"
        code = run_cli("phase-diagram", "--outdir", str(out),
                       "--set", "phase_diagram.t_points=1",
                       "--set", "phase_diagram.t_max_g=0",
                       "--set", "phase_diagram.mu_points=1",
                       "--set", "phase_diagram.mu_min_g=0.5",
                       "--set", "phase_diagram.mu_max_g=0.5")
        assert code == 3

    def test_numerical_failure_leaves_no_output(self, tmp_path):
        # the cells at mu = 5 g have no finite filling: the grid fails after
        # it is computed, before anything is written
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out),
                       "--set", "phase_diagram.mu_max_g=5",
                       "--set", "phase_diagram.t_points=2",
                       "--set", "phase_diagram.mu_points=2") == 3
        assert not out.exists()

    def test_label_failure_raised_before_any_sf_solve(self, tmp_path, monkeypatch):
        # mu = 0.5 g has no finite filling and fails at the label; the SF
        # cell (t, mu) = (0.02, -0.3) g has filling 181 and runs away only
        # after seconds of cutoff growth, so it must not be solved at all
        def no_solve(*args, **kwargs):
            raise AssertionError("an SF cell was solved")

        monkeypatch.setattr(meanfield, "_solve", no_solve)
        out = tmp_path / "out"
        assert run_cli("phase-diagram", "--outdir", str(out),
                       "--set", "phase_diagram.t_points=2",
                       "--set", "phase_diagram.mu_min_g=-0.3",
                       "--set", "phase_diagram.mu_max_g=0.5",
                       "--set", "phase_diagram.mu_points=2") == 3
        assert not out.exists()


#: the files a successful run writes, for each drawn command
CONTRACT_FILES = {
    "phase-diagram": {"phase_diagram.csv", "phase_diagram.json"},
    "critical": {"critical.csv", "critical.json"},
    "disorder": {"disorder_grid.csv", "disorder_boundary.csv",
                 "disorder_summary.json"},
}

#: settings each run starts from: small grids and scans keep a run short
CONTRACT_BASE = {
    "phase-diagram": ("phase_diagram.t_points=2", "phase_diagram.mu_points=2"),
    "critical": ("critical.big_n_list=1",),
    "disorder": ("system.detuning_g=12", "disorder.points=2",
                 "disorder.sample_count=200"),
}

#: the edges of the float range every float key also takes: values whose
#: products with g or 1e-9 underflow, the least subnormal, and magnitudes
#: whose products overflow
FLOAT_EDGES = ("1e-300", "5e-324", "1e300", "1e308", "-1e308")

#: array sizes past the host's memory, past numpy's size limit, and (with
#: each key's bound + 1) just past the load-time bounds
INT_EDGES = (str(10 ** 12), str(10 ** 19))

#: values for SCHEMA keys, those that pass the load-time checks first (a
#: failing example shrinks toward them); at most 3x3 grids, 3^3 scans of
#: 200 samples and a few small N bound the run time and nothing else (the
#: larger sizes fail their load-time bounds)
CONTRACT_VALUES = {
    "system.wavelength_nm": ("817", "0", "-1", "nan", *FLOAT_EDGES),
    "system.g_ghz": ("33.3", "0", "-5", *FLOAT_EDGES),
    "system.detuning_g": ("0", "12", "-1e9", "inf", *FLOAT_EDGES),
    "system.big_n": ("1", "3", "0"),
    "critical.big_n_list": ("1", "1 3", "3, 8", "0", "", "1 x"),
    "critical.detuning_g_list": ("0", "12", "-1e9", "0, -1e9", "", "nan",
                                 *FLOAT_EDGES),
    "phase_diagram.t_min_g": ("0", "0.01", "-0.01", *FLOAT_EDGES),
    "phase_diagram.t_max_g": ("0", "0.02", "inf", *FLOAT_EDGES),
    "phase_diagram.t_points": ("1", "3", "0", *INT_EDGES,
                               str(cli.MAX_CELLS + 1)),
    "phase_diagram.mu_min_g": ("-3", "-2.7", "nan", *FLOAT_EDGES),
    "phase_diagram.mu_max_g": ("-2.2", "-2.7", "5", *FLOAT_EDGES),
    "phase_diagram.mu_points": ("1", "3", "0", *INT_EDGES,
                                str(cli.MAX_CELLS + 1)),
    "phase_diagram.pgm": ("yes", "off", "maybe"),
    "disorder.points": ("1", "3", "0", *INT_EDGES,
                        str(round(cli.MAX_GRID_POINTS ** (1 / 3)) + 1)),
    "disorder.sample_count": ("100", "200", "0", *INT_EDGES,
                              str(cli.MAX_DRAWS + 1)),
    "disorder.method": ("collective", "exact", "bogus"),
    "disorder.n_mean": ("1", "3", "0.4", "1e12", *FLOAT_EDGES),
    "disorder.n_sigma_max": ("1.05", "1.7320508", *FLOAT_EDGES),
    "disorder.sigma_omega_max_g": ("1.6", "1e95", "1e150", *FLOAT_EDGES),
    "disorder.quantile": ("0.005", "0.7", *FLOAT_EDGES),
    "loss.q_cavity": ("1e6", "0", *FLOAT_EDGES),
    "run.physical_units": ("true", "0", "2"),
    "run.seed": ("7", "x"),
}


def _tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@st.composite
def contract_runs(draw):
    """A command and up to three overrides of its own keys or of the
    sections every command reads."""
    command = draw(st.sampled_from(sorted(CONTRACT_FILES)))
    keys = sorted(k for k in CONTRACT_VALUES if k.split(".")[0] in (
        command.replace("-", "_"), "system", "loss", "run"))
    setting = st.sampled_from(keys).flatmap(
        lambda key: st.sampled_from(CONTRACT_VALUES[key]).map(
            lambda value: f"{key}={value}"))
    return command, draw(st.lists(setting, max_size=3))


def run_strict(*args):
    """(exit code, stderr) of main(args), with every warning raised as an
    error: a run may print its summary or one error line, nothing else."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(list(args))
    return code, err.getvalue()


class TestOutputContract:
    """Exit 0 writes config_snapshot.json and every documented result file
    and nothing else, byte-identically on a rerun, and prints only its
    summary; exit 2 or 3 creates no output directory, leaves an existing one
    as it was and prints one ``polarlat: `` line, a config error exactly
    when the config fails its load-time checks.  No run warns."""

    @settings(max_examples=150, deadline=None)
    @given(contract_runs())
    @example(("critical", ["critical.detuning_g_list=-1e9"]))
    @example(("critical", ["system.wavelength_nm=0"]))
    @example(("disorder", ["system.wavelength_nm=0"]))
    @example(("disorder", ["disorder.n_mean=4", "disorder.n_dist=binomial",
                           "disorder.n_sigma_max=2"]))
    # a band past the float range: failed cells, not a config error
    @example(("phase-diagram", ["phase_diagram.t_max_g=1e307"]))
    @example(("phase-diagram", ["phase_diagram.t_max_g=1e308"]))
    @example(("phase-diagram", ["phase_diagram.mu_max_g=1e308"]))
    # a g whose square underflows, a wavelength that underflows in metres
    @example(("critical", ["system.g_ghz=1e-300"]))
    @example(("critical", ["system.g_ghz=5e-324"]))
    @example(("disorder", ["system.g_ghz=1e-300"]))
    @example(("disorder", ["system.g_ghz=5e-324"]))
    @example(("critical", ["system.wavelength_nm=5e-324"]))
    @example(("disorder", ["system.wavelength_nm=5e-324"]))
    # impurity counts past int64
    @example(("disorder", ["disorder.n_mean=1e300"]))
    @example(("disorder", ["disorder.n_mean=1e308"]))
    @example(("critical", [f"critical.big_n_list={10 ** 22}"]))
    @example(("phase-diagram", [f"system.big_n={10 ** 22}"]))
    # n_sigma^2 past the float range: an all-Poisson scan
    @example(("disorder", ["disorder.n_sigma_max=1e300"]))
    @example(("disorder", ["disorder.n_sigma_max=1e308"]))
    # manifold blocks past the float range, and a sigma_omega axis
    @example(("phase-diagram", ["system.detuning_g=1e308"]))
    @example(("critical", ["critical.detuning_g_list=0, 1e308"]))
    @example(("disorder", ["disorder.sigma_omega_max_g=1e300"]))
    # array sizes past the host's memory or numpy's limit, a count table
    # of 1e12 entries, and site detunings whose cubes pass the float range
    @example(("phase-diagram", [f"phase_diagram.t_points={10 ** 12}"]))
    @example(("disorder", [f"disorder.sample_count={10 ** 12}"]))
    @example(("disorder", ["disorder.points=100000"]))
    @example(("phase-diagram", [f"phase_diagram.t_points={10 ** 19}"]))
    @example(("disorder", [f"disorder.sample_count={10 ** 19}"]))
    @example(("disorder", [f"disorder.points={10 ** 19}"]))
    @example(("disorder", ["disorder.n_mean=1e12"]))
    @example(("disorder", ["disorder.sigma_omega_max_g=1e150"]))
    @example(("disorder", ["disorder.sigma_omega_max_g=1e95"]))
    # a binomial law of m = 343,257,802 trials: a 112-entry count table
    @example(("disorder", ["disorder.n_sigma_max=1.7320508"]))
    def test_all_outputs_or_none(self, run):
        command, overrides = run
        sets = [arg for item in (*CONTRACT_BASE[command], *overrides)
                for arg in ("--set", item)]
        try:
            cfg = load_config(None, [*CONTRACT_BASE[command], *overrides])
        except ConfigError:
            cfg = None
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            code, err = run_strict(command, "--outdir", str(root / "a"), *sets)
            event(f"{command} exit {code}")
            assert code in (0, 2, 3)
            lines = err.splitlines()
            if code == 0:
                assert all(line.startswith(f"{command}: ") for line in lines)
                expected = {"config_snapshot.json", *CONTRACT_FILES[command]}
                if command == "phase-diagram" and cfg["phase_diagram"]["pgm"]:
                    expected.add("phase_diagram.pgm")
                outputs = _tree(root / "a")
                assert set(outputs) == expected
                assert run_strict(command, "--outdir", str(root / "b"),
                                  *sets)[0] == 0
                assert _tree(root / "b") == outputs
            else:
                assert len(lines) == 1 and lines[0].startswith("polarlat: ")
                assert lines[0].startswith("polarlat: config error: ") == (
                    cfg is None)
                assert not (root / "a").exists()
                (root / "b").mkdir()
                (root / "b" / "sentinel").write_bytes(b"keep")
                assert run_strict(command, "--outdir", str(root / "b"),
                                  *sets)[0] == code
                assert _tree(root / "b") == {"sentinel": b"keep"}

    def test_infinite_frequency_is_input_error(self, tmp_path, capsys):
        # a 1e-300 nm wavelength makes omega_ph and omega_ex infinite
        out = tmp_path / "out"
        assert run_cli("disorder", "--outdir", str(out),
                       *[arg for item in CONTRACT_BASE["disorder"]
                         for arg in ("--set", item)],
                       "--set", "system.wavelength_nm=1e-300") == 2
        assert capsys.readouterr().err == (
            "polarlat: input error: omega_ph, omega_ex and g must be finite\n")
        assert not out.exists()

    def test_failed_write_removes_only_the_directories_it_made(
            self, tmp_path, monkeypatch):
        # a full disk: staging the first file fails
        def full_disk(path, *args, **kwargs):
            if str(path).endswith(".part"):
                raise OSError(28, "No space left on device")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        sets = ("--set", "critical.big_n_list=1")
        assert run_cli("critical", "--outdir", str(tmp_path / "a" / "b"),
                       *sets) == 2
        assert not (tmp_path / "a").exists()
        (tmp_path / "c").mkdir()
        assert run_cli("critical", "--outdir", str(tmp_path / "c" / "d"),
                       *sets) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["c"]

    @pytest.mark.parametrize("cause", ["config", "field data", "field read",
                                       "output"])
    def test_each_exit_2_names_its_cause(self, tmp_path, monkeypatch, capsys,
                                         cause):
        paths = make_gaussian_files(tmp_path, n=5)
        sets = [f"kerr.phi_file={paths['phi']}", f"kerr.k_c_file={paths['kc']}",
                f"kerr.chi3_file={paths['chi3']}"]
        if cause == "config":
            sets.append("system.z=0")
            message = "config error: system.z must be >= 1, got 0"
        elif cause == "field data":
            write_field(ScalarField3D(np.zeros((5, 5, 5)), (1.5,) * 3,
                                      (-3.0,) * 3), paths["phi"])
            message = "input error: mode normalization integral is 0"
        elif cause == "field read":  # a disk that fails the read
            def failing_read(path, *args, **kwargs):
                raise OSError(5, "Input/output error")

            monkeypatch.setattr(fields, "open", failing_read, raising=False)
            message = ("input error: cannot read a field file: [Errno 5] "
                       "Input/output error")
        else:  # a full disk: staging the first file fails
            def full_disk(path, *args, **kwargs):
                if str(path).endswith(".part"):
                    raise OSError(28, "No space left on device")
                return open(path, *args, **kwargs)

            monkeypatch.setattr(cli, "open", full_disk, raising=False)
            message = "output error: [Errno 28] No space left on device"
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       *[arg for item in sets for arg in ("--set", item)]) == 2
        assert capsys.readouterr().err.startswith(f"polarlat: {message}")
        assert not out.exists()


class TestProcessExit:
    """A process that runs the command line exits through ``cli.entry``,
    which freezes the heap once ``main`` has returned."""

    @staticmethod
    def run_python(*args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarlat.__file__)))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))

    def test_exit_codes_summaries_and_files(self, tmp_path):
        ok, bad, failed = (tmp_path / name for name in ("ok", "bad", "failed"))
        done = self.run_python("-m", "polarlat.cli", "critical", "--outdir",
                               str(ok), "--set", "critical.big_n_list=1")
        assert done.returncode == 0
        assert done.stderr == f"critical: 1 rows -> {ok}\n"
        assert {p.name for p in ok.iterdir()} == {
            "config_snapshot.json", "critical.csv", "critical.json"}
        assert (ok / "critical.csv").read_bytes() == cli.cmd_critical(
            load_config(None, ["critical.big_n_list=1"]))[0]["critical.csv"]
        done = self.run_python("-m", "polarlat.cli", "critical", "--outdir",
                               str(bad), "--set", "system.z=0")
        assert done.returncode == 2
        assert done.stderr == ("polarlat: config error: system.z must be "
                               ">= 1, got 0\n")
        done = self.run_python("-m", "polarlat.cli", "phase-diagram",
                               "--outdir", str(failed),
                               "--set", "phase_diagram.mu_max_g=5",
                               "--set", "phase_diagram.t_points=2",
                               "--set", "phase_diagram.mu_points=2")
        assert done.returncode == 3
        assert done.stderr.startswith(
            "polarlat: numerical failure: GridError: 2 grid cell(s) failed")
        assert not bad.exists() and not failed.exists()

    @pytest.mark.parametrize("t_max", ["1e153", "1e160", "1e300"])
    def test_drive_past_squared_floats_runs_away(self, tmp_path, t_max):
        out = tmp_path / "out"
        done = self.run_python("-m", "polarlat.cli", "phase-diagram",
                               "--outdir", str(out), "--workers", "1",
                               "--set", f"phase_diagram.t_max_g={t_max}",
                               "--set", "phase_diagram.t_points=2",
                               "--set", "phase_diagram.mu_points=2")
        assert done.returncode == 0
        assert done.stderr.startswith(
            f"phase-diagram: 2x2 cells (2 SF, 2 runaway) -> {out} (")
        assert (out / "phase_diagram.csv").read_text().count(",inf,SF,") == 2

    def test_entry_freezes_after_main_and_exit_handlers_run(self, tmp_path):
        done = self.run_python("-c", (
            "import atexit, gc, sys\n"
            "from polarlat import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['polarlat', 'critical', '--outdir', {str(tmp_path)!r},"
            " '--set', 'critical.big_n_list=1']\n"
            "raise SystemExit(cli.entry())\n"))
        assert done.returncode == 0 and done.stdout == "frozen True\n"

    def test_main_freezes_nothing(self, tmp_path):
        assert run_cli("critical", "--outdir", str(tmp_path),
                       "--set", "critical.big_n_list=1") == 0
        assert gc.get_freeze_count() == 0


def _polarlat_and_scipy_modules(code):
    """Run code in a fresh interpreter; the polarlat and scipy modules it
    loaded, as printed by its last line."""
    code += ("\nimport json, sys\nprint(json.dumps([m for m in sys.modules"
             " if m.startswith(('polarlat.', 'scipy'))]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(polarlat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True, text=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


class TestImportPath:
    # each command imports only the modules it runs
    UNUSED_BY_MEANFIELD = {"polarlat.disorder", "polarlat.fields",
                           "polarlat.kerr", "polarlat.validate"}

    def test_disorder_loads_no_scipy(self, tmp_path):
        loaded = _polarlat_and_scipy_modules(
            "from polarlat.cli import main\n"
            f"assert main(['disorder', '--outdir', {str(tmp_path)!r},"
            " '--set', 'system.detuning_g=12', '--set', 'disorder.points=2',"
            " '--set', 'disorder.sample_count=200']) == 0\n")
        assert "polarlat.disorder" in loaded
        assert not {m for m in loaded if m.startswith("scipy")}

    def test_validate_loads_only_the_lapack_extension(self):
        # the dense oracle solves by numpy; the banded engine it checks loads
        # scipy's LAPACK extension alone
        loaded = _polarlat_and_scipy_modules(
            "from polarlat.cli import main\n"
            "assert main(['validate']) == 0\n")
        assert "polarlat.validate" in loaded
        assert {m for m in loaded if m.startswith("scipy")} == {
            "scipy.linalg._flapack"}

    def test_critical_and_phase_diagram_load_no_other_command(self, tmp_path):
        loaded = _polarlat_and_scipy_modules(
            "from polarlat.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['critical', '--outdir', out,"
            " '--set', 'critical.big_n_list=1']) == 0\n"
            "assert main(['phase-diagram', '--outdir', out, '--workers', '1',"
            " '--set', 'phase_diagram.t_points=2',"
            " '--set', 'phase_diagram.mu_points=2']) == 0\n")
        assert "polarlat.meanfield" in loaded
        assert not loaded & self.UNUSED_BY_MEANFIELD

    def test_kerr_loads_neither_disorder_nor_validate(self, tmp_path):
        paths = make_gaussian_files(tmp_path, n=5)
        loaded = _polarlat_and_scipy_modules(
            "from polarlat.cli import main\n"
            f"paths = {paths!r}\n"
            f"assert main(['kerr', '--outdir', {str(tmp_path / 'out')!r},"
            " '--set', 'kerr.phi_file=' + paths['phi'],"
            " '--set', 'kerr.k_c_file=' + paths['kc'],"
            " '--set', 'kerr.chi3_file=' + paths['chi3']]) == 0\n")
        assert {"polarlat.fields", "polarlat.kerr"} <= loaded
        assert not loaded & {"polarlat.disorder", "polarlat.validate"}
        assert not loaded & {"polarlat.meanfield", "polarlat.observables"}

    def test_phase_diagram_loads_no_observables(self, tmp_path):
        loaded = _polarlat_and_scipy_modules(
            "from polarlat.cli import main\n"
            f"assert main(['phase-diagram', '--outdir', {str(tmp_path)!r},"
            " '--workers', '1', '--set', 'phase_diagram.t_points=2',"
            " '--set', 'phase_diagram.mu_points=2']) == 0\n")
        assert "polarlat.meanfield" in loaded
        assert "polarlat.observables" not in loaded

    def test_import_polarlat_loads_no_submodule(self):
        loaded = _polarlat_and_scipy_modules("import polarlat\n")
        assert not {m for m in loaded if m.startswith("polarlat.")}

    def test_all_unchanged_and_resolved_lazily(self):
        assert polarlat.__all__ == [
            "__version__", "DEFAULT_COUPLING", "SystemParams", "FockDickeBasis",
            "build_basis", "build_site_hamiltonian", "lowest_eigenpair",
            "manifold_block", "manifold_energy", "angular_frequency",
            "coupling_from_ghz", "Phase", "PhaseGrid", "ScanPoint",
            "ScanSettings", "bhm_boundary_oracle", "boundary_tunneling",
            "classify_phase", "critical_tunneling", "ground_energy_at_psi",
            "landau_boundary_tunneling", "minimize_order_parameter",
            "mott_lobe_mu_range", "phase_diagram"]
        for name in polarlat.__all__:
            getattr(polarlat, name)
        assert polarlat.phase_diagram is meanfield.phase_diagram
        with pytest.raises(AttributeError):
            getattr(polarlat, "no_such_name")

    def test_no_engine_imports_validate(self):
        # an oracle must stay apart from the engine it checks
        package = os.path.dirname(os.path.abspath(polarlat.__file__))
        for engine in ("model", "meanfield", "observables", "disorder",
                       "fields", "kerr"):
            with open(os.path.join(package, engine + ".py"),
                      encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    names = [base] + [f"{base}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any("validate" in n.split(".") for n in names), (
                    engine, node.lineno)

    def test_critical_and_kerr_load_no_scipy(self, tmp_path):
        # the banded SF solver loads scipy's LAPACK extension on its own,
        # without the scipy or scipy.linalg packages; the phase-diagram run
        # (one SF cell) shows that the check below can see it
        paths = make_gaussian_files(tmp_path, n=9)
        out = str(tmp_path / "out")
        code = (
            "import sys\n"
            "from polarlat.cli import main\n"
            f"out, paths = {out!r}, {paths!r}\n"
            "assert main(['critical', '--outdir', out,"
            " '--set', 'critical.big_n_list=1 8']) == 0\n"
            "assert main(['kerr', '--outdir', out,"
            " '--set', 'kerr.phi_file=' + paths['phi'],"
            " '--set', 'kerr.k_c_file=' + paths['kc'],"
            " '--set', 'kerr.chi3_file=' + paths['chi3']]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "assert main(['phase-diagram', '--outdir', out, '--workers', '1',"
            " '--set', 'phase_diagram.t_points=2',"
            " '--set', 'phase_diagram.mu_points=2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarlat.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True, text=True)
        assert result.stdout.split("\n")[:2] == [
            "[]", "['scipy.linalg._flapack']"]
