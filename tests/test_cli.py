import ast
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polarlat
from polarlat import cli, meanfield
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

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")


class TestValidateCommand:
    def test_passes(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_failure(self, capsys):
        assert run_cli("validate", "--inject-failure") == 4
        assert "FAIL" in capsys.readouterr().out


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
        "disorder.n_sigma_max=0",
        "loss.q_cavity=0",
        "loss.tau_e_s=-1e-9",
        "loss.purcell_f=0",
        "loss.eta=0",
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
        assert run_cli("disorder", "--outdir", str(out),
                       "--set", "system.detuning_g=12",
                       "--set", "disorder.points=2",
                       "--set", "disorder.sample_count=200",
                       "--set", setting) == 2
        assert not out.exists()


class TestKerrCommand:
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

    def test_grid_mismatch_writes_nothing(self, tmp_path):
        paths = make_gaussian_files(tmp_path, n=5)
        (tmp_path / "other").mkdir()
        other = make_gaussian_files(tmp_path / "other", n=7)
        out = tmp_path / "out"
        assert run_cli("kerr", "--outdir", str(out),
                       "--set", f"kerr.phi_file={paths['phi']}",
                       "--set", f"kerr.k_c_file={other['kc']}",
                       "--set", f"kerr.chi3_file={paths['chi3']}") == 2
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
        def no_solve(task):
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

#: values for SCHEMA keys, those that pass the load-time checks first (a
#: failing example shrinks toward them); at most 3x3 grids, 3^3 scans of
#: 200 samples and a few small N bound the run time and nothing else
CONTRACT_VALUES = {
    "system.wavelength_nm": ("817", "0", "-1", "nan"),
    "system.g_ghz": ("33.3", "0", "-5"),
    "system.detuning_g": ("0", "12", "-1e9", "inf"),
    "system.big_n": ("1", "3", "0"),
    "critical.big_n_list": ("1", "1 3", "3, 8", "0", "", "1 x"),
    "critical.detuning_g_list": ("0", "12", "-1e9", "0, -1e9", "", "nan"),
    "phase_diagram.t_min_g": ("0", "0.01", "-0.01"),
    "phase_diagram.t_max_g": ("0", "0.02", "inf"),
    "phase_diagram.t_points": ("1", "3", "0"),
    "phase_diagram.mu_min_g": ("-3", "-2.7", "nan"),
    "phase_diagram.mu_max_g": ("-2.2", "-2.7", "5"),
    "phase_diagram.mu_points": ("1", "3", "0"),
    "phase_diagram.pgm": ("yes", "off", "maybe"),
    "disorder.points": ("1", "3", "0"),
    "disorder.sample_count": ("100", "200", "0"),
    "disorder.method": ("collective", "exact", "bogus"),
    "disorder.n_mean": ("1", "3", "0.4"),
    "disorder.quantile": ("0.005", "0.7"),
    "loss.q_cavity": ("1e6", "0"),
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


class TestOutputContract:
    """Exit 0 writes config_snapshot.json and every documented result file
    and nothing else, byte-identically on a rerun; exit 2 or 3 creates no
    output directory and leaves an existing one as it was."""

    @settings(max_examples=150, deadline=None)
    @given(contract_runs())
    @example(("critical", ["critical.detuning_g_list=-1e9"]))
    @example(("critical", ["system.wavelength_nm=0"]))
    @example(("disorder", ["system.wavelength_nm=0"]))
    def test_all_outputs_or_none(self, run):
        command, overrides = run
        sets = [arg for item in (*CONTRACT_BASE[command], *overrides)
                for arg in ("--set", item)]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            code = run_cli(command, "--outdir", str(root / "a"), *sets)
            event(f"{command} exit {code}")
            assert code in (0, 2, 3)
            if code == 0:
                expected = {"config_snapshot.json", *CONTRACT_FILES[command]}
                cfg = load_config(None, [*CONTRACT_BASE[command], *overrides])
                if command == "phase-diagram" and cfg["phase_diagram"]["pgm"]:
                    expected.add("phase_diagram.pgm")
                outputs = _tree(root / "a")
                assert set(outputs) == expected
                assert run_cli(command, "--outdir", str(root / "b"),
                               *sets) == 0
                assert _tree(root / "b") == outputs
            else:
                assert not (root / "a").exists()
                (root / "b").mkdir()
                (root / "b" / "sentinel").write_bytes(b"keep")
                assert run_cli(command, "--outdir", str(root / "b"),
                               *sets) == code
                assert _tree(root / "b") == {"sentinel": b"keep"}

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
