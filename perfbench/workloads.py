"""The four benchmark workloads: inputs from a seed, CLI invocations, checks.

A workload runs in rounds.  A round is a list of streams run concurrently;
a stream is a list of CLI invocations (jobs) run one after the other, each
in a fresh process.  Every round does the same work, so a run attempts
whole rounds of the same operations.  A job's ``kind`` names what
it computes; jobs of one kind cost the same.  A *pass* is one job of each
of the workload's ``kinds``: the work one client does for one result.
``check`` compares the output files of one round's jobs, stream after
stream, with the independent computations of :mod:`oracle` and returns
(attempted, failed, problems).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

import oracle

#: CLI defaults the checks rely on (``polarlat.cli.SCHEMA``)
Z = 4
G_GHZ = 33.3
WAVELENGTH_NM = 817.0
PURCELL_F = 0.2
TAU_E_S = 1e-9
Q_CAVITY = 1e6


def _cores():
    return len(os.sched_getaffinity(0))


def _rng(*key):
    return np.random.default_rng([abs(int(k)) for k in key])


def _sets(pairs):
    out = []
    for key, value in pairs:
        out += ["--set", f"{key}={value}"]
    return out


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


class Job:
    """One CLI invocation: arguments after ``polarlat``, output dir, kind."""

    def __init__(self, args, outdir, kind):
        self.args = list(args) + ["--outdir", outdir]
        self.outdir = outdir
        self.kind = kind

    @property
    def sets(self):
        return [self.args[i + 1] for i, a in enumerate(self.args[:-1])
                if a == "--set"]


class Workload:
    name = ""
    rate_name = ""
    rate_unit = ""
    #: the job kinds of one pass
    kinds = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Write input files; not timed."""

    def outdir(self, round_index, label):
        return os.path.join(self.workdir, f"r{round_index}-{label}")

    def streams(self, round_index):
        raise NotImplementedError

    def traced_jobs(self):
        """Round 0's first stream, in order, with one worker per job."""
        return [Job(_one_worker(j.args[:-2]), j.outdir, j.kind)
                for j in self.streams(0)[0]]

    def work(self):
        """Work units of one pass (cells, rows, site samples, voxels)."""
        raise NotImplementedError

    def check(self, outdirs, codes):
        """Check the output directories of one round's jobs, in order."""
        raise NotImplementedError


def _one_worker(args):
    out = list(args)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


class PhaseMap(Workload):
    """``phase-diagram`` at N=8, z=4, zero detuning on the default window.

    Every round computes the same 12x12 sub-lattice (every fourth point)
    of the reference 48x48 (t, mu) grid; the seed picks one of the 16.
    """

    name = "phase-map"
    rate_name = "cells_per_s"
    rate_unit = "cells/s"
    kinds = ("pd",)
    stride = 4
    points = 48

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sub = int(_rng(seed, 1).integers(self.stride ** 2))
        self.t_ref = np.linspace(0.0, 0.02, self.points)
        self.mu_ref = np.linspace(-3.0, -2.2, self.points)
        self.workers = min(_cores(), 8)
        self.levels = oracle.Levels(8, 0.0)

    def window(self):
        i0, j0 = divmod(self.sub, self.stride)
        last = self.points - self.stride
        n = self.points // self.stride
        return (float(self.t_ref[i0]), float(self.t_ref[i0 + last]),
                float(self.mu_ref[j0]), float(self.mu_ref[j0 + last]), n)

    def streams(self, round_index):
        t0, t1, m0, m1, n = self.window()
        args = ["phase-diagram", "--workers", str(self.workers)] + _sets([
            ("system.big_n", 8), ("system.z", Z), ("system.detuning_g", 0.0),
            ("phase_diagram.t_min_g", repr(t0)),
            ("phase_diagram.t_max_g", repr(t1)),
            ("phase_diagram.t_points", n),
            ("phase_diagram.mu_min_g", repr(m0)),
            ("phase_diagram.mu_max_g", repr(m1)),
            ("phase_diagram.mu_points", n)])
        return [[Job(args, self.outdir(round_index, "pd"), "pd")]]

    def work(self):
        return (self.points // self.stride) ** 2

    def check(self, outdirs, codes):
        problems = []
        cells = self.work() * len(outdirs)
        for outdir, code in zip(outdirs, codes):
            path = os.path.join(outdir, "phase_diagram.csv")
            if code != 0 or not os.path.exists(path):
                return cells, cells, [f"phase-diagram exited {code}"]
            rows = _read_csv(path)
            if len(rows) != self.work():
                problems.append(f"{len(rows)} cells, expected {self.work()}")
            for row in rows:
                problems += self._check_cell(row)
        return cells, 0, problems

    def _check_cell(self, row):
        t, mu, psi = float(row["t"]), float(row["mu"]), float(row["psi"])
        phase, filling = row["phase"], int(row["filling"])
        where = f"cell (t={t!r}, mu={mu!r})"
        out = []
        n, t_b = self.levels.boundary(mu, Z)
        if filling != n:
            out.append(f"{where}: filling {filling}, oracle {n}")
        if phase == "MI" and psi != 0.0:
            out.append(f"{where}: MI with psi={psi}")
        if phase == "SF" and not 0.0 < psi < math.inf:
            out.append(f"{where}: SF with psi={psi}")
        if phase not in ("MI", "SF"):
            out.append(f"{where}: unknown phase {phase!r}")
        if abs(t - t_b) > 1e-3 * t_b:
            expect = "MI" if t < t_b else "SF"
            if phase != expect:
                out.append(f"{where}: {phase}, perturbative boundary "
                           f"t={t_b!r} gives {expect}")
        return out


class CriticalSweep(Workload):
    """``critical`` over the default N list at zero detuning.

    A round is two concurrent clients of about equal cost, which share
    the N list between them.  Each runs one ``critical`` process per N, in
    an order drawn from the seed.
    """

    name = "critical-sweep"
    rate_name = "tips_per_s"
    rate_unit = "rows/s"
    big_n_list = (1, 3, 8, 20, 50)
    clients = ((50, 8), (20, 3, 1))
    kinds = tuple(f"N={n}" for n in big_n_list)

    def _args(self, big_n_list):
        return ["critical"] + _sets([
            ("system.z", Z), ("critical.detuning_g_list", "0.0"),
            ("critical.big_n_list", ",".join(str(n) for n in big_n_list))])

    def streams(self, round_index):
        rng = _rng(self.seed, 2, round_index)
        return [[Job(self._args([n]), self.outdir(round_index, f"n{n}"),
                     f"N={n}") for n in rng.permutation(client).tolist()]
                for client in self.clients]

    def traced_jobs(self):
        return [Job(self._args(self.big_n_list), self.outdir(0, "all"), "all")]

    def work(self):
        return len(self.big_n_list)

    def check(self, outdirs, codes):
        rows = []
        for outdir, code in zip(outdirs, codes):
            path = os.path.join(outdir, "critical.csv")
            if code != 0 or not os.path.exists(path):
                return len(outdirs), len(outdirs), [f"critical exited {code}"]
            rows += _read_csv(path)
        failed = sum(r["status"] != "ok" for r in rows)
        problems = [f"N={r['big_n']}: status {r['status']}"
                    for r in rows if r["status"] != "ok"]
        got = sorted(int(r["big_n"]) for r in rows)
        if got != sorted(self.big_n_list):
            problems.append(f"rows for N={got}, expected {self.big_n_list}")
        g = 2.0 * math.pi * G_GHZ * 1e9
        omega = oracle.omega_ph(WAVELENGTH_NM)
        ratios = {}
        for r in rows:
            if r["status"] != "ok":
                continue
            big_n = int(r["big_n"])
            t_c, u = float(r["t_c"]), float(r["u"])
            tip, _mu = oracle.Levels(big_n, 0.0).tip(Z)
            if _rel(t_c, tip) > 1e-3:
                problems.append(f"N={big_n}: t_c {t_c!r}, perturbative {tip!r}")
            u_ref = 2.0 * math.sqrt(big_n) - math.sqrt(4.0 * big_n - 2.0)
            if _rel(u, u_ref) > 1e-9:
                problems.append(f"N={big_n}: U {u!r}, closed form {u_ref!r}")
            if float(r["c_ph_sq"]) != 0.5:
                problems.append(f"N={big_n}: c_ph_sq {r['c_ph_sq']}")
            for col, eta in (("q_r_eta1", 1.0), ("q_r_eta10", 10.0)):
                q_ref = oracle.required_q(0.5, omega, t_c * g, eta,
                                          PURCELL_F, TAU_E_S)
                q = float(r[col])
                if not (q == q_ref or _rel(q, q_ref) <= 1e-9):
                    problems.append(f"N={big_n}: {col} {q!r}, closed form "
                                    f"{q_ref!r}")
            ratios[big_n] = float(r["ratio"])
        ordered = [ratios[n] for n in sorted(ratios)]
        if any(b >= a for a, b in zip(ordered, ordered[1:])):
            problems.append(f"ratio not strictly decreasing in N: {ordered}")
        if any(x <= oracle.BHM_RATIO_Z4 for x in ordered):
            problems.append(f"ratio at or below 4(3+2*sqrt 2): {ordered}")
        if 50 in ratios and _rel(ratios[50], oracle.BHM_RATIO_Z4) > 0.10:
            problems.append(f"ratio at N=50 is {ratios[50]!r}")
        return len(rows), failed, problems


class DisorderScan(Workload):
    """``disorder`` at detuning 12 g, n_mean=3, Q=1e6, collective method.

    Each round is one run on a 12^3 grid x 1e4 samples, with a Philox seed
    derived from the benchmark seed and the round.
    """

    name = "disorder-scan"
    rate_name = "site_samples_per_s"
    rate_unit = "samples/s"
    kinds = ("disorder",)
    points = 12
    samples = 10_000
    detuning_g = 12.0
    n_mean = 3.0
    #: summary key -> (censoring key, the paper's value)
    paper = {"sigma_omega_ghz": ("sigma_omega", 32.0),
             "delta_g_g": ("delta_g", 0.14),
             "n_sigma_over_mean": ("n_sigma", 0.18)}

    def streams(self, round_index):
        cli_seed = int(_rng(self.seed, 3, round_index).integers(2 ** 31))
        args = ["disorder", "--seed", str(cli_seed)] + _sets([
            ("system.detuning_g", self.detuning_g),
            ("disorder.n_mean", self.n_mean), ("loss.q_cavity", Q_CAVITY),
            ("disorder.method", "collective"), ("disorder.points", self.points),
            ("disorder.sample_count", self.samples)])
        return [[Job(args, self.outdir(round_index, "d"), "disorder")]]

    def work(self):
        return self.points ** 3 * self.samples

    def check(self, outdirs, codes):
        grid = self.points ** 3
        attempted = grid * len(outdirs)
        problems = []
        g = 2.0 * math.pi * G_GHZ * 1e9
        big_n = int(round(self.n_mean))
        det = self.detuning_g * g
        c_ph = oracle.photon_fraction(big_n, det, g)
        gamma = oracle.loss_rate(c_ph, oracle.omega_ph(WAVELENGTH_NM), Q_CAVITY,
                                 PURCELL_F, TAU_E_S)
        t_c, _ = oracle.Levels(big_n, self.detuning_g).tip(Z)
        u_ref = oracle.clean_u(big_n, det, g)
        for outdir, code in zip(outdirs, codes):
            summary_path = os.path.join(outdir, "disorder_summary.json")
            grid_path = os.path.join(outdir, "disorder_grid.csv")
            if code != 0 or not os.path.exists(summary_path):
                return attempted, attempted, [f"disorder exited {code}"]
            with open(summary_path, encoding="ascii") as fh:
                summary = json.load(fh)
            cuts = summary["intercepts"]
            for key, (axis, paper) in self.paper.items():
                if cuts["censored"][axis]:
                    problems.append(f"{outdir}: {key} censored")
                if not 0.5 * paper <= cuts[key] <= 2.0 * paper:
                    problems.append(f"{outdir}: {key}={cuts[key]!r} not "
                                    f"within 2x of {paper}")
            rows = _read_csv(grid_path)
            if len(rows) != grid:
                problems.append(f"{outdir}: {len(rows)} grid rows")
            zero = rows[0]
            if any(float(zero[k]) != 0.0
                   for k in ("sigma_omega", "delta_g", "n_sigma")):
                problems.append(f"{outdir}: first row is not zero width")
            if float(zero["delta_e"]) != 0.0 or float(zero["delta_u"]) != 0.0:
                problems.append(f"{outdir}: nonzero widths at zero disorder")
            if _rel(float(zero["u_mean"]), u_ref) > 1e-9:
                problems.append(f"{outdir}: u_mean {zero['u_mean']}, "
                                f"closed form {u_ref!r}")
            f_ref = c_ph * t_c * g - gamma
            if abs(float(zero["f"]) - f_ref) > 1e-3 * c_ph * t_c * g:
                problems.append(f"{outdir}: f {zero['f']} at zero width, "
                                f"expected {f_ref!r}")
        return attempted, 0, problems


class KerrFields(Workload):
    """``kerr`` on analytic Gaussian fields at 96^3, from F3DB then F3DT.

    A round is two concurrent clients, each running the F3DB then the F3DT
    invocation on the same input files.

    The seed sets the mode width, the displacement (axis and length) and
    the uniform dielectric and Kerr maps.
    """

    name = "kerr-fields"
    rate_name = "voxels_per_s"
    rate_unit = "voxels/s"
    kinds = ("f3db", "f3dt")
    n = 96

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        u = [float(x) for x in _rng(seed, 4).random(5)]
        self.sigma = 1e-6 * (0.8 + 0.4 * u[0])
        self.distance = self.sigma * (1.5 + 0.5 * u[1])
        self.axis = int(3 * u[2])
        self.k_c = 4.0 + 8.0 * u[3]
        self.chi3 = 1e-19 * (0.5 + u[4])
        self.inputs = os.path.join(workdir, "fields")

    def prepare(self):
        os.makedirs(self.inputs, exist_ok=True)
        half = 6.0 * self.sigma
        h = 2.0 * half / (self.n - 1)
        x = -half + h * np.arange(self.n)
        r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
        maps = {"phi": np.exp(-r2 / (2.0 * self.sigma ** 2)),
                "kc": np.full(r2.shape, self.k_c),
                "chi3": np.full(r2.shape, self.chi3)}
        for name, values in maps.items():
            base = os.path.join(self.inputs, name)
            write_f3db(base + ".f3db", values, h, -half)
            write_f3dt(base + ".f3dt", values, h, -half)

    def _args(self, ext):
        d = [0.0, 0.0, 0.0]
        d[self.axis] = self.distance
        files = {k: os.path.join(self.inputs, f"{k}.{ext}")
                 for k in ("phi", "kc", "chi3")}
        return ["kerr"] + _sets([
            ("kerr.phi_file", files["phi"]), ("kerr.k_c_file", files["kc"]),
            ("kerr.chi3_file", files["chi3"]), ("kerr.d_x_m", repr(d[0])),
            ("kerr.d_y_m", repr(d[1])), ("kerr.d_z_m", repr(d[2]))])

    def streams(self, round_index):
        return [[Job(self._args(ext), self.outdir(round_index, f"{ext}{c}"),
                     ext) for ext in ("f3db", "f3dt")]
                for c in range(2)]

    def work(self):
        return 2 * self.n ** 3

    def check(self, outdirs, codes):
        problems = []
        results = []
        for outdir, code in zip(outdirs, codes):
            path = os.path.join(outdir, "kerr.json")
            if code != 0 or not os.path.exists(path):
                problems.append(f"kerr exited {code} on {outdir}")
                continue
            with open(path, encoding="ascii") as fh:
                results.append(json.load(fh))
        failed = len(outdirs) - len(results)
        t_ref = oracle.gaussian_hopping(self.distance, self.sigma)
        u_ref = oracle.gaussian_kerr_u(self.sigma, self.k_c, self.chi3)
        for res in results:
            if res["grid"] != [self.n] * 3:
                problems.append(f"grid {res['grid']}")
            if _rel(res["t_self_energy_units"], t_ref) > 1e-3:
                problems.append(f"t {res['t_self_energy_units']!r}, analytic "
                                f"{t_ref!r}")
            if _rel(res["u_self_energy_units"], u_ref) > 1e-3:
                problems.append(f"U {res['u_self_energy_units']!r}, analytic "
                                f"{u_ref!r}")
        for a, b in zip(results[0::2], results[1::2]):
            for key in ("t_self_energy_units", "u_self_energy_units",
                        "norm_constant"):
                if _rel(b[key], a[key]) > 1e-12:
                    problems.append(f"{key}: binary {a[key]!r}, text {b[key]!r}")
        return len(outdirs), failed, problems


def write_f3db(path, values, h, origin):
    """F3DB v1: magic, version, pad, dims, spacing, origin, x-fastest <f8."""
    nx, ny, nz = values.shape
    header = struct.pack("<4sHH3I3d3d", b"F3DB", 1, 0, nx, ny, nz,
                         h, h, h, origin, origin, origin)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(values, dtype="<f8").ravel(order="F").tobytes())
        _sync(fh)


def write_f3dt(path, values, h, origin):
    """F3DT v1: four header lines, then one x-fastest value per line."""
    nx, ny, nz = values.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"F3DT 1\n{nx} {ny} {nz}\n{h!r} {h!r} {h!r}\n"
                 f"{origin!r} {origin!r} {origin!r}\n")
        fh.write("\n".join(map(repr, values.ravel(order="F").tolist())))
        fh.write("\n")
        _sync(fh)


def _sync(fh):
    # the timed runs start only once the input files are on disk, so the
    # write-back of ~75 MB does not overlap them
    fh.flush()
    os.fsync(fh.fileno())


WORKLOADS = {w.name: w for w in (PhaseMap, CriticalSweep, DisorderScan,
                                 KerrFields)}
