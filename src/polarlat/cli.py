"""Command-line front end: ``phase-diagram``, ``critical``, ``disorder``,
``kerr`` and ``validate``, each configured by an INI file and ``--set``
overrides.  README's "Command line" section states the output contract,
the exit codes, the environment variables and what ``--workers`` splits.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import itertools
import json
import math
import os
import sys
import time
import warnings

# parallelism is one process per core, and a process forks cleanly only
# while it runs one thread: one BLAS thread per process, unless the user
# chose otherwise (read when numpy loads, so set first)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .errors import (ConfigError, FieldFormatError, InputError, LobeError,
                     NumericalError, PolarlatError, ValidationFailure)
from .model import (N_DISTS, SITE_METHODS, SystemParams, count_table_length,
                    coupling_from_ghz, quantile_in_range)

#: the cores this process may run on, the default worker count
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)

#: Load-time bounds, from the largest float64 array each lets through: a
#: phase map's per-cell array (8 MiB), a disorder grid's per-point array
#: (16 MiB) and the disorder draws, sample_count x count-table length (512 MiB)
MAX_CELLS, MAX_GRID_POINTS, MAX_DRAWS = 2 ** 20, 2 ** 21, 2 ** 26
#: sigma_omega_max_g x g bound (rad/s): the kernel cubes shifts up to 14 x it
MAX_SIGMA_OMEGA = 1e100


def _bool(raw):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[raw.lower()]


def _finite(raw, value):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _float(raw):
    return _finite(raw, float(raw))


def _floats(raw):
    return _finite(raw, tuple(map(float, raw.replace(",", " ").split())))


def _ints(raw):
    return tuple(map(int, raw.replace(",", " ").split()))


_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_EMPTY = (len, "a non-empty list")
_N = (lambda v: 1 <= v < 2 ** 63, "in [1, 2**63)")  # an int64 impurity count
_COUNTS = (lambda v: len(v) > 0 and all(map(_N[0], v)),
           "a non-empty list of integers in [1, 2**63)")

#: section -> key -> (converter, default, check); unknown keys are rejected.
#: A check is None or a (predicate, requirement) pair, tested at load time.
SCHEMA = {
    "system": {
        "big_n": (int, 8, _N),
        "z": (int, 4, _AT_LEAST_ONE),
        "detuning_g": (_float, 0.0, None),
        # so that g in rad/s, squared, is a positive float, with a wide margin
        "g_ghz": (_float, 33.3, (lambda v: 1e-150 < v < 1e140, "in (1e-150, 1e140)")),
        "g_angular": (_bool, False, None),
        "wavelength_nm": (_float, 817.0, _POSITIVE),
    },
    "loss": {
        "q_cavity": (_float, 1e6, _POSITIVE),
        "tau_e_s": (_float, 1e-9, _POSITIVE),
        "purcell_f": (_float, 0.2, _POSITIVE),
    },
    "phase_diagram": {
        "t_min_g": (_float, 0.0, (lambda v: v >= 0, ">= 0")),
        "t_max_g": (_float, 0.02, None),
        "t_points": (int, 48, _AT_LEAST_ONE),
        "mu_min_g": (_float, -3.0, None),
        "mu_max_g": (_float, -2.2, None),
        "mu_points": (int, 48, _AT_LEAST_ONE),
        "pgm": (_bool, False, None),
    },
    "critical": {
        "big_n_list": (_ints, (1, 3, 8, 20, 50), _COUNTS),
        "detuning_g_list": (_floats, (0.0,), _NON_EMPTY),
    },
    "disorder": {
        # the impurity count per site is round(n_mean), at least 1
        "n_mean": (_float, 3.0, (lambda v: v > 0.5, "> 0.5")),
        "sigma_omega_max_g": (_float, 1.6, _POSITIVE),
        "delta_g_max": (_float, 0.45, (lambda v: 0 < v <= 1, "in (0, 1]")),
        "n_sigma_max": (_float, 1.05, _POSITIVE),
        "points": (int, 16, _AT_LEAST_ONE),
        "sample_count": (int, 10_000, _AT_LEAST_ONE),
        "quantile": (_float, 0.005, (quantile_in_range, "in (0, 0.5)")),
        "method": (str, "collective", (lambda v: v in SITE_METHODS,
                                       "one of " + ", ".join(SITE_METHODS))),
        "n_dist": (str, "auto", (lambda v: v in N_DISTS,
                                 "one of " + ", ".join(N_DISTS))),
        "safety_factor": (_float, 1.0, _POSITIVE),
    },
    "kerr": {
        "phi_file": (str, "", None),
        "k_c_file": (str, "", None),
        "chi3_file": (str, "", None),
        "d_x_m": (_float, 0.0, None),
        "d_y_m": (_float, 0.0, None),
        "d_z_m": (_float, 0.0, None),
    },
    "run": {
        "outdir": (str, "polarlat-out", None),
        "seed": (int, 12345, (lambda v: 0 <= v < 2 ** 128,  # a Philox key
                              "in [0, 2**128)")),
        "workers": (int, _CORES, _AT_LEAST_ONE),
        "physical_units": (_bool, False, None),
    },
}


def _convert(section, key, raw):
    try:
        return SCHEMA[section][key][0](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def snapshot(cfg):
    """The resolved configuration and package version every output embeds."""
    snap = {sec: dict(keys) for sec, keys in cfg.items()}
    # execution environment, not configuration: these cannot influence
    # results, and omitting them keeps outputs byte-identical across
    # output locations and worker counts
    del snap["run"]["outdir"], snap["run"]["workers"]
    return {**snap, "version": __version__}


def load_config(path=None, overrides=()):
    """``{section: {key: value}}``: defaults, file, then ``overrides``."""
    values = {sec: {k: default for k, (_c, default, _check) in keys.items()}
              for sec, keys in SCHEMA.items()}
    if path is not None:
        # literal values; no header names the default section "", so a
        # [DEFAULT] section is an unknown one
        parser = configparser.ConfigParser(
            interpolation=None, default_section="",
            inline_comment_prefixes=(";", "#"))
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = _convert(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        values[section][key] = _convert(section, key, raw)
    for section, keys in SCHEMA.items():
        for key, (_c, _default, check) in keys.items():
            if check is not None and not check[0](values[section][key]):
                raise ConfigError(f"{section}.{key} must be {check[1]}, "
                                  f"got {values[section][key]!r}")
    pd = values["phase_diagram"]
    for ax in ("t", "mu"):  # an axis of more than one point must ascend
        span = pd[f"{ax}_max_g"] - pd[f"{ax}_min_g"]
        if pd[f"{ax}_points"] > 1 and not 0.0 < span < math.inf:
            raise ConfigError(f"phase_diagram.{ax}_min_g must be < {ax}_max_g, "
                              "by a finite span")
    dis = values["disorder"]
    table = count_table_length(dis["n_mean"])
    for name, size, bound in (
            ("phase_diagram.t_points x mu_points",
             pd["t_points"] * pd["mu_points"], MAX_CELLS),
            ("disorder.points^3", dis["points"] ** 3, MAX_GRID_POINTS),
            (f"disorder.sample_count x {table} count-table entries (n_mean "
             f"{dis['n_mean']!r})", dis["sample_count"] * table, MAX_DRAWS)):
        if size > bound:
            raise ConfigError(f"{name} must be at most {bound}, got {size}")
    n_sigma = dis["n_sigma_max"]  # binomial counts are sub-Poisson
    if dis["n_dist"] == "binomial" and not n_sigma * n_sigma < dis["n_mean"]:
        raise ConfigError(f"disorder.n_sigma_max^2 must be < n_mean for a binomial "
                          f"n_dist, got {n_sigma!r}^2 and {dis['n_mean']!r}")
    if not values["system"]["wavelength_nm"] * 1e-9 > 0:  # the commands use metres
        raise ConfigError(f"system.wavelength_nm must be > 0 in metres too, "
                          f"got {values['system']['wavelength_nm']!r}")
    if not dis["sigma_omega_max_g"] * _coupling(values) < MAX_SIGMA_OMEGA:
        raise ConfigError(f"disorder.sigma_omega_max_g times g must be below "
                          f"{MAX_SIGMA_OMEGA:g} rad/s, got {dis['sigma_omega_max_g']}")
    return values


def _coupling(cfg):
    return coupling_from_ghz(cfg["system"]["g_ghz"],
                             angular=cfg["system"]["g_angular"])


def _system_params(cfg, big_n=None, detuning_g=None, physical=True):
    big_n = cfg["system"]["big_n"] if big_n is None else big_n
    detuning_g = (cfg["system"]["detuning_g"] if detuning_g is None
                  else detuning_g)
    if physical:
        return SystemParams.physical(
            big_n=big_n, detuning_g=detuning_g, z=cfg["system"]["z"],
            g=_coupling(cfg), wavelength_nm=cfg["system"]["wavelength_nm"])
    return SystemParams.dimensionless(big_n, detuning_g, cfg["system"]["z"])


def _loss_params(cfg, eta=1.0):
    from .observables import LossParams

    return LossParams(q_cavity=cfg["loss"]["q_cavity"],
                      tau_e=cfg["loss"]["tau_e_s"],
                      purcell_f=cfg["loss"]["purcell_f"], eta=eta)


def _fmt(value):
    # repr spells the non-finite floats nan, inf and -inf
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv(header, rows):
    """CSV of ``header`` and any iterable of ``rows``, encoded row by row
    into one ASCII buffer; no value holds a comma, quote or newline."""
    buf = bytearray()
    for row in itertools.chain([header], rows):
        buf += (",".join(map(_fmt, row)) + "\n").encode("ascii")
    return buf


def _json(payload):
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def _pgm(matrix, comments=()):
    finite = matrix[np.isfinite(matrix)]
    top = float(finite.max()) if finite.size and finite.max() > 0 else 1.0
    scaled = np.where(np.isfinite(matrix), matrix, top)
    gray = np.clip(np.rint(255.0 * scaled / top), 0, 255).astype(np.uint8)
    head = "".join(f"# {c}\n" for c in comments)
    return (f"P5\n{head}{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
            + gray.tobytes())


def _write_outputs(outdir, files):
    """Write ``name -> bytes`` into ``outdir``, the only writer of results:
    every file is staged under a sibling ``.part`` name, then each is moved
    into place, so a failed write leaves no partial set and no staged file,
    and removes the directories it created."""
    created = []  # the missing directories on the way to outdir, innermost first
    path = os.path.abspath(outdir)
    while not os.path.isdir(path):
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(outdir, exist_ok=True)
    parts = [os.path.join(outdir, name + ".part") for name in files]
    try:
        for part, data in zip(parts, files.values()):
            with open(part, "wb") as fh:
                fh.write(data)
    except OSError:
        for part in filter(os.path.exists, parts):
            os.remove(part)
        for path in created:
            os.rmdir(path)
        raise
    for name, part in zip(files, parts):
        os.replace(part, os.path.join(outdir, name))


def cmd_phase_diagram(cfg):
    from .meanfield import phase_diagram

    pd = cfg["phase_diagram"]
    t_axis = np.linspace(pd["t_min_g"], pd["t_max_g"], pd["t_points"])
    mu_axis = np.linspace(pd["mu_min_g"], pd["mu_max_g"], pd["mu_points"])
    params = _system_params(cfg, physical=False)
    started = time.perf_counter()
    grid = phase_diagram(params, t_axis, mu_axis, workers=cfg["run"]["workers"])
    elapsed = time.perf_counter() - started
    unit = _coupling(cfg) if cfg["run"]["physical_units"] else 1.0
    rows = ((t, mu, psi, "MI" if mott else "SF", n)
            for (t, mu), psi, mott, n in zip(
                itertools.product(t_axis * unit, mu_axis * unit),
                grid.psi.flat, grid.is_mott.flat, grid.filling.flat))
    runaway = int(grid.runaway.sum())
    files = {
        "phase_diagram.csv": _csv(["t", "mu", "psi", "phase", "filling"], rows),
        "phase_diagram.json": _json({
            "config": snapshot(cfg),
            "params": {"big_n": params.big_n, "z": params.z,
                       "detuning_g": params.detuning / params.g},
            "t_axis_g": [float(t) for t in t_axis],
            "mu_axis_g": [float(m) for m in mu_axis],
            "unit": "rad/s" if cfg["run"]["physical_units"] else "g",
            "n_max_final": grid.n_max_final.tolist(),
            "runaway_cells": runaway,
        }),
    }
    if pd["pgm"]:
        files["phase_diagram.pgm"] = _pgm(
            grid.psi.T[::-1, :],  # image rows are mu, descending
            comments=[f"polarlat {__version__} order parameter",
                      f"t axis {pd['t_min_g']}..{pd['t_max_g']} g, "
                      f"mu axis {pd['mu_min_g']}..{pd['mu_max_g']} g"])
    return files, (f"phase-diagram: {t_axis.size}x{mu_axis.size} cells "
                   f"({int((~grid.is_mott).sum())} SF, {runaway} runaway) -> "
                   f"{cfg['run']['outdir']} ({elapsed:.1f}s)")


def cmd_critical(cfg):
    from . import meanfield, observables

    unit = _coupling(cfg) if cfg["run"]["physical_units"] else 1.0
    g = _coupling(cfg)
    rows, failures = [], []
    for big_n in cfg["critical"]["big_n_list"]:
        for det in cfg["critical"]["detuning_g_list"]:
            try:
                params = _system_params(cfg, big_n=big_n, detuning_g=det,
                                        physical=False)
                t_c, _mu_tip = meanfield.critical_tunneling(params, 1)
                u_g = observables.interaction_energy(params) / params.g
                comp = observables.polariton_fractions(params)
                ratio = observables.bhm_ratio(params, t_c)
                phys = _system_params(cfg, big_n=big_n, detuning_g=det)
                q1, q10 = (observables.required_q(
                    phys, _loss_params(cfg, eta=eta), t_c * g)
                    for eta in (1.0, 10.0))
                rows.append((big_n, det, t_c * unit, u_g * unit, comp.c_ph_sq,
                             ratio, q1, q10, "ok"))
            except (LobeError, NumericalError) as exc:  # an InputError fails the run
                rows.append((big_n, det, *[math.nan] * 6, type(exc).__name__))
                failures.append(f"big_n={big_n}, detuning_g={det!r}: "
                                f"{type(exc).__name__}: {exc}")
    if len(failures) == len(rows):
        raise NumericalError(f"every row failed, the first at {failures[0]}")
    return {
        "critical.csv": _csv(["big_n", "detuning_g", "t_c", "u", "c_ph_sq",
                              "ratio", "q_r_eta1", "q_r_eta10", "status"], rows),
        "critical.json": _json({
            "config": snapshot(cfg),
            "unit": "rad/s" if cfg["run"]["physical_units"] else "g",
            "rows": len(rows),
        }),
    }, f"critical: {len(rows)} rows -> {cfg['run']['outdir']}"


def cmd_disorder(cfg):
    from .disorder import iso_surface

    dis = cfg["disorder"]
    g = _coupling(cfg)
    params = _system_params(cfg, big_n=int(round(dis["n_mean"])))
    loss = _loss_params(cfg)
    points = dis["points"]
    sig_ax = np.linspace(0.0, dis["sigma_omega_max_g"] * g, points)
    dg_ax = np.linspace(0.0, dis["delta_g_max"], points)
    ns_ax = np.linspace(0.0, dis["n_sigma_max"], points)
    started = time.perf_counter()
    scan = iso_surface(params, loss, sig_ax, dg_ax, ns_ax,
                       n_mean=dis["n_mean"], sample_count=dis["sample_count"],
                       seed=cfg["run"]["seed"], n_dist=dis["n_dist"],
                       method=dis["method"], quantile=dis["quantile"],
                       safety_factor=dis["safety_factor"],
                       workers=cfg["run"]["workers"])
    elapsed = time.perf_counter() - started
    values = (scan.delta_e, scan.delta_u, scan.u_mean, scan.t_c_disordered,
              scan.f, (scan.f >= 0).astype(int))
    rows = (point + cell for point, cell in zip(itertools.product(
        sig_ax, dg_ax, ns_ax), zip(*(v.flat for v in values))))
    ghz = 2.0 * math.pi * 1e9
    cut = {k: v["value"] for k, v in scan.intercepts.items()}
    files = {
        "disorder_grid.csv": _csv(
            ["sigma_omega", "delta_g", "n_sigma", "delta_e", "delta_u",
             "u_mean", "t_c_disordered_g", "f", "observable"], rows),
        "disorder_boundary.csv": _csv(
            ["sigma_omega", "delta_g", "n_sigma"], scan.boundary_points),
        "disorder_summary.json": _json({
            "config": snapshot(cfg),
            "intercepts": {
                "sigma_omega_rad_s": cut["sigma_omega"],
                "sigma_omega_ghz": cut["sigma_omega"] / ghz,
                "sigma_omega_g": cut["sigma_omega"] / g,
                "delta_g_g": cut["delta_g"],
                "n_sigma": cut["n_sigma"],
                "n_sigma_over_mean": cut["n_sigma"] / dis["n_mean"],
                "censored": {k: v["censored"] for k, v in scan.intercepts.items()},
            },
            "clean": {"t_c_g": scan.t_c_clean, "u": scan.u_clean,
                      "loss_rate": scan.loss_rate,
                      "safety_factor": scan.safety_factor},
            "uniform_sign": scan.uniform_sign,
            "boundary_points": int(scan.boundary_points.shape[0]),
        }),
    }
    summary = (f"disorder: {points}^3 grid x {dis['sample_count']} samples -> "
               f"{cfg['run']['outdir']} ({elapsed:.1f}s)")
    if scan.uniform_sign:
        summary = ("disorder: warning: marker f has uniform sign over the "
                   "whole grid; the boundary surface lies outside the scanned "
                   "ranges\n" + summary)
    return files, summary


def cmd_kerr(cfg):
    from .fields import read_field
    from .kerr import effective_bhm

    ker, keys = cfg["kerr"], ("phi_file", "k_c_file", "chi3_file")
    for key in keys:
        if not ker[key] or not os.path.isfile(ker[key]):
            raise ConfigError(f"kerr.{key} must name an existing field file, "
                              f"got {ker[key]!r}")
    try:
        phi, k_c, chi3 = (read_field(ker[key]) for key in keys)
    except OSError as exc:
        raise InputError(f"cannot read a field file: {exc}") from exc
    d = (ker["d_x_m"], ker["d_y_m"], ker["d_z_m"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning is a summary line
        res = effective_bhm(k_c, chi3, phi, d)

        # quadrature error estimate from one refinement step: re-evaluate on the
        # stride-2 subgrid (the only refinement available for fixed input data)
        err_t = err_u = math.nan
        if min(phi.shape) >= 5:
            coarse = effective_bhm(*(type(f)(f.values[::2, ::2, ::2], tuple(
                2.0 * s for s in f.spacing), f.origin)
                for f in (k_c, chi3, phi)), d)
            err_t, err_u = abs(res.t - coarse.t), abs(res.u - coarse.u)
    warned = "".join(f"kerr: warning: {message}\n" for message in
                     dict.fromkeys(str(w.message) for w in caught))
    return {"kerr.json": _json({
        "config": snapshot(cfg),
        "t_self_energy_units": res.t,
        "u_self_energy_units": res.u,
        "norm_constant": res.norm_constant,
        "quadrature_error_t": err_t,
        "quadrature_error_u": err_u,
        "displacement_m": list(d),
        "grid": list(phi.shape),
    })}, warned + f"kerr: t={res.t:.6g}, u={res.u:.6g} -> {cfg['run']['outdir']}"


def cmd_validate():
    from .validate import format_report, run_checks

    checks = run_checks()
    print(format_report(checks))
    if not all(c.passed for c in checks):
        raise ValidationFailure(
            f"{sum(not c.passed for c in checks)} oracle check(s) failed")
    return 0


def _parse_args(argv):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--outdir", help="output directory (overrides run.outdir)")
    common.add_argument("--seed", type=int, help="random seed (overrides run.seed)")
    common.add_argument("--workers", type=int,
                        help="at most this many processes for the phase "
                        "map's mu-columns and the disorder scan's rows: this "
                        "one and forked ones (Linux only); results are "
                        "byte-identical for any count (default: the usable "
                        "cores; overrides run.workers)")
    common.add_argument("--physical-units", action="store_true",
                        help="report t and mu in rad/s instead of units of g")
    common.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override any config entry; repeatable")

    parser = argparse.ArgumentParser(
        prog="polarlat",
        description="Mean-field phase analysis of polaritons in doped "
                    "microcavity lattices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("phase-diagram", "order-parameter scan over the (t, mu) plane"),
            ("critical", "critical tunneling, interaction energy and required Q"),
            ("disorder", "disorder-width scan for insulator accessibility"),
            ("kerr", "dispersive-limit lattice parameters from field files"),
            ("validate", "run the built-in oracle suite")):
        sub.add_parser(name, parents=[common], help=text)
    return parser.parse_args(argv)


def _overrides(args):
    """``--set`` items, then POLARLAT_SEED/_WORKERS, then the flags: load_config
    applies them in order, so a later source wins and all pass its checks."""
    items = list(args.set)
    for key, flag in (("seed", args.seed), ("workers", args.workers)):
        value = os.environ.get(f"POLARLAT_{key.upper()}") if flag is None else flag
        if value is not None:
            items.append(f"run.{key}={value}")
    if args.physical_units:
        items.append("run.physical_units=true")
    return items


def main(argv=None):
    try:
        args = _parse_args(argv)
        cfg = load_config(args.config, _overrides(args))
        if args.outdir is not None:
            cfg["run"]["outdir"] = args.outdir
        if args.command == "validate":
            return cmd_validate()
        files, summary = {
            "phase-diagram": cmd_phase_diagram, "critical": cmd_critical,
            "disorder": cmd_disorder, "kerr": cmd_kerr}[args.command](cfg)
    except FieldFormatError as exc:
        offset = "unknown" if exc.offset is None else exc.offset
        print(f"polarlat: input error: {exc} (byte offset {offset})",
              file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"polarlat: input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"polarlat: config error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"polarlat: validation failed: {exc}", file=sys.stderr)
        return 4
    except PolarlatError as exc:
        print(f"polarlat: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    try:
        _write_outputs(cfg["run"]["outdir"], {
            "config_snapshot.json": _json(snapshot(cfg)), **files})
    except OSError as exc:
        print(f"polarlat: output error: {exc}", file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    return 0


def entry():
    """:func:`main` for a process that exits when it returns: the
    ``polarlat`` console script and ``python -m polarlat.cli``."""
    code = main()
    gc.freeze()  # the exit's full collections then skip the run's heap
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
