"""In-process span tracer for the polarlat layers, applied from outside.

The tracer wraps the public functions of each ``polarlat`` module (plus
scipy's banded eigensolver and numpy's batched ``eigvalsh``) by patching
every name where its caller looks it up, records one span per call as
``[name, start, end, parent, request, attrs]`` and keeps the spans in
memory.  :func:`layer_metrics` turns the spans into the per-layer metrics
named in ``BENCHMARK.json``.  Nothing inside the library changes.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _cell_attrs(args, point):
    return {"mi": point.phase.value == "MI", "n_max": point.n_max,
            "runaway": bool(point.runaway)}


def _tip_attrs(args, _result):
    params = args[0]
    return {"big_n": params.big_n, "detuning_g": params.detuning / params.g}


def _band_dim(args, _w):
    return {"dim": int(np.shape(args[0])[1])}


def _kernel_attrs(args, result):
    computed = sum(np.asarray(a).nbytes for a in args)
    computed += sum(np.asarray(r).nbytes for r in result)
    counts = np.asarray(args[2])
    computed += 72 * int(np.count_nonzero(counts >= 2))  # 3x3 float blocks
    return {"samples": int(counts.size), "bytes": int(computed)}


def _file_attrs(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _trapezoid_attrs(args, _result):
    return {"bytes": int(np.asarray(args[0]).nbytes)}


def install(tracer):
    """Patch the library and its numerical back ends; returns the tracer.

    Names that could not be patched are listed in ``tracer.missing``.
    """
    import numpy.linalg
    import scipy.linalg

    from polarlat import cli, disorder, fields, kerr, meanfield, model, observables

    def patch(owners, attr, name, attrs=None):
        # a name the library no longer has, or no longer shares between
        # modules, is reported and left unwrapped: its metrics then read 0
        original = getattr(owners[0], attr, None)
        if original is None:
            tracer.missing.append(f"{owners[0].__name__}.{attr}")
            return
        wrapped = tracer.wrap(name, original, attrs)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, wrapped)
            else:
                tracer.missing.append(f"{owner.__name__}.{attr}")

    # numerical back ends, looked up through their modules at call time
    patch([scipy.linalg], "eigvals_banded", "scipy.eigvals_banded", _band_dim)
    patch([numpy.linalg], "eigvalsh", "numpy.eigvalsh")

    # model: meanfield and observables import these by name
    patch([model, meanfield, observables], "manifold_energy",
          "model.manifold_energy")
    patch([model, meanfield], "manifold_block", "model.manifold_block")

    for attr in ("phase_diagram", "minimize_order_parameter",
                 "boundary_tunneling", "mott_lobe_mu_range", "filling_at_zero_psi",
                 "zero_psi_energy", "ground_energy_at_psi"):
        patch([meanfield], attr, f"meanfield.{attr}")
    patch([meanfield], "classify_phase", "meanfield.classify_phase",
          _cell_attrs)
    patch([meanfield], "critical_tunneling", "meanfield.critical_tunneling",
          _tip_attrs)

    for attr in ("interaction_energy", "polariton_fractions",
                 "polariton_loss_rate", "required_q"):
        patch([observables], attr, f"observables.{attr}")

    patch([disorder, cli], "iso_surface", "disorder.iso_surface")
    patch([disorder], "resolve_count_distribution",
          "disorder.resolve_count_distribution")
    patch([disorder], "clean_lobe_width", "disorder.clean_lobe_width")
    patch([disorder], "_collective_u_batch", "disorder.kernel", _kernel_attrs)
    patch([disorder], "_exact_u_batch", "disorder.kernel", _kernel_attrs)
    patch([disorder], "_quantile_halfwidth", "disorder.quantile")
    patch([disorder], "_counts_from_uniform", "disorder.count_ppf")

    patch([fields, cli], "read_field", "fields.read_field")
    patch([fields], "_read_binary", "fields.read_binary", _file_attrs)
    patch([fields], "_read_text", "fields.read_text", _file_attrs)
    patch([fields, kerr], "trapezoid3", "fields.trapezoid3", _trapezoid_attrs)
    patch([fields.ScalarField3D], "shifted_values", "fields.shifted_values")

    patch([kerr, cli], "effective_bhm", "kerr.effective_bhm")
    for attr in ("mode_norm", "hopping_integral", "kerr_u"):
        patch([kerr], attr, f"kerr.{attr}")

    patch([cli], "load_config", "cli.load_config")
    for attr in ("cmd_phase_diagram", "cmd_critical", "cmd_disorder",
                 "cmd_kerr"):
        patch([cli], attr, "cli.command")
    return tracer


#: name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "meanfield.cells": ("count", "higher"),
    "meanfield.mi_cells": ("count", "higher"),
    "meanfield.cell_p50_ms": ("ms", "lower"),
    "meanfield.cell_tail_ms": ("ms", "lower"),
    "meanfield.mi_cell_p50_ms": ("ms", "lower"),
    "meanfield.sf_cell_p50_ms": ("ms", "lower"),
    "meanfield.minimize_calls": ("count", "lower"),
    "meanfield.minimize_p50_ms": ("ms", "lower"),
    "meanfield.eigensolves_per_cell": ("count", "lower"),
    "meanfield.n_max_final_mean": ("photons", "lower"),
    "meanfield.runaway_cells": ("count", "lower"),
    "meanfield.boundary_calls": ("count", "lower"),
    "meanfield.boundary_p50_ms": ("ms", "lower"),
    "meanfield.tips": ("count", "higher"),
    "meanfield.tip_p50_s": ("s", "lower"),
    "meanfield.tip_max_s": ("s", "lower"),
    "meanfield.eigensolves_per_tip": ("count", "lower"),
    "meanfield.eigensolves": ("count", "lower"),
    "meanfield.eigensolve_mean_us": ("us", "lower"),
    "meanfield.eigensolve_dim_mean": ("rows", "lower"),
    "meanfield.overhead_s": ("s", "lower"),
    "model.manifold_energy_hits": ("count", "higher"),
    "model.manifold_energy_misses": ("count", "lower"),
    "observables.s": ("s", "lower"),
    "disorder.iso_surface_s": ("s", "lower"),
    "disorder.clean_tc_s": ("s", "lower"),
    "disorder.kernel_s": ("s", "lower"),
    "disorder.kernel_calls": ("count", "lower"),
    "disorder.kernel_ms_per_1e4": ("ms", "lower"),
    "disorder.quantile_s": ("s", "lower"),
    "disorder.count_ppf_s": ("s", "lower"),
    "disorder.self_s": ("s", "lower"),
    "disorder.grid_points": ("count", "higher"),
    "disorder.samples": ("count", "higher"),
    "disorder.kernel_computed_mb": ("MB", "lower"),
    "fields.read_binary_s": ("s", "lower"),
    "fields.read_text_s": ("s", "lower"),
    "fields.read_binary_mb_per_s": ("MB/s", "higher"),
    "fields.read_text_mb_per_s": ("MB/s", "higher"),
    "fields.read_bytes": ("bytes", "lower"),
    "fields.trapezoid3_calls": ("count", "lower"),
    "fields.trapezoid3_s": ("s", "lower"),
    "fields.shift_s": ("s", "lower"),
    "kerr.effective_bhm_calls": ("count", "lower"),
    "kerr.effective_bhm_s": ("s", "lower"),
    "kerr.computed_mb": ("MB", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _p50(values):
    return float(np.median(values)) if values else 0.0


def _tail(values):
    """Value with ten samples beyond it (the maximum below eleven samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[-11 if len(ordered) > 10 else -1])


def _enclosing(spans, name):
    """Index of the nearest span called ``name`` enclosing each span, or -1."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        out[i] = i if s[NAME] == name else (out[p] if p >= 0 else -1)
    return out


def tip_table(spans):
    """One row per lobe tip: N, detuning (g), eigensolves and seconds."""
    tip_of = _enclosing(spans, "meanfield.critical_tunneling")
    solves = {}
    for i, s in enumerate(spans):
        if s[NAME] == "scipy.eigvals_banded" and tip_of[i] >= 0:
            solves[tip_of[i]] = solves.get(tip_of[i], 0) + 1
    return [{**s[ATTRS], "eigensolves": solves.get(i, 0),
             "seconds": s[END] - s[START]}
            for i, s in enumerate(spans)
            if s[NAME] == "meanfield.critical_tunneling"]


def layer_metrics(spans, cache_info, output_bytes):
    """Per-layer metrics from one traced run; layers not run report 0."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]

    cell_of = _enclosing(spans, "meanfield.classify_phase")
    tip_of = _enclosing(spans, "meanfield.critical_tunneling")

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(dur[i] for i in idx(name)))

    def layer_self(prefix):
        return float(sum(self_time[i] for i, s in enumerate(spans)
                         if s[NAME].startswith(prefix)))

    cells = idx("meanfield.classify_phase")
    cell_ms = [1e3 * dur[i] for i in cells]
    mi = [1e3 * dur[i] for i in cells if spans[i][ATTRS]["mi"]]
    sf = [1e3 * dur[i] for i in cells if not spans[i][ATTRS]["mi"]]
    finite = [spans[i][ATTRS]["n_max"] for i in cells
              if not spans[i][ATTRS]["runaway"]]
    solves = idx("scipy.eigvals_banded")
    tips = idx("meanfield.critical_tunneling")
    tip_s = [dur[i] for i in tips]
    kernel = idx("disorder.kernel")
    samples = sum(spans[i][ATTRS]["samples"] for i in kernel)
    iso = idx("disorder.iso_surface")
    iso_set = set(iso)
    binary = idx("fields.read_binary")
    text = idx("fields.read_text")
    binary_bytes = sum(spans[i][ATTRS]["bytes"] for i in binary)
    text_bytes = sum(spans[i][ATTRS]["bytes"] for i in text)
    kerr_spans = {i for i in idx("kerr.effective_bhm")}
    trapz = idx("fields.trapezoid3")

    def under_kerr(i):
        while i >= 0:
            if i in kerr_spans:
                return True
            i = spans[i][PARENT]
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "meanfield.cells": len(cells),
        "meanfield.mi_cells": len(mi),
        "meanfield.cell_p50_ms": _p50(cell_ms),
        "meanfield.cell_tail_ms": _tail(cell_ms),
        "meanfield.mi_cell_p50_ms": _p50(mi),
        "meanfield.sf_cell_p50_ms": _p50(sf),
        "meanfield.minimize_calls": len(idx("meanfield.minimize_order_parameter")),
        "meanfield.minimize_p50_ms": _p50(
            [1e3 * dur[i] for i in idx("meanfield.minimize_order_parameter")]),
        "meanfield.eigensolves_per_cell": ratio(
            sum(1 for i in solves if cell_of[i] >= 0), len(cells)),
        "meanfield.n_max_final_mean": float(np.mean(finite)) if finite else 0.0,
        "meanfield.runaway_cells": len(cells) - len(finite),
        "meanfield.boundary_calls": len(idx("meanfield.boundary_tunneling")),
        "meanfield.boundary_p50_ms": _p50(
            [1e3 * dur[i] for i in idx("meanfield.boundary_tunneling")]),
        "meanfield.tips": len(tips),
        "meanfield.tip_p50_s": _p50(tip_s),
        "meanfield.tip_max_s": max(tip_s) if tip_s else 0.0,
        "meanfield.eigensolves_per_tip": ratio(
            sum(1 for i in solves if tip_of[i] >= 0), len(tips)),
        "meanfield.eigensolves": len(solves),
        "meanfield.eigensolve_mean_us": 1e6 * ratio(
            sum(dur[i] for i in solves), len(solves)),
        "meanfield.eigensolve_dim_mean": ratio(
            sum(spans[i][ATTRS]["dim"] for i in solves), len(solves)),
        "meanfield.overhead_s": layer_self("meanfield."),
        "model.manifold_energy_hits": cache_info[0],
        "model.manifold_energy_misses": cache_info[1],
        "observables.s": layer_self("observables."),
        "disorder.iso_surface_s": total("disorder.iso_surface"),
        "disorder.clean_tc_s": float(sum(
            dur[i] for i in tips if spans[i][PARENT] in iso_set)),
        "disorder.kernel_s": total("disorder.kernel"),
        "disorder.kernel_calls": len(kernel),
        "disorder.kernel_ms_per_1e4": 1e3 * ratio(total("disorder.kernel"),
                                                  samples / 1e4),
        "disorder.quantile_s": total("disorder.quantile"),
        "disorder.count_ppf_s": total("disorder.count_ppf"),
        "disorder.self_s": float(sum(self_time[i] for i in iso)),
        "disorder.grid_points": len(kernel),
        "disorder.samples": samples,
        "disorder.kernel_computed_mb": sum(
            spans[i][ATTRS]["bytes"] for i in kernel) / 1e6,
        "fields.read_binary_s": total("fields.read_binary"),
        "fields.read_text_s": total("fields.read_text"),
        "fields.read_binary_mb_per_s": ratio(binary_bytes / 1e6,
                                             total("fields.read_binary")),
        "fields.read_text_mb_per_s": ratio(text_bytes / 1e6,
                                           total("fields.read_text")),
        "fields.read_bytes": binary_bytes + text_bytes,
        "fields.trapezoid3_calls": len(trapz),
        "fields.trapezoid3_s": total("fields.trapezoid3"),
        "fields.shift_s": total("fields.shifted_values"),
        "kerr.effective_bhm_calls": len(kerr_spans),
        "kerr.effective_bhm_s": total("kerr.effective_bhm"),
        "kerr.computed_mb": sum(spans[i][ATTRS]["bytes"] for i in trapz
                                if under_kerr(i)) / 1e6,
        "cli.load_config_s": total("cli.load_config"),
        "cli.self_s": float(sum(self_time[i] for i in idx("cli.command"))),
        "cli.output_bytes": output_bytes,
    }
    for key, value in m.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is {value}")
    return m
