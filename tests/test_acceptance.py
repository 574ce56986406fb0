"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; the whole suite also runs as part of the plain pytest invocation.
"""

import math
import time

import numpy as np
import pytest

from polarlat.cli import main as cli_main
from polarlat.disorder import (DisorderSpec, _base_draws, _collective_u_batch,
                               bg_mi_tunneling, disorder_stats, iso_surface,
                               lobe_survival, resolve_count_distribution)
from polarlat.fields import ScalarField3D, write_field
from polarlat.kerr import VACUUM_PERMITTIVITY, effective_bhm
from polarlat.meanfield import (critical_tunneling, landau_boundary_tunneling,
                                mott_lobe_mu_range, phase_diagram)
from polarlat.model import SystemParams
from polarlat.observables import (LossParams, interaction_energy,
                                  polariton_fractions, required_q)
from polarlat.validate import boundary_tunneling, site_energies_exact

ASYMPTOTE = 4.0 * (3.0 + 2.0 * math.sqrt(2.0))  # 23.3137...
GHZ = 2.0 * math.pi * 1e9


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_01_bhm_asymptote():
    started = time.perf_counter()
    ratios = []
    for big_n in (1, 3, 8, 20, 50):
        p = SystemParams.dimensionless(big_n)
        t_c, _ = critical_tunneling(p, 1)
        u = interaction_energy(p)
        ratios.append(u / (polariton_fractions(p).c_ph_sq * t_c))
    elapsed = time.perf_counter() - started
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    toward = all(r > ASYMPTOTE for r in ratios)
    final = ratios[-1]
    ok = (decreasing and toward
          and abs(final - ASYMPTOTE) / ASYMPTOTE < 0.10
          and abs(final - 23.2) / 23.2 < 0.15
          and elapsed < 120.0)
    report(1, ok,
           f"U/(|c_ph|^2 t_c) at N=1..50: {', '.join(f'{r:.3f}' for r in ratios)} "
           f"-> {ASYMPTOTE:.3f} (final off by "
           f"{abs(final - ASYMPTOTE) / ASYMPTOTE:.2%}; sweep {elapsed:.1f}s)")


def test_02_interaction_energy_closed_form():
    worst = 0.0
    for big_n in range(1, 51):
        p = SystemParams.dimensionless(big_n)
        # oracle: characteristic polynomials of the 2x2/3x3 excitation
        # blocks give eps1 = -sqrt(N), eps2 = -sqrt(a^2 + b^2) with
        # a^2 = 2N, b^2 = 2N - 2
        expected = 2.0 * math.sqrt(big_n) - math.sqrt(2.0 * big_n + 2.0 * big_n - 2.0)
        worst = max(worst, abs(interaction_energy(p) - expected) / expected)
    report(2, worst < 1e-9,
           f"U(N, delta=0) matches g(2 sqrt(N) - sqrt(4N-2)) for N=1..50, "
           f"worst rel dev {worst:.2e}")


def test_03_lobe_geometry():
    p8 = SystemParams.dimensionless(8)
    lo, hi = mott_lobe_mu_range(p8, 1)
    lo_exact = -math.sqrt(8.0)
    hi_exact = math.sqrt(8.0) - math.sqrt(30.0)
    width_vs_u = abs((hi - lo) - interaction_energy(p8)) / interaction_energy(p8)
    ok = (abs(lo - lo_exact) < 1e-6 and abs(hi - hi_exact) < 1e-6
          and width_vs_u < 1e-9)
    report(3, ok,
           f"n=1 lobe at N=8 spans ({lo:.6f}, {hi:.6f}) g vs exact "
           f"({lo_exact:.6f}, {hi_exact:.6f}); width-U rel dev {width_vs_u:.2e}")


def test_04_boundary_cross_check():
    cases = [(1, 0.0), (3, 0.0), (8, 0.0), (20, 0.0), (3, 6.0),
             (3, 12.0), (8, 3.0), (8, -3.0), (5, 1.0), (13, 2.0)]
    worst = 0.0
    count = 0
    for big_n, det in cases:
        p = SystemParams.dimensionless(big_n, det)
        lo, hi = mott_lobe_mu_range(p, 1)
        for frac in (0.3, 0.7):
            mu = lo + frac * (hi - lo)
            t_b = boundary_tunneling(p, 1, mu)
            t_l = landau_boundary_tunneling(p, 1, mu)
            worst = max(worst, abs(t_b - t_l) / t_l)
            count += 1
    report(4, worst < 1e-3 and count == 20,
           f"bisection vs perturbative boundary at {count} (N, delta, mu) "
           f"points, worst rel dev {worst:.2e}")


def test_05_required_q_claims():
    g = SystemParams.physical(big_n=3).g
    detuned = SystemParams.physical(big_n=3, detuning_g=12.0)
    t_c_det, _ = critical_tunneling(SystemParams.dimensionless(3, 12.0), 1)
    q_detuned = required_q(detuned, LossParams(q_cavity=1e6, eta=1.0), t_c_det * g)
    resonant = SystemParams.physical(big_n=3, detuning_g=0.0)
    t_c_res, _ = critical_tunneling(SystemParams.dimensionless(3, 0.0), 1)
    q_resonant = required_q(resonant, LossParams(q_cavity=1e6, eta=10.0),
                            t_c_res * g)
    ok = 1e4 <= q_detuned <= 1e6 and 1e5 <= q_resonant <= 1e8
    report(5, ok,
           f"Q_r(N=3, delta=12g, eta=1) = {q_detuned:.3g} in [1e4, 1e6]; "
           f"Q_r(N=3, delta=0, eta=10) = {q_resonant:.3g} in [1e5, 1e8]")


def test_06_doping_density():
    from polarlat.observables import doping_density

    rho = doping_density(8, 817.0, 3.6)
    dev = abs(rho - 6.8e14) / 6.8e14
    report(6, dev < 0.01,
           f"density(N=8, 817 nm, 3.6) = {rho:.3g} cm^-3, {dev:.2%} from 6.8e14")


def test_07_disorder_intercepts():
    started = time.perf_counter()
    params = SystemParams.physical(big_n=3, detuning_g=12.0)
    loss = LossParams(q_cavity=1e6)
    g = params.g
    scan = iso_surface(
        params, loss,
        sigma_omega_axis=np.linspace(0.0, 1.6, 16) * g,
        delta_g_axis=np.linspace(0.0, 0.45, 16),
        n_sigma_axis=np.linspace(0.0, 1.05, 16),
        n_mean=3.0, sample_count=10_000, seed=42)
    elapsed = time.perf_counter() - started
    sig_ghz = scan.intercepts["sigma_omega"]["value"] / GHZ
    dg = scan.intercepts["delta_g"]["value"]
    ns_over_mean = scan.intercepts["n_sigma"]["value"] / 3.0
    ok = (16.0 <= sig_ghz <= 64.0
          and 0.07 <= dg <= 0.28
          and 0.09 <= ns_over_mean <= 0.36
          and not any(v["censored"] for v in scan.intercepts.values())
          and elapsed < 600.0)
    report(7, ok,
           f"intercepts ({sig_ghz:.1f} GHz, {dg:.3f} g, {ns_over_mean:.3f}<N>) "
           f"within 2x of (32 GHz, 0.14 g, 0.18<N>); 16^3 x 1e4 scan in "
           f"{elapsed:.0f}s")


def test_08_disorder_clean_limits():
    params = SystemParams.dimensionless(3, 12.0)
    spec = DisorderSpec(n_mean=3.0, sample_count=300, seed=3)
    stats = disorder_stats(spec, params)
    t_c, _ = critical_tunneling(params, 1)
    t_dis = bg_mi_tunneling(params, stats, 1)
    exact_zero = stats.delta_e == 0.0 and stats.delta_u == 0.0
    clean_match = abs(t_dis - t_c) / t_c < 1e-9
    # non-strict destruction inequality: the boundary case does not survive
    survives_mid, width_mid = lobe_survival(1.0, 0.25, 0.0, 1)
    survives_edge, width_edge = lobe_survival(1.0, 0.5, 0.0, 1)
    survives_n2, width_n2 = lobe_survival(1.0, 0.1, 0.2, 2)
    arithmetic = (survives_mid and width_mid == 0.5
                  and not survives_edge and width_edge == 0.0
                  and survives_n2 and width_n2 == pytest.approx(0.2, abs=1e-15))
    ok = exact_zero and clean_match and arithmetic
    report(8, ok,
           f"zero-width disorder: dE=dU={stats.delta_e}, t_c_dis/t_c-1 = "
           f"{t_dis / t_c - 1:.2e}; survival arithmetic exact")


def test_09_inhomogeneous_oracles():
    def sites(spec, p):
        # each site's detuning and couplings from disorder_stats' base draws,
        # with its collective (e1, e2)
        z, (counts,), w = _base_draws(spec.seed, spec.sample_count,
                                      [resolve_count_distribution(spec)])
        ds = p.detuning + spec.sigma_omega * z
        g_lists = [row[:n] for row, n in zip(p.g * (1.0 - spec.delta_g * w), counts)]
        e1, u = _collective_u_batch(ds, np.array([np.sum(g * g) for g in g_lists]),
                                    counts)
        return zip(ds, g_lists, e1, u + 2.0 * e1)

    worst_hom = 0.0
    for big_n in (1, 2, 5, 9):
        p = SystemParams.dimensionless(big_n, 4.0)
        for ds, g_list, e1c, e2c in sites(
                DisorderSpec(n_mean=float(big_n), sample_count=1, seed=0), p):
            exact = site_energies_exact(ds, g_list)
            worst_hom = max(worst_hom, abs(exact[0] - e1c), abs(exact[1] - e2c))
    p = SystemParams.dimensionless(6, 2.0)
    spec = DisorderSpec(delta_g=0.5, n_mean=6.0, n_sigma=2.0, sample_count=40,
                        seed=11)
    worst_bright = 0.0
    checked = 0
    for ds, g_list, e1c, _ in sites(spec, p):
        if g_list.size == 0:
            continue
        e1x = site_energies_exact(ds, g_list)[0]
        worst_bright = max(worst_bright, abs(e1x - e1c))
        checked += 1
    ok = worst_hom < 1e-10 and worst_bright < 1e-10 and checked > 20
    report(9, ok,
           f"uniform-coupling agreement {worst_hom:.1e}; one-excitation "
           f"bright-mode agreement {worst_bright:.1e} over {checked} random sites")


def test_10_kerr_quadrature():
    eps0 = VACUUM_PERMITTIVITY
    sigma, box, k_val, chi = 1.0e-6, 4.5e-6, 12.96, 3.3e-19
    d = (2.0e-6, 0.0, 0.0)

    def fixture(n):
        ax = np.linspace(-box, box, n)
        dx = ax[1] - ax[0]
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        phi = ScalarField3D(7.5e4 * np.exp(-(x * x + y * y + z * z)
                                           / (2 * sigma ** 2)),
                            (dx, dx, dx), (-box, -box, -box))
        kc = ScalarField3D(np.full(phi.shape, k_val), phi.spacing, phi.origin)
        c3 = ScalarField3D(np.full(phi.shape, chi), phi.spacing, phi.origin)
        return effective_bhm(kc, c3, phi, d)

    fine = fixture(128)
    coarse = fixture(64)
    a2 = 1.0 / (2 * eps0 * k_val * math.pi ** 1.5 * sigma ** 3)
    t_exact = math.exp(-d[0] ** 2 / (4 * sigma ** 2))
    u_exact = -6 * eps0 * chi * a2 ** 2 * (math.pi / 2) ** 1.5 * sigma ** 3
    dev_t = abs(fine.t - t_exact) / t_exact
    dev_u = abs(fine.u - u_exact) / abs(u_exact)
    halving_t = abs(fine.t - coarse.t) / fine.t
    halving_u = abs(fine.u - coarse.u) / abs(fine.u)
    ok = (dev_t < 1e-3 and dev_u < 1e-3
          and halving_t < 5e-3 and halving_u < 5e-3)
    report(10, ok,
           f"128^3 Gaussian: t off by {dev_t:.2e}, U off by {dev_u:.2e}; "
           f"halving step moves them by {halving_t:.2e}, {halving_u:.2e}")


def test_11_cli_determinism(tmp_path):
    gauss = {}
    ax = np.linspace(-3.0, 3.0, 21)
    dx = ax[1] - ax[0]
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    phi = ScalarField3D(np.exp(-(x * x + y * y + z * z) / 2.0), (dx, dx, dx),
                        (-3.0, -3.0, -3.0))
    for name, field in (("phi", phi),
                        ("kc", ScalarField3D(np.full(phi.shape, 12.0),
                                             phi.spacing, phi.origin)),
                        ("chi", ScalarField3D(np.full(phi.shape, 1e-19),
                                              phi.spacing, phi.origin))):
        path = tmp_path / f"{name}.f3d"
        write_field(field, path)
        gauss[name] = str(path)

    jobs = {
        "phase-diagram": ["phase-diagram",
                          "--set", "phase_diagram.t_points=3",
                          "--set", "phase_diagram.t_max_g=0.018",
                          "--set", "phase_diagram.mu_points=4",
                          "--set", "phase_diagram.mu_min_g=-2.82",
                          "--set", "phase_diagram.mu_max_g=-2.66",
                          "--set", "phase_diagram.pgm=true"],
        "critical": ["critical", "--set", "critical.big_n_list=1"],
        "disorder": ["disorder", "--seed", "42",
                     "--set", "system.detuning_g=12",
                     "--set", "disorder.points=3",
                     "--set", "disorder.sample_count=400"],
        "kerr": ["kerr",
                 "--set", f"kerr.phi_file={gauss['phi']}",
                 "--set", f"kerr.k_c_file={gauss['kc']}",
                 "--set", f"kerr.chi3_file={gauss['chi']}",
                 "--set", "kerr.d_x_m=1.0"],
    }
    all_ok = True
    details = []
    for name, args in jobs.items():
        blobs = []
        for run, workers in (("r1", "1"), ("r2", "1"), ("r3", "2")):
            outdir = tmp_path / name / run / "out"
            code = cli_main(args + ["--outdir", str(outdir),
                                    "--workers", workers])
            assert code == 0
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(outdir.iterdir())})
        same = blobs[0] == blobs[1] == blobs[2]
        all_ok = all_ok and same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    report(11, all_ok,
           "byte-identical outputs across reruns and worker counts "
           f"({', '.join(details)})")


def test_12_structural_lobes():
    # reduced-resolution check of the full diagram: the first lobes are
    # present as zero-order-parameter regions and their widths are close
    p8 = SystemParams.dimensionless(8)
    widths = []
    for n in (1, 2, 3):
        lo, hi = mott_lobe_mu_range(p8, n)
        widths.append(hi - lo)
    width_spread = max(widths) / min(widths)
    grid = phase_diagram(p8, np.linspace(0.0, 0.02, 9),
                         np.linspace(-3.0, -2.2, 25))
    mi_fillings = {int(f) for f in grid.filling[grid.is_mott]} - {0}
    has_sf = (~grid.is_mott).any()
    ok = width_spread < 1.30 and {1, 2} <= mi_fillings and has_sf
    report(12, ok,
           f"lobe widths n=1..3 within {width_spread - 1:.1%} of each other "
           f"(<30%); grid shows Mott fillings {sorted(mi_fillings)} and a "
           "superfluid region")
