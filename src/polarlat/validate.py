"""Built-in oracle suite: closed forms and independent cross-checks that a
healthy build must reproduce.  Used by the ``validate`` CLI subcommand and
by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import disorder, meanfield, observables
from .errors import MinimizationError
from .fields import ScalarField3D
from .kerr import VACUUM_PERMITTIVITY, effective_bhm
from .model import (SystemParams, build_basis, build_site_hamiltonian,
                    lowest_eigenpair, manifold_energy)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    expected: float
    residual: float  # relative residual compared against tol
    tol: float
    passed: bool


def variational_phase(params, t, mu, settings=meanfield.DEFAULT_SETTINGS):
    """Oracle for meanfield.classify_phase from the variational psi scan.

    MI when the minimizing psi is below settings.psi_zero_tol; a runaway
    minimization is SF with psi_star = inf.
    """
    filling = meanfield.filling_at_zero_psi(params, mu)
    try:
        res = meanfield.minimize_order_parameter(params, t, mu, settings)
    except MinimizationError:
        return meanfield.ScanPoint(
            t=t, mu=mu, psi_star=math.inf, e_star=math.nan,
            phase=meanfield.Phase.SF, filling=filling, n_max=-1, e_max=-1,
            runaway=True)
    mi = res.psi_star < settings.psi_zero_tol
    return meanfield.ScanPoint(
        t=t, mu=mu, psi_star=0.0 if mi else res.psi_star, e_star=res.e_star,
        phase=meanfield.Phase.MI if mi else meanfield.Phase.SF,
        filling=filling, n_max=res.n_max, e_max=res.e_max)


def psi_deviation(point, oracle):
    """|psi* - oracle psi*| of two ScanPoints; inf when their phase, filling
    or runaway flag differ, 0 for two MI or two runaway points."""
    if ((point.phase, point.filling, point.runaway)
            != (oracle.phase, oracle.filling, oracle.runaway)):
        return math.inf
    if point.runaway:
        return 0.0
    return abs(point.psi_star - oracle.psi_star)


def collective_block_root(ds, g2, counts):
    """Oracle for the closed-form root of disorder._collective_u_batch: the
    lowest eigenvalue of each two-excitation block [[2d, a, 0], [a, d, b],
    [0, b, 0]], a = sqrt(2N g_eff^2), b = sqrt((2N - 2) g_eff^2), by batched
    eigvalsh (sites with N >= 2 impurities)."""
    ge2 = g2 / counts
    blocks = np.zeros((ds.size, 3, 3))
    blocks[:, 0, 0] = 2.0 * ds
    blocks[:, 1, 1] = ds
    blocks[:, 0, 1] = blocks[:, 1, 0] = np.sqrt(2.0 * counts * ge2)
    blocks[:, 1, 2] = blocks[:, 2, 1] = np.sqrt((2.0 * counts - 2.0) * ge2)
    return np.linalg.eigvalsh(blocks)[:, 0]


def _check(name, value, expected, tol, scale=None):
    scale = scale if scale is not None else max(1.0, abs(expected))
    residual = abs(value - expected) / scale
    return CheckResult(name=name, value=float(value), expected=float(expected),
                       residual=float(residual), tol=tol, passed=residual <= tol)


def _gaussian_fixture(n=64, box=4.5, sigma=1.0, k_c=12.0, chi3=2.0e-19):
    ax = np.linspace(-box, box, n)
    dx = ax[1] - ax[0]
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = 3.0 * np.exp(-(x * x + y * y + z * z) / (2.0 * sigma * sigma))
    phi = ScalarField3D(vals, (dx, dx, dx), (-box, -box, -box))
    kc = ScalarField3D(np.full(phi.shape, k_c), phi.spacing, phi.origin)
    c3 = ScalarField3D(np.full(phi.shape, chi3), phi.spacing, phi.origin)
    return phi, kc, c3, sigma, k_c, chi3


def run_checks(inject_failure=False, kerr_grid=64):
    """Run every oracle check; returns a list of CheckResult."""
    checks = []

    # interaction energy against the resonant ladder closed form
    # g (2 sqrt(N) - sqrt(4N - 2))
    for n_imp in (1, 3, 8):
        p = SystemParams.dimensionless(n_imp)
        expected = 2.0 * math.sqrt(n_imp) - math.sqrt(4.0 * n_imp - 2.0)
        if inject_failure and n_imp == 8:
            expected *= 1.0 + 1e-3
        checks.append(_check(f"interaction_energy_n{n_imp}",
                             observables.interaction_energy(p), expected, 1e-9))

    p8 = SystemParams.dimensionless(8)
    checks.append(_check("two_excitation_energy_n8", manifold_energy(p8, 2),
                         -math.sqrt(30.0), 1e-12))

    # undriven dense spectrum decomposes into manifolds
    mu_rel = -2.71
    basis = build_basis(9, 8)
    h = build_site_hamiltonian(p8, basis, t=0.0, mu=p8.omega_ex + mu_rel, psi=0.0)
    dense_e, _ = lowest_eigenpair(h)
    manifold_e = min(manifold_energy(p8, n) - n * mu_rel for n in range(10))
    checks.append(_check("block_consistency", dense_e, manifold_e, 1e-9))

    # drive-parity of the ground energy (gauge a -> -a)
    h_plus = build_site_hamiltonian(p8, basis, t=0.01, mu=p8.omega_ex + mu_rel,
                                    psi=0.37)
    h_minus = build_site_hamiltonian(p8, basis, t=0.01, mu=p8.omega_ex + mu_rel,
                                     psi=-0.37)
    e_plus, _ = lowest_eigenpair(h_plus)
    e_minus, _ = lowest_eigenpair(h_minus)
    checks.append(_check("psi_parity", e_plus, e_minus, 1e-12, scale=abs(e_minus)))

    lo, hi = meanfield.mott_lobe_mu_range(p8, 1)
    checks.append(_check("lobe_lower_n8", lo, -math.sqrt(8.0), 1e-9))
    checks.append(_check("lobe_upper_n8", hi, math.sqrt(8.0) - math.sqrt(30.0), 1e-9))

    # analytic Bose-Hubbard tip: maximizing the oracle recovers the closed form
    def neg(mu):
        return -meanfield.bhm_boundary_oracle(1.0, 4, 1, mu)

    mu_tip, neg_t = meanfield._golden_min(neg, 1e-9, 1.0 - 1e-9, 1e-10)
    checks.append(_check("bhm_tip_tunneling", -neg_t,
                         (3.0 - 2.0 * math.sqrt(2.0)) / 4.0, 1e-6))
    checks.append(_check("bhm_tip_mu", mu_tip, math.sqrt(2.0) - 1.0, 1e-4))

    # variational vs perturbative phase boundary
    worst = 0.0
    for n_imp, det, frac in ((8, 0.0, 0.45), (3, 2.0, 0.3), (1, 0.0, 0.6)):
        p = SystemParams.dimensionless(n_imp, det)
        lo, hi = meanfield.mott_lobe_mu_range(p, 1)
        mu = lo + frac * (hi - lo)
        t_b = meanfield.boundary_tunneling(p, 1, mu)
        t_l = meanfield.landau_boundary_tunneling(p, 1, mu)
        worst = max(worst, abs(t_b - t_l) / t_l)
    checks.append(_check("boundary_vs_curvature", worst, 0.0, 1e-3, scale=1.0))

    # perturbative lobe tip against the variational boundary at its mu
    t_c, mu_tip = meanfield.critical_tunneling(p8, 1)
    t_b = meanfield.boundary_tunneling(p8, 1, mu_tip)
    checks.append(_check("tip_vs_variational", t_b, t_c, 1e-3, scale=t_c))

    # perturbative labels and gradient psi* against the variational scan on
    # a grid over the vacuum lobe, lobes 1-2 and the superfluid between them
    worst = max(psi_deviation(meanfield.classify_phase(p8, t, mu),
                              variational_phase(p8, t, mu))
                for t in (0.004, 0.012, 0.02)
                for mu in (-3.0, -2.85, -2.75, -2.6))
    checks.append(_check("labels_vs_variational", worst, 0.0, 1e-5, scale=1.0))

    # closed-form collective two-excitation root against batched eigvalsh,
    # uniform coupling g = 1
    counts = np.repeat([2, 3, 8, 50], 6)
    ds = np.tile([-20.0, -3.0, 0.0, 3.0, 12.0, 20.0], 4)
    g2 = counts.astype(float)
    e1, u = disorder._collective_u_batch(ds, g2, counts)
    worst = np.max(np.abs(u + 2.0 * e1 - collective_block_root(ds, g2, counts)))
    checks.append(_check("collective_root_vs_eigvalsh", worst, 0.0, 1e-12,
                         scale=1.0))

    checks.append(_check("doping_density_n8",
                         observables.doping_density(8, 817.0, 3.6), 6.8e14,
                         0.01, scale=6.8e14))

    phi, kc, c3, sigma, k_val, chi_val = _gaussian_fixture(n=kerr_grid)
    res = effective_bhm(kc, c3, phi, (2.0 * sigma, 0.0, 0.0))
    eps0 = VACUUM_PERMITTIVITY
    a2 = 1.0 / (2.0 * eps0 * k_val * math.pi ** 1.5 * sigma ** 3)
    t_exact = math.exp(-(2.0 * sigma) ** 2 / (4.0 * sigma ** 2))
    u_exact = -6.0 * eps0 * chi_val * a2 ** 2 * (math.pi / 2.0) ** 1.5 * sigma ** 3
    checks.append(_check("kerr_gaussian_t", res.t, t_exact, 1e-3,
                         scale=abs(t_exact)))
    checks.append(_check("kerr_gaussian_u", res.u, u_exact, 1e-3,
                         scale=abs(u_exact)))

    return checks


def format_report(checks):
    lines = []
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name:<{width}}  value={c.value:.12g}  "
                     f"expected={c.expected:.12g}  residual={c.residual:.3e}  "
                     f"tol={c.tol:g}")
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
