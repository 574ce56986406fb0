"""Oracles: every second route of the package, each kept only as the
reference of one engine, and the oracle suite (:func:`run_checks`, the
``validate`` command).  No engine module imports this one.

* The dense site Hamiltonian, solved by numpy's ``eigh``, checks the
  banded site engine of :mod:`polarlat.meanfield`.
* The variational psi scan, its labels and its onset check the labels,
  psi*, boundary and tip; they share only the cutoff loop and the band
  with the production route.
* Per-sample and batched dense solves check the site-energy kernels of
  :mod:`polarlat.disorder`, and a materialized shift the overlap sums of
  :mod:`polarlat.kerr`.

The variational oracles read the engine's ``ScanSettings`` and tolerances
and three constants of their own: :data:`PSI_ZERO_TOL`,
:data:`COARSE_POINTS` and :data:`BOUNDARY_REL_TOL`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import disorder, meanfield, observables
from .errors import (DimensionBudgetError, InputError, LobeError,
                     MinimizationError, NumericalError)
from .fields import ScalarField3D, trapezoid3
from .kerr import VACUUM_PERMITTIVITY, effective_bhm, hopping_integral
from .meanfield import (CUTOFF_REL_TOL, DEFAULT_SETTINGS, MAX_PSI_EXPANSIONS,
                        PSI_TOL, MinimizeResult, Phase, _BandedSite,
                        _check_dim, _converge_cutoffs, _golden_min, _grow,
                        _initial_cutoffs, filling_at_zero_psi, zero_psi_energy)
from .model import DIMENSION_BUDGET, SystemParams, manifold_energy

PSI_ZERO_TOL = 1e-4      # order parameter up to this is "zero" (MI)
COARSE_POINTS = 64       # coarse psi-grid size before golden-section refinement
BOUNDARY_REL_TOL = 1e-4  # relative bisection tolerance on the boundary t


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    expected: float
    residual: float  # relative residual compared against tol
    tol: float
    passed: bool


@dataclass(frozen=True)
class FockDickeBasis:
    """Truncated product basis, ordered lexicographically in (n_ph, e).

    State ``i`` is ``states[i] = (n_ph, e)`` with n_ph = 0..n_max (photon
    cutoff) and e = 0..big_n (excited impurities); the linear index is
    ``n_ph * (big_n + 1) + e`` (the banded engine orders them
    excitation-major).
    """

    n_max: int
    big_n: int
    states: tuple = field(repr=False)

    @property
    def size(self):
        return (self.n_max + 1) * (self.big_n + 1)

    def index(self, n_ph, e):
        return n_ph * (self.big_n + 1) + e


def build_basis(n_max, big_n, max_dim=DIMENSION_BUDGET):
    """Enumerate the (n_max + 1)(big_n + 1) product states.

    Raises DimensionBudgetError when the basis would exceed ``max_dim``.
    """
    if n_max < 0:
        raise InputError(f"n_max must be >= 0, got {n_max}")
    if big_n < 1:
        raise InputError(f"big_n must be >= 1, got {big_n}")
    size = (n_max + 1) * (big_n + 1)
    if size > max_dim:
        raise DimensionBudgetError(
            f"basis dimension {size} exceeds budget {max_dim} "
            f"(n_max={n_max}, big_n={big_n})")
    states = tuple((n_ph, e) for n_ph in range(n_max + 1) for e in range(big_n + 1))
    return FockDickeBasis(n_max=n_max, big_n=big_n, states=states)


def collective_amplitude(big_n, e):
    """Raising amplitude <e+1|L_+|e> on the symmetric ladder, sqrt((N-e)(e+1))."""
    return math.sqrt((big_n - e) * (e + 1.0))


def build_site_hamiltonian(params, basis, t, mu, psi):
    """Dense symmetric single-site matrix at fixed order parameter psi.

    The dense oracle of the banded engine (``meanfield._BandedSite``): built
    entry by entry in another basis order, so agreement checks the band.
    Diagonal: n_ph*omega_ph + e*omega_ex - mu*(n_ph + e) + z*t*psi^2.
    Photon-impurity exchange couples (n_ph + 1, e - 1) <-> (n_ph, e) with
    amplitude g*sqrt(n_ph + 1)*sqrt((N - e + 1) e); the order-parameter
    drive couples (n_ph, e) <-> (n_ph + 1, e) with -z*t*psi*sqrt(n_ph + 1).
    Both off-diagonal families are written into both triangle slots, so the
    returned array is exactly symmetric.
    """
    if basis.big_n != params.big_n:
        raise InputError(
            f"basis built for big_n={basis.big_n}, params have big_n={params.big_n}")
    if t < 0:
        raise InputError(f"t must be >= 0, got {t}")
    if not math.isfinite(psi):
        raise InputError(f"psi must be finite, got {psi}")

    big_n = params.big_n
    n_max = basis.n_max
    delta = params.detuning
    mu_rel = mu - params.omega_ex
    zt = params.z * t

    dim = basis.size
    h = np.zeros((dim, dim))
    n_ph = np.arange(dim) // (big_n + 1)
    e = np.arange(dim) % (big_n + 1)
    # n_ph*omega_ph + e*omega_ex - mu*(n_ph + e), grouped around the detuning
    # so that optical-scale frequencies never meet coupling-scale terms
    h[np.arange(dim), np.arange(dim)] = (
        n_ph * delta - mu_rel * (n_ph + e) + zt * psi * psi)

    for i, (n, ex) in enumerate(basis.states):
        if n + 1 <= n_max and ex >= 1:
            j = basis.index(n + 1, ex - 1)
            h[i, j] = h[j, i] = (params.g * math.sqrt(n + 1.0)
                                 * collective_amplitude(big_n, ex - 1))
        if n + 1 <= n_max:
            j = basis.index(n + 1, ex)
            h[i, j] = h[j, i] = -zt * psi * math.sqrt(n + 1.0)
    return h


def lowest_eigenpair(matrix):
    """Smallest eigenvalue and its unit eigenvector of a dense symmetric matrix.

    The dense oracle's eigensolver, numpy's ``eigh``.  The eigenvector sign
    is fixed so that its largest-magnitude component is positive (first
    such component on exact ties), making results deterministic across
    LAPACK builds.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix contains non-finite entries")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(
            f"dense eigensolver failed on a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc
    vec = v[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    return float(w[0]), vec


def ground_energy_at_psi(params, t, mu, psi, settings=DEFAULT_SETTINGS):
    """Lowest site eigenvalue at fixed order parameter, converged in cutoffs.

    t, mu and the result are in units of g; mu is relative to omega_ex.
    """
    if t < 0:
        raise InputError(f"t must be >= 0, got {t}")
    if not math.isfinite(psi):
        raise InputError(f"psi must be finite, got {psi}")
    if t == 0.0 or psi == 0.0:
        # no drive and no penalty: exact manifold decomposition applies
        return zero_psi_energy(params, mu)
    delta = params.detuning / params.g
    zt = params.z * t
    n_max, e_top = _initial_cutoffs(params, filling_at_zero_psi(params, mu))
    prev = None
    while True:
        _check_dim(n_max, e_top, settings)
        val = _BandedSite(params.big_n, n_max, e_top, delta, mu, zt).energy(psi)
        if prev is not None and abs(val - prev) <= CUTOFF_REL_TOL * max(
                1.0, abs(val)):
            return val
        prev = val
        n_max, e_top = _grow(params, n_max, e_top)


def _psi_grid(psi_max):
    # geometric spacing resolves the shallow minima just above the phase
    # boundary without wasting points deep in the superfluid region
    return np.concatenate(
        [[0.0], np.geomspace(1e-5 * psi_max, psi_max, COARSE_POINTS - 1)])


def _minimize_fixed(solver, guess):
    """Coarse-grid scan plus golden-section refinement at fixed cutoffs.

    Ignores ``guess``; returns (psi_star, e_star) and raises
    MinimizationError when the minimum stays on the growing bracket edge.
    """
    psi_max = math.sqrt(solver.n_max) / 2.0
    for _ in range(MAX_PSI_EXPANSIONS + 1):
        grid = _psi_grid(psi_max)
        vals = np.array([solver.energy(p) for p in grid])
        i = int(np.argmin(vals))
        if i == len(grid) - 1:
            psi_max *= 2.0
            continue
        a = grid[i - 1] if i > 0 else 0.0
        b = grid[i + 1]
        psi, e = _golden_min(solver.energy, a, b, PSI_TOL)
        if vals[i] < e:
            psi, e = float(grid[i]), float(vals[i])
        return float(psi), float(e)
    raise MinimizationError(
        f"order-parameter minimum still on the bracket edge after "
        f"{MAX_PSI_EXPANSIONS} expansions (psi_max={psi_max:g}); "
        "the mean-field energy is unbounded in this regime")


def minimize_order_parameter(params, t, mu, settings=DEFAULT_SETTINGS):
    """Minimize the ground energy over psi >= 0 at fixed (t, mu).

    The variational oracle: a coarse psi grid plus golden-section search at
    fixed cutoffs, repeated with both cutoffs raised by 2 until the minimal
    energy is stable; the returned result carries the final cutoffs.
    """
    if t < 0:
        raise InputError(f"t must be >= 0, got {t}")
    n_max, e_top = _initial_cutoffs(params, filling_at_zero_psi(params, mu))
    if t == 0.0:
        return MinimizeResult(psi_star=0.0, e_star=zero_psi_energy(params, mu),
                              n_max=n_max, e_max=e_top)
    return _converge_cutoffs(params, t, mu, n_max, e_top, _minimize_fixed,
                             settings)


def variational_phase(params, t, mu, settings=DEFAULT_SETTINGS):
    """Oracle for meanfield.classify_phase from the variational psi scan.

    SF when the minimizing psi exceeds PSI_ZERO_TOL, else MI; a
    runaway minimization is SF with psi_star = inf.
    """
    filling = filling_at_zero_psi(params, mu)
    try:
        res = minimize_order_parameter(params, t, mu, settings)
    except MinimizationError:
        res = meanfield._RUNAWAY
    sf = res.psi_star > PSI_ZERO_TOL
    return meanfield.ScanPoint(
        t=t, mu=mu, psi_star=res.psi_star if sf else 0.0, e_star=res.e_star,
        phase=Phase.SF if sf else Phase.MI, filling=filling, n_max=res.n_max,
        e_max=res.e_max, runaway=res is meanfield._RUNAWAY)


def psi_deviation(point, oracle):
    """|psi* - oracle psi*| of two ScanPoints; inf when their phase, filling
    or runaway flag differ, 0 for two MI or two runaway points."""
    if ((point.phase, point.filling, point.runaway)
            != (oracle.phase, oracle.filling, oracle.runaway)):
        return math.inf
    if point.runaway:
        return 0.0
    return abs(point.psi_star - oracle.psi_star)


def boundary_tunneling(params, n, mu, settings=DEFAULT_SETTINGS):
    """Smallest t with a nonzero minimizing order parameter at this mu.

    Bisection on the psi-onset of :func:`variational_phase`; mu must lie
    strictly inside lobe n.  Relative tolerance BOUNDARY_REL_TOL on t.
    """
    lo_mu, hi_mu = meanfield.lobe_containing(params, n, mu)

    def is_sf(t):
        return variational_phase(params, t, mu, settings).phase is Phase.SF

    # bracketing pre-check: the drive vanishes at t = 0, so psi* must be 0
    if is_sf(0.0):
        raise NumericalError(
            f"nonzero order parameter already at t=0 for mu={mu:g}")
    t_lo = 0.0
    t_hi = (hi_mu - lo_mu) / 8.0
    for _ in range(60):
        if is_sf(t_hi):
            break
        t_lo = t_hi
        t_hi *= 2.0
    else:
        raise NumericalError(
            f"no superfluid onset found below t={t_hi:g} at mu={mu:g}")
    while (t_hi - t_lo) > BOUNDARY_REL_TOL * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if is_sf(mid):
            t_hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + t_hi)


def bhm_boundary_oracle(u, z, n, mu):
    """Analytic mean-field Bose-Hubbard lobe boundary (validation oracle).

    z*t(mu) = (u n - mu)(mu - u (n-1)) / ((n+1)(mu - u(n-1)) + n(u n - mu)),
    valid for u(n-1) < mu < u n.  Returns t.
    """
    if u <= 0:
        raise InputError(f"u must be positive, got {u}")
    if n < 1:
        raise InputError(f"lobe index must be >= 1, got {n}")
    lo, hi = u * (n - 1.0), u * n
    if not (lo < mu < hi):
        raise LobeError(f"mu={mu:g} outside the BHM lobe base ({lo:g}, {hi:g})")
    a = hi - mu
    b = mu - lo
    return a * b / (((n + 1.0) * b + n * a) * z)


def site_energies_exact(ds, g_list):
    """Exact lowest energies of the one- and two-excitation subspaces.

    ds is the site detuning and g_list holds one coupling per impurity;
    energies are relative to (number of excitations) * omega_ex.  U_site =
    E2 - 2 E1 (nan for an empty site).  Subspace dimensions are 1 + N and
    1 + N + N(N-1)/2.  Dense and built entry by entry: the per-sample oracle
    of :func:`_exact_u_batch`.
    """
    g = np.asarray(g_list, dtype=float)
    n = g.size
    if n == 0:
        return ds, 2.0 * ds, math.nan

    h1 = np.zeros((1 + n, 1 + n))
    h1[0, 0] = ds
    h1[0, 1:] = h1[1:, 0] = g
    e1 = float(np.linalg.eigvalsh(h1)[0])

    dim = disorder._two_excitation_dim(n)
    h2 = np.zeros((dim, dim))
    h2[0, 0] = 2.0 * ds
    root2 = math.sqrt(2.0)
    for k in range(n):
        h2[1 + k, 1 + k] = ds
        h2[0, 1 + k] = h2[1 + k, 0] = root2 * g[k]
    for p, (k, l) in enumerate(itertools.combinations(range(n), 2)):
        col = 1 + n + p
        h2[1 + k, col] = h2[col, 1 + k] = g[l]
        h2[1 + l, col] = h2[col, 1 + l] = g[k]
    e2 = float(np.linalg.eigvalsh(h2)[0])
    return e1, e2, e2 - 2.0 * e1


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


def shifted_values(field3d, displacement):
    """Samples of the field at (grid point - displacement).

    Constant displacement on a regular grid reduces trilinear interpolation
    to one linear blend per axis with a fixed fractional offset; points
    outside the bounding box contribute zero.
    """
    out = field3d.values
    for dim in range(3):
        t = float(displacement[dim]) / field3d.spacing[dim]
        out = _shift_axis(out, t, dim)
    return out


def _shift_axis(values, t, axis):
    """Linear interpolation of ``values`` at (index - t) along one axis."""
    n = values.shape[axis]
    base = np.floor(-t)
    frac = (-t) - base
    k0 = int(base)
    lo = _integer_shift(values, k0, axis, n)
    if frac == 0.0:
        return lo
    hi = _integer_shift(values, k0 + 1, axis, n)
    return (1.0 - frac) * lo + frac * hi


def _integer_shift(values, k, axis, n):
    """``values`` at (index + k) along one axis, zero past its ends."""
    if k == 0:
        return values
    out = np.zeros_like(values)
    lo, hi = max(0, -k), min(n, n - k)
    if lo < hi:
        dst, src = [slice(None)] * 3, [slice(None)] * 3
        dst[axis], src[axis] = slice(lo, hi), slice(lo + k, hi + k)
        out[tuple(dst)] = values[tuple(src)]
    return out


def hopping_by_shifted_copy(k_c, phi, displacement):
    """Oracle for kerr.hopping_integral: the trapezoid rule over the whole
    grid, applied to K_C phi times the materialized shifted copy of phi."""
    shifted = shifted_values(phi, displacement)
    return 2.0 * VACUUM_PERMITTIVITY * trapezoid3(
        k_c.values * phi.values * shifted, phi.spacing)


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


def run_checks():
    """Run every oracle check; returns a list of CheckResult."""
    checks = []

    # interaction energy against the resonant ladder closed form
    # g (2 sqrt(N) - sqrt(4N - 2))
    for n_imp in (1, 3, 8):
        p = SystemParams.dimensionless(n_imp)
        expected = 2.0 * math.sqrt(n_imp) - math.sqrt(4.0 * n_imp - 2.0)
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
    e_plus, e_minus = (lowest_eigenpair(build_site_hamiltonian(
        p8, basis, t=0.01, mu=p8.omega_ex + mu_rel, psi=psi))[0]
        for psi in (0.37, -0.37))
    checks.append(_check("psi_parity", e_plus, e_minus, 1e-12, scale=abs(e_minus)))

    lo, hi = meanfield.mott_lobe_mu_range(p8, 1)
    checks.append(_check("lobe_lower_n8", lo, -math.sqrt(8.0), 1e-9))
    checks.append(_check("lobe_upper_n8", hi, math.sqrt(8.0) - math.sqrt(30.0), 1e-9))

    # analytic Bose-Hubbard tip: maximizing the oracle recovers the closed form
    def neg(mu):
        return -bhm_boundary_oracle(1.0, 4, 1, mu)

    mu_tip, neg_t = _golden_min(neg, 1e-9, 1.0 - 1e-9, 1e-10)
    checks.append(_check("bhm_tip_tunneling", -neg_t,
                         (3.0 - 2.0 * math.sqrt(2.0)) / 4.0, 1e-6))
    checks.append(_check("bhm_tip_mu", mu_tip, math.sqrt(2.0) - 1.0, 1e-4))

    # variational vs perturbative phase boundary
    worst = 0.0
    for n_imp, det, frac in ((8, 0.0, 0.45), (3, 2.0, 0.3), (1, 0.0, 0.6)):
        p = SystemParams.dimensionless(n_imp, det)
        lo, hi = meanfield.mott_lobe_mu_range(p, 1)
        mu = lo + frac * (hi - lo)
        t_b = boundary_tunneling(p, 1, mu)
        t_l = meanfield.landau_boundary_tunneling(p, 1, mu)
        worst = max(worst, abs(t_b - t_l) / t_l)
    checks.append(_check("boundary_vs_curvature", worst, 0.0, 1e-3, scale=1.0))

    # perturbative lobe tip against the variational boundary at its mu
    t_c, mu_tip = meanfield.critical_tunneling(p8, 1)
    t_b = boundary_tunneling(p8, 1, mu_tip)
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

    phi, kc, c3, sigma, k_val, chi_val = _gaussian_fixture()
    res = effective_bhm(kc, c3, phi, (2.0 * sigma, 0.0, 0.0))
    eps0 = VACUUM_PERMITTIVITY
    a2 = 1.0 / (2.0 * eps0 * k_val * math.pi ** 1.5 * sigma ** 3)
    t_exact = math.exp(-(2.0 * sigma) ** 2 / (4.0 * sigma ** 2))
    u_exact = -6.0 * eps0 * chi_val * a2 ** 2 * (math.pi / 2.0) ** 1.5 * sigma ** 3
    checks.append(_check("kerr_gaussian_t", res.t, t_exact, 1e-3,
                         scale=abs(t_exact)))
    checks.append(_check("kerr_gaussian_u", res.u, u_exact, 1e-3,
                         scale=abs(u_exact)))

    # overlap sums against the shifted copy on an asymmetric random field,
    # fractional on every axis, one component negative
    rng = np.random.default_rng(20)
    phi = ScalarField3D(rng.uniform(0.5, 1.5, (11, 9, 7)), (0.3, 0.5, 0.7),
                        (-1.0, 0.4, 2.0))
    kc = ScalarField3D(rng.uniform(1.0, 4.0, phi.shape), phi.spacing,
                       phi.origin)
    d = (0.77, -1.31, 2.2)
    expected = hopping_by_shifted_copy(kc, phi, d)
    checks.append(_check("kerr_hopping_vs_shifted_copy",
                         hopping_integral(kc, phi, d), expected, 1e-12,
                         scale=abs(expected)))

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
