"""Mean-field phase analysis: phase labels, order parameters, Mott lobes,
phase boundaries and the critical tunneling energy.

Unit convention for this module: tunneling energies ``t`` and chemical
potentials ``mu`` are dimensionless, in units of ``params.g``, and ``mu`` is
measured relative to ``omega_ex``.  Internally everything is scaled to
g = 1, which keeps the eigenproblems well conditioned for any physical
parameter set and makes results reusable across impurity numbers.

The ground-state energy at fixed order parameter is computed in a truncated
basis with a photon cutoff ``n_max`` and an excited-impurity cutoff
``e_max`` (the latter only bites when big_n is large).  Both cutoffs are
raised by 2 until the energy of the reported result moves by less than
``cutoff_rel_tol``; every public order parameter has passed that check.

Labels are perturbative and the order parameter is a gradient root:

* Second order in the drive gives E(psi) = E_G + z t psi^2 [1 + z t chi(mu)]
  + O(psi^4), with chi the cutoff-free susceptibility of the undriven
  filling (see ``_susceptibility``).  ``classify_phase`` labels a cell Mott
  insulator when t = 0 or 1 + z t chi > 0, without solving the driven
  site; ``landau_boundary_tunneling`` is the boundary t = -1 / (z chi) and
  ``critical_tunneling`` maximizes it over mu for the lobe tip.
* In a superfluid cell psi* is the root of the Hellmann-Feynman gradient
  dE/dpsi = z t psi h(psi), h(psi) = 2 - <a + a^dag>_psi / psi, found by
  Brent's method from the lowest eigenvector, after the first cutoff round
  in a checked psi_tol-wide bracket around the previous round's psi*.
  Each SF cell makes one ``dsbevx`` call, then certified inverse iteration
  (see ``_BandedSite``), from scipy's ``_flapack`` extension alone.
* An MI cell reports psi = 0, the undriven energy, and as ``n_max``/``e_max``
  the initial cutoffs (filling + ``cutoff_margin``) its dimension budget was
  checked at.  ``phase_diagram`` labels every cell in the calling process and
  solves the SF cells on forked workers, the calling process taking a share
  (see :mod:`polarlat._fork`).

Their variational oracles (psi scan, bisected boundary) are in
:mod:`polarlat.validate`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from ._fork import fork_map
from .errors import (DimensionBudgetError, EigensolverError, GridError,
                     LobeError, MinimizationError, NumericalError)
from .model import DIMENSION_BUDGET, SystemParams, manifold_block, manifold_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: Hard cap on the manifold index scanned when locating the filling.
_MAX_FILLING_SCAN = 512


@dataclass(frozen=True)
class ScanSettings:
    """Numerical knobs of the mean-field scan, with spec-level defaults."""

    psi_zero_tol: float = 1e-4        # order parameter up to this is "zero" (MI)
    coarse_points: int = 64           # coarse psi-grid size before refinement
    psi_tol: float = 1e-6             # golden-section bracket width on psi
    max_psi_expansions: int = 8       # doublings of psi_max before "runaway"
    cutoff_margin: int = 6            # initial cutoffs = filling + margin
    cutoff_rel_tol: float = 1e-8      # ground-energy stability under cutoff + 2
    max_dim: int = DIMENSION_BUDGET
    boundary_rel_tol: float = 1e-4    # relative bisection tolerance on t


DEFAULT_SETTINGS = ScanSettings()


class Phase(str, Enum):
    MI = "MI"
    SF = "SF"


@dataclass(frozen=True)
class ScanPoint:
    """Result of one (t, mu) cell: minimizing order parameter and phase."""

    t: float
    mu: float
    psi_star: float
    e_star: float
    phase: Phase
    filling: int
    n_max: int
    e_max: int
    runaway: bool = False


@dataclass(frozen=True)
class MinimizeResult:
    psi_star: float
    e_star: float
    n_max: int
    e_max: int
    expansions: int


@dataclass(frozen=True)
class PhaseGrid:
    """Dense (t, mu) scan with per-cell convergence metadata."""

    t_axis: np.ndarray
    mu_axis: np.ndarray
    points: tuple  # tuple of tuples of ScanPoint, indexed [i_t][i_mu]
    params: SystemParams

    def _matrix(self, attr, dtype=float):
        return np.array([[getattr(p, attr) for p in row] for row in self.points],
                        dtype=dtype)

    @property
    def psi(self):
        return self._matrix("psi_star")

    @property
    def energy(self):
        return self._matrix("e_star")

    @property
    def filling(self):
        return self._matrix("filling", dtype=int)

    @property
    def is_mott(self):
        return np.array([[p.phase is Phase.MI for p in row] for row in self.points])

    @property
    def n_max_final(self):
        return self._matrix("n_max", dtype=int)


def _golden_min(f, a, b, tol):
    """Golden-section search for the minimum of f on [a, b].

    Returns the best evaluated interior point and its value once the
    bracket is narrower than tol.
    """
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def _eps(params, n):
    """Manifold ground energy in units of g."""
    return manifold_energy(params, n) / params.g


@lru_cache(maxsize=None)
def _flapack():
    """scipy's f2py LAPACK module, the one ``scipy.linalg.lapack`` re-exports,
    loaded from its file as ``scipy.linalg._flapack`` without running
    ``scipy/__init__`` or ``scipy/linalg/__init__``.  A module already in
    ``sys.modules`` under that name is reused, and a later
    ``import scipy.linalg`` reuses this one."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds; does not import
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed")
    path = os.path.join(os.path.dirname(scipy.origin), "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension is missing: {path}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


#: Inverse iteration of _BandedSite: residual and shift floor relative to
#: max(1, |theta|), 8x wider shifts after a failed Cholesky, solves per call.
_RESIDUAL_TOL = 1e-10
_SHIFT_FLOOR = 1e-8
_SHIFT_RETRIES = 3
_MAX_STEPS = 8


class _BandedSite:
    """Lowest-eigenvalue engine for the driven site at fixed cutoffs.

    States are ordered excitation-major, index = e*(n_max+1) + n_ph, which
    makes the matrix banded with bandwidth n_max: the photon drive sits on
    the first superdiagonal and the impurity-photon exchange on the
    (n_max)-th.  All energies in units of g.  Solves call LAPACK ``dsbevx``,
    ``dpbtrf`` and ``dpbtrs`` from :func:`_flapack`, loaded on the first
    solve, so tips and MI labels never load it and no solve loads the
    ``scipy.linalg`` package.

    ``_lowest`` makes the ``dsbevx`` call, with the checks, of
    ``eig_banded`` (with vectors) or ``eigvals_banded`` (without) at
    ``select="i", select_range=(0, 0)``, and returns their bits.  ``energy``
    (for the oracles in :mod:`polarlat.validate`) solves by it without
    vectors; ``energy_and_slope`` with them until it knows a ground vector,
    then by shifted inverse iteration from the last one (Parlett 1980, ch. 4;
    ``warm``: the previous cutoff round's site, its vector padded with
    zeros), with banded Cholesky solves (``dpbtrf``/``dpbtrs``).  A
    Cholesky of H - sigma I succeeds only if sigma is below every eigenvalue
    (Sylvester's law of inertia), so a pair is accepted only when one more
    succeeds just below its Rayleigh quotient: an excited pair cannot pass.
    Any failure falls back to ``_lowest``.
    """

    def __init__(self, big_n, n_max, e_top, delta, mu, zt, warm=None):
        m = n_max + 1
        rows = e_top + 1
        dim = m * rows
        n_ph = np.tile(np.arange(m), rows)
        e = np.repeat(np.arange(rows), m)
        u = m - 1 if m > 1 else 0
        base = np.zeros((u + 1, dim))
        base[u] = n_ph * delta - mu * (n_ph + e)
        if m > 1:
            # exchange element between (n_ph + 1, e - 1) and (n_ph, e),
            # stored at the column of the larger index
            cols = e * m + n_ph
            mask = (e >= 1) & (n_ph <= m - 2)
            base[0, cols[mask]] = np.sqrt(
                (n_ph[mask] + 1.0) * (big_n - e[mask] + 1.0) * e[mask])
        # unit-psi drive amplitude <j-1|a|j> at column j is sqrt(j mod m);
        # zero at block boundaries where j mod m == 0
        self._drive = np.sqrt((np.arange(dim) % m).astype(float))
        self._base = base
        self._u = u
        self._m = m
        self.zt = zt
        self.n_max = n_max
        self.e_top = e_top
        self.dim = dim
        self._vec = None  # last ground vector of energy_and_slope
        if warm is not None and warm._vec is not None:
            vec = np.zeros((rows, m))
            vec[:warm.e_top + 1, :warm.n_max + 1] = warm._vec.reshape(
                warm.e_top + 1, warm.n_max + 1)
            self._vec = vec.ravel()

    def _band(self, psi):
        if self._m == 1 or psi == 0.0 or self.zt == 0.0:
            return self._base
        band = self._base.copy()
        band[self._u - 1] += (-self.zt * psi) * self._drive
        return band

    def _lowest(self, psi, vectors):
        """(w, v) of ``eig_banded``, or w of ``eigvals_banded`` without
        ``vectors``, for the lowest eigenpair: the same ``dsbevx`` call."""
        band = self._band(psi)
        if not np.isfinite(band).all():
            raise ValueError("array must not contain infs or NaNs")
        w, v, m, _ifail, info = _flapack().dsbevx(
            np.array(band, order="F"), 0.0, 1.0, 1, 1, compute_v=int(vectors),
            mmax=1, range=2, lower=0, overwrite_ab=1,
            abstol=2.0 * np.finfo(float).tiny)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal "
                             "sbevx")
        if info > 0:  # pragma: no cover
            raise EigensolverError(
                f"banded eigensolver failed at dim={self.dim}: sbevx did not "
                f"converge (LAPACK info={info})")
        return (w[:m], v[:, :m]) if vectors else w[:m]

    def _inverse_iteration(self, psi):
        """(theta, x): the certified lowest pair from the last ground vector,
        or None when a Cholesky fails or _MAX_STEPS solves do not converge."""
        lapack = _flapack()
        band = self._band(psi)
        u = self._u
        diag = band[u]
        # only the drive (k = 1) and exchange (k = u) diagonals are nonzero
        off = [(k, band[u - k, k:]) for k in sorted({1, u})] if u else []

        def rayleigh(x):
            hx = diag * x
            for k, c in off:
                hx[:-k] += c * x[k:]
                hx[k:] += c * x[:-k]
            theta = float(x @ hx)
            hx -= theta * x
            return theta, math.sqrt(float(hx @ hx))

        def factor(theta, s):  # Cholesky of H - (theta - s) I, or None
            shifted = band.copy()
            shifted[u] -= theta - s
            c, info = lapack.dpbtrf(shifted)
            return None if info else c

        x = self._vec / math.sqrt(float(self._vec @ self._vec))
        theta, r = rayleigh(x)
        for step in range(_MAX_STEPS + 1):
            scale = max(1.0, abs(theta))
            s = max(2.0 * r, _SHIFT_FLOOR * scale)
            if r <= _RESIDUAL_TOL * scale:
                return (theta, x) if factor(theta, s) is not None else None
            if step == _MAX_STEPS:
                return None
            for _ in range(_SHIFT_RETRIES + 1):
                c = factor(theta, s)
                if c is not None:
                    break
                s *= 8.0
            else:
                return None
            x = lapack.dpbtrs(c, x)[0]
            x /= math.sqrt(float(x @ x))
            theta, r = rayleigh(x)

    def energy(self, psi):
        return float(self._lowest(psi, False)[0]) + self.zt * psi * psi

    def energy_and_slope(self, psi):
        """Energy and h(psi) = 2 - <a + a^dag> / psi at psi > 0.

        By Hellmann-Feynman dE/dpsi = z t psi h(psi), with the expectation
        taken in the lowest eigenvector.
        """
        pair = None if self._vec is None else self._inverse_iteration(psi)
        if pair is None:
            w, v = self._lowest(psi, True)
            pair = float(w[0]), v[:, 0]
        theta, vec = pair
        self._vec = vec
        drive = 2.0 * float(np.dot(vec[:-1] * vec[1:], self._drive[1:]))
        return theta + self.zt * psi * psi, 2.0 - drive / psi


def filling_at_zero_psi(params, mu):
    """Manifold index minimizing eps(n) - n*mu (ties resolved downward).

    This equals the expected total excitation number of the undriven ground
    state, which is sharp because excitation number is conserved at psi = 0.
    """
    best_n = 0
    best = 0.0  # eps(0) = 0
    rising = 0
    for n in range(1, _MAX_FILLING_SCAN + 1):
        val = _eps(params, n) - n * mu
        if val < best:
            best, best_n = val, n
            rising = 0
        else:
            rising += 1
            if rising >= 4:
                return best_n
    raise NumericalError(
        f"no finite filling found for mu={mu}: the grand energy keeps "
        f"decreasing up to manifold {_MAX_FILLING_SCAN} (mu above the lobe "
        "accumulation point)")


def zero_psi_energy(params, mu):
    """Ground energy at psi = 0 in units of g: min_n [eps(n) - n*mu]."""
    n = filling_at_zero_psi(params, mu)
    return _eps(params, n) - n * mu


def _initial_cutoffs(params, fill, settings):
    n0 = fill + settings.cutoff_margin
    return n0, min(params.big_n, n0)


def _check_dim(n_max, e_top, settings):
    dim = (n_max + 1) * (e_top + 1)
    if dim > settings.max_dim:
        raise DimensionBudgetError(
            f"cutoffs n_max={n_max}, e_max={e_top} need dimension {dim} "
            f"> budget {settings.max_dim}")


def _grow(params, n_max, e_top):
    return n_max + 2, min(params.big_n, e_top + 2)


def _gradient_root(solver, settings, guess, h0):
    """psi* at fixed cutoffs as a root of h, see _BandedSite.

    h(0) = h0 = 2 (1 + z t chi) < 0 in a superfluid cell, -inf on a lobe
    edge.  The upper bracket end, sqrt(n_max)/2 (guess + psi_tol/2 for a
    guess), is doubled until h > 0, and a guess also tries guess - psi_tol/2
    as the lower end.  Brent's method (1973) closes the
    bracket to psi_tol, so an exact guess costs two solves.  Returns
    (psi_star, e_star, expansions); MinimizationError if h stays <= 0.
    """
    tol = settings.psi_tol
    energy = {}

    def h(psi):
        energy[psi], slope = solver.energy_and_slope(psi)
        return slope

    pre, f_pre = 0.0, h0  # Brent's previous iterate; cur is the current one
    cur = math.sqrt(solver.n_max) / 2.0 if guess is None else guess + 0.5 * tol
    for expansion in range(settings.max_psi_expansions + 1):
        f_cur = h(cur)
        if f_cur > 0.0:
            break
        if expansion == settings.max_psi_expansions:
            raise MinimizationError(
                f"energy still decreasing at psi={cur:g} after "
                f"{expansion} bracket expansions; the mean-field energy is "
                "unbounded in this regime", psi_max=cur, expansions=expansion)
        pre, f_pre = cur, f_cur
        cur *= 2.0
    if guess is not None and expansion == 0 and cur > tol:
        f_lo = h(cur - tol)
        if f_lo <= 0.0:  # the psi_tol-wide bracket holds the root
            pre, f_pre = cur - tol, f_lo
        else:  # the root moved below it: bracket [0, cur - tol]
            cur, f_cur = cur - tol, f_lo
    while True:
        if f_pre * f_cur <= 0.0:
            blk, f_blk = pre, f_pre  # the other end of the bracket
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * tol + 2.0 * math.ulp(cur)
        s_bis = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(s_bis) <= delta:
            psi = cur if cur in energy else blk  # psi = 0 had no solve
            return psi, energy[psi], expansion
        # interpolate while the steps shrink fast, else (and at h = -inf) bisect
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre) < math.inf:
            if pre == blk:  # secant
                s_try = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = h(cur)


def _converge_cutoffs(params, t, mu, n_max, e_top, solve_fixed, settings):
    """Run solve_fixed(solver, settings, last round's psi* or None) with both
    cutoffs raised by 2 until its energy is stable, at the final cutoffs."""
    delta = params.detuning / params.g
    zt = params.z * t
    prev = psi = solver = None
    expansions = 0
    rounds = 0
    while True:
        _check_dim(n_max, e_top, settings)
        solver = _BandedSite(params.big_n, n_max, e_top, delta, mu, zt, solver)
        psi, e_star, exp = solve_fixed(solver, settings, psi)
        expansions = max(expansions, exp)
        if prev is not None and abs(e_star - prev) <= settings.cutoff_rel_tol * max(
                1.0, abs(e_star)):
            return MinimizeResult(psi_star=psi, e_star=e_star, n_max=n_max,
                                  e_max=e_top, expansions=expansions)
        # unbounded regime: the minimizing displacement keeps consuming the
        # photon cutoff as the basis grows; a bounded superfluid point pins
        # psi* and converges once n_max clears psi*^2
        if rounds >= 6 and psi * psi > 0.5 * n_max:
            raise MinimizationError(
                f"ground energy decreases without bound: psi*={psi:.3g} tracks "
                f"the photon cutoff n_max={n_max} (zt={zt:g}, mu={mu:g})",
                psi_max=psi, expansions=expansions)
        if rounds >= 40:
            raise NumericalError(
                f"ground energy not converged after {rounds} cutoff increases "
                f"at (t={t:g}, mu={mu:g})")
        prev = e_star
        rounds += 1
        n_max, e_top = _grow(params, n_max, e_top)


def _label(params, t, mu, settings):
    """(point, h0) of a cell, no eigensolve: MI (final) if t == 0 or h0 =
    2 (1 + z t chi(mu)) > 0 at the undriven filling, else SF for _solve."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    filling = filling_at_zero_psi(params, mu)
    n_max, e_top = _initial_cutoffs(params, filling, settings)
    gain = 1.0  # psi^2 coefficient over z t; no drive at t = 0
    if t > 0.0:
        _check_dim(n_max, e_top, settings)
        gain += params.z * t * _susceptibility(params, filling)(mu)
    point = ScanPoint(t=t, mu=mu, psi_star=0.0,
                      e_star=_eps(params, filling) - filling * mu,
                      phase=Phase.MI if gain > 0.0 else Phase.SF,
                      filling=filling, n_max=n_max, e_max=e_top)
    return point, 2.0 * gain


_CELL_ERRORS = (NumericalError, DimensionBudgetError)  # reported per cell


def _solve(task, reported=_CELL_ERRORS):
    """task = (params, point, h0, settings) of an SF cell from :func:`_label`:
    its point with psi* (gradient root) and the converged cutoffs, psi_star =
    inf for a runaway, or a ``reported`` failure as (t, mu, message)."""
    params, point, h0, settings = task
    try:
        res = _converge_cutoffs(params, point.t, point.mu, point.n_max,
                                point.e_max, partial(_gradient_root, h0=h0),
                                settings)
    except MinimizationError:
        return replace(point, psi_star=math.inf, e_star=math.nan, n_max=-1,
                       e_max=-1, runaway=True)
    except reported as exc:
        return (point.t, point.mu, str(exc))
    return replace(point, psi_star=res.psi_star, e_star=res.e_star,
                   n_max=res.n_max, e_max=res.e_max)


def classify_phase(params, t, mu, settings=DEFAULT_SETTINGS):
    """Label one (t, mu) point as Mott insulator (with its filling) or SF:
    :func:`_label` (cutoff-free; a lobe edge is SF for any t > 0), then
    :func:`_solve` for an SF cell (psi_star = inf: a runaway)."""
    point, h0 = _label(params, t, mu, settings)
    return (point if point.phase is Phase.MI
            else _solve((params, point, h0, settings), reported=()))


def ascending_axis(name, values):
    """``values`` as a float array; ValueError unless non-empty and ascending."""
    ax = np.asarray(values, dtype=float)
    if ax.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if ax.size > 1 and not np.all(np.diff(ax) > 0):
        raise ValueError(f"{name} must be strictly ascending")
    return ax


def phase_diagram(params, t_axis, mu_axis, workers=1, settings=DEFAULT_SETTINGS):
    """Scan a dense (t, mu) grid; cells are independent and deterministic.

    Every cell is labelled here; only SF cells are solved, on
    ``min(workers, SF cells)`` processes: the calling process and forked
    children on Linux, the calling process alone elsewhere.  Results are
    bit-identical for any ``workers``.  Failures are aggregated into one
    GridError carrying the failing cell coordinates in grid order: if any
    cell fails at labelling, those failures are raised before any SF cell
    is solved (a runaway SF cell can take seconds); otherwise the failures
    of the SF solves are."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_axis = ascending_axis("t_axis", t_axis)
    mu_axis = ascending_axis("mu_axis", mu_axis)
    labels = []  # (point, h0) of each labelled cell
    failures = []
    for t in t_axis:
        for mu in mu_axis:
            try:
                labels.append(_label(params, float(t), float(mu), settings))
            except _CELL_ERRORS as exc:
                failures.append((float(t), float(mu), str(exc)))
    _raise_failures(failures)
    sf = [p.phase is Phase.SF for p, _h0 in labels]
    tasks = [(params, p, h0, settings) for (p, h0), s in zip(labels, sf) if s]
    if tasks:  # share 0 loads it anyway: load it once, before any fork
        _flapack()
    solved = iter(fork_map(_solve, tasks, workers))
    results = [next(solved) if s else p for (p, _h0), s in zip(labels, sf)]
    _raise_failures([r for r in results if isinstance(r, tuple)])
    nmu = mu_axis.size
    points = tuple(tuple(results[i * nmu:(i + 1) * nmu]) for i in range(t_axis.size))
    return PhaseGrid(t_axis=t_axis, mu_axis=mu_axis, points=points, params=params)


def _raise_failures(failures):
    """One GridError for the (t, mu, message) records, if there are any."""
    if failures:
        raise GridError(
            f"{len(failures)} grid cell(s) failed, first at "
            f"(t={failures[0][0]:g}, mu={failures[0][1]:g}): {failures[0][2]}",
            failures=failures)


def mott_lobe_mu_range(params, n):
    """(mu_lower, mu_upper) of Mott lobe n at t = 0, relative to omega_ex.

    mu_lower is the cost of injecting the n-th excitation, mu_upper that of
    the (n+1)-th; an empty range (lower >= upper) means the lobe does not
    exist.  Units of g.
    """
    if n < 1:
        raise ValueError(f"lobe index must be >= 1, got {n}")
    lower = _eps(params, n) - _eps(params, n - 1)
    upper = _eps(params, n + 1) - _eps(params, n)
    return lower, upper


def lobe_containing(params, n, mu):
    """:func:`mott_lobe_mu_range` of lobe n; LobeError unless mu lies
    strictly inside it."""
    lo_mu, hi_mu = mott_lobe_mu_range(params, n)
    if not (lo_mu < mu < hi_mu):
        raise LobeError(f"mu={mu:g} outside lobe {n} = ({lo_mu:g}, {hi_mu:g})")
    return lo_mu, hi_mu


@lru_cache(maxsize=256)
def _susceptibility(params, n):
    """Drive susceptibility of lobe n as a function chi(mu), units of g.

    Second order in the drive around the undriven lobe-n ground state |G>
    gives E(psi) = E_G + z t psi^2 [1 + z t chi] + O(psi^4), where chi(mu) =
    sum_s |<s|a + a^dag|G>|^2 / (E_G - E_s + (m - n) mu) over the eigenstates
    s of the manifolds m = n -/+ 1 (only m = 1 for the vacuum, n = 0).  mu
    only shifts a manifold by a constant, so each block is diagonalised once
    per (params, n) and process, and chi(mu) is a sum of simple poles.
    Inside the lobe every denominator is negative; a zero or positive one
    puts mu on (or, by rounding, just past) a lobe edge, where the undriven
    state is degenerate and chi = -inf.
    """
    scaled = SystemParams.dimensionless(params.big_n, params.detuning / params.g,
                                        params.z)
    w_n, v_n = manifold_block(scaled, n).eigensystem()
    poles = []
    for m in (n - 1, n + 1) if n > 0 else (1,):
        w_m, v_m = manifold_block(scaled, m).eigensystem()
        # a, a^dag link (n - k, k) and (m - k, k) with sqrt(max(m, n) - k)
        k = np.arange(min(len(w_n), len(w_m)))
        amp = np.zeros(len(w_m))
        amp[k] = np.sqrt(max(m, n) - k) * v_n[k, 0]
        poles.append(((v_m.T @ amp) ** 2, w_n[0] - w_m, np.full(len(w_m), m - n)))
    residue, gap, slope = (np.concatenate(part) for part in zip(*poles))

    def chi(mu):
        den = gap + slope * mu
        if (den >= 0.0).any():
            return -math.inf
        return float(np.sum(residue / den))

    return chi


def landau_boundary_tunneling(params, n, mu):
    """Perturbative phase boundary t = -1 / (z chi(mu)), see _susceptibility.

    Manifold blocks are exact, so this route has no basis-cutoff error and
    is independent of the variational psi scan.  mu in units of g, relative
    to omega_ex.
    """
    lobe_containing(params, n, mu)
    chi = _susceptibility(params, n)(mu)
    if chi >= 0:
        raise NumericalError(
            f"non-negative drive susceptibility chi={chi:g} at mu={mu:g}; "
            "the undriven state is not the grand-canonical ground state here")
    return -1.0 / (params.z * chi)


def critical_tunneling(params, n):
    """Lobe tip: (t_c, mu_tip) maximizing the perturbative boundary over mu.

    Inside lobe n every pole denominator is negative, so chi < 0 and the
    boundary -1 / (z chi) peaks where chi does; the golden-section search
    over mu needs no eigensolve.  Its oracle is the bisected variational
    boundary, :func:`polarlat.validate.boundary_tunneling`.
    """
    lo_mu, hi_mu = mott_lobe_mu_range(params, n)
    if lo_mu >= hi_mu:
        raise LobeError(f"lobe {n} is empty: ({lo_mu:g}, {hi_mu:g})")
    chi = _susceptibility(params, n)
    width = hi_mu - lo_mu
    # t is quadratic at the peak: 1e-8 widths in mu leave t_c at rounding error
    mu_tip, neg_chi = _golden_min(lambda mu: -chi(mu), lo_mu + 1e-9 * width,
                                  hi_mu - 1e-9 * width, 1e-8 * width)
    return 1.0 / (params.z * neg_chi), mu_tip
