"""Mean-field phase analysis: phase labels, order parameters, Mott lobes,
phase boundaries and the critical tunneling energy; README's "Phase
diagrams" and "Critical parameters" sections describe the methods.

Tunneling energies ``t`` and chemical potentials ``mu`` are in units of
``params.g``, ``mu`` relative to ``omega_ex``; internally g = 1, which keeps
the eigenproblems well conditioned for any physical parameter set.  Labels
are perturbative (``_susceptibility``), so an MI cell needs no site solve
and reports psi = 0, the undriven energy and its budget-checked initial
cutoffs.  In an SF cell psi* is the root of the Hellmann-Feynman gradient
(``_gradient_root``), raising both cutoffs by 2 until its energy moves by
less than :data:`CUTOFF_REL_TOL`; ``phase_diagram`` labels each mu-column
once and solves its SF cells in ascending t as one task (``_Column``).
The variational oracles (psi scan, bisected boundary) are in
:mod:`polarlat.validate`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from ._fork import fork_map
from .errors import (DimensionBudgetError, GridError, InputError, LobeError,
                     MinimizationError, NumericalError)
from .model import DIMENSION_BUDGET, SystemParams, manifold_block, manifold_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: Hard cap on the manifold index scanned when locating the filling.
_MAX_FILLING_SCAN = 512

PSI_TOL = 1e-6            # bracket width on psi
MAX_PSI_EXPANSIONS = 8    # doublings of psi_max before "runaway"
CUTOFF_MARGIN = 6         # initial cutoffs = filling + margin
CUTOFF_REL_TOL = 1e-8     # ground-energy stability under cutoff + 2


@dataclass(frozen=True)
class ScanSettings:
    """The site dimension budget of the mean-field scan and its oracles in
    :mod:`polarlat.validate`; the tolerances above are module constants."""

    max_dim: int = DIMENSION_BUDGET


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


@dataclass(frozen=True)
class PhaseGrid:
    """Dense (t, mu) scan as per-cell arrays indexed [i_t, i_mu]; a runaway
    cell has psi inf, energy nan and final cutoffs -1."""

    t_axis: np.ndarray
    mu_axis: np.ndarray
    params: SystemParams
    psi: np.ndarray
    energy: np.ndarray
    filling: np.ndarray
    is_mott: np.ndarray
    n_max_final: np.ndarray
    e_max: np.ndarray
    runaway: np.ndarray


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
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    yc, yd = f(c), f(d)
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
#: max(1, |theta|), solves per call.
_RESIDUAL_TOL = 1e-10
_SHIFT_FLOOR = 1e-8
_MAX_STEPS = 8


class _BandedSite:
    """Lowest-eigenvalue engine for the driven site at fixed cutoffs.

    States are ordered excitation-major, index = e*(n_max+1) + n_ph, which
    makes the matrix banded with bandwidth n_max: the photon drive sits on
    the first superdiagonal and the impurity-photon exchange on the
    (n_max)-th.  All energies in units of g.  Solves call LAPACK ``dsbevx``,
    ``dpbtrf`` and ``dpbtrs`` from :func:`_flapack`, loaded on the first
    solve, so tips and MI labels never load it.

    ``energy`` (for the oracles in :mod:`polarlat.validate`) solves by
    ``_lowest`` without vectors; ``energy_and_slope`` with them until it
    knows a ground vector, then by shifted inverse iteration from the last
    one (Parlett 1980, ch. 4; ``warm``: a site whose vector, padded with
    zeros, starts this one), with banded Cholesky solves.  A Cholesky of
    H - sigma I succeeds only if sigma is below every eigenvalue
    (Sylvester's law of inertia), so a pair is accepted only when one more
    succeeds just below its Rayleigh quotient: an excited pair cannot pass.
    Any failure falls back to ``_lowest``, whose own failures, a band past
    the float range or ``dsbevx`` not converging, are NumericalErrors.
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
        self._base, self._u, self._m = base, u, m
        self.zt, self.n_max, self.e_top, self.dim = zt, n_max, e_top, dim
        self._vec = None  # last ground vector of energy_and_slope
        if warm is not None and warm._vec is not None:
            vec = np.zeros((rows, m))
            vec[:warm.e_top + 1, :warm.n_max + 1] = warm._vec.reshape(
                warm.e_top + 1, warm.n_max + 1)
            self._vec = vec.ravel()

    def _band(self, psi):
        lam = self.zt * psi
        if self._m == 1 or lam * lam == 0.0:
            # no drive, or one too weak to shift the energy (dsbevx can fail)
            return self._base
        band = self._base.copy()
        band[self._u - 1] += (-self.zt * psi) * self._drive
        return band

    def _lowest(self, psi, vectors):
        """(w, v) of ``eig_banded``, or w of ``eigvals_banded`` without
        ``vectors``, at ``select="i", select_range=(0, 0)``: the same
        ``dsbevx`` call, and the same bits."""
        band = self._band(psi)
        if not np.isfinite(band).all():
            raise NumericalError(f"site band past the float range at dim={self.dim}")
        w, v, m, _ifail, info = _flapack().dsbevx(
            np.array(band, order="F"), 0.0, 1.0, 1, 1, compute_v=int(vectors),
            mmax=1, range=2, lower=0, overwrite_ab=1,
            abstol=2.0 * np.finfo(float).tiny)
        if info:  # pragma: no cover
            raise NumericalError(f"banded eigensolver failed at dim={self.dim} "
                                 f"(LAPACK dsbevx info={info})")
        return (w[:m], v[:, :m]) if vectors else w[:m]

    def _inverse_iteration(self, psi):
        """(theta, x): the certified lowest pair from the last ground vector,
        or None when a Cholesky fails, a solve under- or overflows or
        _MAX_STEPS solves do not converge.
        Only the start vector's quotient takes a banded product: with y =
        (H - sigma)^-1 x, the next iterate y / |y| has Rayleigh quotient
        sigma + x.y / y.y and residual |x - (theta - sigma) y| / |y|."""
        lapack = _flapack()
        band = self._band(psi)
        u = self._u
        x = self._vec / math.sqrt(float(self._vec @ self._vec))
        hx = band[u] * x
        # only the drive (k = 1) and exchange (k = u) diagonals are nonzero
        for k in sorted({1, u}) if u else ():
            hx[:-k] += band[u - k, k:] * x[k:]
            hx[k:] += band[u - k, k:] * x[:-k]
        theta = float(x @ hx)
        hx -= theta * x
        r = math.sqrt(float(hx @ hx))

        def factor(sigma):  # Cholesky of H - sigma I, or None
            shifted = band.copy()
            shifted[u] -= sigma
            c, info = lapack.dpbtrf(shifted)
            return None if info else c

        for step in range(_MAX_STEPS + 1):
            scale = max(1.0, abs(theta))
            s = max(2.0 * r, _SHIFT_FLOOR * scale)
            if r <= _RESIDUAL_TOL * scale:
                return (theta, x) if factor(theta - s) is not None else None
            c = factor(theta - s) if step < _MAX_STEPS else None
            if c is None:
                return None
            y = lapack.dpbtrs(c, x)[0]
            norm = math.sqrt(float(y @ y))
            if not 0.0 < norm * norm < math.inf:  # over- or underflow
                return None
            gap = float(x @ y) / (norm * norm)  # new theta - (theta - s)
            x -= gap * y
            theta = theta - s + gap
            r = math.sqrt(float(x @ x)) / norm
            x = y / norm

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


def _initial_cutoffs(params, fill):
    n0 = fill + CUTOFF_MARGIN
    return n0, min(params.big_n, n0)


def _check_dim(n_max, e_top, settings):
    dim = (n_max + 1) * (e_top + 1)
    if dim > settings.max_dim:
        raise DimensionBudgetError(
            f"cutoffs n_max={n_max}, e_max={e_top} need dimension {dim} "
            f"> budget {settings.max_dim}")


def _grow(params, n_max, e_top):
    return n_max + 2, min(params.big_n, e_top + 2)


def _gradient_root(solver, guess, h0, column=None):
    """psi* at fixed cutoffs as a root of h, see _BandedSite.

    h(0) = h0 = 2 (1 + z t chi) < 0 in a superfluid cell, -inf on a lobe
    edge.  The highest point seen with h <= 0 and the lowest with h > 0
    bracket the root.  The first points are guess +/- PSI_TOL/2 for a guess
    (the last round's psi*), or in a ``column``'s first round, points placed
    on its curve (see _Column).  Without an upper end, one is doubled from
    sqrt(n_max)/2 (guess + PSI_TOL/2) until h > 0, else MinimizationError.
    Brent's method (1973) closes the bracket to PSI_TOL: (psi*, energy).
    """
    tol = PSI_TOL
    energy = {}
    if guess is not None:
        column = None  # only a cell's first round continues its column
    elif column is not None and not column.curve:
        column.add(solver.zt, h0, 0.0)  # a column's first cell: the boundary

    def h(psi):
        energy[psi], slope = solver.energy_and_slope(psi)
        if column is not None:
            column.add(solver.zt, slope, psi)
        return slope

    lo, f_lo, hi, f_hi = 0.0, h0, math.inf, math.nan

    def probe(psi):  # h(psi), if psi is inside the bracket
        nonlocal lo, f_lo, hi, f_hi
        if lo < psi < hi:
            f = h(psi)
            if f > 0.0:
                hi, f_hi = psi, f
            else:
                lo, f_lo = psi, f

    top = math.sqrt(solver.n_max) / 2.0 if guess is None else guess + 0.5 * tol
    if guess is not None:
        probe(top)
        probe(guess - 0.5 * tol)
    elif column is not None and column.site is not None:
        for _ in range(_CURVE_STEPS):
            psi = _on_curve(column.curve, solver.zt)
            if not lo < psi < hi:
                break
            # near an end, the point that closes a psi_tol-wide bracket, else
            # one just above psi, so that the end returned is near the root
            if psi - lo <= 0.5 * tol:
                psi = lo + tol
            elif hi - psi <= 0.5 * tol:
                psi = hi - tol
            else:
                psi += 0.25 * tol
            probe(psi)
            if hi - lo <= tol + 4.0 * math.ulp(lo):  # closed, as Brent tests
                break
    expansion = 0
    while hi == math.inf:
        if expansion > MAX_PSI_EXPANSIONS:
            raise MinimizationError(
                f"energy still decreasing at psi={lo:g} after {expansion - 1} "
                "bracket expansions; the mean-field energy is unbounded in "
                "this regime")
        probe(top * 2.0 ** expansion)
        expansion += 1
    if column is not None:
        column.site = solver
    pre, f_pre, cur, f_cur = lo, f_lo, hi, f_hi
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
            return psi, energy[psi]
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


#: _Column: points per interpolation, the latest points they are chosen
#: from, their least spacing over z t, and placed points per cell
_CURVE_POINTS, _CURVE_RECENT, _CURVE_SPACING, _CURVE_STEPS = 5, 24, 1e-4, 6


def _on_curve(curve, zt):
    """psi at zt by Lagrange interpolation of lambda^2 through the points of
    ``curve`` nearest in z t, or nan where lambda^2 <= 0."""
    near = []
    for x, y in sorted(curve[-_CURVE_RECENT:], key=lambda p: abs(p[0] - zt)):
        if len(near) < _CURVE_POINTS and all(
                abs(x - c) > _CURVE_SPACING * zt for c, _ in near):
            near.append((x, y))
    lam2 = 0.0
    for x, y in near:
        for c, _ in near:
            y *= (zt - c) / (x - c) if c != x else 1.0
        lam2 += y
    return math.sqrt(lam2) / zt if lam2 > 0.0 else math.nan


class _Column:
    """Continuation down one mu-column (Allgower & Georg, SIAM 2003): its SF
    cells share the filling and first cutoffs, and their sites are H0(mu) -
    lambda (a + a^dag), lambda = z t psi.  So g = <a + a^dag> / lambda =
    (2 - h) / (z t) is one function of lambda, a root lies at g = 2 / (z t),
    and each first-round solve is a point (2 / g, lambda^2) of one curve
    z t -> lambda*^2 from (-1 / chi, 0): ``curve`` holds them, and ``site``
    the last first-round site, whose vector starts the next cell."""

    def __init__(self):
        self.curve = []
        self.site = None

    def add(self, zt, h, psi):
        """The curve point of a first-round solve, h at psi (h0 at 0)."""
        if h < 2.0:  # <a + a^dag> > 0
            lam = zt * psi
            self.curve.append((2.0 * zt / (2.0 - h), lam * lam))


def _converge_cutoffs(params, t, mu, n_max, e_top, solve_fixed, settings,
                      warm=None):
    """Run solve_fixed(solver, last round's psi* or None) with both cutoffs
    raised by 2 until its energy is stable, at the final cutoffs; each
    round's site starts from the last one's vector, the first from warm's."""
    delta = params.detuning / params.g
    zt = params.z * t
    prev, psi, solver = None, None, warm
    rounds = 0
    while True:
        _check_dim(n_max, e_top, settings)
        solver = _BandedSite(params.big_n, n_max, e_top, delta, mu, zt, solver)
        psi, e_star = solve_fixed(solver, psi)
        if prev is not None and abs(e_star - prev) <= CUTOFF_REL_TOL * max(
                1.0, abs(e_star)):
            return MinimizeResult(psi_star=psi, e_star=e_star, n_max=n_max,
                                  e_max=e_top)
        # unbounded regime: the minimizing displacement keeps consuming the
        # photon cutoff as the basis grows; a bounded superfluid point pins
        # psi* and converges once n_max clears psi*^2
        if rounds >= 6 and psi * psi > 0.5 * n_max:
            raise MinimizationError(
                f"ground energy decreases without bound: psi*={psi:.3g} tracks "
                f"the photon cutoff n_max={n_max} (zt={zt:g}, mu={mu:g})")
        if rounds >= 40:
            raise NumericalError(
                f"ground energy not converged after {rounds} cutoff increases "
                f"at (t={t:g}, mu={mu:g})")
        prev = e_star
        rounds += 1
        n_max, e_top = _grow(params, n_max, e_top)


def _label(params, t_axis, mu, settings):
    """One mu-column's labels over an ascending ``t_axis`` >= 0, no
    eigensolve: (filling, base, h0), ``base`` the result of its MI cells
    (psi 0, the undriven energy, the first cutoffs) and h0 = 2 (1 + z t
    chi(mu)) per t, > 0 in an MI cell (2 at t = 0), else SF, for _solve.
    Past t = 0, the first cutoffs pass the budget check, once."""
    if not t_axis[0] >= 0:
        raise InputError(f"t must be >= 0, got {float(t_axis[0])}")
    filling = filling_at_zero_psi(params, mu)
    base = MinimizeResult(0.0, _eps(params, filling) - filling * mu,
                          *_initial_cutoffs(params, filling))
    h0 = np.full(t_axis.size, 2.0)  # no drive at t = 0
    if t_axis[-1] > 0.0:
        _check_dim(base.n_max, base.e_max, settings)
        chi = _susceptibility(params, filling)(mu)
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do
            h0 = np.where(t_axis > 0.0, 2.0 * (1.0 + params.z * t_axis * chi), h0)
    return filling, base, h0


def _solve(params, t, mu, base, h0, settings, column=None):
    """An SF cell's MinimizeResult from its column's base and h0 (_label):
    psi* (gradient root) at the converged cutoffs, _RUNAWAY for a runaway;
    any other NumericalError propagates.  With a :class:`_Column`, its
    first round continues the column from the column's last site."""
    try:
        # past z t psi ~ 1e154 inverse iteration overflows (to inf, then
        # nan) and falls back
        with np.errstate(over="ignore", invalid="ignore"):
            return _converge_cutoffs(
                params, t, mu, base.n_max, base.e_max,
                partial(_gradient_root, h0=h0, column=column), settings,
                None if column is None else column.site)
    except MinimizationError:
        return _RUNAWAY


_RUNAWAY = MinimizeResult(math.inf, math.nan, -1, -1)  # psi*, e*, n_max, e_max


def _solve_column(task):
    """task = (params, mu, base, t, h0, settings), one mu-column's SF cells
    in ascending t: rows (psi*, e*, n_max, e_max) of :func:`_solve`, each
    continuing the column (cold as the first, and after a failed or runaway
    cell), and the (t, mu, message) of each NumericalError (a runaway's row)."""
    params, mu, base, ts, h0s, settings = task
    solved = np.empty((len(ts), 4))
    column, failures = _Column(), []
    for k, (t, h0) in enumerate(zip(ts.tolist(), h0s.tolist())):
        try:
            res = _solve(params, t, mu, base, h0, settings, column)
        except NumericalError as exc:
            failures.append((t, mu, str(exc)))
            res = _RUNAWAY
        solved[k] = res.psi_star, res.e_star, res.n_max, res.e_max
        if res is _RUNAWAY:
            column = _Column()
    return solved, failures


def classify_phase(params, t, mu, settings=DEFAULT_SETTINGS):
    """Label one (t, mu) point as Mott insulator (with its filling) or SF:
    :func:`_label` of a one-cell column (a lobe edge is SF for any t > 0),
    then a cold :func:`_solve` of an SF cell (psi_star = inf: a runaway)."""
    filling, base, h0 = _label(params, np.array([t], dtype=float), mu, settings)
    mott = h0[0] > 0.0
    res = base if mott else _solve(params, t, mu, base, float(h0[0]), settings)
    return ScanPoint(t=t, mu=mu, psi_star=res.psi_star, e_star=res.e_star,
                     phase=Phase.MI if mott else Phase.SF, filling=filling,
                     n_max=res.n_max, e_max=res.e_max, runaway=res is _RUNAWAY)


def ascending_axis(name, values):
    """``values`` as a float array; InputError unless non-empty and
    ascending."""
    ax = np.asarray(values, dtype=float)
    if ax.size == 0:
        raise InputError(f"{name} must be non-empty")
    if ax.size > 1 and not np.all(np.diff(ax) > 0):
        raise InputError(f"{name} must be strictly ascending")
    return ax


def phase_diagram(params, t_axis, mu_axis, workers=1, settings=DEFAULT_SETTINGS):
    """Scan a dense (t, mu) grid, deterministically.

    Each mu-column is labelled here, once (:func:`_label`), and its SF cells
    are solved as one task (:func:`_solve_column`) on ``min(workers, such
    columns)`` processes; results are bit-identical for any ``workers``.
    Failures are raised as one GridError listing the failing cells in grid
    order: those of the labels, before any SF cell is solved (a runaway SF
    cell can take seconds), else those of the SF solves."""
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    t_axis = ascending_axis("t_axis", t_axis)
    mu_axis = ascending_axis("mu_axis", mu_axis)
    shape = (t_axis.size, mu_axis.size)
    psi, energy = np.zeros(shape), np.empty(shape)
    filling, is_mott = np.empty(shape, dtype=int), np.empty(shape, dtype=bool)
    n_max, e_max = np.empty(shape, dtype=int), np.empty(shape, dtype=int)
    failures, tasks, columns = [], [], []
    for j, mu in enumerate(mu_axis.tolist()):
        try:
            fill, base, h0 = _label(params, t_axis, mu, settings)
        except NumericalError as exc:  # a budget error fails only t > 0 cells
            failures += [(t, mu, str(exc)) for t in t_axis.tolist() if t > 0.0
                         or not isinstance(exc, DimensionBudgetError)]
            continue
        filling[:, j], is_mott[:, j] = fill, h0 > 0.0
        energy[:, j], n_max[:, j], e_max[:, j] = base.e_star, base.n_max, base.e_max
        rows = np.flatnonzero(~is_mott[:, j])
        if rows.size:
            columns.append((rows, j))
            tasks.append((params, mu, base, t_axis[rows], h0[rows], settings))
    _raise_failures(failures)
    if tasks:  # share 0 loads it anyway: load it once, before any fork
        _flapack()
    for (rows, j), (solved, lost) in zip(
            columns, fork_map(_solve_column, tasks, workers)):
        psi[rows, j], energy[rows, j], n_max[rows, j], e_max[rows, j] = solved.T
        failures += lost
    _raise_failures(failures)
    return PhaseGrid(t_axis=t_axis, mu_axis=mu_axis, params=params, psi=psi,
                     energy=energy, filling=filling, is_mott=is_mott,
                     n_max_final=n_max, e_max=e_max, runaway=n_max < 0)


def _raise_failures(failures):
    """One GridError for the (t, mu, message) records, if any, by t, then mu."""
    if failures:
        failures = sorted(failures, key=lambda f: f[:2])
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
        raise InputError(f"lobe index must be >= 1, got {n}")
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
    if not lo_mu < hi_mu:  # a nan bound, from manifold energies past the float range
        raise NumericalError(f"lobe {n} has no finite range: ({lo_mu:g}, {hi_mu:g})")
    chi = _susceptibility(params, n)
    width = hi_mu - lo_mu
    # t is quadratic at the peak: 1e-8 widths in mu leave t_c at rounding error
    mu_tip, neg_chi = _golden_min(lambda mu: -chi(mu), lo_mu + 1e-9 * width,
                                  hi_mu - 1e-9 * width, 1e-8 * width)
    return 1.0 / (params.z * neg_chi), mu_tip
