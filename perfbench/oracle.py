"""Reference physics for the benchmark's correctness checks.

Everything here is computed apart from polarlat: the manifold blocks are
built and diagonalised with dense numpy ``eigh``, the lobe boundary comes
from second-order perturbation theory in the mean-field drive, the
two-excitation root of the uniform-coupling site is the trigonometric
closed form of a symmetric 3x3 eigenproblem, and the Kerr integrals are the
analytic Gaussian overlaps.  Energies of the mean-field part are in units
of g with mu measured from omega_ex, as in the CLI's CSV files.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
VACUUM_PERMITTIVITY = 8.8541878128e-12
BHM_RATIO_Z4 = 4.0 * (3.0 + 2.0 * math.sqrt(2.0))

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Levels:
    """Manifold spectra of one (N, detuning) site, in units of g, cached."""

    def __init__(self, big_n, detuning):
        self.big_n = big_n
        self.detuning = detuning
        self._cache = {}

    def block(self, n):
        """(eigenvalues, eigenvectors) of manifold n; entry k = (n-k) photons."""
        if n not in self._cache:
            k = np.arange(min(n, self.big_n) + 1)
            h = np.diag((n - k) * float(self.detuning))
            kk = k[:-1]
            off = np.sqrt((n - kk) * (self.big_n - kk) * (kk + 1.0))
            h = h + np.diag(off, 1) + np.diag(off, -1)
            self._cache[n] = np.linalg.eigh(h)
        return self._cache[n]

    def eps(self, n):
        return float(self.block(n)[0][0])

    def filling(self, mu, n_top=200):
        """argmin_n [eps_n - n mu], lowest n on ties."""
        vals = [self.eps(n) - n * mu for n in range(n_top + 1)]
        return int(np.argmin(vals))

    def lobe_range(self, n):
        return self.eps(n) - self.eps(n - 1), self.eps(n + 1) - self.eps(n)

    def chi(self, n, mu):
        """Second-order drive susceptibility of the undriven lobe-n ground state.

        chi = sum_s |<s|a + a^dag|G>|^2 / (E_G - E_s) over manifolds n-1 and
        n+1 (only n+1 for the vacuum lobe n = 0).
        """
        w_n, v_n = self.block(n)
        ground = v_n[:, 0]
        e_ground = w_n[0] - n * mu
        total = 0.0
        # a^dag: (n-k, k) -> (n+1-k, k) with amplitude sqrt(n-k+1)
        w_up, v_up = self.block(n + 1)
        k = np.arange(ground.size)
        amp = np.zeros(v_up.shape[0])
        amp[:ground.size] = np.sqrt(n + 1.0 - k) * ground
        total += float(np.sum((v_up.T @ amp) ** 2
                              / (e_ground - (w_up - (n + 1) * mu))))
        if n >= 1:
            # a: (n-k, k) -> (n-1-k, k) with amplitude sqrt(n-k), k <= n-1
            w_dn, v_dn = self.block(n - 1)
            k = np.arange(v_dn.shape[0])
            amp = np.sqrt(n - k.astype(float)) * ground[:v_dn.shape[0]]
            total += float(np.sum((v_dn.T @ amp) ** 2
                                  / (e_ground - (w_dn - (n - 1) * mu))))
        return total

    def boundary(self, mu, z):
        """Perturbative MI/SF boundary t = -1/(z chi(mu)) of the lobe holding mu.

        Returns (filling, t_boundary); t_boundary is inf when chi >= 0.
        """
        n = self.filling(mu)
        chi = self.chi(n, mu)
        return n, (math.inf if chi >= 0 else -1.0 / (z * chi))

    def tip(self, z, n=1, mu_tol=1e-10):
        """Lobe tip (t_c, mu_tip): golden-section maximum of the boundary."""
        lo, hi = self.lobe_range(n)
        margin = 1e-9 * (hi - lo)
        a, b = lo + margin, hi - margin

        def t_of(mu):
            return -1.0 / (z * self.chi(n, mu))

        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = t_of(c), t_of(d)
        while b - a > mu_tol:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = t_of(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = t_of(d)
        return (fc, c) if fc > fd else (fd, d)


def sym3_lowest(a):
    """Smallest eigenvalue of a real symmetric 3x3 matrix, trigonometric form."""
    a = np.asarray(a, dtype=float)
    q = np.trace(a) / 3.0
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    p2 = sum((a[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    r = np.linalg.det((a - q * np.eye(3)) / p) / 2.0
    phi = math.acos(min(1.0, max(-1.0, r))) / 3.0
    return q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)


def clean_u(big_n, detuning, g):
    """U = E2 - 2 E1 of a uniform-coupling site (same units as g and detuning)."""
    e1 = 0.5 * detuning - math.sqrt(0.25 * detuning ** 2 + big_n * g * g)
    if big_n == 1:
        e2 = 1.5 * detuning - math.sqrt(0.25 * detuning ** 2 + 2.0 * g * g)
    else:
        b1 = math.sqrt(2.0 * big_n) * g
        b2 = math.sqrt(2.0 * big_n - 2.0) * g
        e2 = sym3_lowest([[2.0 * detuning, b1, 0.0], [b1, detuning, b2],
                          [0.0, b2, 0.0]])
    return e2 - 2.0 * e1


def photon_fraction(big_n, detuning, g):
    return 0.5 * (1.0 - detuning / math.sqrt(detuning ** 2 + 4.0 * big_n * g * g))


def omega_ph(wavelength_nm):
    return 2.0 * math.pi * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


def loss_rate(c_ph_sq, omega, q_cavity, purcell_f, tau_e):
    return c_ph_sq * omega / q_cavity + (1.0 - c_ph_sq) * purcell_f / tau_e


def required_q(c_ph_sq, omega, t_c_rad_s, eta, purcell_f, tau_e):
    """Closed-form Q_r; inf when the impurity decay alone beats the budget."""
    denom = c_ph_sq * t_c_rad_s / eta - (1.0 - c_ph_sq) * purcell_f / tau_e
    return math.inf if denom <= 0 else c_ph_sq * omega / denom


def gaussian_hopping(distance, sigma):
    """Normalised overlap of exp(-r^2 / 2 sigma^2) with its copy at distance."""
    return math.exp(-distance ** 2 / (4.0 * sigma ** 2))


def gaussian_kerr_u(sigma, k_c, chi3):
    """U = -6 eps0 chi3 int phi^4 / (2 eps0 k_c int phi^2)^2 for uniform maps."""
    int_phi2 = (math.pi * sigma ** 2) ** 1.5
    int_phi4 = (0.5 * math.pi * sigma ** 2) ** 1.5
    norm = 2.0 * VACUUM_PERMITTIVITY * k_c * int_phi2
    return -6.0 * VACUUM_PERMITTIVITY * chi3 * int_phi4 / norm ** 2
