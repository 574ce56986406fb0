"""Effective Bose-Hubbard parameters of the photon-dominated dispersive
limit, from quadrature over discretized cavity-mode and material fields.

The localized mode phi is normalized so that 2 eps0 * int K phi^2 = 1; the
hopping overlap then reads directly in units of that self-energy (the
displacement-zero overlap is exactly 1), and the Kerr interaction shares
the same unit.  A physical energy scale can be reattached downstream by
multiplying with the single-photon energy of the isolated cavity.

The raw two-center overlap is used as the hopping matrix element; no
orthogonalized (Wannier-style) correction is applied, which slightly
overestimates t for strongly overlapping modes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField3D, trapezoid3

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m


def _require_congruent(name_a, a, name_b, b):
    if not a.congruent(b):
        raise ValueError(
            f"{name_a} and {name_b} grids differ (shapes {a.shape} vs {b.shape})")


@dataclass(frozen=True)
class MaterialMaps:
    """Dielectric-constant and Kerr-coefficient maps on one common grid.

    The dielectric map must be physical (>= 1 everywhere, equal to 1 in
    vacuum); chi3 carries SI units m^2/V^2 and may take either sign.
    """

    k_c: ScalarField3D
    chi3: ScalarField3D

    def __post_init__(self):
        _require_congruent("k_c", self.k_c, "chi3", self.chi3)
        low = float(np.min(self.k_c.values))
        if low < 1.0 - 1e-12:
            raise ValueError(
                f"dielectric map has minimum {low:g}; values below 1 are "
                "unphysical")


def mode_norm(phi, k_c):
    """Normalization functional 2 eps0 * int K_C(r) phi(r)^2 d3r."""
    _require_congruent("phi", phi, "k_c", k_c)
    return 2.0 * VACUUM_PERMITTIVITY * trapezoid3(
        k_c.values * phi.values * phi.values, phi.spacing)


def _normalized(phi, k_c):
    """(phi rescaled to unit mode_norm, its raw mode_norm); one quadrature."""
    norm = mode_norm(phi, k_c)
    if norm <= 0:
        raise ValueError(f"mode normalization integral is {norm:g}; "
                         "the field has (numerically) zero norm")
    return phi.scaled(1.0 / np.sqrt(norm)), norm


def normalize_mode(phi, k_c):
    """Rescale phi so that mode_norm(phi, k_c) == 1 (idempotent)."""
    return _normalized(phi, k_c)[0]


def hopping_integral(k_c, phi, displacement):
    """Two-center overlap t = 2 eps0 * int K_C(r) phi(r) phi(r - d) d3r.

    phi should be normalized (see :func:`normalize_mode`) for t to be in
    self-energy units; phi(r - d) is sampled trilinearly and is zero
    outside the grid.  If the displaced copy misses the box entirely the
    integral is zero and a warning is issued.
    """
    _require_congruent("phi", phi, "k_c", k_c)
    d = [float(x) for x in displacement]
    if len(d) != 3:
        raise ValueError(f"displacement must have three components, got {displacement}")
    for dim in range(3):
        extent = (phi.shape[dim] - 1) * phi.spacing[dim]
        if abs(d[dim]) > extent:
            warnings.warn(
                f"displacement {d} moves the mode copy entirely outside the "
                "grid; hopping integral is zero", RuntimeWarning, stacklevel=2)
            return 0.0
    shifted = phi.shifted_values(d)
    return 2.0 * VACUUM_PERMITTIVITY * trapezoid3(
        k_c.values * phi.values * shifted, phi.spacing)


def kerr_u(chi3, phi):
    """On-site interaction U = -6 eps0 * int chi3(r) phi(r)^4 d3r.

    Positive Kerr coefficients give U < 0 (attractive) by the sign of the
    integrand.
    """
    _require_congruent("phi", phi, "chi3", chi3)
    phi2 = phi.values * phi.values
    return -6.0 * VACUUM_PERMITTIVITY * trapezoid3(chi3.values * phi2 * phi2,
                                                   phi.spacing)


@dataclass(frozen=True)
class KerrResult:
    """Dispersive-limit lattice parameters in mode self-energy units."""

    t: float
    u: float
    norm_constant: float  # raw-mode normalization integral before rescaling


def effective_bhm(k_c, chi3, phi, displacement):
    """Normalize the mode, then bundle the hopping and interaction integrals.

    The result feeds the analytic mean-field lobe boundary
    (:func:`polarlat.validate.bhm_boundary_oracle`) for phase estimates in
    this regime.
    """
    phi_n, norm = _normalized(phi, k_c)
    return KerrResult(t=hopping_integral(k_c, phi_n, displacement),
                      u=kerr_u(chi3, phi_n), norm_constant=norm)
