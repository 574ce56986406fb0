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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import _trapezoid_weights, trapezoid3

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m


def _require_congruent(name_a, a, name_b, b):
    if not a.congruent(b):
        raise InputError(
            f"{name_a} and {name_b} grids differ (shapes {a.shape} vs {b.shape})")


def mode_norm(phi, k_c):
    """Normalization functional 2 eps0 * int K_C(r) phi(r)^2 d3r."""
    _require_congruent("phi", phi, "k_c", k_c)
    return _overlap(k_c, phi, [(1.0, (0, 0, 0))])


def _positive_norm(phi, k_c):
    norm = mode_norm(phi, k_c)
    if norm <= 0:
        raise InputError(f"mode normalization integral is {norm:g}; "
                         "the field has (numerically) zero norm")
    return norm


def normalize_mode(phi, k_c):
    """Rescale phi so that mode_norm(phi, k_c) == 1 (idempotent)."""
    return phi.scaled(1.0 / np.sqrt(_positive_norm(phi, k_c)))


def _overlap(k_c, phi, corners):
    """2 eps0 * sum over (weight, shift) corners of weight times the
    trapezoid sum of K_C(r) phi(r) phi(r + shift), in grid steps, over the
    points where both samples lie on the grid.

    Each corner builds one product array over its overlap and frees it
    before the next corner starts; the trapezoid weights are those of the
    full grid, sliced to the overlap.
    """
    total = 0.0
    for weight, shift in corners:
        dst, src, w = [], [], []
        for n, s in zip(phi.shape, shift):
            lo, hi = max(0, -s), min(n, n - s)
            dst.append(slice(lo, hi))
            src.append(slice(lo + s, hi + s))
            w.append(_trapezoid_weights(n)[lo:hi])
        dst, src = tuple(dst), tuple(src)
        tmp = k_c.values[dst] * phi.values[dst]
        tmp *= phi.values[src]
        total += weight * float(np.einsum("i,j,k,ijk->", *w, tmp))
        del tmp
    dx, dy, dz = phi.spacing
    return 2.0 * VACUUM_PERMITTIVITY * (total * dx * dy * dz)


def hopping_integral(k_c, phi, displacement):
    """Two-center overlap t = 2 eps0 * int K_C(r) phi(r) phi(r - d) d3r.

    phi should be normalized (see :func:`normalize_mode`) for t to be in
    self-energy units; phi(r - d) is sampled trilinearly and is zero
    outside the grid.  If the displaced copy misses the box entirely the
    integral is zero and a warning is issued.

    A constant displacement on a regular grid reduces trilinear
    interpolation to a blend of at most 8 integer shifts of phi, so the
    integral is the same blend of overlap sums and no shifted copy of phi
    is made (:func:`polarlat.validate.hopping_by_shifted_copy` makes one).
    """
    _require_congruent("phi", phi, "k_c", k_c)
    d = [float(x) for x in displacement]
    if len(d) != 3:
        raise InputError(
            f"displacement must have three components, got {displacement}")
    axes = []
    for dim in range(3):
        extent = (phi.shape[dim] - 1) * phi.spacing[dim]
        if abs(d[dim]) > extent:
            warnings.warn(
                f"displacement {d} moves the mode copy entirely outside the "
                "grid; hopping integral is zero", RuntimeWarning, stacklevel=2)
            return 0.0
        # phi(i - t) = (1 - frac) phi(i + k) + frac phi(i + k + 1)
        t = d[dim] / phi.spacing[dim]
        k = math.floor(-t)
        frac = (-t) - k
        axes.append([(w, k + c) for c, w in enumerate((1.0 - frac, frac))
                     if w != 0.0])
    corners = [(wx * wy * wz, (sx, sy, sz))
               for wx, sx in axes[0] for wy, sy in axes[1]
               for wz, sz in axes[2]]
    return _overlap(k_c, phi, corners)


def kerr_u(chi3, phi):
    """On-site interaction U = -6 eps0 * int chi3(r) phi(r)^4 d3r.

    Positive Kerr coefficients give U < 0 (attractive) by the sign of the
    integrand.
    """
    _require_congruent("phi", phi, "chi3", chi3)
    tmp = phi.values * phi.values
    tmp *= tmp
    tmp *= chi3.values
    return -6.0 * VACUUM_PERMITTIVITY * trapezoid3(tmp, phi.spacing)


@dataclass(frozen=True)
class KerrResult:
    """Dispersive-limit lattice parameters in mode self-energy units."""

    t: float
    u: float
    norm_constant: float  # raw-mode normalization integral before rescaling


def effective_bhm(k_c, chi3, phi, displacement):
    """The hopping and interaction integrals of the normalized mode, for a
    physical dielectric map k_c (>= 1, and 1 in vacuum) and chi3 in m^2/V^2.

    The normalization is folded into the results (t of phi over the norm,
    U over its square), so no normalized copy of phi is made; InputError
    for a k_c below 1, or a product or U past the float range.  The result
    feeds the analytic mean-field lobe boundary
    (:func:`polarlat.validate.bhm_boundary_oracle`) in this regime.
    """
    low = float(np.min(k_c.values))
    if low < 1.0 - 1e-12:
        raise InputError(
            f"dielectric map has minimum {low:g}; values below 1 are unphysical")
    # a product is at most phi^2 times the largest of phi^2, K and chi3 phi^2,
    # a sum the point count times that: bounded from extremes, no temporary
    peak, chi = (max(float(np.max(f.values)), -float(np.min(f.values)))
                 for f in (phi, chi3))
    p2 = peak * peak
    if not (p2 * max(p2, float(np.max(k_c.values)), chi * p2) * phi.values.size
            * max(1.0, math.prod(phi.spacing)) < math.inf):
        raise InputError("phi, k_c and chi3 form products past the float range")
    norm = _positive_norm(phi, k_c)
    sq = norm * norm
    u = kerr_u(chi3, phi) / sq if 0.0 < sq < math.inf else math.inf
    if not math.isfinite(u):
        raise InputError(f"U over the squared mode norm ({norm:g}^2) passes "
                         "the float range")
    return KerrResult(t=hopping_integral(k_c, phi, displacement) / norm, u=u,
                      norm_constant=norm)
