"""Derived single-polariton quantities: interaction energy, composition,
loss rates, required cavity Q, and doping-density bookkeeping.

Energies returned by this module are in the same units as ``params.g``
(rad/s for physical parameter sets).  Loss rates combine the photon decay
``omega_ph / Q`` and the Purcell-inhibited impurity decay ``F / tau_e`` as
plain inverse-time rates; with hbar = 1 these share units with angular
frequencies, and no extra 2*pi factors are applied anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import meanfield
from .errors import InputError
from .model import manifold_energy


@dataclass(frozen=True)
class LossParams:
    """Loss channels and the equilibrium safety factor.

    eta rescales the tunneling budget in :func:`required_q`: eta = 1 is the
    bare equilibrium condition, eta = 10 demands a tunneling rate ten times
    the loss rate.  Both conventions are in circulation, so eta is a
    first-class parameter rather than a hard-coded factor.
    """

    q_cavity: float
    tau_e: float = 1e-9
    purcell_f: float = 0.2
    eta: float = 1.0

    def __post_init__(self):
        for name in ("tau_e", "purcell_f", "q_cavity", "eta"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class PolaritonComposition:
    """Photon/impurity weights of the lower polariton, summing to one."""

    c_ph_sq: float
    c_ex_sq: float


def interaction_energy(params):
    """Cost of the second quasi-particle: U = E(2) - 2 E(1).

    Manifold energies are relative to n*omega_ex, so the transition-
    frequency offsets cancel exactly.  Units of params.g's unit.
    """
    return manifold_energy(params, 2) - 2.0 * manifold_energy(params, 1)


def polariton_fractions(params):
    """Photon fraction of the lower single-excitation polariton.

    From the 2x2 single-excitation block:
    |c_ph|^2 = (1 - delta / sqrt(delta^2 + 4 N g^2)) / 2.
    """
    delta = params.detuning
    root = math.sqrt(delta * delta + 4.0 * params.big_n * params.g * params.g)
    c_ph_sq = 0.5 * (1.0 - delta / root)
    return PolaritonComposition(c_ph_sq=c_ph_sq, c_ex_sq=1.0 - c_ph_sq)


def polariton_loss_rate(params, loss):
    """Composition-weighted loss rate (1/s for physical parameter sets):

    Gamma = |c_ph|^2 omega_ph / Q + |c_ex|^2 F / tau_e.
    """
    comp = polariton_fractions(params)
    return (comp.c_ph_sq * params.omega_ph / loss.q_cavity
            + comp.c_ex_sq * loss.purcell_f / loss.tau_e)


def required_q(params, loss, t_c):
    """Cavity Q needed for the tunneling budget to beat the losses.

    Q_r = |c_ph|^2 omega_ph / (|c_ph|^2 t_c / eta - |c_ex|^2 F / tau_e),
    with t_c the critical tunneling in the same units as params.g.  When
    the impurity decay alone exceeds the budget (denominator <= 0) no
    cavity can help; math.inf is returned as the distinguished
    "unreachable" value.
    """
    if not t_c > 0:
        raise InputError(f"t_c must be positive, got {t_c}")
    comp = polariton_fractions(params)
    denom = comp.c_ph_sq * t_c / loss.eta - comp.c_ex_sq * loss.purcell_f / loss.tau_e
    if denom <= 0:
        return math.inf
    return comp.c_ph_sq * params.omega_ph / denom


def bhm_ratio(params, t_c=None):
    """Interaction-to-polariton-tunneling ratio U / (|c_ph|^2 t_c) at lobe 1.

    t_c (units of g) is computed unless given.  Approaches 4(3 + 2 sqrt(2))
    ~ 23.31 for z = 4 as the impurity number grows.
    """
    if t_c is None:
        t_c, _ = meanfield.critical_tunneling(params, 1)
    u = interaction_energy(params) / params.g
    return u / (polariton_fractions(params).c_ph_sq * t_c)


def mode_volume(wavelength_nm, refractive_index):
    """Cavity mode volume (lambda / n)^3 in nm^3."""
    if wavelength_nm <= 0 or refractive_index <= 0:
        raise InputError("wavelength and refractive index must be positive")
    return (wavelength_nm / refractive_index) ** 3


def doping_density(big_n, wavelength_nm, refractive_index):
    """Bulk doping density (cm^-3) that puts big_n impurities in one mode volume."""
    if big_n < 0:
        raise InputError(f"big_n must be >= 0, got {big_n}")
    volume_cm3 = mode_volume(wavelength_nm, refractive_index) * 1e-21
    return big_n / volume_cm3
