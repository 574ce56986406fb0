"""Single-site model of a microcavity coupled to N two-level impurities.

Conventions used throughout the package:

* hbar = 1, so every "energy" is an angular frequency.  A parameter set may
  be physical (rad/s) or dimensionless (g = 1); all formulas are homogeneous
  in the unit, so the same code serves both.
* The impurity ensemble is restricted to the symmetric ladder: a state is
  labelled by the photon number ``n_ph`` and the number of excited
  impurities ``e`` (0..N).  The collective raising amplitude between ``e``
  and ``e + 1`` is sqrt((N - e)(e + 1)).
* The mean-field drive enters through a real order parameter psi as
  ``-z t psi (a + a^dag) + z t psi^2``; the grand-canonical term is
  ``-mu (n_ph + e)``.

Diagonal entries are assembled from the detuning ``omega_ph - omega_ex`` and
from ``mu - omega_ex`` rather than from the raw frequencies.  The result is
algebraically identical but keeps physical-unit inputs (optical frequencies
around 1e15 rad/s against couplings around 1e11 rad/s) well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Default coupling constant, rad/s.  The underlying figure of 33.3 GHz is an
#: ordinary frequency; pass ``angular=True`` to :func:`coupling_from_ghz` to
#: interpret the number as rad/s instead.
DEFAULT_COUPLING = 2.0 * math.pi * 33.3e9

#: Hard cap on the single-site basis dimension (memory guard).
DIMENSION_BUDGET = 4096

#: Site-energy models, count laws, quantile check and count-table length of
#: the disorder scan: kept here, with the site model, so the CLI checks its
#: config against them without loading :mod:`polarlat.disorder`.
SITE_METHODS = ("collective", "exact")
N_DISTS = ("auto", "poisson", "binomial")


def quantile_in_range(q):
    """True for a usable central-quantile level, 0 < q < 0.5."""
    return 0.0 < q < 0.5


def count_table_length(mean):
    """Entries k < mean + 40 sqrt(mean) + 40 of a count law's CDF table,
    past which a Poisson tail (or a sub-Poisson one) is below 1e-100."""
    return int(mean + 40.0 * math.sqrt(mean)) + 40


def angular_frequency(wavelength_nm):
    """Angular frequency (rad/s) of light with the given vacuum wavelength."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


def coupling_from_ghz(value_ghz, angular=False):
    """Convert a coupling quoted in GHz to rad/s.

    ``angular=False`` (default) treats the number as an ordinary frequency
    and multiplies by 2*pi; ``angular=True`` takes it as rad/s already.
    """
    return value_ghz * 1e9 * (1.0 if angular else 2.0 * math.pi)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one lattice realization.

    omega_ph, omega_ex and g are the cavity resonance, the impurity
    transition frequency and the photon-impurity coupling (all rad/s, or any
    consistent unit); big_n is the impurity count per cavity and z the
    number of nearest-neighbour cavities.
    """

    omega_ph: float
    omega_ex: float
    g: float
    big_n: int
    z: int = 4

    def __post_init__(self):
        for name in ("big_n", "z"):
            value = getattr(self, name)
            if not (value >= 1 and value % 1 == 0):  # inf and nan fail too
                raise InputError(f"{name} must be a positive integer, got {value}")
            object.__setattr__(self, name, int(value))
        if not self.g > 0:
            raise InputError(f"g must be positive, got {self.g}")
        if not self.omega_ph > 0 or not self.omega_ex > 0:
            raise InputError("omega_ph and omega_ex must be positive")
        if not all(map(math.isfinite, (self.omega_ph, self.omega_ex, self.g))):
            raise InputError("omega_ph, omega_ex and g must be finite")

    @property
    def detuning(self):
        """Cavity-impurity detuning, always recomputed as omega_ph - omega_ex."""
        return self.omega_ph - self.omega_ex

    @classmethod
    def dimensionless(cls, big_n, detuning=0.0, z=4):
        """Parameter set with g = 1 and the requested detuning (units of g).

        Only frequency differences enter the site spectra, so the absolute
        transition frequency is an arbitrary positive base.
        """
        base = 1.0 + max(0.0, -detuning)
        return cls(omega_ph=base + detuning, omega_ex=base, g=1.0, big_n=big_n, z=z)

    @classmethod
    def physical(cls, big_n, detuning_g=0.0, z=4, g=DEFAULT_COUPLING,
                 wavelength_nm=817.0):
        """Physical parameter set anchored to an optical wavelength.

        The cavity frequency is 2*pi*c/wavelength and the impurity
        transition sits ``detuning_g * g`` below it.
        """
        omega_ph = angular_frequency(wavelength_nm)
        return cls(omega_ph=omega_ph, omega_ex=omega_ph - detuning_g * g,
                   g=g, big_n=big_n, z=z)


@dataclass(frozen=True)
class ManifoldBlock:
    """Tridiagonal block of one excitation manifold.

    Entry k describes the state with (n - k) photons and k excited
    impurities; energies are measured relative to n*omega_ex.
    """

    n: int
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def dimension(self):
        return len(self.diagonal)

    def to_dense(self):
        return (np.diag(self.diagonal) + np.diag(self.off_diagonal, 1)
                + np.diag(self.off_diagonal, -1))

    def eigensystem(self):
        """Ascending eigenvalues and unit eigenvectors (columns), by numpy's
        dense ``eigh``: the dimension is at most N + 1, and no scipy loads."""
        return np.linalg.eigh(self.to_dense())


def manifold_block(params, n):
    """Excitation-manifold block of dimension min(n, N) + 1.

    Diagonal entry for k excited impurities is (n - k) * detuning;
    the k <-> k+1 coupling is g*sqrt(n - k)*sqrt((N - k)(k + 1)).
    NumericalError if an entry is past the float range.
    """
    if n < 0:
        raise InputError(f"manifold index must be >= 0, got {n}")
    big_n = params.big_n
    k = np.arange(min(n, big_n) + 1)
    kk = k[:-1]
    with np.errstate(over="ignore"):
        diag = (n - k) * params.detuning
        # in floats, as (n - k)(N - k) can pass int64 for a large N
        off = params.g * np.sqrt((kk + 1.0) * (n - kk) * (big_n - kk))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalError(f"manifold {n} block is past the float range")
    return ManifoldBlock(n=n, diagonal=diag.astype(float), off_diagonal=off)


@lru_cache(maxsize=65536)
def _manifold_energy_cached(omega_ph, omega_ex, g, big_n, z, n):
    block = manifold_block(SystemParams(omega_ph, omega_ex, g, big_n, z), n)
    return float(block.eigensystem()[0][0])


def manifold_energy(params, n):
    """Lowest eigenvalue of manifold n, relative to n*omega_ex (E(0) = 0)."""
    return _manifold_energy_cached(params.omega_ph, params.omega_ex, params.g,
                                   params.big_n, params.z, n)
