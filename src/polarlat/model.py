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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionBudgetError, EigensolverError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Default coupling constant, rad/s.  The underlying figure of 33.3 GHz is an
#: ordinary frequency; pass ``angular=True`` to :func:`coupling_from_ghz` to
#: interpret the number as rad/s instead.
DEFAULT_COUPLING = 2.0 * math.pi * 33.3e9

#: Hard cap on the dense single-site basis dimension (memory guard).
DIMENSION_BUDGET = 4096

#: Site-energy models and impurity-count laws of the disorder scan, and its
#: quantile check: kept here, with the site model, so the CLI checks its
#: config against them without loading :mod:`polarlat.disorder`.
SITE_METHODS = ("collective", "exact")
N_DISTS = ("auto", "poisson", "binomial")


def quantile_in_range(q):
    """True for a usable central-quantile level, 0 < q < 0.5."""
    return 0.0 < q < 0.5


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
        if int(self.big_n) != self.big_n or self.big_n < 1:
            raise ValueError(f"big_n must be a positive integer, got {self.big_n}")
        if int(self.z) != self.z or self.z < 1:
            raise ValueError(f"z must be a positive integer, got {self.z}")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.omega_ph > 0 or not self.omega_ex > 0:
            raise ValueError("omega_ph and omega_ex must be positive")
        object.__setattr__(self, "big_n", int(self.big_n))
        object.__setattr__(self, "z", int(self.z))

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
class FockDickeBasis:
    """Truncated product basis, ordered lexicographically in (n_ph, e).

    State ``i`` is ``states[i] = (n_ph, e)`` with n_ph = 0..n_max (photon
    cutoff) and e = 0..big_n (excited impurities); the linear index is
    ``n_ph * (big_n + 1) + e``.  With :func:`build_site_hamiltonian` and
    :func:`lowest_eigenpair` it forms the dense oracle of the banded engine
    in :mod:`polarlat.meanfield`, which orders the states excitation-major.
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
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if big_n < 1:
        raise ValueError(f"big_n must be >= 1, got {big_n}")
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
        raise ValueError(
            f"basis built for big_n={basis.big_n}, params have big_n={params.big_n}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not math.isfinite(psi):
        raise ValueError(f"psi must be finite, got {psi}")

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
            val = params.g * math.sqrt(n + 1.0) * collective_amplitude(big_n, ex - 1)
            h[i, j] = val
            h[j, i] = val
        if n + 1 <= n_max:
            j = basis.index(n + 1, ex)
            val = -zt * psi * math.sqrt(n + 1.0)
            h[i, j] = val
            h[j, i] = val
    return h


def lowest_eigenpair(matrix):
    """Smallest eigenvalue and its unit eigenvector of a dense symmetric matrix.

    The dense oracle's eigensolver; it imports ``scipy.linalg`` on first use.
    The eigenvector sign is fixed so that its largest-magnitude component is
    positive (first such component on exact ties), making results
    deterministic across LAPACK builds.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    if m.shape[0] == 1:
        return float(m[0, 0]), np.array([1.0])
    import scipy.linalg as sla

    try:
        w, v = sla.eigh(m, subset_by_index=(0, 0))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(
            f"dense eigensolver failed on a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc
    vec = v[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    return float(w[0]), vec


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
    """
    if n < 0:
        raise ValueError(f"manifold index must be >= 0, got {n}")
    big_n = params.big_n
    k = np.arange(min(n, big_n) + 1)
    diag = (n - k) * params.detuning
    kk = k[:-1]
    off = params.g * np.sqrt((n - kk) * (big_n - kk) * (kk + 1.0))
    return ManifoldBlock(n=n, diagonal=diag.astype(float), off_diagonal=off)


@lru_cache(maxsize=65536)
def _manifold_energy_cached(omega_ph, omega_ex, g, big_n, z, n):
    block = manifold_block(SystemParams(omega_ph, omega_ex, g, big_n, z), n)
    return float(block.eigensystem()[0][0])


def manifold_energy(params, n):
    """Lowest eigenvalue of manifold n, relative to n*omega_ex (E(0) = 0)."""
    return _manifold_energy_cached(params.omega_ph, params.omega_ex, params.g,
                                   params.big_n, params.z, n)
