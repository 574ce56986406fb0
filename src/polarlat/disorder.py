"""Site-to-site disorder: sampling, exact few-excitation energies,
fluctuation statistics, lobe survival and the insulator-accessibility scan.

Disorder model
--------------
Per site, three independent imperfections are drawn:

* cavity frequency: normal, mean ``params.omega_ph``, std ``sigma_omega``;
* couplings: each impurity gets g_k uniform on [g(1 - delta_g), g]
  (``delta_g`` is the dip width in units of g);
* impurity count: Poisson, or a sub-Poisson binomial matched to a target
  standard deviation ``n_sigma`` (see :func:`resolve_count_distribution`;
  integer binomial trials make the achievable std values discrete).

Each sample draws from its own counter-based stream keyed by
(seed, sample index), so single-sample results are reproducible under any
scheduling or parallel layout.  Draw order within a sample: one normal for
the cavity shift, one count draw (skipped when the count is deterministic),
then the coupling uniforms.

Fluctuation widths ``delta_e``/``delta_u`` are central-quantile half-widths
(default q = 0.005, i.e. half the 0.5%..99.5% span), chosen because the
lobe-destruction inequality concerns near-extremal site-to-site spreads;
standard deviations are reported alongside.  Both quantiles follow numpy's
default 'linear' rule and are read from one sort of the values (see
:func:`_quantile_halfwidth`), bit for bit as ``np.quantile`` gives them.

The grid scan :func:`iso_surface` reuses one pool of base draws across all
grid points (common random numbers), transformed per point, which makes the
surface smooth in the disorder widths.  The scan is bit-reproducible for a
fixed (seed, axes, sample_count) but its per-sample values differ from the
per-index streams of :func:`sample_site`.  Its counts invert the count
law's CDF: the smallest k with CDF(k) >= v for a uniform v, on a Poisson or
binomial CDF table summed in numpy from ``math.lgamma`` log-pmfs (see
:func:`_counts_from_uniform`; it matches ``scipy.stats``' ppf bit for bit in
the tests, and the module loads no scipy).

Site energies
-------------
The collective model replaces the couplings by one g_eff with
N g_eff^2 = sum g_k^2.  Its two-excitation energy (N >= 2) is the lowest
root of a tridiagonal 3x3 block, taken elementwise in closed form from
Smith's trigonometric formula (see :func:`_collective_u_batch`); batched
``eigvalsh`` on the block is kept only as the oracle
(:func:`polarlat.validate.collective_block_root`).  The exact model reuses
those closed forms where they are exact (E1, empty sites, N = 1) and is
dense only for N >= 2 (oracle: :func:`polarlat.validate.site_energies_exact`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import meanfield, observables
from ._fork import fork_map
from .errors import DisorderError
from .model import N_DISTS, SITE_METHODS, quantile_in_range

#: Caps on the two-excitation subspace dimension 1 + N + N(N-1)/2 and on
#: the bytes of dense two-excitation blocks solved in one batch.
SUBSPACE_BUDGET = 5500
_DENSE_BATCH_BYTES = 1 << 24

def _check_estimator(method, quantile):
    if method not in SITE_METHODS or not quantile_in_range(quantile):
        raise ValueError(f"need a method in {SITE_METHODS} and a quantile in "
                         f"(0, 0.5), got {method!r} and {quantile}")


@dataclass(frozen=True)
class DisorderSpec:
    """Widths and sampling controls of the site-disorder model.

    sigma_omega shares units with the parameter set it is applied to;
    delta_g is in units of g (so it must lie in [0, 1]); n_sigma is a
    target standard deviation in counts.
    """

    sigma_omega: float = 0.0
    delta_g: float = 0.0
    n_mean: float = 3.0
    n_sigma: float = 0.0
    n_dist: str = "auto"  # one of N_DISTS
    sample_count: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.sigma_omega < 0:
            raise DisorderError(f"sigma_omega must be >= 0, got {self.sigma_omega}")
        if not 0.0 <= self.delta_g <= 1.0:
            raise DisorderError(
                f"delta_g is in units of g and must lie in [0, 1], got {self.delta_g}")
        if not self.n_mean > 0:
            raise DisorderError(f"n_mean must be positive, got {self.n_mean}")
        if self.n_sigma < 0:
            raise DisorderError(f"n_sigma must be >= 0, got {self.n_sigma}")
        if self.n_dist not in N_DISTS:
            raise DisorderError(f"unknown n_dist {self.n_dist!r}")
        if (self.n_dist == "binomial" and self.n_sigma > 0
                and self.n_sigma ** 2 > self.n_mean):
            raise DisorderError(
                "binomial counts are sub-Poisson: need n_sigma^2 <= n_mean")
        if self.sample_count < 1:
            raise DisorderError(f"sample_count must be >= 1, got {self.sample_count}")


@dataclass(frozen=True)
class SiteSample:
    """One disorder realization of a single cavity."""

    omega_ph_site: float
    g_list: np.ndarray = field(repr=False)
    n_site: int


@dataclass(frozen=True)
class DisorderStats:
    """Aggregated site fluctuations; energies in the parameter set's units."""

    delta_e: float
    delta_u: float
    u_mean: float
    sample_count: int
    quantile_q: float
    e_std: float
    u_std: float
    empty_fraction: float  # share of samples with no impurity


def resolve_count_distribution(spec):
    """Resolve the impurity-count law to ("constant", n0), ("poisson", lam)
    or ("binomial", (m, p)).

    The binomial uses m*p = n_mean with p = 1 - n_sigma^2 / n_mean before
    rounding m to an integer; the realized standard deviation is therefore
    the closest achievable value, not n_sigma itself, and degenerates to a
    constant when m rounds to n_mean.  Poisson is used when
    n_sigma^2 >= n_mean (unless forced).
    """
    if spec.n_sigma == 0 and spec.n_dist != "poisson":
        return ("constant", int(round(spec.n_mean)))
    if spec.n_dist == "poisson" or (
            spec.n_dist == "auto" and spec.n_sigma ** 2 >= spec.n_mean):
        return ("poisson", float(spec.n_mean))
    p = 1.0 - spec.n_sigma ** 2 / spec.n_mean
    m = max(1, int(round(spec.n_mean / p)))
    p = min(1.0, spec.n_mean / m)
    if p == 1.0:
        return ("constant", m)
    return ("binomial", (m, p))


def _stream(seed, stream_index):
    # Philox is counter based; offsetting the 256-bit counter by
    # stream_index * 2^128 gives non-overlapping, scheduling-independent
    # substreams
    return np.random.Generator(np.random.Philox(key=seed,
                                                counter=stream_index << 128))


def sample_site(spec, params, stream_index):
    """Draw one site realization from substream (spec.seed, stream_index)."""
    rng = _stream(spec.seed, stream_index)
    omega = params.omega_ph + spec.sigma_omega * rng.standard_normal()
    kind, arg = resolve_count_distribution(spec)
    if kind == "constant":
        n = arg
    elif kind == "poisson":
        n = int(rng.poisson(arg))
    else:
        n = int(rng.binomial(*arg))
    g_list = params.g * (1.0 - spec.delta_g * rng.random(n))
    return SiteSample(omega_ph_site=float(omega), g_list=g_list, n_site=n)


def site_energies_collective(sample, omega_ex):
    """Fast route: map the site onto a uniform-coupling model.

    Uses g_eff = sqrt(sum g_k^2 / N).  The one-excitation energy is then
    exact for arbitrary couplings (only the bright combination couples);
    the two-excitation energy is approximate unless the couplings are
    uniform.  A batch of one through :func:`_collective_u_batch`.
    """
    ds = sample.omega_ph_site - omega_ex
    if sample.n_site == 0:
        return ds, 2.0 * ds, math.nan
    e1, u = _collective_u_batch(np.array([ds]),
                                np.array([np.sum(np.square(sample.g_list))]),
                                np.array([sample.n_site]))
    e1, u = float(e1[0]), float(u[0])
    return e1, u + 2.0 * e1, u


def _quantile_halfwidth(values, q):
    """Half the span between the q and 1 - q quantiles of values.

    numpy's default 'linear' rule from one sort, with the operations of
    ``np.quantile(values, [q, 1 - q])`` and so its bits (only a zero
    half-width may differ in sign, as numpy's partition may place -0.0 and
    0.0 otherwise); nan if any value is nan (nans sort last).
    """
    s = np.sort(values)
    if np.isnan(s[-1]):
        return math.nan
    lo, hi = (_linear_order_stat(s, (s.size - 1) * level) for level in (q, 1.0 - q))
    return 0.5 * float(hi - lo)


def _linear_order_stat(s, v):
    """Sorted s interpolated at virtual index v as np.quantile does it: past
    the last index it takes the last value with the weight counted from -1,
    and at weight >= 0.5 it interpolates down from the upper neighbour."""
    i = -1 if v >= s.size - 1 else math.floor(v)
    a, b = (s[-1], s[-1]) if i < 0 else (s[i], s[i + 1])
    t = v - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def disorder_stats(spec, params, method="exact", quantile=0.005):
    """Monte-Carlo fluctuation widths of the injection and interaction energy.

    Per sample, E_site is the exact one-excitation ground energy of the
    site (site frequency shift included) and U_site the two-excitation
    interaction energy; empty sites contribute the bare photon energy to
    E_site and are excluded from the U statistics.  Deterministic given
    spec.seed.  Either route is one batched kernel call.  The exact route's
    per-sample oracle is ``validate.site_energies_exact``.  The collective
    route's independent oracle is ``validate.collective_block_root``
    (batched ``eigvalsh`` of the two-excitation blocks);
    :func:`site_energies_collective` is a batch of one through the same
    kernel and checks only the batching.
    """
    _check_estimator(method, quantile)
    samples = [sample_site(spec, params, i) for i in range(spec.sample_count)]
    counts = np.array([s.n_site for s in samples])
    ds = np.array([s.omega_ph_site for s in samples]) - params.omega_ex
    if method == "exact":
        gk = np.zeros((counts.size, max(1, int(counts.max()))))
        for row, s in zip(gk, samples):
            row[:s.n_site] = s.g_list
        e_vals, u_vals = _exact_u_batch(ds, gk, counts)
    else:
        g2 = np.array([np.sum(np.square(s.g_list)) for s in samples])
        e_vals, u_vals = _collective_u_batch(ds, g2, counts)
    occupied = counts > 0
    if not occupied.any():
        raise DisorderError(
            f"all {spec.sample_count} samples have zero impurities; "
            "no interaction statistics available")
    u_vals = u_vals[occupied]
    return DisorderStats(
        delta_e=_quantile_halfwidth(e_vals, quantile),
        delta_u=_quantile_halfwidth(u_vals, quantile),
        u_mean=float(np.mean(u_vals)),
        sample_count=spec.sample_count,
        quantile_q=quantile,
        e_std=float(np.std(e_vals)),
        u_std=float(np.std(u_vals)),
        empty_fraction=int(np.count_nonzero(~occupied)) / spec.sample_count)


def lobe_survival(u, delta_e, delta_u, n):
    """Does Mott lobe n survive the fluctuations?

    The lobe is destroyed once 2*delta_e + (2n - 1)*delta_u >= u (the
    inequality is non-strict: the boundary case does not survive).
    Returns (survives, effective_width) with the width clipped at zero.
    """
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if n < 1:
        raise ValueError(f"lobe index must be >= 1, got {n}")
    width = _lobe_width(u, delta_e, delta_u, n)
    return width > 0.0, max(0.0, width)


def _lobe_width(u, delta_e, delta_u, n):
    """Unclipped width u - 2 delta_e - (2n - 1) delta_u of lobe n, elementwise."""
    return u - 2.0 * delta_e - (2.0 * n - 1.0) * delta_u


def _shrunken_tc(t_c, width, clean_width):
    """The linear shrinkage model, elementwise: t_c times the lobe width
    clipped at zero over the clean width."""
    return t_c * np.maximum(0.0, width) / clean_width


def clean_lobe_width(params, n):
    """Width of Mott lobe n at t = 0, in the parameter set's units."""
    lo, hi = meanfield.mott_lobe_mu_range(params, n)
    return (hi - lo) * params.g


def bg_mi_tunneling(params, stats, n):
    """Critical tunneling of the disorder-shrunken lobe, units of g.

    Linear shrinkage model: the clean t_c is scaled by the surviving lobe
    width (from the disorder-mean interaction energy minus the fluctuation
    penalty) over the clean width; zero when the lobe does not survive.
    The mapping from the survival inequality to a tunneling scale is a
    modeling choice; the raw (delta_e, delta_u, u_mean) triple in ``stats``
    lets alternative mappings be applied downstream.
    """
    t_c, _ = meanfield.critical_tunneling(params, n)
    _, width = lobe_survival(stats.u_mean, stats.delta_e, stats.delta_u, n)
    return float(_shrunken_tc(t_c, width, clean_lobe_width(params, n)))


# ---------------------------------------------------------------------------
# vectorized common-random-numbers engine for grid scans


def _counts_from_uniform(v, kind, arg):
    """Inverse-CDF impurity counts: the smallest k with CDF(k) >= v.

    The CDF table comes from log-pmfs (``math.lgamma``): below 1/2 it is the
    running sum from k = 0, above it 1 minus the tail summed from the far
    end, so both ends keep their relative accuracy.  A Poisson(lam) table
    stops at k < lam + 40 sqrt(lam) + 40, where the tail left out is below
    1e-100, so its last entry is 1 and every v < 1 finds a k.
    """
    if kind == "constant":
        return np.full(v.shape, arg, dtype=np.int64)
    if kind == "poisson":
        k = np.arange(int(arg + 40.0 * math.sqrt(arg)) + 40)
        log_pmf = k * math.log(arg) - arg - _log_factorials(k)
    else:
        m, p = arg
        k = np.arange(m + 1)
        log_pmf = (math.lgamma(m + 1.0) - _log_factorials(k) - _log_factorials(m - k)
                   + k * math.log(p) + (m - k) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    head = np.cumsum(pmf)
    tail = np.zeros(pmf.size)  # tail[k] = sum of pmf[k + 1:]
    tail[:-1] = np.cumsum(pmf[:0:-1])[::-1]
    cdf = np.where(head < 0.5, head, 1.0 - tail)
    return np.searchsorted(cdf, v, side="left").astype(np.int64)


def _log_factorials(k):
    return np.array([math.lgamma(j + 1.0) for j in k.tolist()])


def _collective_u_batch(ds, g2, counts):
    """Collective-model energies (e1, u) of a batch of sites.

    ds is the site detuning, g2 the summed squared coupling and counts the
    impurity number N per site.  e1 is the bright-mode one-excitation root
    (ds on an empty site) and u = e2 - 2 e1 (nan on an empty site).  For
    N >= 2, e2 is the lowest root of the tridiagonal two-excitation block
    [[2d, a, 0], [a, d, b], [0, b, 0]] with a^2 = 2 g2 and
    b^2 = a^2 (N - 1) / N, in closed form (O. K. Smith, Commun. ACM 4, 168,
    1961): with p^2 = (d^2 + a^2 + b^2) / 3 and r = d (a^2 - b^2) / (2 p^3),
    e2 = d + 2 p cos(arccos(r) / 3 + 2 pi / 3).  Here |r| <= 1 / (2N - 1),
    so the root is well conditioned.  A single impurity has no third state:
    e2 = 3d/2 - sqrt(d^2/4 + 2 g2).
    """
    e1 = np.where(counts > 0, 0.5 * ds - np.sqrt(0.25 * ds * ds + g2), ds)
    u = np.full(ds.shape, np.nan)
    one = np.flatnonzero(counts == 1)
    d = ds[one]
    u[one] = 1.5 * d - np.sqrt(0.25 * d * d + 2.0 * g2[one]) - 2.0 * e1[one]
    many = np.flatnonzero(counts >= 2)
    d, a2 = ds[many], 2.0 * g2[many]
    gap = a2 / counts[many]  # a^2 - b^2
    p = np.sqrt((d * d + 2.0 * a2 - gap) / 3.0)
    r = np.clip(d * gap / (2.0 * p ** 3), -1.0, 1.0)
    e2 = d + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)
    u[many] = e2 - 2.0 * e1[many]
    return e1, u


def _two_excitation_dim(n):
    """1 + N + N(N-1)/2, the two-excitation subspace dimension of N
    impurities; DisorderError above SUBSPACE_BUDGET."""
    dim = 1 + n + n * (n - 1) // 2
    if dim > SUBSPACE_BUDGET:
        raise DisorderError(f"two-excitation subspace dimension {dim} exceeds "
                            f"budget {SUBSPACE_BUDGET} (site has {n} impurities)")
    return dim


def _exact_u_batch(ds, gk, counts):
    """Exact inhomogeneous energies (e1, u) of a batch of sites.

    ds and counts as in :func:`_collective_u_batch`; row i of gk holds the
    couplings of site i in its first counts[i] columns (later columns are
    ignored).  The collective closed forms are exact for e1 (only the bright
    mode couples), empty sites and N = 1; for each count N >= 2, u is
    overwritten from the lowest root of the dense two-excitation block,
    solved in batches of at most _DENSE_BATCH_BYTES of blocks.  The budget
    is checked for the largest count before any dense work.
    """
    _two_excitation_dim(int(counts.max(initial=0)))
    g = np.where(np.arange(gk.shape[1]) < counts[:, None], gk, 0.0)
    e1, u = _collective_u_batch(ds, np.sum(g * g, axis=1), counts)
    for nv in np.unique(counts[counts >= 2]):
        dim = _two_excitation_dim(nv)
        idx = np.arange(1, 1 + nv)
        # pair state (k, l), k < l, couples to single k by g_l and to l by g_k
        k, l = np.triu_indices(nv, 1)
        col = 1 + nv + np.arange(k.size)
        rows = np.nonzero(counts == nv)[0]
        step = max(1, _DENSE_BATCH_BYTES // (8 * dim * dim))
        for sel in np.split(rows, range(step, rows.size, step)):
            gs = g[sel, :nv]
            h = np.zeros((sel.size, dim, dim))
            h[:, 0, 0] = 2.0 * ds[sel]
            h[:, idx, idx] = ds[sel][:, None]
            h[:, 0, idx] = h[:, idx, 0] = math.sqrt(2.0) * gs
            h[:, 1 + k, col] = h[:, col, 1 + k] = gs[:, l]
            h[:, 1 + l, col] = h[:, col, 1 + l] = gs[:, k]
            u[sel] = np.linalg.eigvalsh(h)[:, 0] - 2.0 * e1[sel]
    return e1, u


@dataclass(frozen=True)
class IsoSurfaceScan:
    """Observability marker f over a 3-D grid of disorder widths.

    f = |c_ph|^2 * t_c_disordered - safety_factor * polariton_loss_rate;
    f >= 0 means the insulator transition remains reachable.  Intercepts
    are the largest single-axis widths (other widths at their grid minima)
    with f >= 0, linearly interpolated between grid nodes; they equal the
    axis end when f never turns negative there (censored).
    """

    sigma_omega_axis: np.ndarray
    delta_g_axis: np.ndarray
    n_sigma_axis: np.ndarray
    f: np.ndarray
    delta_e: np.ndarray
    delta_u: np.ndarray
    u_mean: np.ndarray
    t_c_disordered: np.ndarray  # units of g
    boundary_points: np.ndarray
    intercepts: dict
    t_c_clean: float  # units of g
    u_clean: float
    loss_rate: float
    safety_factor: float
    uniform_sign: bool


def _axis_intercept(axis, f_line):
    if f_line[0] < 0:
        return 0.0, False
    below = np.nonzero(f_line < 0)[0]
    if below.size == 0:
        return float(axis[-1]), True
    j = int(below[0])
    x0, x1 = axis[j - 1], axis[j]
    f0, f1 = f_line[j - 1], f_line[j]
    return float(x0 + (x1 - x0) * f0 / (f0 - f1)), False


def iso_surface(params, loss, sigma_omega_axis, delta_g_axis, n_sigma_axis,
                n_mean=None, sample_count=10_000, seed=0, n_dist="auto",
                method="collective", quantile=0.005, safety_factor=1.0,
                workers=1):
    """Scan the disorder-width grid for the insulator-accessibility surface.

    ``params`` is the clean reference system (its big_n should match
    round(n_mean)); ``loss`` supplies the cavity Q and impurity decay.  The
    marker f compares the polariton tunneling rate of the shrunken lobe
    against safety_factor times the loss rate.  Deterministic for fixed
    (seed, axes, sample_count).  The kernel, quantiles and mean run once per
    (sigma_omega, delta_g, distinct count law); ``n_sigma`` values that
    resolve to the same law (:func:`resolve_count_distribution`) share
    those results, which equal a separate solve of each value.  The
    delta_g rows run in ``min(workers, rows)`` blocks of consecutive rows,
    one per process: the calling process and forked children on Linux, the
    calling process alone elsewhere.  Every row is a function of base draws
    made before any fork, so results are bit-identical for any ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_estimator(method, quantile)
    sig_ax, dg_ax, ns_ax = axes = [meanfield.ascending_axis(name, ax) for name, ax in (
        ("sigma_omega_axis", sigma_omega_axis), ("delta_g_axis", delta_g_axis),
        ("n_sigma_axis", n_sigma_axis))]
    if np.any(dg_ax < 0) or np.any(dg_ax > 1):
        raise DisorderError("delta_g axis must lie within [0, 1] (units of g)")
    if n_mean is None:
        n_mean = float(params.big_n)
    if int(round(n_mean)) != params.big_n:
        raise DisorderError(
            f"clean reference has big_n={params.big_n} but the count law is "
            f"centred on n_mean={n_mean}; the marker would mix inconsistent "
            "systems")

    t_c_clean, _ = meanfield.critical_tunneling(params, 1)
    u_clean = clean_lobe_width(params, 1)
    comp = observables.polariton_fractions(params)
    gamma = observables.polariton_loss_rate(params, loss)
    t_c_phys = t_c_clean * params.g

    count = int(sample_count)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal(count)
    v = rng.random(count)
    count_laws = [resolve_count_distribution(
        DisorderSpec(n_mean=n_mean, n_sigma=float(ns), n_dist=n_dist,
                     sample_count=count, seed=seed)) for ns in ns_ax]
    laws = list(dict.fromkeys(count_laws))  # distinct, in axis order
    n_mats = [_counts_from_uniform(v, kind, arg) for kind, arg in laws]
    if not all(counts.any() for counts in n_mats):
        raise DisorderError("impurity-count law produced only empty sites")
    k_pool = max(int(n.max()) for n in n_mats)
    w = rng.random((count, k_pool))

    def widths(rows):
        """(delta_e, delta_u, u_mean) x sigma_omega x row x distinct law for
        these delta_g rows."""
        out = np.empty((3, sig_ax.size, len(rows), len(laws)))
        # the couplings depend on delta_g alone and the occupied sites on the
        # count law alone, so each sigma_omega row reuses them
        for b, dg in enumerate(dg_ax[rows]):
            fac = 1.0 - dg * w
            gk = params.g * fac if method == "exact" else None
            cumsq = np.cumsum(fac * fac, axis=1)
            for c, counts in enumerate(n_mats):
                occupied = np.flatnonzero(counts)
                g2 = np.zeros(count)
                g2[occupied] = params.g ** 2 * cumsq[occupied, counts[occupied] - 1]
                for a, sig in enumerate(sig_ax):
                    ds = params.detuning + sig * z
                    e1, u = (_exact_u_batch(ds, gk, counts) if method == "exact"
                             else _collective_u_batch(ds, g2, counts))
                    u_ok = u[occupied]
                    out[:, a, b, c] = (_quantile_halfwidth(e1, quantile),
                                       _quantile_halfwidth(u_ok, quantile),
                                       float(np.mean(u_ok)))
        return out

    # a block is one loop: a call per row would free the row's arrays on
    # return, and malloc would hand their pages back to the system and fault
    # fresh ones in for the next row
    blocks = np.array_split(np.arange(dg_ax.size), min(workers, dg_ax.size))
    # one column per distinct law, copied to every n_sigma that resolves to it
    law_index = [laws.index(law) for law in count_laws]
    delta_e, delta_u, u_mean = np.concatenate(
        fork_map(widths, blocks, workers), axis=2)[..., law_index]

    t_dis = _shrunken_tc(t_c_clean, _lobe_width(u_mean, delta_e, delta_u, 1), u_clean)
    f = comp.c_ph_sq * t_dis * params.g - safety_factor * gamma

    boundary = []
    for axis_dim in range(3):
        fm = np.moveaxis(f, axis_dim, 0)
        ax = axes[axis_dim]
        ax_j, ax_k = (axes[d] for d in range(3) if d != axis_dim)
        for i in range(ax.size - 1):
            sign_change = (fm[i] >= 0) != (fm[i + 1] >= 0)
            for j, k in zip(*np.nonzero(sign_change)):
                f0, f1 = fm[i, j, k], fm[i + 1, j, k]
                coords = [ax_j[j], ax_k[k]]
                coords.insert(axis_dim, ax[i] + f0 / (f0 - f1) * (ax[i + 1] - ax[i]))
                boundary.append(coords)
    boundary = np.array(boundary) if boundary else np.empty((0, 3))

    intercepts = {}
    for name, axis_dim in (("sigma_omega", 0), ("delta_g", 1), ("n_sigma", 2)):
        sel = tuple(slice(None) if d == axis_dim else 0 for d in range(3))
        value, censored = _axis_intercept(axes[axis_dim], f[sel])
        intercepts[name] = {"value": value, "censored": censored}

    return IsoSurfaceScan(
        sigma_omega_axis=sig_ax, delta_g_axis=dg_ax, n_sigma_axis=ns_ax,
        f=f, delta_e=delta_e, delta_u=delta_u, u_mean=u_mean,
        t_c_disordered=t_dis, boundary_points=boundary, intercepts=intercepts,
        t_c_clean=t_c_clean, u_clean=u_clean, loss_rate=gamma,
        safety_factor=safety_factor,
        uniform_sign=bool((f >= 0).all() or (f < 0).all()))
