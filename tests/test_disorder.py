import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polarlat
from polarlat import disorder
from polarlat.disorder import (DisorderSpec, DisorderStats, _base_draws,
                               _collective_u_batch, _counts_from_uniform,
                               _exact_u_batch, _quantile_halfwidth,
                               bg_mi_tunneling, clean_lobe_width,
                               disorder_stats, iso_surface, lobe_survival,
                               resolve_count_distribution)
from polarlat.errors import DimensionBudgetError, InputError, NumericalError
from polarlat.meanfield import critical_tunneling
from polarlat.model import N_DISTS, SITE_METHODS, SystemParams
from polarlat.observables import (LossParams, interaction_energy,
                                  polariton_fractions, polariton_loss_rate)
from polarlat.validate import collective_block_root, site_energies_exact

P = SystemParams.dimensionless(3, 12.0)


def draw_sites(spec, params):
    """(ds, gk, counts) of spec's samples from the base draws of
    disorder_stats: the site detunings, the couplings (row i holds site i's
    in its first counts[i] columns) and the impurity counts."""
    z, (counts,), w = _base_draws(spec.seed, spec.sample_count,
                                  [resolve_count_distribution(spec)])
    return (params.detuning + spec.sigma_omega * z,
            params.g * (1.0 - spec.delta_g * w), counts)


def collective_energies(ds, gk, counts):
    """(e1, u) of each site from the collective kernel, with each site's
    squared couplings summed in column order, as the scan's running sum
    adds them when g = 1."""
    g2 = np.array([sum(g * g for g in row[:n]) for row, n in zip(gk, counts)])
    return _collective_u_batch(ds, g2, counts)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma_omega=-1.0),
        dict(delta_g=1.5),
        dict(n_mean=0.0),
        dict(n_sigma=-0.1),
        dict(n_dist="weird"),
        dict(n_dist="binomial", n_mean=3.0, n_sigma=2.0),
        dict(n_dist="binomial", n_mean=4.0, n_sigma=2.0),  # p = 0
        dict(sample_count=0),
        dict(sigma_omega=math.nan),
        dict(sigma_omega=math.inf),
        dict(n_mean=math.inf),
        dict(n_sigma=math.nan),
        dict(n_sigma=math.inf),
        dict(sample_count=2.5),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(InputError):
            DisorderSpec(**kwargs)


class TestCountDistribution:
    def test_zero_width_is_constant(self):
        assert resolve_count_distribution(DisorderSpec(n_mean=3.0)) == ("constant", 3)

    def test_poisson_when_width_large(self):
        kind, lam = resolve_count_distribution(
            DisorderSpec(n_mean=3.0, n_sigma=2.0))
        assert kind == "poisson" and lam == 3.0

    def test_binomial_matches_moments(self):
        kind, (m, p) = resolve_count_distribution(
            DisorderSpec(n_mean=3.0, n_sigma=0.8))
        assert kind == "binomial"
        assert m * p == pytest.approx(3.0, rel=1e-12)
        assert m * p * (1 - p) == pytest.approx(0.75, abs=0.2)

    def test_small_target_degenerates_to_constant(self):
        # integer trial counts cannot realize every sub-Poisson width
        kind, n0 = resolve_count_distribution(
            DisorderSpec(n_mean=3.0, n_sigma=0.3))
        assert kind == "constant" and n0 == 3


class TestCountLaw:
    # the CDF-table inverse against scipy.stats' discrete ppf, bit for bit,
    # on random uniforms and the extremes 0, 1e-300 and 1 - 2^-53
    V = np.concatenate([np.random.default_rng(7).random(100_000),
                        [0.0, 1e-300, 1.0 - 2.0 ** -53]])

    @pytest.mark.parametrize("n_mean,n_sigma,n_dist,kind", [
        (1.0, 0.7, "auto", "binomial"),
        (3.0, 0.8, "auto", "binomial"),
        (3.0, 1.05, "auto", "binomial"),
        (8.0, 2.0, "auto", "binomial"),
        (20.0, 3.0, "auto", "binomial"),
        (3.0, 2.0, "auto", "poisson"),
        (1.0, 0.5, "poisson", "poisson"),
        (8.0, 1.0, "poisson", "poisson"),
        (20.0, 5.0, "auto", "poisson"),
        # the ends of the fixed-length Poisson table and a long binomial one
        (0.6, 1.0, "auto", "poisson"),
        (60.0, 8.0, "auto", "poisson"),
        (200.0, 15.0, "auto", "poisson"),
        (500.0, 10.0, "auto", "binomial"),
        # binomial tables cut at the Poisson length: m = 1,268 (1,269 entries
        # cut to 112) and m = 343,257,802
        (3.0, 1.73, "auto", "binomial"),
        (3.0, 1.7320508, "auto", "binomial"),
    ])
    def test_matches_scipy_ppf(self, n_mean, n_sigma, n_dist, kind):
        from scipy import stats

        law = resolve_count_distribution(
            DisorderSpec(n_mean=n_mean, n_sigma=n_sigma, n_dist=n_dist))
        assert law[0] == kind
        if kind == "poisson":
            raw = stats.poisson.ppf(self.V, law[1])
        else:
            raw = stats.binom.ppf(self.V, *law[1])
        expected = np.maximum(raw, 0).astype(np.int64)
        got = _counts_from_uniform(self.V, *law)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_scan_does_not_import_scipy_stats(self):
        code = (
            "import sys\n"
            "from polarlat.disorder import iso_surface\n"
            "from polarlat.model import SystemParams\n"
            "from polarlat.observables import LossParams\n"
            "p = SystemParams.physical(big_n=3, detuning_g=12.0)\n"
            "iso_surface(p, LossParams(q_cavity=1e6), [0.0], [0.0, 0.1],"
            " [0.0, 2.0], n_mean=3.0, sample_count=50)\n"
            "print('scipy.stats' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarlat.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestSampling:
    def test_zero_widths_reproduce_base(self):
        ds, gk, counts = draw_sites(DisorderSpec(n_mean=3.0, sample_count=12,
                                                 seed=5), P)
        for i in (0, 3, 11):
            assert ds[i] == P.detuning
            assert counts[i] == 3
            assert np.all(gk[i, :counts[i]] == P.g)

    def test_coupling_bound_is_exact(self):
        spec = DisorderSpec(delta_g=0.14, n_mean=4.0, sample_count=4000, seed=9)
        _, gk, counts = draw_sites(spec, P)
        couplings = gk[np.arange(gk.shape[1]) < counts[:, None]]
        assert couplings.min() >= (1.0 - 0.14) * P.g
        assert couplings.max() <= P.g

    def test_poisson_moments(self):
        spec = DisorderSpec(n_mean=3.0, n_sigma=math.sqrt(3.0), n_dist="poisson",
                            sample_count=100_000, seed=2)
        counts = draw_sites(spec, P)[2]
        assert abs(counts.mean() - 3.0) < 0.02
        assert abs(counts.var() - 3.0) < 0.1


class TestSiteEnergies:
    def test_homogeneous_matches_ladder(self):
        p0 = SystemParams.dimensionless(8)
        ds, gk, counts = draw_sites(DisorderSpec(n_mean=8.0, sample_count=1,
                                                 seed=1), p0)
        e1, e2, u = site_energies_exact(ds[0], gk[0, :counts[0]])
        assert e1 == pytest.approx(-math.sqrt(8.0), abs=1e-10)
        assert e2 == pytest.approx(-math.sqrt(30.0), abs=1e-10)
        assert u == pytest.approx(interaction_energy(p0), abs=1e-10)

    def test_two_site_bright_mode(self):
        p0 = SystemParams.dimensionless(2)
        ds, gk, counts = draw_sites(DisorderSpec(delta_g=0.5, n_mean=2.0,
                                                 sample_count=5, seed=3), p0)
        g_list = gk[4, :counts[4]]
        e1, _, _ = site_energies_exact(ds[4], g_list)
        assert e1 == pytest.approx(-math.sqrt(np.sum(g_list ** 2)), abs=1e-12)

    def test_single_impurity_ladder(self):
        p0 = SystemParams.dimensionless(1)
        ds, gk, counts = draw_sites(DisorderSpec(delta_g=0.3, n_mean=1.0,
                                                 sample_count=3, seed=6), p0)
        g1 = gk[2, 0]
        _, _, u = site_energies_exact(ds[2], gk[2, :counts[2]])
        assert u == pytest.approx(g1 * (2.0 - math.sqrt(2.0)), abs=1e-12)

    def test_collective_equals_exact_when_uniform(self):
        for big_n in (1, 2, 5, 9):
            p0 = SystemParams.dimensionless(big_n, 3.0)
            ds, gk, counts = draw_sites(DisorderSpec(
                n_mean=float(big_n), sample_count=1, seed=0), p0)
            exact = site_energies_exact(ds[0], gk[0, :counts[0]])
            e1, u = collective_energies(ds, gk, counts)
            assert exact[0] == pytest.approx(e1[0], abs=1e-10)
            assert exact[1] == pytest.approx(u[0] + 2.0 * e1[0], abs=1e-10)

    def test_collective_one_excitation_always_exact(self):
        spec = DisorderSpec(delta_g=0.6, n_mean=6.0, n_sigma=2.0,
                            sample_count=30, seed=13)
        ds, gk, counts = draw_sites(spec, P)
        e1c, _ = collective_energies(ds, gk, counts)
        for i, n in enumerate(counts):
            if n == 0:
                continue
            e1x = site_energies_exact(ds[i], gk[i, :n])[0]
            assert e1x == pytest.approx(e1c[i], abs=1e-10)

    def test_collective_u_within_five_percent(self):
        p6 = SystemParams.dimensionless(6)
        spec = DisorderSpec(delta_g=0.14, n_mean=6.0, sample_count=25, seed=17)
        ds, gk, counts = draw_sites(spec, p6)
        _, uc = collective_energies(ds, gk, counts)
        for i, n in enumerate(counts):
            ux = site_energies_exact(ds[i], gk[i, :n])[2]
            assert abs(uc[i] - ux) / abs(ux) < 0.05

    @settings(max_examples=200, deadline=None)
    @given(sites=st.lists(st.tuples(
        st.integers(2, 50),
        st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
        st.floats(0.05, 1.0)), min_size=1, max_size=16))
    def test_closed_form_root_matches_eigvalsh(self, sites):
        counts = np.array([n for n, _, _ in sites])
        ds = np.array([d for _, d, _ in sites])
        g2 = np.array([n * ge2 for n, _, ge2 in sites])
        e1, u = _collective_u_batch(ds, g2, counts)
        root = collective_block_root(ds, g2, counts)
        assert np.all(np.abs(u + 2.0 * e1 - root) <= 1e-12)
        # u = e2 - 2 e1 carries the root's absolute error; where it is a
        # cancellation (|u| << |e2| at large negative detuning) that error,
        # the oracle's included, exceeds 1e-9 |u|
        u_ref = root - 2.0 * e1
        assert np.all(np.abs(u - u_ref) <= 1e-9 * np.abs(u_ref) + 1e-12)

    def test_empty_and_single_sites_in_a_batch(self):
        ds = np.array([0.7, -1.3, 2.0, 0.0])
        g2 = np.array([0.0, 0.8, 0.8, 3.0])
        counts = np.array([0, 1, 3, 3])
        e1, u = _collective_u_batch(ds, g2, counts)
        assert e1[0] == 0.7 and math.isnan(u[0])
        assert u[1] == pytest.approx(
            1.5 * ds[1] - math.sqrt(0.25 * ds[1] ** 2 + 1.6) - 2.0 * e1[1],
            rel=1e-15)
        assert u[2:] + 2.0 * e1[2:] == pytest.approx(
            collective_block_root(ds[2:], g2[2:], counts[2:]), abs=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(sites=st.lists(st.tuples(
        st.integers(0, 9), st.floats(-20.0, 20.0), st.floats(0.0, 1.0),
        st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)),
        min_size=1, max_size=12))
    def test_exact_batch_matches_dense_oracle(self, sites):
        # mixed batches: empty, single and N >= 2 sites; the columns past
        # each site's count hold a junk coupling that must be ignored
        counts = np.array([n for n, _, _, _ in sites])
        ds = np.array([d for _, d, _, _ in sites])
        gk = np.full((len(sites), 9), 5.0)
        for row, (n, _, dg, w) in zip(gk, sites):
            row[:n] = 1.0 - dg * np.array(w[:n])
        e1, u = _exact_u_batch(ds, gk, counts)
        for i, n in enumerate(counts):
            e1x, e2x, ux = site_energies_exact(ds[i], gk[i, :n])
            scale = 1e-12 * max(1.0, abs(ds[i]))
            assert abs(e1[i] - e1x) <= scale
            if n == 0:
                assert math.isnan(u[i]) and math.isnan(ux)
                continue
            assert abs(u[i] + 2.0 * e1[i] - e2x) <= scale
            assert abs(u[i] - ux) <= 1e-9 * abs(ux) + 1e-12

    def test_empty_site(self):
        ds, gk, counts = draw_sites(DisorderSpec(
            n_mean=0.4, n_sigma=0.63, seed=1, n_dist="poisson",
            sample_count=20), P)
        for i in np.flatnonzero(counts == 0):
            e1, e2, u = site_energies_exact(ds[i], gk[i, :0])
            assert e1 == ds[i]
            assert math.isnan(u)

    def test_budget_guard(self):
        big = SystemParams.dimensionless(150)
        ds, gk, counts = draw_sites(DisorderSpec(n_mean=150.0, sample_count=1,
                                                 seed=0), big)
        with pytest.raises(DimensionBudgetError):
            site_energies_exact(ds[0], gk[0, :counts[0]])

    def test_exact_batch_chunks_match_one_batch(self, monkeypatch):
        # N = 20 (dim 211): 16 sites in one batch, then in batches of 3
        rng = np.random.default_rng(5)
        ds = rng.normal(12.0, 0.5, 16)
        gk = 1.0 - 0.4 * rng.random((16, 20))
        counts = np.full(16, 20)
        e1, u = _exact_u_batch(ds, gk, counts)
        calls = []

        def counting_eigvalsh(h, eigvalsh=np.linalg.eigvalsh):
            calls.append(len(h))
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(polarlat.disorder, "_DENSE_BATCH_BYTES",
                            3 * 8 * 211 * 211)
        e1_chunked, u_chunked = _exact_u_batch(ds, gk, counts)
        assert calls == [3, 3, 3, 3, 3, 1]
        np.testing.assert_array_equal(e1_chunked, e1)
        np.testing.assert_array_equal(u_chunked, u)


class TestStats:
    def test_zero_widths_give_zero_spread(self):
        stats = disorder_stats(DisorderSpec(n_mean=3.0, sample_count=300, seed=4), P)
        assert stats.delta_e == 0.0 and stats.delta_u == 0.0
        assert stats.u_mean == pytest.approx(interaction_energy(P), rel=1e-12)
        assert stats.empty_fraction == 0.0

    def test_frequency_disorder_first_order(self):
        # small cavity-frequency spread: the injection-energy width is the
        # photon fraction times the normal-quantile width, and the
        # interaction width is an order of magnitude smaller
        sigma = 0.02
        spec = DisorderSpec(sigma_omega=sigma, n_mean=3.0, sample_count=20_000,
                            seed=11)
        stats = disorder_stats(spec, P, method="collective")
        z_995 = 2.575829303548901  # central 99% normal quantile
        predicted = z_995 * sigma * polariton_fractions(P).c_ph_sq
        assert stats.delta_e == pytest.approx(predicted, rel=0.05)
        assert stats.delta_u < 0.75 * stats.delta_e

    def test_sample_count_stability(self):
        spec = DisorderSpec(sigma_omega=0.3, delta_g=0.1, n_mean=3.0,
                            n_sigma=0.8, sample_count=4000, seed=23)
        a = disorder_stats(spec, P, method="collective")
        b = disorder_stats(replace(spec, sample_count=8000), P,
                           method="collective")
        assert a.delta_e == pytest.approx(b.delta_e, rel=0.02)
        assert a.delta_u == pytest.approx(b.delta_u, rel=0.02)

    def test_deterministic(self):
        spec = DisorderSpec(sigma_omega=0.2, delta_g=0.2, n_mean=3.0,
                            n_sigma=1.9, sample_count=500, seed=31)
        assert disorder_stats(spec, P) == disorder_stats(spec, P)

    def test_collective_batch_matches_per_sample_oracle(self):
        # Poisson counts put empty, single and many-impurity sites in one batch
        spec = DisorderSpec(sigma_omega=0.3, delta_g=0.3, n_mean=3.0,
                            n_sigma=2.0, n_dist="poisson", sample_count=600,
                            seed=23)
        stats = disorder_stats(spec, P, method="collective")
        ds, gk, counts = draw_sites(spec, P)
        e_vals, u_vals = collective_energies(ds, gk, counts)
        u_vals = u_vals[counts > 0]
        lo, hi = np.quantile(e_vals, [0.005, 0.995])
        assert stats.delta_e == 0.5 * float(hi - lo)
        lo, hi = np.quantile(u_vals, [0.005, 0.995])
        assert stats.delta_u == pytest.approx(0.5 * float(hi - lo), rel=1e-12)
        assert stats.u_mean == pytest.approx(np.mean(u_vals), rel=1e-12)
        empty = spec.sample_count - len(u_vals)
        assert stats.empty_fraction == empty / spec.sample_count
        assert 0.0 < stats.empty_fraction < 0.2

    def test_exact_batch_matches_per_sample_oracle(self):
        # Poisson counts put empty, single and many-impurity sites in one batch
        spec = DisorderSpec(sigma_omega=0.3, delta_g=0.3, n_mean=3.0,
                            n_sigma=2.0, n_dist="poisson", sample_count=600,
                            seed=23)
        stats = disorder_stats(spec, P, method="exact")
        e_vals, u_vals = [], []
        for ds, g_row, n in zip(*draw_sites(spec, P)):
            e1, _, u = site_energies_exact(ds, g_row[:n])
            e_vals.append(e1)
            if n:
                u_vals.append(u)
        lo, hi = np.quantile(e_vals, [0.005, 0.995])
        assert stats.delta_e == pytest.approx(0.5 * float(hi - lo), rel=1e-12)
        lo, hi = np.quantile(u_vals, [0.005, 0.995])
        assert stats.delta_u == pytest.approx(0.5 * float(hi - lo), rel=1e-12)
        assert stats.u_mean == pytest.approx(np.mean(u_vals), rel=1e-12)
        assert stats.e_std == pytest.approx(np.std(e_vals), rel=1e-12)
        assert stats.u_std == pytest.approx(np.std(u_vals), rel=1e-12)
        empty = spec.sample_count - len(u_vals)
        assert stats.empty_fraction == empty / spec.sample_count
        assert 0.0 < stats.empty_fraction < 0.2

    def test_exact_budget_checked_before_dense_work(self, monkeypatch):
        # Poisson counts around 100 straddle the budget (N <= 104): the
        # largest count is rejected before any group below it is solved
        spec = DisorderSpec(n_mean=100.0, n_sigma=10.0, n_dist="poisson",
                            sample_count=200, seed=3)
        counts = draw_sites(spec, P)[2]
        assert min(counts) < 104 < max(counts)

        def no_dense_solve(h):
            raise AssertionError("dense solve before the budget check")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_dense_solve)
        with pytest.raises(DimensionBudgetError, match="exceeds budget"):
            disorder_stats(spec, P, method="exact")

    @settings(max_examples=60, deadline=None)
    @given(big_n=st.integers(1, 4), n_offset=st.floats(-0.45, 0.45),
           detuning_g=st.sampled_from([0.0, 3.0, 12.0]),
           seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 400),
           sigma_g=st.floats(0.0, 2.0), delta_g=st.floats(0.0, 1.0),
           sigma_frac=st.floats(0.0, 2.0), n_dist=st.sampled_from(N_DISTS),
           method=st.sampled_from(SITE_METHODS), q=st.floats(0.001, 0.49))
    def test_equals_one_point_scan(self, big_n, n_offset, detuning_g, seed,
                                   count, sigma_g, delta_g, sigma_frac, n_dist,
                                   method, q):
        # disorder_stats is the scan at one grid point: the same draws,
        # kernel call and widths, bit for bit; a law that draws only empty
        # sites fails both the same way
        assume(n_dist != "binomial" or sigma_frac < 0.99)
        params = SystemParams.physical(big_n=big_n, detuning_g=detuning_g)
        n_mean = big_n + n_offset
        spec = DisorderSpec(sigma_omega=sigma_g * params.g, delta_g=delta_g,
                            n_mean=n_mean, n_sigma=sigma_frac * math.sqrt(n_mean),
                            n_dist=n_dist, sample_count=count, seed=seed)

        def scan():
            return iso_surface(params, LossParams(q_cavity=1e6),
                               [spec.sigma_omega], [spec.delta_g], [spec.n_sigma],
                               n_mean=n_mean, sample_count=count, seed=seed,
                               n_dist=n_dist, method=method, quantile=q)

        try:
            stats = disorder_stats(spec, params, method, q)
        except NumericalError:
            with pytest.raises(NumericalError, match="only empty sites"):
                scan()
            return
        point = scan()
        got = np.array([stats.delta_e, stats.delta_u, stats.u_mean])
        want = np.array([point.delta_e, point.delta_u, point.u_mean])[:, 0, 0, 0]
        assert got.tobytes() == want.tobytes()

    def test_all_empty_rejected(self):
        spec = DisorderSpec(n_mean=1e-6, n_sigma=0.1, n_dist="poisson",
                            sample_count=50, seed=2)
        with pytest.raises(NumericalError):
            disorder_stats(spec, P)


class TestQuantileHalfwidth:
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 1e300]),
           decimals=st.sampled_from([0, 1, 3, None]),
           q=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    def test_matches_numpy_linear_quantile(self, size, seed, scale, decimals, q):
        # rounding to few decimals makes ties, and the normal draws are of
        # both signs; equal nonzero doubles have equal bits, and the sign of
        # a zero half-width depends on where a sort puts -0.0 and 0.0
        values = np.random.default_rng(seed).standard_normal(size)
        if decimals is not None:
            values = np.round(values, decimals)
        values *= scale
        lo, hi = np.quantile(values, [q, 1.0 - q])
        assert _quantile_halfwidth(values, q) == 0.5 * float(hi - lo)

    def test_nan_input_gives_nan(self):
        values = np.linspace(-1.0, 1.0, 101)
        values[40] = np.nan
        assert math.isnan(_quantile_halfwidth(values, 0.005))
        assert np.isnan(np.quantile(values, [0.005, 0.995])).all()


class TestSurvival:
    def test_no_disorder_full_width(self):
        assert lobe_survival(1.0, 0.0, 0.0, 1) == (True, 1.0)

    def test_boundary_case_destroys(self):
        survives, width = lobe_survival(1.0, 0.5, 0.0, 1)
        assert not survives and width == 0.0

    def test_higher_lobe_penalty(self):
        survives, width = lobe_survival(1.0, 0.1, 0.2, 2)
        assert survives and width == pytest.approx(0.2, rel=1e-12)

    def test_monotone_destruction(self):
        base = lobe_survival(1.0, 0.1, 0.1, 1)[1]
        assert lobe_survival(1.0, 0.2, 0.1, 1)[1] <= base
        assert lobe_survival(1.0, 0.1, 0.2, 1)[1] <= base
        assert lobe_survival(1.0, 0.1, 0.1, 2)[1] <= base

    def test_validation(self):
        with pytest.raises(ValueError):
            lobe_survival(0.0, 0.1, 0.1, 1)
        with pytest.raises(ValueError):
            lobe_survival(1.0, 0.1, 0.1, 0)


class TestShrinkageModel:
    def test_zero_disorder_recovers_clean(self):
        stats = disorder_stats(DisorderSpec(n_mean=3.0, sample_count=200, seed=4), P)
        t_c, _ = critical_tunneling(P, 1)
        assert bg_mi_tunneling(P, stats, 1) == pytest.approx(t_c, rel=1e-9)

    def test_linear_in_width(self):
        u = interaction_energy(P)
        t_c, _ = critical_tunneling(P, 1)
        halved = DisorderStats(delta_e=u / 4, delta_u=0.0, u_mean=u,
                               sample_count=1, quantile_q=0.005, e_std=0.0,
                               u_std=0.0, empty_fraction=0.0)
        assert bg_mi_tunneling(P, halved, 1) == pytest.approx(0.5 * t_c, rel=1e-9)

    def test_destroyed_lobe_gives_zero(self):
        u = interaction_energy(P)
        dead = DisorderStats(delta_e=u, delta_u=0.0, u_mean=u, sample_count=1,
                             quantile_q=0.005, e_std=0.0, u_std=0.0,
                             empty_fraction=0.0)
        assert bg_mi_tunneling(P, dead, 1) == 0.0


@pytest.fixture(scope="module")
def small_scan():
    params = SystemParams.physical(big_n=3, detuning_g=12.0)
    loss = LossParams(q_cavity=1e6)
    g = params.g
    return iso_surface(
        params, loss,
        sigma_omega_axis=np.linspace(0.0, 1.6, 5) * g,
        delta_g_axis=np.linspace(0.0, 0.45, 5),
        n_sigma_axis=np.linspace(0.0, 1.05, 5),
        n_mean=3.0, sample_count=1500, seed=42), params, loss


class TestIsoSurface:
    def test_clean_corner_observable(self, small_scan):
        scan, _, _ = small_scan
        assert scan.f[0, 0, 0] > 0
        assert not scan.uniform_sign

    def test_clean_corner_matches_pipeline(self, small_scan):
        scan, params, loss = small_scan
        comp = polariton_fractions(params)
        expected = (comp.c_ph_sq * scan.t_c_clean * params.g
                    - scan.loss_rate)
        assert scan.f[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_no_negative_to_positive_flips(self, small_scan):
        scan, _, _ = small_scan
        for axis in range(3):
            fm = np.moveaxis(scan.f, axis, 0)
            for i in range(fm.shape[0] - 1):
                flipped = (fm[i] < 0) & (fm[i + 1] >= 0)
                assert not flipped.any()

    def test_intercepts_inside_axes(self, small_scan):
        scan, params, _ = small_scan
        io = scan.intercepts
        assert 0 < io["sigma_omega"]["value"] <= scan.sigma_omega_axis[-1]
        assert 0 < io["delta_g"]["value"] <= scan.delta_g_axis[-1]
        assert 0 < io["n_sigma"]["value"] <= scan.n_sigma_axis[-1]

    def test_boundary_points_lie_in_box(self, small_scan):
        scan, _, _ = small_scan
        assert scan.boundary_points.shape[0] > 0
        pts = scan.boundary_points
        assert (pts[:, 0] >= 0).all() and (pts[:, 0] <= scan.sigma_omega_axis[-1]).all()
        assert (pts[:, 1] >= 0).all() and (pts[:, 1] <= scan.delta_g_axis[-1]).all()
        assert (pts[:, 2] >= 0).all() and (pts[:, 2] <= scan.n_sigma_axis[-1]).all()

    def test_deterministic(self, small_scan):
        scan, params, loss = small_scan
        again = iso_surface(
            params, loss,
            sigma_omega_axis=scan.sigma_omega_axis,
            delta_g_axis=scan.delta_g_axis,
            n_sigma_axis=scan.n_sigma_axis,
            n_mean=3.0, sample_count=1500, seed=42)
        assert np.array_equal(scan.f, again.f)
        assert np.array_equal(scan.delta_e, again.delta_e)

    def test_exact_method_close_to_collective(self, small_scan):
        scan, params, loss = small_scan
        exact = iso_surface(
            params, loss,
            sigma_omega_axis=np.array([0.0]),
            delta_g_axis=np.array([0.0, 0.3]),
            n_sigma_axis=np.array([0.0]),
            n_mean=3.0, sample_count=1500, seed=42, method="exact")
        coll = iso_surface(
            params, loss,
            sigma_omega_axis=np.array([0.0]),
            delta_g_axis=np.array([0.0, 0.3]),
            n_sigma_axis=np.array([0.0]),
            n_mean=3.0, sample_count=1500, seed=42, method="collective")
        assert exact.u_mean[0, 0, 0] == pytest.approx(coll.u_mean[0, 0, 0],
                                                      rel=1e-10)
        assert exact.u_mean[0, 1, 0] == pytest.approx(coll.u_mean[0, 1, 0],
                                                      rel=0.05)
        assert exact.delta_u[0, 1, 0] == pytest.approx(coll.delta_u[0, 1, 0],
                                                       rel=0.15)

    @pytest.mark.parametrize("method", ["collective", "exact"])
    @pytest.mark.parametrize("n_dist", ["poisson", "binomial"])
    def test_matches_per_point_loop(self, method, n_dist):
        # Poisson and binomial counts put empty, single and many-impurity
        # sites in each batch; every grid point is recomputed from the same
        # base draws with its own kernel call and np.quantile.  The second
        # n_sigma axis repeats count laws (binomial: constant 3 twice,
        # (4, 0.75) twice, then (5, 0.6); Poisson: one law five times), so
        # each column the scan copies is checked against its own solve
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        sig_ax = np.array([0.0, 0.7, 1.6]) * params.g
        dg_ax = np.array([0.0, 0.2, 0.45])
        repeating = [0.0, 0.3, 0.8, 0.9, 1.05]
        laws = {resolve_count_distribution(DisorderSpec(
            n_mean=3.0, n_sigma=ns, n_dist=n_dist)) for ns in repeating}
        assert len(laws) == (3 if n_dist == "binomial" else 1)
        for ns_ax in ([0.0, 1.0, 1.5], repeating):
            self._check_per_point_loop(params, sig_ax, dg_ax, np.array(ns_ax),
                                       method, n_dist)

    @staticmethod
    def _check_per_point_loop(params, sig_ax, dg_ax, ns_ax, method, n_dist):
        loss = LossParams(q_cavity=1e6)
        count, seed, q = 2000, 17, 0.005
        scans = [iso_surface(params, loss, sig_ax, dg_ax, ns_ax, n_mean=3.0,
                             sample_count=count, seed=seed, n_dist=n_dist,
                             method=method, quantile=q, workers=workers)
                 for workers in (1, 2, 3)]

        rng = np.random.Generator(np.random.Philox(key=seed))
        z = rng.standard_normal(count)
        v = rng.random(count)
        n_mats = [_counts_from_uniform(v, *resolve_count_distribution(
            DisorderSpec(n_mean=3.0, n_sigma=ns, n_dist=n_dist)))
            for ns in ns_ax]
        assert any((n == 0).any() and (n == 1).any() and (n >= 2).any()
                   for n in n_mats)
        w = rng.random((count, max(int(n.max()) for n in n_mats)))
        t_c = critical_tunneling(params, 1)[0]
        u_clean = clean_lobe_width(params, 1)
        c_ph_sq = polariton_fractions(params).c_ph_sq
        gamma = polariton_loss_rate(params, loss)
        for a, sig in enumerate(sig_ax):
            for b, dg in enumerate(dg_ax):
                for c, counts in enumerate(n_mats):
                    fac = 1.0 - dg * w
                    g2 = np.zeros(count)
                    for i, n in enumerate(counts):
                        for k in range(n):
                            g2[i] += fac[i, k] * fac[i, k]
                    g2 *= params.g ** 2
                    ds = params.detuning + sig * z
                    if method == "exact":
                        e1, u = _exact_u_batch(ds, params.g * fac, counts)
                    else:
                        e1, u = _collective_u_batch(ds, g2, counts)
                    u = u[counts > 0]
                    lo, hi = np.quantile(e1, [q, 1.0 - q])
                    delta_e = 0.5 * float(hi - lo)
                    lo, hi = np.quantile(u, [q, 1.0 - q])
                    delta_u = 0.5 * float(hi - lo)
                    u_mean = float(np.mean(u))
                    width = max(0.0, u_mean - 2.0 * delta_e - delta_u)
                    f = c_ph_sq * (t_c * width / u_clean) * params.g - gamma
                    for scan in scans:
                        assert scan.delta_e[a, b, c] == delta_e
                        assert scan.delta_u[a, b, c] == delta_u
                        assert scan.u_mean[a, b, c] == u_mean
                        assert scan.f[a, b, c] == f

    @pytest.mark.parametrize("method", ["collective", "exact"])
    def test_one_solve_per_distinct_count_law(self, method, monkeypatch):
        # n_sigma 0 and 0.3 resolve to constant 3, 0.8 and 0.9 to binomial
        # (4, 0.75) and 1.05 to (5, 0.6): three laws over five columns
        calls = {}
        kernel = "_exact_u_batch" if method == "exact" else "_collective_u_batch"
        for name in (kernel, "_counts_from_uniform"):
            def counted(*args, _name=name, _real=getattr(disorder, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(disorder, name, counted)
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        iso_surface(params, LossParams(q_cavity=1e6),
                    np.array([0.0, 1.0]) * params.g, np.array([0.0, 0.2, 0.45]),
                    np.array([0.0, 0.3, 0.8, 0.9, 1.05]), n_mean=3.0,
                    sample_count=500, seed=3, method=method)
        assert calls == {kernel: 2 * 3 * 3, "_counts_from_uniform": 3}

    def test_budget_names_first_offending_law(self):
        # n_sigma 4.99 and 5 resolve to binomial (133, 100/133), 10 and 12 to
        # Poisson(100); at seed 1 both laws exceed the budget (N <= 104),
        # with different largest counts
        params = SystemParams.physical(big_n=100, detuning_g=12.0)
        ns_ax = np.array([4.99, 5.0, 10.0, 12.0])
        count, seed = 300, 1
        rng = np.random.Generator(np.random.Philox(key=seed))
        rng.standard_normal(count)
        v = rng.random(count)
        n_max = [int(_counts_from_uniform(v, *resolve_count_distribution(
            DisorderSpec(n_mean=100.0, n_sigma=ns))).max()) for ns in ns_ax]
        assert n_max[0] == n_max[1] < n_max[2] == n_max[3]
        assert 1 + n_max[0] + n_max[0] * (n_max[0] - 1) // 2 > disorder.SUBSPACE_BUDGET
        for workers in (1, 2, 3):
            with pytest.raises(DimensionBudgetError, match=rf"budget \d+ \(site has "
                               rf"{n_max[0]} impurities\)"):
                iso_surface(params, LossParams(q_cavity=1e6), np.array([0.0]),
                            np.array([0.0, 0.2]), ns_ax, n_mean=100.0,
                            sample_count=count, seed=seed, method="exact",
                            workers=workers)

    def test_only_empty_sites_rejected_before_any_kernel_call(self, monkeypatch):
        # n_mean 0.6: the n_sigma = 0 row has one impurity per site, and at
        # seed 6 the binomial n_sigma = 0.7 row draws three empty sites
        params = SystemParams.physical(big_n=1, detuning_g=12.0)

        def no_kernel(*args):
            raise AssertionError("kernel call before the empty-site check")

        monkeypatch.setattr(disorder, "_collective_u_batch", no_kernel)
        with pytest.raises(NumericalError, match="only empty sites"):
            iso_surface(params, LossParams(q_cavity=1e6), np.array([0.0]),
                        np.array([0.0]), np.array([0.0, 0.7]), n_mean=0.6,
                        sample_count=3, seed=6)

    def test_axis_validation(self):
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        loss = LossParams(q_cavity=1e6)
        with pytest.raises(ValueError):
            iso_surface(params, loss, np.array([1.0, 0.5]), np.array([0.0]),
                        np.array([0.0]))
        with pytest.raises(InputError):
            iso_surface(params, loss, np.array([0.0]), np.array([0.0, 2.0]),
                        np.array([0.0]))

    def test_unknown_method_rejected(self):
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        with pytest.raises(ValueError):
            iso_surface(params, LossParams(q_cavity=1e6), np.array([0.0]),
                        np.array([0.0]), np.array([0.0]), sample_count=10,
                        method="bogus")

    def test_bad_arguments_are_input_errors(self):
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        axes = (np.array([0.0]),) * 3
        for kwargs, message in (({"method": "bogus"}, "need a method"),
                                ({"quantile": 0.5}, "need a method"),
                                ({"workers": 0}, "workers must be >= 1")):
            with pytest.raises(InputError, match=message):
                iso_surface(params, LossParams(q_cavity=1e6), *axes,
                            sample_count=10, **kwargs)
        with pytest.raises(InputError, match="u must be positive"):
            lobe_survival(0.0, 0.1, 0.1, 1)
        with pytest.raises(InputError, match="lobe index"):
            lobe_survival(1.0, 0.1, 0.1, 0)

    @pytest.mark.parametrize("n_mean", [math.inf, math.nan])
    def test_non_finite_n_mean_rejected(self, n_mean):
        # checked by the DisorderSpec before the big_n check rounds it
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        with pytest.raises(InputError, match="n_mean must be finite"):
            iso_surface(params, LossParams(q_cavity=1e6), *(np.array([0.0]),) * 3,
                        n_mean=n_mean, sample_count=10)

    def test_fractional_sample_count_rejected(self):
        # the DisorderSpec the scan builds checks the count, none truncates it
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        with pytest.raises(InputError, match="sample_count must be an integer"):
            iso_surface(params, LossParams(q_cavity=1e6), *(np.array([0.0]),) * 3,
                        sample_count=200.7, seed=1)

    @pytest.mark.parametrize("quantile", [0.0, 0.5, 0.7, -0.1])
    def test_quantile_outside_open_half_interval_rejected(self, quantile):
        params = SystemParams.physical(big_n=3, detuning_g=12.0)
        with pytest.raises(ValueError):
            iso_surface(params, LossParams(q_cavity=1e6), np.array([0.0]),
                        np.array([0.0]), np.array([0.0]), sample_count=10,
                        quantile=quantile)
        with pytest.raises(ValueError):
            disorder_stats(DisorderSpec(sample_count=10), P, quantile=quantile)
