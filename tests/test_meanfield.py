import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from polarlat import meanfield
from polarlat.errors import (GridError, LobeError, MinimizationError,
                             NumericalError)
from polarlat.meanfield import (CUTOFF_MARGIN, DEFAULT_SETTINGS,
                                MAX_PSI_EXPANSIONS, PSI_TOL, Phase,
                                ScanSettings, classify_phase,
                                critical_tunneling, filling_at_zero_psi,
                                landau_boundary_tunneling, mott_lobe_mu_range,
                                phase_diagram, zero_psi_energy, _BandedSite,
                                _golden_min, _gradient_root, _susceptibility)
from polarlat.model import ManifoldBlock, SystemParams, manifold_block
from polarlat.validate import (bhm_boundary_oracle, boundary_tunneling,
                               ground_energy_at_psi, minimize_order_parameter,
                               psi_deviation, variational_phase)

P8 = SystemParams.dimensionless(8)
P1 = SystemParams.dimensionless(1)


class TestGroundEnergy:
    def test_zero_tunneling_is_psi_independent(self):
        for psi in (0.0, 0.3, 1.1):
            assert ground_energy_at_psi(P8, 0.0, -2.7, psi) == pytest.approx(
                ground_energy_at_psi(P8, 0.0, -2.7, 0.0), rel=1e-14)

    def test_filling_one_plateau(self):
        # inside the first lobe the undriven energy is eps(1) - mu
        val = ground_energy_at_psi(P8, 0.0, -2.73, 0.0)
        assert val == pytest.approx(-math.sqrt(8.0) + 2.73, rel=1e-12)

    def test_energy_grows_at_large_psi(self):
        e0 = ground_energy_at_psi(P8, 0.004, -2.73, 0.0)
        e_large = ground_energy_at_psi(P8, 0.004, -2.73, 2.5)
        assert e_large > e0

    def test_matches_dense_route(self):
        from polarlat.validate import build_basis, build_site_hamiltonian, lowest_eigenpair
        t, mu_rel, psi = 0.012, -2.7, 0.45
        basis = build_basis(14, 8)
        h = build_site_hamiltonian(P8, basis, t, P8.omega_ex + mu_rel, psi)
        dense, _ = lowest_eigenpair(h)
        assert ground_energy_at_psi(P8, t, mu_rel, psi) == pytest.approx(
            dense, rel=1e-8)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            ground_energy_at_psi(P8, -0.1, -2.7, 0.0)


class TestMinimize:
    def test_zero_tunneling_gives_zero_psi(self):
        for mu in (-3.5, -2.7, -2.66):
            res = minimize_order_parameter(P8, 0.0, mu)
            assert res.psi_star == 0.0

    def test_filling_zero_wins_outside_lobe(self):
        # N=1: at mu = -1.5 the one-polariton state costs eps(1) + 1.5 = 0.5,
        # the empty cavity costs 0
        res = minimize_order_parameter(P1, 0.0, -1.5)
        assert res.psi_star == 0.0
        assert res.e_star == pytest.approx(0.0, abs=1e-12)
        res_in = minimize_order_parameter(P1, 0.0, -0.7)
        assert res_in.e_star == pytest.approx(-1.0 + 0.7, rel=1e-12)

    def test_continuous_onset(self):
        # second-order transition: psi* grows continuously from zero
        mu = -2.73
        t_b = boundary_tunneling(P8, 1, mu)
        res = minimize_order_parameter(P8, t_b * 1.0005, mu)
        assert 0.0 < res.psi_star < 0.05
        res2 = minimize_order_parameter(P8, t_b * 1.3, mu)
        assert res2.psi_star > res.psi_star

    def test_reported_result_is_cutoff_converged(self):
        # enlarging both cutoffs by 2 beyond the reported ones moves the
        # minimal energy by less than the convergence threshold
        from polarlat.meanfield import _BandedSite

        t, mu = 0.018, -2.7
        res = minimize_order_parameter(P8, t, mu)
        bigger = _BandedSite(P8.big_n, res.n_max + 2,
                             min(P8.big_n, res.e_max + 2),
                             P8.detuning / P8.g, mu, P8.z * t)
        refreshed = bigger.energy(res.psi_star)
        assert abs(refreshed - res.e_star) <= 1e-8 * max(1.0, abs(res.e_star))


class TestClassify:
    def test_mott_one(self):
        point = classify_phase(P8, 0.0, -2.73)
        assert point.phase is Phase.MI and point.filling == 1

    def test_vacuum(self):
        point = classify_phase(P8, 0.0, -10.0)
        assert point.phase is Phase.MI and point.filling == 0

    def test_deep_superfluid_runaway(self):
        # far above the lobe tip the mean-field energy is unbounded in psi;
        # that regime is superfluid by definition
        point = classify_phase(P8, 1.0, -2.73)
        assert point.phase is Phase.SF
        assert point.runaway and math.isinf(point.psi_star)

    @pytest.mark.parametrize("t", [1e153, 1e160, 1e300])
    def test_drive_past_squared_floats_runs_away(self, t):
        # the squared drive, and past z t of about 1e154 an inverse-iteration
        # residual, overflow: the cell is still a runaway, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = classify_phase(P8, t, -2.5)
        assert point.phase is Phase.SF and point.runaway

    def test_moderate_superfluid(self):
        t_c, _ = critical_tunneling(P8, 1)
        point = classify_phase(P8, 2.0 * t_c, -2.73)
        assert point.phase is Phase.SF
        assert not point.runaway and point.psi_star > 1e-3

    def test_mott_cell_needs_no_site_solve(self, monkeypatch):
        # the label is perturbative: an MI cell at t > 0 builds no driven
        # site and reports its initial (budget-checked) cutoffs
        def no_site(*args):
            raise AssertionError("MI cell built a driven site")

        monkeypatch.setattr(meanfield, "_BandedSite", no_site)
        point = classify_phase(P8, 0.005, -2.73)
        assert point.phase is Phase.MI and point.psi_star == 0.0
        assert point.e_star == zero_psi_energy(P8, -2.73)
        assert (point.n_max, point.e_max) == (1 + CUTOFF_MARGIN,
                                              1 + CUTOFF_MARGIN)

    def test_lobe_edge_is_superfluid_at_any_drive(self):
        # on a lobe edge the undriven state is degenerate: chi has a pole
        lo, _ = mott_lobe_mu_range(P8, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _susceptibility(P8, 0)(lo) == -math.inf
            point = classify_phase(P8, 1e-6, lo)
        assert point.phase is Phase.SF and point.filling == 0
        assert psi_deviation(point, variational_phase(P8, 1e-6, lo)) <= 1e-5

    def test_vacuum_pole_sum_closed_form(self):
        # n = 0 has only the n + 1 term; at zero detuning manifold 1 is
        # split into -/+ sqrt(N), each state holding half the photon
        for big_n in (1, 3, 8):
            chi = _susceptibility(SystemParams.dimensionless(big_n), 0)
            root = math.sqrt(big_n)
            for mu in (-root - 3.0, -root - 0.4, -root - 1e-3):
                assert chi(mu) == pytest.approx(
                    0.5 / (mu - root) + 0.5 / (mu + root), rel=1e-12)


def tridiagonal_eigensystem(block):
    """scipy's tridiagonal solver: the oracle of ManifoldBlock.eigensystem."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(block.diagonal, block.off_diagonal)


class TestManifoldEigensystem:
    @settings(max_examples=60, deadline=None)
    @given(big_n=st.integers(1, 60), det=st.floats(-20.0, 20.0),
           frac=st.floats(0.01, 0.99), data=st.data())
    def test_against_tridiagonal_oracle(self, big_n, det, frac, data):
        n = data.draw(st.integers(0, big_n + 2), label="n")
        p = SystemParams.dimensionless(big_n, det)
        block = manifold_block(p, n)
        w, v = block.eigensystem()
        w_ref, _ = tridiagonal_eigensystem(block)
        scale = max(1.0, float(np.max(np.abs(w_ref))))
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
        assert np.allclose(block.to_dense() @ v, v * w, rtol=0, atol=1e-12 * scale)
        # chi(mu) inside the lobe (below manifold 1 for the vacuum)
        if n == 0:
            hi = float(manifold_block(p, 1).eigensystem()[0][0])
            lo = hi - 10.0
        else:
            lo, hi = mott_lobe_mu_range(p, n)
        assume(lo < hi)
        mu = lo + frac * (hi - lo)
        chi = _susceptibility.__wrapped__(p, n)(mu)
        with mock.patch.object(ManifoldBlock, "eigensystem",
                               tridiagonal_eigensystem):
            chi_ref = _susceptibility.__wrapped__(p, n)(mu)
        assert chi == pytest.approx(chi_ref, rel=1e-12)


class TestClassifyAgainstVariational:
    @settings(max_examples=12, deadline=None)
    @given(big_n=st.integers(1, 12), det=st.floats(-2.0, 2.0),
           lobe=st.integers(0, 2), frac=st.floats(0.05, 0.95),
           t_rel=st.floats(0.2, 2.5))
    def test_label_psi_and_parity(self, big_n, det, lobe, frac, t_rel):
        p = SystemParams.dimensionless(big_n, det)
        if lobe == 0:
            hi = mott_lobe_mu_range(p, 1)[0]
            lo = hi - 1.0
        else:
            lo, hi = mott_lobe_mu_range(p, lobe)
        mu = lo + frac * (hi - lo)
        t_b = -1.0 / (p.z * _susceptibility(p, filling_at_zero_psi(p, mu))(mu))
        t = t_rel * t_b
        assume(abs(t - t_b) > 1e-3 * t_b)
        point = classify_phase(p, t, mu)
        # same label and filling, and SF psi* within 1e-5
        assert psi_deviation(point, variational_phase(p, t, mu)) <= 1e-5
        assert point.phase is (Phase.MI if t < t_b else Phase.SF)
        if not point.runaway:
            psi = point.psi_star or 0.5
            assert ground_energy_at_psi(p, t, mu, -psi) == pytest.approx(
                ground_energy_at_psi(p, t, mu, psi), rel=1e-12, abs=1e-12)


class _StubSite:
    """Root-solver stand-in: h(psi) from a function, energy -psi, counted."""

    n_max = 8

    def __init__(self, h):
        self.h = h
        self.calls = 0

    def energy_and_slope(self, psi):
        self.calls += 1
        return -psi, self.h(psi)


class TestGradientRoot:
    """_gradient_root on the analytic h(psi) = h0 + c psi^2."""

    TOL = PSI_TOL

    @staticmethod
    def quadratic(h0, c):
        return _StubSite(lambda psi: h0 + c * psi * psi)

    # roots 0.816 (inside the first bracket), 4.47 (three doublings) and
    # 1e-3 (near the phase boundary)
    @pytest.mark.parametrize("h0,c", [(-2.0, 3.0), (-2.0, 0.1), (-1e-6, 1.0)])
    def test_cold_solve(self, h0, c):
        site = self.quadratic(h0, c)
        psi, e_star = _gradient_root(site, None, h0)
        assert abs(psi - math.sqrt(-h0 / c)) <= self.TOL
        assert e_star == -psi

    def test_exact_guess_costs_two_solves(self):
        site = self.quadratic(-2.0, 3.0)
        root = math.sqrt(2.0 / 3.0)
        psi, _ = _gradient_root(site, root, -2.0)
        assert site.calls == 2
        assert abs(psi - root) <= self.TOL

    @pytest.mark.parametrize("offset", [-10.0, 10.0])
    def test_missed_guess_still_finds_root(self, offset):
        site = self.quadratic(-2.0, 3.0)
        root = math.sqrt(2.0 / 3.0)
        psi, _ = _gradient_root(site, root + offset * self.TOL, -2.0)
        assert abs(psi - root) <= self.TOL

    def test_lobe_edge_minus_infinity(self):
        # on a lobe edge h(0) = -inf while h(psi > 0) is finite
        for guess in (None, 0.5):
            site = _StubSite(lambda psi: 3.0 * psi * psi - 1.0 / psi)
            psi, e_star = _gradient_root(site, guess, -math.inf)
            assert math.isfinite(psi) and math.isfinite(e_star)
            assert abs(psi - 3.0 ** (-1.0 / 3.0)) <= self.TOL

    def test_never_positive_is_runaway(self):
        site = _StubSite(lambda psi: -1.0 - psi * psi)
        with pytest.raises(MinimizationError):
            _gradient_root(site, None, -1.0)
        assert site.calls == MAX_PSI_EXPANSIONS + 1


def banded_pair(site, psi, k):
    """eig_banded's k-th lowest pair of the site: the oracle of
    _BandedSite._inverse_iteration."""
    from scipy.linalg import eig_banded

    w, v = eig_banded(site._band(psi), select="i", select_range=(k, k))
    return float(w[0]), v[:, 0]


def dense_matrix(site, psi):
    band = site._band(psi)
    u = band.shape[0] - 1
    h = np.diag(band[u])
    for row in range(u):
        off = np.diag(band[row, u - row:], u - row)
        h += off + off.T
    return h


class TestLowestAgainstEigBanded:
    """_BandedSite._lowest calls LAPACK dsbevx itself: it returns the bits of
    eig_banded and eigvals_banded at select="i", select_range=(0, 0)."""

    @settings(max_examples=80, deadline=None)
    @given(big_n=st.integers(1, 8), det=st.floats(-2.0, 2.0),
           n_max=st.integers(0, 12), e_top=st.integers(0, 8),
           mu=st.floats(-3.0, 0.0), zt=st.floats(0.0, 0.2),
           psi=st.just(0.0) | st.floats(1e-3, 3.0))
    @example(big_n=1, det=0.0, n_max=0, e_top=0, mu=-2.7, zt=0.1, psi=0.0)
    @example(big_n=3, det=0.5, n_max=0, e_top=3, mu=-2.7, zt=0.1, psi=0.7)
    @example(big_n=1, det=0.0, n_max=1, e_top=1, mu=-2.7, zt=0.1, psi=0.0)
    @example(big_n=8, det=0.0, n_max=1, e_top=1, mu=-2.7, zt=0.1, psi=0.7)
    # a drive whose square underflows, on a degenerate diagonal: dsbevx does
    # not converge on the driven band, so the site solves the undriven one
    @example(big_n=1, det=0.0, n_max=1, e_top=0, mu=0.0, zt=1.11e-308, psi=1.0)
    @example(big_n=1, det=0.0, n_max=1, e_top=0, mu=0.0, zt=1e-300, psi=1.0)
    def test_bits_of_eig_banded(self, big_n, det, n_max, e_top, mu, zt, psi):
        from scipy.linalg import eigvals_banded

        site = _BandedSite(big_n, n_max, min(big_n, e_top), det, mu, zt)
        w, v = site._lowest(psi, True)
        lam, vec = banded_pair(site, psi, 0)
        assert w.shape == (1,) and v.shape == (site.dim, 1)
        assert np.array_equal(w, [lam]) and np.array_equal(v[:, 0], vec)
        assert np.array_equal(
            site._lowest(psi, False),
            eigvals_banded(site._band(psi), select="i", select_range=(0, 0)))

    def test_non_finite_band_rejected(self):
        from scipy.linalg import eig_banded

        site = _BandedSite(P8.big_n, 4, 4, 0.0, -2.7, 0.05)
        site._base[-1, 3] = np.nan
        for psi in (0.0, 0.3):
            with pytest.raises(ValueError):
                eig_banded(site._band(psi), select="i", select_range=(0, 0))
            for vectors in (True, False):
                with pytest.raises(NumericalError, match="past the float range"):
                    site._lowest(psi, vectors)

    def test_routines_are_scipy_lapack_exports(self):
        # one extension module, whichever of the two loaded it first
        from scipy.linalg import lapack

        for name in ("dsbevx", "dpbtrf", "dpbtrs"):
            assert getattr(meanfield._flapack(), name) is getattr(lapack, name)


class TestCertifiedInverseIteration:
    """The inverse-iteration solve against eig_banded on random sites: a
    returned pair is the ground pair, whatever the start vector."""

    @settings(max_examples=60, deadline=None)
    @given(big_n=st.integers(1, 8), det=st.floats(-2.0, 2.0),
           n_max=st.integers(1, 12), zt=st.floats(0.0, 0.2),
           psi=st.floats(1e-3, 3.0), edge=st.sampled_from([None, 1, 2]),
           start=st.sampled_from(["near", "excited1", "excited2", "random"]),
           move=st.floats(-0.2, 0.2), seed=st.integers(0, 2 ** 32 - 1))
    def test_ground_pair_or_fallback(self, big_n, det, n_max, zt, psi, edge,
                                     start, move, seed):
        p = SystemParams.dimensionless(big_n, det)
        e_top = min(big_n, n_max)
        if edge is None:  # generic band
            mu = -3.0 + 3.0 * np.random.default_rng(seed).random()
        else:
            # lobe edge: fillings edge - 1 and edge degenerate at psi = 0, and
            # a weak drive leaves a near-degenerate lowest pair
            mu = mott_lobe_mu_range(p, edge)[0]
            psi *= 1e-6
        site = _BandedSite(big_n, n_max, e_top, det, mu, zt)  # dim >= 4
        lam0, v0 = banded_pair(site, psi, 0)
        lam1, _ = banded_pair(site, psi, 1)
        if start == "near":
            site._vec = banded_pair(site, psi * (1.0 + move), 0)[1]
        elif start == "random":
            site._vec = np.random.default_rng(seed).standard_normal(site.dim)
        else:  # an exact excited eigenvector: residual 0 at the start
            site._vec = banded_pair(site, psi, int(start[-1]))[1]
        pair = site._inverse_iteration(psi)
        if pair is None:  # fallback to eig_banded
            return
        theta, x = pair
        scale = max(1.0, abs(lam0))
        # the final Cholesky certifies lam0 > theta - 1e-8 scale
        assert theta - lam0 <= (1e-8 + 1e-13) * scale
        h = dense_matrix(site, psi)
        resid = float(np.linalg.norm(h @ x - theta * x))
        assert resid <= 1e-10 * max(1.0, abs(theta)) + 1e-13 * scale
        assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
        gap = lam1 - lam0
        if gap > 1e-6 * scale:  # Davis-Kahan: sin(x, v0) <= resid / gap
            sin = math.sqrt(max(0.0, 1.0 - float(x @ v0) ** 2))
            assert sin <= 2.0 * (resid + 1e-13 * scale) / gap + 1e-7

    def test_excited_start_is_not_locked(self):
        # a start equal to an excited eigenvector has residual 0; without
        # the final certificate it would be returned as the ground pair
        site = _BandedSite(P8.big_n, 8, 8, 0.0, -2.7, 0.08)
        lam0, _ = banded_pair(site, 0.4, 0)
        for k in (1, 2, 3):
            site._vec = banded_pair(site, 0.4, k)[1]
            pair = site._inverse_iteration(0.4)
            assert pair is None or pair[0] - lam0 <= 1e-8 * max(1.0, abs(lam0))
            # the full solve falls back and stores the ground vector
            site._vec = banded_pair(site, 0.4, k)[1]
            energy, _ = site.energy_and_slope(0.4)
            assert energy == pytest.approx(lam0 + 0.08 * 0.16, rel=1e-12)

    def test_warm_vector_is_padded_in_place(self):
        # the previous round's ground vector, padded with zeros for the new
        # states, keeps its Rayleigh quotient in the grown site
        small = _BandedSite(P8.big_n, 7, 7, 0.5, -2.6, 0.06)
        small.energy_and_slope(0.3)
        lam0 = banded_pair(small, 0.3, 0)[0]
        big = _BandedSite(P8.big_n, 9, 8, 0.5, -2.6, 0.06, warm=small)
        x = big._vec
        assert x.shape == (big.dim,)
        assert float(x @ dense_matrix(big, 0.3) @ x) == pytest.approx(
            lam0, rel=1e-12)
        grid = x.reshape(big.e_top + 1, big.n_max + 1)
        assert not grid[8:].any() and not grid[:, 8:].any()


class TestSuperfluidSolveBudget:
    """Site solves of the gradient route on a small N=8 grid over the
    default phase-diagram window: ``eig_banded`` calls and inverse-iteration
    solves alike."""

    T_AXIS = np.linspace(0.0, 0.02, 6)
    MU_AXIS = np.linspace(-3.0, -2.2, 7)

    @staticmethod
    def counted(monkeypatch):
        """The (n_max, kind) of every site solve from now on."""
        calls = []
        lowest = _BandedSite._lowest
        inverse = _BandedSite._inverse_iteration

        def counted_lowest(site, psi, vectors):
            calls.append((site.n_max, "eig_banded"))
            return lowest(site, psi, vectors)

        def counted_inverse(site, psi):  # a fallback counts twice
            calls.append((site.n_max, "inverse"))
            return inverse(site, psi)

        monkeypatch.setattr(_BandedSite, "_lowest", counted_lowest)
        monkeypatch.setattr(_BandedSite, "_inverse_iteration", counted_inverse)
        return calls

    def sf_cells(self, monkeypatch):
        calls = self.counted(monkeypatch)
        cells = []
        for t in self.T_AXIS:
            for mu in self.MU_AXIS:
                calls.clear()
                point = classify_phase(P8, float(t), float(mu))
                if point.phase is Phase.SF and not point.runaway:
                    cells.append((point, list(calls)))
        return cells

    def test_at_most_ten_solves_per_cell(self, monkeypatch):
        cells = self.sf_cells(monkeypatch)
        assert len(cells) >= 10
        assert sum(len(c) for _, c in cells) <= 10 * len(cells)
        # the final cutoff round is the warm-started one
        assert all([n for n, _ in c].count(p.n_max) <= 3 for p, c in cells)

    def test_one_eig_banded_per_cell(self, monkeypatch):
        # the first solve of a cell; every later one is inverse iteration
        for _, c in self.sf_cells(monkeypatch):
            kinds = [kind for _, kind in c]
            assert kinds[0] == "eig_banded"
            assert kinds.count("eig_banded") == 1

    def test_warm_bracket_keeps_the_cold_root(self):
        delta = P8.detuning / P8.g
        # SF cells of fillings 0 to 4, one near the vacuum-lobe boundary
        for t, mu in ((0.0183, -2.864), (0.0196, -2.762), (0.012, -2.6),
                      (0.016, -2.45), (0.0055, -2.217)):
            point = classify_phase(P8, t, mu)
            assert point.phase is Phase.SF and not point.runaway
            gain = 1.0 + P8.z * t * _susceptibility(P8, point.filling)(mu)
            site = _BandedSite(P8.big_n, point.n_max, point.e_max, delta, mu,
                               P8.z * t)
            cold, _ = _gradient_root(site, None, 2.0 * gain)
            assert abs(point.psi_star - cold) <= PSI_TOL

    def test_grid_continues_each_column(self, monkeypatch):
        # one eig_banded call per column, for its first SF cell.  Each later
        # cell costs 3 solves in its first round at this t step (one to
        # correct the prediction, two to close the psi_tol bracket) and 2 in
        # the second; the first cells cost 9 to 12, so the mean stays above 6
        calls = self.counted(monkeypatch)
        grid = phase_diagram(P8, self.T_AXIS, self.MU_AXIS, workers=1)
        sf = ~grid.is_mott
        assert not any(p.runaway for row in grid.points for p in row)
        kinds = [kind for _, kind in calls]
        assert kinds.count("eig_banded") <= int(sf.any(axis=0).sum())
        assert len(calls) <= 6.5 * int(sf.sum())


class TestLobes:
    def test_lobe_one_n8(self):
        lo, hi = mott_lobe_mu_range(P8, 1)
        assert lo == pytest.approx(-math.sqrt(8.0), rel=1e-12)
        assert hi == pytest.approx(math.sqrt(8.0) - math.sqrt(30.0), rel=1e-12)

    def test_lobe_one_n1(self):
        lo, hi = mott_lobe_mu_range(P1, 1)
        assert lo == pytest.approx(-1.0, rel=1e-12)
        assert hi == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)
        assert hi - lo == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_filling_ties_break_down(self):
        lo, _ = mott_lobe_mu_range(P8, 1)
        assert filling_at_zero_psi(P8, lo) == 0  # degenerate edge -> lower

    def test_requires_positive_index(self):
        with pytest.raises(ValueError):
            mott_lobe_mu_range(P8, 0)


class TestBoundary:
    def test_outside_lobe_rejected(self):
        with pytest.raises(LobeError):
            boundary_tunneling(P8, 1, -3.2)

    def test_pinch_near_edges(self):
        lo, hi = mott_lobe_mu_range(P8, 1)
        width = hi - lo
        t_tip = boundary_tunneling(P8, 1, lo + 0.5 * width)
        t_edge = boundary_tunneling(P8, 1, lo + 0.02 * width)
        assert t_edge < 0.35 * t_tip

    @pytest.mark.parametrize("big_n,det,frac", [
        (8, 0.0, 0.45), (3, 0.0, 0.3), (1, 0.0, 0.55), (3, 4.0, 0.5)])
    def test_against_curvature_oracle(self, big_n, det, frac):
        p = SystemParams.dimensionless(big_n, det)
        lo, hi = mott_lobe_mu_range(p, 1)
        mu = lo + frac * (hi - lo)
        t_bisect = boundary_tunneling(p, 1, mu)
        t_landau = landau_boundary_tunneling(p, 1, mu)
        assert t_bisect == pytest.approx(t_landau, rel=1e-3)

    def test_landau_pinch(self):
        lo, hi = mott_lobe_mu_range(P8, 1)
        width = hi - lo
        assert landau_boundary_tunneling(P8, 1, lo + 1e-6 * width) < 1e-4


class TestCritical:
    def test_single_impurity_scale(self):
        t_c, mu_tip = critical_tunneling(P1, 1)
        assert 0.01 < t_c < 0.1  # of order 1e-2 in units of g
        lo, hi = mott_lobe_mu_range(P1, 1)
        assert lo < mu_tip < hi

    def test_tip_maximizes_boundary(self):
        t_c, mu_tip = critical_tunneling(P8, 1)
        lo, hi = mott_lobe_mu_range(P8, 1)
        for frac in (0.15, 0.85):
            assert boundary_tunneling(P8, 1, lo + frac * (hi - lo)) <= t_c * (1 + 1e-3)

    @pytest.mark.parametrize("big_n,det", [(1, 0.0), (8, 0.0), (3, 12.0)])
    def test_tip_against_variational_oracle(self, big_n, det):
        p = SystemParams.dimensionless(big_n, det)
        t_c, mu_tip = critical_tunneling(p, 1)
        assert boundary_tunneling(p, 1, mu_tip) == pytest.approx(t_c, rel=1e-3)

    def test_blue_detuning_raises_tc(self):
        t_res, _ = critical_tunneling(SystemParams.dimensionless(3, 0.0), 1)
        t_blue, _ = critical_tunneling(SystemParams.dimensionless(3, 3.0), 1)
        assert t_blue > t_res


class TestBhmOracle:
    def test_vanishes_at_lobe_base_edges(self):
        assert bhm_boundary_oracle(1.0, 4, 1, 1e-9) < 1e-8
        assert bhm_boundary_oracle(1.0, 4, 1, 1.0 - 1e-9) < 1e-8

    def test_tip_closed_form(self):
        u, z = 1.0, 4
        mu_tip = math.sqrt(2.0) - 1.0
        t_tip = bhm_boundary_oracle(u, z, 1, mu_tip)
        assert z * t_tip == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
        assert u / t_tip == pytest.approx(4.0 * (3.0 + 2.0 * math.sqrt(2.0)),
                                          rel=1e-12)

    def test_tip_is_maximum(self):
        def neg(mu):
            return -bhm_boundary_oracle(1.0, 4, 1, mu)

        mu_tip, neg_t = _golden_min(neg, 1e-9, 1 - 1e-9, 1e-9)
        assert mu_tip == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)
        assert -neg_t == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 4.0, rel=1e-9)

    def test_outside_base_rejected(self):
        with pytest.raises(LobeError):
            bhm_boundary_oracle(1.0, 4, 1, 1.5)
        with pytest.raises(LobeError):
            bhm_boundary_oracle(1.0, 4, 2, 0.5)


class TestPhaseDiagram:
    def test_single_cell(self):
        grid = phase_diagram(P8, [0.0], [-2.7])
        assert grid.psi.shape == (1, 1)
        point = grid.points[0][0]
        assert point.phase is Phase.MI and point.filling == 1

    def test_zero_t_column_matches_lobes(self):
        mu_axis = np.linspace(-3.0, -2.2, 41)
        grid = phase_diagram(P8, [0.0], mu_axis)
        lo1, hi1 = mott_lobe_mu_range(P8, 1)
        for j, mu in enumerate(mu_axis):
            point = grid.points[0][j]
            assert point.phase is Phase.MI
            if lo1 + 1e-9 < mu < hi1 - 1e-9:
                assert point.filling == 1

    def test_lobe_structure_and_workers_determinism(self):
        t_axis = np.linspace(0.0, 0.02, 5)
        mu_axis = np.linspace(-3.0, -2.2, 9)
        serial = phase_diagram(P8, t_axis, mu_axis, workers=1)
        for workers in (2, 3):
            parallel = phase_diagram(P8, t_axis, mu_axis, workers=workers)
            assert np.array_equal(serial.psi, parallel.psi)
            assert np.array_equal(serial.energy, parallel.energy)
            assert np.array_equal(serial.filling, parallel.filling)
        fillings = set(serial.filling[serial.is_mott])
        assert {1, 2} <= fillings

    def test_rerun_bit_identical(self):
        t_axis = np.linspace(0.0, 0.018, 3)
        mu_axis = np.linspace(-2.82, -2.66, 4)
        a = phase_diagram(P8, t_axis, mu_axis)
        b = phase_diagram(P8, t_axis, mu_axis)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.energy, b.energy)

    def test_failures_same_for_any_worker_count(self):
        # the dimension budget is too small for every cell: both paths must
        # raise one GridError listing the cells in task order
        t_axis, mu_axis = [0.005, 0.01], [-2.8, -2.7]
        settings = ScanSettings(max_dim=40)
        raised = []
        for workers in (1, 2, 3):
            with pytest.raises(GridError) as info:
                phase_diagram(P8, t_axis, mu_axis, workers=workers,
                              settings=settings)
            raised.append(info.value)
        serial = raised[0]
        for parallel in raised[1:]:
            assert str(serial) == str(parallel)
            assert serial.failures == parallel.failures
        assert [f[:2] for f in serial.failures] == [
            (t, mu) for t in t_axis for mu in mu_axis]

    @staticmethod
    def _pool_spy(monkeypatch):
        """Record the process count (the caller and its forked children) of
        every fork_map call of phase_diagram that forks."""
        started = []
        forks = []
        real_fork, real_map = os.fork, meanfield.fork_map

        def fork():
            forks.append(1)
            return real_fork()

        def spy(fn, items, processes):
            forks.clear()
            try:
                return real_map(fn, items, processes)
            finally:
                if forks:
                    started.append(1 + len(forks))

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(meanfield, "fork_map", spy)
        return started

    def test_pool_path_bit_identical(self, monkeypatch):
        started = self._pool_spy(monkeypatch)
        t_axis = np.linspace(0.0, 0.02, 5)
        mu_axis = np.linspace(-3.0, -2.2, 9)
        serial = phase_diagram(P8, t_axis, mu_axis, workers=1)
        assert started == []
        pooled = phase_diagram(P8, t_axis, mu_axis, workers=2)
        assert started == [2]
        assert (~serial.is_mott).sum() >= 2
        for attr in ("psi", "energy", "filling", "n_max_final", "is_mott"):
            assert np.array_equal(getattr(serial, attr), getattr(pooled, attr),
                                  equal_nan=attr == "energy"), attr

    def test_worker_failure_reported_as_in_process(self, monkeypatch):
        # lobe-1 cutoffs (dimension 64) pass the budget, their first growth
        # (90) fails inside the SF solve; lobe 2 (81, mu = -2.6) fails at the
        # label, and then the grid fails before any SF cell is solved
        started = self._pool_spy(monkeypatch)
        settings = ScanSettings(max_dim=80)
        t_axis = [0.008, 0.012, 0.016, 0.02]
        lobe_1 = [-2.8, -2.75, -2.7, -2.65]
        for mu_axis, pools, message, n_failed in (
                (lobe_1, [2], "dimension 90 > budget 80", 12),
                (lobe_1 + [-2.6], [], "dimension 81 > budget 80", 4)):
            started.clear()
            raised = []
            for workers in (1, 2):
                with pytest.raises(GridError) as info:
                    phase_diagram(P8, t_axis, mu_axis, workers=workers,
                                  settings=settings)
                raised.append(info.value)
            assert started == pools
            serial, pooled = raised
            assert str(serial) == str(pooled)
            assert serial.failures == pooled.failures
            assert all(message in f[2] for f in serial.failures)
            cells = [f[:2] for f in serial.failures]
            assert cells == sorted(cells) and len(cells) == n_failed

    def test_no_process_when_it_cannot_pay(self, monkeypatch):
        def refuse():
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(os, "fork", refuse)
        one_worker = phase_diagram(P8, np.linspace(0.0, 0.02, 5),
                                   np.linspace(-3.0, -2.2, 9), workers=1)
        assert (~one_worker.is_mott).sum() > 1
        # more cells than workers, none of them SF
        all_mi = phase_diagram(P8, np.linspace(0.0, 0.002, 15),
                               np.linspace(-2.8, -2.7, 15), workers=2)
        assert all_mi.is_mott.all()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            phase_diagram(P8, [0.0], [-2.7], workers=workers)

    @pytest.mark.parametrize("t_top", [1e153, 1e160, 1e300])
    def test_drive_past_squared_floats_runs_away(self, t_top):
        # the column's curve squares the drive too
        grid = phase_diagram(P8, [0.0, t_top], [-3.0, -2.2], workers=1)
        assert [p.runaway for p in grid.points[1]] == [True, True]
        assert grid.is_mott[0].all()

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            phase_diagram(P8, [], [-2.7])
        with pytest.raises(ValueError):
            phase_diagram(P8, [0.0, 0.0], [-2.7])
        with pytest.raises(ValueError):
            phase_diagram(P8, [0.0], [-2.2, -2.7])


def cell_route(p, t_axis, mu_axis, settings):
    """The grid by classify_phase, one cold solve per cell: (points, failures)
    in grid order, the failures as phase_diagram raises them (those of the
    labels if any cell fails there, else those of the SF solves)."""
    points, at_label, at_solve = [], [], []
    for t in t_axis:
        for mu in mu_axis:
            try:
                meanfield._label(p, t, mu, settings)
            except NumericalError as exc:
                at_label.append((t, mu, str(exc)))
                continue
            try:
                points.append(classify_phase(p, t, mu, settings))
            except NumericalError as exc:
                at_solve.append((t, mu, str(exc)))
    return points, at_label or at_solve


class TestPhaseDiagramAgainstCellRoute:
    """Whole-grid oracle: phase_diagram against a cold classify_phase per
    cell, on grids around lobe 1's tip that span its edges."""

    @settings(max_examples=30, deadline=None)
    @given(big_n=st.integers(1, 12), det=st.floats(-2.0, 2.0),
           z=st.integers(2, 6), nt=st.integers(3, 6), nmu=st.integers(3, 6),
           t_top=st.floats(1.2, 2.5), edge=st.floats(0.0, 0.3),
           max_dim=st.sampled_from([DEFAULT_SETTINGS.max_dim, 120, 80]),
           workers=st.integers(1, 3))
    @example(big_n=8, det=0.0, z=4, nt=6, nmu=6, t_top=2.5, edge=0.3,
             max_dim=80, workers=2)
    def test_cell_by_cell(self, big_n, det, z, nt, nmu, t_top, edge, max_dim,
                          workers):
        p = SystemParams.dimensionless(big_n, det, z)
        t_c, _mu_tip = critical_tunneling(p, 1)
        lo, hi = mott_lobe_mu_range(p, 1)
        width = hi - lo
        t_axis = [float(t) for t in np.linspace(0.0, t_top * t_c, nt)]
        mu_axis = [float(mu) for mu in np.linspace(
            lo - edge * width, hi + edge * width, nmu)]
        scan = ScanSettings(max_dim=max_dim)
        points, failures = cell_route(p, t_axis, mu_axis, scan)
        event("GridError" if failures else "grid")
        if failures:
            with pytest.raises(GridError) as info:
                phase_diagram(p, t_axis, mu_axis, workers=workers,
                              settings=scan)
            assert list(info.value.failures) == failures
            return
        grid = phase_diagram(p, t_axis, mu_axis, workers=workers, settings=scan)
        event(f"{sum(q.phase is Phase.SF for q in points) // 5 * 5}+ SF cells")
        for got, want in zip((q for row in grid.points for q in row), points):
            assert (got.t, got.mu) == (want.t, want.mu)
            assert (got.phase, got.filling, got.n_max, got.e_max,
                    got.runaway) == (want.phase, want.filling, want.n_max,
                                     want.e_max, want.runaway)
            if want.runaway:
                assert got.psi_star == want.psi_star == math.inf
            else:
                assert abs(got.psi_star - want.psi_star) <= PSI_TOL
