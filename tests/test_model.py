import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlat import meanfield, observables, validate
from polarlat.errors import DimensionBudgetError, InputError, NumericalError
from polarlat.meanfield import filling_at_zero_psi
from polarlat.model import SystemParams, manifold_block, manifold_energy
from polarlat.validate import (build_basis, build_site_hamiltonian,
                               lowest_eigenpair)


def jacobi_eigenvalues(matrix, sweeps=60):
    """Cyclic Jacobi rotations; independent reference for small symmetric
    eigenproblems."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off < 1e-13:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


class TestSystemParams:
    def test_detuning_recomputed(self):
        p = SystemParams(omega_ph=5.0, omega_ex=3.5, g=1.0, big_n=4)
        assert p.detuning == 1.5

    def test_dimensionless_keeps_detuning(self):
        for det in (-7.0, 0.0, 12.0):
            p = SystemParams.dimensionless(3, det)
            assert p.g == 1.0
            assert p.detuning == pytest.approx(det, abs=1e-12)
            assert p.omega_ph > 0 and p.omega_ex > 0

    @pytest.mark.parametrize("kwargs", [
        dict(omega_ph=1.0, omega_ex=1.0, g=1.0, big_n=0),
        dict(omega_ph=1.0, omega_ex=1.0, g=1.0, big_n=2, z=0),
        dict(omega_ph=1.0, omega_ex=1.0, g=0.0, big_n=2),
        dict(omega_ph=-1.0, omega_ex=1.0, g=1.0, big_n=2),
        dict(omega_ph=1.0, omega_ex=0.0, g=1.0, big_n=2),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestBasis:
    @pytest.mark.parametrize("n_max,big_n,count", [
        (0, 1, 2), (8, 8, 81), (10, 50, 561)])
    def test_state_count(self, n_max, big_n, count):
        basis = build_basis(n_max, big_n)
        assert basis.size == count
        assert len(basis.states) == count

    def test_lexicographic_order(self):
        basis = build_basis(2, 2)
        assert basis.states[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
        for i, (n_ph, e) in enumerate(basis.states):
            assert basis.index(n_ph, e) == i

    def test_budget_guard(self):
        with pytest.raises(DimensionBudgetError):
            build_basis(200, 200)
        build_basis(200, 200, max_dim=50000)  # raised budget is allowed

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_basis(-1, 2)
        with pytest.raises(ValueError):
            build_basis(2, 0)


class TestSiteHamiltonian:
    def test_single_impurity_resonant_block(self):
        # (1 photon, 0 exc) and (0 photon, 1 exc) mix with strength g at
        # equal diagonal omega; eigenvalues omega +/- g
        omega, g = 2.0, 0.31
        p = SystemParams(omega_ph=omega, omega_ex=omega, g=g, big_n=1)
        basis = build_basis(1, 1)
        h = build_site_hamiltonian(p, basis, t=0.0, mu=0.0, psi=0.0)
        i, j = basis.index(1, 0), basis.index(0, 1)
        assert h[i, i] == pytest.approx(omega)
        assert h[j, j] == pytest.approx(omega)
        assert h[i, j] == pytest.approx(g)
        w = np.linalg.eigvalsh(h)
        assert np.isclose(w, omega - g).any() and np.isclose(w, omega + g).any()

    def test_zero_psi_conserves_excitation(self):
        p = SystemParams.dimensionless(3, detuning=0.7)
        basis = build_basis(4, 3)
        h = build_site_hamiltonian(p, basis, t=0.05, mu=p.omega_ex - 1.0, psi=0.0)
        for i, (n1, e1) in enumerate(basis.states):
            for j, (n2, e2) in enumerate(basis.states):
                if n1 + e1 != n2 + e2:
                    assert h[i, j] == 0.0

    def test_dicke_ladder_amplitude(self):
        p = SystemParams.dimensionless(8)
        basis = build_basis(2, 8)
        h = build_site_hamiltonian(p, basis, t=0.0, mu=0.0, psi=0.0)
        i, j = basis.index(1, 0), basis.index(0, 1)
        assert h[i, j] == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_exactly_symmetric(self):
        p = SystemParams.dimensionless(4, detuning=-1.2)
        basis = build_basis(5, 4)
        h = build_site_hamiltonian(p, basis, t=0.02, mu=p.omega_ex - 2.0, psi=0.4)
        assert np.array_equal(h, h.T)

    def test_basis_mismatch_rejected(self):
        p = SystemParams.dimensionless(3)
        basis = build_basis(2, 4)
        with pytest.raises(ValueError):
            build_site_hamiltonian(p, basis, t=0.0, mu=0.0, psi=0.0)

    @settings(max_examples=30, deadline=None)
    @given(psi=st.floats(0.0, 1.5), t=st.floats(0.0, 0.05),
           big_n=st.integers(1, 6), mu_rel=st.floats(-4.0, -0.5),
           det=st.floats(-2.0, 2.0))
    def test_psi_parity(self, psi, t, big_n, mu_rel, det):
        # gauge a -> -a maps psi -> -psi, so the spectrum cannot depend on
        # the sign of the order parameter
        p = SystemParams.dimensionless(big_n, det)
        basis = build_basis(6, big_n)
        mu = p.omega_ex + mu_rel
        e_plus, _ = lowest_eigenpair(build_site_hamiltonian(p, basis, t, mu, psi))
        e_minus, _ = lowest_eigenpair(build_site_hamiltonian(p, basis, t, mu, -psi))
        assert e_plus == pytest.approx(e_minus, rel=1e-12, abs=1e-12)


class TestLowestEigenpair:
    def test_scalar(self):
        e, v = lowest_eigenpair(np.array([[3.25]]))
        assert e == 3.25
        assert v.tolist() == [1.0]

    def test_two_level(self):
        g = 0.7
        e, v = lowest_eigenpair(np.array([[0.0, g], [g, 0.0]]))
        assert e == pytest.approx(-g, rel=1e-14)
        assert v[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert v[1] == pytest.approx(-1 / math.sqrt(2), rel=1e-12)

    def test_three_level_ladder(self):
        # resonant two-excitation block for N = 8: couplings g*sqrt(16),
        # g*sqrt(14); lowest eigenvalue -sqrt(30) g
        h = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, math.sqrt(14.0)],
                      [0.0, math.sqrt(14.0), 0.0]])
        e, _ = lowest_eigenpair(h)
        assert e == pytest.approx(-math.sqrt(30.0), rel=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            a = (a + a.T) / 2
            e, v = lowest_eigenpair(a)
            ref = jacobi_eigenvalues(a)[0]
            assert e == pytest.approx(ref, rel=1e-9, abs=1e-9)
            # eigenpair consistency and normalization
            assert np.linalg.norm(a @ v - e * v) < 1e-10
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        a = np.diag([2.0, -1.0, 5.0])
        _, v = lowest_eigenpair(a)
        assert v[np.argmax(np.abs(v))] > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lowest_eigenpair(np.ones((2, 3)))
        with pytest.raises(ValueError):
            lowest_eigenpair(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestManifolds:
    def test_dimension_rule(self):
        p = SystemParams.dimensionless(3)
        for n in range(8):
            assert manifold_block(p, n).dimension == min(n, 3) + 1

    def test_zero_manifold(self):
        p = SystemParams.dimensionless(5)
        block = manifold_block(p, 0)
        assert block.dimension == 1 and block.diagonal[0] == 0.0
        assert manifold_energy(p, 0) == 0.0

    def test_one_excitation_coupling(self):
        for big_n in (1, 4, 9):
            block = manifold_block(SystemParams.dimensionless(big_n), 1)
            assert block.off_diagonal[0] == pytest.approx(math.sqrt(big_n))

    def test_two_excitation_block_n8(self):
        block = manifold_block(SystemParams.dimensionless(8), 2)
        assert block.off_diagonal == pytest.approx([4.0, math.sqrt(14.0)])

    def test_detuned_diagonal(self):
        p = SystemParams.dimensionless(4, detuning=0.9)
        block = manifold_block(p, 3)
        assert block.diagonal == pytest.approx([2.7, 1.8, 0.9, 0.0])

    @pytest.mark.parametrize("big_n,n,expected", [
        (8, 1, -math.sqrt(8.0)),
        (8, 2, -math.sqrt(30.0)),
        (1, 1, -1.0),
        (1, 2, -math.sqrt(2.0)),
        (3, 2, -math.sqrt(10.0)),
    ])
    def test_resonant_energies(self, big_n, n, expected):
        p = SystemParams.dimensionless(big_n)
        assert manifold_energy(p, n) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(big_n=st.integers(1, 7), det=st.floats(-3.0, 3.0),
           mu_rel=st.floats(-5.0, -0.8))
    def test_block_consistency(self, big_n, det, mu_rel):
        # at psi = 0 the dense spectrum decomposes into manifolds:
        # min eigenvalue == min_n [eps(n) + n (omega_ex - mu)].  The dense
        # basis also holds partial manifolds up to n_max + big_n.  Their
        # truncated blocks lie above the full ones, so they cannot undercut
        # the true minimum, but the minimum over 0..n_max is the true one
        # only when the filling sits well inside 0..n_max.
        p = SystemParams.dimensionless(big_n, det)
        n_max = 9
        try:
            filling = filling_at_zero_psi(p, mu_rel)
        except NumericalError:  # grand energy falls without bound in n
            filling = math.inf
        assume(filling + 4 <= n_max)
        basis = build_basis(n_max, big_n)
        h = build_site_hamiltonian(p, basis, t=0.013, mu=p.omega_ex + mu_rel,
                                   psi=0.0)
        dense, _ = lowest_eigenpair(h)
        by_manifold = min(manifold_energy(p, n) - n * mu_rel
                          for n in range(n_max + 1))
        assert dense == pytest.approx(by_manifold, rel=1e-9, abs=1e-9)


P8 = SystemParams.dimensionless(8)

#: one call per bad-argument check of the library, by module
BAD_ARGUMENTS = {
    "model-big_n": lambda: SystemParams(1.0, 1.0, 1.0, big_n=0),
    "model-z": lambda: SystemParams(1.0, 1.0, 1.0, big_n=1, z=0),
    # int() of these raised OverflowError and ValueError
    "model-big_n-finite": lambda: SystemParams(1.0, 1.0, 1.0, big_n=math.inf),
    "model-z-nan": lambda: SystemParams(1.0, 1.0, 1.0, big_n=1, z=math.nan),
    "model-g": lambda: SystemParams(1.0, 1.0, 0.0, big_n=1),
    "model-omega": lambda: SystemParams(-1.0, 1.0, 1.0, big_n=1),
    "model-omega_ph-finite": lambda: SystemParams(math.inf, 1.0, 1.0, big_n=1),
    "model-omega_ex-finite": lambda: SystemParams(1.0, math.inf, 1.0, big_n=1),
    "model-g-finite": lambda: SystemParams(1.0, 1.0, math.inf, big_n=1),
    "model-manifold": lambda: manifold_block(P8, -1),
    "meanfield-t": lambda: meanfield.classify_phase(P8, -1.0, -2.7),
    "meanfield-empty-axis": lambda: meanfield.ascending_axis("t_axis", []),
    "meanfield-descending-axis":
        lambda: meanfield.ascending_axis("t_axis", [1.0, 0.0]),
    "meanfield-workers":
        lambda: meanfield.phase_diagram(P8, [0.0], [-2.7], workers=0),
    "meanfield-lobe": lambda: meanfield.mott_lobe_mu_range(P8, 0),
    "observables-tau_e": lambda: observables.LossParams(1e6, tau_e=0.0),
    "observables-purcell_f":
        lambda: observables.LossParams(1e6, purcell_f=0.0),
    "observables-q_cavity": lambda: observables.LossParams(0.0),
    "observables-eta": lambda: observables.LossParams(1e6, eta=0.0),
    "observables-t_c":
        lambda: observables.required_q(P8, observables.LossParams(1e6), 0.0),
    "observables-mode_volume": lambda: observables.mode_volume(0.0, 3.0),
    "observables-doping":
        lambda: observables.doping_density(-1, 817.0, 3.0),
    "validate-n_max": lambda: build_basis(-1, 1),
    "validate-big_n": lambda: build_basis(1, 0),
    "validate-basis":
        lambda: build_site_hamiltonian(P8, build_basis(2, 1), 0.1, 0.0, 0.1),
    "validate-hamiltonian-t":
        lambda: build_site_hamiltonian(P8, build_basis(2, 8), -1.0, 0.0, 0.1),
    "validate-hamiltonian-psi": lambda: build_site_hamiltonian(
        P8, build_basis(2, 8), 0.1, 0.0, math.inf),
    "validate-square": lambda: lowest_eigenpair(np.ones((2, 3))),
    "validate-finite": lambda: lowest_eigenpair([[math.nan]]),
    "validate-energy-t":
        lambda: validate.ground_energy_at_psi(P8, -1.0, -2.7, 0.1),
    "validate-energy-psi":
        lambda: validate.ground_energy_at_psi(P8, 0.1, -2.7, math.inf),
    "validate-minimize-t":
        lambda: validate.minimize_order_parameter(P8, -1.0, -2.7),
    "validate-bhm-u": lambda: validate.bhm_boundary_oracle(0.0, 4, 1, 0.5),
    "validate-bhm-lobe": lambda: validate.bhm_boundary_oracle(1.0, 4, 0, 0.5),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_input_error(call):
    # InputError is still a ValueError, so callers that catch that keep working
    with pytest.raises(InputError):
        call()
