import math

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import dist
from conftest import displacement_expm


def _nonlinear(r, theta=0.0, n_max=70):
    return iq.build_nonlinear_squeezed(iq.SqueezeParams(kind="i", r=r, theta=theta, n_max=n_max))


def _unitary(xi, phase=0.0, n_max=120):
    return iq.build_squeezed(iq.SqueezeParams(kind="iii", r=xi, theta=phase, n_max=n_max))


class TestQuadratureWavefunction:
    def test_effective_vacuum_profile(self):
        vac = iq.basis_vector(3, 4)
        xs = np.linspace(-3.0, 3.0, 13)
        for phi in (0.0, 1.1, 4.0):
            got = np.abs(dist.quadrature_wavefunction(vac, xs, phi)) ** 2
            assert np.allclose(got, np.exp(-xs * xs) / math.sqrt(math.pi), atol=1e-12)

    def test_normalized_per_phase(self):
        v = _nonlinear(10.0, 0.5)
        xs = np.linspace(-8.0, 8.0, 1601)
        for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            p = np.abs(dist.quadrature_wavefunction(v, xs, phi)) ** 2
            assert abs(np.trapezoid(p, xs) - 1.0) < 1e-6

    def test_scalar_input(self):
        vac = iq.basis_vector(3, 4)
        val = dist.quadrature_wavefunction(vac, 0.5, 0.3)
        assert isinstance(val, complex)
        assert abs(val) ** 2 == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), rel=1e-12)


class TestClosedFormDistribution:
    def test_zero_amplitude_profile(self):
        params = iq.SqueezeParams(kind="i", r=0.0, n_max=10)
        xs = np.linspace(-3.0, 3.0, 7)
        phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        grid = dist.quadrature_distribution_closed(params, iq.build_state(params), xs, phis)
        expected = np.exp(-xs * xs) / math.sqrt(math.pi)
        assert np.allclose(grid.values, expected[:, None], atol=1e-12)

    def test_agrees_with_wavefunction_route(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 41)
        phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        closed = dist.quadrature_distribution_closed(params, iq.build_state(params), xs, phis)
        direct = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        assert np.max(np.abs(closed.values - direct.values)) < 1e-8

    def test_even_in_x_at_aligned_phase(self):
        theta = 0.7
        params = iq.SqueezeParams(kind="i", r=6.0, theta=theta, n_max=50)
        xs = np.linspace(-4.0, 4.0, 33)
        grid = dist.quadrature_distribution_closed(
            params, iq.build_state(params), xs, np.array([theta / 2.0])
        )
        assert np.max(np.abs(grid.values[:, 0] - grid.values[::-1, 0])) < 1e-10

    def test_pi_periodic_in_phase(self):
        v = _nonlinear(8.0, 0.3, n_max=60)
        xs = np.linspace(-4.0, 4.0, 21)
        a = np.abs(dist.quadrature_wavefunction(v, xs, 0.9)) ** 2
        b = np.abs(dist.quadrature_wavefunction(v, xs, 0.9 + math.pi)) ** 2
        assert np.max(np.abs(a - b)) < 1e-10
        c = np.abs(dist.quadrature_wavefunction(v, xs, 0.9 + 2.0 * math.pi)) ** 2
        assert np.max(np.abs(a - c)) < 1e-10

    def test_rejects_unitary_kind(self):
        params = iq.SqueezeParams(kind="iii", r=0.3)
        with pytest.raises(ValueError):
            dist.quadrature_distribution_closed(
                params, iq.build_state(params), np.array([0.0]), np.array([0.0])
            )

    def test_values_non_negative(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 51)
        phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        grid = dist.quadrature_distribution_closed(params, iq.build_state(params), xs, phis)
        assert grid.values.min() > -1e-12


class TestDisplacement:
    def test_identity_at_zero(self):
        assert dist.displacement_element_offsets(0, 0, 0.0 + 0.0j) == 1.0

    def test_vacuum_survival(self):
        got = dist.displacement_element_offsets(0, 0, 1.0 + 0.0j)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.7 + 0.2j, -0.4 + 1.1j])
    def test_matches_matrix_exponential(self, lam):
        oracle = displacement_expm(lam, 140)
        for row in range(10):
            for col in range(10):
                got = dist.displacement_element_offsets(row, col, lam)
                assert got == pytest.approx(oracle[row, col], abs=1e-10)

    def test_unitarity_column_sum(self):
        # column |2n+3> with n = 1: sum over every level, odd ones included
        lam = 0.7 + 0.2j
        total = sum(
            abs(dist.displacement_element_offsets(row, 2, lam)) ** 2 for row in range(120)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_adjoint_relation(self):
        lam = 0.5 - 0.8j
        for row, col in ((0, 3), (2, 5), (4, 1)):
            left = dist.displacement_element_offsets(row, col, lam)
            right = np.conj(dist.displacement_element_offsets(col, row, -lam))
            assert left == pytest.approx(right, abs=1e-13)


class TestCharacteristicFunction:
    def test_unit_trace(self, nonlinear_r20):
        for s in (-1.0, 0.0, 0.5):
            assert dist.characteristic_function(nonlinear_r20, 0.0 + 0.0j, s) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_hermiticity(self, nonlinear_r20):
        lam = 0.6 + 0.9j
        a = dist.characteristic_function(nonlinear_r20, lam, 0.5)
        b = dist.characteristic_function(nonlinear_r20, -lam, 0.5)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_unitary_gaussian_oracle(self):
        # Bogoliubov image of the vacuum characteristic function
        xi, phase = 0.3, 0.0
        v = _unitary(xi, phase)
        r_s = math.atanh(xi)
        for lam in (0.5 + 0.0j, 0.5 + 0.3j, -0.2 + 1.0j):
            shifted = lam * math.cosh(r_s) - np.conj(lam) * np.exp(1j * phase) * math.sinh(r_s)
            oracle = math.exp(-0.5 * abs(shifted) ** 2)
            got = dist.characteristic_function(v, lam, 0.0)
            assert got == pytest.approx(oracle, abs=1e-6)

    def test_rejects_s_at_one(self):
        with pytest.raises(dist.SParameterOutOfRange):
            dist.characteristic_function(iq.basis_vector(3, 3), 0.1 + 0.0j, 1.0)


class TestQuasiProbability:
    def test_vacuum_wigner_origin(self):
        got = dist.quasi_probability(iq.basis_vector(3, 3), 0.0 + 0.0j, 0.0)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_vacuum_husimi_origin(self):
        got = dist.quasi_probability(iq.basis_vector(3, 3), 0.0 + 0.0j, -1.0)
        assert got == pytest.approx(1.0 / math.pi, abs=1e-10)

    def test_vacuum_wigner_profile(self):
        vac = iq.basis_vector(3, 3)
        for z in (0.5 + 0.0j, 0.3 - 0.7j, 1.0 + 1.0j):
            assert dist.quasi_probability(vac, z, 0.0) == pytest.approx(
                2.0 / math.pi * math.exp(-2.0 * abs(z) ** 2), rel=1e-12
            )

    def test_number_state_wigner(self):
        # |5>: effective two-quantum state, W = 2/pi e^{-2|z|^2} L_2(4|z|^2)
        two = iq.basis_vector(5, 8)
        for z in (0.0 + 0.0j, 0.4 + 0.2j, 1.1 - 0.6j):
            arg = 4.0 * abs(z) ** 2
            expected = 2.0 / math.pi * math.exp(-2.0 * abs(z) ** 2) * (
                1.0 - 2.0 * arg + arg * arg / 2.0
            )
            assert dist.quasi_probability(two, z, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_grid_matches_scalar(self, unitary_xi04):
        xs = np.array([-1.0, 0.0, 0.8])
        ps = np.array([-0.5, 0.4])
        grid = dist.quasi_probability_grid(unitary_xi04, xs, ps, 0.0)
        for i, x in enumerate(xs):
            for j, p in enumerate(ps):
                assert grid.values[i, j] == pytest.approx(
                    dist.quasi_probability(unitary_xi04, complex(x, p), 0.0), rel=1e-12
                )

    def test_wigner_normalization(self):
        v = _unitary(0.5)
        xs = np.linspace(-4.0, 4.0, 161)
        grid = dist.quasi_probability_grid(v, xs, xs, 0.0)
        step = xs[1] - xs[0]
        assert 0.99 <= grid.values.sum() * step * step <= 1.01

    def test_husimi_non_negative(self):
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0)
        xs = np.linspace(-4.0, 4.0, 81)
        grid = dist.quasi_probability_grid(v, xs, xs, -1.0)
        assert grid.values.min() >= -1e-9

    def test_nonlinear_state_negativity(self):
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0)
        xs = np.linspace(-4.0, 4.0, 81)
        grid = dist.quasi_probability_grid(v, xs, xs, 0.5)
        assert grid.values.min() < -1e-4

    def test_fourier_oracle_spot_check(self):
        v = iq.build_state(iq.SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0), theta=math.pi / 4.0, n_max=6))
        for s in (-1.0, 0.0, 0.5):
            z = 0.5 - 1.0j
            closed = dist.quasi_probability(v, z, s)
            oracle = dist.quasi_probability_fourier(v, z, s)
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_rejects_s_at_one(self):
        with pytest.raises(dist.SParameterOutOfRange):
            dist.quasi_probability(iq.basis_vector(3, 3), 0.0 + 0.0j, 1.0)
