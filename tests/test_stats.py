import math
from fractions import Fraction

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import stats
from conftest import basis_vector, power_moments, state_moments, unitary_probability


def _unitary_state(xi, n_max=400):
    return iq.build_state(iq.SqueezeParams(kind="iii", r=xi, n_max=n_max))


def _mean_and_square(v):
    """<nu> = m_1 and <nu^2> = m_2 + m_1 from the moment table."""
    m = state_moments(v)
    return float(m[0]), float(m[1] + m[0])


def _photon_distribution(v):
    return list(zip(v.levels.tolist(), (np.abs(v.amps) ** 2).tolist()))


class TestPhotonDistribution:
    def test_effective_vacuum(self):
        dist = _photon_distribution(basis_vector(3, 4))
        assert dist[0] == (3, 1.0)
        assert all(p == 0.0 for _, p in dist[1:])

    def test_unitary_ground_weight(self, unitary_xi04):
        dist = dict(_photon_distribution(unitary_xi04))
        assert dist[3] == pytest.approx(math.sqrt(0.84), rel=1e-12)

    def test_matches_term_formula(self, unitary_xi04):
        dist = dict(_photon_distribution(unitary_xi04))
        for n in (0, 1, 2, 5, 10):
            assert dist[2 * n + 3] == pytest.approx(unitary_probability(n, 0.4), rel=1e-10)

    def test_nonlinear_even_support(self, nonlinear_r20):
        dist = dict(_photon_distribution(nonlinear_r20))
        assert all(dist[lev] == 0.0 for lev in range(4, 140, 2))
        assert dist[5] > 0.0


class TestExcitationMoments:
    def test_effective_vacuum(self):
        assert _mean_and_square(basis_vector(3, 4)) == (0.0, 0.0)

    def test_eigenstate(self):
        assert _mean_and_square(basis_vector(7, 8)) == (4.0, 16.0)

    def test_unitary_closed_form(self):
        for xi in (0.2, 0.4, 0.7):
            mean, _ = _mean_and_square(_unitary_state(xi))
            assert mean == pytest.approx(xi * xi / (1.0 - xi * xi), abs=1e-10)

    def test_direct_series_oracle(self):
        xi = 0.4
        mean, mean_sq = _mean_and_square(_unitary_state(xi, n_max=70))
        oracle_mean = sum(2 * n * unitary_probability(n, xi) for n in range(71))
        oracle_sq = sum((2 * n) ** 2 * unitary_probability(n, xi) for n in range(71))
        assert mean == pytest.approx(oracle_mean, rel=1e-12)
        assert mean_sq == pytest.approx(oracle_sq, rel=1e-12)


class TestMandelAndG2:
    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_squeezed_vacuum_closed_forms(self, xi):
        m = state_moments(_unitary_state(xi))
        mean = m[0]
        assert stats.mandel_q(m) == pytest.approx(2.0 * mean + 1.0, abs=1e-8)
        assert stats.g2_zero(m) == pytest.approx(3.0 + 1.0 / mean, abs=1e-8)

    def test_q_g2_relation(self, nonlinear_r20):
        m = state_moments(nonlinear_r20)
        mean = m[0]
        q = stats.mandel_q(m)
        g2 = stats.g2_zero(m)
        assert q == pytest.approx(mean * (g2 - 1.0), abs=1e-10)

    def test_undefined_on_vacuum(self):
        # NaN marks the vacuum row; the number state |5> beside it keeps its values
        table = np.array([state_moments(basis_vector(3, 4)), state_moments(basis_vector(5, 6))])
        q, g2 = stats.mandel_q(table), stats.g2_zero(table)
        assert math.isnan(q[0]) and math.isnan(g2[0])
        assert (q[1], g2[1]) == (-1.0, 0.5)

    def test_g2_where_m1_squared_underflows(self):
        # m_1^2 = 1e-342 underflows to 0; (m_2/m_1)/m_1 keeps g2 = 2e171
        table = np.array([[1e-171, 2e-171, 0.0, 0.0]])
        assert stats.g2_zero(table)[0] == pytest.approx(2e171, rel=1e-15)

    def test_nonlinear_sweep_super_poissonian(self):
        for r in np.linspace(31.0 / 16, 31.0, 16):
            v = iq.build_state(iq.SqueezeParams(kind="i", r=float(r), n_max=70))
            m = state_moments(v)
            assert stats.mandel_q(m) > 0.0
            assert stats.g2_zero(m) > 1.0


class TestFactorialMoments:
    def test_eigenstate_falling_factorials(self):
        m = state_moments(basis_vector(5, 8))
        assert m[0] == 2.0
        assert m[1] == 2.0
        assert m[2] == 0.0
        assert m[3] == 0.0

    def test_vacuum_all_zero(self):
        vac = basis_vector(3, 6)
        assert all(m == 0.0 for m in state_moments(vac))

    def test_second_moment_operator_identity(self, unitary_xi04):
        # R^2 L^2 = K0 (K0 - 1) on the ladder
        mean, mean_sq = power_moments(unitary_xi04)
        assert state_moments(unitary_xi04)[1] == pytest.approx(mean_sq - mean, abs=1e-10)

    def test_non_negative(self, nonlinear_r20, unitary_xi04):
        for v in (nonlinear_r20, unitary_xi04):
            for m in state_moments(v):
                assert m >= 0.0


def _exact_factorial_moments(p):
    """sum nu (nu-1) ... (nu-j+1) p_nu for j = 1..4 in rational arithmetic."""
    return [sum(math.perm(nu, j) * Fraction(p_nu) for nu, p_nu in enumerate(p)) for j in range(1, 5)]


class TestMomentTable:
    """``moments`` against exact rational sums."""

    @pytest.mark.parametrize("level", [3, 4, 5, 6, 7, 12, 40])
    def test_number_states_exact(self, level):
        v = basis_vector(level, level + 5)
        assert state_moments(v).tolist() == _exact_factorial_moments((np.abs(v.amps) ** 2).tolist())

    def test_random_rational_distribution(self):
        rng = np.random.default_rng(1992)
        counts = rng.integers(0, 1000, size=60).tolist()
        p = [Fraction(c, sum(counts)) for c in counts]
        m = state_moments(iq.FockVector(np.sqrt([float(p_nu) for p_nu in p])))
        for got, want in zip(m, _exact_factorial_moments(p)):
            assert got == pytest.approx(float(want), rel=1e-13)


class TestA3:
    def test_number_state_hits_minus_one(self):
        # det m3 of |5>: [[1,2,2],[2,2,0],[2,0,0]] = -8; det mu3 = 0
        assert stats.a3_parameter(state_moments(basis_vector(5, 12))) == pytest.approx(-1.0, abs=1e-12)

    def test_vacuum_undefined(self):
        table = np.array([state_moments(basis_vector(3, 6)), state_moments(basis_vector(5, 12))])
        a3 = stats.a3_parameter(table)
        assert math.isnan(a3[0])
        assert a3[1] == pytest.approx(-1.0, abs=1e-12)

    def test_nonlinear_sweep_in_witness_band(self):
        for r in np.linspace(31.0 / 16, 31.0, 16):
            v = iq.build_state(iq.SqueezeParams(kind="i", r=float(r), n_max=70))
            a3 = stats.a3_parameter(state_moments(v))
            assert -1.0 - 1e-9 <= a3 < 0.0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a3_parameter fills mu with <nu>^j = m_1^j, a rank-1 matrix with det 0, so "
        "A3 = det m / (0 - det m) is -1 for every state; Agarwal and Tara "
        "(PRA 46, 485, 1992) define mu_j = <nu^j>, which gives 0.2817 at xi = 0.4",
    )
    def test_matches_agarwal_tara_definition(self):
        xi, n_terms = 0.4, 150
        p = np.array([unitary_probability(n, xi) for n in range(n_terms)])
        nu = 2.0 * np.arange(n_terms)  # P(2n) sits on offset 2n
        factorial = [np.sum(p * np.prod([nu - t for t in range(j)], axis=0)) for j in range(1, 5)]
        ordinary = [np.sum(p * nu**j) for j in range(1, 5)]

        def hankel_det(m):
            return np.linalg.det([[1.0, m[0], m[1]], [m[0], m[1], m[2]], [m[1], m[2], m[3]]])

        det_m, det_mu = hankel_det(factorial), hankel_det(ordinary)
        expected = det_m / (det_mu - det_m)
        assert expected == pytest.approx(0.2817, abs=1e-4)
        assert stats.a3_parameter(state_moments(_unitary_state(xi))) == pytest.approx(expected, rel=1e-9)

