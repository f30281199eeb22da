import math

import numpy as np
import pytest

import mpmath

from isosqueeze import specfun
from isosqueeze.specfun import log_factorial, weighted_hermite_table
from conftest import assoc_laguerre_sequence, hermite_series, laguerre_rows_mp, laguerre_series


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_small(self):
        assert np.isclose(log_factorial(5), math.log(120.0), rtol=1e-15)

    def test_running_sum_oracle(self):
        # independent fresh summation, plus the libm gamma as a second witness
        expected = math.fsum(math.log(k) for k in range(1, 144))
        assert np.isclose(log_factorial(143), expected, rtol=1e-12)
        assert np.isclose(log_factorial(143), math.lgamma(144.0), rtol=1e-12)

    def test_monotone(self):
        vals = [log_factorial(n) for n in range(0, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_increment_is_log(self):
        for n in range(0, 301):
            assert abs(log_factorial(n + 1) - log_factorial(n) - math.log(n + 1)) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    def test_array_matches_scalar_bitwise(self):
        n = np.arange(5001)
        got = log_factorial(n[::-1])[::-1]  # the largest index first grows the cache
        want = np.array([log_factorial(int(k)) for k in n])
        assert np.array_equal(got, want)
        assert log_factorial(n[:0]).shape == (0,)

    def test_rejects_float_scalar(self):
        with pytest.raises(ValueError):
            log_factorial(5.0)

    def test_table_is_running_sum_across_growths(self, monkeypatch):
        monkeypatch.setattr(specfun, "_LOG_FACTORIALS", np.zeros(1))
        running = [0.0]
        for k in range(1, 3001):
            running.append(running[-1] + math.log(k))
        for top in (40, 7, 1501, 900, 3000):  # grown and read in mixed order
            if top % 2:
                log_factorial(top)
            else:
                log_factorial(np.arange(top + 1)[::-1])
        assert np.array_equal(specfun._LOG_FACTORIALS, np.array(running))
        assert all(log_factorial(k) == running[k] for k in range(0, 3001, 13))

    def test_array_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            log_factorial(np.array([3, -1]))
        with pytest.raises(ValueError):
            log_factorial(np.array([1.0, 2.0]))


def assoc_laguerre(n, k, x):
    """L_n^k(x), the last entry of one recurrence sweep."""
    return assoc_laguerre_sequence(n, k, x)[n]


class TestLaguerre:
    def test_degree_zero(self):
        assert assoc_laguerre(0, 5, 2.0) == 1.0

    def test_degree_one(self):
        assert np.isclose(assoc_laguerre(1, 2, 0.5), 2.5, rtol=1e-15)

    def test_degree_two(self):
        # L_2^1(x) = 3 - 3x + x^2/2
        assert np.isclose(assoc_laguerre(2, 1, 1.0), 0.5, rtol=1e-14)

    @pytest.mark.parametrize("n,k", [(3, 0), (7, 2), (12, 5), (20, 11), (30, 30)])
    def test_zero_argument_is_binomial(self, n, k):
        self._check_binomial(n, k)

    def test_all_binomials_to_30(self):
        for n in range(31):
            for k in range(0, 31, 5):
                self._check_binomial(n, k)

    @staticmethod
    def _check_binomial(n, k):
        # exact integer round-trip while the recurrence intermediates fit
        # comfortably in the float53 mantissa; relative comparison beyond
        # (float64 cannot carry the exact integers there)
        got = assoc_laguerre(n, k, 0.0)
        expected = math.comb(n + k, n)
        if expected < 2**40:
            assert round(got) == expected
        else:
            assert got == pytest.approx(expected, rel=5e-14)

    @pytest.mark.parametrize("n,k", [(5, 0), (9, 3), (15, 8)])
    def test_series_oracle(self, n, k):
        for x in (0.25, 1.0, 4.5, 17.0):
            assert np.isclose(assoc_laguerre(n, k, x), laguerre_series(n, k, x), rtol=1e-9, atol=1e-9)

    def test_sequence_matches_scalar(self):
        x = np.array([0.3, 2.0, 9.0])
        table = assoc_laguerre_sequence(12, 4, x)
        for n in range(13):
            series = [laguerre_series(n, 4, float(xi)) for xi in x]
            assert np.allclose(table[n], series, rtol=1e-13)

    def test_array_orders_match_stacked_sweeps(self):
        ks = np.array([0, 1, 4, 9, 30])
        x = np.array([-2.5, 0.0, 0.3, 2.0, 9.0, 41.0])
        table = assoc_laguerre_sequence(24, ks[:, None], x)
        stacked = np.stack([assoc_laguerre_sequence(24, int(k), x) for k in ks], axis=1)
        assert table.shape == (25, ks.size, x.size)
        assert np.array_equal(table, stacked)

    def test_rejects_negative_order_in_array(self):
        for ks in (np.array([[-1], [2]]), np.array([[3], [0], [-4]])):
            with pytest.raises(ValueError, match="non-negative"):
                assoc_laguerre_sequence(5, ks, np.array([0.5, 1.0]))


class TestLaguerreSeries:
    """``specfun.laguerre_series``, Clenshaw's sum, against the upward recurrence and exact sums."""

    @staticmethod
    def _gapped_rows():
        # complex weights whose tops (one past the last nonzero) are not sorted, one row all zero
        rng = np.random.default_rng(955)
        weights = rng.normal(size=(5, 18)) + 1j * rng.normal(size=(5, 18))
        for row, top in enumerate([7, 18, 0, 1, 12]):
            weights[row, top:] = 0.0
        weights[1, 3:9] = 0.0
        return weights, np.array([3, 0, 5, 11, 2])

    def test_matches_the_upward_recurrence(self):
        weights, ks = self._gapped_rows()
        x = np.array([-6.0, -0.5, 0.0, 0.3, 2.0, 9.0, 25.0])
        got = specfun.laguerre_series(weights, ks, x)
        assert got.shape == (ks.size, x.size)
        for row, k in enumerate(ks):
            table = assoc_laguerre_sequence(weights.shape[1] - 1, int(k), x)
            want = weights[row] @ table
            scale = np.abs(weights[row]) @ assoc_laguerre_sequence(weights.shape[1] - 1, int(k), -np.abs(x))
            assert np.all(np.abs(got[row] - want) <= 1e-13 * np.maximum(scale, 1.0))
        assert np.all(got[2] == 0.0)

    @pytest.mark.parametrize("n,k", [(0, 5), (1, 2), (5, 0), (9, 3), (15, 8)])
    def test_single_term_is_the_exact_rational_sum(self, n, k):
        weights = np.zeros((1, n + 1))
        weights[0, n] = 1.0
        for x in (0.25, 1.0, 4.5, 17.0):
            got = specfun.laguerre_series(weights, [k], np.array([x]))[0, 0]
            assert got.imag == 0.0
            assert np.isclose(got.real, laguerre_series(n, k, x), rtol=1e-9, atol=1e-9)

    def test_finite_where_the_polynomials_overflow(self):
        # sum_a q^a L_a^k(-y) with q = 0.01, y = 1e4: L_a^k(-1e4) overflows past a ~ 140 while
        # q^a stays normal to a = 153, and the sum is below e^{yq/(1-q)} / (1-q)^{k+1}
        degrees, q, y, k = 154, 0.01, 1e4, 2
        weights = q ** np.arange(degrees)[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(assoc_laguerre_sequence(degrees - 1, k, np.array([-y]))))
        got = specfun.laguerre_series(weights, [k], np.array([-y]))[0, 0]
        with mpmath.workdps(40):
            rows = laguerre_rows_mp(degrees - 1, k, mpmath.mpf(-y))
            want = float(mpmath.fsum(mpmath.mpf(float(w)) * row for w, row in zip(weights[0], rows)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="non-negative"):
            specfun.laguerre_series(np.ones((2, 3)), [1, -1], np.array([0.5]))


class TestWeightedHermite:
    def test_matches_direct_formula(self):
        xs = np.linspace(-4.0, 4.0, 17)
        table = weighted_hermite_table(25, xs)
        for n in (0, 1, 7, 25):
            direct = (
                np.array([hermite_series(n, float(x)) for x in xs])
                * np.exp(-xs * xs / 2.0)
                / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            )
            assert np.allclose(table[n], direct, atol=1e-12)

    def test_orthonormal(self):
        xs = np.linspace(-10.0, 10.0, 4001)
        table = weighted_hermite_table(12, xs)
        gram = table @ table.T * (xs[1] - xs[0])
        assert np.allclose(gram, np.eye(13), atol=1e-9)

    def test_stays_finite_at_high_degree(self):
        table = weighted_hermite_table(600, np.linspace(-8.0, 8.0, 41))
        assert np.all(np.isfinite(table))
        assert np.max(np.abs(table)) < 1.0
