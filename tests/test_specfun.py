import math

import numpy as np
import pytest

from isosqueeze.specfun import (
    assoc_laguerre,
    assoc_laguerre_sequence,
    log_factorial,
    weighted_hermite_table,
)
from conftest import hermite_series, laguerre_series


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

    def test_array_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            log_factorial(np.array([3, -1]))
        with pytest.raises(ValueError):
            log_factorial(np.array([1.0, 2.0]))


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
            assert np.allclose(table[n], assoc_laguerre(n, 4, x), rtol=1e-13)


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
