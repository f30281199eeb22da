"""Numerically stable special-function kernels.

Everything downstream (state construction, moment sums, distribution
grids) funnels its factorial ratios and orthogonal-polynomial needs
through this module.  Factorials are handled exclusively in log space:
the amplitude laws involve ratios like (2n)!/((2n+2)!(2n+3)!) whose
numerator and denominator separately overflow float64 long before the
ratio does.  Polynomials use upward three-term recurrences; the
explicit alternating sums cancel catastrophically past degree ~20 and
are only used as cross-check oracles in the test suite.

All functions are pure and accept scalars or numpy arrays where noted;
they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial",
    "assoc_laguerre",
    "assoc_laguerre_sequence",
    "weighted_hermite_table",
]

# ln(n!) running sums, grown on demand; index n holds ln(n!).  The
# array is a copy of the list for vectorized lookups.
_LOG_FACTORIALS: list[float] = [0.0]
_LOG_FACTORIAL_ARRAY = np.zeros(1)


def log_factorial(n):
    """Return ln(n!) as a cached running sum of logs.

    The cumulative construction makes log_factorial(n+1) -
    log_factorial(n) reproduce ln(n+1) to the last bit, which the
    series code relies on when forming term ratios.  An integer
    ndarray ``n`` returns the array of ln(n!) values, bit-identical to
    the scalar results.
    """
    global _LOG_FACTORIAL_ARRAY
    if isinstance(n, np.ndarray):
        if n.dtype.kind not in "iu" or (n.size and n.min() < 0):
            raise ValueError("log_factorial expects non-negative integers")
        top = int(n.max()) if n.size else 0
        if _LOG_FACTORIAL_ARRAY.size <= top:
            log_factorial(top)  # grows the list
            _LOG_FACTORIAL_ARRAY = np.array(_LOG_FACTORIALS)
        return _LOG_FACTORIAL_ARRAY[n]
    if n < 0 or n != int(n):
        raise ValueError(f"log_factorial expects a non-negative integer, got {n!r}")
    n = int(n)
    while len(_LOG_FACTORIALS) <= n:
        k = len(_LOG_FACTORIALS)
        _LOG_FACTORIALS.append(_LOG_FACTORIALS[-1] + math.log(k))
    return _LOG_FACTORIALS[n]


def assoc_laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x) by upward recurrence.

    (m+1) L_{m+1}^k = (2m + k + 1 - x) L_m^k - (m + k) L_{m-1}^k,
    stable for x >= 0 and the moderate negative arguments used by the
    quasi-probability kernels.
    """
    if n < 0 or k < 0:
        raise ValueError("assoc_laguerre degree and order must be non-negative")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + k - x
    for m in range(1, n):
        l_cur, l_prev = ((2.0 * m + k + 1.0 - x) * l_cur - (m + k) * l_prev) / (m + 1.0), l_cur
    return l_cur if l_cur.ndim else float(l_cur)


def assoc_laguerre_sequence(n_max: int, k: int, x: np.ndarray) -> np.ndarray:
    """All of L_0^k(x) .. L_{n_max}^k(x) in one recurrence sweep.

    Returns an array of shape (n_max + 1,) + x.shape.  The phase-space
    grids evaluate many degrees at a fixed order, so a single sweep
    beats n_max separate recurrences.
    """
    if n_max < 0 or k < 0:
        raise ValueError("assoc_laguerre_sequence degree and order must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + k - x
    for m in range(1, n_max):
        out[m + 1] = ((2.0 * m + k + 1.0 - x) * out[m] - (m + k) * out[m - 1]) / (m + 1.0)
    return out


def weighted_hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions u_n(x) for n = 0..n_max.

    u_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)).  The weighted
    recurrence u_{n+1} = x sqrt(2/(n+1)) u_n - sqrt(n/(n+1)) u_{n-1}
    keeps every entry O(1), so quadrature-distribution sums stay finite
    at degrees where the bare H_n(x) would overflow.

    Returns shape (n_max + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((n_max + 1, x.size), dtype=float)
    table[0] = np.exp(-0.5 * x * x) / math.pi ** 0.25
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, n_max):
        table[n + 1] = math.sqrt(2.0 / (n + 1)) * x * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    return table
