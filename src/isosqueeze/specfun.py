"""Numerically stable special-function kernels.

Everything downstream (state construction, moment sums, distribution
grids) funnels its factorial ratios and orthogonal-polynomial needs
through this module.  Factorials are handled exclusively in log space:
the amplitude laws involve ratios like (2n)!/((2n+2)!(2n+3)!) whose
numerator and denominator separately overflow float64 long before the
ratio does.  Weighted sums of associated Laguerre polynomials are
summed by Clenshaw's backward recurrence, a run of orders at once,
without forming the polynomials (the phase-space kernel's radial
series); the weighted Hermite table gives the oscillator
eigenfunctions by its upward recurrence.  The explicit alternating
sums cancel catastrophically past degree ~20 and, like the upward
Laguerre recurrence, are only used as cross-check oracles in the test
suite.

All functions are pure and accept scalars or numpy arrays where noted;
they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial",
    "laguerre_series",
    "weighted_hermite_table",
]

# ln(n!) for n = 0 .. size - 1 as a running sum of math.log(k), grown
# on demand; one table serves scalar and array lookups.
_LOG_FACTORIALS = np.zeros(1)


def log_factorial(n):
    """Return ln(n!) from a cached running sum of logs.

    The cumulative construction makes log_factorial(n+1) -
    log_factorial(n) reproduce ln(n+1) to the last bit, which the
    series code relies on when forming term ratios.  An integer
    ndarray ``n`` returns the array of ln(n!) values; an integer scalar
    returns a float, bit-identical to the array entry.  Non-integer
    input (float scalars included) is refused.
    """
    global _LOG_FACTORIALS
    idx = np.asarray(n)
    if idx.dtype.kind not in "iu" or (idx.size and idx.min() < 0):
        raise ValueError(f"log_factorial expects non-negative integers, got {n!r}")
    top = int(idx.max()) if idx.size else 0
    table = _LOG_FACTORIALS  # a local reference: a concurrent grower may swap the global
    if table.size <= top:
        steps = [table[-1]] + [math.log(k) for k in range(table.size, top + 1)]
        table = _LOG_FACTORIALS = np.concatenate((table, np.add.accumulate(steps)[1:]))
    out = table[idx]
    return out if isinstance(n, np.ndarray) else float(out)


def laguerre_series(weights, k, x) -> np.ndarray:
    """sum_a weights[j, a] L_a^{k_j}(x_i) for each row j and argument x_i, shape (rows, x.size).

    Clenshaw's backward recurrence (Math. Comp. 9, 118, 1955) on the
    Laguerre recurrence (a+1) L_{a+1}^k = (2a + k + 1 - x) L_a^k - (a + k) L_{a-1}^k:
    b_a = w_a + (2a + k + 1 - x)/(a + 1) b_{a+1} - (a + k + 1)/(a + 2) b_{a+2},
    and the sum is b_0.  No L_a^k(x) is formed, so the sum stays finite
    where the polynomials overflow but the weighted series does not.
    ``weights`` is (rows, degrees), complex or real, ``k`` the rows'
    non-negative integer orders and ``x`` 1-D.  The rows are swept
    together, by descending top (one past the last nonzero weight), so
    that step a touches only the rows whose top exceeds a.  Returns complex.
    """
    w = np.asarray(weights, dtype=complex)
    k = np.asarray(k)
    if k.size and k.min() < 0:
        raise ValueError("laguerre_series orders must be non-negative")
    x = np.asarray(x, dtype=float)
    nonzero = w != 0
    tops = np.where(nonzero.any(axis=1), w.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0)
    rows = np.argsort(-tops, kind="stable")
    k, tops = k[rows], tops[rows]
    parts = np.stack([w.real, w.imag], axis=2)[rows]  # (rows, degrees, re/im)
    live = np.searchsorted(-tops, -np.arange(tops.max(initial=0)))  # rows whose top exceeds a
    ahead, after = np.zeros((2, rows.size, 2, x.size))  # b_{a+1} and b_{a+2}
    for a in range(live.size - 1, -1, -1):
        n = live[a]
        alpha = ((2 * a + 1 + k[:n]) / (a + 1.0))[:, None] - x / (a + 1.0)
        b = after[:n]  # b_a overwrites b_{a+2}; rows past those alive at a + 1 hold zeros
        b *= -((a + 1 + k[:n]) / (a + 2.0))[:, None, None]
        b += alpha[:, None, :] * ahead[:n]
        b += parts[:n, a, :, None]
        ahead, after = after, ahead
    out = np.empty((rows.size, x.size), dtype=complex)
    out[rows] = ahead[:, 0] + 1j * ahead[:, 1]
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
    with np.errstate(over="ignore"):  # x * x is inf past |x| ~ 1e154, where the weight is 0 anyway
        table[0] = np.exp(-0.5 * x * x) / math.pi ** 0.25
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, n_max):
        table[n + 1] = math.sqrt(2.0 / (n + 1)) * x * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    return table
