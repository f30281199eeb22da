"""Numerically stable special-function kernels.

Everything downstream (state construction, moment sums, distribution
grids) funnels its factorial ratios and orthogonal-polynomial needs
through this module.  Factorials are handled exclusively in log space:
the amplitude laws involve ratios like (2n)!/((2n+2)!(2n+3)!) whose
numerator and denominator separately overflow float64 long before the
ratio does.  Polynomials use upward three-term recurrences: one sweep
gives every degree of the associated Laguerre polynomials for an array
of orders at once (the phase-space kernel reads a run of orders from
one sweep), and the weighted Hermite table gives the oscillator
eigenfunctions.  The explicit
alternating sums cancel catastrophically past degree ~20 and are only
used as cross-check oracles in the test suite.

All functions are pure and accept scalars or numpy arrays where noted;
they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial",
    "assoc_laguerre_sequence",
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


def assoc_laguerre_sequence(n_max: int, k, x: np.ndarray) -> np.ndarray:
    """All of L_0^k(x) .. L_{n_max}^k(x) in one recurrence sweep.

    (m+1) L_{m+1}^k = (2m + k + 1 - x) L_m^k - (m + k) L_{m-1}^k.
    The order ``k`` is an integer or an integer array that broadcasts
    against ``x``; each entry is swept in the same operation order as
    a sweep at that order alone, so the values are bit-identical to
    it.  Returns an array of shape (n_max + 1,) + the broadcast shape.
    L_n^k(x) alone is the last row of a sweep to degree n.
    """
    k = np.asarray(k)
    if n_max < 0 or k.min() < 0:
        raise ValueError("assoc_laguerre_sequence degree and order must be non-negative")
    x = np.asarray(x, dtype=float)
    first = 1.0 + k - x  # L_1, in the broadcast shape
    out = np.empty((n_max + 1,) + first.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = first
    # the recurrence coefficients of every degree m = 1 .. n_max - 1, formed once
    degree = np.arange(1.0, n_max).reshape((-1,) + (1,) * k.ndim)
    diagonal, lower = 2.0 * degree + k + 1.0, degree + k
    for m in range(1, n_max):
        # in place, in the operation order of the recurrence above
        row = out[m + 1, ...]
        np.subtract(diagonal[m - 1], x, out=row)
        row *= out[m]
        row -= lower[m - 1] * out[m - 1]
        row /= m + 1.0
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
