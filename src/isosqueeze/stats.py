"""Photon statistics and moment-based non-classicality diagnostics.

All quantities are taken with respect to the excitation number above
the effective vacuum |3> (the counting operator of the Heisenberg
pair), which acts on |3>, |4>, ... exactly as the usual photon number
acts on |0>, |1>, ...  ``moments`` reads a (rows, levels) probability
array once and returns each row's falling-factorial moments m_1..m_4,
accumulated with exact falling-factorial weights rather than by
repeated operator application, so truncation-edge leakage cannot enter.
A sweep's one route is ``sweep_moments``: each ``build_sweep`` rung read
on its even offsets, where the builders put all probability.  Mandel Q,
g2(0) and A3 are array closed forms of that (rows, 4) table, NaN where
undefined and g2 inf where it exceeds the float range: <nu> = m_1 and
<nu^2> = m_2 + m_1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "moments",
    "sweep_moments",
    "mandel_q",
    "g2_zero",
    "a3_parameter",
]


def moments(p: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Falling-factorial moments m_j = sum nu (nu-1) ... (nu-j+1) P(nu), j = 1..4, per row.

    Row k of ``p`` is one distribution, its column i the probability of
    offset ``nu[i]``; the result is a (rows, 4) table.  One running
    weight is multiplied by nu - j per order; offsets below j contribute
    exactly zero, so m_j effectively starts at offset j.
    """
    nu = np.asarray(nu, dtype=float)
    m = np.empty((p.shape[0], 4))
    weight = np.ones_like(nu)
    for j in range(4):
        weight *= nu - j
        m[:, j] = np.sum(weight * p, axis=1)
    return m


def sweep_moments(rungs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``moments`` on the even offsets 2n, n_max and tail bound of a ``build_sweep`` result; row k is modulus k."""
    rows = sum(rung.rows.size for rung in rungs)
    m, effective, tail = np.empty((rows, 4)), np.empty(rows, dtype=int), np.empty(rows)
    for rung in rungs:
        m[rung.rows] = moments(rung.amps**2, 2 * np.arange(rung.n_max + 1))
        effective[rung.rows], tail[rung.rows] = rung.n_max, rung.tail_bound
    return m, effective, tail


def _where_excited(num, den, m1) -> np.ndarray:
    """num / den where the mean excitation m1 is nonzero; NaN (undefined) where it is 0."""
    return np.divide(num, den, out=np.full(np.shape(m1), np.nan), where=m1 != 0.0)


def mandel_q(m: np.ndarray) -> np.ndarray:
    """Mandel Q = m_2/m_1 - m_1 per row of a ``moments`` table; > 0 is super-Poissonian."""
    return _where_excited(m[..., 1], m[..., 0], m[..., 0]) - m[..., 0]


def g2_zero(m: np.ndarray) -> np.ndarray:
    """Zero-delay second-order correlation m_2 / m_1^2 per row of a ``moments`` table.

    Taken as (m_2 / m_1) / m_1, which stays finite where m_1^2 underflows;
    inf where even that overflows (m_1 near the smallest subnormal).
    """
    m1 = m[..., 0]
    with np.errstate(over="ignore"):
        return _where_excited(_where_excited(m[..., 1], m1, m1), m1, m1)


def _det3(m: np.ndarray) -> np.ndarray:
    """Cofactor expansion of 3x3 matrices m[i, j, ...]; deterministic rounding, no pivoting."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _hankel(h) -> np.ndarray:
    """[[1, h_1, h_2], [h_1, h_2, h_3], [h_2, h_3, h_4]], stacked along the trailing axes of h_j."""
    one = np.ones_like(h[0])
    return np.array([[one, h[0], h[1]], [h[0], h[1], h[2]], [h[1], h[2], h[3]]])


def a3_parameter(m: np.ndarray) -> np.ndarray:
    """Moment-determinant ratio det m3 / (det mu3 - det m3) per row of a ``moments`` table.

    Values in [-1, 0) witness non-classicality; -1 is attained by
    number states.  NaN where the denominator vanishes (0/0: all moments
    zero, e.g. the effective vacuum).
    """
    h = [m[..., j] for j in range(4)]
    mat_mu = _hankel([h[0] ** j for j in range(1, 5)])
    det_m = _det3(_hankel(h))
    det_mu = _det3(mat_mu)
    # identically zero in exact arithmetic; allow cofactor rounding at the
    # scale of the matrix entries before declaring a sign violation
    mu_scale = np.maximum(1.0, np.abs(mat_mu).max(axis=(0, 1)) ** 3)
    if np.any(det_mu < -1e-13 * mu_scale):
        raise ArithmeticError(f"mu-moment determinant should be non-negative, got {np.min(det_mu)}")
    denom = det_mu - det_m
    return np.divide(det_m, denom, out=np.full(np.shape(denom), np.nan), where=np.abs(denom) >= 1e-14)
