"""Photon statistics and moment-based non-classicality diagnostics.

All quantities are taken with respect to the excitation number above
the effective vacuum |3> (the counting operator of the Heisenberg
pair), which acts on |3>, |4>, ... exactly as the usual photon number
acts on |0>, |1>, ...  ``moments`` reads the probability vector once
and returns the falling-factorial moments m_1..m_4, accumulated with
exact falling-factorial weights rather than by repeated operator
application, so truncation-edge leakage cannot enter.  Mandel Q,
g2(0) and A3 are closed forms of that one table: <nu> = m_1 and
<nu^2> = m_2 + m_1.
"""

from __future__ import annotations

import numpy as np

from .fock import FockVector, probabilities

__all__ = [
    "UndefinedMoment",
    "UndefinedA3",
    "moments",
    "mandel_q",
    "g2_zero",
    "a3_parameter",
]


class UndefinedMoment(ZeroDivisionError):
    """Moment ratio undefined: the state carries no excitation."""


class UndefinedA3(ZeroDivisionError):
    """A3 denominator vanishes (0/0); the input is degenerate."""


def moments(v: FockVector) -> np.ndarray:
    """Falling-factorial moments m_j = sum nu (nu-1) ... (nu-j+1) P(nu), j = 1..4.

    One running weight is multiplied by nu - j per order; offsets below
    j contribute exactly zero, so m_j effectively starts at offset j.
    """
    nu = v.offsets.astype(float)
    p = probabilities(v)
    m = np.empty(4)
    weight = np.ones_like(nu)
    for j in range(4):
        weight *= nu - j
        m[j] = np.sum(weight * p)
    return m


def mandel_q(m: np.ndarray) -> float:
    """Mandel Q = m_2/m_1 - m_1 of a ``moments`` table; > 0 is super-Poissonian."""
    if m[0] == 0.0:
        raise UndefinedMoment("Mandel Q undefined for a state with zero mean excitation")
    return float(m[1] / m[0] - m[0])


def g2_zero(m: np.ndarray) -> float:
    """Zero-delay second-order correlation m_2 / m_1^2 of a ``moments`` table."""
    if m[0] == 0.0:
        raise UndefinedMoment("g2(0) undefined for a state with zero mean excitation")
    return float(m[1] / m[0] ** 2)


def _det3(m: np.ndarray) -> float:
    """Cofactor expansion of a 3x3; deterministic rounding, no pivoting."""
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _hankel(h) -> np.ndarray:
    """[[1, h_1, h_2], [h_1, h_2, h_3], [h_2, h_3, h_4]]."""
    return np.array([[1.0, h[0], h[1]], [h[0], h[1], h[2]], [h[1], h[2], h[3]]])


def a3_parameter(m: np.ndarray) -> float:
    """Moment-determinant ratio det m3 / (det mu3 - det m3) of a ``moments`` table.

    Values in [-1, 0) witness non-classicality; -1 is attained by
    number states.  Raises :class:`UndefinedA3` when the denominator
    vanishes (all moments zero, e.g. the effective vacuum).
    """
    mat_m = _hankel(m)
    mat_mu = _hankel([float(m[0]) ** j for j in range(1, 5)])
    det_m = _det3(mat_m)
    det_mu = _det3(mat_mu)
    # identically zero in exact arithmetic; allow cofactor rounding at the
    # scale of the matrix entries before declaring a sign violation
    mu_scale = max(1.0, float(np.abs(mat_mu).max()) ** 3)
    if det_mu < -1e-13 * mu_scale:
        raise ArithmeticError(f"mu-moment determinant should be non-negative, got {det_mu}")
    denom = det_mu - det_m
    if abs(denom) < 1e-14:
        raise UndefinedA3("A3 is 0/0 for this state")
    return det_m / denom
