"""Photon statistics and moment-based non-classicality diagnostics.

All quantities are taken with respect to the excitation number above
the effective vacuum |3> (the counting operator of the Heisenberg
pair), which acts on |3>, |4>, ... exactly as the usual photon number
acts on |0>, |1>, ...  Moments are accumulated from the probability
vector with exact falling-factorial weights rather than by repeated
operator application; this avoids truncation-edge leakage entirely.
"""

from __future__ import annotations

import numpy as np

from .fock import FockVector, probabilities

__all__ = [
    "UndefinedMoment",
    "UndefinedA3",
    "excitation_moments",
    "mandel_q",
    "g2_zero",
    "factorial_moment",
    "a3_parameter",
]


class UndefinedMoment(ZeroDivisionError):
    """Moment ratio undefined: the state carries no excitation."""


class UndefinedA3(ZeroDivisionError):
    """A3 denominator vanishes (0/0); the input is degenerate."""


def excitation_moments(v: FockVector) -> tuple[float, float]:
    """First two moments of the excitation number above |3>."""
    nu = v.offsets.astype(float)
    p = probabilities(v)
    return float(np.sum(nu * p)), float(np.sum(nu * nu * p))


def mandel_q(v: FockVector) -> float:
    """Mandel Q = <nu^2>/<nu> - <nu> - 1; > 0 is super-Poissonian."""
    mean, mean_sq = excitation_moments(v)
    if mean == 0.0:
        raise UndefinedMoment("Mandel Q undefined for a state with zero mean excitation")
    return mean_sq / mean - mean - 1.0

def g2_zero(v: FockVector) -> float:
    """Zero-delay second-order correlation (<nu^2> - <nu>) / <nu>^2."""
    mean, mean_sq = excitation_moments(v)
    if mean == 0.0:
        raise UndefinedMoment("g2(0) undefined for a state with zero mean excitation")
    return (mean_sq - mean) / mean**2


def factorial_moment(v: FockVector, j: int) -> float:
    """j-th falling-factorial moment sum nu (nu-1) ... (nu-j+1) P(nu).

    Offsets below j contribute exactly zero, so the sum effectively
    starts at the first even offset >= j.
    """
    if not 1 <= j <= 4:
        raise ValueError("factorial moments are tabulated for j = 1..4")
    nu = v.offsets.astype(float)
    p = probabilities(v)
    weight = np.ones_like(nu)
    for t in range(j):
        weight = weight * (nu - t)
    weight[: j] = 0.0  # clip the identically-zero head against rounding
    return float(np.sum(weight * p))


def _det3(m: np.ndarray) -> float:
    """Cofactor expansion of a 3x3; deterministic rounding, no pivoting."""
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _moment_matrices(v: FockVector) -> tuple[np.ndarray, np.ndarray]:
    m = [factorial_moment(v, j) for j in range(1, 5)]
    mean = m[0]
    mu = [mean**j for j in range(1, 5)]
    mat_m = np.array(
        [[1.0, m[0], m[1]], [m[0], m[1], m[2]], [m[1], m[2], m[3]]]
    )
    mat_mu = np.array(
        [[1.0, mu[0], mu[1]], [mu[0], mu[1], mu[2]], [mu[1], mu[2], mu[3]]]
    )
    return mat_m, mat_mu


def a3_parameter(v: FockVector) -> float:
    """Moment-determinant ratio det m3 / (det mu3 - det m3).

    Values in [-1, 0) witness non-classicality; -1 is attained by
    number states.  Raises :class:`UndefinedA3` when the denominator
    vanishes (all moments zero, e.g. the effective vacuum).
    """
    mat_m, mat_mu = _moment_matrices(v)
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
