"""Quadrature distribution and s-parameterized quasi-probability.

The quadrature eigenstates of the rotated Heisenberg quadrature carry
the usual oscillator wavefunctions over the shifted ladder, so the
phase-parameterized distribution P(x, phi) is a Hermite-weighted double
sum.  Two independent routes are provided and must agree pointwise: the
squared projection onto the quadrature eigenstate, and the explicit
closed-form cosine double sum for the non-unitary-route states.

Phase-space structure comes from the displacement operator generated by
the Heisenberg pair.  Its matrix elements follow the two-branch closed
form (Laguerre of degree min, order |difference|, factorial ratio
sqrt(min!/max!), sign on the conjugated branch) that is forced by
unitarity; a truncated matrix exponential oracle in the test suite pins
it down.  The s-parameterized quasi-probability is then either the
closed-form Laguerre double sum or, as a brute-force cross-check, the
numerical 2-D Fourier transform of the characteristic function.

The Husimi endpoint s = -1 is evaluated through its analytic limit
(coherent-state projection): the generic term is a 0 * inf product
there and must not be evaluated literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector
from .specfun import (
    assoc_laguerre,
    assoc_laguerre_sequence,
    log_factorial,
    weighted_hermite_table,
)
from .states import CASE_NONLINEAR, SqueezeParams

__all__ = [
    "DistGrid",
    "SParameterOutOfRange",
    "quadrature_wavefunction",
    "quadrature_distribution",
    "quadrature_distribution_closed",
    "displacement_element_offsets",
    "characteristic_function",
    "quasi_probability",
    "quasi_probability_grid",
    "quasi_probability_fourier",
]

# Amplitudes below this cannot influence double sums at float64 scale.
_SUPPORT_CUTOFF = 1e-150

_IMAG_TOL = 1e-8


class SParameterOutOfRange(ValueError):
    """s >= 1 requested; the s = 1 endpoint is singular and out of scope."""


@dataclass(frozen=True)
class DistGrid:
    """Sampled distribution values over a 2-D grid.

    ``values[i, j]`` corresponds to (axis1[i], axis2[j]).  ``s`` is the
    ordering parameter for quasi-probability grids and None for the
    quadrature distribution.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    s: float | None = None


def _support(v: FockVector) -> np.ndarray:
    return np.nonzero(np.abs(v.amps) > _SUPPORT_CUTOFF)[0]


# ---------------------------------------------------------------------------
# quadrature distribution
# ---------------------------------------------------------------------------


def quadrature_wavefunction(v: FockVector, x, phi: float):
    """Projection of ``v`` onto the phase-phi quadrature eigenstate.

    <x, phi|v> = sum_nu c_{nu+3} e^{-i nu phi} u_nu(x) with u_nu the
    oscillator eigenfunctions.  ``x`` may be a scalar or 1-D array; the
    squared magnitude of the result is the quadrature distribution.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    nu_max = v.amps.size - 1
    table = weighted_hermite_table(nu_max, x_arr)
    phases = np.exp(-1j * phi * np.arange(nu_max + 1))
    psi = (v.amps * phases) @ table
    return psi if np.ndim(x) else complex(psi[0])


def quadrature_distribution(v: FockVector, x_axis: np.ndarray, phi_axis: np.ndarray) -> DistGrid:
    """P(x, phi) = |<x, phi|v>|^2 on the grid, via the wavefunction."""
    x_axis = np.asarray(x_axis, dtype=float)
    phi_axis = np.asarray(phi_axis, dtype=float)
    nu_max = v.amps.size - 1
    table = weighted_hermite_table(nu_max, x_axis)  # (nu, x)
    phases = np.exp(-1j * np.outer(phi_axis, np.arange(nu_max + 1)))  # (phi, nu)
    psi = (phases * v.amps[None, :]) @ table  # (phi, x)
    return DistGrid(axis1=x_axis, axis2=phi_axis, values=np.abs(psi.T) ** 2, s=None)


def quadrature_distribution_closed(
    params: SqueezeParams, v: FockVector, x_axis: np.ndarray, phi_axis: np.ndarray
) -> DistGrid:
    """Closed-form P(x, phi) for the non-unitary-route states.

    ``v`` is the state ``build_state(params)``; the sum takes its
    coefficient moduli and the phase theta of ``params``.  Evaluates
    the explicit double sum over half-indices n, m with the
    cos[(m - n)(2 phi - theta)] phase structure, grouped by d = m - n:
    P = B_0(x) + 2 sum_d cos(d (2 phi - theta)) B_d(x) with
    B_d(x) = sum_n A_n(x) A_{n+d}(x).  Must agree pointwise with the
    squared-wavefunction route.
    """
    if params.kind != CASE_NONLINEAR:
        raise ValueError("closed-form quadrature distribution is defined for kind 'i'")
    x_axis = np.asarray(x_axis, dtype=float)
    phi_axis = np.asarray(phi_axis, dtype=float)
    coeff = np.abs(v.amps[::2])
    n_terms = coeff.size
    table = weighted_hermite_table(2 * n_terms - 2, x_axis)
    amp = coeff[:, None] * table[::2]  # A_n(x), shape (n, x)

    b = np.empty((n_terms, x_axis.size))
    for d in range(n_terms):
        b[d] = np.sum(amp[: n_terms - d] * amp[d:], axis=0)
    psi_arg = 2.0 * phi_axis - params.theta
    cosines = np.cos(np.outer(psi_arg, np.arange(n_terms)))  # (phi, d)
    weights = np.full(n_terms, 2.0)
    weights[0] = 1.0
    values = (cosines * weights[None, :]) @ b  # (phi, x)
    return DistGrid(axis1=x_axis, axis2=phi_axis, values=values.T, s=None)


# ---------------------------------------------------------------------------
# displacement operator
# ---------------------------------------------------------------------------


def displacement_element_offsets(row: int, col: int, lam: complex):
    """<row|D(lam)|col> on excitation offsets (levels row+3, col+3).

    Two-branch closed form: factorial ratio sqrt(min!/max!), Laguerre
    degree min(row, col) and order |row - col|, with lam^(row-col) on
    the raising-dominant branch and (-conj(lam))^(col-row) on the
    conjugated branch, as required by D(lam)^dagger = D(-lam).
    ``lam`` may be a complex scalar or array.
    """
    if row < 0 or col < 0:
        raise ValueError("offsets must be non-negative")
    lam = np.asarray(lam, dtype=complex)
    mag_sq = np.abs(lam) ** 2
    gauss = np.exp(-0.5 * mag_sq)
    if row >= col:
        k = row - col
        out = (
            math.exp(0.5 * (log_factorial(col) - log_factorial(row)))
            * lam**k
            * gauss
            * assoc_laguerre(col, k, mag_sq)
        )
    else:
        k = col - row
        out = (
            math.exp(0.5 * (log_factorial(row) - log_factorial(col)))
            * (-np.conj(lam)) ** k
            * gauss
            * assoc_laguerre(row, k, mag_sq)
        )
    return out if out.ndim else complex(out)


def characteristic_function(v: FockVector, lam, s: float):
    """C(lam, s) = e^{s |lam|^2 / 2} <v|D(lam)|v>.

    ``lam`` may be a scalar or array; ``s`` must be below 1 for the
    downstream Fourier transform to exist.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    lam = np.asarray(lam, dtype=complex)
    idx = _support(v)
    total = np.zeros(lam.shape, dtype=complex)
    for i in idx:
        for j in idx:
            total += np.conj(v.amps[i]) * v.amps[j] * displacement_element_offsets(i, j, lam)
    total *= np.exp(0.5 * s * np.abs(lam) ** 2)
    return total if total.ndim else complex(total)


# ---------------------------------------------------------------------------
# s-parameterized quasi-probability
# ---------------------------------------------------------------------------


def _husimi(v: FockVector, z: np.ndarray) -> np.ndarray:
    """Analytic s = -1 endpoint: coherent-state projection / pi."""
    idx = _support(v)
    zc = np.conj(z)
    mag = np.abs(z)
    # z^b / sqrt(b!) assembled in log space; the b = 0 term is 1.
    proj = np.zeros(z.shape, dtype=complex)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag, out=np.full(z.shape, -np.inf), where=mag > 0)
    unit = np.ones_like(z)
    np.divide(zc, mag, out=unit, where=mag > 0)
    for b in idx:
        if b == 0:
            proj += v.amps[0]
        else:
            proj += v.amps[b] * np.exp(b * log_mag - 0.5 * log_factorial(b)) * unit**b
    return np.exp(-(mag**2)) * np.abs(proj) ** 2 / math.pi


def _quasi_core(v: FockVector, z: np.ndarray, s: float) -> np.ndarray:
    """Closed-form F(z, s) on an array of phase-space points."""
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    if s == -1.0:
        return _husimi(v, z)

    idx = _support(v)
    ratio = (s + 1.0) / (s - 1.0)
    warg = 4.0 * np.abs(z) ** 2 / (1.0 - s * s)
    zc_scaled = 2.0 * np.conj(z) / (1.0 - s)
    mag = np.abs(zc_scaled)
    with np.errstate(divide="ignore"):
        log_zmag = np.log(mag, out=np.full(z.shape, -np.inf), where=mag > 0)
    unit = np.ones_like(zc_scaled)
    np.divide(zc_scaled, mag, out=unit, where=mag > 0)

    amps = v.amps
    log_abs_amp = np.full(amps.size, -np.inf)
    log_abs_amp[idx] = np.log(np.abs(amps[idx]))
    phase = np.ones(amps.size, dtype=complex)
    phase[idx] = amps[idx] / np.abs(amps[idx])
    log_ratio = math.log(abs(ratio)) if ratio != 0.0 else -math.inf
    ratio_sign = 1.0 if ratio >= 0.0 else -1.0

    total = np.zeros(z.shape, dtype=float)
    by_k: dict[int, list[int]] = {}
    for a in idx:
        for b in idx:
            if b >= a:
                by_k.setdefault(int(b - a), []).append(int(a))
    for k, rows in by_k.items():
        lag = assoc_laguerre_sequence(max(rows), k, warg)
        if k == 0:
            zpow_mag = np.zeros(z.shape)
            zphase = np.ones_like(unit)
        else:
            zpow_mag = k * log_zmag
            zphase = unit**k
        for a in rows:
            b = a + k
            # scalar pair weight assembled in log magnitude to dodge
            # intermediate under/overflow; exp(-inf) cleanly kills
            # sub-support pairs
            log_w = (
                log_abs_amp[a]
                + log_abs_amp[b]
                + 0.5 * (log_factorial(a) - log_factorial(b))
                + (a * log_ratio if a else 0.0)
            )
            pair_phase = np.conj(phase[a]) * phase[b] * ratio_sign**a
            term = np.exp(log_w + zpow_mag) * (pair_phase * zphase).real * lag[a]
            total += term if k == 0 else 2.0 * term
    pref = 2.0 / (math.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s))
    return pref * total


def quasi_probability(v: FockVector, z: complex, s: float) -> float:
    """Closed-form s-parameterized quasi-probability at one point.

    s = 0 is the Wigner function, s = -1 the Husimi function.  The
    double sum converges whenever the state's amplitude decay beats
    ((1+s)/(1-s))^n; that holds for every s < 1 for the factorially
    suppressed non-unitary-route states, and for |xi| < (1-s)/(1+s) on
    the unitary route.
    """
    return float(_quasi_core(v, np.asarray(z, dtype=complex).reshape(1), s)[0])


def quasi_probability_grid(
    v: FockVector, x_axis: np.ndarray, p_axis: np.ndarray, s: float
) -> DistGrid:
    """F(x + i p, s) sampled on the grid; values[i, j] at (x_i, p_j)."""
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    z = x_axis[:, None] + 1j * p_axis[None, :]
    return DistGrid(axis1=x_axis, axis2=p_axis, values=_quasi_core(v, z, s), s=s)


def _oracle_radius(v: FockVector, s: float) -> float:
    """Smallest circle radius where |C| has decayed below 1e-13."""
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    radius = 6.0
    while radius < 24.0:
        peak = np.max(np.abs(characteristic_function(v, radius * angles, s)))
        if peak < 1e-13:
            break
        radius += 2.0
    return radius


def quasi_probability_fourier(
    v: FockVector,
    z: complex,
    s: float,
    radial_nodes: int = 256,
    angular_nodes: int = 256,
) -> float:
    """Brute-force oracle: polar-grid Fourier transform of C(lam, s).

    F(z, s) = (1/pi^2) int C(lam, s) e^{conj(lam) z - lam conj(z)} d^2 lam,
    integrated with Gauss-Legendre nodes radially and a periodic
    rectangle rule in angle (spectrally accurate for the periodic
    integrand), radius cut where |C| falls below 1e-13.  Intended for
    small-truncation states; cost grows with the support squared.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    radius = _oracle_radius(v, s)
    nodes, weights = np.polynomial.legendre.leggauss(radial_nodes)
    u = 0.5 * radius * (nodes + 1.0)
    w = 0.5 * radius * weights
    ang = np.linspace(0.0, 2.0 * math.pi, angular_nodes, endpoint=False)
    lam = u[:, None] * np.exp(1j * ang)[None, :]
    c_vals = characteristic_function(v, lam, s)
    integrand = c_vals * np.exp(np.conj(lam) * z - lam * np.conj(z)) * u[:, None]
    radial = w @ integrand
    value = radial.sum() * (2.0 * math.pi / angular_nodes) / math.pi**2
    if abs(value.imag) > _IMAG_TOL:
        raise ArithmeticError(f"Fourier oracle returned imaginary residue {value.imag:.3e}")
    return float(value.real)
