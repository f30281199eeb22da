"""Quadrature distribution and s-parameterized quasi-probability.

The quadrature eigenstates of the rotated Heisenberg quadrature carry
the usual oscillator wavefunctions over the shifted ladder, so the
phase-parameterized distribution is one projection,
P(x, phi) = |sum_nu c_nu e^{-i nu phi} u_nu(x)|^2, for either squeezing
route; it is non-negative by construction.  The paper's cosine double
sum over half-indices is its case-i expansion and serves as the test
oracle (``tests/conftest.py``).

Phase space goes through one kernel, ``_ordered_overlap(x, y, alpha,
beta)`` = <x| e^{alpha K+} e^{beta K-} |y>: the Cahill-Glauber element
sum grouped by the order |m - n|, one Laguerre sweep per order, pair
weights in log space.  With beta = -conj(alpha) it is G(x, y; mu) =
e^{|mu|^2/2} <x|D(mu)|y>.  Each phase-space quantity is one call:

* characteristic function: C(lam, s) = e^{(s-1)|lam|^2/2} G(c, c; lam);
* quasi-probability, s != -1: F(z, s) = 2/(pi (1-s)) e^{-2|z|^2/(1-s)}
  Re <x|e^{alpha K+} e^{beta K-}|y> with x_n = c_n (sign t)^n,
  y_n = c_n t^n, t^2 = |(1+s)/(1-s)|, sign that of (1+s)/(s-1),
  alpha = w/(sign t), beta = conj(w)/t, w = 2z/(1-s); for -1 < s < 1
  this is Re G(x, y; -2z/sqrt(1-s^2));
* Husimi function, s = -1: F(z, -1) = e^{-|z|^2} |G(e_0, c; -z)|^2 / pi.

The support cutoff applies to the vectors the kernel receives, here
c_n t^n: as s -> -1 the high levels drop out, so the Laguerre sweeps
stay at low degree, where 4|z|^2/(1-s^2) cannot overflow them.  The 2-D
Fourier transform of the characteristic function
(``quasi_probability_fourier``) is a brute-force cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector
from .specfun import assoc_laguerre_sequence, log_factorial, weighted_hermite_table

__all__ = [
    "DistGrid",
    "SParameterOutOfRange",
    "quadrature_wavefunction",
    "quadrature_distribution",
    "characteristic_function",
    "quasi_probability",
    "quasi_probability_grid",
    "quasi_probability_fourier",
]

# Amplitudes below this cannot influence double sums at float64 scale.
_SUPPORT_CUTOFF = 1e-150

_IMAG_TOL = 1e-8

# Phase-space points per kernel block: bounds its Laguerre table to
# (degree + 1) x _BLOCK_POINTS floats however large the grid is.
_BLOCK_POINTS = 4096


class SParameterOutOfRange(ValueError):
    """s >= 1 requested, or s so close to 1 that F(z, s) overflows float64."""


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


# ---------------------------------------------------------------------------
# quadrature distribution
# ---------------------------------------------------------------------------


def quadrature_wavefunction(v: FockVector, x, phi):
    """Projection of ``v`` onto the phase-phi quadrature eigenstates.

    <x, phi|v> = sum_nu c_{nu+3} e^{-i nu phi} u_nu(x) with u_nu the
    oscillator eigenfunctions, summed over the nonzero amplitudes only.
    ``x`` and ``phi`` may be scalars or arrays; the result has shape
    phi.shape + x.shape, and a complex scalar when both are scalars.
    Its squared magnitude is the quadrature distribution.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    nu = np.flatnonzero(v.amps)
    table = weighted_hermite_table(nu.max(initial=0), x.ravel())[nu]  # (nu, x)
    weights = v.amps[nu] * np.exp(-1j * np.multiply.outer(phi, nu))  # (phi, nu)
    psi = (weights.real @ table + 1j * (weights.imag @ table)).reshape(phi.shape + x.shape)
    return psi if psi.ndim else complex(psi)


def quadrature_distribution(v: FockVector, x_axis: np.ndarray, phi_axis: np.ndarray) -> DistGrid:
    """P(x, phi) = |<x, phi|v>|^2 on the grid; values[i, j] at (x_i, phi_j)."""
    x_axis = np.asarray(x_axis, dtype=float)
    phi_axis = np.asarray(phi_axis, dtype=float)
    psi = quadrature_wavefunction(v, x_axis, phi_axis)  # (phi, x)
    return DistGrid(axis1=x_axis, axis2=phi_axis, values=np.abs(psi.T) ** 2, s=None)


# ---------------------------------------------------------------------------
# displaced-overlap kernel
# ---------------------------------------------------------------------------


def _log_polar(v: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """ln|v| and v/|v| where |v| > cutoff; -inf and 0 elsewhere."""
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    keep = mag > cutoff
    log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=keep)
    return log_mag, np.divide(v, mag, out=np.zeros(v.shape, dtype=complex), where=keep)


def _ordered_overlap(x: np.ndarray, y: np.ndarray, alpha, beta) -> np.ndarray:
    """<x| e^{alpha K+} e^{beta K-} |y> for complex arrays alpha, beta of one shape.

    The elements are <m|e^{alpha K+} e^{beta K-}|n> = sqrt(n!/m!)
    alpha^(m-n) L_n^(m-n)(-alpha beta) for m >= n and the mirror image
    with beta^(n-m) for m < n.  Grouped by the order k = |m - n|:

        sum_k sum_a sqrt(a!/(a+k)!) L_a^k(-alpha beta)
              [alpha^k conj(x_{a+k}) y_a + (k > 0) beta^k conj(x_a) y_{a+k}]

    One Laguerre sweep per k serves both branches in one real matrix
    product with their pair weights, which are built in log space with
    the largest weight of the order factored out.  Amplitudes of x and y
    at or below ``_SUPPORT_CUTOFF`` are dropped.  With beta = -conj(alpha)
    the result is e^{|alpha|^2 / 2} <x|D(alpha)|y> (Cahill and Glauber).
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    out = np.empty(alpha.size, dtype=complex)
    for start in range(0, alpha.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        out[block] = _overlap_block(x, y, alpha.ravel()[block], beta.ravel()[block])
    return out.reshape(alpha.shape)


def _overlap_block(x: np.ndarray, y: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``_ordered_overlap`` on 1-D alpha and beta of at most _BLOCK_POINTS points."""
    arg = -(alpha * beta).real
    total = np.zeros(arg.shape, dtype=complex)
    supports = [np.nonzero(np.abs(v) > _SUPPORT_CUTOFF)[0] for v in (x, y)]
    if not all(idx.size for idx in supports):
        return total
    size = 1 + max(idx[-1] for idx in supports)
    (log_x, unit_x), (log_y, unit_y) = (
        _log_polar(np.pad(v[:size], (0, size - v[:size].size)), _SUPPORT_CUTOFF) for v in (x, y)
    )
    (log_a, unit_a), (log_b, unit_b) = _log_polar(alpha, 0.0), _log_polar(beta, 0.0)
    phase_a, phase_b = np.ones_like(unit_a), np.ones_like(unit_b)  # unit^k, carried along

    log_fact = log_factorial(np.arange(size))
    for k in range(size):
        if k:
            phase_a *= unit_a
            phase_b *= unit_b
        n = size - k
        # row 0: the alpha^k branch, pairs (a + k, a); row 1: the beta^k branch, pairs (a, a + k)
        log_w = np.array([log_x[k:] + log_y[:n], log_x[:n] + log_y[k:] if k else np.full(n, -np.inf)])
        live = np.nonzero(np.isfinite(log_w).any(axis=0))[0]
        if not live.size:
            continue
        top = live[-1] + 1
        log_w = log_w[:, :top] + 0.5 * (log_fact[:top] - log_fact[k : k + top])
        peak = log_w.max()
        pair_phase = np.array([np.conj(unit_x[k : k + top]) * unit_y[:top],
                               np.conj(unit_x[:top]) * unit_y[k : k + top]])
        weights = np.exp(log_w - peak) * pair_phase
        # one real product of the Laguerre rows with the real and imaginary weight rows
        sums = np.concatenate([weights.real, weights.imag]) @ assoc_laguerre_sequence(top - 1, k, arg)
        if k:
            total += np.exp(peak + k * log_a) * phase_a * (sums[0] + 1j * sums[2])
            total += np.exp(peak + k * log_b) * phase_b * (sums[1] + 1j * sums[3])
        else:
            total += math.exp(peak) * (sums[0] + 1j * sums[2])
    return total


def characteristic_function(v: FockVector, lam, s: float):
    """C(lam, s) = e^{s |lam|^2 / 2} <v|D(lam)|v>.

    ``lam`` may be a scalar or array; ``s`` must be below 1 for the
    downstream Fourier transform to exist.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    lam = np.asarray(lam, dtype=complex)
    total = np.exp(0.5 * (s - 1.0) * np.abs(lam) ** 2) * _ordered_overlap(
        v.amps, v.amps, lam, -np.conj(lam)
    )
    return total if total.ndim else complex(total)


# ---------------------------------------------------------------------------
# s-parameterized quasi-probability
# ---------------------------------------------------------------------------


def _quasi_core(v: FockVector, z: np.ndarray, s: float) -> np.ndarray:
    """Closed-form F(z, s) on an array of phase-space points.

    The pair weights grow like ((1+s)/(1-s))^n, so as s -> 1 the sums
    overflow; a grid that is not finite is refused, never returned.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    try:
        with np.errstate(all="ignore"):
            values = _quasi_values(v.amps, z, s)
    except OverflowError:  # math.exp of a kernel peak weight
        values = np.array(math.inf)
    if not np.all(np.isfinite(values)):
        raise SParameterOutOfRange(f"F(z, s) is not finite on this grid at s = {s}")
    return values


def _quasi_values(c: np.ndarray, z: np.ndarray, s: float) -> np.ndarray:
    """F(z, s) of the amplitudes ``c``, s < 1, without the finiteness check."""
    if s == -1.0:
        # coherent-state projection <z|v> = e^{-|z|^2/2} <0|e^{-z K+} e^{conj(z) K-}|v>
        proj = _ordered_overlap(np.ones(1), c, -z, np.conj(z))
        return np.exp(-np.abs(z) ** 2) * np.abs(proj) ** 2 / math.pi
    # the pair weight ratio^a = (sign t)^a t^a is split between the two
    # vectors, so the support cutoff sees c_n t^n (see the module docstring)
    ratio = (s + 1.0) / (s - 1.0)
    t = math.sqrt(abs(ratio))
    sign = math.copysign(1.0, ratio)
    n = np.arange(c.size)
    w = 2.0 * z / (1.0 - s)
    total = _ordered_overlap(c * (sign * t) ** n, c * t**n, w / (sign * t), np.conj(w) / t).real
    return 2.0 / (math.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s)) * total


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
