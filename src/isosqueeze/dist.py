"""Quadrature distribution and s-parameterized quasi-probability.

The quadrature eigenstates of the rotated Heisenberg quadrature carry
the usual oscillator wavefunctions over the shifted ladder, so the
phase-parameterized distribution is one projection,
P(x, phi) = |sum_nu c_nu e^{-i nu phi} u_nu(x)|^2, for either squeezing
route; it is non-negative by construction.  The paper's cosine double
sum over half-indices is its case-i expansion and serves as the test
oracle (``tests/conftest.py``).

Phase space goes through one kernel, ``_ordered_overlap(x, y, mu,
sign)`` = <x| e^{mu K+} e^{sign conj(mu) K-} |y> with sign = +-1: the
Cahill-Glauber element sum grouped by the order k = |m - n|, pair
weights in log space.  Its form makes the Laguerre argument
-sign |mu|^2 real, so each order is radial coefficients, functions of
that argument alone, times the phases e^{+-ik arg mu}: the Laguerre
sweeps run over the distinct arguments only, a run of orders per sweep
while their table fits a fixed float budget.  With sign = -1 it is
G(x, y; mu) = e^{|mu|^2/2} <x|D(mu)|y>.  Each phase-space quantity is
one call:

* characteristic function: C(lam, s) = e^{(s-1)|lam|^2/2} G(c, c; lam);
* quasi-probability, s != -1: F(z, s) = 2/(pi (1-s)) e^{-2|z|^2/(1-s)}
  Re <x|e^{mu K+} e^{sign conj(mu) K-}|y> with x_n = c_n (sign t)^n,
  y_n = c_n t^n, t^2 = |(1+s)/(1-s)|, sign that of (1+s)/(s-1),
  mu = w/(sign t), w = 2z/(1-s); for -1 < s < 1 this is
  Re G(x, y; -2z/sqrt(1-s^2));
* Husimi function, s = -1: F(z, -1) = e^{-|z|^2} |G(e_0, c; -z)|^2 / pi.

Each call hands the kernel the shortest leading run of levels whose
cut provably moves F by at most 1e-16 * 2/(pi (1-s)) and C by at most
1e-16 (``_kept_levels``): by that scale times eta (2 A + eta), A the
norm of the vector and eta a bound on its dropped part.  For s <= 0,
F = 2/(pi (1-s)) <c|D(z) r^N D(z)^dagger|c>, q = |r| = |(1+s)/(s-1)| <= 1,
and eta is the tail norm or, for 0 < q < 1, sum_n |c_n| sqrt(q^n
L_n(-(1-q)^2 |z|^2/q)) >= |q^{N/2} D(z)^dagger tail|.  For 0 < s < 1,
F = 2/(pi (1-s)) e^{-s|mu|^2/2} Re <x|D(mu)|y> and the vector is
|x_n| = |y_n| = |c_n| t^n.  For C, D is unitary: the tail norm, times
e^{s |lam|^2 / 2} for s > 0.  The 2-D Fourier transform of the
characteristic function (``quasi_probability_fourier``) is a
brute-force cross-check.
"""

from __future__ import annotations

import functools
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

# Largest move of C, and of F in units of 2/(pi (1-s)), that dropping levels may cause.
_KERNEL_TOL = 1e-16

_IMAG_TOL = 1e-8

# Phase-space points per kernel block: bounds the distinct Laguerre
# arguments of a block's sweeps to _BLOCK_POINTS however large the grid is.
_BLOCK_POINTS = 4096

# Floats of one grouped Laguerre sweep, (degree + 1) x orders x distinct
# arguments.  Orders are swept together while their table fits; an order
# whose table alone is larger is swept by itself.  2^16 was no faster and
# raised the phase-space benchmark's peak RSS by ~0.35 MiB (glibc: each
# larger freed table lifts the mmap threshold, keeping arrays on the heap).
_TABLE_FLOATS = 1 << 15


class SParameterOutOfRange(ValueError):
    """s >= 1 requested, or s so close to 1 that F(z, s) overflows float64."""


@dataclass(frozen=True)
class DistGrid:
    """Sampled distribution values over a 2-D grid.

    ``values[i, j]`` corresponds to (axis1[i], axis2[j]).  Quasi-probability
    grids also carry the kernel's levels and error bound; P(x, phi) has None.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    kernel_levels: int | None = None
    kernel_error_bound: float | None = None


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
    return DistGrid(axis1=x_axis, axis2=phi_axis, values=np.abs(psi.T) ** 2)


# ---------------------------------------------------------------------------
# displaced-overlap kernel
# ---------------------------------------------------------------------------


def _log_polar(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|v| and v/|v| where |v| is a normal float; -inf and 0 elsewhere (v/|v| would overflow)."""
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    keep = mag >= np.finfo(float).tiny
    log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=keep)
    return log_mag, np.divide(v, mag, out=np.zeros(v.shape, dtype=complex), where=keep)


def _kept_levels(c: np.ndarray, s: float = 0.0, z_sq_max: float = 0.0,
                 log_scale: float = 0.0) -> tuple[int, float]:
    """(levels, bound) of the shortest leading run of ``c`` the kernel needs: bound <=
    ``_KERNEL_TOL`` in units of e^{log_scale} for C and of 2/(pi (1-s)) for F on a
    grid with |z|^2 <= z_sq_max (module docstring)."""
    q = abs((1.0 + s) / (1.0 - s))
    # ln|c_n|, and for s > 0 ln(|c_n| t^n), the moduli of F's kernel vectors
    log_c = _log_polar(c)[0] + (0.5 * math.log(q) * np.arange(c.size) if s > 0.0 else 0.0)
    log_eta = 0.5 * np.logaddexp.accumulate(2.0 * log_c[::-1])[::-1]  # tail norm from each level on
    if s < 0.0 and q > 0.0:
        u, rho, log_b = (1.0 - q) ** 2 * z_sq_max, q + (1.0 - q) ** 2 * z_sq_max, [0.0]
        for n in range(1, c.size):  # ln sqrt(P_n), P_n = q^n L_n(-u/q), from the ratios P_n/P_{n-1}
            log_b.append(log_b[-1] + 0.5 * math.log(rho))
            rho = ((2 * n + 1) * q + u - n * q * q / rho) / (n + 1)
        log_eta = np.minimum(log_eta, np.logaddexp.accumulate((log_c + log_b)[::-1])[::-1])
    log_drop = np.append(log_scale + log_eta + np.logaddexp(math.log(2.0) + log_eta[0], log_eta), -np.inf)
    kept = int(np.argmax(log_drop <= math.log(_KERNEL_TOL)))  # the last entry keeps every level
    return kept, math.exp(log_drop[kept])


def _ordered_overlap(x: np.ndarray, y: np.ndarray, mu, sign) -> np.ndarray:
    """<x| e^{mu K+} e^{sign conj(mu) K-} |y> for a complex array mu and sign = +-1.

    With alpha = mu and beta = sign conj(mu) the elements are
    <m|e^{alpha K+} e^{beta K-}|n> = sqrt(n!/m!) alpha^(m-n)
    L_n^(m-n)(-alpha beta) for m >= n and the mirror image with
    beta^(n-m) for m < n.  Grouped by the order k = |m - n|:

        sum_k sum_a sqrt(a!/(a+k)!) L_a^k(-sign |mu|^2) |mu|^k
              [e^{ik arg mu} conj(x_{a+k}) y_a + (k > 0) sign^k e^{-ik arg mu} conj(x_a) y_{a+k}]

    so order k is radial coefficients of the Laguerre argument
    -sign |mu|^2 (|mu|^k read at its first point) times the phases
    e^{+-ik arg mu}.  The pair weights of each order with a live pair
    are built once per call, in log space with the largest weight of
    the order factored out.  Points are sorted by argument and taken in
    blocks of ``_BLOCK_POINTS``.  In a block, one Laguerre sweep over
    the distinct arguments serves a run of consecutive live orders
    whose table, (degree + 1) x orders x arguments, fits
    ``_TABLE_FLOATS``; an order whose table alone does not fit is swept
    by itself.  Each order's slice of the table gives both radial
    coefficients in one real matrix product with its pair weights, the
    same product on the same shapes as a sweep of that order alone, and
    the table is released before the phases are applied point by
    point.  Every amplitude of x and y is summed
    (subnormals count as zeros): the callers cut the vectors to the
    levels ``_kept_levels`` allows.  With sign = -1 the result is
    e^{|mu|^2 / 2} <x|D(mu)|y> (Cahill and Glauber).
    """
    mu = np.asarray(mu, dtype=complex)
    total = np.zeros(mu.size, dtype=complex)
    supports = [np.flatnonzero(v) for v in (x, y)]
    if not all(idx.size for idx in supports):
        return total.reshape(mu.shape)
    size = 1 + max(idx[-1] for idx in supports)
    (log_x, unit_x), (log_y, unit_y) = (_log_polar(np.pad(v[:size], (0, size - v[:size].size))) for v in (x, y))
    log_fact = log_factorial(np.arange(size))
    orders = []  # (k, weight rows, ln of the factored-out peak) of each order with a live pair
    for k in range(size):
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
        orders.append((k, np.concatenate([weights.real, weights.imag]), peak))
    flat = mu.ravel()
    arg = -sign * (flat * flat.conj()).real  # -alpha beta, real by construction
    by_arg = np.argsort(arg, kind="stable")  # points that share an argument become neighbours
    for start in range(0, flat.size, _BLOCK_POINTS):
        pts = by_arg[start : start + _BLOCK_POINTS]
        key, first, inverse = np.unique(arg[pts], return_index=True, return_inverse=True)
        log_mu, unit_mu = _log_polar(flat[pts])
        log_mu = log_mu[first]  # ln|mu| per distinct argument
        block = np.zeros(pts.size, dtype=complex)
        phase, at = np.ones_like(unit_mu), 0  # e^{i at arg mu}, carried along
        for group in _order_groups(orders, key.size):
            top = max(rows.shape[1] for _, rows, _ in group)
            ks = np.array([k for k, _, _ in group])
            # a lone order is swept as a scalar, which numpy broadcasts faster than a (1, 1) array
            table = assoc_laguerre_sequence(top - 1, ks[:, None] if ks.size > 1 else ks[0], key)
            table = table.reshape(top, ks.size, key.size)
            # one real product of each order's Laguerre rows with its real and imaginary weight
            # rows; the table is released before the coefficients and phases are formed
            sums = [rows @ table[: rows.shape[1], i] for i, (_, rows, _) in enumerate(group)]
            del table
            for (k, _, peak), order_sums in zip(group, sums):
                for _ in range(k - at):
                    phase *= unit_mu
                at = k
                # the radial coefficients of both branches on the distinct arguments
                coef = (order_sums[:2] + 1j * order_sums[2:]) * (np.exp(peak + k * log_mu) if k else math.exp(peak))
                coef[1] *= sign**k  # e^{ik arg beta} = sign^k e^{-ik arg mu}
                block += coef[0, inverse] * phase
                block += coef[1, inverse] * np.conj(phase)
        total[pts] = block
    return total.reshape(mu.shape)


def _order_groups(orders: list, width: int) -> list:
    """``orders`` cut into runs whose Laguerre table, (largest top) x orders x ``width``
    floats, fits ``_TABLE_FLOATS``; an order whose table alone does not fit is a run."""
    groups, top = [], 0
    for order in orders:
        top = max(top, order[1].shape[1])
        if groups and top * (len(groups[-1]) + 1) * width <= _TABLE_FLOATS:
            groups[-1].append(order)
        else:
            groups.append([order])
            top = order[1].shape[1]
    return groups


def characteristic_function(v: FockVector, lam, s: float):
    """C(lam, s) = e^{s |lam|^2 / 2} <v|D(lam)|v>.

    ``lam`` may be a scalar or array; ``s`` must be below 1 for the
    downstream Fourier transform to exist.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    lam = np.asarray(lam, dtype=complex)
    kept, _ = _kept_levels(v.amps, log_scale=0.5 * s * np.abs(lam).max(initial=0.0) ** 2 if s > 0.0 else 0.0)
    c = v.amps[:kept]
    # the Gaussian factor after the kernel, so that its array is not held during the kernel
    total = _ordered_overlap(c, c, lam, -1) * np.exp(0.5 * (s - 1.0) * np.abs(lam) ** 2)
    return total if total.ndim else complex(total)


# ---------------------------------------------------------------------------
# s-parameterized quasi-probability
# ---------------------------------------------------------------------------


def _quasi_core(v: FockVector, z: np.ndarray, s: float) -> tuple[np.ndarray, int, float]:
    """Closed-form F(z, s) on an array of phase-space points, the levels kept and the bound met.

    The pair weights grow like ((1+s)/(1-s))^n, so as s -> 1 the sums
    overflow; a grid that is not finite is refused, never returned.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    kept, bound = _kept_levels(v.amps, s, np.abs(z).max(initial=0.0) ** 2)
    try:
        with np.errstate(all="ignore"):
            values = _quasi_values(v.amps[:kept], z, s)
    except OverflowError:  # math.exp of a kernel peak weight
        values = np.array(math.inf)
    if not np.all(np.isfinite(values)):
        raise SParameterOutOfRange(f"F(z, s) is not finite on this grid at s = {s}")
    return values, kept, 2.0 / (math.pi * (1.0 - s)) * bound


def _quasi_values(c: np.ndarray, z: np.ndarray, s: float) -> np.ndarray:
    """F(z, s) of the amplitudes ``c``, s < 1, without the finiteness check."""
    if s == -1.0:
        # coherent-state projection <z|v> = e^{-|z|^2/2} <0|e^{-z K+} e^{conj(z) K-}|v>
        proj = _ordered_overlap(np.ones(1), c, -z, -1)
        return np.exp(-np.abs(z) ** 2) * np.abs(proj) ** 2 / math.pi
    # the pair weight ratio^a = (sign t)^a t^a is split between the two vectors
    ratio = (s + 1.0) / (s - 1.0)
    t = math.sqrt(abs(ratio))
    sign = math.copysign(1.0, ratio)
    n = np.arange(c.size)
    w = 2.0 * z / (1.0 - s)
    total = _ordered_overlap(c * (sign * t) ** n, c * t**n, w / (sign * t), sign).real
    return 2.0 / (math.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s)) * total


def quasi_probability(v: FockVector, z: complex, s: float) -> float:
    """Closed-form s-parameterized quasi-probability at one point.

    s = 0 is the Wigner function, s = -1 the Husimi function.  The
    double sum converges whenever the state's amplitude decay beats
    ((1+s)/(1-s))^n; that holds for every s < 1 for the factorially
    suppressed non-unitary-route states, and for |xi| < (1-s)/(1+s) on
    the unitary route.
    """
    return float(_quasi_core(v, np.asarray(z, dtype=complex).reshape(1), s)[0][0])


def quasi_probability_grid(
    v: FockVector, x_axis: np.ndarray, p_axis: np.ndarray, s: float
) -> DistGrid:
    """F(x + i p, s) sampled on the grid; values[i, j] at (x_i, p_j)."""
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    values, kept, bound = _quasi_core(v, x_axis[:, None] + 1j * p_axis[None, :], s)
    return DistGrid(x_axis, p_axis, values, kernel_levels=kept, kernel_error_bound=bound)


def _oracle_radius(v: FockVector, s: float) -> float:
    """Smallest circle radius of 6, 8, .., 24 where |C| has decayed below 1e-13.

    Raises ArithmeticError when |C| has not decayed by radius 24: the
    transform cut there would be wrong, not merely inaccurate.
    """
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    for radius in range(6, 25, 2):
        peak = np.max(np.abs(characteristic_function(v, radius * angles, s)))
        if peak < 1e-13:
            return float(radius)
    raise ArithmeticError(f"Fourier oracle: |C| is still {peak:.3e} at radius 24")


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point Gauss-Legendre rule on [-1, 1], built once per node count; read-only."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for part in rule:
        part.flags.writeable = False
    return rule


def quasi_probability_fourier(
    v: FockVector,
    z: complex,
    s: float,
    radial_nodes: int = 256,
    angular_nodes: int = 256,
) -> float:
    """Brute-force oracle: polar-grid Fourier transform of C(lam, s).

    F(z, s) = (1/pi^2) int C(lam, s) e^{conj(lam) z - lam conj(z)} d^2 lam,
    integrated with Gauss-Legendre nodes radially (the rule is built
    once per node count) and a periodic rectangle rule in angle
    (spectrally accurate for the periodic integrand), radius cut where
    |C| falls below 1e-13; ArithmeticError when it has not by radius
    24.  Intended for small-truncation states; cost grows with the
    support squared.
    """
    if s >= 1.0:
        raise SParameterOutOfRange(f"s must be < 1, got {s}")
    radius = _oracle_radius(v, s)
    nodes, weights = _gauss_legendre(radial_nodes)
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
