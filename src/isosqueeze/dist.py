"""Quadrature distribution and s-parameterized quasi-probability.

The quadrature eigenstates of the rotated Heisenberg quadrature carry
the usual oscillator wavefunctions over the shifted ladder, so the
phase-parameterized distribution is one projection,
P(x, phi) = |sum_nu c_nu e^{-i nu phi} u_nu(x)|^2, for either squeezing
route; it is non-negative by construction.  The paper's cosine double
sum over half-indices is its case-i expansion and serves as the test
oracle (``tests/conftest.py``).

Phase space goes through one kernel, ``_ordered_overlap(d, mu, sign,
parity)`` = <P d| e^{mu K+} e^{sign conj(mu) K-} |d> with sign = +-1 and
P = parity^N: the Cahill-Glauber element sum grouped by the order
k = |m - n|.  Its form makes the Laguerre argument -sign |mu|^2 real and
pairs each term with its mirror image, so each order is one complex
weight row summed against L_a^k of that argument by Clenshaw's
recurrence (``specfun.laguerre_series``), times mu^k; no Laguerre value
is formed, so the sums stay finite where the polynomials overflow and
the weights cancel them.  The arguments are deduplicated once per call.
|mu|^2 is the sum of the two squares, so transposed points share an
argument; mirror points share one only when the axes are exactly
symmetric, as the CLI builds them; np.linspace axes are not
(np.linspace(-4, 4, 41) holds -3.8 and 3.8000000000000007).  Over +-4, a
41 x 41 grid has 527 distinct arguments on np.linspace axes and 222 on
the CLI's, a 161 x 161 grid 6819 and 3113 (numpy 2.4.6, x86-64).  With
sign = -1 and parity = 1 it is G(d; mu) = e^{|mu|^2/2} <d|D(mu)|d>.
Each phase-space quantity is one call, F that of ``quasi_probability_grid``,
whose 1 x 1 case is the one-point ``quasi_probability``:

* characteristic function: C(lam, s) = e^{(s-1)|lam|^2/2} G(c; lam);
* quasi-probability, s != -1: F(z, s) = 2/(pi (1-s)) e^{-2|z|^2/(1-s)}
  Re <P d|e^{mu K+} e^{sign conj(mu) K-}|d> with d_n = c_n t^n,
  parity = sign, t^2 = |(1+s)/(1-s)|, sign that of (1+s)/(s-1),
  mu = w/(sign t), w = 2z/(1-s); for -1 < s < 1, sign = -1 and this is
  Re e^{|mu|^2/2} <P d|D(mu)|d> with mu = -2z/sqrt(1-s^2);
* Husimi function, s = -1: F(z, -1) = |<z|c>|^2 / pi with
  <z|c> = sum_n c_n e^{-|z|^2/2} conj(z)^n / sqrt(n!), each term formed
  in log space (its left vector e_0 does not fit the kernel's form).

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

from .fock import FockVector, InvalidParameter
from .specfun import laguerre_series, log_factorial, weighted_hermite_table

__all__ = [
    "DistGrid",
    "quadrature_distribution",
    "characteristic_function",
    "quasi_probability",
    "quasi_probability_grid",
    "quasi_probability_fourier",
]

# Largest move of C, and of F in units of 2/(pi (1-s)), that dropping levels may cause.
_KERNEL_TOL = 1e-16

_IMAG_TOL = 1e-8

# Floats of one run of orders in the phase-space kernel: its weights and its
# Clenshaw sweep over the distinct arguments, about 8 per (order, degree or argument).
_RUN_FLOATS = 1 << 18


@dataclass(frozen=True)
class DistGrid:
    """F sampled on the caller's 2-D grid, with the kernel's levels and error bound.

    ``values[i, j]`` belongs to the i-th point of the first axis and the
    j-th of the second.  The bound covers only cutting the vector to
    those levels: not the state's own truncation, nor rounding (a one-ulp
    move of the axes moves F by up to 3.3e-16 on the case-iii xi = 0.4,
    s = 0 np.linspace grid of 161 x 161 over +-4, and by 2.8e-16 on the
    CLI's axes, whose bound is 4.8e-17).
    """

    values: np.ndarray
    kernel_levels: int
    kernel_error_bound: float


# ---------------------------------------------------------------------------
# quadrature distribution
# ---------------------------------------------------------------------------


def quadrature_distribution(v: FockVector, x_axis: np.ndarray, phi_axis: np.ndarray) -> np.ndarray:
    """P(x, phi) = |<x, phi|v>|^2 on the grid, as the array whose [i, j] is at (x_i, phi_j).

    <x, phi|v> = sum_nu c_{nu+3} e^{-i nu phi} u_nu(x) with u_nu the
    oscillator eigenfunctions, summed over the nonzero amplitudes only.
    """
    nu = np.flatnonzero(v.amps)
    table = weighted_hermite_table(nu.max(initial=0), x_axis)[nu]  # (nu, x)
    weights = v.amps[nu] * np.exp(-1j * np.multiply.outer(np.asarray(phi_axis, dtype=float), nu))  # (phi, nu)
    psi = weights.real @ table + 1j * (weights.imag @ table)  # (phi, x)
    return np.abs(psi.T) ** 2


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


def _ordered_overlap(d: np.ndarray, mu, sign, parity) -> np.ndarray:
    """<P d| e^{mu K+} e^{sign conj(mu) K-} |d> for a complex array mu, sign = +-1 and P = parity^N.

    With alpha = mu and beta = sign conj(mu) the elements are
    <m|e^{alpha K+} e^{beta K-}|n> = sqrt(n!/m!) alpha^(m-n)
    L_n^(m-n)(-alpha beta) for m >= n and the mirror image with
    beta^(n-m) for m < n.  The Laguerre argument -sign |mu|^2 is real, so
    grouped by the order k = |m - n| the pairs (a + k, a) give

        A_k = mu^k sum_a w_ka L_a^k(-sign |mu|^2),
        w_ka = parity^(a+k) conj(d_{a+k}) d_a sqrt(a!/(a+k)!),

    their mirror pairs (a, a + k) give (sign parity)^k conj(A_k), and the
    result is A_0 + sum_{k>0} [A_k + (sign parity)^k conj(A_k)], kept as
    one sum over even and one over odd k (A_0 is real: half of it in
    each of the even sum and its conjugate).  The arguments are
    deduplicated once, formed as -sign ((Re mu)^2 + (Im mu)^2) so that
    (x, p) and (p, x) share one.  A run of consecutive orders at a time,
    whose weights and sweep fit ``_RUN_FLOATS``, has its weights built
    in log space, the largest of each order factored out, and summed
    over the distinct arguments by ``laguerre_series``; the factor goes
    back with |mu|^k as e^{peak + k ln|mu|}, so that neither overflows
    alone, and the phases e^{ik arg mu} are applied point by point.
    Every amplitude of d is summed (subnormals count as zeros): the
    callers cut d to the levels ``_kept_levels`` allows.  With sign = -1
    and parity = 1 the result is e^{|mu|^2 / 2} <d|D(mu)|d> (Cahill and
    Glauber).
    """
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    log_d, unit_d = _log_polar(d)
    live = np.flatnonzero(np.isfinite(log_d))
    sums = np.zeros((2, flat.size), dtype=complex)  # the even and the odd orders
    if live.size:
        size = live[-1] + 1
        key, first, inverse = np.unique(-sign * (flat.real**2 + flat.imag**2),
                                        return_index=True, return_inverse=True)
        log_mu, unit_mu = _log_polar(flat)
        log_mu = log_mu[first]  # ln|mu| per distinct argument
        # levels 0 .. size, the last a pad that no pair reaches
        log_d = np.append(log_d[:size], -np.inf)
        unit_x = np.append(unit_d[:size] * parity ** np.arange(size), 0.0)
        log_fact = log_factorial(np.arange(size + 1))
        phase, at = np.ones_like(unit_mu), 0  # e^{i at arg mu}, carried along
        k0 = 0
        while k0 < size:
            width = size - k0
            ks = np.arange(k0, min(size, k0 + max(1, _RUN_FLOATS // (8 * (width + key.size)))))
            k0 += ks.size
            a = np.arange(width)
            upper = np.minimum(a + ks[:, None], size)  # level a + k of each (order, degree)
            log_w = log_d[upper] + log_d[a] + 0.5 * (log_fact[a] - log_fact[upper])
            alive = np.isfinite(log_w).any(axis=1)
            ks, upper, log_w = ks[alive], upper[alive], log_w[alive]
            peaks = log_w.max(axis=1)
            weights = np.exp(log_w - peaks[:, None]) * np.conj(unit_x[upper]) * unit_d[a]
            scale = np.zeros((ks.size, key.size))  # k ln|mu|, 0 for k = 0 whatever mu
            np.multiply(ks[:, None], log_mu, out=scale, where=ks[:, None] > 0)
            coefs = laguerre_series(weights, ks, key) * np.exp(scale + peaks[:, None])
            coefs[ks == 0] *= 0.5
            for k, coef in zip(ks.tolist(), coefs):
                for _ in range(k - at):
                    phase *= unit_mu
                at = k
                sums[k % 2] += coef[inverse] * phase
    even, odd = sums
    total = even + np.conj(even) + odd + sign * parity * np.conj(odd)
    return total.reshape(mu.shape)


def characteristic_function(v: FockVector, lam, s: float):
    """C(lam, s) = e^{s |lam|^2 / 2} <v|D(lam)|v>.

    ``lam`` may be a scalar or array; ``s`` must be below 1 for the
    downstream Fourier transform to exist.
    """
    if s >= 1.0:
        raise InvalidParameter(f"s must be < 1, got {s}")
    lam = np.asarray(lam, dtype=complex)
    kept, _ = _kept_levels(v.amps, log_scale=0.5 * s * np.abs(lam).max(initial=0.0) ** 2 if s > 0.0 else 0.0)
    c = v.amps[:kept]
    # the Gaussian factor after the kernel, so that its array is not held during the kernel
    return _ordered_overlap(c, lam, -1, 1) * np.exp(0.5 * (s - 1.0) * np.abs(lam) ** 2)


# ---------------------------------------------------------------------------
# s-parameterized quasi-probability
# ---------------------------------------------------------------------------


def quasi_probability(v: FockVector, z: complex, s: float) -> float:
    """Closed-form F(z, s) at one point: the 1 x 1 case of ``quasi_probability_grid``."""
    z = complex(z)
    return float(quasi_probability_grid(v, [z.real], [z.imag], s).values[0, 0])


def quasi_probability_grid(
    v: FockVector, x_axis: np.ndarray, p_axis: np.ndarray, s: float
) -> DistGrid:
    """Closed-form F(x + i p, s) sampled on the grid; values[i, j] at (x_i, p_j).

    s = 0 is the Wigner function, s = -1 the Husimi function.  The
    double sum converges whenever the state's amplitude decay beats
    ((1+s)/(1-s))^n; that holds for every s < 1 for the factorially
    suppressed non-unitary-route states, and for |xi| < (1-s)/(1+s) on
    the unitary route.  As s -> 1 the pair weights overflow; a grid
    that is not finite is refused, never returned.

    ``kernel_error_bound`` bounds the move of F from cutting ``v`` to
    ``kernel_levels`` levels, nothing else: a state truncated too early
    or, on the unitary route, beyond |xi| < (1 - s)/(1 + s) reports 0.0
    all the same (case iii at xi = 0.5, s = 0.5 gives max |F| 6.0e23; at
    xi = 0.3 its F is 5.3e-7 from that of the n_max = 400 state).
    """
    if s >= 1.0:
        raise InvalidParameter(f"s must be < 1, got {s}")
    z = np.asarray(x_axis, dtype=float)[:, None] + 1j * np.asarray(p_axis, dtype=float)[None, :]
    with np.errstate(all="ignore"):  # |z|^2 or the sums may overflow: refused below
        kept, bound = _kept_levels(v.amps, s, np.abs(z).max(initial=0.0) ** 2)
        c = v.amps[:kept]
        if s == -1.0:
            # |<z|c>|^2 / pi, <z|c> = sum_n c_n e^{-|z|^2/2} conj(z)^n / sqrt(n!), each term
            # formed in log space, so that |term| <= |c_n|
            log_c, unit_c = _log_polar(c)
            log_z, unit_z = _log_polar(np.conj(z))
            gauss = -0.5 * (z.real**2 + z.imag**2)
            proj, phase = np.zeros(z.shape, dtype=complex), np.ones(z.shape, dtype=complex)
            for n in range(c.size):
                if n:
                    phase *= unit_z
                if np.isfinite(log_c[n]):
                    log_term = gauss + (log_c[n] - 0.5 * log_factorial(n)) + (n * log_z if n else 0.0)
                    proj += np.exp(log_term) * (unit_c[n] * phase)
            values = np.abs(proj) ** 2 / math.pi
        else:
            # the pair weight ratio^a = (sign t)^a t^a is split as the parity sign^N times (c t^n) twice
            ratio = (s + 1.0) / (s - 1.0)
            t = math.sqrt(abs(ratio))
            sign = math.copysign(1.0, ratio)
            w = 2.0 * z / (1.0 - s)
            total = _ordered_overlap(c * t ** np.arange(c.size), w / (sign * t), sign, sign).real
            values = 2.0 / (math.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s)) * total
    if not np.all(np.isfinite(values)):
        raise InvalidParameter(f"F(z, s) is not finite on this grid at s = {s}")
    return DistGrid(values, kernel_levels=kept, kernel_error_bound=2.0 / (math.pi * (1.0 - s)) * bound)


def _oracle_radius(v: FockVector, s: float) -> float:
    """Smallest circle radius of 6, 8, .., 24 where |C| has decayed below 1e-13.

    All ten circles of 32 points go through one ``characteristic_function``
    call.  Raises ArithmeticError when |C| has not decayed by radius 24:
    the transform cut there would be wrong, not merely inaccurate.
    """
    radii = np.arange(6, 25, 2)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    peaks = np.max(np.abs(characteristic_function(v, radii[:, None] * angles, s)), axis=1)
    decayed = np.flatnonzero(peaks < 1e-13)
    if not decayed.size:
        raise ArithmeticError(f"Fourier oracle: |C| is still {peaks[-1]:.3e} at radius 24")
    return float(radii[decayed[0]])


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
    24, searched over all ten candidate circles in one call of C.
    Node counts that are not positive integers raise InvalidParameter
    before any kernel call.  Intended for small-truncation states; cost
    grows with the support squared.
    """
    for name, count in (("radial_nodes", radial_nodes), ("angular_nodes", angular_nodes)):
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
            raise InvalidParameter(f"{name} must be a positive integer, got {count!r}")
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
