"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
explicit rational-arithmetic polynomial sums, direct term-by-term
series summation with lgamma, power moments summed from nu^j P(nu)
(the library reads falling-factorial moments), dense-matrix operator
algebra (ladder words and the I1..I4 witnesses as dense-operator
variances), one operator applied to a truncated vector (``apply``),
the per-element Cahill-Glauber displacement closed form summed pair by
pair, the paper's cosine double sum for the
quadrature distribution, and both amplitude laws in 50-digit mpmath.
The full-support phase-space route (``quasi_probability_full``,
``characteristic_function_full``) runs a copy of the library kernel on
the uncut state, in the same arithmetic, so the levels the library
drops can be checked against its 1e-16 contract.  Basis vectors
(``basis_vector``) and the deformed spectrum (``deform_f``,
``deformed_energy``, ``vibration_frequency``) live here too: no
library route needs them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lgamma, exp, factorial, sqrt

import mpmath
import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import algebra, dist, stats
from isosqueeze.fock import BASE_LEVEL
from isosqueeze.specfun import assoc_laguerre_sequence, log_factorial, weighted_hermite_table


def basis_vector(level: int, size: int | None = None) -> iq.FockVector:
    """The basis state |level> on a window of ``size`` levels."""
    if level < BASE_LEVEL:
        raise ValueError(f"level must be >= {BASE_LEVEL}")
    if size is None:
        size = level - BASE_LEVEL + 1
    if size < level - BASE_LEVEL + 1:
        raise ValueError("window too small to hold the requested level")
    amps = np.zeros(size, dtype=complex)
    amps[level - BASE_LEVEL] = 1.0
    return iq.FockVector(amps)


def deform_f(n: int) -> float:
    """Deformation weight f(n) = sqrt((n-1)(n-3)); zero at n = 1 and 3."""
    prod = (n - 1.0) * (n - 3.0)
    if prod < 0.0:
        raise ValueError(f"f(n) is not real at n={n}; levels 1 < n < 3 are unphysical here")
    return sqrt(abs(prod))  # abs: (1 - 1)(1 - 3) is -0.0, whose root is -0.0


def deformed_energy(n: int) -> float:
    """Spectrum of the symmetrized deformed Hamiltonian: n(1 - 5n + 2n^2)/2."""
    return 0.5 * n * (1.0 - 5.0 * n + 2.0 * n * n)


def vibration_frequency(n: int, branch: str = "plus") -> float:
    """Level-dependent oscillation frequency of the deformed ladder.

    The ``plus`` branch equals the upward energy gap,
    deformed_energy(n+1) - deformed_energy(n) = 3n^2 - 2n - 1.
    """
    if branch == "plus":
        return 3.0 * n * n - 2.0 * n - 1.0
    if branch == "minus":
        return 3.0 * n * n - 4.0 * n + 2.0
    raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")


def hermite_series(n: int, x: float) -> float:
    """H_n(x) as an exact rational alternating sum (float only at the end)."""
    xf = Fraction(x)
    total = Fraction(0)
    for m in range(n // 2 + 1):
        coeff = Fraction((-1) ** m * factorial(n), factorial(m) * factorial(n - 2 * m))
        total += coeff * (2 * xf) ** (n - 2 * m)
    return float(total)


def laguerre_series(n: int, k: int, x: float) -> float:
    """L_n^k(x) as an exact rational sum."""
    xf = Fraction(x)
    total = Fraction(0)
    for i in range(n + 1):
        binom = Fraction(factorial(n + k), factorial(n - i) * factorial(k + i))
        total += Fraction((-1) ** i, factorial(i)) * binom * xf**i
    return float(total)


def nonlinear_probability(n: int, r: float, log_norm_sq: float) -> float:
    """P(2n) of the non-unitary-route state by direct term evaluation."""
    if r == 0.0:
        return exp(log_norm_sq - lgamma(3) - lgamma(4)) if n == 0 else 0.0
    log_term = (
        2 * n * np.log(r)
        - n * np.log(4.0)
        - 2 * lgamma(n + 1)
        + lgamma(2 * n + 1)
        - lgamma(2 * n + 3)
        - lgamma(2 * n + 4)
    )
    return exp(log_norm_sq + log_term)


def nonlinear_log_norm_sq(r: float, n_terms: int = 400) -> float:
    """ln N^2 for the non-unitary route by direct series summation."""
    logs = []
    for n in range(n_terms):
        if r == 0.0 and n > 0:
            break
        logs.append(
            (2 * n * np.log(r) if r > 0 else 0.0)
            - n * np.log(4.0)
            - 2 * lgamma(n + 1)
            + lgamma(2 * n + 1)
            - lgamma(2 * n + 3)
            - lgamma(2 * n + 4)
        )
    logs = np.array(logs)
    peak = logs.max()
    return -(peak + np.log(np.exp(logs - peak).sum()))


def unitary_probability(n: int, xi: float) -> float:
    """P(2n) of the unitary-route state: N^2 xi^{2n} (2n)! / (4^n n!^2)."""
    log_term = 2 * n * np.log(xi) if xi > 0 else (0.0 if n == 0 else -np.inf)
    log_term += lgamma(2 * n + 1) - n * np.log(4.0) - 2 * lgamma(n + 1)
    return float(np.sqrt(1 - xi * xi) * np.exp(log_term))


def squeezed_norm_closed_form(xi: float) -> float:
    """Unitary-route normalization in closed form: (1 - xi^2)^(1/4)."""
    return (1.0 - xi * xi) ** 0.25


def amplitudes_mp(kind: str, r: float, theta: float, n_max: int) -> np.ndarray:
    """Normalized c_{2n+3}, n = 0..n_max, of either law at 50 digits.

    Case i: beta^n / (2^n n!) sqrt((2n)! / ((2n+2)! (2n+3)!)); case iii:
    xi^n sqrt((2n)!) / (2^n n!); both normalized over the retained n.
    """
    with mpmath.workdps(50):
        amp = mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta)) * r
        f = mpmath.factorial
        terms = []
        for n in range(n_max + 1):
            term = amp**n * mpmath.sqrt(f(2 * n)) / (2**n * f(n))
            if kind == "i":
                term /= mpmath.sqrt(f(2 * n + 2) * f(2 * n + 3))
            terms.append(term)
        norm = mpmath.sqrt(mpmath.fsum(abs(t) ** 2 for t in terms))
        return np.array([complex(t / norm) for t in terms])


def power_moments(v) -> tuple[float, float]:
    """<nu> and <nu^2> of the excitation number above |3>, summed from nu^j P(nu)."""
    nu = np.arange(v.amps.size, dtype=float)
    p = np.abs(v.amps) ** 2
    return float(np.sum(nu * p)), float(np.sum(nu * nu * p))


def state_moments(v) -> np.ndarray:
    """The ``stats.moments`` row of one state, read over all of its offsets."""
    return stats.moments(np.abs(v.amps[None]) ** 2, np.arange(v.amps.size))[0]


def mandel_q_power(v) -> float:
    """Mandel Q = <nu^2>/<nu> - <nu> - 1 from the power moments."""
    mean, mean_sq = power_moments(v)
    return mean_sq / mean - mean - 1.0


def g2_zero_power(v) -> float:
    """g2(0) = (<nu^2> - <nu>) / <nu>^2 from the power moments."""
    mean, mean_sq = power_moments(v)
    return (mean_sq - mean) / mean**2


def apply(op: str, v):
    """op|v> on the window of ``v``, one ``algebra`` table entry at a time.

    Nothing leaves the bottom (every lowering law vanishes at |3>); the
    probability a raising carries off the top level is added to the
    tail bound.
    """
    coeff, shift = algebra.word_action((op,), v.levels)
    moved = v.amps * coeff
    out = np.roll(moved, shift)
    if shift:
        out[0 if shift > 0 else -1] = 0.0  # the level that wrapped round
    dropped = abs(moved[-1]) ** 2 if shift > 0 else 0.0
    return iq.FockVector(out, tail_bound=v.tail_bound + dropped)


def heisenberg_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense lowering/raising matrices on excitation offsets 0..dim-1."""
    lower = np.zeros((dim, dim))
    for nu in range(dim - 1):
        lower[nu, nu + 1] = np.sqrt(nu + 1.0)
    return lower, lower.T.copy()


def ladder_word(v, word: str) -> complex:
    """<v| word |v> for a word of '+' (raising) and '-' (lowering), leftmost acting last.

    Dense ``heisenberg_matrices`` on the vector padded by the word's
    length, so no raising is cut at the truncation edge.
    """
    ket = np.concatenate([v.amps, np.zeros(len(word), dtype=complex)])
    lower, upper = heisenberg_matrices(ket.size)
    out = ket
    for tok in reversed(word):
        out = (upper if tok == "+" else lower) @ out
    return complex(np.vdot(ket, out))


def witness_oracle(v) -> tuple[float, float, float, float]:
    """(I1, I2, I3, I4) of ``v`` from variances of dense operators.

    On the vector padded by 4 levels, with L/R the dense lowering/raising
    matrices: I1 = 2 Var(x) - 1 and I2 = 2 Var(p) - 1 for
    x = (L + R)/sqrt(2), p = i(R - L)/sqrt(2); I3 = Var(Y1) - <R L> - 1/2
    and I4 = Var(Y2) - <R L> - 1/2 for Y1 = (L^2 + R^2)/2,
    Y2 = i(R^2 - L^2)/2.
    """
    ket = np.concatenate([v.amps, np.zeros(4, dtype=complex)])
    lower, upper = heisenberg_matrices(ket.size)

    def variance(op):
        first = np.vdot(ket, op @ ket)
        return (np.vdot(ket, op @ (op @ ket)) - first * first).real

    x = (lower + upper) / sqrt(2.0)
    p = 1j * (upper - lower) / sqrt(2.0)
    low2, high2 = lower @ lower, upper @ upper
    y1, y2 = 0.5 * (low2 + high2), 0.5j * (high2 - low2)
    number = np.vdot(ket, upper @ (lower @ ket)).real
    return (2.0 * variance(x) - 1.0, 2.0 * variance(p) - 1.0,
            variance(y1) - number - 0.5, variance(y2) - number - 0.5)


def displacement_expm(lam: complex, dim: int) -> np.ndarray:
    """exp(lam K+ - conj(lam) K-) via eigendecomposition of the Hermitian part."""
    lower, upper = heisenberg_matrices(dim)
    generator = lam * upper - np.conj(lam) * lower
    eigvals, eigvecs = np.linalg.eigh(-1j * generator)
    return (eigvecs * np.exp(1j * eigvals)) @ eigvecs.conj().T


@pytest.fixture(scope="session")
def nonlinear_r20():
    return iq.build_state(iq.SqueezeParams(kind="i", r=20.0, n_max=70))


@pytest.fixture(scope="session")
def unitary_xi04():
    return iq.build_state(iq.SqueezeParams(kind="iii", r=0.4, n_max=70))


@pytest.fixture
def sweep_widths(monkeypatch):
    """The number of arguments of every Laguerre sweep the phase-space kernel runs."""
    widths = []
    sweep = dist.assoc_laguerre_sequence

    def counted(n_max, k, x):
        widths.append(x.size)
        return sweep(n_max, k, x)

    monkeypatch.setattr(dist, "assoc_laguerre_sequence", counted)
    return widths


def laguerre_rows(n_max: int, k: int, x: np.ndarray) -> list[np.ndarray]:
    """L_0^k(x) .. L_{n_max}^k(x) by the upward three-term recurrence."""
    rows = [np.ones_like(x), 1.0 + k - x]
    for m in range(1, n_max):
        rows.append(((2.0 * m + k + 1.0 - x) * rows[m] - (m + k) * rows[m - 1]) / (m + 1.0))
    return rows


def characteristic_function_pairs(v, lam, s: float) -> np.ndarray:
    """e^{s |lam|^2 / 2} <v|D(lam)|v>, summed element by element over support pairs.

    Cahill-Glauber closed form (Phys. Rev. 177, 1857 and 1882, 1969):
    <row|D(lam)|col> = sqrt(min!/max!) e^{-|lam|^2/2} L_min^k(|lam|^2)
    with k = |row - col|, times lam^k for row >= col and (-conj(lam))^k
    otherwise.
    """
    lam = np.asarray(lam, dtype=complex)
    mag_sq = np.abs(lam) ** 2
    support = np.nonzero(np.abs(v.amps) > 1e-150)[0]
    laguerre: dict[int, list[np.ndarray]] = {}
    total = np.zeros(lam.shape, dtype=complex)
    for i in support:
        for j in support:
            low, k = int(min(i, j)), int(abs(i - j))
            if k not in laguerre:
                laguerre[k] = laguerre_rows(int(support[-1]), k, mag_sq)
            power = lam**k if i >= j else (-np.conj(lam)) ** k
            element = sqrt(exp(lgamma(low + 1) - lgamma(low + k + 1))) * power * laguerre[k][low]
            total += np.conj(v.amps[i]) * v.amps[j] * element
    return total * np.exp(0.5 * (s - 1.0) * mag_sq)


# The phase-space kernel dropped amplitudes at or below this before its
# support came from a bound.
FULL_SUPPORT_CUTOFF = 1e-150


def _log_polar(v, cutoff: float):
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    keep = (mag > cutoff) & (mag >= np.finfo(float).tiny)  # v/|v| overflows at subnormal |v|
    log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=keep)
    return log_mag, np.divide(v, mag, out=np.zeros(v.shape, dtype=complex), where=keep)


def full_support_overlap(x, y, mu, sign, block_points: int = 4096) -> np.ndarray:
    """<x| e^{mu K+} e^{sign conj(mu) K-} |y> over the amplitudes of x and y above 1e-150.

    A copy of the library kernel (``dist._ordered_overlap``) as it was
    before its callers cut the vectors by a bound: the Cahill-Glauber
    element sum grouped by the order k = |m - n|, each order one
    Laguerre sweep over the distinct arguments of a block.
    """
    mu = np.asarray(mu, dtype=complex)
    total = np.zeros(mu.size, dtype=complex)
    supports = [np.nonzero(np.abs(v) > FULL_SUPPORT_CUTOFF)[0] for v in (x, y)]
    if not all(idx.size for idx in supports):
        return total.reshape(mu.shape)
    size = 1 + max(idx[-1] for idx in supports)
    (log_x, unit_x), (log_y, unit_y) = (
        _log_polar(np.pad(v[:size], (0, size - v[:size].size)), FULL_SUPPORT_CUTOFF) for v in (x, y)
    )
    log_fact = log_factorial(np.arange(size))
    flat = mu.ravel()
    arg = -sign * (flat.real**2 + flat.imag**2)
    by_arg = np.argsort(arg, kind="stable")
    for start in range(0, flat.size, block_points):
        pts = by_arg[start : start + block_points]
        key, first, inverse = np.unique(arg[pts], return_index=True, return_inverse=True)
        log_mu, unit_mu = _log_polar(flat[pts], 0.0)
        log_mu = log_mu[first]
        block = np.zeros(pts.size, dtype=complex)
        phase = np.ones_like(unit_mu)
        for k in range(size):
            if k:
                phase *= unit_mu
            n = size - k
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
            sums = np.concatenate([weights.real, weights.imag]) @ assoc_laguerre_sequence(top - 1, k, key)
            coef = (sums[:2] + 1j * sums[2:]) * (np.exp(peak + k * log_mu) if k else np.exp(peak))
            coef[1] *= sign**k
            block += coef[0, inverse] * phase
            block += coef[1, inverse] * np.conj(phase)
        total[pts] = block
    return total.reshape(mu.shape)


def quasi_probability_full(v, z, s: float) -> np.ndarray:
    """F(z, s) on an array of points by the kernel on every level of ``v``; s < 1, no finiteness check."""
    z = np.asarray(z, dtype=complex)
    c = v.amps
    with np.errstate(all="ignore"):
        if s == -1.0:
            proj = full_support_overlap(np.ones(1), c, -z, -1)
            return np.exp(-np.abs(z) ** 2) * np.abs(proj) ** 2 / np.pi
        ratio = (s + 1.0) / (s - 1.0)
        t = np.sqrt(abs(ratio))
        sign = np.copysign(1.0, ratio)
        n = np.arange(c.size)
        w = 2.0 * z / (1.0 - s)
        total = full_support_overlap(c * (sign * t) ** n, c * t**n, w / (sign * t), sign).real
        return 2.0 / (np.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s)) * total


def characteristic_function_full(v, lam, s: float) -> np.ndarray:
    """C(lam, s) on an array of points by the kernel on every level of ``v``."""
    lam = np.asarray(lam, dtype=complex)
    return full_support_overlap(v.amps, v.amps, lam, -1) * np.exp(0.5 * (s - 1.0) * np.abs(lam) ** 2)


def quadrature_distribution_cosine(v, theta: float, x_axis, phi_axis) -> np.ndarray:
    """P(x, phi) of a case-i state by the paper's cosine double sum; values[x, phi].

    ``v`` carries |c_n| e^{i n theta} on offset 2n and zeros on odd
    offsets.  With A_n(x) = |c_n| u_{2n}(x), grouped by d = m - n:
    P = B_0(x) + 2 sum_d cos(d (2 phi - theta)) B_d(x) with
    B_d(x) = sum_n A_n(x) A_{n+d}(x).
    """
    x_axis = np.asarray(x_axis, dtype=float)
    phi_axis = np.asarray(phi_axis, dtype=float)
    coeff = np.abs(v.amps[::2])
    n_terms = coeff.size
    amp = coeff[:, None] * weighted_hermite_table(2 * n_terms - 2, x_axis)[::2]
    b = np.empty((n_terms, x_axis.size))
    for d in range(n_terms):
        b[d] = np.sum(amp[: n_terms - d] * amp[d:], axis=0)
    cosines = np.cos(np.outer(2.0 * phi_axis - theta, np.arange(n_terms)))  # (phi, d)
    weights = np.full(n_terms, 2.0)
    weights[0] = 1.0
    return ((cosines * weights[None, :]) @ b).T
