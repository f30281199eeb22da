"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
explicit rational-arithmetic polynomial sums, direct term-by-term
series summation with lgamma, power moments summed from nu^j P(nu)
(the library reads falling-factorial moments), dense-matrix operator
algebra (ladder words and the I1..I4 witnesses as dense-operator
variances), one operator applied to a truncated vector (``apply``),
the per-element Cahill-Glauber displacement closed form summed pair by
pair, the Fourier oracle's per-circle cut-radius search
(``oracle_radius_loop``), the paper's cosine double sum for the
quadrature distribution, both amplitude laws in 50-digit mpmath, and
the squeezing witnesses I1..I4 of those amplitudes (``witnesses_mp``),
the phase-space element sum and the s-ordered form of F in 40-digit
mpmath.  The full-support phase-space route (``full_support_overlap``)
sums the element sum of any two vectors against a table of Laguerre
values by the upward recurrence (``assoc_laguerre_sequence``), the
route the library's Clenshaw kernel replaced; by bilinearity it gives
the move of the library's cut from the dropped levels alone
(``quasi_probability_cut_move``, ``characteristic_function_cut_move``),
which is checked against the 1e-16 contract.  Basis vectors
(``basis_vector``), the deformed spectrum (``deform_f``,
``deformed_energy``, ``vibration_frequency``) and the rounding bound
of the Casimir row (``casimir_rounding_bound``) live here too: no
library route needs them.
"""

from __future__ import annotations

from fractions import Fraction
import math
from math import lgamma, exp, factorial, sqrt

import mpmath
import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import algebra, dist, stats
from isosqueeze.fock import BASE_LEVEL
from isosqueeze.specfun import log_factorial, weighted_hermite_table


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


def casimir_rounding_bound(n: int) -> float:
    """A bound on the float residue of the Casimir row at level ``n``, from rounding alone.

    The row is N- N+ = N0^3 - N0^2 - 2 N0; both sides are P = (n+1) n (n-2)
    in exact arithmetic.  With u = 2^-53 and gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1),
    while (n+1) n < 2^53:
    the left side is c1 c2, each c = sqrt((n+1) n (n-2)) with one rounded
    product and one rounded root, and one rounded multiply, so it is
    within gamma_4 P; the right side rounds n^3 (n^2 is exact) and two
    additions, so it is within gamma_3 (n^3 + n^2 + 2n); the final
    subtraction rounds once more.
    """
    u = 2.0**-53
    gamma_3, gamma_4 = (k * u / (1.0 - k * u) for k in (3, 4))
    return (1.0 + u) * (gamma_4 * (n + 1) * n * (n - 2) + gamma_3 * (n**3 + n**2 + 2 * n))


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


def _amplitudes_mpc(kind: str, r: float, theta: float, n_max: int) -> list:
    """Normalized c_{2n+3}, n = 0..n_max, as mpmath numbers at the working precision."""
    amp = mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta)) * r
    f = mpmath.factorial
    terms = []
    for n in range(n_max + 1):
        term = amp**n * mpmath.sqrt(f(2 * n)) / (2**n * f(n))
        if kind == "i":
            term /= mpmath.sqrt(f(2 * n + 2) * f(2 * n + 3))
        terms.append(term)
    norm = mpmath.sqrt(mpmath.fsum(abs(t) ** 2 for t in terms))
    return [t / norm for t in terms]


def amplitudes_mp(kind: str, r: float, theta: float, n_max: int) -> np.ndarray:
    """Normalized c_{2n+3}, n = 0..n_max, of either law at 50 digits.

    Case i: beta^n / (2^n n!) sqrt((2n)! / ((2n+2)! (2n+3)!)); case iii:
    xi^n sqrt((2n)!) / (2^n n!); both normalized over the retained n.
    """
    with mpmath.workdps(50):
        return np.array([complex(t) for t in _amplitudes_mpc(kind, r, theta, n_max)])


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
    """The number of arguments of every Laguerre series sweep the phase-space kernel runs."""
    widths = []
    sweep = dist.laguerre_series

    def counted(weights, k, x):
        widths.append(x.size)
        return sweep(weights, k, x)

    monkeypatch.setattr(dist, "laguerre_series", counted)
    return widths


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


def oracle_radius_loop(v, s: float) -> float:
    """The Fourier oracle's cut radius, one ``characteristic_function`` call per circle.

    The per-circle search that ``dist._oracle_radius`` replaced with one
    call over all ten circles, kept as its reference.
    """
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    for radius in range(6, 25, 2):
        peak = np.max(np.abs(dist.characteristic_function(v, radius * angles, s)))
        if peak < 1e-13:
            return float(radius)
    raise ArithmeticError(f"Fourier oracle: |C| is still {peak:.3e} at radius 24")


# The full-support oracle drops amplitudes at or below this, as the phase-space kernel did
# before its support came from a bound.
FULL_SUPPORT_CUTOFF = 1e-150


def _log_polar(v, cutoff: float):
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    keep = (mag > cutoff) & (mag >= np.finfo(float).tiny)  # v/|v| overflows at subnormal |v|
    log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=keep)
    return log_mag, np.divide(v, mag, out=np.zeros(v.shape, dtype=complex), where=keep)


def full_support_overlap(x, y, mu, sign, block_points: int = 4096) -> np.ndarray:
    """<x| e^{mu K+} e^{sign conj(mu) K-} |y> over the amplitudes of x and y above 1e-150.

    The Cahill-Glauber element sum grouped by the order k = |m - n|, for
    any two vectors: per order, the real and imaginary pair-weight rows
    of both branches times a table of L_a^k over the distinct arguments
    of a block, by the upward recurrence (``assoc_laguerre_sequence``).
    The library sums one vector's series by Clenshaw's recurrence
    instead (``dist._ordered_overlap``); this is the route it replaced.
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


def _split(c, levels: int):
    """``c`` as its first ``levels`` levels and the rest, each on the full window."""
    head, tail = np.zeros_like(c), np.zeros_like(c)
    head[:levels], tail[levels:] = c[:levels], c[levels:]
    return head, tail


def quasi_probability_cut_move(v, z, s: float, levels: int) -> np.ndarray:
    """F(z, s) of every level of ``v`` minus F of its first ``levels`` levels; s < 1.

    By the full-support oracle on the dropped levels alone, so the
    difference holds none of the cut sum's rounding.  With
    F = 2/(pi (1-s)) e^{-2|z|^2/(1-s)} Re G(x, y) for x_n = c_n (sign t)^n,
    y_n = c_n t^n (``dist`` module docstring) and c = c_c + c_t split at
    ``levels``, bilinearity gives G(x, y) - G(x_c, y_c) = G(x_t, y) + G(x_c, y_t).
    For s = -1, F = |p|^2 / pi with p = <z|c> = e^{-|z|^2/2} G(e_0, c; -z), and
    |p|^2 - |p_c|^2 = 2 Re(conj(p_c) p_t) + |p_t|^2.
    """
    z = np.asarray(z, dtype=complex)
    c = v.amps
    with np.errstate(all="ignore"):
        if s == -1.0:
            p_c, p_t = (np.exp(-0.5 * np.abs(z) ** 2) * full_support_overlap(np.ones(1), part, -z, -1)
                        for part in _split(c, levels))
            return (2.0 * (np.conj(p_c) * p_t).real + np.abs(p_t) ** 2) / np.pi
        ratio = (s + 1.0) / (s - 1.0)
        t = np.sqrt(abs(ratio))
        sign = np.copysign(1.0, ratio)
        n = np.arange(c.size)
        x, y = c * (sign * t) ** n, c * t**n
        x_c, x_t = _split(x, levels)
        y_c, y_t = _split(y, levels)
        mu = 2.0 * z / (1.0 - s) / (sign * t)
        move = (full_support_overlap(x_t, y, mu, sign) + full_support_overlap(x_c, y_t, mu, sign)).real
        return 2.0 / (np.pi * (1.0 - s)) * np.exp(-2.0 * np.abs(z) ** 2 / (1.0 - s)) * move


def characteristic_function_cut_move(v, lam, s: float, levels: int) -> np.ndarray:
    """C(lam, s) of every level of ``v`` minus C of its first ``levels`` levels.

    C = e^{(s-1)|lam|^2/2} G(c, c; lam), so the move is that factor times
    G(c_t, c) + G(c_c, c_t) with c = c_c + c_t split at ``levels``.
    """
    lam = np.asarray(lam, dtype=complex)
    head, tail = _split(v.amps, levels)
    move = full_support_overlap(tail, v.amps, lam, -1) + full_support_overlap(head, tail, lam, -1)
    return move * np.exp(0.5 * (s - 1.0) * np.abs(lam) ** 2)


def element_sum_mp(x, y, mu, sign, dps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """(<x| e^{mu K+} e^{sign conj(mu) K-} |y>, S) at each point of ``mu``, the sum in ``dps`` digits.

    Element by element: <m|e^{alpha K+} e^{beta K-}|n> = sqrt(n!/m!) alpha^k L_n^k(-alpha beta)
    for m = n + k >= n and sqrt(m!/n!) beta^k L_m^k(-alpha beta) for n = m + k > m, with
    alpha = mu, beta = sign conj(mu), each L_a^k by the upward recurrence in ``dps`` digits.
    S = ``modulus_sum(x, y, mu)`` bounds the sum of the moduli of the terms, in float64.
    """
    x, y = (np.asarray(v, dtype=complex) for v in (x, y))
    size = max(x.size, y.size)
    x, y = np.pad(x, (0, size - x.size)), np.pad(y, (0, size - y.size))
    points = np.ravel(np.asarray(mu, dtype=complex))
    values = []
    with mpmath.workdps(dps):
        xm, ym = ([mpmath.mpc(complex(v)) for v in part] for part in (x, y))
        root = [[mpmath.sqrt(mpmath.factorial(a) / mpmath.factorial(a + k)) for a in range(size - k)]
                for k in range(size)]
        lower = [[mpmath.conj(xm[a + k]) * ym[a] * root[k][a] for a in range(size - k)] for k in range(size)]
        upper = [[mpmath.conj(xm[a]) * ym[a + k] * root[k][a] for a in range(size - k)] for k in range(size)]
        for point in points:
            alpha = mpmath.mpc(complex(point))
            beta = sign * mpmath.conj(alpha)
            arg = -sign * (alpha.real**2 + alpha.imag**2)
            total = mpmath.mpc(0)
            for k in range(size):
                rows = laguerre_rows_mp(size - 1 - k, k, arg)
                total += alpha**k * mpmath.fdot(lower[k], rows)
                if k:
                    total += beta**k * mpmath.fdot(upper[k], rows)
            values.append(complex(total))
    shape = np.shape(mu)
    return np.array(values).reshape(shape), modulus_sum(x, y, points).reshape(shape)


def modulus_sum(x, y, mu, arg=None) -> np.ndarray:
    """sum_{m, n} |x_m y_n| sqrt(a!/(a+k)!) |mu|^k |L_a^k(arg)|, a = min(m, n), k = |m - n|, per mu.

    These are the moduli of the terms of the element sum of ``element_sum_mp`` at the Laguerre
    argument ``arg`` (one per point), summed in float64 with L_a^k by the upward recurrence.  The
    default arg = -|mu|^2 bounds them at any argument of modulus |mu|^2, as
    |L_a^k(t)| <= L_a^k(-|t|).
    """
    x, y = (np.asarray(v, dtype=complex) for v in (x, y))
    size = max(x.size, y.size)
    x, y = np.pad(x, (0, size - x.size)), np.pad(y, (0, size - y.size))
    mag = np.abs(np.ravel(np.asarray(mu, dtype=complex)))
    arg = -mag**2 if arg is None else np.ravel(arg)
    total = np.zeros(mag.size)
    log_fact = log_factorial(np.arange(size))
    for k in range(size):
        a = np.arange(size - k)
        weight = np.abs(x[a + k] * y[a]) + (np.abs(x[a] * y[a + k]) if k else 0.0)
        weight *= np.exp(0.5 * (log_fact[a] - log_fact[a + k]))
        total += mag**k * (weight @ np.abs(assoc_laguerre_sequence(size - 1 - k, k, arg)))
    return total


def laguerre_rows_mp(n_max: int, k: int, x) -> list:
    """L_0^k(x) .. L_{n_max}^k(x) by the upward recurrence, in the current mpmath precision."""
    rows = [mpmath.mpf(1), 1 + k - x]
    for m in range(1, n_max):
        rows.append(((2 * m + k + 1 - x) * rows[m] - (m + k) * rows[m - 1]) / (m + 1))
    return rows[: n_max + 1]


def quasi_probability_mp(c, z: complex, s: float, terms: int = 16, dps: int = 40) -> float:
    """F(z, s) = 2/(pi (1-s)) sum_j r^j |<j|D(-z)|c>|^2, r = (1+s)/(s-1), for -1 < s <= 0, in ``dps`` digits.

    The first ``terms`` j only: |r| <= 1/3 below s = -1/2, so choose ``terms`` from r.  With
    a D(alpha) = D(alpha)(a + alpha), <j|D(alpha)|c> = <0|D(alpha) (a + alpha)^j |c> / sqrt(j!),
    and <0|D(alpha)|n> = e^{-|alpha|^2/2} (-conj(alpha))^n / sqrt(n!).
    """
    with mpmath.workdps(dps):
        alpha = -mpmath.mpc(complex(z))
        u = [mpmath.mpc(complex(v)) for v in c]
        gauss = mpmath.exp(-abs(alpha) ** 2 / 2)
        bra = [gauss * (-mpmath.conj(alpha)) ** n / mpmath.sqrt(mpmath.factorial(n)) for n in range(len(u))]
        r = mpmath.mpf(s + 1) / mpmath.mpf(s - 1)
        total = mpmath.mpf(0)
        for j in range(terms):
            element = mpmath.fdot(bra, u) / mpmath.sqrt(mpmath.factorial(j))
            total += r**j * abs(element) ** 2
            lowered = [mpmath.sqrt(n + 1) * u[n + 1] for n in range(len(u) - 1)] + [0]
            u = [alpha * value + low for value, low in zip(u, lowered)]
        return float(2 / (mpmath.pi * (1 - mpmath.mpf(s))) * total)


def witnesses_mp(kind: str, r: float, theta: float, n_max: int = 70) -> tuple:
    """(I1, I2, I3, I4) of the closed-form state (``amplitudes_mp``'s law) in 40 digits.

    Each ladder word is summed term by term over c_n on offset 2n:
    <L^2> = sum conj(c_n) c_{n+1} sqrt((2n+1)(2n+2)), <L^4> with the factors (2n+1)..(2n+4),
    <R L> = sum 2n |c_n|^2, <R^2 L^2> = sum 2n(2n-1) |c_n|^2, <L^2 R^2> = sum (2n+1)(2n+2) |c_n|^2.
    The witnesses are Hillery's variances: I1 = 2 Var(x) - 1 and I2 = 2 Var(p) - 1 with <x> = <p> = 0
    on the even support, I3 = Var(Y1) - <R L> - 1/2 and I4 = Var(Y2) - <R L> - 1/2 with
    <Y1^2> = (2 Re <L^4> + <L^2 R^2> + <R^2 L^2>)/4, <Y1> = Re <L^2>, <Y2> = Im <L^2> and
    <Y2^2> = (<L^2 R^2> + <R^2 L^2> - 2 Re <L^4>)/4.  Nothing here uses m_2 + 4 m_1 + 2 = <L^2 R^2>,
    so the O(1) reference cancels in 40 digits rather than in algebra.
    """
    with mpmath.workdps(40):
        c = _amplitudes_mpc(kind, r, theta, n_max)
        p = [abs(v) ** 2 for v in c]
        nu = range(0, 2 * len(c), 2)
        low2 = mpmath.fsum(mpmath.conj(c[n]) * c[n + 1] * mpmath.sqrt((2 * n + 1) * (2 * n + 2))
                           for n in range(len(c) - 1))
        low4 = mpmath.fsum(mpmath.conj(c[n]) * c[n + 2] * mpmath.sqrt(mpmath.fprod(range(2 * n + 1, 2 * n + 5)))
                           for n in range(len(c) - 2))
        cross = mpmath.fsum(k * q for k, q in zip(nu, p))
        quartic = mpmath.fsum((k * (k - 1) + (k + 1) * (k + 2)) * q for k, q in zip(nu, p))
        reference = cross + mpmath.mpf(1) / 2  # <R L> + 1/2, also <x^2> and <p^2> less +-Re <L^2>
        var_y1 = (2 * low4.real + quartic) / 4 - low2.real**2
        var_y2 = (quartic - 2 * low4.real) / 4 - low2.imag**2
        return tuple(float(w) for w in (2 * (reference + low2.real) - 1, 2 * (reference - low2.real) - 1,
                                        var_y1 - reference, var_y2 - reference))


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
