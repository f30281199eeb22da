"""Quadrature and amplitude-squared squeezing witnesses over an (r, theta) grid.

The quadrature pair x = (K+ + K-)/sqrt(2), p = i(K+ - K-)/sqrt(2)
built from the Heisenberg ladder satisfies [x, p] = i, so a variance
below 1/2 in either direction is genuine squeezing.  The four
witnesses used throughout are

    I1 = 2 (dx)^2 - 1,   I2 = 2 (dp)^2 - 1

expanded into ladder-word expectations, and their quartic analogues
I3, I4 for the real and imaginary parts of the squared amplitude,
where the reference level is the commutator expectation 2 <K0> + 1.
A negative witness signals squeezing in the corresponding direction.

``squeezing_grid`` is the one route.  It builds every modulus's
theta = 0 state with one ``states.build_sweep`` call.  The diagonal
words are falling-factorial moments of the excitation number, read
from the ``stats.moments`` table as the ``stats`` command reads them;
the two lowering words <L^2> and <L^4> are row-wise shifted products
of each rung's amplitudes, with coefficients from
``algebra.word_action``; this module holds no coefficient law of its
own.  The squeeze phase only rotates the words, so one state gives a
whole theta row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import word_action
from .fock import InvalidParameter
from .states import build_sweep
from .stats import moments

__all__ = [
    "WitnessGrid",
    "squeezing_grid",
]

# The off-diagonal words at theta = 0, as K-/K+ operator names: <L^2>, <L^4>.
_WORDS = (("K-", "K-"), ("K-", "K-", "K-", "K-"))


@dataclass(frozen=True)
class WitnessGrid:
    """I1..I4 and the uncertainty flag per (modulus, theta) cell; truncation per modulus."""

    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    i4: np.ndarray
    uncertainty_ok: np.ndarray
    n_max_effective: np.ndarray
    tail_bound: np.ndarray


def _word_values(amps: np.ndarray) -> np.ndarray:
    """The ``_WORDS`` expectations of each row of a rung's amplitudes on |2n+3>, n = 0..n_max.

    The rows are laid out as complex vectors the way a built state is,
    on levels 3 .. 2 n_max + 3 with zeros on odd offsets, so each word
    value is the same dot product, summed in the same order, as on the
    state alone, whichever rows share the rung.  A word of net shift k
    pairs each amplitude with the one k levels away, and reads 0 when k
    reaches past the window.
    """
    rows, size = amps.shape[0], 2 * amps.shape[1] - 1
    vectors = np.zeros((rows, size), dtype=complex)
    vectors[:, ::2] = amps
    values = np.empty((len(_WORDS), rows))
    for j, ops in enumerate(_WORDS):
        coeff, shift = word_action(ops, np.arange(3, size + 3))
        # every word here lowers the level (shift < 0); one dot product per row
        cut = min(-shift, size)
        bra, ket = vectors[:, None, : size - cut], coeff[cut:] * vectors[:, cut:]
        values[j] = (bra @ ket[:, :, None])[:, 0, 0].real
    return values


def _witnesses(low2, low4, m1, m2) -> tuple:
    """(I1, I2, I3, I4) from <L^2>, <L^4> and the moments m_1 = <R L>, m_2 = <R^2 L^2>.

    With L/R the lowering/raising operators, <R^k> = conj <L^k> and the
    single-step words vanish on the builders' even support, so
    I1 = <L^2> + <R^2> + 2 <R L> = 2 (m_1 + Re <L^2>) and I2 has the sign
    of Re <L^2> flipped.  I3 and I4 are the variances of the real and
    imaginary parts of L^2, referenced against <R L> + 1/2; with
    <L^2 R^2> = m_2 + 4 m_1 + 2 the reference cancels exactly, leaving
    I3 = (m_2 + Re <L^4>)/2 - (Re <L^2>)^2 and
    I4 = (m_2 - Re <L^4>)/2 - (Im <L^2>)^2, with no O(1) term to lose
    small moduli against.
    """
    re2, im2, re4 = low2.real, low2.imag, low4.real
    return 2.0 * (m1 + re2), 2.0 * (m1 - re2), 0.5 * (m2 + re4) - re2**2, 0.5 * (m2 - re4) - im2**2


def squeezing_grid(
    kind: str,
    moduli: Iterable[float],
    thetas: Iterable[float],
    n_max: int = 70,
) -> WitnessGrid:
    """Witnesses of route ``kind`` over the (modulus, theta) grid, in the caller's order.

    Both builders put |c_n| e^{i n theta} on |2n+3> and the case-iii
    truncation is chosen from |c_n| alone, so for every theta
    <L^2> = e^{i theta} <L^2>_0, <L^4> = e^{2 i theta} <L^4>_0 and the
    moments m_1, m_2 do not depend on theta.  Each rung fills its rows
    of one (rows, 4) ``stats.moments`` table from the even offsets, as
    the ``stats`` command does.  Row k of every
    (moduli x thetas) array and entry k of ``n_max_effective`` and
    ``tail_bound`` belong to ``moduli[k]``.
    """
    angles = np.asarray(list(thetas), dtype=float)
    if not np.all(np.isfinite(angles)):
        raise InvalidParameter("theta values must be finite")
    angles = np.fmod(angles, 2.0 * np.pi)  # exact, and 2 theta stays finite at any theta
    rungs = build_sweep(kind, list(moduli), 0.0, n_max)
    rows = sum(rung.rows.size for rung in rungs)
    words, m = np.empty((len(_WORDS), rows)), np.empty((rows, 4))
    effective, tail = np.empty(rows, dtype=int), np.empty(rows)
    for rung in rungs:
        words[:, rung.rows] = _word_values(rung.amps)
        m[rung.rows] = moments(np.abs(rung.amps) ** 2, 2 * np.arange(rung.n_max + 1))
        effective[rung.rows], tail[rung.rows] = rung.n_max, rung.tail_bound
    low2 = words[0][:, None] * np.exp(1j * angles)
    low4 = words[1][:, None] * np.exp(2j * angles)
    i1, i2, i3, i4 = _witnesses(low2, low4, m[:, :1], m[:, 1:2])
    ok = (i1 + 1.0) * (i2 + 1.0) >= 1.0 - 1e-9
    return WitnessGrid(i1, i2, i3, i4, ok, effective, tail)
