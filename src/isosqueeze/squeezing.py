"""Quadrature and amplitude-squared squeezing witnesses.

The quadrature pair x = (raise + lower)/sqrt(2), p = i(raise - lower)/
sqrt(2) built from the Heisenberg ladder satisfies [x, p] = i, so a
variance below 1/2 in either direction is genuine squeezing.  The four
witnesses used throughout are

    I1 = 2 (dx)^2 - 1,   I2 = 2 (dp)^2 - 1

expanded into ladder-word expectations, and their quartic analogues
I3, I4 for the real and imaginary parts of the squared amplitude,
where the reference level is the commutator expectation 2 <K0> + 1.
A negative witness signals squeezing in the corresponding direction.

The formulas live in one helper of word values.  ``squeezing_report``
feeds it the nine words of an arbitrary vector; ``squeezing_grid``
feeds it whole theta rows, built from five words of one theta = 0
state per modulus, because the squeeze phase only rotates the words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fock import FockVector, InvalidParameter

__all__ = [
    "QuadReport",
    "expectation_ladder_word",
    "quadrature_identities",
    "amplitude_squared_identities",
    "squeezing_report",
    "squeezing_grid",
]

# Imaginary residue allowed on nominally real identity values.
_IMAG_TOL = 1e-10

# Every distinct ladder word that enters I1..I4.
_WITNESS_WORDS = ("-", "+", "--", "++", "+-", "----", "++++", "++--", "--++")


def expectation_ladder_word(v: FockVector, word: Sequence[str] | str) -> complex:
    """<v| word |v> for a word in the Heisenberg ladder operators.

    ``word`` lists '+' (raising) and '-' (lowering) in operator order,
    leftmost acting last; e.g. "+-" is raise-after-lower.  The word is
    one weighted shifted dot product: walking it right to left, the
    amplitude starting at offset nu picks up sqrt(nu') per lowering
    from offset nu' (zero at the bottom) and sqrt(nu' + 1) per raising,
    and is paired with the amplitude at nu + k for the net shift k.
    Raisings are never cut at the truncation edge.
    """
    steps = []
    for tok in word:
        if tok in ("+", "plus"):
            steps.append(1)
        elif tok in ("-", "minus"):
            steps.append(-1)
        else:
            raise ValueError(f"word tokens must be '+'/'-' (or 'plus'/'minus'), got {tok!r}")
    if len(steps) > 4:
        raise ValueError("ladder words longer than 4 are not used here")
    size = v.amps.size
    nu = np.arange(size, dtype=float)
    coeff = np.ones(size)
    shift = 0
    for step in reversed(steps):
        # offsets pushed below the bottom already carry a zero weight
        coeff *= np.sqrt(np.maximum(nu + shift + (step > 0), 0.0))
        shift += step
    lo, hi = max(0, -shift), min(size, size - shift)
    return complex(np.vdot(v.amps[lo + shift : hi + shift], coeff[lo:hi] * v.amps[lo:hi]))


def _real_part(value, label: str):
    """Real part of a nominally real identity value (scalar or array)."""
    residue = np.max(np.abs(np.imag(value)), initial=0.0)
    if residue > _IMAG_TOL:
        raise ArithmeticError(f"{label} should be real; imaginary residue {residue:.3e}")
    return np.real(value)


def _witnesses(w: Mapping) -> tuple:
    """(I1, I2, I3, I4) from the expectations ``w[word]`` of the witness words.

    With L/R the lowering/raising operators,
    I1 = <L^2> + <R^2> - <L>^2 - <R>^2 - 2 <L><R> + 2 <R L> and I2 has
    the first four signs flipped; I3 and I4 are quarter-weighted
    combinations of the quartic words and the squared second moments,
    referenced against <R L> + 1/2.  Word values may be complex scalars
    or arrays over theta.
    """
    low, high, low2, high2, cross = w["-"], w["+"], w["--"], w["++"], w["+-"]
    low4, high4 = w["----"], w["++++"]
    even = -(low**2) - high**2 - 2.0 * low * high + 2.0 * cross
    i1 = _real_part(low2 + high2 + even, "I1")
    i2 = _real_part(-low2 - high2 + 2.0 * low**2 + 2.0 * high**2 + even, "I2")
    shared = -2.0 * low2 * high2 + (w["++--"] + w["--++"])
    i3 = _real_part(
        0.25 * (low4 + high4 - low2**2 - high2**2 + shared) - cross - 0.5, "I3"
    )
    i4 = _real_part(
        0.25 * (-low4 - high4 + low2**2 + high2**2 + shared) - cross - 0.5, "I4"
    )
    return i1, i2, i3, i4


def _uncertainty_ok(i1, i2):
    return (i1 + 1.0) * (i2 + 1.0) >= 1.0 - 1e-9


def _word_values(v: FockVector) -> dict:
    return {word: expectation_ladder_word(v, word) for word in _WITNESS_WORDS}


def quadrature_identities(v: FockVector) -> tuple[float, float]:
    """(I1, I2): shifted doubled variances of the two quadratures.

    Negative means the corresponding quadrature variance is below the
    vacuum value 1/2.
    """
    return _witnesses(_word_values(v))[:2]


def amplitude_squared_identities(v: FockVector) -> tuple[float, float]:
    """(I3, I4): squared-amplitude squeezing witnesses.

    Negative I3 (I4) means squeezing in the real (imaginary) part of
    the squared field amplitude.
    """
    return _witnesses(_word_values(v))[2:]


@dataclass(frozen=True)
class QuadReport:
    """Squeezing witnesses of one (r, theta) grid cell and the truncation of its state."""

    r: float
    theta: float
    i1: float
    i2: float
    i3: float
    i4: float
    uncertainty_ok: bool
    n_max_effective: int
    tail_bound: float


def squeezing_report(v: FockVector, r: float, theta: float) -> QuadReport:
    """Evaluate all four witnesses plus the uncertainty-product check."""
    i1, i2, i3, i4 = _witnesses(_word_values(v))
    ok = _uncertainty_ok(i1, i2)
    return QuadReport(r, theta, i1, i2, i3, i4, ok, v.n_max_effective, v.tail_bound)


def squeezing_grid(
    kind: str,
    r_values: Iterable[float],
    theta_values: Iterable[float],
    n_max: int = 70,
) -> list[QuadReport]:
    """Witness sweep over an (r, theta) grid, row-major in (r, theta).

    One state is built per modulus, at theta = 0, and gives the whole
    theta row.  This rests on both builders putting |c_n| e^{i n theta}
    on offset 2n and exact zeros on odd offsets, with the case-iii
    truncation chosen from |c_n| alone.  Hence, for every theta,
    <L^2> = e^{i theta} <L^2>_0, <L^4> = e^{2 i theta} <L^4>_0,
    <R^k> = conj <L^k>, <L> = <R> = 0, and <R L>, <R^2 L^2> and
    <L^2 R^2> do not depend on theta.  Each report carries the
    caller's r and theta values and the truncation of its modulus's
    state; the row-major ordering is the stable output contract relied
    on by the CSV emitters.
    """
    from .states import SqueezeParams, build_state

    thetas = list(theta_values)
    angles = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise InvalidParameter("theta values must be finite")
    turn, turn2 = np.exp(1j * angles), np.exp(2j * angles)
    reports = []
    for r in r_values:
        state = build_state(SqueezeParams(kind=kind, r=r, theta=0.0, n_max=n_max))
        low2 = turn * expectation_ladder_word(state, "--")
        low4 = turn2 * expectation_ladder_word(state, "----")
        words = {
            "-": 0.0,
            "+": 0.0,
            "--": low2,
            "++": np.conj(low2),
            "+-": expectation_ladder_word(state, "+-"),
            "----": low4,
            "++++": np.conj(low4),
            "++--": expectation_ladder_word(state, "++--"),
            "--++": expectation_ladder_word(state, "--++"),
        }
        i1, i2, i3, i4 = _witnesses(words)
        ok = _uncertainty_ok(i1, i2)
        for row in zip(thetas, i1.tolist(), i2.tolist(), i3.tolist(), i4.tolist(), ok.tolist()):
            reports.append(QuadReport(r, *row, state.n_max_effective, state.tail_bound))
    return reports
