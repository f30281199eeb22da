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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fock import FockVector

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


def _real_part(value: complex, label: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise ArithmeticError(f"{label} should be real; imaginary residue {value.imag:.3e}")
    return value.real


def quadrature_identities(v: FockVector) -> tuple[float, float]:
    """(I1, I2): shifted doubled variances of the two quadratures.

    I1 = <L^2> + <R^2> - <L>^2 - <R>^2 - 2 <L><R> + 2 <R L>, with L/R
    the lowering/raising operators, and I2 with the first four signs
    flipped.  Negative means the corresponding quadrature variance is
    below the vacuum value 1/2.
    """
    low = expectation_ladder_word(v, "-")
    high = expectation_ladder_word(v, "+")
    low2 = expectation_ladder_word(v, "--")
    high2 = expectation_ladder_word(v, "++")
    cross = expectation_ladder_word(v, "+-")
    even = -(low**2) - high**2 - 2.0 * low * high + 2.0 * cross
    i1 = _real_part(low2 + high2 + even, "I1")
    i2 = _real_part(-low2 - high2 + 2.0 * low**2 + 2.0 * high**2 + even, "I2")
    return i1, i2


def amplitude_squared_identities(v: FockVector) -> tuple[float, float]:
    """(I3, I4): squared-amplitude squeezing witnesses.

    Quarter-weighted combinations of the quartic ladder words and the
    squared second moments, referenced against <R L> + 1/2.  Negative
    I3 (I4) means squeezing in the real (imaginary) part of the squared
    field amplitude.
    """
    low2 = expectation_ladder_word(v, "--")
    high2 = expectation_ladder_word(v, "++")
    low4 = expectation_ladder_word(v, "----")
    high4 = expectation_ladder_word(v, "++++")
    sym = expectation_ladder_word(v, "++--") + expectation_ladder_word(v, "--++")
    cross = expectation_ladder_word(v, "+-")
    shared = -2.0 * low2 * high2 + sym
    i3 = _real_part(
        0.25 * (low4 + high4 - low2**2 - high2**2 + shared) - cross - 0.5, "I3"
    )
    i4 = _real_part(
        0.25 * (-low4 - high4 + low2**2 + high2**2 + shared) - cross - 0.5, "I4"
    )
    return i3, i4


@dataclass(frozen=True)
class QuadReport:
    """Squeezing witnesses of one state on an (r, theta) grid cell."""

    r: float
    theta: float
    i1: float
    i2: float
    i3: float
    i4: float
    uncertainty_ok: bool


def squeezing_report(v: FockVector, r: float, theta: float) -> QuadReport:
    """Evaluate all four witnesses plus the uncertainty-product check."""
    i1, i2 = quadrature_identities(v)
    i3, i4 = amplitude_squared_identities(v)
    ok = (i1 + 1.0) * (i2 + 1.0) >= 1.0 - 1e-9
    return QuadReport(r=r, theta=theta, i1=i1, i2=i2, i3=i3, i4=i4, uncertainty_ok=ok)


def squeezing_grid(
    kind: str,
    r_values: Iterable[float],
    theta_values: Iterable[float],
    n_max: int = 70,
) -> list[QuadReport]:
    """Witness sweep over an (r, theta) grid, row-major in (r, theta).

    Every cell is independent and pure; the row-major ordering is the
    stable output contract relied on by the CSV emitters.
    """
    from .states import SqueezeParams, build_state

    reports = []
    for r in r_values:
        for theta in theta_values:
            state = build_state(SqueezeParams(kind=kind, r=r, theta=theta, n_max=n_max))
            reports.append(squeezing_report(state, r, theta))
    return reports
