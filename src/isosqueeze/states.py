"""Squeezed-state construction on the truncated ladder.

``build_state`` is the one route from ``SqueezeParams`` to a state;
``kind`` picks the amplitude law from ``_LOG_TERMS``:

* the non-unitary route ("case i"), driven by the one-sided rescaled
  raising operator together with the deformed lowering operator, whose
  closed-form expansion over |2n+3> carries the factorial suppression
  sqrt((2n)! / ((2n+2)! (2n+3)!)) and converges for every complex
  amplitude beta;

* the unitary route ("case iii"), driven by the symmetric Heisenberg
  pair, which reproduces the textbook squeezed vacuum shifted up to
  base level 3 and requires |xi| < 1.

The mirror-image non-unitary route ("case ii") has a normalization
series whose term ratio diverges; ``dual_series_diagnosis`` quantifies
that, which is why no builder exists for it.

States are built directly from the closed-form expansions.  The
non-unitary squeezing operator is never exponentiated: its matrix is
non-normal and exponentiation is numerically fragile, while the
expansion is exact.  All factorial ratios go through log space and the
largest log-term is subtracted before exponentiation, so construction
stays finite at any amplitude (checked against 50 digits to r = 1e3).
This module alone holds the truncation policy (see ``build_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import FockVector, InvalidParameter
from .specfun import log_factorial

__all__ = [
    "CASE_NONLINEAR",
    "CASE_UNITARY",
    "SqueezeParams",
    "RadiusViolation",
    "DualSeriesReport",
    "build_state",
    "norm_constant",
    "dual_series_diagnosis",
]

CASE_NONLINEAR = "i"
CASE_UNITARY = "iii"

# tail_bound is the probability on the top TAIL_WINDOW retained levels,
# a proxy for the discarded mass; build_state grows strongly squeezed
# unitary states until it drops below _AUTO_TAIL_TARGET.
TAIL_WINDOW = 5
_AUTO_TAIL_TARGET = 1e-10
_AUTO_N_MAX_CEILING = 20000


class RadiusViolation(InvalidParameter):
    """Unitary-route modulus at or beyond the convergence radius 1."""


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing parameters: modulus, phase and truncation depth.

    ``kind`` selects the route ("i" non-unitary, "iii" unitary); the
    complex squeeze amplitude is r e^{i theta}.  ``n_max`` is the
    half-index truncation: retained levels run 3 .. 2 n_max + 3.
    """

    kind: str
    r: float
    theta: float = 0.0
    n_max: int = 70

    def __post_init__(self) -> None:
        if self.kind not in (CASE_NONLINEAR, CASE_UNITARY):
            raise InvalidParameter(f"kind must be '{CASE_NONLINEAR}' or '{CASE_UNITARY}', got {self.kind!r}")
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise InvalidParameter(f"r and theta must be finite, got r={self.r}, theta={self.theta}")
        if self.r < 0.0:
            raise InvalidParameter("modulus r must be non-negative")
        if self.n_max < 1:
            raise InvalidParameter("n_max must be at least 1")
        if self.kind == CASE_UNITARY and self.r >= 1.0:
            raise RadiusViolation(
                f"unitary-route squeezing requires |xi| < 1, got {self.r}"
            )

    @property
    def amplitude(self) -> complex:
        """The complex squeeze amplitude r e^{i theta}."""
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


def _log_modulus_power(n_idx: np.ndarray, r: float) -> np.ndarray:
    """ln r^n with the r = 0 limit resolved to the n = 0 term only."""
    if r == 0.0:
        return np.where(n_idx == 0, 0.0, -np.inf)
    return n_idx * math.log(r)


def _log_terms_nonlinear(n_idx: np.ndarray, r: float) -> np.ndarray:
    """ln of the unnormalized |2n+3> amplitude magnitude, case i."""
    lf = log_factorial
    return (
        _log_modulus_power(n_idx, r)
        - n_idx * math.log(2.0)
        - lf(n_idx)
        + 0.5 * (lf(2 * n_idx) - lf(2 * n_idx + 2) - lf(2 * n_idx + 3))
    )


def _log_terms_unitary(n_idx: np.ndarray, r: float) -> np.ndarray:
    """ln of the unnormalized |2n+3> amplitude magnitude, case iii."""
    lf = log_factorial
    return _log_modulus_power(n_idx, r) - n_idx * math.log(2.0) - lf(n_idx) + 0.5 * lf(2 * n_idx)


def _log_norm(log_mag: np.ndarray) -> float:
    """ln N = -1/2 ln sum_n e^{2 ln|c_n|} of unnormalized log-magnitudes.

    Largest term first, then a compensated sum: N stays finite where
    the raw terms would overflow.
    """
    log_sq = 2.0 * log_mag
    peak = log_sq.max()
    return -0.5 * (peak + math.log(math.fsum(np.exp(log_sq - peak))))


_LOG_TERMS = {CASE_NONLINEAR: _log_terms_nonlinear, CASE_UNITARY: _log_terms_unitary}


def _assemble(params: SqueezeParams) -> FockVector:
    """The state at exactly ``params.n_max``, with its tail proxy."""
    n_idx = np.arange(params.n_max + 1)
    log_mag = _LOG_TERMS[params.kind](n_idx, params.r)
    amps = np.zeros(2 * params.n_max + 1, dtype=complex)
    amps[::2] = np.exp(log_mag + _log_norm(log_mag)) * np.exp(1j * params.theta * n_idx)
    # the base level never counts, so a barely truncated state reports ~0
    tail = float(np.sum(np.abs(amps[max(1, amps.size - TAIL_WINDOW):]) ** 2))
    return FockVector(amps, tail_bound=tail)


def build_state(params: SqueezeParams) -> FockVector:
    """Normalized squeezed state of route ``params.kind``; odd offsets are 0.

    Case i: c_{2n+3} ~ beta^n / (2^n n!) sqrt((2n)! / ((2n+2)! (2n+3)!)).
    Case iii: c_{2n+3} ~ xi^n sqrt((2n)!) / (2^n n!).  For case iii with
    |xi| > 0.7, n_max doubles until the tail proxy is below 1e-10 or
    n_max reaches 20000.
    """
    p = params
    vec = _assemble(p)
    while (p.kind == CASE_UNITARY and p.r > 0.7 and vec.tail_bound >= _AUTO_TAIL_TARGET
           and p.n_max < _AUTO_N_MAX_CEILING):
        p = replace(p, n_max=min(2 * p.n_max, _AUTO_N_MAX_CEILING))
        vec = _assemble(p)
    return vec


def norm_constant(params: SqueezeParams) -> float:
    """Normalization constant N of the closed-form expansion, exp(ln N)."""
    return math.exp(_log_norm(_LOG_TERMS[params.kind](np.arange(params.n_max + 1), params.r)))


@dataclass(frozen=True)
class DualSeriesReport:
    """Ratio-test data for the mirror-route normalization series."""

    x_seq: np.ndarray
    limit_estimate: float
    verdict: str


def dual_series_diagnosis(n_terms: int) -> DualSeriesReport:
    """Ratio-test diagnostic ruling out the mirror non-unitary route.

    The mirror-route normalization series has the generalized-factorial
    form sum 12 |beta|^{2n} / (x_n x_{n-1} ... x_1) with
    x_n = 2n / ((2n-1)(2n+1)(2n+2)^2(2n+3)).  Convergence would require
    |beta| below the limit of x_n, but x_n -> 0, so the series diverges
    for every nonzero amplitude and the mirror states do not exist.
    """
    if n_terms < 2:
        raise InvalidParameter("need at least 2 terms for a limit estimate")
    n = np.arange(1, n_terms + 1, dtype=float)
    x_seq = 2.0 * n / ((2 * n - 1.0) * (2 * n + 1.0) * (2 * n + 2.0) ** 2 * (2 * n + 3.0))
    limit_estimate = float(x_seq[-1])
    monotone = bool(np.all(np.diff(x_seq) < 0.0))
    verdict = "divergent" if (limit_estimate < 1e-6 and monotone) else "convergent"
    return DualSeriesReport(x_seq=x_seq, limit_estimate=limit_estimate, verdict=verdict)
