"""Squeezed-state construction on the truncated ladder.

Two squeezing routes produce normalizable states:

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
stays finite at any amplitude (checked out to r ~ 31 and beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import FockVector, InvalidParameter, trailing_mass
from .specfun import log_factorial

__all__ = [
    "CASE_NONLINEAR",
    "CASE_UNITARY",
    "SqueezeParams",
    "RadiusViolation",
    "DualSeriesReport",
    "build_nonlinear_squeezed",
    "build_squeezed",
    "build_state",
    "norm_constant",
    "dual_series_diagnosis",
]

CASE_NONLINEAR = "i"
CASE_UNITARY = "iii"

# Builders raise the truncation for strongly squeezed unitary states
# until the trailing retained probability drops below this.
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


def _assemble(params: SqueezeParams, log_terms_fn) -> FockVector:
    n_idx = np.arange(params.n_max + 1)
    log_mag = log_terms_fn(n_idx, params.r)
    amps = np.zeros(2 * params.n_max + 1, dtype=complex)
    amps[::2] = np.exp(log_mag + _log_norm(log_mag)) * np.exp(1j * params.theta * n_idx)
    return FockVector(amps, tail_bound=trailing_mass(FockVector(amps)))


def build_nonlinear_squeezed(params: SqueezeParams) -> FockVector:
    """Non-unitary-route squeezed state for beta = r e^{i theta}.

    Amplitudes follow c_{2n+3} ~ beta^n / (2^n n!) *
    sqrt((2n)! / ((2n+2)! (2n+3)!)); odd offsets are exactly zero and
    the result is normalized to unit 2-norm.
    """
    if params.kind != CASE_NONLINEAR:
        raise ValueError("build_nonlinear_squeezed expects kind 'i'")
    return _assemble(params, _log_terms_nonlinear)


def build_squeezed(params: SqueezeParams) -> FockVector:
    """Unitary-route squeezed state for xi = r e^{i theta}, |xi| < 1.

    Amplitudes follow c_{2n+3} ~ xi^n sqrt((2n)!) / (2^n n!), the
    squeezed-vacuum law with tanh(r_s) = |xi| shifted to base level 3.
    For |xi| > 0.7 the truncation is raised automatically until the
    trailing retained probability drops below 1e-10.
    """
    if params.kind != CASE_UNITARY:
        raise ValueError("build_squeezed expects kind 'iii'")
    p = params
    vec = _assemble(p, _log_terms_unitary)
    while p.r > 0.7 and trailing_mass(vec) >= _AUTO_TAIL_TARGET:
        if p.n_max >= _AUTO_N_MAX_CEILING:
            break
        p = replace(p, n_max=min(2 * p.n_max, _AUTO_N_MAX_CEILING))
        vec = _assemble(p, _log_terms_unitary)
    return vec


def build_state(params: SqueezeParams) -> FockVector:
    """Dispatch on the route kind."""
    if params.kind == CASE_NONLINEAR:
        return build_nonlinear_squeezed(params)
    return build_squeezed(params)


def norm_constant(params: SqueezeParams) -> float:
    """Normalization constant N of the closed-form expansion, exp(ln N)."""
    fn = _log_terms_nonlinear if params.kind == CASE_NONLINEAR else _log_terms_unitary
    return math.exp(_log_norm(fn(np.arange(params.n_max + 1), params.r)))


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
