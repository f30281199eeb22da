"""Squeezed-state construction on the truncated ladder.

``build_sweep`` is the one route from moduli to states (``build_state``
is its one-row case); ``kind`` picks the amplitude law:

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
expansion is exact.  As ln|c_n|(r) = n ln r + g(n), each truncation
rung of a sweep is one (moduli x levels) outer sum.  Factorial ratios
go through log space and each row's largest log-term is subtracted
before exponentiation, so construction stays finite at any amplitude
(checked against 50 digits to r = 1e3).  This module alone holds the
truncation policy (see ``build_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, InvalidParameter
from .specfun import log_factorial

__all__ = [
    "CASE_NONLINEAR",
    "CASE_UNITARY",
    "SqueezeParams",
    "RadiusViolation",
    "DualSeriesReport",
    "SweepRung",
    "build_sweep",
    "build_state",
    "dual_series_diagnosis",
]

CASE_NONLINEAR = "i"
CASE_UNITARY = "iii"

# tail_bound is the probability on the top TAIL_WINDOW retained levels,
# a proxy for the discarded mass; build_sweep grows strongly squeezed
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


# h(n), the part of ln|c_n| that depends on the kind (see ``build_sweep``)
_KIND_LOG_TERM = {
    CASE_NONLINEAR: lambda n: 0.5 * (log_factorial(2 * n) - log_factorial(2 * n + 2)
                                     - log_factorial(2 * n + 3)),
    CASE_UNITARY: lambda n: 0.5 * log_factorial(2 * n),
}


def _log_terms(kind: str, r: np.ndarray, n_idx: np.ndarray) -> np.ndarray:
    """Unnormalized ln|c_n| = n ln r - n ln 2 - ln n! + h(n), one row per modulus.

    The n-only terms are evaluated once for all rows; r = 0 keeps n = 0 only.
    """
    log_r = [math.log(x) if x > 0.0 else -math.inf for x in r]
    power = np.zeros((len(r), n_idx.size))
    np.multiply.outer(log_r, n_idx[1:], out=power[:, 1:])
    return power - n_idx * math.log(2.0) - log_factorial(n_idx) + _KIND_LOG_TERM[kind](n_idx)


def _log_norm(log_mag: np.ndarray) -> np.ndarray:
    """ln N = -1/2 ln sum_n e^{2 ln|c_n|} per row of unnormalized log-magnitudes.

    The largest term is factored out, so N stays finite where the raw
    terms would overflow.
    """
    log_sq = 2.0 * log_mag
    peak = log_sq.max(axis=1)
    return -0.5 * (peak + np.log(np.exp(log_sq - peak[:, None]).sum(axis=1)))


def _assemble(kind: str, r: np.ndarray, theta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of |2n+3>, n = 0..n_max, one row per modulus, and each row's tail proxy."""
    n_idx = np.arange(n_max + 1)
    log_mag = _log_terms(kind, r, n_idx)
    amps = np.exp(log_mag + _log_norm(log_mag)[:, None]) * np.exp(1j * theta * n_idx)
    # the top TAIL_WINDOW offsets 2 n_max + 1 - TAIL_WINDOW .. 2 n_max hold these
    # half indices; the base level never counts, so a barely truncated state reports ~0
    low = max(1, (2 * n_max + 2 - TAIL_WINDOW) // 2)
    return amps, np.sum(np.abs(amps[:, low:]) ** 2, axis=1)


@dataclass(frozen=True)
class SweepRung:
    """Sweep states that end at ``n_max``: row k is ``moduli[rows[k]]``, ``amps[k, n]`` on |2n+3>."""

    rows: np.ndarray
    n_max: int
    amps: np.ndarray
    tail_bound: np.ndarray


def build_sweep(kind: str, moduli, theta: float = 0.0, n_max: int = 70) -> list[SweepRung]:
    """Normalized squeezed states of route ``kind`` at each modulus, grouped by truncation.

    Case i: c_{2n+3} ~ beta^n / (2^n n!) sqrt((2n)! / ((2n+2)! (2n+3)!)).
    Case iii: c_{2n+3} ~ xi^n sqrt((2n)!) / (2^n n!).  Each rung forms all
    its rows as one outer sum.  Case-iii rows with |xi| > 0.7 whose tail
    proxy is at least 1e-10 move on to the next rung, 2 n_max, until
    n_max reaches 20000; the rungs come in increasing n_max.
    """
    r = np.array(moduli, dtype=float)
    if r.size:  # each modulus passes a single state's checks; the first that fails raises as its state
        bad = ~np.isfinite(r) | (r < 0.0) | ((kind == CASE_UNITARY) & (r >= 1.0))
        for k in (0, bad.argmax()):  # row 0 also carries the checks of kind, theta and n_max
            SqueezeParams(kind, float(r[k]), theta, n_max)
    rows = np.arange(r.size)
    rungs = []
    while rows.size:
        amps, tail = _assemble(kind, r[rows], theta, n_max)
        grow = ((kind == CASE_UNITARY) & (r[rows] > 0.7) & (tail >= _AUTO_TAIL_TARGET)
                & (n_max < _AUTO_N_MAX_CEILING))
        if not grow.all():
            rungs.append(SweepRung(rows[~grow], n_max, amps[~grow], tail[~grow]))
        rows, n_max = rows[grow], min(2 * n_max, _AUTO_N_MAX_CEILING)
    return rungs


def build_state(params: SqueezeParams) -> FockVector:
    """The state of ``params``: the one-row case of ``build_sweep``."""
    (rung,) = build_sweep(params.kind, [params.r], params.theta, params.n_max)
    amps = np.zeros(2 * rung.n_max + 1, dtype=complex)
    amps[::2] = rung.amps[0]
    return FockVector(amps, tail_bound=float(rung.tail_bound[0]))


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
