"""Ladder-operator actions on the truncated space and identity checks.

The deformation function f(n) = sqrt((n-1)(n-3)) vanishes at n = 1 and
n = 3, which is what isolates level 0 and turns |3> into the effective
ground state.  Two operator pairs act on this ladder:

* deformed lowering/raising  -- the f-weighted ladder pair,
* Heisenberg lowering/raising -- the symmetrically rescaled pair that
                                satisfies [lower, raise] = 1 exactly,
                                acting on |3>, |4>, ... the way the
                                conventional pair acts on |0>, |1>, ...

plus the two one-sided rescalings (raising-only and lowering-only)
that generate the non-unitary squeezing routes.

Operators are implemented as basis-action rules (an index shift and a
per-level coefficient), never as dense matrices: application is O(dim)
and the coefficients are single square roots of exact integer products,
which keeps the identity checks at the 1e-11 level.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import BASE_LEVEL, FockVector, basis_vector

__all__ = [
    "deform_f",
    "apply_deformed_lowering",
    "apply_deformed_raising",
    "apply_heisenberg_lowering",
    "apply_heisenberg_raising",
    "apply_excitation_number",
    "apply_level_number",
    "apply_rescaled_raising",
    "apply_rescaled_lowering",
    "verify_commutators",
    "casimir_eigenvalue",
    "deformed_energy",
    "vibration_frequency",
]


def deform_f(n: int) -> float:
    """Deformation weight f(n) = sqrt((n-1)(n-3)); zero at n = 1 and 3."""
    prod = (n - 1.0) * (n - 3.0)
    if prod < 0.0:
        raise ValueError(f"f(n) is not real at n={n}; levels 1 < n < 3 are unphysical here")
    return math.sqrt(prod)


def _spectral_weight(n: int) -> float:
    """Eigenvalue of the lower*raise composite at level n: (n+1) f(n+1)^2."""
    return (n + 1.0) * n * (n - 2.0)


def _apply_diagonal(v: FockVector, coeff: np.ndarray) -> FockVector:
    return FockVector(v.amps * coeff, tail_bound=v.tail_bound)


def _apply_lowering(v: FockVector, coeff: np.ndarray) -> FockVector:
    # |n> -> coeff(n) |n-1>; the bottom coefficient is structurally zero
    # for every lowering operator here, so no mass leaves the window.
    out = np.zeros_like(v.amps)
    out[:-1] = v.amps[1:] * coeff[1:]
    return FockVector(out, tail_bound=v.tail_bound)


def _apply_raising(v: FockVector, coeff: np.ndarray) -> FockVector:
    # |n> -> coeff(n) |n+1>; the top level falls off the window and its
    # probability goes into the tail bound.
    out = np.zeros_like(v.amps)
    out[1:] = v.amps[:-1] * coeff[:-1]
    dropped = abs(v.amps[-1] * coeff[-1]) ** 2
    return FockVector(out, tail_bound=v.tail_bound + dropped)


def _levels(v: FockVector) -> np.ndarray:
    return v.levels.astype(float)


def apply_deformed_lowering(v: FockVector) -> FockVector:
    """|n> -> sqrt(n) f(n) |n-1>; annihilates |3> since f(3) = 0."""
    n = _levels(v)
    return _apply_lowering(v, np.sqrt(n * (n - 1.0) * (n - 3.0)))


def apply_deformed_raising(v: FockVector) -> FockVector:
    """|n> -> sqrt(n+1) f(n+1) |n+1>."""
    n = _levels(v)
    return _apply_raising(v, np.sqrt((n + 1.0) * n * (n - 2.0)))


def apply_heisenberg_lowering(v: FockVector) -> FockVector:
    """Rescaled ladder-down: |n> -> sqrt(n-3) |n-1>; annihilates |3>."""
    n = _levels(v)
    return _apply_lowering(v, np.sqrt(n - 3.0))


def apply_heisenberg_raising(v: FockVector) -> FockVector:
    """Rescaled ladder-up: |n> -> sqrt(n-2) |n+1>."""
    n = _levels(v)
    return _apply_raising(v, np.sqrt(n - 2.0))


def apply_excitation_number(v: FockVector) -> FockVector:
    """Counting operator of the rescaled pair: |n> -> (n-3) |n>."""
    return _apply_diagonal(v, _levels(v) - 3.0)


def apply_level_number(v: FockVector) -> FockVector:
    """Principal level number: |n> -> n |n>."""
    return _apply_diagonal(v, _levels(v))


def apply_rescaled_raising(v: FockVector) -> FockVector:
    """One-sided rescaled raising: |n> -> sqrt((n-2)/(n(n+1))) |n+1>.

    Partner of the deformed lowering in the first non-unitary squeezing
    route; [deformed_lowering, rescaled_raising] = 1 on the ladder.
    """
    n = _levels(v)
    return _apply_raising(v, np.sqrt((n - 2.0) / (n * (n + 1.0))))


def apply_rescaled_lowering(v: FockVector) -> FockVector:
    """One-sided rescaled lowering: |n> -> sqrt((n-3)/(n(n-1))) |n-1>."""
    n = _levels(v)
    return _apply_lowering(v, np.sqrt((n - 3.0) / (n * (n - 1.0))))


def _commutator(a, b, v: FockVector) -> np.ndarray:
    return a(b(v)).amps - b(a(v)).amps


def verify_commutators(n_low: int = BASE_LEVEL, n_high: int = 60) -> dict:
    """Evaluate every algebra identity on basis levels n_low..n_high.

    Both sides of each commutator are formed by operator application on
    a window wide enough that raising never reaches the truncation
    edge; deviations are reported, never raised.
    """
    if n_high < n_low + 2:
        raise ValueError("need n_high >= n_low + 2 for two-sided neighbours")

    Nm, Np = apply_deformed_lowering, apply_deformed_raising
    N0 = apply_level_number
    Rp, Rm = apply_rescaled_raising, apply_rescaled_lowering
    Km, Kp = apply_heisenberg_lowering, apply_heisenberg_raising
    K0 = apply_excitation_number

    def comp(outer, inner):
        return lambda v: outer(inner(v))

    checks = {
        # deformed algebra
        "[N+,N-] = 5 N0 - 3 N0^2": lambda v: _commutator(Np, Nm, v)
        - (5.0 * _levels(v) - 3.0 * _levels(v) ** 2) * v.amps,
        "[N0,N+] = +N+": lambda v: _commutator(N0, Np, v) - Np(v).amps,
        "[N0,N-] = -N-": lambda v: _commutator(N0, Nm, v) + Nm(v).amps,
        # raising-only rescaling
        "[N-,R+] = 1": lambda v: _commutator(Nm, Rp, v) - v.amps,
        "[R+N-,N-] = -N-": lambda v: _commutator(comp(Rp, Nm), Nm, v) + Nm(v).amps,
        "[R+N-,R+] = +R+": lambda v: _commutator(comp(Rp, Nm), Rp, v) - Rp(v).amps,
        # lowering-only rescaling
        "[R-,N+] = 1": lambda v: _commutator(Rm, Np, v) - v.amps,
        "[N+R-,R-] = -R-": lambda v: _commutator(comp(Np, Rm), Rm, v) + Rm(v).amps,
        "[N+R-,N+] = +N+": lambda v: _commutator(comp(Np, Rm), Np, v) - Np(v).amps,
        # symmetric rescaling (Heisenberg pair)
        "[K-,K+] = 1": lambda v: _commutator(Km, Kp, v) - v.amps,
        "[K0,K-] = -K-": lambda v: _commutator(K0, Km, v) + Km(v).amps,
        "[K0,K+] = +K+": lambda v: _commutator(K0, Kp, v) - Kp(v).amps,
    }

    # window: levels 3 .. n_high + 3 so double raisings stay interior
    size = n_high + 3 - BASE_LEVEL + 1
    deviations = {label: 0.0 for label in checks}
    for n in range(n_low, n_high + 1):
        v = basis_vector(n, size)
        for label, residual in checks.items():
            dev = float(np.max(np.abs(residual(v))))
            if dev > deviations[label]:
                deviations[label] = dev
    return {
        "levels": [n_low, n_high],
        "identities": deviations,
        "max_deviation": max(deviations.values()),
    }


def _casimir_shift(n: float) -> float:
    """h(n) = (5/2) n (n+1) - n (n+1) (n + 1/2)."""
    return 2.5 * n * (n + 1.0) - n * (n + 1.0) * (n + 0.5)


def casimir_eigenvalue(n: int) -> float:
    """<n| C |n> with C = (lower raise) + h(N0); vanishes identically.

    Also cross-checks the equivalent ordering (raise lower) + h(N0 - 1)
    and flags disagreement, which would indicate a broken coefficient
    table rather than a property of the state.
    """
    if n < BASE_LEVEL:
        raise ValueError(f"physical levels start at {BASE_LEVEL}")
    first = _spectral_weight(n) + _casimir_shift(n)
    second = n * (n - 1.0) * (n - 3.0) + _casimir_shift(n - 1.0)
    if abs(first - second) > 1e-9:
        raise ArithmeticError(f"Casimir orderings disagree at n={n}: {first} vs {second}")
    return first


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
