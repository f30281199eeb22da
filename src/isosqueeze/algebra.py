"""Ladder operators of the deformed ladder as one coefficient table.

The deformation function f(n) = sqrt((n-1)(n-3)) vanishes at n = 1 and
n = 3, which is what isolates level 0 and turns |3> into the effective
ground state.  Three operator pairs act on this ladder: the deformed,
f-weighted pair N-, N+ (with N0); the one-sided rescalings R+ (raising
only) and R- (lowering only) behind the non-unitary squeezing routes;
and the symmetric rescaling K-, K+ (with K0), which satisfies
[K-, K+] = 1 exactly and acts on |3>, |4>, ... the way the
conventional pair acts on |0>, |1>, ...

``_OPERATORS`` is the only place that knows what an operator does: each
entry is an index shift and a coefficient law c(n), so that
op|n> = c(n) |n + shift>.  Every coefficient is a single square root of
an exact integer product, which keeps the identity checks at the 1e-11
level.  ``word_action`` gives the coefficient of an operator word on
each level, and ``verify_commutators`` evaluates the identity table
``_IDENTITIES`` as arrays over the levels.  Operators are never dense
matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fock import BASE_LEVEL, InvalidParameter

__all__ = [
    "word_action",
    "verify_commutators",
    "casimir_eigenvalue",
]

# name -> (index shift, coefficient law c(n) on float levels n >= 3).
# Every lowering law vanishes at the bottom level |3>.
_OPERATORS = {
    "N-": (-1, lambda n: np.sqrt(n * (n - 1.0) * (n - 3.0))),  # sqrt(n) f(n)
    "N+": (+1, lambda n: np.sqrt((n + 1.0) * n * (n - 2.0))),  # sqrt(n+1) f(n+1)
    "N0": (0, lambda n: n),
    "K-": (-1, lambda n: np.sqrt(n - 3.0)),
    "K+": (+1, lambda n: np.sqrt(n - 2.0)),
    "K0": (0, lambda n: n - 3.0),
    "R+": (+1, lambda n: np.sqrt((n - 2.0) / (n * (n + 1.0)))),
    "R-": (-1, lambda n: np.sqrt((n - 3.0) / (n * (n - 1.0)))),
}

# label -> (A, B, rhs): [A, B] = sum of scale * word over the (scale, word)
# terms of rhs.  Words list operators in operator order, leftmost acting last.
_IDENTITIES = {
    # deformed algebra
    "[N+,N-] = 5 N0 - 3 N0^2": (("N+",), ("N-",), ((5.0, ("N0",)), (-3.0, ("N0", "N0")))),
    "[N0,N+] = +N+": (("N0",), ("N+",), ((1.0, ("N+",)),)),
    "[N0,N-] = -N-": (("N0",), ("N-",), ((-1.0, ("N-",)),)),
    # raising-only rescaling
    "[N-,R+] = 1": (("N-",), ("R+",), ((1.0, ()),)),
    "[R+N-,N-] = -N-": (("R+", "N-"), ("N-",), ((-1.0, ("N-",)),)),
    "[R+N-,R+] = +R+": (("R+", "N-"), ("R+",), ((1.0, ("R+",)),)),
    # lowering-only rescaling
    "[R-,N+] = 1": (("R-",), ("N+",), ((1.0, ()),)),
    "[N+R-,R-] = -R-": (("N+", "R-"), ("R-",), ((-1.0, ("R-",)),)),
    "[N+R-,N+] = +N+": (("N+", "R-"), ("N+",), ((1.0, ("N+",)),)),
    # symmetric rescaling (Heisenberg pair)
    "[K-,K+] = 1": (("K-",), ("K+",), ((1.0, ()),)),
    "[K0,K-] = -K-": (("K0",), ("K-",), ((-1.0, ("K-",)),)),
    "[K0,K+] = +K+": (("K0",), ("K+",), ((1.0, ("K+",)),)),
}


def word_action(ops: Sequence[str], n) -> tuple[np.ndarray, int]:
    """(coeff, shift) with word |n> = coeff(n) |n + shift> for levels ``n``.

    ``ops`` lists operator names of ``_OPERATORS`` in operator order,
    leftmost acting last; the empty word is the identity.  Walking the
    word right to left, levels below 3 are clamped to 3: a word can only
    pass below the bottom through a lowering from |3>, whose coefficient
    is zero, so the clamp only ever multiplies zeros.
    """
    level = np.asarray(n, dtype=float)
    coeff = np.ones(level.shape)
    shift = 0
    for op in reversed(ops):
        step, law = _OPERATORS[op]
        at = level + shift if shift >= 0 else np.maximum(level + shift, BASE_LEVEL)
        coeff *= law(at)
        shift += step
    return coeff, shift


def verify_commutators(n_low: int = BASE_LEVEL, n_high: int = 60) -> dict:
    """Evaluate every identity of ``_IDENTITIES`` on basis levels n_low..n_high.

    Each term of an identity maps |n> onto the same level, so its
    residue on |n> is one number, (AB - BA - rhs) coefficient, and the
    residues of all levels form one array.  Deviations are reported,
    never raised.
    """
    if n_low < BASE_LEVEL:
        raise InvalidParameter(f"physical levels start at {BASE_LEVEL}, got n_low={n_low}")
    if n_high < n_low + 2:
        raise InvalidParameter("need n_high >= n_low + 2 for two-sided neighbours")
    n = np.arange(n_low, n_high + 1)
    deviations = {}
    for label, (a, b, rhs) in _IDENTITIES.items():
        commutator = word_action(a + b, n)[0] - word_action(b + a, n)[0]
        expected = sum(scale * word_action(word, n)[0] for scale, word in rhs)
        deviations[label] = float(np.max(np.abs(commutator - expected)))
    return {
        "levels": [n_low, n_high],
        "identities": deviations,
        "max_deviation": max(deviations.values()),
    }


def _casimir_shift(n: int) -> int:
    """h(n) = (5/2) n (n+1) - n (n+1) (n + 1/2) = n (n+1) (2-n), an integer."""
    return n * (n + 1) * (2 - n)


def casimir_eigenvalue(n: int) -> float:
    """<n| C |n> with C = (lower raise) + h(N0); vanishes identically.

    Also cross-checks the equivalent ordering (raise lower) + h(N0 - 1)
    and flags disagreement, which would indicate a broken coefficient
    table rather than a property of the state.  Both are integers and
    are evaluated exactly; as floats they disagree from n = 330283 on.
    """
    if n < BASE_LEVEL:
        raise ValueError(f"physical levels start at {BASE_LEVEL}")
    first = (n + 1) * n * (n - 2) + _casimir_shift(n)  # (n+1) f(n+1)^2 + h(n)
    second = n * (n - 1) * (n - 3) + _casimir_shift(n - 1)
    if first != second:
        raise ArithmeticError(f"Casimir orderings disagree at n={n}: {first} vs {second}")
    return float(first)
