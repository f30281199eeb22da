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
each level.  ``_IDENTITIES`` is the one table of laws the algebra must
obey: the twelve commutators, and the Casimir row ``CASIMIR``,
N- N+ = N0^3 - N0^2 - 2 N0, which is C = (lower raise) + h(N0) = 0 with
h(n) = n (n+1) (2-n).  ``verify_commutators`` evaluates every row in one
loop, as arrays over the levels, so each residue reads the coefficient
table and nothing else.  Operators are never dense matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fock import BASE_LEVEL, InvalidParameter

__all__ = [
    "CASIMIR",
    "word_action",
    "verify_commutators",
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


def _commutator(a, b, rhs):
    """The row [A, B] = rhs: left terms +AB and -BA."""
    return ((1.0, a + b), (-1.0, b + a)), rhs


CASIMIR = "N-N+ = N0^3 - N0^2 - 2 N0"  # the label of the Casimir row

# label -> (lhs, rhs): the sum of scale * word over the (scale, word) terms of lhs equals
# the same sum over rhs.  Words list operators in operator order, leftmost acting last.
_IDENTITIES = {
    # deformed algebra
    "[N+,N-] = 5 N0 - 3 N0^2": _commutator(("N+",), ("N-",), ((5.0, ("N0",)), (-3.0, ("N0", "N0")))),
    "[N0,N+] = +N+": _commutator(("N0",), ("N+",), ((1.0, ("N+",)),)),
    "[N0,N-] = -N-": _commutator(("N0",), ("N-",), ((-1.0, ("N-",)),)),
    # raising-only rescaling
    "[N-,R+] = 1": _commutator(("N-",), ("R+",), ((1.0, ()),)),
    "[R+N-,N-] = -N-": _commutator(("R+", "N-"), ("N-",), ((-1.0, ("N-",)),)),
    "[R+N-,R+] = +R+": _commutator(("R+", "N-"), ("R+",), ((1.0, ("R+",)),)),
    # lowering-only rescaling
    "[R-,N+] = 1": _commutator(("R-",), ("N+",), ((1.0, ()),)),
    "[N+R-,R-] = -R-": _commutator(("N+", "R-"), ("R-",), ((-1.0, ("R-",)),)),
    "[N+R-,N+] = +N+": _commutator(("N+", "R-"), ("N+",), ((1.0, ("N+",)),)),
    # symmetric rescaling (Heisenberg pair)
    "[K-,K+] = 1": _commutator(("K-",), ("K+",), ((1.0, ()),)),
    "[K0,K-] = -K-": _commutator(("K0",), ("K-",), ((-1.0, ("K-",)),)),
    "[K0,K+] = +K+": _commutator(("K0",), ("K+",), ((1.0, ("K+",)),)),
    # Casimir: (lower raise) + h(N0) = 0, h(n) = n (n+1) (2-n)
    CASIMIR: (((1.0, ("N-", "N+")),), ((1.0, ("N0", "N0", "N0")), (-1.0, ("N0", "N0")), (-2.0, ("N0",)))),
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
    residue on |n> is one number, (lhs - rhs) coefficient, and the
    residues of all levels form one array.  Deviations are reported,
    never raised.
    """
    if n_low < BASE_LEVEL:
        raise InvalidParameter(f"physical levels start at {BASE_LEVEL}, got n_low={n_low}")
    if n_high < n_low + 2:
        raise InvalidParameter("need n_high >= n_low + 2 for two-sided neighbours")
    n = np.arange(n_low, n_high + 1)
    deviations = {}
    for label, sides in _IDENTITIES.items():
        lhs, rhs = (sum(scale * word_action(word, n)[0] for scale, word in terms) for terms in sides)
        deviations[label] = float(np.max(np.abs(lhs - rhs)))
    return {
        "levels": [n_low, n_high],
        "identities": deviations,
        "max_deviation": max(deviations.values()),
    }
