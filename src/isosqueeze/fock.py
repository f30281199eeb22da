"""Truncated Fock-space state vectors.

The physical Hilbert space here excludes levels 0, 1 and 2: the level-0
state is dynamically isolated and levels 1-2 are absent from the
spectrum, so every vector lives on the ladder |3>, |4>, |5>, ...  A
``FockVector`` stores complex amplitudes for a contiguous run of levels
starting at 3, together with the tail diagnostic ``states`` recorded.

Vectors are immutable after construction and freely shareable between
workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASE_LEVEL",
    "FockVector",
    "InvalidParameter",
]

BASE_LEVEL = 3


class InvalidParameter(ValueError):
    """A caller-supplied parameter outside the domain of a computation.

    Raised by the parameter checks of the builders and diagnostics; the
    CLI reports it as a refusal (exit 3), unlike a ValueError raised
    inside a computation.
    """


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes on levels 3, 4, 5, ...

    ``tail_bound`` is a proxy for the probability mass the truncation
    discarded: ``states.build_state`` copies it from the ``build_sweep``
    row of the state (the mass on the top retained levels, not a true
    bound).
    """

    amps: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be non-negative")
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amps must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amps must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def levels(self) -> np.ndarray:
        """Fock levels carried by this vector."""
        return np.arange(BASE_LEVEL, BASE_LEVEL + self.amps.size)

    @property
    def n_max_effective(self) -> int:
        """Half-index truncation (len - 1) // 2: the n_max a builder ended with."""
        return (self.amps.size - 1) // 2
