"""A fixed reference computation that measures the host's current speed.

On a shared host the same pass can run up to 1.9 times slower for
stretches of seconds to minutes, because of load from other tenants;
CPU time grows with wall time, so it is not descheduling and no
statistic of the pass times alone removes it.  ``run.py`` times this
computation before every pass and divides each pass time by the mean
of the reference times just before and just after it.  The ratio keeps
what the package does and drops most of what the host does: a change
to the package moves the pass time and not the reference.

The reference never calls the package.  It mixes, in about equal
parts, the kinds of work the package spends its time on: scalar Python
arithmetic, numpy calls on small arrays inside a Python loop, numpy
calls on arrays of a few hundred KiB, and float formatting.
"""

from __future__ import annotations

import math
import time

import numpy as np

_SCALAR_STEPS = 30_000
_SMALL = np.linspace(0.1, 2.5, 64) * np.exp(1j * np.linspace(0.0, 6.0, 64))
_SMALL_STEPS = 400
_LARGE = np.linspace(0.1, 2.5, 16_384) * np.exp(1j * np.linspace(0.0, 6.0, 16_384))
_LARGE_STEPS = 4
_FORMATTED = np.linspace(0.5, 1.5, 3_000)


def reference_seconds() -> float:
    """Wall time of one run of the reference computation (about 10 ms on a 2-core x86-64 host)."""
    start = time.perf_counter()
    scalar = 0.0
    for i in range(_SCALAR_STEPS):
        scalar += math.sqrt(i + 0.5)
    small = np.zeros_like(_SMALL)
    for k in range(_SMALL_STEPS):
        small += np.exp(-0.5 * np.abs(_SMALL) ** 2) * _SMALL ** (k % 7)
    large = np.zeros_like(_LARGE)
    for _ in range(_LARGE_STEPS):
        large += np.exp(0.3 * np.conj(_LARGE) - 0.2 * _LARGE) * _LARGE
    ",".join(f"{v:.12g}" for v in _FORMATTED)
    return time.perf_counter() - start
