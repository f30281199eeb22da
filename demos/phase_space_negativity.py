"""Phase-space quasi-probability family and its negativity.

The s-parameterized family interpolates between the Husimi function
(s = -1, always non-negative) and increasingly singular orderings as
s -> 1; s = 0 is the Wigner function.  Negative patches at s <= 0.5
witness non-classicality.  This script evaluates the closed-form
Laguerre double sum for the non-unitary-route state with amplitude
2 + 2i, cross-checks a few points against the brute-force Fourier
transform of the characteristic function, and maps where the s = 0.5
function dips negative.

Run:  python demos/phase_space_negativity.py
"""

import math

import numpy as np

from isosqueeze import FockVector, SqueezeParams, build_state
from isosqueeze import dist

# --- reference values on the effective vacuum -------------------------------
vacuum = FockVector([1, 0, 0])  # |3> on levels 3, 4, 5
print("effective vacuum at the origin:")
print("  Wigner  F(0, s=0)  =", dist.quasi_probability(vacuum, 0j, 0.0), "( 2/pi =", 2 / math.pi, ")")
print("  Husimi  F(0, s=-1) =", dist.quasi_probability(vacuum, 0j, -1.0), "( 1/pi =", 1 / math.pi, ")")

# --- closed form vs Fourier oracle on a small-truncation state --------------
small = build_state(SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0), theta=math.pi / 4.0, n_max=6))
print("\nclosed form vs numerical Fourier transform (n_max = 6):")
for s in (-1.0, 0.0, 0.5):
    z = 0.5 - 1.0j
    closed = dist.quasi_probability(small, z, s)
    oracle = dist.quasi_probability_fourier(small, z, s)
    print(f"  s={s:+.1f}  closed {closed:+.9f}   oracle {oracle:+.9f}   diff {abs(closed-oracle):.1e}")

# --- negativity map at s = 0.5 ----------------------------------------------
state = build_state(SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0), theta=math.pi / 4.0, n_max=70))
axis = np.linspace(-4.0, 4.0, 81)
grid = dist.quasi_probability_grid(state, axis, axis, 0.5)
husimi = dist.quasi_probability_grid(state, axis, axis, -1.0)

print("\namplitude 2 + 2i state:")
print("  s = 0.5 range:", f"[{grid.values.min():+.4f}, {grid.values.max():+.4f}]",
      " negative cells:", int((grid.values < 0).sum()))
print("  Husimi minimum:", f"{husimi.values.min():+.2e}", "(never negative)")

print("\nsign map of F(x, p, s=0.5)  ('-' negative, '+' positive, rows p, columns x):")
for j in range(80, -1, -8):
    line = "".join("-" if grid.values[i, j] < -1e-6 else "+" for i in range(0, 81, 2))
    print(f"  p={axis[j]:+4.1f} |{line}|")

# Wigner normalization as a sanity check on the grid resolution
step = axis[1] - axis[0]
wigner = dist.quasi_probability_grid(state, axis, axis, 0.0)
print("\nWigner mass on the grid:", wigner.values.sum() * step * step)
