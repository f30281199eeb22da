"""Quadrature and squared-amplitude squeezing witnesses.

Sweeps the four witnesses I1..I4 over the squeeze phase at fixed
modulus.  A negative I1 (I2) means the x (p) quadrature variance is
below the vacuum value; I3/I4 are the analogous witnesses for the real
and imaginary parts of the squared field amplitude.  The phase sweep
shows the two structural facts the states obey:

  * I1 and I2 oscillate out of phase by pi:   I1(theta + pi) = I2(theta)
  * I3 and I4 alternate a quarter period off: I3(theta + pi/2) = I4(theta)

so squeezing appears in both directions, at different phases.
``squeezing_grid`` returns each witness as a (moduli x thetas) array.

Run:  python demos/squeezing_witnesses.py
"""

import math

import numpy as np

from isosqueeze import squeezing

# --- phase sweep at fixed modulus, non-unitary route ------------------------
thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
grid = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
i1, i2, i3, i4 = grid.i1[0], grid.i2[0], grid.i3[0], grid.i4[0]

print("non-unitary route, r = 5:")
print(f"  {'theta':>7} {'I1':>10} {'I2':>10} {'I3':>10} {'I4':>10}  uncertainty ok")
for row in zip(thetas, i1, i2, i3, i4, grid.uncertainty_ok[0]):
    print("  {:7.3f} {:+10.5f} {:+10.5f} {:+10.6f} {:+10.6f}  {}".format(*row))

print("\nmax |I1(theta+pi) - I2(theta)| :", np.max(np.abs(np.roll(i1, -8) - i2)))
print("max |I3(theta+pi/2) - I4(theta)|:", np.max(np.abs(np.roll(i3, -4) - i4)))

# --- unitary route: closed forms at real xi ---------------------------------
print("\nunitary route at real xi (I1 = 2 xi/(1-xi), I2 = -2 xi/(1+xi)):")
moduli = [0.2, 0.4, 0.6]
unitary = squeezing.squeezing_grid("iii", moduli, [0.0], n_max=200)
for xi, got1, got2 in zip(moduli, unitary.i1[:, 0], unitary.i2[:, 0]):
    print(f"  xi={xi}:  I1 {got1:+.6f} (closed {2*xi/(1-xi):+.6f})   "
          f"I2 {got2:+.6f} (closed {-2*xi/(1+xi):+.6f})")

# The Heisenberg floor (I1+1)(I2+1) >= 1 is saturated by the unitary route:
one, two = unitary.i1[1, 0], unitary.i2[1, 0]
print("\nuncertainty product (I1+1)(I2+1) for xi = 0.4:", (one + 1.0) * (two + 1.0))
