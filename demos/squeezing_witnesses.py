"""Quadrature and squared-amplitude squeezing witnesses.

Sweeps the four witnesses I1..I4 over the squeeze phase at fixed
modulus.  A negative I1 (I2) means the x (p) quadrature variance is
below the vacuum value; I3/I4 are the analogous witnesses for the real
and imaginary parts of the squared field amplitude.  The phase sweep
shows the two structural facts the states obey:

  * I1 and I2 oscillate out of phase by pi:   I1(theta + pi) = I2(theta)
  * I3 and I4 alternate a quarter period off: I3(theta + pi/2) = I4(theta)

so squeezing appears in both directions, at different phases.

Run:  python demos/squeezing_witnesses.py
"""

import math

import numpy as np

from isosqueeze import SqueezeParams, build_state
from isosqueeze import squeezing

# --- phase sweep at fixed modulus, non-unitary route ------------------------
thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
reports = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)

print("non-unitary route, r = 5:")
print(f"  {'theta':>7} {'I1':>10} {'I2':>10} {'I3':>10} {'I4':>10}  uncertainty ok")
for rep in reports:
    print(f"  {rep.theta:7.3f} {rep.i1:+10.5f} {rep.i2:+10.5f} "
          f"{rep.i3:+10.6f} {rep.i4:+10.6f}  {rep.uncertainty_ok}")

i1 = np.array([rep.i1 for rep in reports])
i2 = np.array([rep.i2 for rep in reports])
i3 = np.array([rep.i3 for rep in reports])
i4 = np.array([rep.i4 for rep in reports])
print("\nmax |I1(theta+pi) - I2(theta)| :", np.max(np.abs(np.roll(i1, -8) - i2)))
print("max |I3(theta+pi/2) - I4(theta)|:", np.max(np.abs(np.roll(i3, -4) - i4)))

# --- unitary route: closed forms at real xi ---------------------------------
print("\nunitary route at real xi (I1 = 2 xi/(1-xi), I2 = -2 xi/(1+xi)):")
for xi in (0.2, 0.4, 0.6):
    v = build_state(SqueezeParams(kind="iii", r=xi, n_max=200))
    rep = squeezing.squeezing_report(v, xi, 0.0)
    got1, got2 = rep.i1, rep.i2
    print(f"  xi={xi}:  I1 {got1:+.6f} (closed {2*xi/(1-xi):+.6f})   "
          f"I2 {got2:+.6f} (closed {-2*xi/(1+xi):+.6f})")

# The Heisenberg floor (I1+1)(I2+1) >= 1 is saturated by the unitary route:
v = build_state(SqueezeParams(kind="iii", r=0.4, n_max=200))
rep = squeezing.squeezing_report(v, 0.4, 0.0)
one, two = rep.i1, rep.i2
print("\nuncertainty product (I1+1)(I2+1) for xi = 0.4:", (one + 1.0) * (two + 1.0))
