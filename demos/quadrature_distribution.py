"""Phase-parameterized quadrature distribution P(x, phi).

P(x, phi) is the probability density of the rotated quadrature at
phase phi.  It is one projection for either squeezing route,
P(x, phi) = |sum_nu c_nu e^{-i nu phi} u_nu(x)|^2, so it is
non-negative by construction.  This script checks its normalization
at a few phases for both routes and locates the two phase ridges of
the non-unitary-route state.  (The paper's cosine double sum, the
case-i expansion of the same projection, is the test oracle.)

Run:  python demos/quadrature_distribution.py
"""

import math

import numpy as np

from isosqueeze import SqueezeParams, build_state
from isosqueeze import dist

xs = np.linspace(-5.0, 5.0, 201)
phis = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
state = build_state(SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70))
grid = dist.quadrature_distribution(state, xs, phis)
print("non-unitary route, r = 10, theta = 0.5: smallest P =", f"{grid.min():.2e}")

# normalization in x at a few phases, both routes
fine = np.linspace(-8.0, 8.0, 1601)
unitary = build_state(SqueezeParams(kind="iii", r=0.4, theta=0.5, n_max=70))
for label, v in (("case i  ", state), ("case iii", unitary)):
    density = dist.quadrature_distribution(v, fine, np.array([0.0, math.pi / 2.0, math.pi]))
    print(f"  {label} integral of P(x, phi) dx at phi = 0, pi/2, pi:",
          ", ".join(f"{value:.9f}" for value in np.trapezoid(density, fine, axis=0)))

# ridge structure: height of the distribution vs phase
ridge = grid.max(axis=0)
top = np.argsort(ridge)[-2:]
print("\ntwo dominant ridges at phi =",
      ", ".join(f"{phis[i]:.3f}" for i in sorted(top)),
      f"(expected near {math.pi/2:.3f} and {3*math.pi/2:.3f})")

# phase information washes out at large |x|
outer = grid[np.abs(xs) > 3.0, :]
print("largest P beyond |x| = 3:", f"{outer.max():.4f}",
      "(sub-percent of the ridge peak", f"{grid.max():.4f})")

# a crude terminal heat map: rows are phi, columns x
print("\nP(x, phi) sketch (rows phi in [0, pi), columns x in [-4, 4]):")
shades = " .:-=+*#%@"
for i in range(0, 128, 8):
    row = grid[np.abs(xs) <= 4.0, i]
    line = "".join(shades[min(int(val / grid.max() * 9.99), 9)] for val in row[::4])
    print(f"  phi={phis[i]:5.2f} |{line}|")
