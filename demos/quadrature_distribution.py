"""Phase-parameterized quadrature distribution P(x, phi).

P(x, phi) is the probability density of the rotated quadrature at
phase phi.  For the non-unitary-route state it has an explicit cosine
double-sum closed form; this script evaluates it, cross-checks it
against the squared projection onto the quadrature eigenstates, and
locates the two phase ridges the distribution develops.

Run:  python demos/quadrature_distribution.py
"""

import math

import numpy as np

from isosqueeze import SqueezeParams, build_state
from isosqueeze import dist

params = SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
xs = np.linspace(-5.0, 5.0, 201)
phis = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)

state = build_state(params)
closed = dist.quadrature_distribution_closed(params, state, xs, phis)
direct = dist.quadrature_distribution(state, xs, phis)
print("pointwise agreement of the two routes:",
      f"{np.max(np.abs(closed.values - direct.values)):.2e}")

# normalization in x at a few phases
for phi in (0.0, math.pi / 2.0, math.pi):
    fine = np.linspace(-8.0, 8.0, 1601)
    density = np.abs(dist.quadrature_wavefunction(state, fine, phi)) ** 2
    print(f"  integral of P(x, {phi:4.2f}) dx = {np.trapezoid(density, fine):.9f}")

# ridge structure: height of the distribution vs phase
ridge = closed.values.max(axis=0)
top = np.argsort(ridge)[-2:]
print("\ntwo dominant ridges at phi =",
      ", ".join(f"{phis[i]:.3f}" for i in sorted(top)),
      f"(expected near {math.pi/2:.3f} and {3*math.pi/2:.3f})")

# phase information washes out at large |x|
outer = closed.values[np.abs(xs) > 3.0, :]
print("largest P beyond |x| = 3:", f"{outer.max():.4f}",
      "(sub-percent of the ridge peak", f"{closed.values.max():.4f})")

# a crude terminal heat map: rows are phi, columns x
print("\nP(x, phi) sketch (rows phi in [0, pi), columns x in [-4, 4]):")
shades = " .:-=+*#%@"
for i in range(0, 128, 8):
    row = closed.values[np.abs(xs) <= 4.0, i]
    line = "".join(shades[min(int(val / closed.values.max() * 9.99), 9)] for val in row[::4])
    print(f"  phi={phis[i]:5.2f} |{line}|")
