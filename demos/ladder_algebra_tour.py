"""Tour of the deformed ladder algebra on the truncated level space.

The level ladder is 3, 4, 5, ...: the spectrum has no levels 1 or 2,
and level 0 is dynamically isolated, so |3> plays the role of the
ground state.  This script walks through the three operator families,
checks every identity of the algebra's table numerically (the twelve
commutators and the Casimir row, which vanishes up to rounding), and
shows that the oscillation frequency equals the level-energy gap.

Run:  python demos/ladder_algebra_tour.py
"""

import math

from isosqueeze import algebra

# --- basis actions ---------------------------------------------------------
# The deformation weight f(n) = sqrt((n-1)(n-3)) vanishes at n = 3, which is
# what annihilates the bottom of the ladder.
print("deformation weight f(n) at n = 1, 3, 4, 6:",
      [math.sqrt((n - 1) * (n - 3)) for n in (1, 3, 4, 6)])

# Every operator is one entry of the coefficient table: op|n> = c(n) |n + shift>.
def action(op, n):
    coeff, shift = algebra.word_action((op,), n)
    return f"{float(coeff):.6g} |{n + shift}>" if coeff else "0"


print("\ndeformed lowering on |3> :", action("N-", 3), "(the bottom is annihilated)")
print("deformed raising  on |3> :", action("N+", 3), "(coefficient 2*sqrt(3))")

# The symmetrically rescaled pair acts on |3>, |4>, ... exactly like the
# textbook ladder on |0>, |1>, ...
print("rescaled raising  on |3> :", action("K+", 3))
print("excitation count  on |7> :", action("K0", 7),
      "(level 7 sits 4 rungs above the effective vacuum)")

# --- identities: commutators and the Casimir row ---------------------------
report = algebra.verify_commutators(3, 60)
print("\nidentities on levels 3..60:")
for label, deviation in report["identities"].items():
    print(f"  {label:26s} max deviation {deviation:.2e}")
print("overall:", f"{report['max_deviation']:.2e}")

# The Casimir C = (lower raise) + h(N0), h(n) = n (n+1) (2-n), vanishes on every
# level: its row N- N+ = N0^3 - N0^2 - 2 N0 is read from the same coefficient table.
casimir_peak = report["identities"][algebra.CASIMIR]
print("\nlargest |Casimir| residue over levels 3..60:", f"{casimir_peak:.2e}")

# --- spectrum --------------------------------------------------------------
# Spectrum of the symmetrized deformed Hamiltonian, E(n) = n (1 - 5n + 2n^2)/2,
# and the plus-branch vibration frequency 3n^2 - 2n - 1.
def energy_of(n):
    return 0.5 * n * (1.0 - 5.0 * n + 2.0 * n * n)


print("\nlevel energies and upward gaps:")
for n in range(3, 9):
    energy = energy_of(n)
    gap = energy_of(n + 1) - energy
    freq = 3.0 * n * n - 2.0 * n - 1.0
    print(f"  n={n}: E={energy:7.1f}   gap={gap:6.1f}   plus-branch frequency={freq:6.1f}")

assert report["max_deviation"] < 1e-10 and casimir_peak < 1e-10
print("\nall identities verified.")
