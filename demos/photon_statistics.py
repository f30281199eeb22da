"""Photon statistics of the two squeezed-state families.

Builds the non-unitary-route state (complex amplitude beta, converges
for any beta) and the unitary-route state (amplitude xi, needs
|xi| < 1), prints their photon-number distributions, and sweeps the
moment diagnostics: mean excitation, Mandel Q, g2(0) and the
moment-determinant ratio A3.  Both families come out super-Poissonian
(Q > 0, g2 > 1).  A3 prints -1 for every state: ``stats`` builds its
mu matrix from <nu>^j instead of the <nu^j> of Agarwal and Tara (see
the strict xfail ``TestA3::test_matches_agarwal_tara_definition``).

Run:  python demos/photon_statistics.py
"""

import numpy as np

from isosqueeze import SqueezeParams, build_state
from isosqueeze import states, stats

# --- photon-number distributions ------------------------------------------
nonlinear = build_state(SqueezeParams(kind="i", r=20.0, n_max=70))
unitary = build_state(SqueezeParams(kind="iii", r=0.4, n_max=70))

print("non-unitary route, r = 20 -- leading probabilities:")
for level, prob in zip(nonlinear.levels[:12], np.abs(nonlinear.amps) ** 2):
    bar = "#" * int(60 * prob)
    if prob > 0:
        print(f"  |{level:3d}>  {prob:8.5f}  {bar}")
print("  (support sits on every second level: 3, 5, 7, ...)")

print("\nunitary route, xi = 0.4 -- leading probabilities:")
for level, prob in zip(unitary.levels[:12], np.abs(unitary.amps) ** 2):
    if prob > 0:
        print(f"  |{level:3d}>  {prob:8.5f}  {'#' * int(60 * prob)}")

# --- moment diagnostics over the amplitude sweep ---------------------------
def moment_table(kind, moduli, n_max):
    """One falling-factorial moment row per modulus; <K0> = m[:, 0].

    ``build_sweep`` groups the states by the truncation they end at; the
    builders put probability on even offsets only, so each group's
    moments are read over nu = 0, 2, 4, ...
    """
    m = np.empty((len(moduli), 4))
    for rung in states.build_sweep(kind, moduli, n_max=n_max):
        m[rung.rows] = stats.moments(np.abs(rung.amps) ** 2, 2 * np.arange(rung.n_max + 1))
    return m


print("\nnon-unitary route sweep (n_max = 70):")
print(f"  {'r':>5} {'meanK0':>10} {'Q':>10} {'g2(0)':>10} {'A3':>8}")
r_values = (0.5, 2.0, 5.0, 10.0, 20.0, 31.0)
m = moment_table("i", r_values, 70)
for row in zip(r_values, m[:, 0], stats.mandel_q(m), stats.g2_zero(m), stats.a3_parameter(m)):
    print("  {:5.1f} {:10.5f} {:10.5f} {:10.4f} {:8.4f}".format(*row))

print("\nunitary route sweep (closed forms: Q = 2<K0>+1, g2 = 3 + 1/<K0>):")
print(f"  {'xi':>5} {'meanK0':>10} {'Q':>10} {'g2(0)':>10}")
xi_values = (0.1, 0.3, 0.5, 0.7, 0.9)
m = moment_table("iii", xi_values, 400)
for row in zip(xi_values, m[:, 0], stats.mandel_q(m), stats.g2_zero(m)):
    print("  {:5.1f} {:10.5f} {:10.5f} {:10.4f}".format(*row))

print("\nboth families stay super-Poissonian: Q > 0 and g2(0) > 1 throughout.")
