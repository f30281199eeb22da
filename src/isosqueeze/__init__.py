"""Squeezed states of a deformed oscillator ladder on a truncated Fock space.

The physical ladder runs over levels 3, 4, 5, ... (levels 1 and 2 are
missing from the spectrum and level 0 is dynamically isolated).  This
package builds the two families of squeezed states that exist on that
ladder, diagnoses the divergence that rules out the third, and computes
their non-classicality witnesses: photon statistics, Mandel Q, g2(0),
the moment-determinant ratio A3, quadrature and amplitude-squared
squeezing identities, the phase-parameterized quadrature distribution
and the s-parameterized quasi-probability family (Wigner at s = 0,
Husimi at s = -1).

Modules
-------
specfun    log-factorials and stable polynomial recurrences
fock       truncated state vectors and the tail diagnostic
algebra    ladder-operator coefficient table and identity verification
states     state builders and the divergence diagnostic
stats      photon statistics and moment diagnostics
squeezing  quadrature / amplitude-squared squeezing witnesses
dist       quadrature distribution and quasi-probability functions
cli        reproducible CSV/JSON emission for every figure grid
"""

from .fock import FockVector, InvalidParameter, basis_vector
from .states import (
    CASE_NONLINEAR,
    CASE_UNITARY,
    RadiusViolation,
    SqueezeParams,
    build_nonlinear_squeezed,
    build_squeezed,
    build_state,
    dual_series_diagnosis,
)

__all__ = [
    "FockVector",
    "InvalidParameter",
    "basis_vector",
    "CASE_NONLINEAR",
    "CASE_UNITARY",
    "RadiusViolation",
    "SqueezeParams",
    "build_nonlinear_squeezed",
    "build_squeezed",
    "build_state",
    "dual_series_diagnosis",
]

__version__ = "0.1.0"
