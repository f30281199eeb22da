import math

import numpy as np
import pytest

from isosqueeze import algebra, fock
from conftest import (
    apply,
    basis_vector,
    casimir_rounding_bound,
    deform_f,
    deformed_energy,
    heisenberg_matrices,
    vibration_frequency,
)


def _amps(level, size, op):
    return apply(op, basis_vector(level, size)).amps


class TestBasisActions:
    def test_deformed_lowering_annihilates_bottom(self):
        assert np.all(_amps(3, 6, "N-") == 0.0)

    def test_deformed_raising_on_bottom(self):
        out = _amps(3, 6, "N+")
        assert out[1] == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)
        assert np.count_nonzero(out) == 1

    def test_deformed_lowering_on_four(self):
        out = _amps(4, 6, "N-")
        assert out[0] == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_heisenberg_pair_on_bottom(self):
        assert np.all(_amps(3, 6, "K-") == 0.0)
        up = _amps(3, 6, "K+")
        assert up[1] == pytest.approx(1.0, rel=1e-15)

    def test_excitation_number_eigenvalue(self):
        out = _amps(7, 8, "K0")
        assert out[4] == 4.0

    def test_raising_drop_feeds_tail_bound(self):
        top = basis_vector(5, 3)  # |5> at the window edge
        out = apply("K+", top)
        assert np.all(out.amps == 0.0)
        assert out.tail_bound == pytest.approx(3.0)  # |sqrt(5-2)|^2


class TestCommutators:
    def test_report_tight(self):
        report = algebra.verify_commutators(3, 60)
        assert report["max_deviation"] < 1e-10
        assert set(report["identities"]) == {
            "[N+,N-] = 5 N0 - 3 N0^2",
            "[N0,N+] = +N+",
            "[N0,N-] = -N-",
            "[N-,R+] = 1",
            "[R+N-,N-] = -N-",
            "[R+N-,R+] = +R+",
            "[R-,N+] = 1",
            "[N+R-,R-] = -R-",
            "[N+R-,N+] = +N+",
            "[K-,K+] = 1",
            "[K0,K-] = -K-",
            "[K0,K+] = +K+",
            algebra.CASIMIR,
        }

    @pytest.mark.parametrize("op, homogeneous", [("R+", ()), ("N+", ("[N0,N+] = +N+",))], ids=["R+", "N+"])
    def test_residues_detect_a_perturbed_law(self, monkeypatch, op, homogeneous):
        # scaling one law by 1 + 1e-6 must show in every identity that contains
        # the operator, the Casimir row among them for N+, and leave every other
        # residue at its exact value; a row of the same degree in the operator on
        # both sides, like [N0,N+] = +N+, holds for any scale and stays tight
        before = algebra.verify_commutators(3, 60)["identities"]
        step, law = algebra._OPERATORS[op]
        monkeypatch.setitem(algebra._OPERATORS, op, (step, lambda n: law(n) * (1.0 + 1e-6)))
        after = algebra.verify_commutators(3, 60)["identities"]
        assert sum(op in label for label in after) == {"R+": 3, "N+": 6}[op]
        for label, dev in after.items():
            if label in homogeneous:
                assert dev < 1e-10, label
            elif op in label:
                assert dev > 1e-8, label
            else:
                assert dev == before[label], label

    def test_deformed_commutator_on_five(self):
        v = basis_vector(5, 12)
        lhs = (
            apply("N+", apply("N-", v)).amps
            - apply("N-", apply("N+", v)).amps
        )
        assert lhs[2] == pytest.approx(-50.0, abs=1e-12)

    def test_heisenberg_closure(self):
        # [K-, K+] |n> = |n>; correctly-rounded sqrts leave ~1 ulp of the
        # composed coefficients, so closure holds to 1e-12, not bitwise
        for n in range(3, 40):
            v = basis_vector(n, 45)
            lhs = (
                apply("K-", apply("K+", v)).amps
                - apply("K+", apply("K-", v)).amps
            )
            assert np.max(np.abs(lhs - v.amps)) < 1e-12

    def test_adjointness(self):
        rng = np.random.default_rng(3)
        # support well below the window edge
        u_amps = np.zeros(40, dtype=complex)
        v_amps = np.zeros(40, dtype=complex)
        u_amps[:30] = rng.normal(size=30) + 1j * rng.normal(size=30)
        v_amps[:30] = rng.normal(size=30) + 1j * rng.normal(size=30)
        u, v = fock.FockVector(u_amps), fock.FockVector(v_amps)
        lhs = np.vdot(u.amps, apply("K+", v).amps)
        rhs = np.vdot(apply("K-", u).amps, v.amps)
        assert abs(lhs - rhs) < 1e-12


class TestDenseMatrixOracle:
    def test_heisenberg_ops_match_matrices(self):
        rng = np.random.default_rng(17)
        dim = 25
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps[-1] = 0.0  # keep raising inside the window
        v = fock.FockVector(amps)
        lower, upper = heisenberg_matrices(dim)
        assert np.allclose(apply("K-", v).amps, lower @ amps, atol=1e-12)
        assert np.allclose(apply("K+", v).amps, upper @ amps, atol=1e-12)


class TestCasimir:
    """The Casimir row N- N+ = N0^3 - N0^2 - 2 N0 of the identity table, from the coefficient laws."""

    def test_vanishes_through_sixty(self):
        residue = algebra.verify_commutators(3, 60)["identities"][algebra.CASIMIR]
        assert residue < 1e-10

    @pytest.mark.parametrize("n_low, n_high", [(3, 5), (3, 60), (330000, 330600), (10**6, 10**6 + 2)])
    def test_within_the_rounding_bound(self, n_low, n_high):
        # both sides are (n+1) n (n-2) exactly; past 2^53 (n ~ 208000) their float values
        # round, and the residue is bounded by the rounding of the evaluation alone.  The
        # bound grows with n, so its value at n_high bounds every level of the window
        residue = algebra.verify_commutators(n_low, n_high)["identities"][algebra.CASIMIR]
        assert residue <= casimir_rounding_bound(n_high)


class TestSpectrum:
    def test_energy_bottom(self):
        assert deformed_energy(3) == 6.0

    def test_plus_branch_is_energy_gap(self):
        assert vibration_frequency(3) == 20.0
        assert deformed_energy(4) - deformed_energy(3) == 20.0
        for n in range(3, 21):
            gap = deformed_energy(n + 1) - deformed_energy(n)
            assert vibration_frequency(n, "plus") == gap

    def test_minus_branch_closed_form(self):
        assert vibration_frequency(4, "minus") == 34.0

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            vibration_frequency(5, "sideways")


class TestAlgebraSpec:
    def test_deformation_zeros(self):
        # copysign sees the sign of a zero, which == does not
        assert math.copysign(1.0, deform_f(1)) == 1.0
        assert math.copysign(1.0, deform_f(3)) == 1.0
