import math

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import algebra, fock
from conftest import apply, heisenberg_matrices


def _amps(level, size, op):
    return apply(op, iq.basis_vector(level, size)).amps


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
        top = iq.basis_vector(5, 3)  # |5> at the window edge
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
        }

    def test_residues_detect_a_perturbed_law(self, monkeypatch):
        # scaling the R+ law by 1 + 1e-6 must show in every identity that
        # contains R+ and leave every other residue at its exact value
        before = algebra.verify_commutators(3, 60)["identities"]
        step, law = algebra._OPERATORS["R+"]
        monkeypatch.setitem(algebra._OPERATORS, "R+", (step, lambda n: law(n) * (1.0 + 1e-6)))
        after = algebra.verify_commutators(3, 60)["identities"]
        assert sum("R+" in label for label in after) == 3
        for label, dev in after.items():
            if "R+" in label:
                assert dev > 1e-8, label
            else:
                assert dev == before[label], label

    def test_deformed_commutator_on_five(self):
        v = iq.basis_vector(5, 12)
        lhs = (
            apply("N+", apply("N-", v)).amps
            - apply("N-", apply("N+", v)).amps
        )
        assert lhs[2] == pytest.approx(-50.0, abs=1e-12)

    def test_heisenberg_closure(self):
        # [K-, K+] |n> = |n>; correctly-rounded sqrts leave ~1 ulp of the
        # composed coefficients, so closure holds to 1e-12, not bitwise
        for n in range(3, 40):
            v = iq.basis_vector(n, 45)
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
    def test_bottom_level(self):
        assert algebra.casimir_eigenvalue(3) == 0.0

    def test_level_ten(self):
        assert algebra.casimir_eigenvalue(10) == 0.0

    def test_vanishes_through_sixty(self):
        for n in range(3, 61):
            assert abs(algebra.casimir_eigenvalue(n)) < 1e-9

    def test_orderings_agree(self):
        # both orderings are evaluated inside; a disagreement raises.  In
        # float arithmetic they first disagree at n = 330283.
        for n in (*range(3, 61), 330283, 10**6):
            assert algebra.casimir_eigenvalue(n) == 0.0


class TestSpectrum:
    def test_energy_bottom(self):
        assert algebra.deformed_energy(3) == 6.0

    def test_plus_branch_is_energy_gap(self):
        assert algebra.vibration_frequency(3) == 20.0
        assert algebra.deformed_energy(4) - algebra.deformed_energy(3) == 20.0
        for n in range(3, 21):
            gap = algebra.deformed_energy(n + 1) - algebra.deformed_energy(n)
            assert algebra.vibration_frequency(n, "plus") == gap

    def test_minus_branch_closed_form(self):
        assert algebra.vibration_frequency(4, "minus") == 34.0

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            algebra.vibration_frequency(5, "sideways")


class TestAlgebraSpec:
    def test_deformation_zeros(self):
        assert algebra.deform_f(1) == 0.0
        assert algebra.deform_f(3) == 0.0
