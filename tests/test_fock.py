import pytest

import isosqueeze as iq
from isosqueeze import fock
from conftest import nonlinear_log_norm_sq, nonlinear_probability, unitary_probability


class TestFockVector:
    def test_immutable(self):
        v = iq.basis_vector(3, 4)
        with pytest.raises(ValueError):
            v.amps[0] = 2.0

    def test_levels(self):
        v = iq.basis_vector(5, 6)
        assert list(v.levels) == [3, 4, 5, 6, 7, 8]
        assert v.amps[2] == 1.0


class TestTailDiagnostics:
    def test_vacuum_has_no_tail(self):
        assert fock.trailing_mass(iq.build_state(iq.SqueezeParams(kind="i", r=0.0))) <= 1e-300

    def test_unitary_tail_small(self):
        params = iq.SqueezeParams(kind="iii", r=0.4, n_max=70)
        tail = fock.trailing_mass(iq.build_state(params))
        assert tail < 1e-12
        # direct series oracle over the top retained half-indices
        oracle = sum(unitary_probability(n, 0.4) for n in (68, 69, 70))
        assert tail == pytest.approx(oracle, rel=1e-6, abs=1e-30)

    def test_nonlinear_tail_small(self):
        params = iq.SqueezeParams(kind="i", r=20.0, n_max=70)
        tail = fock.trailing_mass(iq.build_state(params))
        assert tail < 1e-8
        log_norm_sq = nonlinear_log_norm_sq(20.0)
        oracle = sum(nonlinear_probability(n, 20.0, log_norm_sq) for n in (68, 69, 70))
        assert tail == pytest.approx(oracle, rel=1e-6)

    def test_parseval(self, nonlinear_r20):
        total = fock.probabilities(nonlinear_r20).sum()
        assert total >= 1.0 - nonlinear_r20.tail_bound - 1e-12
        assert total == pytest.approx(1.0, abs=1e-12)

