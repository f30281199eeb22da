import math

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import algebra, fock, squeezing
from conftest import unitary_probability


def _unitary_state(xi, n_max=200):
    return iq.build_squeezed(iq.SqueezeParams(kind="iii", r=xi, n_max=n_max))


# every distinct ladder word that enters I1..I4
WITNESS_WORDS = ("-", "+", "--", "++", "+-", "----", "++++", "++--", "--++")


def _operator_route(v, word):
    """<v| word |v> by applying the ladder operators to the padded vector."""
    ops = {"+": "K+", "-": "K-"}
    bra = fock.FockVector(np.concatenate([v.amps, np.zeros(len(word), dtype=complex)]))
    ket = bra
    for tok in reversed(word):
        ket = algebra.apply(ops[tok], ket)
    return np.vdot(bra.amps, ket.amps)


class TestLadderWords:
    def test_cross_word_on_eigenstate(self):
        got = squeezing.expectation_ladder_word(iq.basis_vector(5, 8), "+-")
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_single_words_vanish_on_even_support(self, nonlinear_r20, unitary_xi04):
        for v in (nonlinear_r20, unitary_xi04):
            assert squeezing.expectation_ladder_word(v, "-") == 0.0
            assert squeezing.expectation_ladder_word(v, "+") == 0.0

    def test_double_lowering_closed_form(self):
        # <L^2> on the real-xi unitary state is sinh(r_s) cosh(r_s)
        xi = 0.4
        r_s = math.atanh(xi)
        got = squeezing.expectation_ladder_word(_unitary_state(xi), "--")
        assert got.real == pytest.approx(math.sinh(r_s) * math.cosh(r_s), abs=1e-10)
        assert abs(got.imag) < 1e-14

    def test_double_lowering_series_oracle(self):
        # direct sum: <L^2> = sum_n c_{2n+3} c_{2n+5} sqrt((2n+1)(2n+2))
        xi = 0.4
        v = _unitary_state(xi, n_max=70)
        probs = [unitary_probability(n, xi) for n in range(71)]
        oracle = sum(
            math.sqrt(probs[n] * probs[n + 1]) * math.sqrt((2 * n + 1.0) * (2 * n + 2.0))
            for n in range(70)
        )
        got = squeezing.expectation_ladder_word(v, "--")
        assert got.real == pytest.approx(oracle, rel=1e-10)

    def test_word_accepts_spelled_tokens(self):
        v = iq.basis_vector(5, 8)
        got = squeezing.expectation_ladder_word(v, ["plus", "minus"])
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_word_length_capped(self):
        with pytest.raises(ValueError):
            squeezing.expectation_ladder_word(iq.basis_vector(3, 4), "+++++")

    @pytest.mark.parametrize("word", WITNESS_WORDS)
    def test_matches_operator_route_on_built_states(self, word):
        states = (
            iq.build_state(iq.SqueezeParams(kind="i", r=20.0, theta=0.7, n_max=70)),
            iq.build_state(iq.SqueezeParams(kind="iii", r=0.6, theta=1.3, n_max=70)),
        )
        for v in states:
            got = squeezing.expectation_ladder_word(v, word)
            assert got == pytest.approx(_operator_route(v, word), rel=1e-13)

    @pytest.mark.parametrize("word", WITNESS_WORDS)
    def test_matches_operator_route_on_random_vectors(self, word):
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = fock.FockVector(rng.normal(size=9) + 1j * rng.normal(size=9))
            got = squeezing.expectation_ladder_word(v, word)
            assert got == pytest.approx(_operator_route(v, word), rel=1e-13)

    def test_padding_protects_quartics(self):
        # support touching the window edge must not lose raising mass
        v = iq.basis_vector(9, 7)  # top level of its own window
        got = squeezing.expectation_ladder_word(v, "--++")
        assert got == pytest.approx((9 - 3 + 1) * (9 - 3 + 2), rel=1e-12)  # (nu+1)(nu+2)


class TestQuadratureIdentities:
    def test_effective_vacuum(self):
        rep = squeezing.squeezing_report(iq.basis_vector(3, 6), 0.0, 0.0)
        assert (rep.i1, rep.i2) == (0.0, 0.0)

    def test_unitary_closed_forms(self):
        xi = 0.4
        rep = squeezing.squeezing_report(_unitary_state(xi), xi, 0.0)
        i1, i2 = rep.i1, rep.i2
        assert i1 == pytest.approx(2.0 * xi / (1.0 - xi), abs=1e-10)
        assert i2 == pytest.approx(-2.0 * xi / (1.0 + xi), abs=1e-10)

    def test_variance_route_agreement(self, nonlinear_r20):
        # I1 + 1 = 2 (dx)^2 and I2 + 1 = 2 (dp)^2 with the quadratures
        # applied as operators, independently of the identity expansion
        def apply_x(v):
            raised = algebra.apply("K+", v)
            lowered = algebra.apply("K-", v)
            return fock.FockVector(
                (raised.amps + lowered.amps) / math.sqrt(2.0), tail_bound=raised.tail_bound
            )

        def apply_p(v):
            raised = algebra.apply("K+", v)
            lowered = algebra.apply("K-", v)
            return fock.FockVector(
                1j * (raised.amps - lowered.amps) / math.sqrt(2.0), tail_bound=raised.tail_bound
            )

        padded = fock.FockVector(np.concatenate([nonlinear_r20.amps, np.zeros(2, dtype=complex)]))
        rep = squeezing.squeezing_report(nonlinear_r20, 20.0, 0.0)
        for witness, quad in ((rep.i1, apply_x), (rep.i2, apply_p)):
            second = np.vdot(padded.amps, quad(quad(padded)).amps).real
            first = np.vdot(padded.amps, quad(padded).amps).real
            assert witness + 1.0 == pytest.approx(2.0 * (second - first * first), abs=1e-10)

    def test_out_of_phase_by_pi(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        reports = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
        i1 = np.array([rep.i1 for rep in reports])
        i2 = np.array([rep.i2 for rep in reports])
        assert np.max(np.abs(np.roll(i1, -8) - i2)) < 1e-8

    def test_sum_rule(self, nonlinear_r20):
        # I1 + I2 = 4 <R L> when single-step words vanish
        rep = squeezing.squeezing_report(nonlinear_r20, 20.0, 0.0)
        i1, i2 = rep.i1, rep.i2
        cross = squeezing.expectation_ladder_word(nonlinear_r20, "+-").real
        assert i1 + i2 == pytest.approx(4.0 * cross, abs=1e-10)
        assert i1 + i2 >= -1e-9


class TestAmplitudeSquaredIdentities:
    def test_effective_vacuum(self):
        # <L^2 R^2> = 2 on the effective vacuum, so both witnesses vanish
        vac = iq.basis_vector(3, 8)
        assert squeezing.expectation_ladder_word(vac, "--++") == pytest.approx(2.0, rel=1e-14)
        rep = squeezing.squeezing_report(vac, 0.0, 0.0)
        i3, i4 = rep.i3, rep.i4
        assert i3 == pytest.approx(0.0, abs=1e-14)
        assert i4 == pytest.approx(0.0, abs=1e-14)

    def test_unitary_state_squeezes_one_witness(self):
        rep = squeezing.squeezing_report(_unitary_state(0.4), 0.4, 0.0)
        i3, i4 = rep.i3, rep.i4
        assert min(i3, i4) < 0.0 < max(i3, i4)

    def test_alternation_quarter_period(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        reports = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
        i3 = np.array([rep.i3 for rep in reports])
        i4 = np.array([rep.i4 for rep in reports])
        assert np.max(np.abs(np.roll(i3, -4) - i4)) < 1e-8
        assert i3.min() < 0.0 < i3.max()
        assert i4.min() < 0.0 < i4.max()


class TestGrid:
    def test_uncertainty_flag_and_order(self):
        rs = [1.0, 3.0]
        thetas = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
        reports = squeezing.squeezing_grid("i", rs, thetas, n_max=50)
        assert len(reports) == 8
        assert [rep.r for rep in reports[:4]] == [1.0] * 4
        assert all(rep.uncertainty_ok for rep in reports)

    def test_unitary_grid_accepts_kind(self):
        reports = squeezing.squeezing_grid("iii", [0.3], [0.0, 1.0], n_max=80)
        assert all((rep.i1 + 1.0) * (rep.i2 + 1.0) >= 1.0 - 1e-9 for rep in reports)

    @pytest.mark.parametrize(
        "kind, moduli",
        [("i", [1e-3, 5.0, 31.0]), ("iii", [1e-3, 0.4, 0.88, 0.95])],
        ids=["nonlinear", "unitary"],
    )
    def test_matches_per_cell_oracle(self, kind, moduli):
        # one state per cell at the cell's own phase; xi 0.88 and 0.95
        # grow the truncation
        thetas = [0.0, 0.3, -1.1, math.pi, 2.0 * math.pi + 0.4, 9.7]
        reports = squeezing.squeezing_grid(kind, moduli, thetas, n_max=70)
        assert len(reports) == len(moduli) * len(thetas)
        cells = [(r, theta) for r in moduli for theta in thetas]
        for rep, (r, theta) in zip(reports, cells):
            state = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=70))
            oracle = squeezing.squeezing_report(state, r, theta)
            assert (rep.r, rep.theta) == (r, theta)
            assert rep.uncertainty_ok == oracle.uncertainty_ok
            for name in ("i1", "i2", "i3", "i4"):
                assert getattr(rep, name) == pytest.approx(
                    getattr(oracle, name), rel=1e-12, abs=1e-13
                )

    def test_rejects_non_finite_theta(self):
        with pytest.raises(iq.InvalidParameter):
            squeezing.squeezing_grid("i", [1.0], [0.0, math.nan])
