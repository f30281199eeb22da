import math

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import fock, squeezing, states
from conftest import (amplitudes_mp, apply, basis_vector, ladder_word, unitary_probability, witness_oracle,
                      witnesses_mp)

EPS = np.finfo(float).eps


def _unitary_state(xi, n_max=200):
    return iq.build_state(iq.SqueezeParams(kind="iii", r=xi, n_max=n_max))


# every distinct ladder word that enters I1..I4
WITNESS_WORDS = ("-", "+", "--", "++", "+-", "----", "++++", "++--", "--++")


def _operator_route(v, word):
    """<v| word |v> by applying the ladder operators to the padded vector."""
    ops = {"+": "K+", "-": "K-"}
    bra = fock.FockVector(np.concatenate([v.amps, np.zeros(len(word), dtype=complex)]))
    ket = bra
    for tok in reversed(word):
        ket = apply(ops[tok], ket)
    return np.vdot(bra.amps, ket.amps)


def _cell(grid, row=0, col=0):
    """(I1, I2, I3, I4) of one cell of a ``squeezing_grid`` result."""
    return tuple(float(getattr(grid, name)[row, col]) for name in ("i1", "i2", "i3", "i4"))


class TestLadderWords:
    """The dense-matrix ladder words behind ``witness_oracle``, on built and other states."""

    def test_cross_word_on_eigenstate(self):
        got = ladder_word(basis_vector(5, 8), "+-")
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_single_words_vanish_on_even_support(self, nonlinear_r20, unitary_xi04):
        # the grid drops <L> and <R>: both builders leave every odd offset empty
        for v in (nonlinear_r20, unitary_xi04):
            assert ladder_word(v, "-") == 0.0
            assert ladder_word(v, "+") == 0.0

    def test_double_lowering_closed_form(self):
        # <L^2> on the real-xi unitary state is sinh(r_s) cosh(r_s)
        xi = 0.4
        r_s = math.atanh(xi)
        got = ladder_word(_unitary_state(xi), "--")
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
        got = ladder_word(v, "--")
        assert got.real == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("word", WITNESS_WORDS)
    def test_matches_operator_route_on_built_states(self, word):
        states = (
            iq.build_state(iq.SqueezeParams(kind="i", r=20.0, theta=0.7, n_max=70)),
            iq.build_state(iq.SqueezeParams(kind="iii", r=0.6, theta=1.3, n_max=70)),
        )
        for v in states:
            got = ladder_word(v, word)
            assert got == pytest.approx(_operator_route(v, word), rel=1e-13)

    @pytest.mark.parametrize("word", WITNESS_WORDS)
    def test_matches_operator_route_on_random_vectors(self, word):
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = fock.FockVector(rng.normal(size=9) + 1j * rng.normal(size=9))
            got = ladder_word(v, word)
            assert got == pytest.approx(_operator_route(v, word), rel=1e-13)

    def test_padding_protects_quartics(self):
        # support touching the window edge must not lose raising mass
        v = basis_vector(9, 7)  # top level of its own window
        got = ladder_word(v, "--++")
        assert got == pytest.approx((9 - 3 + 1) * (9 - 3 + 2), rel=1e-12)  # (nu+1)(nu+2)


class TestQuadratureIdentities:
    def test_effective_vacuum(self):
        i1, i2, _, _ = _cell(squeezing.squeezing_grid("i", [0.0], [0.0]))
        assert (i1, i2) == (0.0, 0.0)

    def test_unitary_closed_forms(self):
        xi = 0.4
        i1, i2, _, _ = _cell(squeezing.squeezing_grid("iii", [xi], [0.0], n_max=200))
        assert i1 == pytest.approx(2.0 * xi / (1.0 - xi), abs=1e-10)
        assert i2 == pytest.approx(-2.0 * xi / (1.0 + xi), abs=1e-10)

    def test_variance_route_agreement(self, nonlinear_r20):
        # I1 + 1 = 2 (dx)^2 and I2 + 1 = 2 (dp)^2 with the quadratures
        # applied as operators, independently of the identity expansion
        def apply_x(v):
            raised = apply("K+", v)
            lowered = apply("K-", v)
            return fock.FockVector(
                (raised.amps + lowered.amps) / math.sqrt(2.0), tail_bound=raised.tail_bound
            )

        def apply_p(v):
            raised = apply("K+", v)
            lowered = apply("K-", v)
            return fock.FockVector(
                1j * (raised.amps - lowered.amps) / math.sqrt(2.0), tail_bound=raised.tail_bound
            )

        padded = fock.FockVector(np.concatenate([nonlinear_r20.amps, np.zeros(2, dtype=complex)]))
        i1, i2, _, _ = _cell(squeezing.squeezing_grid("i", [20.0], [0.0], n_max=70))
        for witness, quad in ((i1, apply_x), (i2, apply_p)):
            second = np.vdot(padded.amps, quad(quad(padded)).amps).real
            first = np.vdot(padded.amps, quad(padded).amps).real
            assert witness + 1.0 == pytest.approx(2.0 * (second - first * first), abs=1e-10)

    def test_out_of_phase_by_pi(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        grid = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
        i1, i2 = grid.i1[0], grid.i2[0]
        assert np.max(np.abs(np.roll(i1, -8) - i2)) < 1e-8

    def test_sum_rule(self, nonlinear_r20):
        # I1 + I2 = 4 <R L> when single-step words vanish
        i1, i2, _, _ = _cell(squeezing.squeezing_grid("i", [20.0], [0.0], n_max=70))
        cross = ladder_word(nonlinear_r20, "+-").real
        assert i1 + i2 == pytest.approx(4.0 * cross, abs=1e-10)
        assert i1 + i2 >= -1e-9


class TestAmplitudeSquaredIdentities:
    def test_effective_vacuum(self):
        # <L^2 R^2> = 2 on the effective vacuum, so both witnesses vanish
        vac = basis_vector(3, 8)
        assert ladder_word(vac, "--++") == pytest.approx(2.0, rel=1e-14)
        _, _, i3, i4 = _cell(squeezing.squeezing_grid("iii", [0.0], [0.0]))
        assert i3 == pytest.approx(0.0, abs=1e-14)
        assert i4 == pytest.approx(0.0, abs=1e-14)

    def test_unitary_state_squeezes_one_witness(self):
        _, _, i3, i4 = _cell(squeezing.squeezing_grid("iii", [0.4], [0.0], n_max=200))
        assert min(i3, i4) < 0.0 < max(i3, i4)

    def test_alternation_quarter_period(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        grid = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
        i3, i4 = grid.i3[0], grid.i4[0]
        assert np.max(np.abs(np.roll(i3, -4) - i4)) < 1e-8
        assert i3.min() < 0.0 < i3.max()
        assert i4.min() < 0.0 < i4.max()


class TestSmallModulus:
    THETAS = (0.0, 0.3, -1.1, 2.0, math.pi / 2.0)

    @pytest.mark.parametrize("kind, modulus", [
        ("i", 1e-8), ("i", 1e-4), ("i", 1e-2), ("iii", 1e-8), ("iii", 1e-4),
    ])
    def test_amplitude_squared_witnesses_match_40_digits(self, kind, modulus):
        """I3, I4 against ``witnesses_mp`` to a relative bound carried from the amplitudes.

        The grid reads I3 = (m_2 + Re <L^4>)/2 - (Re <L^2>)^2 (I4 alike) from float amplitudes
        a_n (1 + delta_n), delta = max |delta_n|, read against the 50-digit law (this is the
        builder's error, the input here).  At theta = 0 the a_n are positive, so every term of
        m_2, <L^4>_0 and <L^2>_0 is a nonnegative product of two amplitudes and an integer
        square root, and each word moves by at most e = 2 delta + delta^2 + (n + 20) EPS of
        itself: two amplitude errors, at most n = 141 rounded additions over the layout, and
        under 20 roundings in the coefficients, the products, |a|^2, the phase e^{i theta} and
        the closed form's own operations.  With |Re <L^2>| <= <L^2>_0 the witness moves by at
        most e S, S = (m_2 + <L^4>_0)/2 + 2 <L^2>_0^2 (the 2 from d(x^2) = 2 x dx), plus one
        EPS of the 40-digit value rounded to float.  The small moduli leave no O(1) term: S is
        about 4 |I3| on case iii and 20 |I3| on case i, with delta near 2e-13 from the deep
        levels, so the bound is 2e-12 to 6e-12 relative.  Subtracting <R L> + 1/2 from O(1)
        quartic words erred by 1e-16 absolute instead (I3 = 1.11e-16 at r = 1e-8, where the
        exact value is 6.44e-20), and left 1.11e-16 in the r = 0 cells.
        """
        grid = squeezing.squeezing_grid(kind, [modulus], self.THETAS)
        (rung,) = states.build_sweep(kind, [modulus], 0.0, 70)
        exact = amplitudes_mp(kind, modulus, 0.0, 70).real
        assert np.array_equal(rung.amps[0] != 0.0, exact != 0.0)
        kept = exact != 0.0
        delta = np.max(np.abs(rung.amps[0][kept].real / exact[kept] - 1.0))
        nu = 2.0 * np.arange(exact.size)
        m2 = np.sum(nu * (nu - 1.0) * exact**2)
        low2 = np.sum(exact[:-1] * exact[1:] * np.sqrt((nu + 1.0) * (nu + 2.0))[:-1])
        low4 = np.sum(exact[:-2] * exact[2:] * np.sqrt((nu + 1.0) * (nu + 2.0) * (nu + 3.0) * (nu + 4.0))[:-2])
        spread = (m2 + low4) / 2.0 + 2.0 * low2**2
        err = 2.0 * delta + delta**2 + (2 * exact.size - 1 + 20) * EPS
        for col, theta in enumerate(self.THETAS):
            _, _, i3, i4 = witnesses_mp(kind, modulus, theta)
            for got, want in ((grid.i3[0, col], i3), (grid.i4[0, col], i4)):
                assert abs(got - want) <= err * spread + EPS * abs(want)

    @pytest.mark.parametrize("kind", ["i", "iii"])
    def test_zero_modulus_reads_exact_zero(self, kind):
        grid = squeezing.squeezing_grid(kind, [0.0], self.THETAS)
        for values in (grid.i1, grid.i2, grid.i3, grid.i4):
            assert np.all(values == 0.0) and not np.signbit(values).any()


class TestGrid:
    def test_uncertainty_flag_and_order(self):
        rs = [1.0, 3.0]
        thetas = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
        grid = squeezing.squeezing_grid("i", rs, thetas, n_max=50)
        assert grid.i1.shape == (2, 4)
        assert grid.i1[0].tolist() == squeezing.squeezing_grid("i", [1.0], thetas, n_max=50).i1[0].tolist()
        assert grid.uncertainty_ok.all()

    def test_huge_theta_is_its_remainder_mod_two_pi(self):
        # 2 theta overflows at theta = 1e308; the exact fmod keeps every theta below 2 pi as it is
        thetas = [1e308, -1e308, 1.0]
        got = squeezing.squeezing_grid("i", [3.0], thetas)
        want = squeezing.squeezing_grid("i", [3.0], [math.fmod(t, math.tau) for t in thetas])
        for name in ("i1", "i2", "i3", "i4"):
            assert np.isfinite(getattr(got, name)).all()
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_unitary_grid_accepts_kind(self):
        grid = squeezing.squeezing_grid("iii", [0.3], [0.0, 1.0], n_max=80)
        assert np.all((grid.i1 + 1.0) * (grid.i2 + 1.0) >= 1.0 - 1e-9)

    @pytest.mark.parametrize(
        "kind, moduli, n_max",
        [("i", [1e-3, 5.0, 31.0], 70), ("iii", [1e-3, 0.4, 0.88, 0.95], 70),
         ("i", [1e-3, 5.0, 31.0], 1), ("iii", [1e-3, 0.4, 0.88, 0.95], 1)],
        ids=["nonlinear", "unitary", "nonlinear_n_max_1", "unitary_n_max_1"],
    )
    def test_matches_per_cell_oracle(self, kind, moduli, n_max):
        # one state per cell at the cell's own phase; xi 0.88 and 0.95
        # grow the truncation; at n_max = 1 the quartic word <L^4> lowers
        # past the 3-level window
        thetas = [0.0, 0.3, -1.1, math.pi, 2.0 * math.pi + 0.4, 9.7]
        grid = squeezing.squeezing_grid(kind, moduli, thetas, n_max=n_max)
        assert grid.i1.shape == grid.uncertainty_ok.shape == (len(moduli), len(thetas))
        for row, r in enumerate(moduli):
            for col, theta in enumerate(thetas):
                state = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=n_max))
                oracle = witness_oracle(state)
                ok = (oracle[0] + 1.0) * (oracle[1] + 1.0) >= 1.0 - 1e-9
                assert grid.uncertainty_ok[row, col] == ok
                for got, want in zip(_cell(grid, row, col), oracle):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "kind, moduli",
        [("i", [31.0, 0.0, 5.0]), ("iii", [0.95, 0.0, 0.3, 0.88])],
        ids=["nonlinear", "unitary"],
    )
    def test_unsorted_moduli_across_rungs_keep_caller_order(self, kind, moduli):
        # xi 0.95 and 0.88 end on different rungs from 0.3 and 0: one build_sweep
        # call groups the rows by rung, and every result must come back in caller order
        thetas = [0.0, 0.8, -2.5]
        grid = squeezing.squeezing_grid(kind, moduli, thetas, n_max=70)
        for row, r in enumerate(moduli):
            single = iq.build_state(iq.SqueezeParams(kind=kind, r=r, n_max=70))
            assert grid.n_max_effective[row] == single.n_max_effective
            assert grid.tail_bound[row] == single.tail_bound
            for col, theta in enumerate(thetas):
                state = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=70))
                # abs: the zero-modulus cells are 0, the oracle's are a rounding of 1 - 1
                for got, want in zip(_cell(grid, row, col), witness_oracle(state)):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_rejects_non_finite_theta(self):
        with pytest.raises(iq.InvalidParameter):
            squeezing.squeezing_grid("i", [1.0], [0.0, math.nan])
