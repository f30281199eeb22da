import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isosqueeze as iq
from isosqueeze import cli, dist, stats
from conftest import (
    amplitudes_mp,
    basis_vector,
    characteristic_function_pairs,
    displacement_expm,
    element_sum_mp,
    modulus_sum,
    oracle_radius_loop,
    quadrature_distribution_cosine,
    quasi_probability_cut_move,
)


EPS = np.finfo(float).eps
# 64 points, uniform over the disk |lam| <= 4.7
_RADIUS, _TURN = np.random.default_rng(20121224).uniform(size=(2, 64))
_ORACLE_LAMBDAS = 4.7 * np.sqrt(_RADIUS) * np.exp(2j * math.pi * _TURN)


@functools.cache
def _unitary_default(xi, phase):
    """(v, beta, eps): the case-iii state at the default n_max 70, the exact norm of the levels it
    drops (from the closed-form P_n) and the distance of its amplitudes from the normalized
    50-digit ones."""
    v = _unitary(xi, phase, n_max=70)
    n_max = v.n_max_effective
    with mpmath.workdps(50):
        x2 = mpmath.mpf(xi) ** 2
        dropped = mpmath.nsum(lambda n: mpmath.sqrt(1 - x2) * x2**n * mpmath.binomial(2 * n, n) / 4**n,
                              [n_max + 1, mpmath.inf])
    eps = np.linalg.norm(v.amps[::2] - amplitudes_mp("iii", xi, phase, n_max))
    return v, float(mpmath.sqrt(dropped)), float(eps)


@functools.cache
def _modulus_sum_at_own_argument(xi, phase, kept):
    """``modulus_sum`` of the kernel's input, the first ``kept`` levels of ``_unitary_default``, at
    each of ``_ORACLE_LAMBDAS`` and the characteristic function's Laguerre argument |lam|^2."""
    d = _unitary_default(xi, phase)[0].amps[:kept]
    return modulus_sum(d, d, _ORACLE_LAMBDAS, np.abs(_ORACLE_LAMBDAS) ** 2)


def _unitary_characteristic_mp(xi, phase, s, lam) -> np.ndarray:
    """exp(-|lam cosh rho - conj(lam) e^{i phase} sinh rho|^2/2 + s |lam|^2/2), tanh rho = xi, at each
    lam, in 30 digits."""
    with mpmath.workdps(30):
        root = mpmath.sqrt(1 - mpmath.mpf(xi) ** 2)
        cosh, sinh, turn = 1 / root, mpmath.mpf(xi) / root, mpmath.expj(phase)
        exponents = [-abs(z * cosh - mpmath.conj(z) * turn * sinh) ** 2 / 2 + s * abs(z) ** 2 / 2
                     for z in map(mpmath.mpc, lam.tolist())]
        return np.array([float(mpmath.exp(e)) for e in exponents])


def _nonlinear(r, theta=0.0, n_max=70):
    return iq.build_state(iq.SqueezeParams(kind="i", r=r, theta=theta, n_max=n_max))


def _unitary(xi, phase=0.0, n_max=120):
    return iq.build_state(iq.SqueezeParams(kind="iii", r=xi, theta=phase, n_max=n_max))


class TestQuadratureWavefunction:
    def test_effective_vacuum_profile(self):
        vac = basis_vector(3, 4)
        xs = np.linspace(-3.0, 3.0, 13)
        for phi in (0.0, 1.1, 4.0):
            got = dist.quadrature_distribution(vac, xs, [phi])[:, 0]
            assert np.allclose(got, np.exp(-xs * xs) / math.sqrt(math.pi), atol=1e-12)

    def test_normalized_per_phase(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        for v in (_nonlinear(10.0, 0.5), _unitary(0.3, 0.8)):
            for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                p = dist.quadrature_distribution(v, xs, [phi])[:, 0]
                assert abs(np.trapezoid(p, xs) - 1.0) < 1e-6


class TestClosedFormDistribution:
    def test_zero_amplitude_profile(self):
        params = iq.SqueezeParams(kind="i", r=0.0, n_max=10)
        xs = np.linspace(-3.0, 3.0, 7)
        phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        expected = np.exp(-xs * xs) / math.sqrt(math.pi)
        assert np.allclose(grid, expected[:, None], atol=1e-12)

    def test_agrees_with_wavefunction_route(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 41)
        phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        closed = quadrature_distribution_cosine(iq.build_state(params), params.theta, xs, phis)
        direct = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        assert np.max(np.abs(closed - direct)) < 1e-8

    def test_even_in_x_at_aligned_phase(self):
        theta = 0.7
        params = iq.SqueezeParams(kind="i", r=6.0, theta=theta, n_max=50)
        xs = np.linspace(-4.0, 4.0, 33)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, np.array([theta / 2.0]))
        assert np.max(np.abs(grid[:, 0] - grid[::-1, 0])) < 1e-10

    def test_pi_periodic_in_phase(self):
        v = _nonlinear(8.0, 0.3, n_max=60)
        xs = np.linspace(-4.0, 4.0, 21)
        a = dist.quadrature_distribution(v, xs, [0.9])[:, 0]
        b = dist.quadrature_distribution(v, xs, [0.9 + math.pi])[:, 0]
        assert np.max(np.abs(a - b)) < 1e-10
        c = dist.quadrature_distribution(v, xs, [0.9 + 2.0 * math.pi])[:, 0]
        assert np.max(np.abs(a - c)) < 1e-10

    def test_values_non_negative(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 51)
        phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        assert grid.min() > -1e-12


def _element(row, col, lam):
    """<row|D(lam)|col> through the library kernel, by polarization.

    G(v) = <v|D(lam)|v> = e^{-|lam|^2/2} _ordered_overlap(v, lam, -1, 1), and
    <row|D|col> = (1/4) sum over w^4 = 1 of conj(w) G(e_row + w e_col).
    """
    basis = np.eye(max(row, col) + 1)
    lam = complex(lam)
    total = sum(np.conj(w) * complex(dist._ordered_overlap(basis[row] + w * basis[col], lam, -1, 1))
                for w in (1, 1j, -1, -1j))
    return math.exp(-0.5 * abs(lam) ** 2) * total / 4


class TestDisplacement:
    def test_identity_at_zero(self):
        assert _element(0, 0, 0.0 + 0.0j) == 1.0

    def test_vacuum_survival(self):
        got = _element(0, 0, 1.0 + 0.0j)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.7 + 0.2j, -0.4 + 1.1j])
    def test_matches_matrix_exponential(self, lam):
        oracle = displacement_expm(lam, 140)
        for row in range(10):
            for col in range(10):
                got = _element(row, col, lam)
                assert got == pytest.approx(oracle[row, col], abs=1e-10)

    def test_unitarity_column_sum(self):
        # column |2n+3> with n = 1: sum over every level, odd ones included
        lam = 0.7 + 0.2j
        total = sum(
            abs(_element(row, 2, lam)) ** 2 for row in range(120)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_adjoint_relation(self):
        lam = 0.5 - 0.8j
        for row, col in ((0, 3), (2, 5), (4, 1)):
            left = _element(row, col, lam)
            right = np.conj(_element(col, row, -lam))
            assert left == pytest.approx(right, abs=1e-13)


class TestCharacteristicFunction:
    def test_unit_trace(self, nonlinear_r20):
        for s in (-1.0, 0.0, 0.5):
            assert dist.characteristic_function(nonlinear_r20, 0.0 + 0.0j, s) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_hermiticity(self, nonlinear_r20):
        lam = 0.6 + 0.9j
        a = dist.characteristic_function(nonlinear_r20, lam, 0.5)
        b = dist.characteristic_function(nonlinear_r20, -lam, 0.5)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5])
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    @pytest.mark.parametrize("xi", [0.3, 0.9])
    def test_unitary_gaussian_oracle(self, xi, phase, s):
        """C(lam, s) of case iii against exp(-|lam cosh rho - conj(lam) e^{i phi} sinh rho|^2/2
        + s |lam|^2/2), tanh rho = xi, the Bogoliubov image of the vacuum's.

        In units of e^{s |lam|^2/2}, with D = D(lam) unitary and u = 2^-53, the steps from the
        exact state psi to the printed value move C by at most:
        - the truncation: the state is a/|a|, a the kept part of psi = a + b and |b| = beta, the
          exact dropped norm (an mpmath sum of the closed-form P_n), so <D> moves by
          <a|D|a> beta^2/(1 - beta^2) - <a|D|b> - <b|D|a> - <b|D|b>, at most 2 beta (1 + beta);
        - the amplitudes' rounding: eps = |c - c_50|, c_50 the normalized 50-digit amplitudes
          (``amplitudes_mp``), moves <D> by at most eps (2 + eps);
        - the kernel's cut: eta (2A + eta), the bound ``_kept_levels`` reports over its scale;
        - the kernel's rounding, as in TestKernelSetup: 12 N EPS S e^{-|lam|^2/2}, N the kept
          levels and S the sum of the moduli of the element-sum terms, here at the kernel's own
          argument |lam|^2 (``modulus_sum``).  TestKernelSetup's S, at -|lam|^2, reaches
          1e41 e^{|lam|^2/2} on the xi = 0.9 state and would leave nothing to check;
        - the Gaussian factor exp((s - 1)|lam|^2/2): |lam| within 2u, its square, product and the
          final product within u each, exp within 2u: (6 g + 3) u of |C|, g = (1 - s)|lam|^2/2;
        - the oracle, summed in 30 digits and rounded once: u of its value.
        beta is 2.0e-38 at xi 0.3 (n_max 70) and 1.16e-7 at xi 0.9 (grown to n_max 140).
        Measured per unit: gaps at most 2.7e-16 at xi 0.3 under tolerances of 5.9e-16 to
        1.6e-13, and 1.4e-11 at xi 0.9 under 2.3e-7; at most 0.017 of the tolerance at any point.
        """
        v, beta, eps = _unitary_default(xi, phase)
        lam = _ORACLE_LAMBDAS
        scale = 0.5 * s * np.abs(lam).max() ** 2 if s > 0.0 else 0.0
        kept, cut = dist._kept_levels(v.amps, log_scale=scale)
        terms = _modulus_sum_at_own_argument(xi, phase, kept)
        got = dist.characteristic_function(v, lam, s)
        want = _unitary_characteristic_mp(xi, phase, s, lam)
        mag_sq = np.abs(lam) ** 2
        tol = np.exp(0.5 * s * mag_sq) * (2.0 * beta * (1.0 + beta) + eps * (2.0 + eps) + cut * math.exp(-scale)
                                          + 12 * kept * EPS * terms * np.exp(-0.5 * mag_sq)) \
            + 2.0**-53 * ((6.0 * 0.5 * (1.0 - s) * mag_sq + 3.0) * np.abs(got) + np.abs(want))
        assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("state", ["nonlinear_r20", "unitary_xi04", "random_odd"])
    def test_matches_cahill_glauber_oracle(self, state, request):
        if state == "random_odd":
            # complex amplitudes on every offset: both branches and odd orders
            rng = np.random.default_rng(20120222)
            amps = rng.normal(size=9) + 1j * rng.normal(size=9)
            v = iq.FockVector(amps / np.linalg.norm(amps))
        else:
            v = request.getfixturevalue(state)
        lam = np.array([[0.0, 0.3 + 0.4j, -1.1 + 0.7j, 2.0 - 1.5j],
                        [-3.2j, 4.0 + 2.5j, -4.5 - 3.0j, 6.0]])
        want = characteristic_function_pairs(v, lam, 0.0)
        for s in (-1.0, 0.0, 0.5):
            got = dist.characteristic_function(v, lam, s)
            assert got.shape == lam.shape
            np.testing.assert_allclose(
                got, want * np.exp(0.5 * s * np.abs(lam) ** 2), rtol=1e-12, atol=1e-14
            )

    def test_rejects_s_at_one(self):
        with pytest.raises(iq.InvalidParameter, match="s must be < 1, got 1.0"):
            dist.characteristic_function(basis_vector(3, 3), 0.1 + 0.0j, 1.0)

    def test_subnormal_lambda_is_the_origin(self, unitary_xi04):
        # lam / |lam| overflows at a subnormal |lam|; the kernel reads such lam as 0
        lam = np.array([5e-324, -2e-310j, 0.0])
        values = dist.characteristic_function(unitary_xi04, lam, 0.5)
        np.testing.assert_array_equal(values, values[2])
        assert values[2] == pytest.approx(1.0, abs=1e-15)
        axis = np.array([-5e-324, 0.0])
        grid = dist.quasi_probability_grid(unitary_xi04, axis, axis, 0.0)
        np.testing.assert_array_equal(grid.values, grid.values[1, 1])


class TestOverlapKernel:
    """The kernel sums its Laguerre series over the distinct arguments of the whole call."""

    @staticmethod
    def _random_odd():
        rng = np.random.default_rng(707)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        return iq.FockVector(amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("s", [0.5, 0.0, -1.0, -3.0])
    @pytest.mark.parametrize("state", ["fig8", "random_odd"])
    @pytest.mark.parametrize("points", ["symmetric", "random"])
    def test_grid_matches_single_points(self, s, state, points):
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0) if state == "fig8" else self._random_odd()
        if points == "symmetric":  # mirror and transposed points share an argument
            xs = ps = np.linspace(-2.0, 2.0, 7)
        else:
            rng = np.random.default_rng(11)
            xs, ps = rng.uniform(-2.5, 2.5, 5), rng.uniform(-2.5, 2.5, 4)
        grid = dist.quasi_probability_grid(v, xs, ps, s)
        single = [[dist.quasi_probability(v, complex(x, p), s) for p in ps] for x in xs]
        np.testing.assert_allclose(grid.values, single, rtol=1e-12, atol=0.0)

    def test_sweeps_run_over_distinct_arguments(self, sweep_widths):
        xs = np.linspace(-2.0, 2.0, 9)
        dist.quasi_probability_grid(_nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0), xs, xs, 0.0)
        distinct = np.unique(np.abs(xs[:, None] + 1j * xs[None, :]) ** 2).size
        assert sweep_widths and set(sweep_widths) == {distinct}

    def test_blocks_match_smaller_calls(self, nonlinear_r20):
        # triples lam, -lam, conj(lam) share an argument; thousands of distinct arguments in one call
        rng = np.random.default_rng(4096)
        size = 4396
        lam = 3.0 * np.sqrt(rng.random(size)) * np.exp(2j * math.pi * rng.random(size))
        lam = np.concatenate([lam, -lam, np.conj(lam)])
        pieces = [dist.characteristic_function(nonlinear_r20, part, 0.0) for part in np.array_split(lam, 9)]
        whole = dist.characteristic_function(nonlinear_r20, lam, 0.0)
        np.testing.assert_allclose(whole, np.concatenate(pieces), rtol=1e-12, atol=1e-15)


class TestGroupedSweeps:
    """Orders share one Clenshaw sweep while their run fits the budget."""

    def test_few_arguments_sweep_many_orders_at_once(self, monkeypatch):
        # the char-fn benchmark's case-iii call: 25 live orders (every even k below 49 levels)
        # over 32 distinct arguments (lam and -lam share one) in one run
        runs = []
        sweep = dist.laguerre_series
        monkeypatch.setattr(dist, "laguerre_series",
                            lambda w, k, x: runs.append((len(k), x.size)) or sweep(w, k, x))
        k = np.arange(32)
        lam = 2.5 * np.sqrt((k + 0.5) / 32) * np.exp(2.399963229728653j * k)
        dist.characteristic_function(_unitary(0.4, n_max=24), np.concatenate([lam, -lam]), 0.0)
        assert runs == [(25, 32)]


@st.composite
def _gapped_vectors(draw):
    """Complex vectors on drawn, gapped supports: magnitudes over ten decades, any phase."""
    size = draw(st.integers(1, 24))
    support = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    v = np.zeros(size, dtype=complex)
    for n in support:
        v[n] = 10.0 ** draw(st.floats(-6.0, 4.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return v


def _vector(levels: dict) -> np.ndarray:
    v = np.zeros(1 + max(levels), dtype=complex)
    v[list(levels)] = list(levels.values())
    return v


_POINTS = st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=12)


class TestKernelSetup:
    """The kernel against a 40-digit element sum (``conftest.element_sum_mp``), and its memory."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_gapped_vectors(), _POINTS, st.sampled_from([-1, 1, -1.0, 1.0]), st.sampled_from([-1, 1]))
    # order tops that are not monotone in k: pairs (0, 3), (3, 10) and (0, 10)
    @example(_vector({0: 0.6, 3: -0.3 + 0.1j, 10: 0.8j}), [0.7 - 0.2j, 0.2 + 0.7j, 0j], -1, 1)
    @example(_vector({5: 0.6 - 0.8j}), [0.4 + 0.3j, 2.0, -1j], -1.0, -1)  # one level
    @example(_vector({0: 1.0, 1: 1e-310j, 4: 5e-324}), [1.0 + 1.0j, 0.5j], 1.0, 1)  # subnormals
    def test_matches_a_40_digit_element_sum(self, d, points, sign, parity):
        """|kernel - exact| <= c N EPS S, N = d.size, S the sum of the moduli of the terms.

        S = sum_k |mu|^k sum_a |w_ka| L_a^k(-|mu|^2) over both branches bounds every term,
        since |L_a^k(t)| <= L_a^k(-|t|).  Rounding moves a term by a few EPS of its modulus
        per operation on it: its weight and scale are exponentials of sums of logarithms and
        carry the rounding of ln|d_n| twice (half an ulp of a modulus below 16, 4 EPS each),
        so a lone level is off by up to about 9 EPS S; each of the at most N - 1 phase
        multiplications, N Clenshaw steps and N - 1 order accumulations adds about one EPS,
        and ln(a!) grows with the degree.  c = 12 covers the lone level and three EPS per
        level beyond it.  Measured: at most 8.6, 10.1, 9.4 and 9.7 EPS S at N = 1 .. 4 over
        3000 random draws, and 18.1 EPS S at N = 23 over these examples.
        """
        mu = np.array(points, dtype=complex)
        want, bound = element_sum_mp(d * parity ** np.arange(d.size), d, mu, sign)
        got = dist._ordered_overlap(d, mu, sign, parity)
        assert np.all(np.abs(got - want) <= 12 * d.size * EPS * bound)

    def test_nan_lambda_gives_nan(self):
        lam = np.array([0.5, complex(math.nan, 0.0), complex(0.3, math.nan), 1j, 0.0, math.nan])
        values = dist.characteristic_function(_unitary(0.4, n_max=24), lam, 0.0)
        assert np.array_equal(np.isnan(values), np.isnan(lam))

    def test_561_level_kernel_peak_stays_under_3_mib(self, monkeypatch):
        # the 561-level Wigner kernel on a 5 x 5 grid: no Laguerre table is formed, and the
        # run budget bounds its weights and sweep (traced peak 2.9 MiB with the table)
        calls = []
        kernel = dist._ordered_overlap
        monkeypatch.setattr(dist, "_ordered_overlap", lambda *args: calls.append(args) or kernel(*args))
        axis = np.linspace(-4.0, 4.0, 5)
        state = iq.build_state(iq.SqueezeParams(kind="iii", r=0.95))
        dist.quasi_probability_grid(state, axis, axis, 0.0)
        (args,) = calls
        assert args[0].size == 561
        tracemalloc.start()
        try:
            kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 2**20


def _fig8_demo():
    return _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0, n_max=6)


def _random_seven_levels():
    # the state of TestQuasiProbability.test_odd_offsets_match_fourier_oracle
    rng = np.random.default_rng(1202)
    amps = rng.normal(size=7) + 1j * rng.normal(size=7)
    return iq.FockVector(amps / np.linalg.norm(amps))


def _case_i_r20_24_levels():
    return _nonlinear(20.0, n_max=24)


class TestFourierOracle:
    """The cut-radius search of ``quasi_probability_fourier`` and its argument checks."""

    @staticmethod
    def _counted_radius(monkeypatch, v, s):
        """``_oracle_radius(v, s)`` with every RuntimeWarning an error, and its C calls."""
        calls = []
        char = dist.characteristic_function
        monkeypatch.setattr(dist, "characteristic_function",
                            lambda *args: calls.append(args) or char(*args))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return dist._oracle_radius(v, s), calls
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("state, s", [
        *[(_fig8_demo, s) for s in (-3.0, -1.0, -0.5, 0.0, 0.5)],
        *[(_random_seven_levels, s) for s in (-3.0, -1.0, -0.5, 0.0, 0.5)],
        (_case_i_r20_24_levels, 0.5),
    ])
    def test_one_call_picks_the_per_circle_radius(self, monkeypatch, state, s):
        # s = -3 evaluates circles out to 24 where the per-circle search stops at 6
        v = state()
        radius, calls = self._counted_radius(monkeypatch, v, s)
        ((_, lam, _),) = calls
        assert lam.shape == (10, 32)
        assert radius == oracle_radius_loop(v, s)

    def test_case_i_r20_keeps_more_levels_in_one_call(self):
        # at s > 0 the kept levels follow the largest |lam| of the call: 33 on the radius-6
        # circle alone, 49 over all ten; both searches stop at 16 all the same
        v = _case_i_r20_24_levels()
        assert [dist._kept_levels(v.amps, log_scale=0.25 * r * r)[0] for r in (6, 24)] == [33, 49]

    def test_refuses_an_undecayed_cut_as_the_per_circle_search_does(self, monkeypatch):
        # at s = 0.9 no circle decays; one call keeps the levels radius 24 needs on every
        # circle, and the message reads the radius-24 peak as the per-circle search does
        v = _fig8_demo()
        with pytest.raises(ArithmeticError, match="radius 24") as loop:
            oracle_radius_loop(v, 0.9)
        with pytest.raises(ArithmeticError, match="radius 24") as one_call:
            self._counted_radius(monkeypatch, v, 0.9)
        assert str(one_call.value) == str(loop.value)

    @pytest.mark.parametrize("name, count", [
        ("angular_nodes", 0), ("radial_nodes", 0), ("radial_nodes", -3), ("radial_nodes", 2.5),
        ("angular_nodes", True),
    ])
    def test_refuses_a_node_count_before_any_kernel_call(self, monkeypatch, name, count):
        calls = []
        monkeypatch.setattr(dist, "_ordered_overlap", lambda *args: calls.append(args))
        with pytest.raises(iq.InvalidParameter, match=f"{name} must be a positive integer"):
            dist.quasi_probability_fourier(_fig8_demo(), 0.5 - 1.0j, 0.0, **{name: count})
        assert calls == []


class TestWignerMarginal:
    @pytest.mark.parametrize("params", [
        iq.SqueezeParams(kind="i", r=2.8284271247461903, theta=math.pi / 4.0),  # figure 8
        iq.SqueezeParams(kind="iii", r=0.4, theta=0.7),
    ])
    def test_p_marginal_is_the_quadrature_distribution(self, params):
        """sum_j F(x, p_j, 0) h = sqrt(2) P(sqrt(2) x, 0), p over +-8 at 641 points.

        F(x, p) = 2 W(sqrt(2) x, sqrt(2) p) for the Wigner function W(q, P) of the
        wavefunction psi(q) whose |psi|^2 is P(q, 0), so the exact p integral is the
        right side.  The tolerance is what the rule and the arithmetic can miss:
        * the rectangle rule over every p_j = j h: by Poisson summation it errs by the
          sum over k != 0 of the p transform of F at 2 pi k / h, which is
          sqrt(2) conj(psi(q - a_k)) psi(q + a_k) with a_k = pi k / (sqrt(2) h) = 89 k;
          |psi| there is below e^{-3000}, so this term is 0 in float64;
        * the dropped |p| > 8 tail, summed from F on the rule's points out to |p| = 16,
          where |F| is below 1e-100 and falls like e^{-2 p^2};
        * the axis rounding: the nodes sit within delta of j h, which moves the sum by
          at most delta times the variation of F along p, read off the sampled grid;
        * per cell, the cut bound and 4 ulp of the bound 2/pi on |F| (the allowance the
          40-digit check of the near-Husimi grid uses), over the rule's weight 641 h;
          4 ulp of the right side; one ulp of the correctly rounded sum.
        Measured gaps 2.2e-16 (figure 8) and 4.4e-16 against tolerances near 1.2e-14.
        """
        v = iq.build_state(params)
        xs = cli._symmetric_axis(-4.0, 4.0, 41)
        ps = cli._symmetric_axis(-16.0, 16.0, 1281)
        h = 1.0 / 40.0
        grid = dist.quasi_probability_grid(v, xs, ps, 0.0)
        inner = slice(320, 961)
        assert ps[inner][0] == -8.0 and ps[inner][-1] == 8.0
        marginal = np.array([math.fsum(row) for row in grid.values[:, inner]]) * h
        want = math.sqrt(2.0) * dist.quadrature_distribution(v, math.sqrt(2.0) * xs, np.zeros(1))[:, 0]
        tail = np.abs(np.delete(grid.values, inner, axis=1))
        assert tail[:, [0, -1]].max() < 1e-100
        delta = np.abs(ps - np.arange(-640, 641) / 40.0).max()
        assert delta <= 4e-15
        shifted = delta * np.abs(np.diff(grid.values, axis=1)).sum(axis=1)
        cells = 641 * h * (grid.kernel_error_bound + 4.0 * EPS * 2.0 / math.pi)
        tol = tail.sum(axis=1) * h + shifted + cells + 4.0 * EPS * want + EPS * np.abs(marginal)
        assert np.all(np.abs(marginal - want) <= tol)

    @pytest.mark.parametrize("params", [
        iq.SqueezeParams(kind="i", r=2.8284271247461903, theta=math.pi / 4.0),  # figure 8
        iq.SqueezeParams(kind="iii", r=0.4, theta=0.7),
    ])
    def test_second_moment_is_the_stats_mean(self, params):
        """sum |z|^2 F(z, 0) h^2 = <nu> + 1/2, x and p over +-7 at 281 points, <nu> = ``stats`` m_1.

        F(z, 0) is the Wigner function in z = x + i p, normalized over dx dp, and
        |z|^2 = (a^dagger a + a a^dagger)/2 in symmetric order, so its exact integral is the
        right side, with m_1 from ``stats.moments`` on the state's even offsets as ``stats``
        reads it.  The tolerance is built as in the marginal test above:
        * the rectangle rule over every (j h, k h): by Poisson summation it errs by the
          transform of |z|^2 F at frequencies 2 pi (j, k)/h, the Laplacian of the
          characteristic function at |lambda| >= pi/h = 63; on offsets up to 140 that is
          e^{-|lambda|^2/2} times polynomials of degree at most 142 in |lambda|^2, under
          e^{-1000} there, so 0 in float64;
        * the dropped frame outside +-7, summed from |z|^2 |F| on the rule's points out to
          +-10.5, where |F| is below 1e-40 and falls like e^{-2 |z|^2};
        * the axis rounding: each node sits within delta of its j h, which moves the sum by
          at most delta times the variation of |z|^2 F along x and along p, read off the grid;
        * per cell, the cut bound and 4 ulp of the bound 2/pi on |F|, over the weights
          |z|^2 h^2; 3 ulp of each product |z|^2 F h^2 and one ulp of the correctly rounded
          sum; 4 ulp of the right side.
        Measured gaps 1.1e-16 for both states against tolerances near 4e-12.
        """
        v = iq.build_state(params)
        axis = cli._symmetric_axis(-10.5, 10.5, 421)
        h = 1.0 / 20.0
        grid = dist.quasi_probability_grid(v, axis, axis, 0.0)
        inner = slice(70, 351)
        assert axis[inner][0] == -7.0 and axis[inner][-1] == 7.0
        weighted = (axis[:, None] ** 2 + axis[None, :] ** 2) * grid.values * h * h
        got = math.fsum(weighted[inner, inner].ravel().tolist())
        p = np.abs(v.amps[::2]) ** 2
        want = stats.moments(p[None, :], 2 * np.arange(p.size))[0, 0] + 0.5
        assert max(np.abs(grid.values[[0, -1]]).max(), np.abs(grid.values[:, [0, -1]]).max()) < 1e-40
        outside = np.ones(weighted.shape, dtype=bool)
        outside[inner, inner] = False
        frame = np.abs(weighted[outside]).sum()
        delta = np.abs(axis - np.arange(-210, 211) / 20.0).max()
        assert delta <= 4e-15
        core = weighted[inner, inner] / (h * h)
        shifted = delta * h * (np.abs(np.diff(core, axis=0)).sum() + np.abs(np.diff(core, axis=1)).sum())
        z2 = (axis[inner, None] ** 2 + axis[None, inner] ** 2).sum() * h * h
        cells = z2 * (grid.kernel_error_bound + 4.0 * EPS * 2.0 / math.pi)
        rounding = 3.0 * EPS * np.abs(weighted[inner, inner]).sum() + EPS * abs(got) + 4.0 * EPS * want
        assert abs(got - want) <= frame + shifted + cells + rounding


class TestSOrdering:
    """F(., s') = F(., s) convolved with G(u) = 2/(pi sigma) e^{-2 |u|^2 / sigma}, sigma = s - s' > 0.

    The Cahill-Glauber s-ordering identity (Phys. Rev. 177, 1882, 1969): the characteristic
    function of s' is that of s times e^{-sigma |lambda|^2 / 2}, the transform of G.
    """

    @staticmethod
    def _modulus_sum(d, mu):
        """S = ||e^{mu a} |d|>||^2 per mu >= 0: the sum of the moduli of every term of
        ``dist._ordered_overlap(d, mu, ...)`` over both branches, which bounds its rounding
        (``TestKernelSetup``); e^{mu a} |n> = sum_j mu^j / j! sqrt(n! / (n - j)!) |n - j>."""
        size = d.size
        log_fact = np.array([math.lgamma(n + 1.0) for n in range(size)])
        u = np.zeros((mu.size, size))
        for j in range(size):  # u_k = sum_j |d_{k+j}| mu^j / j! sqrt((k + j)! / k!)
            coef = np.abs(d[j:]) * np.exp(0.5 * (log_fact[j:] - log_fact[:size - j]) - log_fact[j])
            u[:, :size - j] += np.multiply.outer(mu ** j, coef)
        return (u * u).sum(axis=1)

    @pytest.mark.parametrize("s, s_low", [(0.0, -1.0), (0.5, 0.0), (0.5, -1.0)])
    @pytest.mark.parametrize("params", [
        iq.SqueezeParams(kind="i", r=2.8284271247461903, theta=math.pi / 4.0),  # figure 8
        iq.SqueezeParams(kind="iii", r=0.1, theta=0.7),
    ], ids=["fig8", "iii"])
    def test_convolved_grid_is_the_lower_order_point(self, params, s, s_low):
        """sum_j F(w_j, s) G(z - w_j) h^2 over w in +-6 = F(z, s') at four points, h = 1/16.

        The axis j h is exact.  The tolerance is what the rule and the arithmetic can miss:
        * the rectangle rule over every w_j: by Poisson summation it errs by the transform of
          F(., s) G(z - .) at the frequencies 2 pi (j, l)/h != 0, which is C(., s) convolved
          with e^{-sigma |k|^2 / 8}.  With |<m|D(lambda)|n>| <= x^{(m+n)/2} e^{mn/x - x/2}
          / sqrt(m! n!), x = |lambda|^2, on the kept levels, each such term is below e^{-87}
          for both states, so 0 in float64;
        * the dropped frame outside +-6, summed from |F G| on the rule's points out to +-8,
          where |F G| is below 1e-90 and falls like a Gaussian;
        * per cell of the s grid: the cut bound; the kernel's rounding, 12 N EPS S of the
          modulus sum S of its terms (``TestKernelSetup``), times the Gaussian prefactor P of
          F; the prefactor's own rounding, (3 a + 4) EPS |F| for its exponent a;
        * per cell, G's rounding (3 a + 4) EPS G for its exponent a, and one ulp of F G
          (h^2 is a power of two); one ulp of the correctly rounded sum;
        * at z, the cut bound and 4 ulp of the bound 2/(pi (1 - s')) on |F(z, s')|.
        Measured gaps at most 1.1e-16 against tolerances of 1.3e-14 to 1.5e-13.
        """
        v = iq.build_state(params)
        axis = np.arange(-128, 129) / 16.0
        h = 1.0 / 16.0
        grid = dist.quasi_probability_grid(v, axis, axis, s)
        inner = slice(32, 225)
        assert axis[inner][0] == -6.0 and axis[inner][-1] == 6.0
        x, p = axis[:, None], axis[None, :]
        a_f = 2.0 * (x * x + p * p) / (1.0 - s)
        prefactor = 2.0 / (math.pi * (1.0 - s)) * np.exp(-a_f)
        # the kernel sums d = c t^n at mu = 2 w / ((1 - s) sign t), t^2 = |(1 + s)/(1 - s)|
        t = math.sqrt(abs((1.0 + s) / (1.0 - s)))
        d = v.amps[:grid.kernel_levels] * t ** np.arange(grid.kernel_levels)
        radii, back = np.unique(np.hypot(x, p), return_inverse=True)
        modulus = self._modulus_sum(d, 2.0 * radii / ((1.0 - s) * t))[back].reshape(grid.values.shape)
        cell = (grid.kernel_error_bound + 12 * d.size * EPS * modulus * prefactor
                + (3.0 * a_f + 4.0) * EPS * np.abs(grid.values))
        sigma = s - s_low
        for z in [0.0, 0.3 - 0.2j, -0.5 + 0.4j, 0.8 + 0.1j]:
            dx, dp = x - z.real, p - z.imag
            a_g = 2.0 * (dx * dx + dp * dp) / sigma
            gauss = 2.0 / (math.pi * sigma) * np.exp(-a_g)
            terms = grid.values * gauss * (h * h)
            got = math.fsum(terms[inner, inner].ravel().tolist())
            want = dist.quasi_probability(v, z, s_low)
            point = dist.quasi_probability_grid(v, np.array([z.real]), np.array([z.imag]), s_low)
            assert point.values[0, 0] == want
            outside = np.ones(terms.shape, dtype=bool)
            outside[inner, inner] = False
            assert max(np.abs(terms[[0, -1]]).max(), np.abs(terms[:, [0, -1]]).max()) < 1e-90
            frame = np.abs(terms[outside]).sum()
            cells = (cell * gauss)[inner, inner].sum() * h * h
            rounding = ((3.0 * a_g + 5.0) * EPS * np.abs(terms))[inner, inner].sum() + EPS * abs(got)
            at_z = point.kernel_error_bound + 4.0 * EPS * 2.0 / (math.pi * (1.0 - s_low))
            assert abs(got - want) <= frame + cells + rounding + at_z


class TestQuasiProbability:
    def test_vacuum_wigner_origin(self):
        got = dist.quasi_probability(basis_vector(3, 3), 0.0 + 0.0j, 0.0)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_vacuum_husimi_origin(self):
        got = dist.quasi_probability(basis_vector(3, 3), 0.0 + 0.0j, -1.0)
        assert got == pytest.approx(1.0 / math.pi, abs=1e-10)

    def test_vacuum_wigner_profile(self):
        vac = basis_vector(3, 3)
        for z in (0.5 + 0.0j, 0.3 - 0.7j, 1.0 + 1.0j):
            assert dist.quasi_probability(vac, z, 0.0) == pytest.approx(
                2.0 / math.pi * math.exp(-2.0 * abs(z) ** 2), rel=1e-12
            )

    def test_number_state_wigner(self):
        # |5>: effective two-quantum state, W = 2/pi e^{-2|z|^2} L_2(4|z|^2)
        two = basis_vector(5, 8)
        for z in (0.0 + 0.0j, 0.4 + 0.2j, 1.1 - 0.6j):
            arg = 4.0 * abs(z) ** 2
            expected = 2.0 / math.pi * math.exp(-2.0 * abs(z) ** 2) * (
                1.0 - 2.0 * arg + arg * arg / 2.0
            )
            assert dist.quasi_probability(two, z, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_grid_matches_scalar(self, unitary_xi04):
        xs = np.array([-1.0, 0.0, 0.8])
        ps = np.array([-0.5, 0.4])
        grid = dist.quasi_probability_grid(unitary_xi04, xs, ps, 0.0)
        for i, x in enumerate(xs):
            for j, p in enumerate(ps):
                assert grid.values[i, j] == pytest.approx(
                    dist.quasi_probability(unitary_xi04, complex(x, p), 0.0), rel=1e-12
                )

    def test_wigner_normalization(self):
        v = _unitary(0.5)
        xs = np.linspace(-4.0, 4.0, 161)
        grid = dist.quasi_probability_grid(v, xs, xs, 0.0)
        step = xs[1] - xs[0]
        assert 0.99 <= grid.values.sum() * step * step <= 1.01

    def test_husimi_non_negative(self):
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0)
        xs = np.linspace(-4.0, 4.0, 81)
        grid = dist.quasi_probability_grid(v, xs, xs, -1.0)
        assert grid.values.min() >= -1e-9

    def test_nonlinear_state_negativity(self):
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0)
        xs = np.linspace(-4.0, 4.0, 81)
        grid = dist.quasi_probability_grid(v, xs, xs, 0.5)
        assert grid.values.min() < -1e-4

    def test_fourier_oracle_spot_check(self):
        v = iq.build_state(iq.SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0), theta=math.pi / 4.0, n_max=6))
        for s in (-1.0, 0.0, 0.5):
            z = 0.5 - 1.0j
            closed = dist.quasi_probability(v, z, s)
            oracle = dist.quasi_probability_fourier(v, z, s)
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_odd_offsets_match_fourier_oracle(self):
        # complex amplitudes on every offset fix the sign of the odd orders;
        # s < -1 has a negative Laguerre argument
        rng = np.random.default_rng(1202)
        amps = rng.normal(size=7) + 1j * rng.normal(size=7)
        v = iq.FockVector(amps / np.linalg.norm(amps))
        for s in (-3.0, -1.0, -0.5, 0.0, 0.5):
            for z in (0.3 - 0.7j, 1.1 + 0.4j):
                closed = dist.quasi_probability(v, z, s)
                oracle = dist.quasi_probability_fourier(v, z, s)
                assert closed == pytest.approx(oracle, abs=1e-9)

    def test_fourier_oracle_refuses_an_undecayed_cut(self):
        # at s = 0.9, |C| on the radius-24 circle is still about 1e-4: the cut transform read
        # 4.8e-5 against the closed form 2.5e-7
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0, n_max=6)
        with pytest.raises(ArithmeticError, match="radius 24"):
            dist.quasi_probability_fourier(v, 0.5 - 1.0j, 0.9, 128, 128)

    def test_rejects_s_at_one(self):
        with pytest.raises(iq.InvalidParameter, match="s must be < 1, got 1.0"):
            dist.quasi_probability(basis_vector(3, 3), 0.0 + 0.0j, 1.0)

    def test_case_iii_cut_meets_the_contract_where_a_fixed_cut_does_not(self, unitary_xi04):
        # dropping the kernel amplitudes c_n t^n at or below 1e-20 moves F by 1.7e-14 on this grid
        axis = np.linspace(-4.0, 4.0, 41)
        grid = dist.quasi_probability_grid(unitary_xi04, axis, axis, -0.5)
        move = quasi_probability_cut_move(unitary_xi04, axis[:, None] + 1j * axis[None, :], -0.5,
                                          grid.kernel_levels)
        contract = 1e-16 * 2.0 / (math.pi * 1.5)
        assert grid.kernel_levels == 79 < unitary_xi04.amps.size
        assert 0.0 < grid.kernel_error_bound <= contract
        assert np.max(np.abs(move)) <= contract

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5])
    def test_kernel_error_bound_is_eta_two_a_plus_eta(self, s):
        # the figure-8 state: the reported bound is 2/(pi (1-s)) eta (2A + eta), A the norm and
        # eta the dropped tail norm of c_n, or of c_n t^n with t^2 = (1+s)/(1-s) for s > 0,
        # recomputed in 30 digits from the amplitudes and kernel_levels; and the move of the
        # cut, summed from the dropped levels alone, lies under it plus rounding
        v = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0)
        axis = cli._symmetric_axis(-4.0, 4.0, 41)
        grid = dist.quasi_probability_grid(v, axis, axis, s)
        kept = grid.kernel_levels
        assert 0 < kept < v.amps.size
        with mpmath.workdps(30):
            t_sq = mpmath.mpf(1.0 + s) / (1.0 - s) if s > 0.0 else mpmath.mpf(1)
            weights = [abs(mpmath.mpc(complex(c))) ** 2 * t_sq**n for n, c in enumerate(v.amps)]
            norm, eta = mpmath.sqrt(mpmath.fsum(weights)), mpmath.sqrt(mpmath.fsum(weights[kept:]))
            want = 2 / (mpmath.pi * (1 - mpmath.mpf(s))) * eta * (2 * norm + eta)
        assert grid.kernel_error_bound == pytest.approx(float(want), rel=1e-12, abs=0.0)
        move = quasi_probability_cut_move(v, axis[:, None] + 1j * axis[None, :], s, kept)
        assert np.all(np.abs(move) <= grid.kernel_error_bound + 2.0 * EPS * np.abs(grid.values + move))
