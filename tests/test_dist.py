import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isosqueeze as iq
from isosqueeze import dist
from conftest import (
    basis_vector,
    characteristic_function_pairs,
    displacement_expm,
    full_support_overlap,
    quadrature_distribution_cosine,
    quasi_probability_full,
)


def _nonlinear(r, theta=0.0, n_max=70):
    return iq.build_state(iq.SqueezeParams(kind="i", r=r, theta=theta, n_max=n_max))


def _unitary(xi, phase=0.0, n_max=120):
    return iq.build_state(iq.SqueezeParams(kind="iii", r=xi, theta=phase, n_max=n_max))


class TestQuadratureWavefunction:
    def test_effective_vacuum_profile(self):
        vac = basis_vector(3, 4)
        xs = np.linspace(-3.0, 3.0, 13)
        for phi in (0.0, 1.1, 4.0):
            got = np.abs(dist.quadrature_wavefunction(vac, xs, phi)) ** 2
            assert np.allclose(got, np.exp(-xs * xs) / math.sqrt(math.pi), atol=1e-12)

    def test_normalized_per_phase(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        for v in (_nonlinear(10.0, 0.5), _unitary(0.3, 0.8)):
            for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                p = np.abs(dist.quadrature_wavefunction(v, xs, phi)) ** 2
                assert abs(np.trapezoid(p, xs) - 1.0) < 1e-6

    def test_scalar_input(self):
        vac = basis_vector(3, 4)
        val = dist.quadrature_wavefunction(vac, 0.5, 0.3)
        assert isinstance(val, complex)
        assert abs(val) ** 2 == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), rel=1e-12)


class TestClosedFormDistribution:
    def test_zero_amplitude_profile(self):
        params = iq.SqueezeParams(kind="i", r=0.0, n_max=10)
        xs = np.linspace(-3.0, 3.0, 7)
        phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        expected = np.exp(-xs * xs) / math.sqrt(math.pi)
        assert np.allclose(grid.values, expected[:, None], atol=1e-12)

    def test_agrees_with_wavefunction_route(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 41)
        phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        closed = quadrature_distribution_cosine(iq.build_state(params), params.theta, xs, phis)
        direct = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        assert np.max(np.abs(closed - direct.values)) < 1e-8

    def test_even_in_x_at_aligned_phase(self):
        theta = 0.7
        params = iq.SqueezeParams(kind="i", r=6.0, theta=theta, n_max=50)
        xs = np.linspace(-4.0, 4.0, 33)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, np.array([theta / 2.0]))
        assert np.max(np.abs(grid.values[:, 0] - grid.values[::-1, 0])) < 1e-10

    def test_pi_periodic_in_phase(self):
        v = _nonlinear(8.0, 0.3, n_max=60)
        xs = np.linspace(-4.0, 4.0, 21)
        a = np.abs(dist.quadrature_wavefunction(v, xs, 0.9)) ** 2
        b = np.abs(dist.quadrature_wavefunction(v, xs, 0.9 + math.pi)) ** 2
        assert np.max(np.abs(a - b)) < 1e-10
        c = np.abs(dist.quadrature_wavefunction(v, xs, 0.9 + 2.0 * math.pi)) ** 2
        assert np.max(np.abs(a - c)) < 1e-10

    def test_values_non_negative(self):
        params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
        xs = np.linspace(-5.0, 5.0, 51)
        phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        grid = dist.quadrature_distribution(iq.build_state(params), xs, phis)
        assert grid.values.min() > -1e-12


def _element(row, col, lam):
    """<row|D(lam)|col> = e^{-|lam|^2/2} G(e_row, e_col; lam) through the library kernel."""
    basis = np.eye(max(row, col) + 1)
    lam = complex(lam)
    overlap = dist._ordered_overlap(basis[row], basis[col], lam, -1)
    return math.exp(-0.5 * abs(lam) ** 2) * complex(overlap)


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

    def test_unitary_gaussian_oracle(self):
        # Bogoliubov image of the vacuum characteristic function
        xi, phase = 0.3, 0.0
        v = _unitary(xi, phase)
        r_s = math.atanh(xi)
        for lam in (0.5 + 0.0j, 0.5 + 0.3j, -0.2 + 1.0j):
            shifted = lam * math.cosh(r_s) - np.conj(lam) * np.exp(1j * phase) * math.sinh(r_s)
            oracle = math.exp(-0.5 * abs(shifted) ** 2)
            got = dist.characteristic_function(v, lam, 0.0)
            assert got == pytest.approx(oracle, abs=1e-6)

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
        with pytest.raises(dist.SParameterOutOfRange):
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
    """The kernel sweeps Laguerre rows over distinct arguments, in blocks."""

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

    def test_blocks_match_smaller_calls(self, sweep_widths, nonlinear_r20):
        # triples lam, -lam, conj(lam) share an argument; more distinct
        # arguments than one block holds, and groups cut by block edges
        rng = np.random.default_rng(4096)
        size = dist._BLOCK_POINTS + 300
        lam = 3.0 * np.sqrt(rng.random(size)) * np.exp(2j * math.pi * rng.random(size))
        lam = np.concatenate([lam, -lam, np.conj(lam)])
        pieces = [dist.characteristic_function(nonlinear_r20, part, 0.0) for part in np.array_split(lam, 9)]
        whole = dist.characteristic_function(nonlinear_r20, lam, 0.0)
        np.testing.assert_allclose(whole, np.concatenate(pieces), rtol=1e-12, atol=1e-15)
        assert max(sweep_widths) <= dist._BLOCK_POINTS < lam.size // 3


def _benchmark_kernel_call(name):
    """A public call whose kernel input is one the benchmark's phase-space and char-fn workloads make."""
    if name.startswith("fig1a"):  # both fig-1a states at n_max 24 and the 64 golden-spiral lambdas
        v = _nonlinear(20.0, n_max=24) if name == "fig1a_i" else _unitary(0.4, n_max=24)
        k = np.arange(32)
        lam = 2.5 * np.sqrt((k + 0.5) / 32) * np.exp(2.399963229728653j * k)
        return lambda: dist.characteristic_function(v, np.concatenate([lam, -lam]), 0.0)
    if name == "case_iii_wigner":  # 79 levels, 527 distinct arguments (np.linspace axes)
        axis = np.linspace(-4.0, 4.0, 41)
        return lambda: dist.quasi_probability_grid(_unitary(0.4, n_max=70), axis, axis, 0.0)
    # the Fourier oracle's 128 x 128 polar grid, on the fig-8 state at n_max 6
    small = _nonlinear(2.0 * math.sqrt(2.0), math.pi / 4.0, n_max=6)
    return lambda: dist.quasi_probability_fourier(small, 0.5 - 1.0j, 0.5, 128, 128)


_BENCHMARK_KERNEL_CALLS = ["fig1a_i", "fig1a_iii", "case_iii_wigner", "oracle_polar_grid"]


class TestGroupedSweeps:
    """Laguerre orders swept together in a bounded table give the per-order kernel's bits."""

    @pytest.mark.parametrize("name", _BENCHMARK_KERNEL_CALLS)
    def test_bit_identical_to_per_order_kernel(self, name, monkeypatch):
        calls = []
        kernel = dist._ordered_overlap
        monkeypatch.setattr(dist, "_ordered_overlap", lambda *args: calls.append(args) or kernel(*args))
        _benchmark_kernel_call(name)()
        args = max(calls, key=lambda call: np.size(call[2]))  # the grid, not the oracle's radius circles
        assert np.array_equal(kernel(*args), full_support_overlap(*args))

    @pytest.fixture
    def sweep_tables(self, monkeypatch):
        """(orders, floats) of the table of every Laguerre sweep the kernel runs."""
        tables = []
        sweep = dist.assoc_laguerre_sequence

        def recorded(n_max, k, x):
            table = sweep(n_max, k, x)
            tables.append((np.size(k), table.size))
            return table

        monkeypatch.setattr(dist, "assoc_laguerre_sequence", recorded)
        return tables

    def test_tables_stay_within_the_budget_or_one_order(self, sweep_tables):
        for name in _BENCHMARK_KERNEL_CALLS:
            _benchmark_kernel_call(name)()
        assert all(floats <= dist._TABLE_FLOATS or orders == 1 for orders, floats in sweep_tables)
        # both paths ran: orders swept together, and a lone order whose table exceeds the budget
        assert any(orders > 1 for orders, _ in sweep_tables)
        assert any(orders == 1 and floats > dist._TABLE_FLOATS for orders, floats in sweep_tables)

    def test_few_arguments_sweep_many_orders_at_once(self, sweep_tables):
        # 25 live orders (every even k below 49 levels) over 32 distinct arguments
        _benchmark_kernel_call("fig1a_iii")()
        assert len(sweep_tables) <= 2 and sum(orders for orders, _ in sweep_tables) == 25


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
    """The kernel's array-pass setup against the per-order reference (``full_support_overlap``)."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_gapped_vectors(), _gapped_vectors(), _POINTS, st.sampled_from([-1, 1, -1.0, 1.0]))
    # order tops that are not monotone in k: x on {0, 10}, y on {0, 3}
    @example(_vector({0: 0.6, 10: 0.8j}), _vector({0: -0.3 + 0.1j, 3: 0.9}), [0.7 - 0.2j, 0.2 + 0.7j, 0j], -1)
    @example(np.ones(1), _vector({0: 0.5, 2: 0.7j, 9: -0.5}), [1.5 + 0.5j, -1.5 - 0.5j, 0.5 - 1.5j], -1)  # x = e_0
    @example(_vector({5: 0.6 - 0.8j}), _vector({5: 0.6 - 0.8j}), [0.4 + 0.3j, 2.0, -1j], -1.0)  # one level
    @example(_vector({0: 1.0, 4: 5e-324}), _vector({0: 0.5, 1: 1e-310j, 4: 0.5}), [1.0 + 1.0j, 0.5j], 1.0)  # subnormals
    def test_matches_the_per_order_kernel(self, x, y, points, sign):
        # within 4 ulp, not bit for bit: the reference scales order 0 by np.exp(peak) where the
        # kernel takes math.exp(peak), one bit apart for some peaks, and numpy's SIMD dispatch
        # rounds a complex product with or without fused multiply-add by operand shape and host
        # (an 8e-18 imaginary residue for one level)
        mu = np.array(points, dtype=complex)
        got, want = dist._ordered_overlap(x, y, mu, sign), full_support_overlap(x, y, mu, sign)
        assert np.all(np.abs(got - want) <= 4.0 * math.ulp(np.abs(want).max()))

    @pytest.mark.parametrize("values", [
        [2.5],
        [-0.0, 0.0, 0.0, 1.0],
        [0.0, -0.0, 3.0, 3.0],
        [-np.inf, -np.inf, -1.0, -0.0, 0.0, 2.0, 2.0, 2.0, np.inf, np.inf],
        np.round(np.random.default_rng(7).normal(size=500), 1),
    ])
    def test_block_arguments_are_np_unique(self, values):
        values = np.sort(np.asarray(values, dtype=float), kind="stable")
        got = dist._sorted_distinct(values)
        want = np.unique(values, return_index=True, return_inverse=True)
        for part, expected in zip(got, want):
            assert part.dtype == expected.dtype and part.shape == expected.shape
            assert np.array_equal(part, expected)
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))  # the first of a +-0 run

    def test_nan_lambda_gives_nan(self):
        lam = np.array([0.5, complex(math.nan, 0.0), complex(0.3, math.nan), 1j, 0.0, math.nan])
        values = dist.characteristic_function(_unitary(0.4, n_max=24), lam, 0.0)
        assert np.array_equal(np.isnan(values), np.isnan(lam))

    def test_weight_chunks_fit_the_table_budget(self, monkeypatch):
        # the 561-level Wigner kernel: its traced peak was 3.0 MiB when each order's weights
        # were built alone; building runs of orders may add at most one Laguerre table
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
        assert peak <= 3.0 * 2**20 + dist._TABLE_FLOATS * 8


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
        with pytest.raises(dist.SParameterOutOfRange):
            dist.quasi_probability(basis_vector(3, 3), 0.0 + 0.0j, 1.0)

    def test_case_iii_cut_meets_the_contract_where_a_fixed_cut_does_not(self, unitary_xi04):
        # dropping the kernel amplitudes c_n t^n at or below 1e-20 moves F by 1.7e-14 on this grid
        axis = np.linspace(-4.0, 4.0, 41)
        grid = dist.quasi_probability_grid(unitary_xi04, axis, axis, -0.5)
        full = quasi_probability_full(unitary_xi04, axis[:, None] + 1j * axis[None, :], -0.5)
        contract = 1e-16 * 2.0 / (math.pi * 1.5)
        assert grid.kernel_levels == 79 < unitary_xi04.amps.size
        assert 0.0 < grid.kernel_error_bound <= contract
        assert np.max(np.abs(grid.values - full)) <= contract
