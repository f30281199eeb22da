"""Properties that hold for every squeezed state, over drawn parameters.

Hypothesis draws the route, modulus, phase and truncation; runs are
derandomized, so every run checks the same examples.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import isosqueeze as iq
from isosqueeze import dist, squeezing, states, stats
from conftest import (
    characteristic_function_cut_move,
    characteristic_function_pairs,
    g2_zero_power,
    mandel_q_power,
    power_moments,
    quasi_probability_cut_move,
    state_moments,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)
EPS = np.finfo(float).eps


@st.composite
def squeeze_params(draw):
    kind = draw(st.sampled_from(["i", "iii"]))
    # xi <= 0.7 keeps the widest case-iii quadrature well inside |x| < 15
    r = draw(st.floats(1e-3, 31.0) if kind == "i" else st.floats(1e-3, 0.7))
    theta = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
    return iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=draw(st.integers(1, 120)))


@st.composite
def sweeps(draw):
    kind = draw(st.sampled_from(["i", "iii"]))
    if kind == "i":
        modulus = st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.floats(40.0, 1e3))
    else:
        # both sides of the xi = 0.7 growth threshold, up to 0.999 (n_max 70 grows to 8960)
        modulus = st.one_of(st.sampled_from([0.0, 0.7, 0.999]), st.floats(0.0, 0.7), st.floats(0.7, 0.999))
    moduli = draw(st.lists(modulus, min_size=1, max_size=6))
    theta = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
    return kind, moduli, theta, draw(st.integers(1, 120))


@PROPERTY
@given(sweeps())
def test_sweep_rows_match_single_builds(sweep):
    kind, moduli, theta, n_max = sweep
    rungs = states.build_sweep(kind, moduli, n_max)
    m, effective, tail = stats.sweep_moments(rungs)
    assert sorted(np.concatenate([rung.rows for rung in rungs]).tolist()) == list(range(len(moduli)))
    assert [rung.n_max for rung in rungs] == sorted({rung.n_max for rung in rungs})
    for rung in rungs:
        p = np.abs(rung.amps) ** 2
        for k, row in enumerate(rung.rows):
            v = iq.build_state(iq.SqueezeParams(kind=kind, r=moduli[row], theta=theta, n_max=n_max))
            assert v.n_max_effective == effective[row]
            assert math.isclose(tail[row], v.tail_bound, rel_tol=1e-12, abs_tol=0.0)
            single = np.abs(v.amps) ** 2
            assert np.max(np.abs(p[k] - single[::2])) <= 1e-15
            assert not single[1::2].any()
            mean, mean_sq = power_moments(v)
            assert math.isclose(m[row, 0], mean, rel_tol=1e-12, abs_tol=0.0)
            assert math.isclose(m[row, 1] + m[row, 0], mean_sq, rel_tol=1e-12, abs_tol=0.0)


@PROPERTY
@given(squeeze_params())
def test_unit_norm(params):
    v = iq.build_state(params)
    assert abs(np.sum(np.abs(v.amps) ** 2) - 1.0) < 1e-13


@PROPERTY
@given(squeeze_params())
def test_quadrature_distribution_is_a_density_at_every_phase(params):
    v = iq.build_state(params)
    xs = np.linspace(-15.0, 15.0, 1201)
    phis = np.linspace(0.0, math.pi, 6, endpoint=False)
    grid = dist.quadrature_distribution(v, xs, phis)
    assert grid.min() >= 0.0
    assert np.max(np.abs(np.trapezoid(grid, xs, axis=0) - 1.0)) < 1e-10


@PROPERTY
@given(squeeze_params())
def test_g2_is_one_plus_q_over_mean(params):
    m = state_moments(iq.build_state(params))
    assert math.isclose(stats.g2_zero(m), 1.0 + stats.mandel_q(m) / m[0], rel_tol=1e-9)


@PROPERTY
@given(squeeze_params())
def test_q_and_g2_match_power_moment_oracle(params):
    v = iq.build_state(params)
    m = state_moments(v)
    assert math.isclose(stats.mandel_q(m), mandel_q_power(v), rel_tol=1e-12)
    assert math.isclose(stats.g2_zero(m), g2_zero_power(v), rel_tol=1e-12)


@PROPERTY
@given(
    st.sampled_from(["i", "iii"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=8),
)
def test_uncertainty_product(kind, fraction, thetas):
    # (I1 + 1)(I2 + 1) >= 1 is the Heisenberg bound of the two quadrature variances
    r = 31.0 * fraction if kind == "i" else 0.95 * fraction
    grid = squeezing.squeezing_grid(kind, [r], thetas)
    assert np.all((grid.i1 + 1.0) * (grid.i2 + 1.0) >= 1.0 - 1e-9)
    assert grid.uncertainty_ok.all()


@PROPERTY
@given(squeeze_params())
def test_husimi_non_negative(params):
    axis = np.linspace(-4.0, 4.0, 9)
    grid = dist.quasi_probability_grid(iq.build_state(params), axis, axis, -1.0)
    assert grid.values.min() >= 0.0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    st.floats(-1.0, 0.5),
    st.sampled_from(["i", "iii"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-math.pi, math.pi),
    st.integers(1, 60),
)
def test_quasi_probability_has_unit_mass(s, kind, fraction, theta, n_max):
    # case iii converges for xi < (1 - s)/(1 + s); half of that keeps the grid's support inside +-8
    if kind == "i":
        r = 8.0 * fraction
    else:
        r = fraction * (0.6 if s == -1.0 else min(0.6, 0.5 * (1.0 - s) / (1.0 + s)))
    v = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=n_max))
    axis = np.linspace(-8.0, 8.0, 121)
    values = dist.quasi_probability_grid(v, axis, axis, s).values
    step = axis[1] - axis[0]
    assert abs(values.sum() * step * step - 1.0) < 1e-10


@st.composite
def phase_space_cases(draw):
    """A state, s in [-1, 0.9] and a square grid up to +-6; case iii inside |xi| < (1 - s)/(1 + s)."""
    kind = draw(st.sampled_from(["i", "iii"]))
    s = draw(st.floats(-1.0, 0.9))
    if kind == "i":
        r = draw(st.floats(0.0, 30.0))
    else:
        # below xi ~ 0.866 the state keeps its 141 levels, which keeps the full-support oracle quick
        r = draw(st.floats(0.0, 0.95)) * (0.9 if s <= 0.0 else min(0.9, (1.0 - s) / (1.0 + s)))
    theta = draw(st.floats(-math.pi, math.pi))
    axis = np.linspace(-1.0, 1.0, draw(st.integers(2, 9))) * draw(st.floats(0.5, 6.0))
    return iq.SqueezeParams(kind=kind, r=r, theta=theta), s, axis


@PROPERTY
@given(phase_space_cases())
def test_quasi_probability_cut_meets_its_contract(case):
    # the levels the kernel drops move F by at most 1e-16 * 2/(pi (1 - s)), plus 2 ulp of the
    # cell; the move is summed from the dropped levels alone, so it holds no cut-sum rounding
    params, s, axis = case
    v = iq.build_state(params)
    grid = dist.quasi_probability_grid(v, axis, axis, s)
    move = quasi_probability_cut_move(v, axis[:, None] + 1j * axis[None, :], s, grid.kernel_levels)
    contract = 1e-16 * 2.0 / (math.pi * (1.0 - s))
    assert 0.0 <= grid.kernel_error_bound <= contract
    assert grid.kernel_levels <= v.amps.size
    assert np.all(np.abs(move) <= contract + 2.0 * EPS * np.abs(grid.values + move))


@PROPERTY
@given(
    st.sampled_from(["i", "iii"]),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.integers(1, 40),
    st.floats(-1.0, 0.9),
    st.floats(0.0, 4.0),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=6),
)
def test_characteristic_function_cut_meets_its_contract(kind, fraction, theta, n_max, s, radius, angles):
    r = (30.0 if kind == "i" else 0.9) * fraction
    v = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=theta, n_max=n_max))
    lam = radius * np.exp(1j * np.array(angles))
    levels = []  # the levels the library hands its kernel
    kernel = dist._ordered_overlap
    spy = lambda d, *rest: levels.append(d.size) or kernel(d, *rest)  # noqa: E731
    with mock.patch.object(dist, "_ordered_overlap", spy):
        got = dist.characteristic_function(v, lam, s)
    move = characteristic_function_cut_move(v, lam, s, *levels)
    assert np.all(np.abs(move) <= 1e-16 + 2.0 * EPS * np.abs(got + move))
    # the element-by-element oracle sums in another order: agreement to rounding of the scale e^{s|lam|^2/2}
    scale = np.exp(0.5 * s * np.abs(lam) ** 2)
    pairs = characteristic_function_pairs(v, lam, 0.0) * scale
    assert np.all(np.abs(got - pairs) <= 1e-12 * np.abs(pairs) + 1e-14 * np.maximum(scale, 1.0))
