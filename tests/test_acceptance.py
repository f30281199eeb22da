"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines.  Criterion 5's amplitude-decay bound is encoded as a
strict expected failure: the faithful assertion (P < 1e-3 everywhere
beyond |x| = 3 for the r = 10, theta = 0.5 state) is off by roughly a
factor of eight from what that state actually does -- its largest
quadrature variance leaves ~7.5e-3 just past |x| = 3 -- so the test
documents the measured value instead of loosening the bound.
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import algebra, dist, squeezing, stats, states
from isosqueeze.cli import main as cli_main
from conftest import quadrature_distribution_cosine


def _report(number: int, label: str, elapsed: float | None = None) -> None:
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[criterion {number}] PASS: {label}{timing}")


def test_criterion_1_algebra_suite():
    start = time.perf_counter()
    report = algebra.verify_commutators(3, 60)
    assert report["max_deviation"] < 1e-10

    for n in range(3, 61):
        assert abs(algebra.casimir_eigenvalue(n)) < 1e-9

    for n in range(3, 21):
        gap = algebra.deformed_energy(n + 1) - algebra.deformed_energy(n)
        assert algebra.vibration_frequency(n, "plus") == gap

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"commutators to {report['max_deviation']:.2e}, Casimir 0, "
               "frequency = energy gap", elapsed)


def test_criterion_2_unitary_route_closed_forms():
    start = time.perf_counter()
    for tenth in range(1, 10):
        xi = tenth / 10.0
        params = iq.SqueezeParams(kind="iii", r=xi, n_max=400)
        assert states.norm_constant(params) == pytest.approx(
            (1.0 - xi * xi) ** 0.25, abs=1e-10
        )
        v = iq.build_squeezed(params)
        mean, _ = stats.excitation_moments(v)
        assert mean == pytest.approx(xi * xi / (1.0 - xi * xi), abs=1e-8)
        assert stats.mandel_q(v) == pytest.approx(2.0 * mean + 1.0, abs=1e-8)
        assert stats.g2_zero(v) == pytest.approx(3.0 + 1.0 / mean, abs=1e-8)
        assert stats.mandel_q(v) > 0.0 and stats.g2_zero(v) > 1.0
        rep = squeezing.squeezing_report(v, xi, 0.0)
        i1, i2 = rep.i1, rep.i2
        assert i1 == pytest.approx(2.0 * xi / (1.0 - xi), abs=1e-6)
        assert i2 == pytest.approx(-2.0 * xi / (1.0 + xi), abs=1e-6)
    _report(2, "norm, moments, Q, g2, I1/I2 match the squeezed-vacuum closed forms",
            time.perf_counter() - start)


def test_criterion_3_nonlinear_route_sweep():
    start = time.perf_counter()
    for r in np.linspace(31.0 / 64.0, 31.0, 64):
        v = iq.build_nonlinear_squeezed(iq.SqueezeParams(kind="i", r=float(r), n_max=70))
        assert stats.mandel_q(v) > 0.0
        assert stats.g2_zero(v) > 1.0
        a3 = stats.a3_parameter(v)
        assert -1.0 - 1e-9 <= a3 < 0.0

    thetas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    reports = squeezing.squeezing_grid("i", [5.0], thetas, n_max=70)
    i1 = np.array([rep.i1 for rep in reports])
    i2 = np.array([rep.i2 for rep in reports])
    i3 = np.array([rep.i3 for rep in reports])
    i4 = np.array([rep.i4 for rep in reports])
    # out-of-phase by pi: I1(theta + pi) = I2(theta)
    assert np.max(np.abs(np.roll(i1, -64) - i2)) < 1e-8
    assert i1.min() < 0.0 < i1.max() and i2.min() < 0.0 < i2.max()
    # sign alternation of the squared-amplitude pair, quarter-period shift
    assert np.max(np.abs(np.roll(i3, -32) - i4)) < 1e-8
    assert i3.min() < 0.0 < i3.max() and i4.min() < 0.0 < i4.max()

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, "Q > 0, g2 > 1, A3 in witness band, I1/I2 out of phase by pi, "
               "I3/I4 alternate", elapsed)


def test_criterion_4_dual_series_divergence():
    report = iq.dual_series_diagnosis(50)
    assert report.verdict == "divergent"
    assert report.limit_estimate < 1e-6
    _report(4, f"mirror-route series divergent, limit estimate {report.limit_estimate:.2e}")


def test_criterion_5_quadrature_distribution():
    start = time.perf_counter()
    params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
    v = iq.build_state(params)

    xs_int = np.linspace(-8.0, 8.0, 1601)
    for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        p = np.abs(dist.quadrature_wavefunction(v, xs_int, float(phi))) ** 2
        assert abs(np.trapezoid(p, xs_int) - 1.0) < 1e-6

    xs = np.linspace(-5.0, 5.0, 201)
    phis = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    closed = quadrature_distribution_cosine(v, params.theta, xs, phis)
    direct = dist.quadrature_distribution(v, xs, phis)
    assert np.max(np.abs(closed - direct.values)) < 1e-8

    # exactly two dominant phase ridges, near pi/2 and 3 pi/2
    ridge = direct.values.max(axis=0)
    threshold = 0.5 * ridge.max()
    peaks = [
        i
        for i in range(phis.size)
        if ridge[i] > threshold
        and ridge[i] > ridge[i - 1]
        and ridge[i] > ridge[(i + 1) % phis.size]
    ]
    assert len(peaks) == 2
    locations = sorted(phis[i] for i in peaks)
    assert abs(locations[0] - math.pi / 2.0) < 0.35
    assert abs(locations[1] - 3.0 * math.pi / 2.0) < 0.35

    _report(5, "quadrature distribution normalized, dual routes agree, "
               "two dominant ridges", time.perf_counter() - start)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the r = 10, theta = 0.5 state keeps ~7.5e-3 of probability "
    "density just beyond |x| = 3 (largest quadrature variance ~1.25), so "
    "the nominal 1e-3 decay bound cannot hold; the assertion is kept "
    "faithful rather than loosened",
)
def test_criterion_5_amplitude_decay_bound_as_stated():
    params = iq.SqueezeParams(kind="i", r=10.0, theta=0.5, n_max=70)
    xs = np.linspace(-5.0, 5.0, 201)
    phis = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    grid = dist.quadrature_distribution(iq.build_state(params), xs, phis)
    assert grid.values[np.abs(xs) > 3.0, :].max() < 1e-3


def test_criterion_6_quasi_probability():
    start = time.perf_counter()

    vac = iq.basis_vector(3, 3)
    assert dist.quasi_probability(vac, 0j, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-10)

    small_states = [
        iq.build_state(iq.SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0),
                                        theta=math.pi / 4.0, n_max=6)),
        iq.build_state(iq.SqueezeParams(kind="iii", r=0.3, theta=0.4, n_max=6)),
    ]
    probe_points = (0j, 1.0 + 0j, 0.5 - 1.0j, -1.5 + 0.5j, 2.0j, 1.4 + 1.4j)
    worst = 0.0
    for v in small_states:
        for s in (-1.0, 0.0, 0.5):
            for z in probe_points:
                closed = dist.quasi_probability(v, z, s)
                oracle = dist.quasi_probability_fourier(v, z, s)
                worst = max(worst, abs(closed - oracle))
    assert worst < 1e-4

    beta_state = iq.build_state(
        iq.SqueezeParams(kind="i", r=2.0 * math.sqrt(2.0), theta=math.pi / 4.0, n_max=70)
    )
    axis = np.linspace(-4.0, 4.0, 161)
    husimi = dist.quasi_probability_grid(beta_state, axis, axis, -1.0)
    assert husimi.values.min() >= -1e-9
    wigner_like = dist.quasi_probability_grid(beta_state, axis, axis, 0.5)
    assert wigner_like.values.min() < -1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(6, f"closed form vs Fourier oracle to {worst:.2e}, vacuum 2/pi, "
               "Husimi non-negative, s = 0.5 negativity present", elapsed)


def _figure_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parent.parent / "figures.md").read_text()
    commands = re.findall(r"`isosqueeze ([^`]+)`", text)
    seen: dict[str, list[str]] = {}
    for command in commands:
        if command not in seen:
            seen[command] = command.split()
    return list(seen.values())


def test_criterion_7_golden_figures_bit_identical(tmp_path, capsys):
    start = time.perf_counter()
    commands = _figure_commands()
    assert len(commands) >= 8  # every figure is covered
    for argv in commands:
        out_index = argv.index("-o")
        name = argv[out_index + 1]
        first = tmp_path / "run1" / name
        second = tmp_path / "run2" / name
        first.parent.mkdir(exist_ok=True)
        second.parent.mkdir(exist_ok=True)
        for target in (first, second):
            patched = argv.copy()
            patched[out_index + 1] = str(target)
            assert cli_main(patched) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0
    capsys.readouterr()
    _report(7, f"{len(commands)} figure invocations regenerate bit-identically",
            time.perf_counter() - start)
