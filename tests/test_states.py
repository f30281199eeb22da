import math

import numpy as np
import pytest

import isosqueeze as iq
from isosqueeze import states
from conftest import amplitudes_mp, squeezed_norm_closed_form


def _norm_constant(params):
    """N of the closed-form expansion from |c_3| of the built state.

    The leading unnormalized term is 1 on case iii and 1/sqrt(2! 3!) on case i.
    """
    lead = abs(iq.build_state(params).amps[0])
    return lead * math.sqrt(12.0) if params.kind == "i" else lead


class TestNonlinearBuilder:
    def test_zero_amplitude_is_effective_vacuum(self):
        v = iq.build_state(iq.SqueezeParams(kind="i", r=0.0))
        assert v.amps[0] == 1.0
        assert np.all(v.amps[1:] == 0.0)

    def test_norm_constant_at_zero(self):
        # lone n = 0 term of the normalization series is 1/(2! 3!) = 1/12
        n_beta = _norm_constant(iq.SqueezeParams(kind="i", r=0.0))
        assert n_beta == pytest.approx(math.sqrt(12.0), rel=1e-12)

    def test_even_support(self, nonlinear_r20):
        assert np.all(nonlinear_r20.amps[1::2] == 0.0)
        assert np.count_nonzero(nonlinear_r20.amps[::2]) > 30

    def test_unit_norm(self, nonlinear_r20):
        assert abs(np.linalg.norm(nonlinear_r20.amps) - 1.0) < 1e-12

    def test_amplitude_ratio_recurrence(self):
        # |c_{2(n+1)+3} / c_{2n+3}|^2 against the explicit ratio law
        r = 7.5
        v = iq.build_state(iq.SqueezeParams(kind="i", r=r, n_max=40))
        even = v.amps[::2]
        for n in range(0, 25):
            got = abs(even[n + 1] / even[n]) ** 2
            expected = (
                (r * r / (4.0 * (n + 1.0) ** 2))
                * ((2 * n + 2.0) * (2 * n + 1.0) / ((2 * n + 4.0) * (2 * n + 3.0) * (2 * n + 5.0)))
                * (1.0 / (2 * n + 4.0))
            )
            assert got == pytest.approx(expected, rel=1e-10)

    def test_phase_enters_through_power(self):
        flat = iq.build_state(iq.SqueezeParams(kind="i", r=5.0, n_max=30))
        spun = iq.build_state(iq.SqueezeParams(kind="i", r=5.0, theta=0.8, n_max=30))
        n_idx = np.arange(31)
        assert np.allclose(spun.amps[::2], flat.amps[::2] * np.exp(1j * 0.8 * n_idx), atol=1e-14)


class TestUnitaryBuilder:
    def test_zero_is_effective_vacuum(self):
        v = iq.build_state(iq.SqueezeParams(kind="iii", r=0.0))
        assert v.amps[0] == 1.0
        assert _norm_constant(iq.SqueezeParams(kind="iii", r=0.0)) == 1.0

    def test_norm_constant_series_vs_closed_form(self):
        params = iq.SqueezeParams(kind="iii", r=0.4, n_max=70)
        assert _norm_constant(params) == pytest.approx(
            squeezed_norm_closed_form(0.4), abs=1e-10
        )

    def test_norm_constant_deep_squeezing(self):
        params = iq.SqueezeParams(kind="iii", r=0.9, n_max=300)
        assert _norm_constant(params) == pytest.approx(
            squeezed_norm_closed_form(0.9), abs=1e-8
        )

    def test_matches_textbook_squeezed_vacuum(self):
        xi, phase = 0.55, 0.9
        v = iq.build_state(iq.SqueezeParams(kind="iii", r=xi, theta=phase, n_max=200))
        r_s = math.atanh(xi)
        n_idx = np.arange(201)
        log_mag = (
            n_idx * math.log(math.tanh(r_s))
            - n_idx * math.log(2.0)
            - np.array([math.lgamma(k + 1) for k in n_idx])
            + 0.5 * np.array([math.lgamma(2 * k + 1) for k in n_idx])
        )
        textbook = np.exp(log_mag) * np.exp(1j * phase * n_idx) / math.sqrt(math.cosh(r_s))
        assert np.allclose(v.amps[::2], textbook, atol=1e-10)

    def test_radius_violation(self):
        with pytest.raises(states.RadiusViolation):
            iq.SqueezeParams(kind="iii", r=1.0)

    def test_auto_raise_controls_tail(self):
        v = iq.build_state(iq.SqueezeParams(kind="iii", r=0.9, n_max=70))
        assert v.tail_bound < 1e-10
        assert v.amps.size > 2 * 70 + 1  # truncation was raised

    def test_one_vector_per_rung(self, monkeypatch):
        # one assembly of the one row per rung, and one vector at the end
        assembled, made = [], []
        assemble = states._assemble

        def counting(kind, r, theta, n_max):
            assembled.append((len(r), n_max))
            return assemble(kind, r, theta, n_max)

        class Counting(states.FockVector):
            def __post_init__(self):
                made.append(self.amps.size)
                super().__post_init__()

        monkeypatch.setattr(states, "_assemble", counting)
        monkeypatch.setattr(states, "FockVector", Counting)
        v = iq.build_state(iq.SqueezeParams(kind="iii", r=0.999, n_max=70))
        rungs = [70 * 2**j for j in range(8)]  # 70 .. 8960
        assert v.n_max_effective == rungs[-1]
        assert assembled == [(1, n) for n in rungs]
        assert made == [2 * rungs[-1] + 1]

    def test_tail_bound_recorded(self, unitary_xi04):
        assert 0.0 <= unitary_xi04.tail_bound < 1e-12


class TestSweepValidation:
    """``build_sweep`` refuses a sweep exactly as the single state of its first bad modulus."""

    @staticmethod
    def _refusal(kind, r, theta=0.0, n_max=70):
        with pytest.raises(ValueError) as exc:
            states.SqueezeParams(kind, r, theta, n_max)
        return exc.value

    @pytest.mark.parametrize("kind, bad", [
        ("i", math.nan), ("i", -0.5), ("i", math.inf), ("iii", math.nan), ("iii", -1e-300),
        ("iii", 1.0), ("iii", 1.5),
    ])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_first_bad_modulus_raises_as_a_single_state(self, kind, bad, where):
        moduli = [0.1, 0.2, 0.3, 0.4, 0.5]
        moduli[where] = bad
        moduli.append(-2.0)  # a later bad modulus must not be the one reported
        want = self._refusal(kind, bad)
        with pytest.raises(type(want)) as exc:
            states.build_sweep(kind, np.array(moduli))
        assert type(exc.value) is type(want)
        assert str(exc.value) == str(want)

    @pytest.mark.parametrize("theta, n_max", [(math.nan, 70), (0.0, 0)])
    def test_parameters_of_every_row_are_checked_at_the_first(self, theta, n_max):
        # theta and n_max fail every row, so the first modulus names the refusal
        want = self._refusal("i", 0.1, theta, n_max)
        with pytest.raises(type(want)) as exc:
            states.build_sweep("i", [0.1, -1.0], theta, n_max)
        assert str(exc.value) == str(want)

    def test_bad_kind(self):
        want = self._refusal("ii", 0.1)
        with pytest.raises(type(want)) as exc:
            states.build_sweep("ii", [0.1, math.nan])
        assert str(exc.value) == str(want)

    def test_empty_sweep_is_not_validated(self):
        assert states.build_sweep("iii", [], math.nan, 0) == []


class TestUnitNorm:
    """Every built row has sum_n |c_n|^2 = 1 within a rounding bound derived from its evaluation."""

    @staticmethod
    def _rounding_bound(probs, peak):
        """First-order bound on |sum_n |c_n|^2 - 1| for one row of ``_assemble`` (theta = 0).

        u = 2^-53, and numpy's float64 exp and log are taken within 1 ulp (the tolerance of
        numpy's own accuracy tests), at most 2u relative: C_F = 2.  With d_n = 2 ln|c_n| - peak
        and S = sum_n e^{d_n} <= n, |d_n| <= |ln p_n| + ln n, and the errors are:
        - each term e^{d_n} of S: the subtraction and exp, u |d_n| + C_F u;
        - summing S in any order: (n - 1) u of S;
        - ln N = -(peak + ln S) / 2, doubled: u |peak + ln S| + C_F u ln S;
        - each p_n = |e^{ln|c_n| + ln N}|^2: the addition, exp and square, u |ln p_n| + 2 C_F u + u;
        - the fsum of the check: u.
        The per-term errors weigh in by p_n; underflowed terms (p_n = 0) add at most n 2^-1074,
        and the second-order terms stay below n^2 u^2 < 1e-23 at n <= 20001.
        """
        u, c_f, n = 2.0 ** -53, 2, probs.size
        held = probs[probs > 0.0]
        weighted = np.sum(held * np.abs(np.log(held)))
        return u * (n + 2.0 * weighted + abs(peak) + (c_f + 2) * math.log(n) + 3 * c_f + 1)

    @pytest.mark.parametrize("kind, moduli, longest", [
        ("i", np.linspace(31.0 / 64, 31.0, 64), 71),          # stats --case i --r-max 31
        ("i", np.linspace(1e-84 / 64, 1e-84, 64), 71),        # stats --case i --r-max 1e-84
        ("iii", np.linspace(0.9 / 64, 0.9, 64), 141),         # stats --case iii --xi-max 0.9
        ("iii", np.linspace(0.999 / 64, 0.999, 64), 8961),    # stats --case iii --xi-max 0.999
        ("iii", [0.9999], 20001),                             # state --case iii --xi 0.9999: the ceiling
        ("i", [0.0, 5.0], 71),                                # r = 0: zeros after the peak
        ("iii", [0.0, 0.5], 71),
    ], ids=["r31", "r1e-84", "xi0.9", "xi0.999", "xi0.9999", "i_zero", "iii_zero"])
    def test_every_sweep_rung_has_unit_norm(self, kind, moduli, longest):
        r = np.asarray(moduli, dtype=float)
        rungs = states.build_sweep(kind, r)
        assert max(rung.amps.shape[1] for rung in rungs) == longest
        for rung in rungs:
            n_idx = np.arange(rung.n_max + 1)
            peaks = 2.0 * states._log_terms(kind, r[rung.rows], n_idx).max(axis=1)
            for amps, peak in zip(rung.amps, peaks):
                probs = np.abs(amps) ** 2
                assert abs(math.fsum(probs.tolist()) - 1.0) <= self._rounding_bound(probs, peak)


class TestAmplitudeOracle:
    """build_state against both laws at 50 digits, out to extreme modulus."""

    @pytest.mark.parametrize(
        "kind, r, n_max, rel",
        [
            ("i", 1e-3, 70, 1e-11),
            ("i", 31.0, 70, 1e-11),
            ("i", 1e3, 70, 1e-11),
            ("i", 1e3, 200, 1e-11),
            ("iii", 0.5, 70, 1e-11),
            ("iii", 0.999, 70, 1e-8),  # grown to n_max 8960
        ],
    )
    def test_matches_mpmath(self, kind, r, n_max, rel):
        v = iq.build_state(iq.SqueezeParams(kind=kind, r=r, theta=0.7, n_max=n_max))
        want = amplitudes_mp(kind, r, 0.7, v.n_max_effective)
        got = v.amps[::2]
        keep = np.abs(want) > 1e-250
        assert np.max(np.abs(got[keep] - want[keep]) / np.abs(want[keep])) < rel
        assert np.all(v.amps[1::2] == 0.0)
        # the top 5 retained levels hold the even offsets of n_max - 2 .. n_max
        tail = float(np.sum(np.abs(want[-3:]) ** 2))
        assert v.tail_bound == pytest.approx(tail, rel=1e-9, abs=1e-300)


class TestDualSeries:
    def test_first_ratio(self):
        report = iq.dual_series_diagnosis(5)
        assert report.x_seq[0] == pytest.approx(1.0 / 120.0, rel=1e-14)

    def test_tenth_ratio(self):
        report = iq.dual_series_diagnosis(10)
        assert report.x_seq[9] == pytest.approx(20.0 / (19.0 * 21.0 * 484.0 * 23.0), rel=1e-14)

    def test_divergent_at_fifty_terms(self):
        report = iq.dual_series_diagnosis(50)
        assert report.verdict == "divergent"
        assert report.limit_estimate < 1e-6
        assert np.all(np.diff(report.x_seq) < 0.0)

    def test_short_run_stays_inconclusive(self):
        assert iq.dual_series_diagnosis(5).verdict == "convergent"

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            iq.dual_series_diagnosis(1)


class TestParams:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            iq.SqueezeParams(kind="ii", r=0.1)

    def test_rejects_negative_modulus(self):
        with pytest.raises(ValueError):
            iq.SqueezeParams(kind="i", r=-0.5)

    @pytest.mark.parametrize(
        "kind, r, theta",
        [("i", math.nan, 0.0), ("i", math.inf, 0.0), ("i", 1.0, math.nan), ("iii", 0.5, -math.inf)],
    )
    def test_rejects_non_finite(self, kind, r, theta):
        with pytest.raises(ValueError):
            iq.SqueezeParams(kind=kind, r=r, theta=theta)
