import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpmath
from hypothesis import given, settings, strategies as st

import isosqueeze
from isosqueeze import cli, dist, squeezing, states, stats
from isosqueeze.cli import _Output, build_parser, main
from conftest import amplitudes_mp, quasi_probability_mp
from inventory import ENTRIES, ENTRY, run

EPS = np.finfo(float).eps

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_unitary_zero_is_single_row(self, capsys):
        code, out, _ = _run(capsys, "state", "--case", "iii", "--xi", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,re,im,prob"
        assert lines[1:] == ["3,1,0,1"]

    def test_nonlinear_zero_is_single_row(self, capsys):
        code, out, _ = _run(capsys, "state", "--case", "i", "--r", "0")
        assert code == 0
        assert out.strip().splitlines()[1:] == ["3,1,0,1"]

    def test_even_levels_only(self, capsys):
        code, out, _ = _run(capsys, "state", "--case", "i", "--r", "20", "--n-max", "40")
        levels = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert all((lev - 3) % 2 == 0 for lev in levels)

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, "state", "--case", "iii", "--xi", "0.4", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "state"
        assert payload["warnings"] == []
        assert payload["columns"] == ["level", "re", "im", "prob"]

    def test_file_output_with_metadata(self, tmp_path, capsys):
        target = tmp_path / "state.csv"
        code, out, _ = _run(capsys, "state", "--case", "iii", "--xi", "0.4", "-o", str(target))
        assert code == 0 and out == ""
        assert target.exists()
        meta = json.loads((target.with_suffix(".csv.meta.json")).read_text())
        assert meta["command"] == "state"
        assert meta["n_max"] == 70

    def test_tail_warning_surfaced(self, tmp_path, capsys):
        target = tmp_path / "state.csv"
        code, _, err = _run(
            capsys, "state", "--case", "i", "--r", "25", "--n-max", "4", "-o", str(target)
        )
        assert code == 0  # warnings are data, not failures
        meta = json.loads((target.with_suffix(".csv.meta.json")).read_text())
        assert any("tail_mass" in w for w in meta["warnings"])

    def test_reports_effective_truncation(self, tmp_path, capsys):
        # xi = 0.9999 drives the builder from n_max 70 to its ceiling
        runs = {
            "state": ["state", "--case", "iii", "--xi", "0.9999"],
            "stats": ["stats", "--case", "iii", "--xi-max", "0.9999", "--xi-steps", "2"],
            "quasiprob": ["quasiprob", "--case", "iii", "--xi", "0.9999", "--s", "-0.5",
                          "--x-steps", "2", "--p-steps", "2"],
        }
        for name, argv in runs.items():
            target = tmp_path / f"{name}.csv"
            code, _, err = _run(capsys, *argv, "-o", str(target))
            assert code == 0
            meta = json.loads((target.with_suffix(".csv.meta.json")).read_text())
            assert meta["n_max"] == 70
            assert meta["n_max_effective"] == states._AUTO_N_MAX_CEILING
            tail = [w for w in meta["warnings"] if "tail_mass" in w]
            assert tail and not any("raise --n-max" in w for w in tail)
            assert "raise --n-max" not in err


class TestStatsCommand:
    def test_nonlinear_sweep_columns(self, capsys):
        code, out, _ = _run(
            capsys, "stats", "--case", "i", "--r-max", "31", "--r-steps", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,meanK0,Q,g2,A3"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 8
        assert all(row[2] > 0.0 for row in rows)       # Q > 0
        assert all(row[3] > 1.0 for row in rows)       # g2 > 1
        assert all(-1.0 - 1e-9 <= row[4] < 0.0 for row in rows)

    def test_grid_excludes_zero(self, capsys):
        _, out, _ = _run(capsys, "stats", "--case", "iii", "--xi-max", "0.8", "--xi-steps", "4")
        rows = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert rows[0] == pytest.approx(0.2)
        assert rows[-1] == pytest.approx(0.8)

    def test_one_moment_table_per_point(self, capsys, monkeypatch):
        # one moments row per sweep point, however the points split into truncation rungs
        calls = []
        moments = stats.moments

        def counted(p, nu):
            calls.append((p.shape[0], len(nu)))
            return moments(p, nu)

        monkeypatch.setattr(stats, "moments", counted)
        code, out, _ = _run(capsys, "stats", "--case", "i", "--r-max", "31", "--r-steps", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 5
        assert calls == [(5, 71)]
        calls.clear()
        code, out, _ = _run(capsys, "stats", "--case", "iii", "--xi-max", "0.999", "--xi-steps", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 8
        assert sum(rows for rows, _ in calls) == 8
        levels = [n for _, n in calls]
        assert len(calls) > 1 and levels == sorted(set(levels))  # one call per rung

    def test_g2_finite_where_mean_squared_underflows(self, tmp_path, capsys):
        # m_1 ~ 1e-171, so m_1^2 underflows; g2 must still match 50 digits
        target = tmp_path / "g.csv"
        code, _, err = _run(capsys, "stats", "--case", "i", "--r-max", "1e-84", "--r-steps", "2",
                            "-o", str(target))
        assert code == 0
        assert "RuntimeWarning" not in err
        rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
        assert len(rows) == 2
        for r_text, _, _, g2_text, _ in rows:
            amps = amplitudes_mp("i", float(r_text), 0.0, 70)
            with mpmath.workdps(50):
                p = [abs(mpmath.mpc(a)) ** 2 for a in amps]
                m1 = mpmath.fsum(2 * n * pn for n, pn in enumerate(p))
                m2 = mpmath.fsum(2 * n * (2 * n - 1) * pn for n, pn in enumerate(p))
                want = float(m2 / m1**2)
            assert float(g2_text) == pytest.approx(want, rel=1e-11)
        meta = json.loads(Path(str(target) + ".meta.json").read_text())
        assert not [w for w in meta["warnings"] if "g2" in w]

    def test_g2_overflow_named_in_warning(self, tmp_path, capsys):
        # at xi ~ 1e-161 the mean excitation is subnormal and g2 ~ 1/m_1 overflows
        target = tmp_path / "g.csv"
        code, _, err = _run(capsys, "stats", "--case", "iii", "--xi-max", "1e-160",
                            "-o", str(target))
        assert code == 0
        assert "RuntimeWarning" not in err
        warnings = json.loads(Path(str(target) + ".meta.json").read_text())["warnings"]
        rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
        overflowed = [r for r, _, _, g2, _ in rows if math.isinf(float(g2))]
        assert overflowed
        for r in overflowed:
            assert f"g2 overflows at r={float(r):.6g} (1/mean excitation exceeds the float range)" in warnings
        for r, _, _, g2, _ in rows:
            if math.isnan(float(g2)):
                assert f"Q/g2 undefined at r={float(r):.6g} (zero mean excitation)" in warnings


class TestSqueezeCommand:
    def test_columns_and_grid_shape(self, capsys):
        code, out, _ = _run(
            capsys, "squeeze", "--case", "i", "--r-max", "5", "--r-steps", "2",
            "--theta-steps", "4", "--n-max", "50",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,theta,I1,I2,I3,I4"
        assert len(lines) == 1 + 2 * 4

    @pytest.mark.parametrize("xi_max, steps, effective", [("0.9", "8", 140), ("0.9999", "1", 20000)])
    def test_reports_effective_truncation(self, tmp_path, capsys, xi_max, steps, effective):
        # the top modulus raises n_max from 70: once at xi 0.9, to the ceiling at 0.9999
        target = tmp_path / "squeeze.csv"
        code, _, err = _run(capsys, "squeeze", "--case", "iii", "--xi-max", xi_max,
                            "--xi-steps", steps, "--theta-steps", "4", "-o", str(target))
        assert code == 0
        meta = json.loads((target.with_suffix(".csv.meta.json")).read_text())
        assert meta["n_max"] == 70
        assert meta["n_max_effective"] == effective
        tail = [w for w in meta["warnings"] if "tail_mass" in w]
        assert len(tail) == (effective == states._AUTO_N_MAX_CEILING)
        assert all("n_max was already raised from 70 to 20000" in w for w in tail)
        assert "raise --n-max" not in err


    def test_one_build_sweep_per_command(self, capsys, monkeypatch):
        # the whole (r, theta) grid, every rung included, is one sweep build
        calls = []
        build_sweep = states.build_sweep

        def counted(kind, moduli, *args, **kwargs):
            calls.append(len(moduli))
            return build_sweep(kind, moduli, *args, **kwargs)

        for module in (states, squeezing, cli):
            monkeypatch.setattr(module, "build_sweep", counted)
        for case, flag, top in (("i", "--r-max", "31"), ("iii", "--xi-max", "0.9")):
            calls.clear()
            code, out, _ = _run(capsys, "squeeze", "--case", case, flag, top,
                                "--r-steps" if case == "i" else "--xi-steps", "8",
                                "--theta-steps", "4")
            assert code == 0
            assert len(out.strip().splitlines()) == 1 + 8 * 4
            assert calls == [8]

    @pytest.mark.parametrize("grid", ["--case i --r-max 31 --r-steps 8", "--case iii --xi-max 0.9 --xi-steps 8"])
    def test_quadrature_sum_is_four_stats_means(self, capsys, grid):
        """Printed I1 + I2 = 4 meanK0 of ``stats`` on the same grid, in every theta column.

        I1 + I2 = 4 <R L> exactly on the builders' even support, and both commands read
        <R L> as the m_1 of the same ``stats.moments`` rows.  ``%.12g`` rounds each printed
        value x to within half a unit of its 12th significant digit, at most 5e-12 |x|;
        8 EPS of the same magnitudes covers the float sums on both sides and this test's
        own arithmetic.
        """
        code, out, _ = _run(capsys, "stats", *grid.split())
        assert code == 0
        means = {row["r"]: float(row["meanK0"]) for row in csv.DictReader(io.StringIO(out))}
        code, out, _ = _run(capsys, "squeeze", *grid.split(), "--theta-steps", "16")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8 * 16 and {row["r"] for row in rows} == set(means)
        for row in rows:
            i1, i2, mean = float(row["I1"]), float(row["I2"]), means[row["r"]]
            scale = abs(i1) + abs(i2) + 4.0 * abs(mean)
            assert abs(i1 + i2 - 4.0 * mean) <= (5e-12 + 8.0 * EPS) * scale


class TestWarningOrder:
    """The exact warnings and truncation of commands whose rows raise several flags."""

    EFFECTIVE = {"stats_g2_a3": 70, "stats_tail": 20000, "stats_tiny_r": 70, "squeeze_tail": 20000}

    @pytest.mark.parametrize("name", EFFECTIVE)
    def test_pinned_warnings(self, tmp_path, capsys, name):
        target = tmp_path / "w.csv"
        code, _, err = _run(capsys, *ENTRY[name].command.split(), "-o", str(target))
        assert (code, err) == (0, ENTRY[name].stderr)
        meta = json.loads(Path(f"{target}.meta.json").read_text())
        assert err == "".join(f"warning: {w}\n" for w in meta["warnings"])
        assert meta["n_max_effective"] == self.EFFECTIVE[name]


class TestQuadDistCommand:
    def test_grid_emission(self, capsys):
        code, out, _ = _run(
            capsys, "quad-dist", "--r", "10", "--theta", "0.5",
            "--x-steps", "5", "--phi-steps", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,phi,P"
        assert len(lines) == 1 + 5 * 4
        assert all(float(line.split(",")[2]) >= 0.0 for line in lines[1:])


    def test_builds_one_state(self, capsys, monkeypatch):
        assembled = []
        assemble = states._assemble

        def counting(kind, r, theta, n_max):
            assembled.append(len(r))
            return assemble(kind, r, theta, n_max)

        monkeypatch.setattr(states, "_assemble", counting)
        code, _, _ = _run(capsys, "quad-dist", "--r", "10", "--x-steps", "5", "--phi-steps", "4")
        assert code == 0
        assert assembled == [1]  # one rung of one row


class TestQuasiprobCommand:
    def test_vacuum_wigner_value(self, capsys):
        code, out, _ = _run(
            capsys, "quasiprob", "--case", "iii", "--xi", "0", "--s", "0",
            "--x-min", "0", "--x-max", "0", "--x-steps", "1",
            "--p-min", "0", "--p-max", "0", "--p-steps", "1",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_s_validation(self, capsys):
        code, _, err = _run(capsys, "quasiprob", "--case", "iii", "--xi", "0.3", "--s", "1.0")
        assert code == 3
        assert "error" in err

    @staticmethod
    def _grid(capsys, *argv):
        code, out, _ = _run(capsys, "quasiprob", *argv, "--x-steps", "41", "--p-steps", "41")
        assert code == 0
        return np.array([float(line.split(",")[2]) for line in out.strip().splitlines()[1:]])

    def test_finite_near_husimi_endpoint(self, capsys):
        # 4|z|^2 / (1 - s^2) is large here; the Laguerre sweeps must stay finite
        fig8 = ["--case", "i", "--r", "2.8284271247461903", "--theta", "0.7853981633974483"]
        unitary = self._grid(capsys, "--case", "iii", "--xi", "0.9", "--s", "-0.99")
        near = self._grid(capsys, *fig8, "--s", "-0.999999")
        husimi = self._grid(capsys, *fig8, "--s", "-1")
        assert np.all(np.isfinite(unitary)) and unitary.size == 41 * 41
        assert np.all(np.isfinite(near))
        assert np.max(np.abs(near - husimi)) < 1e-6


    def test_near_husimi_grid_matches_a_40_digit_sum(self, tmp_path):
        # the inventory's grid whose Laguerre values overflow float64 (1332 of its 1681 points
        # read NaN with a table of L_a^k); 4 such points and the peak, against the Cahill-Glauber
        # form of F.  The cut moves F by at most kernel_error_bound, and rounding by a few ulp
        # of the bound 2/(pi (1 - s)) on |F|
        argv = ENTRY["quasi_iii_near_husimi"].command.split()
        assert main([*argv, "-o", str(tmp_path / "q.csv")]) == 0
        s = -0.99
        v = isosqueeze.build_state(isosqueeze.SqueezeParams(kind="iii", r=0.9, theta=0.0))
        axis = cli._symmetric_axis(-6.0, 6.0, 41)
        grid = dist.quasi_probability_grid(v, axis, axis, s)
        assert grid.kernel_levels == 237
        for i, j in [(20, 20), (0, 0), (10, 30), (5, 20), (33, 14)]:
            want = quasi_probability_mp(v.amps, complex(axis[i], axis[j]), s)
            scale = 2.0 / (math.pi * (1.0 - s))
            assert abs(grid.values[i, j] - want) <= grid.kernel_error_bound + 4.0 * EPS * scale

    @pytest.mark.parametrize("s, levels", [("0.5", 25), ("0", 19), ("-1", 19)])
    def test_kernel_levels_and_bound_in_meta(self, tmp_path, capsys, s, levels):
        # the figure-8 command: the levels the phase-space kernel kept and the bound their cut met
        fig8 = ["--case", "i", "--r", "2.8284271247461903", "--theta", "0.7853981633974483"]
        target = tmp_path / "q.csv"
        code, _, _ = _run(capsys, "quasiprob", *fig8, "--s", s, "-o", str(target))
        assert code == 0
        meta = json.loads(Path(str(target) + ".meta.json").read_text())
        assert meta["kernel_levels"] == levels
        assert 0.0 < meta["kernel_error_bound"] <= 1e-16 * 2.0 / (math.pi * (1.0 - float(s)))

    @pytest.mark.parametrize("s, flagged", [("0.5", False), ("0.99", True)])
    def test_grid_mass_reported_and_flagged(self, tmp_path, capsys, s, flagged):
        # the fig-8 state sums to 3.1e11 on the default grid at s = 0.99
        fig8 = ["--case", "i", "--r", "2.8284271247461903", "--theta", "0.7853981633974483"]
        target = tmp_path / "q.csv"
        code, _, err = _run(capsys, "quasiprob", *fig8, "--s", s, "-o", str(target))
        assert code == 0
        meta = json.loads(Path(str(target) + ".meta.json").read_text())
        assert (abs(meta["grid_mass"] - 1.0) > 1e-2) is flagged
        assert ("warning: grid_mass" in err) is flagged
        assert any(w.startswith("grid_mass") for w in meta["warnings"]) is flagged

    @staticmethod
    def _distinct_arguments(xs, ps):
        # the kernel's Laguerre arguments are |mu|^2 = |2z|^2 at s = 0, formed as the sum
        # of the two squares: scaling by 2 is exact, and the sum is the same both ways round
        xs, ps = np.asarray(xs), np.asarray(ps)
        return np.unique(xs[:, None] ** 2 + ps[None, :] ** 2).size

    def test_mirror_points_share_one_sweep(self, tmp_path, sweep_widths):
        # the phase-space benchmark's case-iii command: every Clenshaw sweep of its 41 x 41
        # points runs over the distinct |z|^2 of the grid.  On exactly symmetric axes the
        # mirror images of the quadrant x, p >= 0 add none, and transposed points share their
        # x^2 + p^2, so the width is the quadrant's count over unordered pairs (222 with numpy
        # 2.4.6 on x86-64); np.linspace's -3.8 and 3.8000000000000007 leave mirrors apart
        argv = ENTRY["quasi_iii_bench"].command.split()
        assert main([*argv, "-o", str(tmp_path / "q.csv")]) == 0
        axis = cli._symmetric_axis(-4.0, 4.0, 41)
        i, j = np.triu_indices(21)
        unordered = np.unique(axis[20:][i] ** 2 + axis[20:][j] ** 2).size
        assert set(sweep_widths) == {unordered}
        assert unordered == self._distinct_arguments(axis, axis) < 21 * 22 // 2
        linspace = np.linspace(-4.0, 4.0, 41)
        assert self._distinct_arguments(linspace, linspace) > 21 * 22 // 2

    @pytest.mark.parametrize("name", [e.name for e in ENTRIES if e.command.startswith("quasiprob") and not e.status])
    def test_axis_text_is_linspace_text(self, tmp_path, name):
        # the symmetric axes print as np.linspace of the same flags, cell for cell
        entry = ENTRY[name]
        assert run(entry, tmp_path) == []
        args = build_parser().parse_args(entry.command.split())
        xs, ps = (["%.12g" % v for v in np.linspace(low, high, steps)]
                  for low, high, steps in ((args.x_min, args.x_max, args.x_steps),
                                           (args.p_min, args.p_max, args.p_steps)))
        with (tmp_path / f"{name}.csv").open(newline="") as handle:
            rows = [row[:2] for row in csv.reader(handle)][1:]
        assert rows == [[x, p] for x in xs for p in ps]


class TestSymmetricAxis:
    @pytest.mark.parametrize("low, high, steps", [
        (-4.0, 4.0, 41), (-4.0, 4.0, 161), (-4.0, 4.0, 40), (4.0, -4.0, 9), (-7.3, 7.3, 100),
        (-1e-300, 1e-300, 7), (-3.0, 5.0, 9), (-3.0, 5.0, 8), (-2.0, 4.0, 7), (-1e15, 3.0, 13),
        (2.5, 2.5, 4), (-1.7976931348623157e308, 1.7976931348623157e308, 6),
    ])
    def test_exactly_symmetric_with_exact_endpoints(self, low, high, steps):
        axis = cli._symmetric_axis(low, high, steps)
        mid = 0.5 * low + 0.5 * high
        assert axis.size == steps and axis[0] == low and axis[-1] == high
        assert np.array_equal(axis - mid, -(axis - mid)[::-1])  # bit for bit
        assert np.all(np.isfinite(axis))  # np.linspace's high - low overflows at the largest float

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(2, 400))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exact_endpoints_near_linspace(self, low, high, steps):
        axis = cli._symmetric_axis(low, high, steps)
        assert axis[0] == low and axis[-1] == high
        reference = np.linspace(low, high, steps)
        assert np.max(np.abs(axis - reference)) <= 3 * math.ulp(max(abs(low), abs(high)))

    @given(st.floats(1e-300, 1e300), st.integers(2, 400))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_plus_minus_axes_are_odd(self, half, steps):
        axis = cli._symmetric_axis(-half, half, steps)
        assert np.array_equal(axis, -axis[::-1])

    @given(st.integers(-2**51, 2**51), st.integers(-2**51, 2**51), st.integers(2, 400))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_integer_endpoints_symmetric_about_midpoint(self, low, high, steps):
        axis = cli._symmetric_axis(float(low), float(high), steps)
        mid = 0.5 * low + 0.5 * high
        assert np.array_equal(axis - mid, -(axis - mid)[::-1])

    @pytest.mark.parametrize("low, high", [(-4.0, 4.0), (2.0, -7.0), (3.0, 3.0)])
    def test_one_point_is_low(self, low, high):
        assert np.array_equal(cli._symmetric_axis(low, high, 1), [low])


class TestJsonMatchesCsv:
    @pytest.mark.parametrize("argv", [
        ["quasiprob", "--case", "i", "--r", "2.8284271247461903", "--theta", "0.7853981633974483",
         "--s", "0.5", "--x-steps", "7", "--p-steps", "5"],
        ["quasiprob", "--case", "iii", "--xi", "0.4", "--s", "-1", "--x-steps", "1", "--p-steps", "3"],
        ["squeeze", "--case", "i", "--r-max", "31", "--r-steps", "3", "--theta-steps", "4"],
        ["squeeze", "--case", "iii", "--xi-max", "0.9999", "--xi-steps", "2", "--theta-steps", "3",
         "--n-max", "10"],
    ])
    def test_rows_cell_for_cell(self, tmp_path, capsys, argv):
        target = tmp_path / "t.csv"
        assert main([*argv, "-o", str(target)]) == 0
        capsys.readouterr()
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        header, *lines = target.read_text().splitlines()
        assert payload["columns"] == header.split(",")
        assert payload["rows"] == [line.split(",") for line in lines]
        meta = json.loads(Path(f"{target}.meta.json").read_text())
        assert {k: v for k, v in payload.items() if k not in ("columns", "rows")} == meta


class TestVerifyAlgebraCommand:
    def test_json_report(self, capsys):
        code, out, _ = _run(capsys, "verify-algebra", "--n-high", "40")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_deviation"] < 1e-10
        assert payload["casimir_peak"] < 1e-9

    def test_high_levels(self, capsys):
        # float Casimir terms pass 2^53 there; the orderings must still agree
        code, out, _ = _run(capsys, "verify-algebra", "--n-low", "1000000", "--n-high", "1000002")
        assert code == 0
        assert json.loads(out)["casimir_peak"] == 0.0


class TestDualCheckCommand:
    def test_divergent_verdict(self, capsys):
        code, out, _ = _run(capsys, "dual-check", "--terms", "50")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "divergent"
        assert payload["limit_estimate"] < 1e-6


class TestValidation:
    def test_radius_violation_exits_3(self, capsys):
        code, _, err = _run(capsys, "state", "--case", "iii", "--xi", "1.5")
        assert code == 3
        assert "error" in err

    def test_mixed_parameter_groups_exit_3(self, capsys):
        code, _, err = _run(capsys, "state", "--case", "i", "--xi", "0.4")
        assert code == 3
        code, _, err = _run(capsys, "state", "--case", "iii", "--r", "2.0")
        assert code == 3

    def test_missing_required_parameter(self, capsys):
        code, _, _ = _run(capsys, "state", "--case", "i")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--case", "i", "--r-steps", "0"],
            ["squeeze", "--case", "i", "--r-max", "5", "--r-steps", "2", "--theta-steps", "0"],
            ["state", "--case", "i", "--r", "nan"],
            ["quasiprob", "--case", "i", "--r", "2", "--s", "nan"],
            ["stats", "--case", "i", "--r-max", "inf"],
            ["quasiprob", "--case", "iii", "--xi", "0.5", "--s", "0.5"],
            ["quad-dist", "--r", "2", "--x-min", "nan"],
            ["state", "--case", "i", "--r", "-1"],
            ["state", "--case", "i", "--r", "2", "--n-max", "0"],
            ["dual-check", "--terms", "1"],
            ["verify-algebra", "--n-low", "5", "--n-high", "6"],
            ["verify-algebra", "--n-low", "1"],
            ["quasiprob", "--case", "i", "--r", "1", "--s", "0.999"],
            ["quasiprob", "--case", "i", "--r", "20", "--s", "0.99999",
             "--x-steps", "3", "--p-steps", "3"],
        ],
        ids=["r_steps_0", "theta_steps_0", "r_nan", "s_nan", "r_max_inf", "xi_beyond_s_bound",
             "x_min_nan", "r_negative", "n_max_0", "terms_1", "levels_too_close",
             "n_low_below_base", "s_near_1_nan_grid", "s_near_1_overflow"],
    )
    def test_bad_input_exits_3(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "error" in err

    def test_case_iii_inside_s_bound_accepted(self, capsys):
        # (1 - s)/(1 + s) = 1/3 at s = 0.5
        code, out, _ = _run(
            capsys, "quasiprob", "--case", "iii", "--xi", "0.3", "--s", "0.5",
            "--x-steps", "3", "--p-steps", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 3

    def test_internal_value_error_propagates(self, monkeypatch, capsys):
        # a ValueError from inside a computation is a bug, not a refusal
        def broken(p, nu):
            raise ValueError("internal failure")

        monkeypatch.setattr(stats, "moments", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["stats", "--case", "i", "--r-max", "5", "--r-steps", "2"])

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["stats", "--case", "i", "--r-max", "31", "--r-steps", "16"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_twelve_digit_format(self, capsys):
        _, out, _ = _run(capsys, "state", "--case", "iii", "--xi", "0.4")
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == f"{math.sqrt(math.sqrt(0.84)):.12g}"

    def test_row_template_matches_per_value_format(self):
        # the per-value formatting the row template replaced
        values = [0.0, -0.0, 5e-324, -2.2e-308, math.inf, -math.inf, math.nan, 1.0 / 3.0,
                  123456789012.5, np.float64(2.0) / 3.0, -1e300]
        # cell text with % must print as itself, never act as a format; with , or " the CSV
        # column is quoted and its quotes doubled (RFC 4180), the JSON text left as it is
        rows = [(k, 'label,with "comma" %s %d %%', v, -v) for k, v in enumerate(values)]
        out = _Output(command="t", columns=("n", "s", "a", "b"), cells=[c for row in rows for c in row])
        text = [[f"{v:.12g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
        assert out.csv_text() == "\n".join(["n,s,a,b"] + [
            ",".join([n, '"label,with ""comma"" %s %d %%"', *rest]) for n, _, *rest in text]) + "\n"
        assert list(csv.reader(io.StringIO(out.csv_text())))[1:] == text
        assert out.json_payload()["rows"] == text

    def test_grid_rows_match_per_value_format(self):
        axis1 = [-0.0, 5e-324, 1.0 / 3.0]
        axis2 = np.array([0.0, -1e300, 2.5])
        special = [math.inf, -math.inf, math.nan, -0.0, 2.2e-310, 5e-324, 1.0 / 3.0, -7.0, 1e-5]
        values = np.array(special).reshape(3, 3)
        cells = cli._grid_rows(axis1, axis2, values, -values)
        out = _Output(command="t", columns=("x", "y", "v", "w"), cells=cells)
        expected = ["x,y,v,w"] + [
            f"{a:.12g},{b:.12g},{values[i, j]:.12g},{-values[i, j]:.12g}"
            for i, a in enumerate(axis1) for j, b in enumerate(axis2)
        ]
        assert out.csv_text() == "\n".join(expected) + "\n"
        assert out.json_payload()["rows"] == [line.split(",") for line in expected[1:]]
        # a string cell beside the grid's cells: text with % and , is copied, not interpreted
        label = _Output(command="t", columns=("x", "y", "v", "w", "s"),
                        cells=cli._cells(cells[0::4], cells[1::4], cells[2::4], cells[3::4],
                                         ["100% sure, %s"] * 9))
        assert label.csv_text() == "\n".join(
            [f"{expected[0]},s"] + [f'{line},"100% sure, %s"' for line in expected[1:]]) + "\n"

    def test_n_max_flag_bounds_levels(self, capsys):
        code, out, _ = _run(capsys, "state", "--case", "i", "--r", "3", "--n-max", "5")
        assert code == 0
        levels = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert max(levels) <= 13


class TestModuleEntryPoint:
    def test_subprocess_invocation(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(isosqueeze.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "isosqueeze.cli", "dual-check", "--terms", "50"],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "divergent"


class TestParserReuse:
    """``main`` builds its parser once per process; reuse must not leak state between calls."""

    COMMANDS = [
        ["state", "--case", "iii", "--xi", "0.4"],
        ["stats", "--case", "i", "--r-max", "5", "--r-steps", "4", "--theta", "0.3"],
        ["stats", "--case", "iii", "--xi-max", "0.95", "--xi-steps", "3"],
        ["squeeze", "--case", "i", "--r-max", "5", "--r-steps", "2", "--theta-steps", "3"],
        ["quasiprob", "--case", "i", "--r", "2", "--s", "-1", "--x-steps", "3", "--p-steps", "3"],
        ["dual-check", "--terms", "5", "--format", "csv"],
    ]

    def test_in_process_calls_match_fresh_processes(self, tmp_path, capsys):
        src = str(Path(isosqueeze.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for k, argv in enumerate(self.COMMANDS):
            here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
            assert main([*argv, "-o", str(here)]) == 0
            proc = subprocess.run([sys.executable, "-m", "isosqueeze.cli", *argv, "-o", str(fresh)],
                                  capture_output=True, timeout=120, env=env)
            assert proc.returncode == 0
            assert here.read_bytes() == fresh.read_bytes()
            assert Path(f"{here}.meta.json").read_bytes() == Path(f"{fresh}.meta.json").read_bytes()
        capsys.readouterr()

    def test_usage_error_after_success_exits_2(self, capsys):
        assert build_parser() is build_parser()
        assert main(["dual-check", "--terms", "5"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--case", "i", "--no-such-flag"])
        assert exc.value.code == 2
        # the parser still serves the next call, defaults included
        assert main(["stats", "--case", "i", "--r-steps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r,meanK0,Q,g2,A3" and len(lines) == 3
        assert lines[2].startswith("31,")


# (option strings, type, choices, required, help, default) of every action but -h.
# ROUTED marks a default that comes from the --case route: TestRouteDefaults pins those.
ROUTED = object()
_OUT = [(("-o", "--output"), None, None, False, "output path (default: stdout)", None),
        (("--format",), None, ("csv", "json"), False, None, "csv"),
        (("--n-max",), int, None, False, "half-index truncation; top level is 2 n_max + 3", 70)]
_CASE = [(("--case",), None, ("i", "iii"), True,
          "i: non-unitary route (beta); iii: unitary route (xi)", None)]
_POINT = [(("--r",), float, None, False, "modulus of beta (case i)", None),
          (("--theta",), float, None, False, "phase of beta (case i)", ROUTED),
          (("--xi",), float, None, False, "modulus of xi (case iii, < 1)", None),
          (("--xi-phase",), float, None, False, "phase of xi (case iii)", ROUTED)]
_R_SWEEP = [(("--r-max",), float, None, False, None, ROUTED),
            (("--r-steps",), int, None, False, None, ROUTED)]
_XI_SWEEP = [(("--xi-max",), float, None, False, None, ROUTED),
             (("--xi-steps",), int, None, False, None, ROUTED)]
_REPORT_OUT = [(("-o", "--output"), None, None, False, None, None),
               (("--format",), None, ("csv", "json"), False, None, "json")]


def _axis(name, low, high, steps):
    return [((f"--{name}-min",), float, None, False, None, low),
            ((f"--{name}-max",), float, None, False, None, high),
            ((f"--{name}-steps",), int, None, False, None, steps)]


PARSER_INVENTORY = {
    "state": ("amplitude table of one state", _OUT + _CASE + _POINT),
    "stats": ("sweep meanK0, Q, g2, A3 over the modulus",
              _OUT + _CASE + _R_SWEEP + [(("--theta",), float, None, False, None, ROUTED)]
              + _XI_SWEEP + [(("--xi-phase",), float, None, False, None, ROUTED)]),
    "squeeze": ("I1..I4 witnesses over an (r, theta) grid",
                _OUT + _CASE + _R_SWEEP + _XI_SWEEP
                + [(("--theta-steps",), int, None, False, None, 128)]),
    "quad-dist": ("quadrature distribution P(x, phi), case i",
                  _OUT + [(("--r",), float, None, True, None, None),
                          (("--theta",), float, None, False, None, 0.0)]
                  + _axis("x", -5.0, 5.0, 201) + [(("--phi-steps",), int, None, False, None, 256)]),
    "quasiprob": ("s-parameterized quasi-probability F(x, p)",
                  _OUT + _CASE + _POINT
                  + [(("--s",), float, None, False, "ordering parameter, < 1", 0.0)]
                  + _axis("x", -4.0, 4.0, 161) + _axis("p", -4.0, 4.0, 161)),
    "verify-algebra": ("commutator and Casimir deviation report",
                       _REPORT_OUT + [(("--n-low",), int, None, False, None, 3),
                                      (("--n-high",), int, None, False, None, 60)]),
    "dual-check": ("divergence diagnostic of the mirror-route series",
                   _REPORT_OUT + [(("--terms",), int, None, False, None, 50)]),
}


class TestParserInventory:
    """Every subcommand's flags, read from the parser: the CLI surface, independent of help layout."""

    @staticmethod
    def _subcommands():
        parser = build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return parser, subs

    def test_subcommands_in_help_order(self):
        parser, subs = self._subcommands()
        assert parser.prog == "isosqueeze"
        assert subs.dest == "command" and subs.required
        assert [(a.dest, a.help) for a in subs._choices_actions] == [
            (name, help_text) for name, (help_text, _) in PARSER_INVENTORY.items()]

    @pytest.mark.parametrize("name", list(PARSER_INVENTORY))
    def test_flags(self, name):
        _, subs = self._subcommands()
        actions = [a for a in subs.choices[name]._actions if not isinstance(a, argparse._HelpAction)]
        got = [(tuple(a.option_strings), a.type, a.choices and tuple(a.choices), a.required, a.help,
                a.default) for a in actions]
        want = PARSER_INVENTORY[name][1]
        assert [row[:5] for row in got] == [row[:5] for row in want]
        for row, expected in zip(got, want):
            if expected[5] is not ROUTED:
                assert (row[0], row[5], type(row[5])) == (expected[0], expected[5], type(expected[5]))


class TestRouteDefaults:
    """The defaults of the route-owned flags, as each route's minimal command records them."""

    CASES = [
        (["stats", "--case", "i"], {"max": 31.0, "steps": 64}),
        (["stats", "--case", "iii"], {"max": 0.9, "steps": 64}),
        (["squeeze", "--case", "i", "--theta-steps", "1"], {"max": 31.0, "steps": 64}),
        (["squeeze", "--case", "iii", "--theta-steps", "1"], {"max": 0.9, "steps": 64}),
        (["state", "--case", "i", "--r", "2"], {"r": 2.0, "theta": 0.0}),
        (["state", "--case", "iii", "--xi", "0.4"], {"xi": 0.4, "xi_phase": 0.0}),
        (["quasiprob", "--case", "i", "--r", "2", "--x-steps", "1", "--p-steps", "1"],
         {"r": 2.0, "theta": 0.0}),
        (["quasiprob", "--case", "iii", "--xi", "0.4", "--x-steps", "1", "--p-steps", "1"],
         {"xi": 0.4, "xi_phase": 0.0}),
    ]

    @pytest.mark.parametrize("argv, pinned", CASES, ids=[" ".join(argv[:3]) for argv, _ in CASES])
    def test_meta_records_route_default(self, tmp_path, capsys, argv, pinned):
        target = tmp_path / "d.csv"
        assert main([*argv, "-o", str(target)]) == 0
        capsys.readouterr()
        meta = json.loads(Path(f"{target}.meta.json").read_text())
        assert meta["case"] == argv[2]
        for key, value in pinned.items():
            assert (meta[key], type(meta[key])) == (value, type(value))
        if "xi" in pinned:  # a case-iii point is named by its own flags only
            assert "r" not in meta and "theta" not in meta


class TestExitCodes:
    """Usage errors exit 2 from argparse; refusals exit 3 with the inventory's exact message."""

    @pytest.mark.parametrize("name", [entry.name for entry in ENTRIES if entry.status == 2])
    def test_usage_error_exits_2(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(ENTRY[name].command.split())
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", [entry.name for entry in ENTRIES if entry.status == 3])
    def test_refusal_exits_3_with_message(self, capsys, name):
        code, out, err = _run(capsys, *ENTRY[name].command.split())
        assert (code, out, err) == (3, "", ENTRY[name].stderr)


class TestCrossRouteRefusal:
    """A flag of the other route, when given, is refused by name instead of being dropped."""

    CASES = [
        (["state", "--case", "iii", "--xi", "0.4", "--theta", "1.0"], "--theta", "--xi-phase"),
        (["state", "--case", "iii", "--xi", "0.4", "--theta", "0"], "--theta", "--xi-phase"),
        (["state", "--case", "i", "--r", "2", "--xi-phase", "1.0"], "--xi-phase", "--theta"),
        (["stats", "--case", "iii", "--r-max", "5", "--r-steps", "2"], "--r-max", "--xi-max"),
        (["stats", "--case", "iii", "--r-steps", "2"], "--r-steps", "--xi-steps"),
        (["stats", "--case", "iii", "--theta", "0.3"], "--theta", "--xi-phase"),
        (["stats", "--case", "i", "--xi-max", "0.5"], "--xi-max", "--r-max"),
        (["stats", "--case", "i", "--xi-steps", "2"], "--xi-steps", "--r-steps"),
        (["stats", "--case", "i", "--xi-phase", "0.3"], "--xi-phase", "--theta"),
        (["squeeze", "--case", "iii", "--r-max", "5", "--theta-steps", "2"], "--r-max", "--xi-max"),
        (["squeeze", "--case", "iii", "--r-steps", "2", "--theta-steps", "2"],
         "--r-steps", "--xi-steps"),
        (["squeeze", "--case", "i", "--xi-max", "0.5", "--theta-steps", "2"], "--xi-max", "--r-max"),
        (["squeeze", "--case", "i", "--xi-steps", "2", "--theta-steps", "2"],
         "--xi-steps", "--r-steps"),
        (["quasiprob", "--case", "iii", "--xi", "0.3", "--theta", "0.5"], "--theta", "--xi-phase"),
        (["quasiprob", "--case", "i", "--r", "2", "--xi-phase", "0.5"], "--xi-phase", "--theta"),
    ]

    @pytest.mark.parametrize("argv, flag, instead", CASES,
                             ids=[f"{argv[0]}_{argv[2]}_{flag[2:]}_{k}" for k, (argv, flag, _)
                                  in enumerate(CASES)])
    def test_other_route_flag_exits_3(self, capsys, argv, flag, instead):
        case = argv[2]
        other = "i" if case == "iii" else "iii"
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {flag} belongs to --case {other}; use {instead} with --case {case}\n"
