import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isosqueeze
from isosqueeze import states, stats
from isosqueeze.cli import _Output, main


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
        builds = []
        assemble = states._assemble

        def counting(params, log_terms_fn):
            builds.append(params)
            return assemble(params, log_terms_fn)

        monkeypatch.setattr(states, "_assemble", counting)
        code, _, _ = _run(capsys, "quad-dist", "--r", "10", "--x-steps", "5", "--phi-steps", "4")
        assert code == 0
        assert len(builds) == 1


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
        def broken(v):
            raise ValueError("internal failure")

        monkeypatch.setattr(stats, "excitation_moments", broken)
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
        rows = [(k, "label,with comma", v, -v) for k, v in enumerate(values)]
        out = _Output(command="t", columns=("n", "s", "a", "b"), rows=rows)
        expected = ["n,s,a,b"] + [
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) for row in rows
        ]
        assert out.csv_text() == "\n".join(expected) + "\n"

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
