"""Cross-version regression net: figure commands against committed goldens.

The golden-flagged entries of ``tests/inventory.py`` are `figures.md`
invocations at their figure parameters on reduced grids, plus one
case-iii quasi-probability at a complex amplitude and s < 0.  Every
later version must reproduce the CSVs under ``tests/golden/`` to rtol
1e-10, atol 1e-12 (compared as parsed floats, so last-digit rounding
changes do not fail the net).  Criterion 7 separately checks byte
identity between two runs.

The goldens of the moment sweeps and the states are also checked
against exact values, each cell to its 12-digit print: case i from the
one 1F4 of ``conftest.case_i_moments``, case iii, the squeezed vacuum
in nu, from its closed forms <nu> = xi^2 / (1 - xi^2), Q = 2 <nu> + 1,
g2 = 3 + 1 / <nu> and ``conftest.unitary_probability``; its witnesses
and Gaussian F from ``conftest.unitary_witnesses`` and
``conftest.unitary_quasi_probability``.

Provenance: the ten figure goldens were recorded from commit fcd252b
(committed in 5368aec), before the ladder-word and API simplification;
``quasi_iii`` was recorded from commit 5ebcc40, before the displaced-
overlap kernel replaced the quasi-probability routes.

To re-record a golden deliberately, after a reviewed change of results,
run ``python tests/inventory.py OUT`` and copy
``OUT/<name>.csv`` over ``tests/golden/<name>.csv``.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

import inventory
from conftest import (
    case_i_moments,
    quasi_rounding_allowance,
    unitary_probability,
    unitary_quasi_probability,
    unitary_witnesses,
)
from isosqueeze import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDENS = [entry for entry in inventory.ENTRIES if entry.golden]
RTOL, ATOL = 1e-10, 1e-12
# %.12g keeps 12 significant digits, so a printed cell lies within 5e-12 of its computed value,
# relative; the exact checks allow as much again for the computation's own error
PRINT_RTOL = 1e-11
# stats_iii rows (from 0) at xi 0.8156..0.8578 (n_max 70) and 0.9 (n_max 140), whose moments
# the truncation misses by more than the print: up to 4.8e-8 (Q at xi 0.8578)
STATS_III_TAIL_ROWS = (57, 58, 59, 60, 63)
# the squeeze_iii entry's own axes; the printed theta's 12 digits would move a cell by up to 1e-12
SQUEEZE_III_XI = np.linspace(0.9 / 8, 0.9, 8)
SQUEEZE_III_THETA = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
# the xi = 0.9 row (n_max 140), whose I1..I4 the truncation misses by 3.1e-11 relative
SQUEEZE_III_TAIL_ROW = 7


def _parse(path: Path) -> tuple[str, np.ndarray]:
    header, *lines = path.read_text().splitlines()
    return header, np.array([[float(cell) for cell in line.split(",")] for line in lines])


@pytest.mark.parametrize("entry", GOLDENS, ids=[entry.name for entry in GOLDENS])
def test_matches_golden(entry, tmp_path):
    assert inventory.run(entry, tmp_path) == []
    header, got = _parse(tmp_path / f"{entry.name}.csv")
    golden_header, golden = _parse(GOLDEN_DIR / f"{entry.name}.csv")
    assert header == golden_header
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, rtol=RTOL, atol=ATOL)


def test_golden_entries_match_golden_files():
    assert {path.stem for path in GOLDEN_DIR.glob("*.csv")} == {entry.name for entry in GOLDENS}


def _cells(name: str) -> list[dict[str, str]]:
    """The rows of ``tests/golden/<name>.csv`` as their printed texts, keyed by column."""
    header, *lines = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _rel_gap(text: str, exact) -> float:
    """|printed cell - exact| / |exact|, taken at 40 digits."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(text) - exact) / abs(exact))


def _unitary_stats(xi_text: str) -> dict:
    """Exact meanK0, Q and g2 of the case-iii state at the printed modulus."""
    with mpmath.workdps(40):
        xi = mpmath.mpf(xi_text)
        mean = xi**2 / (1 - xi**2)
        return {"meanK0": mean, "Q": 2 * mean + 1, "g2": 3 + 1 / mean}


def test_stats_i_cells_match_hypergeometric_oracle():
    # A3 stays out until its moment-matrix definition is fixed
    for row in _cells("stats_i"):
        _, m = case_i_moments(float(row["r"]), 40)
        with mpmath.workdps(40):
            exact = {"meanK0": m[0], "Q": m[1] / m[0] - m[0], "g2": m[1] / m[0] ** 2}
        for column, want in exact.items():
            assert _rel_gap(row[column], want) <= PRINT_RTOL, (row["r"], column)


def test_state_i_probabilities_match_hypergeometric_oracle():
    # state --case i --r 20 (r^2/4 = 100) keeps n <= 70; the mass beyond is below its last cell, 5e-312
    norm, _ = case_i_moments(20.0, 40)
    f = mpmath.factorial
    with mpmath.workdps(40):
        for row in _cells("state_i"):
            n = (int(row["level"]) - 3) // 2
            exact = 100**n * f(2 * n) / (f(2 * n + 2) * f(2 * n + 3) * f(n) ** 2) / norm
            assert _rel_gap(row["prob"], exact) <= PRINT_RTOL, row["level"]


def test_state_iii_probabilities_match_closed_form():
    for row in _cells("state_iii"):
        exact = unitary_probability((int(row["level"]) - 3) // 2, 0.4)
        assert _rel_gap(row["prob"], exact) <= PRINT_RTOL, row["level"]


def test_stats_iii_cells_match_closed_forms():
    for k, row in enumerate(_cells("stats_iii")):
        if k not in STATS_III_TAIL_ROWS:
            for column, exact in _unitary_stats(row["r"]).items():
                assert _rel_gap(row[column], exact) <= PRINT_RTOL, (k, column)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: the truncation target bounds the dropped mass, not the dropped "
    "moments, so sum_{nu > N} nu^j P_nu moves meanK0, Q and g2 of these rows past their print",
)
def test_stats_iii_tail_rows_match_closed_forms():
    rows = _cells("stats_iii")
    gaps = {
        (k, column): _rel_gap(rows[k][column], exact)
        for k in STATS_III_TAIL_ROWS
        for column, exact in _unitary_stats(rows[k]["r"]).items()
    }
    assert max(gaps.values()) <= PRINT_RTOL, gaps


def _squeeze_iii_gaps(xi_index: int) -> dict:
    """|printed - exact| / |exact| of I1..I4 in one xi row of ``squeeze_iii.csv``, keyed (theta, column)."""
    xi, width = SQUEEZE_III_XI[xi_index], SQUEEZE_III_THETA.size
    gaps = {}
    for row, theta in zip(_cells("squeeze_iii")[xi_index * width:(xi_index + 1) * width], SQUEEZE_III_THETA):
        assert (row["r"], row["theta"]) == ("%.12g" % xi, "%.12g" % theta)
        for column, exact in zip(("I1", "I2", "I3", "I4"), unitary_witnesses(xi, theta)):
            gaps[theta, column] = _rel_gap(row[column], exact)
    return gaps


def test_squeeze_iii_cells_match_closed_forms():
    for k in range(SQUEEZE_III_XI.size):
        if k != SQUEEZE_III_TAIL_ROW:
            gaps = _squeeze_iii_gaps(k)
            assert max(gaps.values()) <= PRINT_RTOL, (k, gaps)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: the truncation target bounds the dropped mass, not the dropped "
    "moments, so the xi = 0.9 row's m_1, m_2 and ladder words move I1..I4 past their print",
)
def test_squeeze_iii_tail_row_matches_closed_forms():
    gaps = _squeeze_iii_gaps(SQUEEZE_III_TAIL_ROW)
    assert max(gaps.values()) <= PRINT_RTOL, gaps


def test_quasi_iii_cells_match_gaussian(tmp_path):
    """Each F cell within PRINT_RTOL |F|, the entry's ``kernel_error_bound`` and the rounding
    allowance; the corner cells, near 1.7e-27, leave a relative check alone nothing to spare."""
    (entry,) = [entry for entry in GOLDENS if entry.name == "quasi_iii"]
    assert inventory.run(entry, tmp_path) == []
    meta = json.loads((tmp_path / f"{entry.output}.meta.json").read_text())
    assert (meta["xi"], meta["xi_phase"], meta["s"]) == (0.4, 0.7, -0.5)
    assert meta["grid"] == {"x": [-4.0, 4.0, 41], "p": [-4.0, 4.0, 41]}
    axis = cli._symmetric_axis(-4.0, 4.0, 41)
    exact = unitary_quasi_probability(0.4, 0.7, -0.5, axis, axis).ravel()
    rows = _cells("quasi_iii")
    assert [(row["x"], row["p"]) for row in rows] == [("%.12g" % x, "%.12g" % p) for x in axis for p in axis]
    printed = np.array([float(row["F"]) for row in rows])
    tol = PRINT_RTOL * np.abs(exact) + meta["kernel_error_bound"] + quasi_rounding_allowance(-0.5)
    assert np.all(np.abs(printed - exact) <= tol)
