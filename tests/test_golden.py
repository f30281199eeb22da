"""Cross-version regression net: figure commands against committed goldens.

The golden-flagged entries of ``tests/inventory.py`` are `figures.md`
invocations at their figure parameters on reduced grids, plus one
case-iii quasi-probability at a complex amplitude and s < 0.  Every
later version must reproduce the CSVs under ``tests/golden/`` to rtol
1e-10, atol 1e-12 (compared as parsed floats, so last-digit rounding
changes do not fail the net).  Criterion 7 separately checks byte
identity between two runs.

Provenance: the ten figure goldens were recorded from commit fcd252b
(committed in 5368aec), before the ladder-word and API simplification;
``quasi_iii`` was recorded from commit 5ebcc40, before the displaced-
overlap kernel replaced the quasi-probability routes.

To re-record a golden deliberately, after a reviewed change of results,
run ``PYTHONPATH=src python tests/inventory.py OUT`` and copy
``OUT/<name>.csv`` over ``tests/golden/<name>.csv``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import inventory

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDENS = [entry for entry in inventory.ENTRIES if entry.golden]
RTOL, ATOL = 1e-10, 1e-12


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
