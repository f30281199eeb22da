"""Cross-version regression net: figure commands against committed goldens.

Each entry below is a `figures.md` invocation at its figure parameters
on a reduced grid, plus one case-iii quasi-probability at a complex
amplitude and s < 0.  Every later version must reproduce the CSVs
under ``tests/golden/`` to rtol 1e-10, atol 1e-12 (compared as parsed
floats, so last-digit rounding changes do not fail the net).  Criterion
7 separately checks byte identity between two runs.

Provenance: the ten figure goldens were recorded from commit fcd252b
(committed in 5368aec), before the ladder-word and API simplification;
``quasi_iii`` was recorded from commit 5ebcc40, before the displaced-
overlap kernel replaced the quasi-probability routes.

``PYTHONPATH=src python tests/test_golden.py`` records only the goldens
whose file does not exist yet.  To re-record one deliberately, after a
reviewed change of results, delete its file first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from isosqueeze.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL, ATOL = 1e-10, 1e-12

_QUASI_I = ["quasiprob", "--case", "i", "--r", "2.8284271247461903",
            "--theta", "0.7853981633974483", "--x-steps", "41", "--p-steps", "41"]

GOLDEN_COMMANDS = {
    "state_i": ["state", "--case", "i", "--r", "20"],
    "state_iii": ["state", "--case", "iii", "--xi", "0.4"],
    "stats_i": ["stats", "--case", "i", "--r-max", "31", "--r-steps", "64"],
    "stats_iii": ["stats", "--case", "iii", "--xi-max", "0.9", "--xi-steps", "64"],
    "squeeze_i": ["squeeze", "--case", "i", "--r-max", "31", "--r-steps", "8",
                  "--theta-steps", "16"],
    "squeeze_iii": ["squeeze", "--case", "iii", "--xi-max", "0.9", "--xi-steps", "8",
                    "--theta-steps", "16"],
    "quad_dist": ["quad-dist", "--r", "10", "--theta", "0.5", "--x-steps", "41",
                  "--phi-steps", "32"],
    "quasi_s05": [*_QUASI_I, "--s", "0.5"],
    "quasi_wigner": [*_QUASI_I, "--s", "0"],
    "quasi_husimi": [*_QUASI_I, "--s", "-1"],
    "quasi_iii": ["quasiprob", "--case", "iii", "--xi", "0.4", "--xi-phase", "0.7",
                  "--s", "-0.5", "--x-steps", "41", "--p-steps", "41"],
}


def _run(argv: list[str], target: Path) -> None:
    assert cli_main([*argv, "-o", str(target)]) == 0


def _parse(path: Path) -> tuple[str, np.ndarray]:
    header, *lines = path.read_text().splitlines()
    return header, np.array([[float(cell) for cell in line.split(",")] for line in lines])


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_matches_golden(name, tmp_path, capsys):
    target = tmp_path / f"{name}.csv"
    _run(GOLDEN_COMMANDS[name], target)
    capsys.readouterr()
    header, got = _parse(target)
    golden_header, golden = _parse(GOLDEN_DIR / f"{name}.csv")
    assert header == golden_header
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, rtol=RTOL, atol=ATOL)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        path = GOLDEN_DIR / f"{name}.csv"
        if path.exists():
            continue
        _run(argv, path)
        Path(str(path) + ".meta.json").unlink()
        print(f"recorded {path}", file=sys.stderr)
