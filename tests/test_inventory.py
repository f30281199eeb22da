"""The command inventory itself: unique names, figures.md coverage, parseable CSV."""

import csv
import re
from pathlib import Path

from inventory import ENTRIES, ENTRY, run_all

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique():
    assert len(ENTRY) == len(ENTRIES)


def test_every_figures_md_command_is_an_entry():
    figures = set(re.findall(r"`isosqueeze ([^`]+?)(?: -o [^`\s]+)?`", (ROOT / "figures.md").read_text()))
    assert len(figures) >= 8  # every figure is covered
    assert figures <= {entry.command for entry in ENTRIES}


def test_every_csv_parses_at_its_header_width(tmp_path):
    assert run_all(tmp_path) == []
    for path in tmp_path.glob("*.csv"):
        with path.open(newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows and {len(row) for row in rows} == {len(header)}, path.name
