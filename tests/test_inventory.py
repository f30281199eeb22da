"""The command inventory itself: unique names, figures.md coverage, parseable CSV, the output comparison."""

import csv
import re
from pathlib import Path

from inventory import ENTRIES, ENTRY, compare, run_all

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


def test_compare_lists_moved_cells_per_column(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    for out, rows in ((base, ["1,0.5,a", "2,0,b"]), (new, ["1,0.25,a", "2,1e-3,c"])):
        out.mkdir()
        (out / "same.csv").write_text("r,v,s\n1,2,x\n")
        (out / "moved.csv").write_text("\n".join(["r,v,s", *rows]) + "\n")
        (out / "same.json").write_text('{"rows": [["1"]]}\n')
        (out / "moved.json").write_text('{"rows": [["%s"]]}\n' % out.name)
    (new / "extra.csv").write_text("r\n1\n")
    assert compare(base, new) == [
        f"extra.csv: only in {new}",
        "moved.csv: 3 cells moved; v 2 max|d| 0.25 rel inf; s 1 (text)",
        "moved.json: differs",
    ]
