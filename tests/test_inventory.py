"""The command inventory itself: unique names, figures.md coverage, parseable CSV, the metadata
key order, the output comparison."""

import csv
import json
import re
from pathlib import Path

from inventory import ENTRIES, ENTRY, compare, run_all

ROOT = Path(__file__).resolve().parent.parent

# (command, case) -> the keys of its metadata, in order; a JSON payload adds columns and rows
_N_MAX = ["n_max", "n_max_effective"]
_QUASI = ["s", *_N_MAX, "grid", "kernel_levels", "kernel_error_bound", "grid_mass", "warnings"]
META_KEYS = {
    ("state", "i"): ["command", "case", "r", "theta", *_N_MAX, "tail_bound", "warnings"],
    ("state", "iii"): ["command", "case", "xi", "xi_phase", *_N_MAX, "tail_bound", "warnings"],
    ("stats", "i"): ["command", "case", "max", "steps", *_N_MAX, "warnings"],
    ("stats", "iii"): ["command", "case", "max", "steps", *_N_MAX, "warnings"],
    ("squeeze", "i"): ["command", "case", "max", "steps", "theta_steps", *_N_MAX, "warnings"],
    ("squeeze", "iii"): ["command", "case", "max", "steps", "theta_steps", *_N_MAX, "warnings"],
    ("quad-dist", "i"): ["command", "case", "r", "theta", *_N_MAX, "grid", "warnings"],
    ("quasiprob", "i"): ["command", "case", "r", "theta", *_QUASI],
    ("quasiprob", "iii"): ["command", "case", "xi", "xi_phase", *_QUASI],
    ("verify-algebra", None): ["command", "levels", "max_deviation", "casimir_peak", "warnings"],
    ("dual-check", None): ["command", "terms", "limit_estimate", "verdict", "warnings"],
}


def test_names_are_unique():
    assert len(ENTRY) == len(ENTRIES)


def test_every_figures_md_command_is_an_entry():
    figures = set(re.findall(r"`isosqueeze ([^`]+?)(?: -o [^`\s]+)?`", (ROOT / "figures.md").read_text()))
    assert len(figures) >= 8  # every figure is covered
    assert figures <= {entry.command for entry in ENTRIES}


def _refuse_constant(token):
    """A ``json.loads`` ``parse_constant`` hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"non-JSON token {token}")


def test_every_csv_parses_at_its_header_width(tmp_path):
    assert run_all(tmp_path) == []
    for path in tmp_path.glob("*.csv"):
        with path.open(newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows and {len(row) for row in rows} == {len(header)}, path.name
    seen = set()
    for path in tmp_path.glob("*.json"):  # the .meta.json files and the JSON payloads
        meta = json.loads(path.read_text(), parse_constant=_refuse_constant)
        keys, command = list(meta), (meta["command"], meta.get("case"))
        if not path.name.endswith(".meta.json"):
            assert keys[-2:] == ["columns", "rows"], path.name
            keys = keys[:-2]
        assert keys == META_KEYS[command], path.name
        seen.add(command)
    assert seen == set(META_KEYS)


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
