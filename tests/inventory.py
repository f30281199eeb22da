"""The one table of CLI commands that the goldens, criterion 7, the CLI tests and CI run.

Each entry is a named argv (space-separated, without ``-o``), its exit status, the stderr it
must print (None: not pinned, as argparse's usage wording varies across Python versions),
whether ``tests/golden/`` holds its CSV and the format it writes, csv or json.  ``python
tests/inventory.py OUT`` runs every entry in process with ``-o OUT/<name>.<format>`` and
``RuntimeWarning`` an error, writes ``OUT/<name>.status`` and ``OUT/<name>.stderr`` beside its
outputs, and exits 1 if a status or a pinned stderr differs from the table.  The script imports
the package from its own tree's ``src/``, ahead of ``PYTHONPATH`` and any installed copy, so
``diff -r`` of two such directories checks byte identity: two runs of one tree, or one run per
tree with ``python <tree>/tests/inventory.py OUT``.  ``python tests/inventory.py
--compare BASE NEW`` reads two such directories and prints, for each CSV that differs, how many
cells moved and the largest absolute and relative move per column, and names each JSON file
that differs; it always exits 0.
"""

import contextlib
import csv
import io
import math
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

if __name__ == "__main__":  # a script imports this tree's src/, ahead of PYTHONPATH and any install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from isosqueeze.cli import main  # noqa: E402


class Entry(NamedTuple):
    name: str
    command: str
    status: int = 0
    stderr: str | None = ""
    golden: bool = False
    format: str = "csv"

    @property
    def output(self) -> str:
        """The file name of the entry's table: ``<name>.csv`` or ``<name>.json``."""
        return f"{self.name}.{self.format}"


_FIG8 = "quasiprob --case i --r 2.8284271247461903 --theta 0.7853981633974483"
_G2 = "warning: g2 overflows at r={} (1/mean excitation exceeds the float range)\n"
_A3 = "warning: A3 undefined at r={} (degenerate moments)\n"
_TAIL = "warning: tail_mass {} exceeds 1e-06; {}\n"
_RAISED = "n_max was already raised from {} to 20000"
_HUGE_CELLS = "quasiprob --case i --r 2 --s -1 --x-min -1.7e308 --x-max 1.7e308 --p-steps 3"
_NOT_FINITE = "warning: grid_mass {} is not finite: the cell area dx dp overflows\n"
_HUGE = "error: --{} must be below 2**53, got {}\n"

ENTRIES = [
    # figures.md at its figure parameters, and on reduced grids for the goldens
    Entry("state_i", "state --case i --r 20", golden=True),
    Entry("state_iii", "state --case iii --xi 0.4", golden=True),
    Entry("stats_i", "stats --case i --r-max 31 --r-steps 64", golden=True),
    Entry("stats_iii", "stats --case iii --xi-max 0.9 --xi-steps 64", golden=True),
    Entry("squeeze_i", "squeeze --case i --r-max 31 --r-steps 8 --theta-steps 16", golden=True),
    Entry("squeeze_iii", "squeeze --case iii --xi-max 0.9 --xi-steps 8 --theta-steps 16", golden=True),
    Entry("quad_dist", "quad-dist --r 10 --theta 0.5 --x-steps 41 --phi-steps 32", golden=True),
    Entry("quasi_s05", f"{_FIG8} --x-steps 41 --p-steps 41 --s 0.5", golden=True),
    Entry("quasi_wigner", f"{_FIG8} --x-steps 41 --p-steps 41 --s 0", golden=True),
    Entry("quasi_husimi", f"{_FIG8} --x-steps 41 --p-steps 41 --s -1", golden=True),
    Entry("quasi_iii", "quasiprob --case iii --xi 0.4 --xi-phase 0.7 --s -0.5 --x-steps 41 --p-steps 41",
          golden=True),
    Entry("fig5_squeeze_i", "squeeze --case i --r-max 31 --r-steps 64 --theta-steps 128"),
    Entry("fig6_squeeze_iii", "squeeze --case iii --xi-max 0.9 --xi-steps 64 --theta-steps 128"),
    Entry("fig7_quad_dist", "quad-dist --r 10 --theta 0.5"),
    Entry("fig8_quasi_s05", f"{_FIG8} --s 0.5"),
    Entry("fig8_quasi_wigner", f"{_FIG8} --s 0"),
    Entry("fig8_quasi_husimi", f"{_FIG8} --s -1"),
    # sweeps through every truncation rung (70 to 8960), states of up to ~18k levels
    Entry("stats_iii_rungs_16", "stats --case iii --xi-max 0.999 --xi-steps 16"),
    Entry("stats_iii_rungs_64", "stats --case iii --xi-max 0.999 --xi-steps 64"),
    # grown to the 20000 ceiling, the longest normalized row
    Entry("state_iii_ceiling", "state --case iii --xi 0.9999",
          stderr=_TAIL.format("3.115e-06", _RAISED.format(70))),
    # case iii keeping all 141 levels: the many-argument kernel path
    Entry("quasi_iii_141", "quasiprob --case iii --xi 0.25 --s 0.5"),
    # the phase-space benchmark's case-iii command at seed 0
    Entry("quasi_iii_bench", "quasiprob --case iii --xi 0.4 --xi-phase 0.0 --s 0.0 --x-steps 41 --p-steps 41"),
    # quasiprob axes off centre, and of one point; one-unit cells sample the state too coarsely
    # (81 x 61 points over the same ranges sum to 0.99999)
    Entry("quasi_offcenter", f"{_FIG8} --s 0 --x-min -3 --x-max 5 --p-min -2 --p-max 4 --x-steps 9 --p-steps 7",
          stderr="warning: grid_mass 1.04318 differs from 1 by more than 0.01; the grid misses part of the "
          "support or samples it too coarsely, or the sums lost precision\n"),
    Entry("quasi_one_point", f"{_FIG8} --s 0 --x-steps 1 --p-steps 3"),
    # a fat-tailed state near the Husimi end: L_a^k of 4|z|^2/(1 - s^2) overflows float64 where
    # the weights t^(2a + k) cancel it, while |F| <= 2/(pi (1 - s)); 237 levels kept
    Entry("quasi_iii_near_husimi", "quasiprob --case iii --xi 0.9 --s -0.99 --x-min -6 --x-max 6 "
          "--p-min -6 --p-max 6 --x-steps 41 --p-steps 41"),
    # rows that raise several warnings, in row order; repeated texts are kept once
    Entry("stats_g2_a3", "stats --case iii --xi-max 1e-160 --xi-steps 3", stderr="".join(
        w.format(r) for r in ("3.33333e-161", "6.66667e-161", "1e-160") for w in (_G2, _A3))),
    Entry("stats_tail", "stats --case iii --xi-max 0.9999 --xi-steps 8 --n-max 10",
          stderr=_TAIL.format("3.348e-06", "raise --n-max") + _TAIL.format("1.249e-04", "raise --n-max")
          + _TAIL.format("3.115e-06", _RAISED.format(10))),
    Entry("stats_tiny_r", "stats --case i --r-max 1e-84 --r-steps 2",
          stderr=_A3.format("5e-85") + _A3.format("1e-84")),
    Entry("squeeze_tail", "squeeze --case iii --xi-max 0.9999 --xi-steps 4 --theta-steps 2 --n-max 10",
          stderr=_TAIL.format("3.348e-06", "raise --n-max") + _TAIL.format("3.115e-06", _RAISED.format(10))),
    # the quartic word lowers past a 3-level window: it reads 0
    Entry("squeeze_n_max_1", "squeeze --case i --r-max 2 --r-steps 2 --theta-steps 2 --n-max 1",
          stderr=_TAIL.format("2.079e-03", "raise --n-max") + _TAIL.format("8.264e-03", "raise --n-max")),
    # |x|^2 overflows where the Gaussian weight is 0: P = 0 with no RuntimeWarning
    Entry("quad_dist_far", "quad-dist --r 2 --x-min 1e300 --x-max 1e300 --x-steps 2 --phi-steps 2"),
    # an axis whose high - low overflows is built from its half-width: no nan or inf x key
    Entry("quad_dist_huge_axis", "quad-dist --r 2 --x-min -1e308 --x-max 1e308 --x-steps 3 --phi-steps 2"),
    # a cell area dx dp that overflows: grid_mass is null, with a warning, never NaN or Infinity
    Entry("quasi_huge_cells_nan", f"{_HUGE_CELLS} --x-steps 2", stderr=_NOT_FINITE.format("nan")),
    Entry("quasi_huge_cells_inf", f"{_HUGE_CELLS} --x-steps 3", stderr=_NOT_FINITE.format("inf")),
    # a phase far past 2 pi is read modulo 2 pi: n theta would overflow to a NaN phase
    Entry("state_huge_theta", "state --case i --r 5 --theta 1e308"),
    Entry("stats_huge_xi_phase", "stats --case iii --xi-max 0.5 --xi-steps 2 --xi-phase 1e308"),
    # a negative value in exponent form is a value, not a flag
    Entry("state_negative_huge_theta", "state --case i --r 5 --theta -1e308"),
    # refusals
    Entry("quasi_far", "quasiprob --case i --r 2 --s 0 --x-min 1e200 --x-max 1e200 --x-steps 2 --p-steps 2",
          3, "error: F(z, s) is not finite on this grid at s = 0.0\n"),
    Entry("xi_in_case_i", "state --case i --xi 0.4", 3,
          "error: --xi belongs to --case iii; use --r/--theta with --case i\n"),
    Entry("r_in_case_iii", "state --case iii --r 2", 3,
          "error: --r belongs to --case i; use --xi with --case iii\n"),
    Entry("case_i_no_r", "state --case i", 3, "error: --case i requires --r\n"),
    Entry("case_iii_no_xi", "state --case iii", 3, "error: --case iii requires --xi\n"),
    Entry("xi_max_1", "stats --case iii --xi-max 1", 3, "error: --xi-max must be < 1, got 1.0\n"),
    Entry("r_max_0", "stats --case i --r-max 0", 3, "error: sweep maximum must be positive\n"),
    Entry("r_max_in_case_iii", "stats --case iii --r-max 5", 3,
          "error: --r-max belongs to --case i; use --xi-max with --case iii\n"),
    Entry("theta_minus_inf", "state --case i --r 5 --theta -inf", 3, "error: --theta must be finite, got -inf\n"),
    # integer flags at or above 2**53, where float64 counts and levels are no longer exact
    Entry("verify_algebra_huge_levels", f"verify-algebra --n-low {10**110} --n-high {10**110 + 2}", 3,
          _HUGE.format("n-low", 10**110)),
    Entry("state_huge_n_max", f"state --case i --r 1 --n-max {10**20}", 3, _HUGE.format("n-max", 10**20)),
    Entry("stats_huge_steps", f"stats --case i --r-steps {10**20}", 3, _HUGE.format("r-steps", 10**20)),
    Entry("dual_check_huge_terms", f"dual-check --terms {10**20}", 3, _HUGE.format("terms", 10**20)),
    # usage errors
    Entry("unknown_command", "no-such-command", 2, None),
    Entry("unknown_flag", "state --case i --r 1 --no-such-flag", 2, None),
    Entry("case_ii", "state --case ii --r 1", 2, None),
    Entry("r_not_a_number", "state --case i --r abc", 2, None),
    Entry("missing_case", "state --r 1", 2, None),
    Entry("quad_dist_no_r", "quad-dist --theta 0.5", 2, None),
    # identity labels hold commas: the CSV quotes them, the JSON does not
    Entry("verify_algebra_csv", "verify-algebra --format csv"),
    # JSON output: the reports at their default format, and a table of each writer
    Entry("verify_algebra", "verify-algebra", format="json"),
    Entry("dual_check", "dual-check", format="json"),
    Entry("squeeze_json", "squeeze --case i --r-max 2 --r-steps 2 --theta-steps 3 --format json", format="json"),
    Entry("state_json", "state --case iii --xi 0.4 --format json", format="json"),
]
ENTRY = {entry.name: entry for entry in ENTRIES}


def run(entry: Entry, out: Path) -> list[str]:
    """Run one entry into ``out``; return how its status and stderr differ from the table."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            status = main([*entry.command.split(), "-o", str(out / entry.output)])
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    (out / f"{entry.name}.status").write_text(f"{status}\n")
    (out / f"{entry.name}.stderr").write_text(stderr.getvalue())
    problems = [] if status == entry.status else [f"{entry.name}: exit {status}, want {entry.status}"]
    if entry.stderr not in (None, stderr.getvalue()):
        problems.append(f"{entry.name}: stderr {stderr.getvalue()!r}, want {entry.stderr!r}")
    return problems


def run_all(out: Path) -> list[str]:
    """Run every entry into ``out``, made if missing; return every difference from the table."""
    out.mkdir(parents=True, exist_ok=True)
    return [problem for entry in ENTRIES for problem in run(entry, out)]


def moved_cells(base: Path, new: Path) -> str:
    """How the cells of CSV ``new`` differ from those of ``base``, as one line.

    The number of moved cells, then per moved column its count and the largest |new - old| and
    |new - old| / |old| (inf where old is 0); a column of text gets its count only.
    """
    with base.open(newline="") as old_file, new.open(newline="") as new_file:
        old, now = list(csv.reader(old_file)), list(csv.reader(new_file))
    if old[:1] != now[:1] or len(old) != len(now):
        return f"{new.name}: header or row count differs"
    columns, total = [], 0
    for j, name in enumerate(now[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], now[1:]) if a[j] != b[j]]
        total += len(pairs)
        try:
            moves = [(abs(float(b) - float(a)), float(a)) for a, b in pairs]
        except ValueError:
            columns.append(f"{name} {len(pairs)} (text)")
            continue
        if moves:
            rel = max(d / abs(a) if a else (math.inf if d else 0.0) for d, a in moves)
            columns.append(f"{name} {len(pairs)} max|d| {max(d for d, _ in moves):.3g} rel {rel:.3g}")
    return f"{new.name}: {total} cells moved" + "".join(f"; {c}" for c in columns)


def compare(base: Path, new: Path) -> list[str]:
    """``moved_cells`` of each CSV, and the name of each JSON file (``.meta.json`` included), whose
    bytes differ between output directories ``base`` and ``new``."""
    names = sorted({p.name for out in (base, new) for glob in ("*.csv", "*.json") for p in out.glob(glob)})
    lines = []
    for name in names:
        if not (base / name).exists() or not (new / name).exists():
            lines.append(f"{name}: only in {new if (new / name).exists() else base}")
        elif (base / name).read_bytes() != (new / name).read_bytes():
            lines.append(moved_cells(base / name, new / name) if name.endswith(".csv") else f"{name}: differs")
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        print("\n".join(compare(Path(sys.argv[2]), Path(sys.argv[3]))) or "no CSV or JSON differs")
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/inventory.py OUT_DIR | --compare BASE_DIR NEW_DIR")
    problems = run_all(Path(sys.argv[1]))
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)
