"""The table of hand-seeded mutants and the test that must catch each.

Each entry names a file under the repository root, an exact string that occurs in it once, the
string that replaces it, and the pytest node expected to fail with the change in place; an entry
with ``survives`` set is a mutant no test catches yet, with the reason.  ``python
tests/mutants.py`` copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
runs every named node there once unmutated (they must pass), then, for each mutant, applies it to
a fresh copy and runs only its node.  The checkout is never written.  It exits 1 if an old string
does not occur exactly once, if a node fails unmutated, if a mutant expected to be caught
survives, or if a listed survivor is caught (the table is then stale); otherwise 0.  It takes
about 30 s on a 2-core x86-64 machine: a CI step, not a tier-1 test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    node: str
    survives: str | None = None


MUTANTS = [
    Mutant("kernel tolerance 1e-16 -> 1e-9", "src/isosqueeze/dist.py",
           "_KERNEL_TOL = 1e-16", "_KERNEL_TOL = 1e-9",
           "tests/test_cli.py::TestQuasiprobCommand::test_kernel_levels_and_bound_in_meta"),
    Mutant("tail window 5 -> 1", "src/isosqueeze/states.py",
           "TAIL_WINDOW = 5", "TAIL_WINDOW = 1",
           "tests/test_fock.py::TestTailDiagnostics::test_unitary_tail_small"),
    Mutant("grid mass warning threshold -> 1.0", "src/isosqueeze/cli.py",
           "MASS_WARN_THRESHOLD = 1e-2", "MASS_WARN_THRESHOLD = 1.0",
           "tests/test_cli.py::TestQuasiprobCommand::test_axis_text_is_linspace_text[quasi_offcenter]"),
    Mutant("N- coefficient x (1 + 1e-9)", "src/isosqueeze/algebra.py",
           '"N-": (-1, lambda n: np.sqrt(n * (n - 1.0) * (n - 3.0))),',
           '"N-": (-1, lambda n: np.sqrt(n * (n - 1.0) * (n - 3.0)) * (1.0 + 1e-9)),',
           "tests/test_algebra.py::TestCommutators::test_report_tight"),
    Mutant("N+ coefficient x (1 + 1e-9)", "src/isosqueeze/algebra.py",
           '"N+": (+1, lambda n: np.sqrt((n + 1.0) * n * (n - 2.0))),',
           '"N+": (+1, lambda n: np.sqrt((n + 1.0) * n * (n - 2.0)) * (1.0 + 1e-9)),',
           "tests/test_algebra.py::TestCasimir::test_vanishes_through_sixty"),
    Mutant("Laguerre tail bound exponent 0.5 -> 0.25", "src/isosqueeze/dist.py",
           "log_b.append(log_b[-1] + 0.5 * math.log(rho))",
           "log_b.append(log_b[-1] + 0.25 * math.log(rho))",
           "tests/test_cli.py::TestQuasiprobCommand::test_near_husimi_grid_matches_a_40_digit_sum"),
    Mutant("eta (2A + eta) without the factor 2", "src/isosqueeze/dist.py",
           "np.logaddexp(math.log(2.0) + log_eta[0], log_eta)", "np.logaddexp(log_eta[0], log_eta)",
           "tests/test_dist.py::TestQuasiProbability::test_kernel_error_bound_is_eta_two_a_plus_eta"),
    Mutant("reported kernel_error_bound halved", "src/isosqueeze/dist.py",
           "kernel_error_bound=2.0 / (math.pi * (1.0 - s)) * bound)",
           "kernel_error_bound=1.0 / (math.pi * (1.0 - s)) * bound)",
           "tests/test_dist.py::TestQuasiProbability::test_kernel_error_bound_is_eta_two_a_plus_eta"),
    Mutant("norm row sum x (1 + 2.5e-12), above the largest derived rounding bound 2.23e-12",
           "src/isosqueeze/states.py",
           "np.log(np.exp(log_sq - peak[:, None]).sum(axis=1))",
           "np.log(np.exp(log_sq - peak[:, None]).sum(axis=1) * (1.0 + 2.5e-12))",
           "tests/test_states.py::TestUnitNorm::test_every_sweep_rung_has_unit_norm[xi0.9999]"),
    Mutant("CSV value cells %.12g -> %.11g", "src/isosqueeze/cli.py",
           '",%.12g" * len(columns)', '",%.11g" * len(columns)',
           "tests/test_cli.py::TestReproducibility::test_twelve_digit_format"),
    Mutant("CSV key and axis texts %.12g -> %.11g", "src/isosqueeze/cli.py",
           '"%.12g".__mod__', '"%.11g".__mod__',
           "tests/test_cli.py::TestReproducibility::test_row_template_matches_per_value_format"),
    Mutant("figure metadata n_max ahead of the head", "src/isosqueeze/cli.py",
           'meta={"case": kind, **head, "n_max": args.n_max}', 'meta={"case": kind, "n_max": args.n_max, **head}',
           "tests/test_inventory.py::test_every_csv_parses_at_its_header_width"),
    Mutant("quad-dist x axis by np.linspace", "src/isosqueeze/cli.py",
           "xs = _symmetric_axis(args.x_min, args.x_max, args.x_steps)\n    phis",
           "xs = np.linspace(args.x_min, args.x_max, args.x_steps)\n    phis",
           "tests/test_inventory.py::test_every_csv_parses_at_its_header_width"),
    Mutant("grid_mass without errstate", "src/isosqueeze/cli.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           "tests/test_inventory.py::test_every_csv_parses_at_its_header_width"),
    Mutant("quadrature phase sign flipped", "src/isosqueeze/dist.py",
           "np.exp(-1j *", "np.exp(1j *",
           "tests/test_dist.py::TestClosedFormDistribution::test_agrees_with_wavefunction_route"),
    Mutant("count bound 2**53 -> 2**70", "src/isosqueeze/cli.py",
           "value >= 2**53", "value >= 2**70",
           "tests/test_inventory.py::test_every_csv_parses_at_its_header_width"),
    Mutant("sweep moments on every offset", "src/isosqueeze/stats.py",
           "2 * np.arange(rung.n_max + 1)", "np.arange(rung.n_max + 1)",
           "tests/test_golden.py::test_matches_golden[stats_i]"),
    Mutant("build_state ignores the phase", "src/isosqueeze/states.py",
           "phase = math.fmod(params.theta, math.tau)", "phase = 0.0",
           "tests/test_golden.py::test_matches_golden[quad_dist]"),
    Mutant("A3 undefined threshold 1e-14 -> 1e-300", "src/isosqueeze/stats.py",
           "where=np.abs(denom) >= 1e-14)", "where=np.abs(denom) >= 1e-300)",
           "tests/test_stats.py",
           survives="ROADMAP item 1: no test pins the threshold until A3 is fixed"),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _passes(tree: Path, nodes) -> bool:
    """Whether the nodes pass in ``tree``; True on exit 0, False on 1 (a test failed)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # collection error, unknown node, interrupted run
        sys.exit(f"pytest exited {done.returncode} in {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done.returncode == 0


def main() -> int:
    status = 0
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"STALE    {m.name}: old string occurs {count} times in {m.file}")
            status = 1
    if status:
        return status
    with tempfile.TemporaryDirectory(prefix="isosqueeze-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        if not _passes(clean, sorted({m.node for m in MUTANTS})):
            print("FAIL     the named nodes fail without any mutant")
            return 1
        for i, m in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy(tree)
            target = tree / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            caught = not _passes(tree, [m.node])
            if m.survives is None:
                verdict = "caught" if caught else "SURVIVED"
                status |= not caught
            else:
                verdict = "CAUGHT (listed as surviving; update the table)" if caught else "survives, as listed"
                status |= caught
            print(f"{verdict:8s} {m.name} -> {m.node}" + (f" [{m.survives}]" if m.survives else ""))
            shutil.rmtree(tree)
    return status


if __name__ == "__main__":
    sys.exit(main())
