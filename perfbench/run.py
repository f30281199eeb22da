"""isosqueeze benchmark driver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload witness-grid --seed 0 --seconds 10 --trace 0

One process runs the workload as a closed loop: each operation starts
when the previous one has returned, and a pass runs every operation of
the workload once.  Passes repeat until ``--seconds`` have gone by; the
first is a warm-up whose time is not counted.  Output checks and the
fresh interpreters timed for ``setup_s`` run between passes, outside
the timed region, and so does the fixed reference computation of
``hostspeed.py``: ``pass_ref`` is the median over passes of each pass
time divided by the reference time measured beside it, which cancels
most of the changes in the host's speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see ``layertrace.py``).  Every metric is printed by name
with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the line before
it holds the run's context (machine, versions, sample counts).

The package is imported from ``src/`` of the checkout; without it the
driver exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread keeps the driver a single compute thread, as a single
# caller should be.  Set before numpy loads; an explicit setting in the
# environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from hostspeed import reference_seconds  # noqa: E402
from layertrace import COUNTERS, LAYERS, LayerTracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Fresh interpreters timed for setup_s, spread evenly over the run so
# that their median samples the host's speed over the whole run rather
# than over its first seconds; the median is reported.
SETUP_REPEATS = 9
SETUP_CODE = (
    "import isosqueeze, isosqueeze.cli\n"
    "from isosqueeze import SqueezeParams, build_state\n"
    "print(build_state(SqueezeParams(kind='i', r=20.0)).amps.size)\n"
)
SETUP_EXPECT = "141"

# Timed passes at least, besides the warm-up: two for the quartiles of
# the context line, and a repeat of every operation for the determinism
# check.
MIN_PASSES = 2
# The tail pass time (context line) is the highest percentile with this
# many passes beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ref": "ref",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for layer in ("algebra", "specfun", "stats"):
        units[f"{layer}.calls"] = "count"
    units.update({"cli.rows": "count", "cli.bytes": "B", "driver.self_s": "s",
                  "trace.pass_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _exit(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import isosqueeze from the checkout's src/, never from elsewhere."""
    if not (SRC / "isosqueeze" / "__init__.py").is_file():
        _exit(f"no isosqueeze sources under {SRC}")
    for name in [k for k in os.environ if k.startswith("ISOSQUEEZE_")]:
        del os.environ[name]  # grid-default overrides would change the workload
    sys.path.insert(0, str(SRC))
    import isosqueeze
    import isosqueeze.cli  # noqa: F401  (submodules used through the package)
    import isosqueeze.dist  # noqa: F401

    if Path(isosqueeze.__file__).resolve().parent != SRC / "isosqueeze":
        _exit(f"imported isosqueeze from {isosqueeze.__file__}")
    return isosqueeze


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isosqueeze").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_runtime() -> dict:
    """OpenBLAS config and thread count, read from the loaded library."""
    import ctypes

    info = {"threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info.update(library=config().decode(), threads=threads())
                    return info
    return info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_runtime": _blas_runtime(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup() -> tuple[float | None, str | None]:
    """(wall time, problem) of a fresh interpreter that imports the package and builds a state."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None, "setup: interpreter timed out"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != SETUP_EXPECT:
        return elapsed, f"setup: exit {proc.returncode}, output {proc.stdout.strip()!r}"
    return elapsed, None


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


class Checker:
    """Checks every output: in full on its first pass, by identity afterwards.

    A later pass must reproduce the first output exactly (byte-identical
    CSV and meta files for the CLI), which also carries the verdict of
    the full check over to it.
    """

    def __init__(self, references: dict | None) -> None:
        self._references = references
        self._first: dict[str, tuple[object, list[str]]] = {}

    def __call__(self, op, output) -> list[str]:
        first = self._first.get(op.key)
        if first is not None:
            problems = list(first[1])
            if not _same(output, first[0]):
                problems.append("output differs from the first pass")
            return problems
        try:
            table = op.table(output)
            problems = op.check(table)
            if self._references is not None:
                ref = self._references.get(op.key)
                problems += ["no reference value"] if ref is None else wl.compare(table, ref)
        except (ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc}"]
        self._first[op.key] = (output, problems)
        return problems


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _run_pass(ops, tracer, op_times) -> tuple[float, list, list]:
    """Run every operation once: (pass seconds, return values, errors).

    Each operation's time is appended to ``op_times`` unless it is None.
    """
    raws: list[object] = [None] * len(ops)
    errors: list[str | None] = [None] * len(ops)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                raws[i] = op.call()
            except Exception as exc:  # counted as a failed operation
                errors[i] = f"{type(exc).__name__}: {exc}"
            if op_times is not None:
                op_times[i].append(time.perf_counter() - t0)
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return elapsed, raws, errors


def _check_pass(ops, raws, errors, checker) -> tuple[list, int, int]:
    """Check each output: (errors, CSV rows written, bytes written)."""
    rows = written = 0
    for i, op in enumerate(ops):
        if errors[i] is not None:
            continue
        try:
            output = op.collect(raws[i])
        except OSError as exc:
            errors[i] = f"output missing: {exc}"
            continue
        found = checker(op, output)
        errors[i] = "; ".join(found) if found else None
        if op.is_cli:
            rows += output[0].count(b"\n") - 1
            written += len(output[0]) + len(output[1])
    return errors, rows, written


def _per_layer(layer_passes: list[dict], untraced: list[float]) -> dict:
    """Means per traced pass; the self times add up to trace.pass_s."""
    n = len(layer_passes)

    def mean(get):
        return sum(get(p) for p in layer_passes) / n

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = mean(lambda p: p["self"][layer])
    for layer in ("algebra", "specfun", "stats"):
        metrics[f"{layer}.calls"] = mean(lambda p: p["calls"][layer])
    for name in COUNTERS:
        metrics[name] = mean(lambda p: p["counts"][name])
    metrics["cli.rows"] = mean(lambda p: p["rows"])
    metrics["cli.bytes"] = mean(lambda p: p["bytes"])
    metrics["driver.self_s"] = mean(lambda p: p["driver"])
    metrics["trace.pass_s"] = mean(lambda p: p["pass"])
    metrics["trace.overhead_s"] = (statistics.median(p["pass"] for p in layer_passes)
                                   - statistics.median(untraced))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        references: dict | None = None) -> dict:
    """Run one workload and return {"result": ..., "info": ..., "problems": ...}.

    ``references`` replaces the recorded seed-0 reference values; by
    default they are read from reference.json on seed 0 only.
    """
    iso = import_package()
    if references is None and seed == 0:
        references = json.loads(REFERENCE_FILE.read_text())["tiny" if tiny else "full"]
    repeats = 1 if tiny else SETUP_REPEATS
    setup_times: list[float] = []
    problems: list[str] = []
    attempted = failed = 0

    def setup_once():
        nonlocal attempted, failed
        elapsed, problem = measure_setup()
        attempted += 1
        if elapsed is not None:
            setup_times.append(elapsed)
        if problem is not None:
            failed += 1
            problems.append(problem)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        spec = wl.build(iso, workload, seed, tiny, workdir)
        ops = spec.ops
        checker = Checker(references)
        tracer = LayerTracer() if trace else None
        untraced: list[float] = []
        op_times: list[list[float]] = [[] for _ in ops]
        layer_passes: list[dict] = []
        # refs[k] is timed before pass k; refs[-1] after the last pass
        refs: list[float] = []
        timed_after: list[int] = []  # k of each timed pass, which refs[k + 1] follows
        start = time.perf_counter()
        deadline = start + seconds
        setup_due = [start + seconds * k / repeats for k in range(repeats)]
        n_pass = 0
        while (len(untraced) < MIN_PASSES or (tracer is not None and not layer_passes)
               or time.perf_counter() < deadline):
            if setup_due and time.perf_counter() >= setup_due[0]:
                setup_due.pop(0)
                setup_once()
            warm_up = n_pass == 0
            # warm-up, then untraced and traced passes alternate
            traced = tracer if n_pass and n_pass % 2 == 0 else None
            n_pass += 1
            timed = not warm_up and traced is None
            refs.append(reference_seconds())
            elapsed, raws, errors = _run_pass(ops, traced, op_times if timed else None)
            errors, rows, written = _check_pass(ops, raws, errors, checker)
            attempted += len(ops)
            for op, error in zip(ops, errors):
                if error is not None:
                    failed += 1
                    if len(problems) < 20:
                        problems.append(f"{op.key}: {error}")
            if timed:
                untraced.append(elapsed)
                timed_after.append(len(refs) - 1)
            elif traced is not None:
                layer_passes.append({
                    "pass": elapsed,
                    "driver": elapsed - tracer.top_s,
                    "self": dict(tracer.self_s),
                    "calls": dict(tracer.calls),
                    "counts": dict(tracer.counts),
                    "rows": rows,
                    "bytes": written,
                })
        refs.append(reference_seconds())
        for _ in setup_due:
            setup_once()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    quartiles = statistics.quantiles(untraced, n=4)
    pass_ref = [t / (0.5 * (refs[k] + refs[k + 1])) for t, k in zip(untraced, timed_after)]
    tail_value, tail_pct = tail(untraced)
    if trace:
        metrics = _per_layer(layer_passes, untraced)
        units = per_layer_units()
        samples = {name: len(layer_passes) for name in units}
        samples["trace.overhead_s"] = f"{len(layer_passes)} traced, {len(untraced)} untraced"
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else float("nan"),
            "pass_ref": statistics.median(pass_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setup_times), "pass_ref": len(untraced),
                   "peak_rss_mb": 1, "success_rate": attempted}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "closed_loop": "1 caller, next operation after the previous returns",
        "inputs": spec.inputs,
        "operations": [op.key for op in ops],
        "op_median_s": [statistics.median(t) for t in op_times],
        "passes": {"warm_up": 1, "untraced": len(untraced), "traced": len(layer_passes)},
        "pass_s.quartiles": quartiles,
        "reference_s.quartiles": statistics.quantiles(refs, n=4),
        "pass_s.tail": tail_value,
        "pass_s.tail_percentile": tail_pct,
        "samples": samples,
        "reference_checked": references is not None,
        "environment": environment(),
    }
    return {"result": result, "info": info, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest grids, one setup interpreter (smoke test)")
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for problem in report["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    samples = report["info"]["samples"]
    for name, metric in report["result"]["metrics"].items():
        print(f"{name:<20} {metric['value']:>14.6g} {metric['unit']:<6} samples={samples[name]}")
    print(json.dumps({"info": report["info"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
