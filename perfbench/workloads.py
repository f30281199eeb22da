"""The four benchmark workloads: seeded inputs, operations and output checks.

A pass runs each operation of a workload once, in order.  An operation
is one ``cli.main([...])`` call writing CSV and meta files into the
work directory, or one public library call.  Seed 0 uses the
parameters of ``figures.md`` and the README on a subsampled grid; other
seeds draw moduli, phases, grid extents and lambda points from ranges
over which the work per pass is the same (the same truncation growth
and the same quasi-probability support), so pass times of different
seeds are comparable.

Every output is checked against library-independent invariants, and on
seed 0 against reference values recorded from the library (see
``record_reference.py``), at ``REF_RTOL``/``REF_ATOL``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Agreement with the recorded seed-0 outputs.  The CLI prints 12
# significant digits, so a change in the last printed digits passes.
REF_RTOL = 1e-8
REF_ATOL = 1e-10
# Agreement with analytic closed forms.  The xi = 0.999 sweep stops its
# truncation at a 1e-10 tail, which moves <nu^2> by ~1e-6 relative.
CLOSED_FORM_RTOL = 1e-5
CLOSED_FORM_ATOL = 1e-9
# Grid quadrature of unit-mass distributions.
QUAD_DIST_MASS_TOL = 1e-5
QUASI_MASS_TOL = 1e-3
# Closed-form quasi-probability vs the Fourier-transform oracle.
ORACLE_TOL = 1e-6

SAMPLE_ROWS = 16


@dataclass
class Op:
    """One operation of a pass.

    ``call`` is the timed work.  ``collect`` turns its return value into
    the output compared across passes (CSV and meta bytes for the CLI).
    ``table`` turns an output into a 2-D float array for the checks, and
    ``check`` lists every violated invariant of that table.
    """

    key: str
    call: Callable[[], object]
    collect: Callable[[object], object]
    table: Callable[[object], np.ndarray]
    check: Callable[[np.ndarray], list[str]]
    is_cli: bool


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict  # per-pass sizes and drawn parameters, for the run's context line


# ---------------------------------------------------------------------------
# output tables and reference summaries
# ---------------------------------------------------------------------------


def csv_table(output) -> np.ndarray:
    text = output[0].decode()
    lines = text.splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)


def array_table(output) -> np.ndarray:
    values = np.atleast_1d(np.asarray(output))
    if np.iscomplexobj(values):
        return np.column_stack([values.real, values.imag])
    return values.reshape(-1, 1).astype(float)


def summarize(table: np.ndarray) -> dict:
    """What the reference file keeps of one output: sampled rows and column sums."""
    rows = np.unique(np.linspace(0, table.shape[0] - 1, SAMPLE_ROWS).round().astype(int))
    return {
        "shape": list(table.shape),
        "rows": rows.tolist(),
        "sample": table[rows].tolist(),
        "colsum": np.nansum(table, axis=0).tolist(),
        "abssum": np.nansum(np.abs(table), axis=0).tolist(),
    }


def compare(table: np.ndarray, ref: dict) -> list[str]:
    if list(table.shape) != ref["shape"]:
        return [f"shape {list(table.shape)} != reference {ref['shape']}"]
    problems = []
    got = table[ref["rows"]]
    want = np.array(ref["sample"], dtype=float)
    if not np.allclose(got, want, rtol=REF_RTOL, atol=REF_ATOL, equal_nan=True):
        worst = np.nanmax(np.abs(got - want))
        problems.append(f"sampled rows differ from reference by up to {worst:.3e}")
    colsum = np.nansum(table, axis=0)
    limit = REF_ATOL * table.shape[0] + REF_RTOL * np.array(ref["abssum"])
    if np.any(np.abs(colsum - np.array(ref["colsum"])) > limit):
        problems.append("column sums differ from reference")
    return problems


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _close(got, want, rtol=CLOSED_FORM_RTOL, atol=CLOSED_FORM_ATOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= atol + rtol * np.abs(want)))


def check_state(t: np.ndarray) -> list[str]:
    """Columns level, re, im, prob: unit norm and prob = |amplitude|^2."""
    problems = []
    if abs(t[:, 3].sum() - 1.0) > 1e-9:
        problems.append(f"probabilities sum to {t[:, 3].sum():.12g}")
    if not _close(t[:, 1] ** 2 + t[:, 2] ** 2, t[:, 3], rtol=1e-9, atol=1e-12):
        problems.append("prob != re^2 + im^2")
    return problems


def check_stats(t: np.ndarray, case: str) -> list[str]:
    """Columns r, meanK0, Q, g2, A3.

    Q = <nu>(g2 - 1) holds for every state; the unitary route is the
    squeezed vacuum, with <nu> = |xi|^2 / (1 - |xi|^2) and g2 = 3 + 1/<nu>.
    """
    r, mean, q, g2 = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    problems = []
    if not np.all(np.isfinite(t[:, :4])):
        problems.append("non-finite moment")
    if np.any(mean <= 0.0) or np.any(q < -1.0 - 1e-12) or np.any(g2 < 0.0):
        problems.append("moment outside its physical range")
    if not _close(q, mean * (g2 - 1.0), rtol=1e-8, atol=1e-10):
        problems.append("Q != <nu>(g2 - 1)")
    if case == "iii":
        squeezed_mean = r**2 / (1.0 - r**2)
        if not _close(mean, squeezed_mean) or not _close(g2, 3.0 + 1.0 / squeezed_mean):
            problems.append("unitary route differs from the squeezed-vacuum moments")
    return problems


def check_squeeze(t: np.ndarray, case: str) -> list[str]:
    """Columns r, theta, I1..I4: uncertainty product, squeezed-vacuum I1/I2."""
    r, theta, i1, i2 = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    problems = []
    if np.any((i1 + 1.0) * (i2 + 1.0) < 1.0 - 1e-9):
        problems.append("uncertainty product (I1+1)(I2+1) below 1")
    if case == "iii":
        re_xi = r * np.cos(theta)
        denom = 1.0 - r**2
        if not _close(i1, (2.0 * re_xi + 2.0 * r**2) / denom) or not _close(
            i2, (-2.0 * re_xi + 2.0 * r**2) / denom
        ):
            problems.append("unitary-route I1/I2 differ from the squeezed-vacuum closed form")
    return problems


def check_quad_dist(t: np.ndarray, x_steps: int, phi_steps: int) -> list[str]:
    """Columns x, phi, P: P >= 0 and unit integral over x at every phi."""
    x = t[:, 0].reshape(x_steps, phi_steps)[:, 0]
    p = t[:, 2].reshape(x_steps, phi_steps)
    problems = []
    if p.min() < -1e-10:
        problems.append(f"negative quadrature probability {p.min():.3e}")
    mass = np.trapezoid(p, x, axis=0)
    if np.max(np.abs(mass - 1.0)) > QUAD_DIST_MASS_TOL:
        problems.append(f"P(x, phi) integrates to {mass.min():.9f}..{mass.max():.9f}")
    return problems


def check_quasi(t: np.ndarray, x_steps: int, p_steps: int, s: float) -> list[str]:
    """Columns x, p, F: unit mass on the grid, Husimi non-negative."""
    x = t[:, 0].reshape(x_steps, p_steps)[:, 0]
    p = t[:p_steps, 1]
    f = t[:, 2].reshape(x_steps, p_steps)
    problems = []
    mass = f.sum() * (x[1] - x[0]) * (p[1] - p[0])
    if abs(mass - 1.0) > QUASI_MASS_TOL:
        problems.append(f"quasi-probability mass on the grid is {mass:.6f}")
    if s == -1.0 and f.min() < -1e-12:
        problems.append(f"negative Husimi value {f.min():.3e}")
    return problems


def check_char_fn(t: np.ndarray, lam: np.ndarray, xi: complex | None) -> list[str]:
    """C(lam, 0) at lam and -lam: |C| <= 1, C(-lam) = conj C(lam).

    For the unitary route the Gaussian closed form
    exp(-|lam - xi conj(lam)|^2 / (2 (1 - |xi|^2))) must hold as well.
    """
    c = t[:, 0] + 1j * t[:, 1]
    half = lam.size // 2
    problems = []
    if np.max(np.abs(c)) > 1.0 + 1e-12:
        problems.append("|C(lam)| exceeds 1")
    if np.max(np.abs(c[half:] - np.conj(c[:half]))) > 1e-12:
        problems.append("C(-lam) != conj C(lam)")
    if xi is not None:
        gauss = np.exp(-np.abs(lam - xi * np.conj(lam)) ** 2 / (2.0 * (1.0 - abs(xi) ** 2)))
        if np.max(np.abs(c - gauss)) > 1e-9:
            problems.append("unitary-route C differs from the Gaussian closed form")
    return problems


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def cli_op(iso, workdir: Path, tag: str, args: list, check) -> Op:
    argv = [_fmt(a) for a in args]
    path = workdir / f"{tag}.csv"
    meta = workdir / f"{tag}.csv.meta.json"

    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            status = iso.cli.main([*argv, "-o", str(path)])
        if status != 0:
            raise RuntimeError(f"exit status {status}")

    def collect(_):
        return path.read_bytes(), meta.read_bytes()

    return Op("cli " + " ".join(argv), call, collect, csv_table, check, is_cli=True)


def lib_op(key: str, call, check) -> Op:
    return Op(key, call, lambda result: result, array_table, check, is_cli=False)


def _draw(rng, seed: int, low: float, high: float, seed0: float) -> float:
    """A draw from [low, high), or the figure value on seed 0."""
    value = float(rng.uniform(low, high))
    return seed0 if seed == 0 else value


def _phase(rng, seed: int, seed0: float = 0.0) -> float:
    return _draw(rng, seed, 0.0, 2.0 * math.pi, seed0)


def witness_grid(iso, rng, seed, tiny, workdir) -> tuple[list[Op], dict]:
    # Case iii rows above xi ~ 0.866 double the truncation once; with
    # 8 rows and xi_max in [0.87, 0.9] exactly the top row does.
    r_steps, theta_steps = (2, 4) if tiny else (8, 16)
    r_max = _draw(rng, seed, 8.0, 31.0, 31.0)
    xi_max = _draw(rng, seed, 0.87, 0.9, 0.9)
    common = ["--theta-steps", theta_steps]
    ops = [
        cli_op(iso, workdir, "squeeze_i", ["squeeze", "--case", "i", "--r-max", r_max,
                                          "--r-steps", r_steps, *common],
               lambda t: check_squeeze(t, "i")),
        cli_op(iso, workdir, "squeeze_iii", ["squeeze", "--case", "iii", "--xi-max", xi_max,
                                            "--xi-steps", r_steps, *common],
               lambda t: check_squeeze(t, "iii")),
    ]
    return ops, {"cells": 2 * r_steps * theta_steps, "r_max": r_max, "xi_max": xi_max}


def phase_space(iso, rng, seed, tiny, workdir) -> tuple[list[Op], dict]:
    x_steps, phi_steps, grid = (41, 8, 31) if tiny else (101, 64, 41)
    quad_r = _draw(rng, seed, 5.0, 15.0, 10.0)
    quad_theta = _phase(rng, seed, 0.5)
    # Over [2.6, 2.95] the state keeps the same 53 levels above the
    # support cutoff, so the Laguerre double sum has the same pairs.
    qp_r = _draw(rng, seed, 2.6, 2.95, 2.8284271247461903)
    qp_theta = _phase(rng, seed, 0.7853981633974483)
    # Case iii needs |xi| < (1 - s)/(1 + s); half that bound keeps the
    # double sum converged within the 70-level truncation.
    xi_s = _draw(rng, seed, -0.5, 0.5, 0.0)
    bound = (1.0 - xi_s) / (1.0 + xi_s)
    xi = _draw(rng, seed, 0.1, min(0.6, 0.5 * bound), 0.4)
    xi_phase = _phase(rng, seed)
    if not abs(xi) < bound:
        raise ValueError("case-iii quasi-probability input outside its existence bound")
    qp_grid = ["--x-steps", grid, "--p-steps", grid]
    ops = [
        cli_op(iso, workdir, "quad_dist", ["quad-dist", "--r", quad_r, "--theta", quad_theta,
                                          "--x-steps", x_steps, "--phi-steps", phi_steps],
               lambda t: check_quad_dist(t, x_steps, phi_steps)),
    ]
    for tag, s in (("s05", 0.5), ("wigner", 0.0), ("husimi", -1.0)):
        ops.append(cli_op(iso, workdir, f"quasi_{tag}",
                          ["quasiprob", "--case", "i", "--r", qp_r, "--theta", qp_theta,
                           "--s", s, *qp_grid],
                          lambda t, s=s: check_quasi(t, grid, grid, s)))
    ops.append(cli_op(iso, workdir, "quasi_iii",
                      ["quasiprob", "--case", "iii", "--xi", xi, "--xi-phase", xi_phase,
                       "--s", xi_s, *qp_grid],
                      lambda t: check_quasi(t, grid, grid, xi_s)))
    rows = x_steps * phi_steps + 4 * grid * grid
    return ops, {"rows": rows, "quad_r": quad_r, "quasi_r": qp_r, "xi": xi, "xi_s": xi_s}


def char_fn(iso, rng, seed, tiny, workdir) -> tuple[list[Op], dict]:
    # n_max 24 keeps 25 levels: below 1e-14 of amplitude is dropped for
    # |xi| <= 0.5, and every level stays above the support cutoff.  The
    # oracle runs on 128 x 128 nodes (the library default is 256 x 256)
    # to keep a pass near half a second; at n_max 6 it still matches
    # the closed form to ~1e-15.
    n_max, n_lam, nodes = (20, 4, 64) if tiny else (24, 32, 128)
    dist, SqueezeParams, build_state = iso.dist, iso.SqueezeParams, iso.build_state
    r = _draw(rng, seed, 8.0, 31.0, 20.0)
    theta = _phase(rng, seed)
    xi_mod = _draw(rng, seed, 0.2, 0.5, 0.4)
    xi_phase = _phase(rng, seed)
    if seed == 0:
        # golden-angle spiral of radius <= 2.5
        k = np.arange(n_lam)
        lam = 2.5 * np.sqrt((k + 0.5) / n_lam) * np.exp(2.399963229728653j * k)
    else:
        lam = 2.5 * np.sqrt(rng.random(n_lam)) * np.exp(2j * math.pi * rng.random(n_lam))
    lam = np.concatenate([lam, -lam])
    small_r = _draw(rng, seed, 2.0, 3.5, 2.0 * math.sqrt(2.0))
    small_theta = _phase(rng, seed, math.pi / 4.0)
    z = complex(0.5, -1.0) if seed == 0 else complex(*rng.uniform(-0.85, 0.85, 2))

    nonlinear = build_state(SqueezeParams(kind="i", r=r, theta=theta, n_max=n_max))
    unitary = build_state(SqueezeParams(kind="iii", r=xi_mod, theta=xi_phase, n_max=n_max))
    small = build_state(SqueezeParams(kind="i", r=small_r, theta=small_theta, n_max=6))
    xi = xi_mod * complex(math.cos(xi_phase), math.sin(xi_phase))
    lam_key = f"n_lam={lam.size} n_max={n_max}"
    ops = [
        lib_op(f"characteristic_function case=i r={r!r} theta={theta!r} {lam_key}",
               lambda: dist.characteristic_function(nonlinear, lam, 0.0),
               lambda t: check_char_fn(t, lam, None)),
        lib_op(f"characteristic_function case=iii xi={xi_mod!r} phase={xi_phase!r} {lam_key}",
               lambda: dist.characteristic_function(unitary, lam, 0.0),
               lambda t: check_char_fn(t, lam, xi)),
    ]
    for s in (-1.0, 0.0, 0.5):
        closed = dist.quasi_probability(small, z, s)

        def check(t, closed=closed):
            return [] if abs(t[0, 0] - closed) <= ORACLE_TOL else [
                f"Fourier oracle {t[0, 0]:.12g} vs closed form {closed:.12g}"]

        ops.append(lib_op(
            f"quasi_probability_fourier r={small_r!r} theta={small_theta!r} z={z!r} s={s} nodes={nodes}",
            lambda s=s: dist.quasi_probability_fourier(small, z, s, nodes, nodes),
            check))
    return ops, {"lambda_points": lam.size, "n_max": n_max, "oracle_nodes": nodes * nodes,
                 "r": r, "xi": xi_mod}


def moment_scan(iso, rng, seed, tiny, workdir) -> tuple[list[Op], dict]:
    fig_steps, long_steps, edge_steps = (8, 16, 8) if tiny else (64, 256, 64)
    state_r = _draw(rng, seed, 8.0, 31.0, 20.0)
    state_theta = _phase(rng, seed)
    state_xi = _draw(rng, seed, 0.1, 0.7, 0.4)
    state_phase = _phase(rng, seed)
    r_max = _draw(rng, seed, 16.0, 31.0, 31.0)
    theta = _phase(rng, seed)
    xi_phase = _phase(rng, seed)
    long_r_max = _draw(rng, seed, 16.0, 31.0, 31.0)
    long_theta = _phase(rng, seed)
    long_phase = _phase(rng, seed)
    edge_phase = _phase(rng, seed)
    # xi_max stays at 0.9 and 0.999: how far the truncation grows depends
    # on it, while the phase leaves the work unchanged.
    ops = [
        cli_op(iso, workdir, "state_i", ["state", "--case", "i", "--r", state_r,
                                        "--theta", state_theta], check_state),
        cli_op(iso, workdir, "state_iii", ["state", "--case", "iii", "--xi", state_xi,
                                          "--xi-phase", state_phase], check_state),
    ]
    sweeps = (
        ("stats_i", "i", r_max, fig_steps, theta),
        ("stats_iii", "iii", 0.9, fig_steps, xi_phase),
        ("stats_i_long", "i", long_r_max, long_steps, long_theta),
        ("stats_iii_long", "iii", 0.9, long_steps, long_phase),
        ("stats_iii_edge", "iii", 0.999, edge_steps, edge_phase),
    )
    for tag, case, top, steps, phase in sweeps:
        if case == "i":
            args = ["--r-max", top, "--r-steps", steps, "--theta", phase]
        else:
            args = ["--xi-max", top, "--xi-steps", steps, "--xi-phase", phase]
        ops.append(cli_op(iso, workdir, tag, ["stats", "--case", case, *args],
                          lambda t, case=case: check_stats(t, case)))
    return ops, {"sweep_points": 2 * fig_steps + 2 * long_steps + edge_steps,
                 "r_max": r_max, "state_r": state_r, "state_xi": state_xi}


_BUILDERS = {
    "witness-grid": witness_grid,
    "phase-space": phase_space,
    "char-fn": char_fn,
    "moment-scan": moment_scan,
}
WORKLOADS = tuple(_BUILDERS)


def build(iso, name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    """The operations of one pass of workload ``name`` for ``seed``.

    ``iso`` is the imported ``isosqueeze`` package with its submodules.
    """
    rng = np.random.default_rng(seed)
    ops, inputs = _BUILDERS[name](iso, rng, seed, tiny, workdir)
    return Workload(ops, inputs)
