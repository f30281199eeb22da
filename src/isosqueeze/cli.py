"""Command-line front end emitting figure-reproduction data.

Each subcommand wires parameters into the computation modules and
writes deterministic CSV (12 significant digits, fixed column order)
or JSON, every table from one row writer (``_rows``) and the head of
every figure command's metadata from one prologue (``_figure``).
Identical invocations produce byte-identical output, which is what the
golden-file tests rely on.  Numeric oddities encountered during a
sweep (truncation tail too fat, moment ratios undefined at a
degenerate grid point, g2 beyond the float range) are surfaced as
warnings in the JSON metadata, never as failures: sweeps must not
abort at degenerate cells.

Two tables drive it: ``_COMMANDS`` holds each subcommand's help,
handler and flags for ``build_parser``'s one loop, and ``_ROUTES``
holds each ``--case`` route's flags, defaults and sweep bound for
``_resolve``, which refuses a flag of the other route.

Exit status: 0 success (warnings included), 2 usage error, 3 refused
input: an ``InvalidParameter`` from the CLI's checks (an integer flag at
or above 2**53 among them) or the library's, or a ``MemoryError``.  Any
other exception, a ``ValueError`` inside a computation included, is a bug.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import algebra, dist, squeezing, stats
from .fock import FockVector, InvalidParameter
from .states import (
    CASE_NONLINEAR,
    CASE_UNITARY,
    SqueezeParams,
    build_state,
    build_sweep,
    dual_series_diagnosis,
)

__all__ = ["main"]

TAIL_WARN_THRESHOLD = 1e-6
# A quasi-probability grid whose sum F dx dp is further than this from 1 is flagged.
MASS_WARN_THRESHOLD = 1e-2


@dataclass
class _Output:
    """Collects one command's table + metadata, then writes it once; ``rows`` is the CSV text
    of the table's rows, from ``_rows``."""

    command: str
    columns: Sequence[str] = ()
    rows: str = ""
    meta: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def csv_text(self) -> str:
        return ",".join(self.columns) + "\n" + self.rows

    def json_payload(self) -> dict:
        return {
            "command": self.command,
            **self.meta,
            "warnings": self.warnings,
            "columns": list(self.columns),
            "rows": list(csv.reader(io.StringIO(self.rows))),
        }

    def write(self, path: str | None, fmt: str) -> None:
        """CSV with a ``.meta.json`` beside it and warnings on stderr, or one JSON payload."""
        tabular = fmt != "json"
        text = self.csv_text() if tabular else json.dumps(self.json_payload(), indent=1) + "\n"
        if path:
            Path(path).write_text(text)
            if tabular:
                header = {"command": self.command, **self.meta, "warnings": self.warnings}
                Path(path + ".meta.json").write_text(json.dumps(header, indent=1) + "\n")
        else:
            sys.stdout.write(text)
        for message in self.warnings if tabular else ():
            print(f"warning: {message}", file=sys.stderr)


def _check_tail(out: _Output, effective, tail_bound) -> None:
    """Record the largest effective truncation; warn, in row order, where the tail is fat.

    ``effective`` and ``tail_bound`` hold one value per row, or one scalar each for one state.
    """
    effective, tail_bound = np.atleast_1d(effective).tolist(), np.atleast_1d(tail_bound)
    out.meta["n_max_effective"] = max(out.meta.get("n_max_effective", 0), *effective)
    for k in np.flatnonzero(tail_bound > TAIL_WARN_THRESHOLD).tolist():
        advice = ("raise --n-max" if effective[k] <= out.meta["n_max"]
                  else f"n_max was already raised from {out.meta['n_max']} to {effective[k]}")
        out.warn(f"tail_mass {tail_bound[k]:.3e} exceeds {TAIL_WARN_THRESHOLD:g}; {advice}")


# --case value (the ``states`` kind) -> (argparse dests by role: modulus, phase, sweep max,
# sweep steps; what each role reads when its flag is unset; the bound a sweep max stays below;
# the flags a refusal of the other route's modulus points to)
_ROUTES = {
    CASE_NONLINEAR: (("r", "theta", "r_max", "r_steps"), (None, 0.0, 31.0, 64), math.inf,
                     "--r/--theta"),
    CASE_UNITARY: (("xi", "xi_phase", "xi_max", "xi_steps"), (None, 0.0, 0.9, 64), 1.0, "--xi"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _resolve(args) -> tuple:
    """(kind, modulus, phase, sweep max, sweep steps) of the --case route, unset flags at its defaults.

    Refused: a flag of the other route the user gave, and a sweep maximum
    outside (0, bound); a command without sweep flags reads valid defaults.
    """
    kind = getattr(args, "case", CASE_NONLINEAR)  # quad-dist takes no --case: it is case i
    dests, defaults, max_below, hint = _ROUTES[kind]
    for other, (foreign, *_) in _ROUTES.items():
        for own, dest in zip(dests, foreign) if other != kind else ():
            if getattr(args, dest, None) is not None:
                raise InvalidParameter(f"{_flag(dest)} belongs to --case {other}; use "
                                       f"{hint if own == dests[0] else _flag(own)} with --case {kind}")
    given = [getattr(args, dest, None) for dest in dests]
    modulus, phase, top, steps = (d if v is None else v for v, d in zip(given, defaults))
    if top >= max_below:
        raise InvalidParameter(f"{_flag(dests[2])} must be < {max_below:g}, got {top}")
    if top <= 0:
        raise InvalidParameter("sweep maximum must be positive")
    return kind, modulus, phase, top, steps


def _figure(args, kind: str, columns, **head) -> _Output:
    """A figure command's output; its metadata opens with the case, ``head`` and n_max, and
    ``_check_tail`` appends n_max_effective."""
    return _Output(args.command, columns, meta={"case": kind, **head, "n_max": args.n_max})


def _point(args, columns, **head) -> tuple[SqueezeParams, FockVector, _Output]:
    """The parameters, built state and output of ``state``, ``quad-dist`` and ``quasiprob``: the
    head is the route's modulus and phase, then ``head``; ``_check_tail`` records the truncation."""
    kind, modulus, phase, _, _ = _resolve(args)
    dests = _ROUTES[kind][0]
    if modulus is None:
        raise InvalidParameter(f"--case {kind} requires {_flag(dests[0])}")
    params = SqueezeParams(kind=kind, r=modulus, theta=phase, n_max=args.n_max)
    out = _figure(args, kind, columns, **{dests[0]: modulus, dests[1]: phase}, **head)
    vec = build_state(params)
    _check_tail(out, vec.n_max_effective, vec.tail_bound)
    return params, vec, out


def _modulus_grid(args, columns, **head) -> tuple:
    """(kind, phase, grid, output) of a sweep over (0, max]; the degenerate 0 is excluded.

    The output's head is the sweep's max and steps, then ``head``.
    """
    kind, _, phase, top, steps = _resolve(args)
    out = _figure(args, kind, columns, max=top, steps=steps, **head)
    return kind, phase, np.linspace(top / steps, top, steps), out


def _symmetric_axis(low: float, high: float, steps: int) -> np.ndarray:
    """The axis of np.linspace(low, high, steps), exactly symmetric about its midpoint m.

    x_k = m + o_k with o_k = h (2k - steps + 1)/(steps - 1), h the half-width, rounded to
    the float spacing u of max(|low|, |high|): o is odd in k bit for bit, and when m is a
    multiple of u (always for low = -high, and for integer endpoints below 2^51) m + o_k
    and x_k - m are exact.  The endpoints are low and high; one step gives [low].  Mirror
    points of a +-a grid then share |z|^2, and so one Laguerre argument of the phase-space
    kernel.  Within 3 u of np.linspace, and finite where its high - low overflows.
    """
    if steps == 1:
        return np.array([low])
    mid, half = 0.5 * low + 0.5 * high, 0.5 * high - 0.5 * low
    offsets = half * ((2.0 * np.arange(steps) - (steps - 1)) / (steps - 1))
    unit = math.ulp(max(abs(low), abs(high)))  # np.spacing overflows at the largest float
    axis = mid + np.round(offsets / unit) * unit
    axis[0], axis[-1] = low, high
    return axis


def _texts(values) -> list[str]:
    """The %.12g text of each float."""
    return list(map("%.12g".__mod__, np.asarray(values, dtype=float).tolist()))


def _rows(keys, columns, second=None) -> str:
    """CSV rows: each key text, then the %.12g of each column's value in its row.

    With ``second`` (axis texts) each key is crossed with each of them, row-major, and each
    column holds one value per pair.  A key column holding a comma, quote or line break is
    quoted whole (RFC 4180), and a % in a key prints as itself.  One % formats the table.
    """
    if any(c in "".join(keys) for c in ',"\r\n'):
        keys = ['"%s"' % k.replace('"', '""') for k in keys]
    tail = ",%.12g" * len(columns) + "\n"
    tails = [tail] if second is None else ["," + b + tail for b in second]
    template = "".join([k + k.join(tails) for k in (key.replace("%", "%%") for key in keys)])
    return template % tuple(np.stack([np.ravel(c) for c in columns], axis=1).ravel().tolist())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_state(args) -> _Output:
    _, vec, out = _point(args, ("level", "re", "im", "prob"))
    out.meta["tail_bound"] = vec.tail_bound
    keep = np.flatnonzero(vec.amps)  # structural zeros (odd offsets, padding) carry no information
    amps = vec.amps[keep]
    out.rows = _rows(list(map(str, vec.levels[keep].tolist())), [amps.real, amps.imag, np.abs(amps) ** 2])
    return out


def _cmd_stats(args) -> _Output:
    kind, theta, grid, out = _modulus_grid(args, ("r", "meanK0", "Q", "g2", "A3"))
    m, effective, tail = stats.sweep_moments(build_sweep(kind, grid, theta, args.n_max))
    q, g2, a3 = stats.mandel_q(m), stats.g2_zero(m), stats.a3_parameter(m)
    out.rows = _rows(_texts(grid), [m[:, 0], q, g2, a3])
    out.meta["n_max_effective"] = int(effective.max())
    q_nan, g2_inf, a3_nan = np.isnan(q), np.isinf(g2), np.isnan(a3)
    # only flagged rows are visited, in row order, so the warnings come row by row
    for k in np.flatnonzero((tail > TAIL_WARN_THRESHOLD) | q_nan | g2_inf | a3_nan).tolist():
        r = grid[k]
        _check_tail(out, effective[k], tail[k])
        if q_nan[k]:
            out.warn(f"Q/g2 undefined at r={r:.6g} (zero mean excitation)")
        elif g2_inf[k]:
            out.warn(f"g2 overflows at r={r:.6g} (1/mean excitation exceeds the float range)")
        if a3_nan[k]:
            out.warn(f"A3 undefined at r={r:.6g} (degenerate moments)")
    return out


def _cmd_squeeze(args) -> _Output:
    kind, _, grid, out = _modulus_grid(args, ("r", "theta", "I1", "I2", "I3", "I4"),
                                       theta_steps=args.theta_steps)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.theta_steps, endpoint=False)
    witness = squeezing.squeezing_grid(kind, grid, thetas, n_max=args.n_max)
    _check_tail(out, witness.n_max_effective, witness.tail_bound)
    out.rows = _rows(_texts(grid), [witness.i1, witness.i2, witness.i3, witness.i4], _texts(thetas))
    for row, col in np.argwhere(~witness.uncertainty_ok).tolist():
        out.warn(f"uncertainty product below bound at r={grid[row]:.6g}, theta={thetas[col]:.6g}")
    return out


def _cmd_quad_dist(args) -> _Output:
    _, vec, out = _point(args, ("x", "phi", "P"))
    xs = _symmetric_axis(args.x_min, args.x_max, args.x_steps)
    phis = np.linspace(0.0, 2.0 * math.pi, args.phi_steps, endpoint=False)
    out.meta["grid"] = {"x": [args.x_min, args.x_max, args.x_steps], "phi_steps": args.phi_steps}
    out.rows = _rows(_texts(xs), [dist.quadrature_distribution(vec, xs, phis)], _texts(phis))
    return out


def _cmd_quasiprob(args) -> _Output:
    if args.s >= 1.0:
        raise InvalidParameter(f"--s must be < 1, got {args.s}")
    params, vec, out = _point(args, ("x", "p", "F"), s=args.s)
    bound = (1.0 - args.s) / (1.0 + args.s) if args.s > -1.0 else math.inf
    if params.kind == CASE_UNITARY and params.r >= bound:
        # the double sum diverges there: the s-ordered function does not exist
        raise InvalidParameter(f"case iii needs |xi| < (1 - s)/(1 + s) = {bound:.6g}, got {params.r}")
    xs = _symmetric_axis(args.x_min, args.x_max, args.x_steps)
    ps = _symmetric_axis(args.p_min, args.p_max, args.p_steps)
    grid = dist.quasi_probability_grid(vec, xs, ps, args.s)
    out.meta.update(grid={"x": [args.x_min, args.x_max, args.x_steps],
                          "p": [args.p_min, args.p_max, args.p_steps]},
                    kernel_levels=grid.kernel_levels, kernel_error_bound=grid.kernel_error_bound)
    mass = None  # sum F dx dp; a single-point axis has no cell size, a huge one overflows
    if min(xs.size, ps.size) > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            mass = float(grid.values.sum() * abs((xs[1] - xs[0]) * (ps[1] - ps[0])))
        if not math.isfinite(mass):
            out.warn(f"grid_mass {mass:.6g} is not finite: the cell area dx dp overflows")
            mass = None
        elif abs(mass - 1.0) > MASS_WARN_THRESHOLD:
            out.warn(f"grid_mass {mass:.6g} differs from 1 by more than {MASS_WARN_THRESHOLD:g}; the grid "
                     "misses part of the support or samples it too coarsely, or the sums lost precision")
    out.meta["grid_mass"] = mass
    out.rows = _rows(_texts(xs), [grid.values], _texts(ps))
    return out


def _cmd_verify_algebra(args) -> _Output:
    report = algebra.verify_commutators(args.n_low, args.n_high)
    identities = report["identities"]
    out = _Output(args.command, columns=("identity", "max_deviation"))
    out.meta = {
        "levels": report["levels"],
        "max_deviation": report["max_deviation"],
        "casimir_peak": identities[algebra.CASIMIR],
    }
    out.rows = _rows(list(identities), [list(identities.values())])
    return out


def _cmd_dual_check(args) -> _Output:
    report = dual_series_diagnosis(args.terms)
    out = _Output(args.command, columns=("n", "x_n"))
    out.meta = {
        "terms": args.terms,
        "limit_estimate": report.limit_estimate,
        "verdict": report.verdict,
    }
    out.rows = _rows(list(map(str, range(1, report.x_seq.size + 1))), [report.x_seq])
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Flag groups: each flag is (*names, add_argument keywords).  A route-owned
# flag has no default here: unset, it reads None and _resolve reads _ROUTES.
_COMMON = [("-o", "--output", dict(help="output path (default: stdout)")),
           ("--format", dict(choices=("csv", "json"), default="csv")),
           ("--n-max", dict(type=int, default=70,
                            help="half-index truncation; top level is 2 n_max + 3"))]
_CASE = [("--case", dict(choices=tuple(_ROUTES), required=True,
                         help="i: non-unitary route (beta); iii: unitary route (xi)"))]
_POINT = [("--r", dict(type=float, help="modulus of beta (case i)")),
          ("--theta", dict(type=float, help="phase of beta (case i)")),
          ("--xi", dict(type=float, help="modulus of xi (case iii, < 1)")),
          ("--xi-phase", dict(type=float, help="phase of xi (case iii)"))]
_R_SWEEP = [("--r-max", dict(type=float)), ("--r-steps", dict(type=int))]
_XI_SWEEP = [("--xi-max", dict(type=float)), ("--xi-steps", dict(type=int))]
_REPORT = [("-o", "--output", {}), ("--format", dict(choices=("csv", "json"), default="json"))]


def _axis(name: str, low: float, high: float, steps: int) -> list:
    """The --NAME-min, --NAME-max and --NAME-steps flags of a grid axis."""
    return [(f"--{name}-min", dict(type=float, default=low)),
            (f"--{name}-max", dict(type=float, default=high)),
            (f"--{name}-steps", dict(type=int, default=steps))]


# subcommand -> (help, handler, flags), in --help order
_COMMANDS = {
    "state": ("amplitude table of one state", _cmd_state, _COMMON + _CASE + _POINT),
    "stats": ("sweep meanK0, Q, g2, A3 over the modulus", _cmd_stats,
              _COMMON + _CASE + _R_SWEEP + [("--theta", dict(type=float))]
              + _XI_SWEEP + [("--xi-phase", dict(type=float))]),
    "squeeze": ("I1..I4 witnesses over an (r, theta) grid", _cmd_squeeze,
                _COMMON + _CASE + _R_SWEEP + _XI_SWEEP
                + [("--theta-steps", dict(type=int, default=128))]),
    "quad-dist": ("quadrature distribution P(x, phi), case i", _cmd_quad_dist,
                  _COMMON + [("--r", dict(type=float, required=True)),
                             ("--theta", dict(type=float, default=0.0))]
                  + _axis("x", -5.0, 5.0, 201) + [("--phi-steps", dict(type=int, default=256))]),
    "quasiprob": ("s-parameterized quasi-probability F(x, p)", _cmd_quasiprob,
                  _COMMON + _CASE + _POINT
                  + [("--s", dict(type=float, default=0.0, help="ordering parameter, < 1"))]
                  + _axis("x", -4.0, 4.0, 161) + _axis("p", -4.0, 4.0, 161)),
    "verify-algebra": ("commutator and Casimir deviation report", _cmd_verify_algebra,
                       _REPORT + [("--n-low", dict(type=int, default=3)),
                                  ("--n-high", dict(type=int, default=60))]),
    "dual-check": ("divergence diagnostic of the mirror-route series", _cmd_dual_check,
                   _REPORT + [("--terms", dict(type=int, default=50))]),
}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isosqueeze",
        description="Squeezed states of the deformed oscillator ladder: "
        "state tables, photon statistics, squeezing witnesses and "
        "phase-space distributions as reproducible CSV/JSON.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        # a value that float() reads and that starts with "-" (-1e308, -inf) is a value, not a flag
        sub._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
        for *names, options in flags:
            sub.add_argument(*names, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():  # an unset route-owned flag reads None
            if name.endswith("_steps") and value is not None and value < 1:
                raise InvalidParameter(f"{_flag(name)} must be at least 1, got {value}")
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParameter(f"{_flag(name)} must be finite, got {value}")
            if isinstance(value, int) and value >= 2**53:  # float64 counts and levels stop being exact
                raise InvalidParameter(f"{_flag(name)} must be below 2**53, got {value}")
        out = _COMMANDS[args.command][1](args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 3
    out.write(args.output, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
