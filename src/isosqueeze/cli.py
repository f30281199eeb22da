"""Command-line front end emitting figure-reproduction data.

Each subcommand wires parameters into the computation modules and
writes deterministic CSV (12 significant digits, fixed column order)
or JSON.  Identical invocations produce byte-identical output, which
is what the golden-file tests rely on.  Numeric oddities encountered
during a sweep (truncation tail too fat, moment ratios undefined at a
degenerate grid point) are surfaced as warnings in the JSON metadata,
never as failures: sweeps must not abort at degenerate cells.

Exit status: 0 success (warnings included), 2 usage error, 3 refused
input (``ValidationError``, ``InvalidParameter`` including
``RadiusViolation``, ``SParameterOutOfRange``).  Any other exception,
a ``ValueError`` raised inside a computation included, is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import algebra, dist, squeezing, stats
from .fock import InvalidParameter
from .states import (
    CASE_NONLINEAR,
    CASE_UNITARY,
    SqueezeParams,
    build_state,
    dual_series_diagnosis,
)

__all__ = ["main"]

TAIL_WARN_THRESHOLD = 1e-6


class ValidationError(ValueError):
    """Bad parameter combination; maps to exit status 3."""


@dataclass
class _Output:
    """Collects one command's table + metadata, then writes it once."""

    command: str
    columns: Sequence[str] = ()
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def _formats(self) -> list[str]:
        """Per-column %-format, from the value types of the first row."""
        if not self.rows:
            return []
        return ["%.12g" if isinstance(v, float) else "%s" for v in self.rows[0]]

    def csv_text(self) -> str:
        template = ",".join(self._formats())
        lines = [",".join(self.columns)]
        lines.extend(template % row for row in self.rows)
        return "\n".join(lines) + "\n"

    def json_payload(self) -> dict:
        formats = self._formats()
        return {
            "command": self.command,
            **self.meta,
            "warnings": self.warnings,
            "columns": list(self.columns),
            "rows": [[f % v for f, v in zip(formats, row)] for row in self.rows],
        }

    def write(self, path: str | None, fmt: str) -> None:
        if fmt == "json":
            text = json.dumps(self.json_payload(), indent=1) + "\n"
            if path:
                with open(path, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return
        text = self.csv_text()
        header = {"command": self.command, **self.meta, "warnings": self.warnings}
        if path:
            with open(path, "w") as fh:
                fh.write(text)
            with open(path + ".meta.json", "w") as fh:
                fh.write(json.dumps(header, indent=1) + "\n")
        else:
            sys.stdout.write(text)
        for message in self.warnings:
            print(f"warning: {message}", file=sys.stderr)


def _params_from_args(args, r_override: float | None = None) -> SqueezeParams:
    """Resolve the mutually exclusive (r, theta) vs (xi, xi_phase) groups."""
    if args.case == "i":
        if getattr(args, "xi", None) is not None:
            raise ValidationError("--xi belongs to --case iii; use --r/--theta with --case i")
        r = args.r if r_override is None else r_override
        if r is None:
            raise ValidationError("--case i requires --r")
        return SqueezeParams(kind=CASE_NONLINEAR, r=r, theta=args.theta, n_max=args.n_max)
    if getattr(args, "r", None) is not None:
        raise ValidationError("--r belongs to --case i; use --xi with --case iii")
    xi = args.xi if r_override is None else r_override
    if xi is None:
        raise ValidationError("--case iii requires --xi")
    return SqueezeParams(kind=CASE_UNITARY, r=xi, theta=args.xi_phase, n_max=args.n_max)


def _check_tail(out: _Output, vec) -> None:
    if vec.tail_bound > TAIL_WARN_THRESHOLD:
        out.warn(f"tail_mass {vec.tail_bound:.3e} exceeds {TAIL_WARN_THRESHOLD:g}; raise --n-max")


def _modulus_grid(args) -> tuple[np.ndarray, float, int]:
    """Sweep grid over (0, max]: the degenerate 0 endpoint is excluded."""
    if args.case == "i":
        top, steps = args.r_max, args.r_steps
    else:
        top, steps = args.xi_max, args.xi_steps
        if top >= 1.0:
            raise ValidationError(f"--xi-max must be < 1, got {top}")
    if top <= 0:
        raise ValidationError("sweep maximum must be positive")
    return np.linspace(top / steps, top, steps), top, steps


def _grid_rows(grid: dist.DistGrid) -> list[tuple]:
    """(axis1, axis2, value) rows of a 2-D grid, row-major in (axis1, axis2)."""
    n1, n2 = grid.values.shape
    return list(zip(
        np.repeat(grid.axis1, n2).tolist(),
        np.tile(grid.axis2, n1).tolist(),
        grid.values.ravel().tolist(),
    ))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_state(args) -> _Output:
    params = _params_from_args(args)
    vec = build_state(params)
    out = _Output(
        command="state",
        columns=("level", "re", "im", "prob"),
        meta={"case": args.case, "r": params.r, "theta": params.theta, "n_max": params.n_max,
              "tail_bound": vec.tail_bound},
    )
    _check_tail(out, vec)
    for level, amp in zip(vec.levels, vec.amps):
        if amp == 0:
            continue  # structural zeros (odd offsets, padding) carry no information
        out.rows.append((int(level), float(amp.real), float(amp.imag), float(abs(amp) ** 2)))
    return out


def _cmd_stats(args) -> _Output:
    grid, top, steps = _modulus_grid(args)
    out = _Output(
        command="stats",
        columns=("r", "meanK0", "Q", "g2", "A3"),
        meta={"case": args.case, "max": top, "steps": steps, "n_max": args.n_max},
    )
    for r in grid:
        params = _params_from_args(args, r_override=float(r))
        vec = build_state(params)
        _check_tail(out, vec)
        mean, _ = stats.excitation_moments(vec)
        try:
            q = stats.mandel_q(vec)
            g2 = stats.g2_zero(vec)
        except stats.UndefinedMoment:
            out.warn(f"Q/g2 undefined at r={r:.6g} (zero mean excitation)")
            q = g2 = math.nan
        try:
            a3 = stats.a3_parameter(vec)
        except stats.UndefinedA3:
            out.warn(f"A3 undefined at r={r:.6g} (degenerate moments)")
            a3 = math.nan
        out.rows.append((float(r), mean, q, g2, a3))
    return out


def _cmd_squeeze(args) -> _Output:
    grid, top, steps = _modulus_grid(args)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.theta_steps, endpoint=False)
    out = _Output(
        command="squeeze",
        columns=("r", "theta", "I1", "I2", "I3", "I4"),
        meta={"case": args.case, "max": top, "steps": steps,
              "theta_steps": args.theta_steps, "n_max": args.n_max},
    )
    kind = CASE_NONLINEAR if args.case == "i" else CASE_UNITARY
    for report in squeezing.squeezing_grid(kind, grid, thetas, n_max=args.n_max):
        out.rows.append((report.r, report.theta, report.i1, report.i2, report.i3, report.i4))
        if not report.uncertainty_ok:
            out.warn(f"uncertainty product below bound at r={report.r:.6g}, theta={report.theta:.6g}")
    return out


def _cmd_quad_dist(args) -> _Output:
    params = SqueezeParams(kind=CASE_NONLINEAR, r=args.r, theta=args.theta, n_max=args.n_max)
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    phis = np.linspace(0.0, 2.0 * math.pi, args.phi_steps, endpoint=False)
    vec = build_state(params)
    grid = dist.quadrature_distribution_closed(params, vec, xs, phis)
    out = _Output(
        command="quad-dist",
        columns=("x", "phi", "P"),
        meta={"case": "i", "r": args.r, "theta": args.theta, "n_max": args.n_max,
              "grid": {"x": [args.x_min, args.x_max, args.x_steps], "phi_steps": args.phi_steps}},
    )
    _check_tail(out, vec)
    out.rows = _grid_rows(grid)
    return out


def _cmd_quasiprob(args) -> _Output:
    if args.s >= 1.0:
        raise ValidationError(f"--s must be < 1, got {args.s}")
    params = _params_from_args(args)
    bound = (1.0 - args.s) / (1.0 + args.s) if args.s > -1.0 else math.inf
    if params.kind == CASE_UNITARY and params.r >= bound:
        # the double sum diverges there: the s-ordered function does not exist
        raise ValidationError(f"case iii needs |xi| < (1 - s)/(1 + s) = {bound:.6g}, got {params.r}")
    vec = build_state(params)
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    ps = np.linspace(args.p_min, args.p_max, args.p_steps)
    grid = dist.quasi_probability_grid(vec, xs, ps, args.s)
    out = _Output(
        command="quasiprob",
        columns=("x", "p", "F"),
        meta={"case": args.case, "r": params.r, "theta": params.theta,
              "s": args.s, "n_max": params.n_max,
              "grid": {"x": [args.x_min, args.x_max, args.x_steps],
                       "p": [args.p_min, args.p_max, args.p_steps]}},
    )
    _check_tail(out, vec)
    out.rows = _grid_rows(grid)
    return out


def _cmd_verify_algebra(args) -> _Output:
    report = algebra.verify_commutators(args.n_low, args.n_high)
    casimir_peak = max(abs(algebra.casimir_eigenvalue(n)) for n in range(args.n_low, args.n_high + 1))
    out = _Output(command="verify-algebra", columns=("identity", "max_deviation"))
    out.meta = {
        "levels": report["levels"],
        "max_deviation": report["max_deviation"],
        "casimir_peak": casimir_peak,
    }
    for label, dev in report["identities"].items():
        out.rows.append((label, float(dev)))
    return out


def _cmd_dual_check(args) -> _Output:
    report = dual_series_diagnosis(args.terms)
    out = _Output(command="dual-check", columns=("n", "x_n"))
    out.meta = {
        "terms": args.terms,
        "limit_estimate": report.limit_estimate,
        "verdict": report.verdict,
    }
    for n, x in enumerate(report.x_seq, start=1):
        out.rows.append((n, float(x)))
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, cases: bool = True) -> None:
    sub.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--n-max", type=int, default=70,
                     help="half-index truncation; top level is 2 n_max + 3")
    if cases:
        sub.add_argument("--case", choices=("i", "iii"), required=True,
                         help="i: non-unitary route (beta); iii: unitary route (xi)")


def _add_point_params(sub) -> None:
    sub.add_argument("--r", type=float, default=None, help="modulus of beta (case i)")
    sub.add_argument("--theta", type=float, default=0.0, help="phase of beta (case i)")
    sub.add_argument("--xi", type=float, default=None, help="modulus of xi (case iii, < 1)")
    sub.add_argument("--xi-phase", type=float, default=0.0, help="phase of xi (case iii)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isosqueeze",
        description="Squeezed states of the deformed oscillator ladder: "
        "state tables, photon statistics, squeezing witnesses and "
        "phase-space distributions as reproducible CSV/JSON.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("state", help="amplitude table of one state")
    _add_common(sub)
    _add_point_params(sub)
    sub.set_defaults(func=_cmd_state)

    sub = subs.add_parser("stats", help="sweep meanK0, Q, g2, A3 over the modulus")
    _add_common(sub)
    sub.add_argument("--r-max", type=float, default=31.0)
    sub.add_argument("--r-steps", type=int, default=64)
    sub.add_argument("--theta", type=float, default=0.0)
    sub.add_argument("--xi-max", type=float, default=0.9)
    sub.add_argument("--xi-steps", type=int, default=64)
    sub.add_argument("--xi-phase", type=float, default=0.0)
    sub.set_defaults(func=_cmd_stats)

    sub = subs.add_parser("squeeze", help="I1..I4 witnesses over an (r, theta) grid")
    _add_common(sub)
    sub.add_argument("--r-max", type=float, default=31.0)
    sub.add_argument("--r-steps", type=int, default=64)
    sub.add_argument("--xi-max", type=float, default=0.9)
    sub.add_argument("--xi-steps", type=int, default=64)
    sub.add_argument("--theta-steps", type=int, default=128)
    sub.set_defaults(func=_cmd_squeeze)

    sub = subs.add_parser("quad-dist", help="quadrature distribution P(x, phi), case i")
    _add_common(sub, cases=False)
    sub.add_argument("--r", type=float, required=True)
    sub.add_argument("--theta", type=float, default=0.0)
    sub.add_argument("--x-min", type=float, default=-5.0)
    sub.add_argument("--x-max", type=float, default=5.0)
    sub.add_argument("--x-steps", type=int, default=201)
    sub.add_argument("--phi-steps", type=int, default=256)
    sub.set_defaults(func=_cmd_quad_dist)

    sub = subs.add_parser("quasiprob", help="s-parameterized quasi-probability F(x, p)")
    _add_common(sub)
    _add_point_params(sub)
    sub.add_argument("--s", type=float, default=0.0, help="ordering parameter, < 1")
    sub.add_argument("--x-min", type=float, default=-4.0)
    sub.add_argument("--x-max", type=float, default=4.0)
    sub.add_argument("--x-steps", type=int, default=161)
    sub.add_argument("--p-min", type=float, default=-4.0)
    sub.add_argument("--p-max", type=float, default=4.0)
    sub.add_argument("--p-steps", type=int, default=161)
    sub.set_defaults(func=_cmd_quasiprob)

    sub = subs.add_parser("verify-algebra", help="commutator and Casimir deviation report")
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--n-low", type=int, default=3)
    sub.add_argument("--n-high", type=int, default=60)
    sub.set_defaults(func=_cmd_verify_algebra)

    sub = subs.add_parser("dual-check", help="divergence diagnostic of the mirror-route series")
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--terms", type=int, default=50)
    sub.set_defaults(func=_cmd_dual_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            flag = "--" + name.replace("_", "-")
            if name.endswith("_steps") and value < 1:
                raise ValidationError(f"{flag} must be at least 1, got {value}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{flag} must be finite, got {value}")
        out = args.func(args)
    except (ValidationError, InvalidParameter, dist.SParameterOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out.write(args.output, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
