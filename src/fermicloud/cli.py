"""Command-line front end for curve generation, phase portraits, and audits.

Five subcommands drive the library: ``mass-curve`` scans the shooting map,
``phase`` writes one trajectory, ``multiplicity`` counts equilibria at a
target mass, ``converge`` runs the classical-limit study, and ``crosscheck``
compares the dynamical and radial routes to the same mass.  Every run merges
three configuration layers with fixed precedence (command-line flags, then a
``--config`` file, then built-in defaults), validates the merged values before
computing anything, and echoes the effective configuration into every JSON
artifact so a published file can reproduce its own run.  Identical
configurations produce byte-identical artifacts.

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
failures; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from .bifurcation import count_solutions, mass_curve, mass_of_density
from .bifurcation import convergence_study as run_convergence_study
from .dynamics import integrate_trajectory, radial_Q_integrate
from .models import ModelKind, ModelSpec, sigma_d
from .numerics import DEFAULT_CONFIG, ConfigError, NumericsConfig, NumericsError

__all__ = ["RunConfig", "build_parser", "main"]

_NUMERICS_KEYS = (
    "quad_rel_tol",
    "quad_split_margin",
    "root_tol",
    "ode_rel_tol",
    "ode_abs_tol",
    "max_steps",
)

# Casters double as the registry of recognized config-file keys.
_CASTERS = {
    "kind": str,
    "d": int,
    "eta": float,
    "rho": float,
    "rho_min": float,
    "rho_max": float,
    "points_per_decade": int,
    "mass": float,
    "s_start": float,
    "s_end": float,
    "etas": None,
    "out": str,
    "format": str,
    "quad_rel_tol": float,
    "quad_split_margin": float,
    "root_tol": float,
    "ode_rel_tol": float,
    "ode_abs_tol": float,
    "max_steps": int,
}

_DEFAULTS = {
    "kind": "mb",
    "d": 3,
    "eta": None,
    "rho": 1.0,
    "rho_min": 1e-2,
    "rho_max": 1e8,
    "points_per_decade": 16,
    "mass": None,
    "s_start": -20.0,
    "s_end": 0.0,
    "etas": None,
    "out": None,
    "format": None,
}

_DEFAULT_FORMATS = {
    "mass-curve": "csv",
    "phase": "csv",
    "multiplicity": "json",
    "converge": "json",
    "crosscheck": "json",
}


def _parse_eta_list(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
    else:
        parts = list(value)
    try:
        etas = tuple(float(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed eta list {value!r}: {exc}") from exc
    if not etas:
        raise ConfigError("eta list must not be empty")
    return etas


def load_config_file(path: str) -> dict:
    """Read a structured (JSON object) or ``key=value`` line config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
    except json.JSONDecodeError:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(
                    f"config file {path!r} line {lineno}: expected key=value, got {line!r}"
                )
            raw[key.strip()] = value.strip()
    out = {}
    for key, value in raw.items():
        if key not in _CASTERS:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
        if key == "etas":
            out[key] = _parse_eta_list(value)
            continue
        try:
            out[key] = _CASTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r}: {exc}") from exc
    return out


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one command after precedence merging."""

    command: str
    kind: str
    d: int
    eta: float | None
    rho: float
    rho_min: float
    rho_max: float
    points_per_decade: int
    mass: float | None
    s_start: float
    s_end: float
    etas: tuple[float, ...] | None
    out: str | None
    format: str
    numerics: NumericsConfig

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        file_map = load_config_file(args.config) if args.config else {}

        def pick(key):
            flag = getattr(args, key, None)
            if flag is not None:
                return flag
            if key in file_map:
                return file_map[key]
            return _DEFAULTS[key]

        overrides = {k: file_map[k] for k in _NUMERICS_KEYS if k in file_map}
        numerics = (
            dataclasses.replace(DEFAULT_CONFIG, **overrides) if overrides else DEFAULT_CONFIG
        )
        etas = pick("etas")
        fmt = pick("format") or _DEFAULT_FORMATS[args.command]
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
        return cls(
            command=args.command,
            kind=str(pick("kind")),
            d=int(pick("d")),
            eta=pick("eta"),
            rho=float(pick("rho")),
            rho_min=float(pick("rho_min")),
            rho_max=float(pick("rho_max")),
            points_per_decade=int(pick("points_per_decade")),
            mass=pick("mass"),
            s_start=float(pick("s_start")),
            s_end=float(pick("s_end")),
            etas=_parse_eta_list(etas) if etas is not None else None,
            out=pick("out"),
            format=fmt,
            numerics=numerics,
        )

    def model_spec(self) -> ModelSpec:
        try:
            kind = ModelKind(self.kind)
        except ValueError as exc:
            raise ConfigError(f"kind must be one of mb, sfd, ffd, got {self.kind!r}") from exc
        if kind is ModelKind.MAXWELL_BOLTZMANN:
            return ModelSpec(kind, self.d)  # the classical kind ignores --eta
        if self.eta is None:
            raise ConfigError(f"--eta is required for kind {kind.value!r}")
        return ModelSpec(kind, self.d, self.eta)

    def echo(self) -> dict:
        """Effective configuration as embedded in JSON artifacts."""
        return {
            "command": self.command,
            "kind": self.kind,
            "d": self.d,
            "eta": self.eta,
            "rho": self.rho,
            "rho_min": self.rho_min,
            "rho_max": self.rho_max,
            "points_per_decade": self.points_per_decade,
            "mass": self.mass,
            "s_start": self.s_start,
            "s_end": self.s_end,
            "etas": list(self.etas) if self.etas is not None else None,
            "format": self.format,
            "numerics": dataclasses.asdict(self.numerics),
        }


def _emit(run: RunConfig, render, summary_lines) -> None:
    """Write the artifact to --out (summary to stdout) or to stdout alone."""
    if run.out is None:
        render(sys.stdout)
        return
    with open(run.out, "w", encoding="utf-8") as fh:
        render(fh)
    for line in summary_lines:
        print(line)


def _emit_json(run: RunConfig, payload: dict, summary_lines) -> None:
    payload = dict(payload)
    payload["config"] = run.echo()
    text = json.dumps(payload, indent=2) + "\n"
    _emit(run, lambda fh: fh.write(text), summary_lines)


def cmd_mass_curve(run: RunConfig) -> int:
    model = run.model_spec()
    curve = mass_curve(
        model, run.rho_min, run.rho_max, run.points_per_decade, run.numerics, run.s_start
    )
    if not curve.points:
        raise NumericsError("every grid point failed; nothing to write")
    summary = [
        f"points: {len(curve.points)} ({len(curve.failures)} failed)",
        "mass range: [%.6g, %.6g]" % curve.mass_range(),
    ]
    if run.mass is not None:
        mult, roots = count_solutions(curve, run.mass, run.numerics)
        summary.append(
            "crossings of M=%.6g: %d at rho = %s"
            % (run.mass, mult, ", ".join("%.6g" % r for r in roots))
        )
    if run.format == "csv":
        _emit(run, curve.to_csv, summary)
    else:
        _emit_json(run, curve.to_json_dict(), summary)
    return 0


def cmd_phase(run: RunConfig) -> int:
    if run.format != "csv":
        raise ConfigError("phase writes CSV only; drop --format json")
    model = run.model_spec()
    traj = integrate_trajectory(model, run.rho, run.s_start, run.s_end, run.numerics)
    end = traj.end_state
    summary = [
        f"rows: {len(traj.samples)}",
        "end state: s=%.6g x=%.9g y=%.9g" % (end.s, end.x, end.y),
    ]
    lyap = model.kind is ModelKind.MAXWELL_BOLTZMANN
    _emit(run, lambda fh: traj.to_csv(fh, lyapunov_column=lyap), summary)
    return 0


def cmd_multiplicity(run: RunConfig) -> int:
    if run.mass is None:
        raise ConfigError("--mass is required for multiplicity")
    model = run.model_spec()
    curve = mass_curve(
        model, run.rho_min, run.rho_max, run.points_per_decade, run.numerics, run.s_start
    )
    if not curve.points:
        raise NumericsError("every grid point failed; no curve to search")
    mult, roots = count_solutions(curve, run.mass, run.numerics)
    payload = {"M_target": run.mass, "multiplicity": mult, "roots": list(roots)}
    _emit_json(run, payload, ["multiplicity: %d" % mult])
    return 0


def cmd_converge(run: RunConfig) -> int:
    if run.etas is None:
        raise ConfigError("--etas is required for converge (e.g. --etas 1e-2,1e-3)")
    reports = run_convergence_study(
        run.d, run.kind, run.rho, list(run.etas), run.numerics, run.s_start
    )
    payload = {
        "d": run.d,
        "kind": run.kind,
        "rho0": run.rho,
        "reports": [r.to_json_dict() for r in reports],
    }
    last = reports[-1]
    _emit_json(
        run,
        payload,
        ["reports: %d" % len(reports), "sup_uniform_gap(eta=%g): %.6e" % (last.eta, last.sup_uniform_gap)],
    )
    return 0


def cmd_crosscheck(run: RunConfig) -> int:
    model = run.model_spec()
    x0 = mass_of_density(model, run.rho, run.numerics, run.s_start) / sigma_d(model.d)
    q1, _ = radial_Q_integrate(model, run.rho, cfg=run.numerics)
    rel = abs(x0 - q1) / max(abs(x0), abs(q1))
    payload = {"x0": x0, "Q1": q1, "rel_diff": rel}
    _emit_json(run, payload, ["rel_diff: %.3e" % rel])
    return 0


_COMMANDS = {
    "mass-curve": cmd_mass_curve,
    "phase": cmd_phase,
    "multiplicity": cmd_multiplicity,
    "converge": cmd_converge,
    "crosscheck": cmd_crosscheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicloud",
        description="Equilibria of self-attracting particle clouds: curves, portraits, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--kind", choices=("mb", "sfd", "ffd"), help="statistics family")
        sp.add_argument("--d", type=int, help="spatial dimension (3..9)")
        sp.add_argument("--eta", type=float, help="degeneracy parameter")
        sp.add_argument("--s-start", type=float, dest="s_start", help="launch log-radius")
        sp.add_argument("--out", "-o", help="artifact path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="artifact format")
        sp.add_argument("--config", help="config file (JSON object or key=value lines)")

    def curve_flags(sp):
        sp.add_argument("--rho-min", type=float, dest="rho_min", help="low end of density scan")
        sp.add_argument("--rho-max", type=float, dest="rho_max", help="high end of density scan")
        sp.add_argument(
            "--points-per-decade", type=int, dest="points_per_decade", help="grid density"
        )
        sp.add_argument("--mass", type=float, help="target mass")

    sp = sub.add_parser("mass-curve", help="scan the mass-density curve")
    common(sp)
    curve_flags(sp)

    sp = sub.add_parser("phase", help="write one trajectory as CSV")
    common(sp)
    sp.add_argument("--rho", type=float, help="scaled central density")
    sp.add_argument("--s-end", type=float, dest="s_end", help="final log-radius")

    sp = sub.add_parser("multiplicity", help="count equilibria at a target mass")
    common(sp)
    curve_flags(sp)

    sp = sub.add_parser("converge", help="classical-limit gap study")
    common(sp)
    sp.add_argument("--rho", type=float, help="shared central density rho0")
    sp.add_argument("--etas", help="comma-separated decreasing eta ladder")

    sp = sub.add_parser("crosscheck", help="dynamical vs radial mass agreement")
    common(sp)
    sp.add_argument("--rho", type=float, help="scaled central density")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = RunConfig.from_args(args)
        return _COMMANDS[args.command](run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
