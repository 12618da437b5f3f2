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
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bifurcation import count_solutions, mass_curve, mass_of_density
from .bifurcation import convergence_study as run_convergence_study
from .dynamics import _write_text, integrate_trajectory, radial_Q_integrate
from .models import ModelKind, ModelSpec, sigma_d
from .numerics import DEFAULT_CONFIG, ConfigError, NumericsConfig, NumericsError

__all__ = ["RunConfig", "build_parser", "main"]


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


class _Key(NamedTuple):
    """One run key: its caster, default, flag help and the subcommands taking it."""

    cast: Callable
    default: object
    help: str
    commands: tuple[str, ...] | None = None  # None: every subcommand
    choices: tuple[str, ...] | None = None
    short: str | None = None


_CURVE = ("mass-curve", "multiplicity")

# The run keys in flag order.  A key's flag is ``--`` and the key with ``-``
# for ``_``; a config file takes the keys themselves and the fields of
# NumericsConfig.
_KEYS = {
    "kind": _Key(str, "mb", "statistics family", choices=("mb", "sfd", "ffd")),
    "d": _Key(int, 3, "spatial dimension (3..9)"),
    "eta": _Key(float, None, "degeneracy parameter"),
    "s_start": _Key(float, -20.0, "launch log-radius"),
    "out": _Key(str, None, "artifact path (default: stdout)", short="-o"),
    "format": _Key(str, None, "artifact format", choices=("csv", "json")),
    "rho_min": _Key(float, 1e-2, "low end of density scan", _CURVE),
    "rho_max": _Key(float, 1e8, "high end of density scan", _CURVE),
    "points_per_decade": _Key(int, 16, "grid density", _CURVE),
    "mass": _Key(float, None, "target mass", _CURVE),
    "rho": _Key(float, 1.0, "scaled central density", ("phase", "converge", "crosscheck")),
    "s_end": _Key(float, 0.0, "final log-radius", ("phase",)),
    "etas": _Key(_parse_eta_list, None, "comma-separated decreasing eta ladder", ("converge",)),
}

_NUMERICS_CASTS = {f.name: type(f.default) for f in dataclasses.fields(NumericsConfig)}
_FILE_CASTS = {**{key: spec.cast for key, spec in _KEYS.items()}, **_NUMERICS_CASTS}


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
        if key not in _FILE_CASTS:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
        try:
            out[key] = _FILE_CASTS[key](value)
        except ConfigError:
            raise  # the eta list parser's own message
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
        values = {}
        for key, spec in _KEYS.items():
            value = getattr(args, key, None)
            if value is None:
                value = file_map.get(key, spec.default)
            values[key] = None if value is None else spec.cast(value)
        _handler, default_format, _help = _COMMANDS[args.command]
        fmt = values["format"] = values["format"] or default_format
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
        overrides = {k: file_map[k] for k in _NUMERICS_CASTS if k in file_map}
        numerics = dataclasses.replace(DEFAULT_CONFIG, **overrides)
        return cls(command=args.command, numerics=numerics, **values)

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
        config = dataclasses.asdict(self)
        del config["out"]
        return config


def _emit(run: RunConfig, write, summary_lines) -> None:
    """Write the artifact to --out (summary to stdout) or to stdout (summary to stderr)."""
    write(sys.stdout if run.out is None else run.out)
    summary = sys.stderr if run.out is None else sys.stdout
    for line in summary_lines:
        print(line, file=summary)


def _emit_json(run: RunConfig, payload: dict, summary_lines) -> None:
    payload = dict(payload)
    payload["config"] = run.echo()
    text = json.dumps(payload, indent=2) + "\n"
    _emit(run, lambda destination: _write_text(destination, text), summary_lines)


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
    _emit(run, traj.to_csv, summary)
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


# Each subcommand: its handler, default artifact format and help line.
_COMMANDS = {
    "mass-curve": (cmd_mass_curve, "csv", "scan the mass-density curve"),
    "phase": (cmd_phase, "csv", "write one trajectory as CSV"),
    "multiplicity": (cmd_multiplicity, "json", "count equilibria at a target mass"),
    "converge": (cmd_converge, "json", "classical-limit gap study"),
    "crosscheck": (cmd_crosscheck, "json", "dynamical vs radial mass agreement"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicloud",
        description="Equilibria of self-attracting particle clouds: curves, portraits, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, _format, help_line) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        for key, spec in _KEYS.items():
            if spec.commands is not None and command not in spec.commands:
                continue
            flags = ["--" + key.replace("_", "-")] + ([spec.short] if spec.short else [])
            # --etas stays a string until RunConfig casts it, so that a bad
            # list is the same ConfigError from a flag as from a file.
            flag_type = None if spec.cast is _parse_eta_list else spec.cast
            sp.add_argument(
                *flags, dest=key, type=flag_type, choices=spec.choices, help=spec.help
            )
        sp.add_argument("--config", help="config file (JSON object or key=value lines)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = RunConfig.from_args(args)
        return _COMMANDS[args.command][0](run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
