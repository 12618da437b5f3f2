"""The three benchmark workloads: inputs from a seed, two timed stages, checks.

Each workload is a closed loop with a single caller in one thread: a pass runs
its two stages back to back, and the next pass starts only when the previous
one has returned.  Every library call goes through an attribute of a
``fermicloud`` module at call time, so the tracer's wrappers see it.

The seed only shifts densities by a fraction of one grid cell.  Kinds,
dimensions, etas and target masses are fixed, so the committed reference roots
hold for every seed.

This module imports nothing outside the standard library: the set-up probe
imports it before it starts timing ``import fermicloud``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

ROOT_RTOL = 1e-6
CROSS_RTOL = 1e-6

# classical-limit inputs
DIMS = (3, 5, 7, 9)
KINDS = ("sfd", "ffd")
ETA = 1e-2
ETA_LADDER = (1e-2, 1e-3, 1e-4)
RHO0 = 1.0
CROSS_RHOS = (0.1, 1.0, 10.0)
LYAPUNOV_S_END = 10.0

PHASE_HEADER = "s,x,y,r,Q,Qprime,density"


def grid_shift(seed: int) -> float:
    """Fraction of one grid cell, in [0, 1), by which the seed shifts densities."""
    return random.Random(seed).random()


class Tally:
    """Operations of one pass, filled by the checks after the timed stages.

    A failed operation raised a typed ``NumericsError``, returned a report
    whose pass flag is false, exited non-zero, or produced an output that
    misses its reference.  Only the last kind is also a miss: a wrong answer
    rather than a reported failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.misses: list[str] = []

    def record(self, label: str, ok: bool, miss: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)
            if miss:
                self.misses.append(label)


def _attempt(fc, fn, *args, **kwargs):
    """Call ``fn``; a typed numerical failure is returned instead of raised."""
    try:
        return fn(*args, **kwargs)
    except fc.NumericsError as exc:
        return exc


def _failure(out) -> str | None:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {str(out)[:160]}"
    return None


class Workload:
    """One named workload; ``stage_names`` name its two timed stages."""

    name = ""
    stage_names: tuple[str, str] = ("", "")
    bound_dims: tuple[int, ...] = ()

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.shift = grid_shift(seed)
        self.reference = reference.get(self.name, {})

    @classmethod
    def setup_models(cls, fc) -> list:
        raise NotImplementedError

    @classmethod
    def setup(cls, fc) -> None:
        """Fill every lazy table the workload uses."""
        for model in cls.setup_models(fc):
            fc.R_value(model, 1.0)
        for d in cls.bound_dims:
            fc.bound_constant_C(d)

    def stage1(self, fc, workdir: Path):
        raise NotImplementedError

    def stage2(self, fc, first, workdir: Path):
        raise NotImplementedError

    def check(self, first, second) -> Tally:
        raise NotImplementedError

    def info(self, first, second) -> dict:
        """Ungated facts about a pass's outputs."""
        return {}


class _Multiplicity(Workload):
    """``mass_curve`` over [1e-2, 1e8], then ``count_solutions`` at 2 sigma_3."""

    stage_names = ("curve_s", "roots_s")
    points_per_decade = 0

    @classmethod
    def model(cls, fc):
        raise NotImplementedError

    @classmethod
    def setup_models(cls, fc) -> list:
        return [cls.model(fc)]

    def stage1(self, fc, workdir):
        factor = 10.0 ** (self.shift / self.points_per_decade)
        return fc.mass_curve(
            self.model(fc), 1e-2 * factor, 1e8 * factor,
            points_per_decade=self.points_per_decade,
        )

    def stage2(self, fc, curve, workdir):
        return _attempt(fc, fc.count_solutions, curve, 2.0 * fc.sigma_d(3))

    def check(self, curve, counted) -> Tally:
        tally = Tally()
        for rho, _mass in curve.points:
            tally.record(f"grid rho={rho:.6g}", True)
        for rho, reason in curve.failures:
            tally.record(f"grid rho={rho:.6g}: {reason[:160]}", False)
        ref_roots = self.reference["roots"]
        if isinstance(counted, Exception):
            for ref in ref_roots:
                tally.record(f"root near {ref:.6g}: {_failure(counted)}", False)
            return tally
        _n, roots = counted
        unmatched = list(roots)
        for ref in ref_roots:
            hit = next((r for r in unmatched if abs(r - ref) <= ROOT_RTOL * ref), None)
            if hit is not None:
                unmatched.remove(hit)
            tally.record(f"root near {ref:.6g}", hit is not None, miss=True)
        for extra in unmatched:
            tally.record(f"root {extra:.6g} not in the reference", False, miss=True)
        return tally


class MbMultiplicity(_Multiplicity):
    name = "mb-multiplicity"
    points_per_decade = 16

    @classmethod
    def model(cls, fc):
        return fc.ModelSpec.maxwell_boltzmann(3)


class FfdMultiplicity(_Multiplicity):
    name = "ffd-multiplicity"
    points_per_decade = 8

    @classmethod
    def model(cls, fc):
        return fc.ModelSpec.full_fd(3, ETA)


class ClassicalLimit(Workload):
    """Studies and audits for d in DIMS and both degenerate kinds, then the CLI."""

    name = "classical-limit"
    stage_names = ("study_s", "cli_s")
    bound_dims = DIMS

    @classmethod
    def setup_models(cls, fc) -> list:
        models = []
        for d in DIMS:
            models.append(fc.ModelSpec.maxwell_boltzmann(d))
            for eta in ETA_LADDER:
                models.append(fc.ModelSpec.simplified_fd(d, eta))
                models.append(fc.ModelSpec.full_fd(d, eta))
        return models

    def cross_rhos(self) -> list[float]:
        # one cell is the decade between neighbouring cross-check densities
        return [rho * 10.0 ** self.shift for rho in CROSS_RHOS]

    def stage1(self, fc, workdir):
        results = []

        def attempt(label, rule, fn, *args, **kwargs):
            results.append((label, rule, _attempt(fc, fn, *args, **kwargs)))

        for d in DIMS:
            mb = fc.ModelSpec.maxwell_boltzmann(d)
            for kind in KINDS:
                model = fc.ModelSpec(kind, d, ETA)
                tag = f"d={d} {kind}"
                attempt(f"{tag} convergence_study", "ladder",
                        fc.convergence_study, d, kind, RHO0, ETA_LADDER)
                attempt(f"{tag} apriori_bound_audit", "report",
                        fc.apriori_bound_audit, model, RHO0, RHO0)
                attempt(f"{tag} C_eta_majorant", "majorant",
                        _majorant_and_limit, fc, model)
                fd_traj = _attempt(fc, fc.integrate_trajectory, model, RHO0)
                mb_traj = _attempt(fc, fc.integrate_trajectory, mb, RHO0)
                bad = _failure(fd_traj) or _failure(mb_traj)
                if bad:
                    results.append((f"{tag} difference_residual_audit", "report",
                                    fc.NumericsError(bad)))
                else:
                    attempt(f"{tag} difference_residual_audit", "report",
                            fc.difference_residual_audit, d, fd_traj, mb_traj)
                for rho in self.cross_rhos():
                    attempt(f"{tag} shooting vs radial at rho={rho:.6g}", "cross",
                            _shoot_and_radial, fc, model, rho)
            traj = _attempt(fc, fc.integrate_trajectory, mb, RHO0, s_end=LYAPUNOV_S_END)
            if isinstance(traj, Exception):
                results.append((f"d={d} mb lyapunov_decay_check", "report", traj))
            else:
                attempt(f"d={d} mb lyapunov_decay_check", "report",
                        fc.lyapunov_decay_check, traj)
        return results

    def cli_calls(self) -> list[tuple[str, str, list[str]]]:
        rho = repr(10.0 ** self.shift)
        return [
            ("phase mb", "phase_mb.csv",
             ["phase", "--kind", "mb", "--rho", "1", "--s-end", "10"]),
            ("phase ffd", "phase_ffd.csv",
             ["phase", "--kind", "ffd", "--eta", "1e-2", "--rho", "1", "--s-end", "10"]),
            ("converge sfd", "converge.json",
             ["converge", "--kind", "sfd", "--rho", "1", "--etas", "1e-2,1e-3,1e-4"]),
            ("crosscheck ffd", "crosscheck.json",
             ["crosscheck", "--kind", "ffd", "--eta", "1e-2", "--rho", rho]),
        ]

    def stage2(self, fc, first, workdir):
        cli = fc.cli
        results = []
        for label, filename, argv in self.cli_calls():
            path = workdir / filename
            if path.exists():
                path.unlink()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*argv, "--out", str(path)])
            results.append((label, path, code, sink.getvalue()))
        return results

    def check(self, studies, cli_results) -> Tally:
        tally = Tally()
        for label, rule, out in studies:
            reason = _failure(out)
            if reason:
                tally.record(f"{label}: {reason}", False)
            elif rule == "ladder":
                gaps = [r.sup_uniform_gap for r in out]
                ok = all(b < a for a, b in zip(gaps, gaps[1:]))
                tally.record(f"{label}: gaps {gaps}", ok)
            elif rule == "report":
                tally.record(f"{label}: {out!r}"[:240], out.passed)
            elif rule == "majorant":
                value, limit = out
                tally.record(f"{label}: C {value!r} vs limit {limit!r}", value <= limit)
            else:
                tally.record(f"{label}: rel diff {out!r}", out <= CROSS_RTOL, miss=True)
        for label, path, code, output in cli_results:
            if code != 0:
                tally.record(f"cli {label}: exit {code}: {output.strip()[:160]}", False)
                continue
            problem = _artifact_problem(label, path)
            tally.record(f"cli {label}: {problem}", problem is None, miss=True)
        return tally

    def info(self, studies, cli_results) -> dict:
        size = sum(path.stat().st_size for _l, path, _c, _o in cli_results if path.exists())
        return {"artifact_bytes": size}


def _majorant_and_limit(fc, model) -> tuple[float, float]:
    """C_eta and the bound acceptance criterion 7 holds it to."""
    value, _form = fc.C_eta_majorant(model)
    if model.kind.value == "sfd":
        return value, 1.0 + 1e-9
    c_d, _acc = fc.bound_constant_C(model.d)
    return value, (2.0 / model.mu) ** (2.0 / model.d) * c_d * 1.02


def _shoot_and_radial(fc, model, rho) -> float:
    """Relative disagreement of x(0) by shooting and Q(1) by the radial route."""
    x0 = fc.integrate_trajectory(model, rho).end_state.x
    q1, _qp1 = fc.radial_Q_integrate(model, rho)
    return abs(x0 - q1) / max(abs(x0), abs(q1))


def _artifact_problem(label: str, path: Path) -> str | None:
    """None when the CLI artifact parses and holds what its command promises."""
    if not path.is_file():
        return "no artifact written"
    text = path.read_text(encoding="utf-8")
    try:
        if label.startswith("phase"):
            lines = text.splitlines()
            header = PHASE_HEADER + (",lyapunov" if label == "phase mb" else "")
            if lines[0] != header:
                return f"unexpected header {lines[0]!r}"
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            width = header.count(",") + 1
            if len(rows) < 2 or any(len(r) != width for r in rows):
                return "malformed rows"
            if not all(math.isfinite(v) for r in rows for v in r):
                return "non-finite value"
            if rows[-1][0] != 10.0:
                return f"last row at s={rows[-1][0]!r}, not 10"
            return None
        payload = json.loads(text)
        if label.startswith("converge"):
            gaps = [r["sup_uniform_gap"] for r in payload["reports"]]
            if len(gaps) != len(ETA_LADDER) or not all(math.isfinite(g) for g in gaps):
                return f"gaps {gaps}"
            return None
        rel = payload["rel_diff"]
        return None if rel <= CROSS_RTOL else f"rel_diff {rel!r}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"artifact does not parse: {exc}"


WORKLOADS = {w.name: w for w in (MbMultiplicity, FfdMultiplicity, ClassicalLimit)}
