"""In-memory tracer that wraps the library's entry points from outside.

``install`` replaces each traced function, in every ``fermicloud`` module that
holds a reference to it, by a timing wrapper; ``uninstall`` puts the originals
back.  Coarse boundaries (studies, curves, trajectories, ODE solves, CLI
calls, evaluator builds) are recorded as spans with name, start, end and
parent.  Per-RHS boundaries (the response closure, ``FermiEvaluator.inverse``
and ``value``, ``fermi_f``, quadrature, ``R_value``, ``S_value``, trajectory
sampling) only add to per-key counts and times.  Self time of a call is its
duration minus the time of the traced calls nested in it.

All records stay in memory; the caller writes the spans out at the end.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

LAYERS = ("numerics", "fermi", "models", "dynamics", "bifurcation", "cli")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_share", "_per_step", "_per_rhs", "_per_root")):
        return "ratio"
    return "count"


# Every per-layer metric a traced run prints, with its unit.
UNITS = {name: _unit(name) for name in (
    "numerics.ode_integrate.calls", "numerics.ode_integrate.self_s", "numerics.steps",
    "numerics.rhs_evals", "numerics.rhs_per_step", "numerics.quad.calls",
    "numerics.quad.self_s",
    "fermi.inverse.calls", "fermi.inverse.self_s", "fermi.value.calls", "fermi.value.self_s",
    "fermi.inverse_per_rhs", "fermi.evaluator_builds", "fermi.evaluator_build_s",
    "fermi.fermi_f.calls",
    "models.response.calls", "models.response.self_s", "models.R_value.calls",
    "models.S_value.calls", "models.scan.self_s",
    "dynamics.integrate_trajectory.calls", "dynamics.integrate_trajectory.self_s",
    "dynamics.shoot_ms_p50", "dynamics.shoot_ms_p90", "dynamics.sample.points",
    "dynamics.sample.self_s", "dynamics.radial.self_s",
    "bifurcation.shoots", "bifurcation.refine_shoots_per_root",
    "bifurcation.count_solutions.self_s", "bifurcation.mass_curve.self_s",
    "bifurcation.curve_failures",
    "cli.calls", "cli.self_s", "cli.artifact_bytes",
    *(f"layer.{layer}.self_s" for layer in LAYERS),
    "bench.self_s",
    "shape.ode_integrate_curve_share", "shape.response_fermi_curve_share",
    "trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "trace.overhead_share",
    "trace.spans",
)}


class Tracer:
    """Counts, times and spans of one traced region, keyed by stage scope."""

    def __init__(self) -> None:
        self.scope = "setup"
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, self_s, incl_s]
        self.counts: dict[tuple[str, str], float] = {}
        self.shoot_s: list[float] = []
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stage_s: dict[str, float] = {}
        self._stack = [[0.0]]
        self._top = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, n: float) -> None:
        key = (self.scope, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, key: str, fn, span: bool = False, durations: list | None = None):
        """Timing wrapper around ``fn`` that books its self time under ``key``."""
        stats = self.stats
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            if span:
                sid = len(spans)
                spans.append([key, 0.0, 0.0, self._top])
                parent, self._top = self._top, sid
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                st = stats.get((self.scope, key))
                if st is None:
                    st = stats[(self.scope, key)] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += elapsed - frame[0]
                st[2] += elapsed
                if span:
                    spans[sid][1] = t0
                    spans[sid][2] = t0 + elapsed
                    self._top = parent
                if durations is not None:
                    durations.append(elapsed)

        return traced

    def stage(self, name: str, fn, *args):
        """Run one timed stage of a pass as a span and a scope of its own."""
        self.scope = name
        t0 = time.perf_counter()
        try:
            return self.wrap("stage." + name, fn, span=True)(*args)
        finally:
            self.stage_s[name] = time.perf_counter() - t0

    # -- patching ------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fermicloud" and not mod_name.startswith("fermicloud."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self) -> None:
        """Wrap the traced entry points of the imported ``fermicloud``."""
        from fermicloud import bifurcation, cli, dynamics, fermi, models, numerics

        wrap = self.wrap
        ode_integrate = numerics.ode_integrate
        response_fn = models.response_fn
        mass_curve = bifurcation.mass_curve
        count_solutions = bifurcation.count_solutions

        def ode_counted(field, *args, **kwargs):
            n = 0

            def counted(t, u):
                nonlocal n
                n += 1
                return field(t, u)

            try:
                path = ode_integrate(counted, *args, **kwargs)
            finally:
                self.add("rhs_evals", n)
            self.add("steps", len(path.ts) - 1)
            return path

        def response_traced(*args, **kwargs):
            return wrap("models.response", response_fn(*args, **kwargs))

        def curve_counted(*args, **kwargs):
            curve = mass_curve(*args, **kwargs)
            self.add("curve_failures", len(curve.failures))
            return curve

        def roots_counted(*args, **kwargs):
            n, roots = count_solutions(*args, **kwargs)
            self.add("roots", len(roots))
            return n, roots

        replacements = [
            (ode_integrate, wrap("numerics.ode_integrate", ode_counted, span=True)),
            (numerics.integrate_semi_infinite,
             wrap("numerics.quad", numerics.integrate_semi_infinite)),
            (fermi.fermi_f, wrap("fermi.fermi_f", fermi.fermi_f)),
            (fermi.bound_constant_C,
             wrap("fermi.bound_constant_C", fermi.bound_constant_C, span=True)),
            (response_fn, response_traced),
            (models.R_value, wrap("models.R_value", models.R_value)),
            (models.S_value, wrap("models.S_value", models.S_value)),
            (models.C_eta_majorant,
             wrap("models.C_eta_majorant", models.C_eta_majorant, span=True)),
            (dynamics.integrate_trajectory,
             wrap("dynamics.integrate_trajectory", dynamics.integrate_trajectory,
                  span=True, durations=self.shoot_s)),
            (dynamics.radial_Q_integrate,
             wrap("dynamics.radial", dynamics.radial_Q_integrate, span=True)),
            (dynamics.lyapunov_decay_check,
             wrap("dynamics.lyapunov_decay_check", dynamics.lyapunov_decay_check, span=True)),
            (bifurcation.mass_of_density,
             wrap("bifurcation.mass_of_density", bifurcation.mass_of_density, span=True)),
            (mass_curve, wrap("bifurcation.mass_curve", curve_counted, span=True)),
            (count_solutions, wrap("bifurcation.count_solutions", roots_counted, span=True)),
            (bifurcation.convergence_study,
             wrap("bifurcation.convergence_study", bifurcation.convergence_study, span=True)),
            (bifurcation.apriori_bound_audit,
             wrap("bifurcation.apriori_bound_audit", bifurcation.apriori_bound_audit, span=True)),
            (bifurcation.difference_residual_audit,
             wrap("bifurcation.difference_residual_audit",
                  bifurcation.difference_residual_audit, span=True)),
            (cli.main, wrap("cli.main", cli.main, span=True)),
        ]
        for original, replacement in replacements:
            self._replace(original, replacement)

        evaluator = fermi.FermiEvaluator
        self._replace_method(
            evaluator, "__init__", wrap("fermi.build", evaluator.__init__, span=True))
        self._replace_method(evaluator, "inverse", wrap("fermi.inverse", evaluator.inverse))
        self._replace_method(evaluator, "value", wrap("fermi.value", evaluator.value))
        trajectory = dynamics.Trajectory
        for name in ("sample", "sample_scaled"):
            method = trajectory.__dict__[name]

            def sample_counted(traj, s_values, _method=method):
                self.add("sample_points", int(np.size(s_values)))
                return _method(traj, s_values)

            self._replace_method(trajectory, name, wrap("dynamics.sample", sample_counted))
        self._replace_method(
            trajectory, "to_csv", wrap("dynamics.to_csv", trajectory.to_csv))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def span_records(self, origin: float) -> list[dict]:
        return [
            {"id": i, "name": name, "start_s": start - origin, "end_s": end - origin,
             "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def _merge(tracers: list[Tracer]) -> tuple[dict, dict, list, dict]:
    stats: dict[tuple[str, str], list] = {}
    counts: dict[tuple[str, str], float] = {}
    shoot_s: list[float] = []
    stage_s: dict[str, float] = {}
    for tr in tracers:
        for key, (calls, self_s, incl_s) in tr.stats.items():
            st = stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += self_s
            st[2] += incl_s
        for key, n in tr.counts.items():
            counts[key] = counts.get(key, 0) + n
        shoot_s.extend(tr.shoot_s)
        stage_s.update(tr.stage_s)
    return stats, counts, shoot_s, stage_s


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics of a traced set-up followed by one traced pass."""
    stats, counts, shoot_s, stage_s = _merge(tracers)

    def total(key: str, field: int, scope: str | None = None) -> float:
        return sum(v[field] for (sc, k), v in stats.items()
                   if k == key and (scope is None or sc == scope))

    def calls(key: str) -> int:
        return int(total(key, 0))

    def self_s(key: str) -> float:
        return total(key, 1)

    def layer_self(prefix: str) -> float:
        return sum(v[1] for (_sc, k), v in stats.items() if k.startswith(prefix + "."))

    def count(name: str) -> float:
        return sum(n for (_sc, k), n in counts.items() if k == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def shoot_ms(q: int) -> float:
        if len(shoot_s) < 2:
            return 1e3 * shoot_s[0] if shoot_s else 0.0
        return 1e3 * statistics.quantiles(shoot_s, n=10, method="inclusive")[q - 1]

    rhs = count("rhs_evals")
    steps = count("steps")
    curve_s = stage_s.get("curve_s", 0.0)
    response_fermi = sum(v[1] for (sc, k), v in stats.items()
                         if sc == "curve_s" and (k == "models.response" or k.startswith("fermi.")))
    metrics = {
        "numerics.ode_integrate.calls": calls("numerics.ode_integrate"),
        "numerics.ode_integrate.self_s": self_s("numerics.ode_integrate"),
        "numerics.steps": steps,
        "numerics.rhs_evals": rhs,
        "numerics.rhs_per_step": ratio(rhs, steps),
        "numerics.quad.calls": calls("numerics.quad"),
        "numerics.quad.self_s": self_s("numerics.quad"),
        "fermi.inverse.calls": calls("fermi.inverse"),
        "fermi.inverse.self_s": self_s("fermi.inverse"),
        "fermi.value.calls": calls("fermi.value"),
        "fermi.value.self_s": self_s("fermi.value"),
        "fermi.inverse_per_rhs": ratio(calls("fermi.inverse"), rhs),
        "fermi.evaluator_builds": calls("fermi.build"),
        "fermi.evaluator_build_s": total("fermi.build", 2),
        "fermi.fermi_f.calls": calls("fermi.fermi_f"),
        "models.response.calls": calls("models.response"),
        "models.response.self_s": self_s("models.response"),
        "models.R_value.calls": calls("models.R_value"),
        "models.S_value.calls": calls("models.S_value"),
        "models.scan.self_s": sum(self_s(k) for k in (
            "models.C_eta_majorant", "models.R_value", "models.S_value")),
        "dynamics.integrate_trajectory.calls": calls("dynamics.integrate_trajectory"),
        "dynamics.integrate_trajectory.self_s": self_s("dynamics.integrate_trajectory"),
        "dynamics.shoot_ms_p50": shoot_ms(5),
        "dynamics.shoot_ms_p90": shoot_ms(9),
        "dynamics.sample.points": count("sample_points"),
        "dynamics.sample.self_s": self_s("dynamics.sample"),
        "dynamics.radial.self_s": self_s("dynamics.radial"),
        "bifurcation.shoots": calls("bifurcation.mass_of_density"),
        "bifurcation.refine_shoots_per_root": ratio(
            total("bifurcation.mass_of_density", 0, scope="roots_s"), count("roots")),
        "bifurcation.count_solutions.self_s": self_s("bifurcation.count_solutions"),
        "bifurcation.mass_curve.self_s": self_s("bifurcation.mass_curve"),
        "bifurcation.curve_failures": count("curve_failures"),
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "shape.ode_integrate_curve_share": ratio(
            total("numerics.ode_integrate", 2, scope="curve_s"), curve_s),
        "shape.response_fermi_curve_share": ratio(response_fermi, curve_s),
        "bench.self_s": layer_self("stage"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self(layer)
    return metrics
