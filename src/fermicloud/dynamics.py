"""Shooting dynamics for the equilibrium cloud profiles.

The steady-state profile in d dimensions is generated by a planar system in
the log-radius variable s = log r:

    x' = (2 - d) x + y,        y' = 2 y - x e^{2s} R(e^{-2s} y),

where R is the response function of the particle statistics (``models``).
For the classical kind R(z) = z and the system collapses to the autonomous
form y' = (2 - x) y.  Trajectories launch from the asymptotic data
x ~ (rho/d) e^{2s}, y ~ rho e^{2s} at s -> -infinity, with rho the central
density of the profile; the integrated mass inside radius 1 is read off at
s = 0 through the substitution Q(e^s) = x(s) e^{(d-2)s}.

Integration detail: for s <= 0 the solver advances the density-rescaled
pair (x e^{-2s}, log(y e^{-2s})) instead of (x, y).  The first component
stays O(rho) all the way down to the asymptotic end, so relative error
control applies uniformly and differences between trajectories keep
meaning there; (x, y) themselves decay like e^{2s} and would sink below
any fixed absolute tolerance.  The second component is the log-density:
degenerate profiles with high central density develop a sharp edge outside
of which the density falls off exponentially at rate x >> 1, and the log
form turns that near-vacuum atmosphere into a mildly varying state (and
keeps y > 0 by construction, where a linear formulation jitters across
zero once the density sinks below the error-control floor).  For s > 0 the
plain variables are integrated.  A trajectory therefore carries one or two
solver legs and converts on evaluation.

``radial_Q_integrate`` solves the equivalent second-order radial equation

    Q'' = (d - 1) Q'/r - Q R(r^{1-d} Q')

directly in r, as an independent cross-check of the shooting pathway.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import ModelKind, ModelSpec, response_fn, _check_d
from .numerics import (
    DEFAULT_CONFIG,
    ConfigError,
    DomainError,
    NumericsConfig,
    ode_integrate,
)

__all__ = [
    "State",
    "Trajectory",
    "LyapunovReport",
    "TRAJECTORY_CSV_HEADER",
    "COMPARISON_GRID_SIZE",
    "rhs_nonautonomous",
    "rhs_autonomous",
    "initial_state",
    "integrate_trajectory",
    "lyapunov",
    "lyapunov_decay_check",
    "to_radial",
    "from_radial",
    "density_profile",
    "radial_Q_integrate",
    "comparison_grid",
]

TRAJECTORY_CSV_HEADER = "s,x,y,r,Q,Qprime,density"

# Shared uniform sampling used for every cross-trajectory sup.
COMPARISON_GRID_SIZE = 2000

# exp() overflows just above this (log of the largest double is ~709.78).
_LOG_HUGE = 709.0

# exp() underflows to zero below this.
_LOG_TINY = -745.0

# Half-width for centered differences on dense output: h^2 truncation and
# interpolant noise both land near 1e-7 relative here.
_DIFF_HALF_WIDTH = 3e-4


def _write_text(destination, text: str) -> None:
    """Write text to a path or to a writable text file object."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(os.fspath(destination), "w", encoding="utf-8") as fh:
            fh.write(text)


def _leg_form(s, first, second, rescaled_leg: bool, scaled: bool, exp):
    """Convert one leg's stored pair at log-radius s (scalars or arrays).

    The rescaled leg stores (x e^{-2s}, log(y e^{-2s})), the plain leg (x, y).
    Returns (x, y), or with ``scaled`` (x e^{-2s}, y e^{-2s}); ``exp`` is
    ``math.exp`` for scalars and ``np.exp`` for arrays.
    """
    if rescaled_leg:
        if scaled:
            return first, exp(second)
        return first * exp(2.0 * s), exp(second + 2.0 * s)
    if not scaled:
        return first, second
    sc = exp(-2.0 * s)
    return first * sc, second * sc


@dataclass(frozen=True)
class State:
    """One phase point: log-radius s, integrated-mass variable x, flux variable y."""

    s: float
    x: float
    y: float


class Trajectory:
    """Dense solution of one shooting integration.

    Immutable after construction.  Stores the rescaled leg on s <= 0 (in
    (x e^{-2s}, log(y e^{-2s})) form) and, when the range extends past 0, a
    plain (x, y) leg; evaluation converts as needed, so values at very
    negative s keep full relative accuracy.
    """

    def __init__(self, model: ModelSpec, rho: float, scaled_leg, plain_leg=None):
        self.model = model
        self.rho = float(rho)
        self._scaled = scaled_leg
        self._plain = plain_leg
        self.s_start = scaled_leg.t0
        self.s_end = plain_leg.t1 if plain_leg is not None else scaled_leg.t1
        self._split = scaled_leg.t1
        # (dense output, stores the rescaled pair) of each leg, in increasing s
        self._legs = [(scaled_leg, True)]
        if plain_leg is not None:
            self._legs.append((plain_leg, False))

    def __repr__(self) -> str:
        n = len(self._scaled.ts)
        if self._plain is not None:
            n += len(self._plain.ts) - 1
        return (
            f"Trajectory({self.model.kind.value}, d={self.model.d}, "
            f"rho={self.rho!r}, s in [{self.s_start!r}, {self.s_end!r}], {n} samples)"
        )

    def _check_range(self, lo: float, hi: float) -> None:
        slack = 1e-9 * max(1.0, self.s_end - self.s_start)
        if lo < self.s_start - slack or hi > self.s_end + slack:
            raise DomainError(
                f"sample location outside trajectory range "
                f"[{self.s_start!r}, {self.s_end!r}]"
            )

    def _sample(self, s_values, scaled: bool) -> tuple[np.ndarray, np.ndarray]:
        s_arr = np.atleast_1d(np.asarray(s_values, dtype=float))
        if s_arr.size:
            self._check_range(float(s_arr.min()), float(s_arr.max()))
        first = np.empty_like(s_arr)
        second = np.empty_like(s_arr)
        low = s_arr <= self._split if self._plain is not None else np.full(s_arr.shape, True)
        for on_leg, (leg, rescaled) in zip((low, ~low), self._legs):
            if on_leg.any():
                s = s_arr[on_leg]
                first[on_leg], second[on_leg] = _leg_form(s, *leg(s), rescaled, scaled, np.exp)
        return first, second

    def sample(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x, y) at the given log-radii (array-like, any order)."""
        return self._sample(s_values, scaled=False)

    def sample_scaled(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x e^{-2s}, y e^{-2s}); the second one is the local density."""
        return self._sample(s_values, scaled=True)

    def density(self, s_values) -> np.ndarray:
        """Local density y(s) e^{-2s} at the given log-radii."""
        return self.sample_scaled(s_values)[1]

    def at(self, s: float) -> State:
        """State at one log-radius, read with float arithmetic.

        Equal bit for bit to :meth:`sample` at the same point: it reads the
        same leg and converts with the same ``np.exp``.
        """
        s = float(s)
        self._check_range(s, s)
        plain = self._plain is not None and s > self._split
        leg, rescaled = self._legs[plain]
        x, y = _leg_form(s, *leg(s), rescaled, False, np.exp)
        return State(s, float(x), float(y))

    def _rows(self) -> list[tuple[float, float, float, float]]:
        """(s, x, y, density) at the solver nodes, in increasing s."""
        out = []
        for k, (leg, rescaled) in enumerate(self._legs):
            # The plain leg starts at s = 0, the rescaled leg's last node.
            for t, (a, b) in zip(leg.ts[k:], leg.states[k:]):
                t, a, b = float(t), float(a), float(b)
                x, y = _leg_form(t, a, b, rescaled, False, math.exp)
                out.append((t, x, y, _leg_form(t, a, b, rescaled, True, math.exp)[1]))
        return out

    @cached_property
    def samples(self) -> tuple[State, ...]:
        """States at the solver's accepted steps, strictly increasing in s."""
        return tuple(State(s, x, y) for s, x, y, _ in self._rows())

    @property
    def end_state(self) -> State:
        leg, rescaled = self._legs[-1]
        a, b = leg.end_state
        x, y = _leg_form(leg.t1, float(a), float(b), rescaled, False, math.exp)
        return State(leg.t1, x, y)

    def to_csv(self, destination, lyapunov_column: bool = False) -> None:
        """Write the sampled trajectory as CSV (17 significant digits).

        Columns: s, x, y and their radial images r = e^s, Q = x e^{(d-2)s},
        Qprime = y e^{(d-3)s}, plus the local density.  ``lyapunov_column``
        appends the Lyapunov value of each row (meaningful for the classical
        kind).  ``destination`` is a path or a writable text file object.
        """
        d = self.model.d
        header = TRAJECTORY_CSV_HEADER + (",lyapunov" if lyapunov_column else "")
        lines = [header]
        for s, x, y, dens in self._rows():
            r, q, qp = to_radial(State(s, x, y), d)
            vals = [s, x, y, r, q, qp, dens]
            if lyapunov_column:
                vals.append(lyapunov(d, x, y))
            lines.append(",".join("%.17g" % v for v in vals))
        _write_text(destination, "\n".join(lines) + "\n")


def _plain_field(model: ModelSpec):
    """The field of :func:`rhs_nonautonomous` as a closure (s, (x, y)) -> (x', y').

    Classical statistics (eta = 0, which covers the classical kind) take the
    autonomous form; a trial value y <= 0 leaves only the source term 2y.
    """
    d = model.d
    classical = model.eta == 0.0
    resp = response_fn(model)

    def field(s, u):
        x, y = u
        dx = (2.0 - d) * x + y
        if classical:
            return dx, (2.0 - x) * y
        if not y > 0.0:
            return dx, 2.0 * y
        if abs(2.0 * s) < _LOG_HUGE:
            z = y * math.exp(-2.0 * s)
        else:
            z = math.exp(math.log(y) - 2.0 * s)
        ratio = resp(z) / z if z > 0.0 else 1.0
        return dx, 2.0 * y - x * y * ratio

    return field


def rhs_nonautonomous(model: ModelSpec, s: float, x: float, y: float) -> tuple[float, float]:
    """Vector field of the driven system at one phase point.

    Returns ``((2-d)x + y, 2y - x e^{2s} R(e^{-2s} y))``, the field that
    :func:`integrate_trajectory` advances past s = 0.  The sink term is
    evaluated as ``x y (R(z)/z)`` with z = e^{-2s} y: the ratio lies in
    (0, 1], tends to 1 in the classical limit z -> 0, and stays finite for
    every s where z is representable.  The classical kind reduces to the
    autonomous field exactly.

    Raises
    ------
    DomainError
        If y < 0, or the response argument e^{-2s} y overflows.
    """
    if not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"need finite s and x, got s={s!r}, x={x!r}")
    if not (math.isfinite(y) and y >= 0.0):
        raise DomainError(f"need finite y >= 0, got {y!r}")
    if model.eta != 0.0 and y > 0.0 and math.log(y) - 2.0 * s > _LOG_HUGE:
        raise DomainError(f"response argument e^(-2 s) y overflows at s={s!r}")
    return _plain_field(model)(s, (x, y))


def rhs_autonomous(d: int, x: float, y: float) -> tuple[float, float]:
    """Vector field of the classical system: ``((2-d)x + y, (2-x)y)``."""
    d = _check_d(d)
    return (2.0 - d) * x + y, (2.0 - x) * y


def initial_state(d: int, rho: float, s_start: float) -> State:
    """Leading-order asymptotic data (x, y) = (rho/d, rho) e^{2 s_start}.

    The ratio x/y = 1/d is the asymptotic slope every trajectory enters
    with; the relative error of the leading order is O(e^{2 s_start}),
    which motivates the s_start <= -10 requirement.
    """
    d = _check_d(d)
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 0.0):
        raise ConfigError(f"central density must be finite and positive, got {rho!r}")
    if not (isinstance(s_start, (int, float)) and math.isfinite(s_start)):
        raise ConfigError(f"s_start must be finite, got {s_start!r}")
    if s_start > -10.0:
        raise ConfigError(
            f"s_start must be <= -10 (asymptotic data not trustworthy closer in), "
            f"got {s_start!r}"
        )
    y = rho * math.exp(2.0 * s_start)
    return State(float(s_start), y / d, y)


def integrate_trajectory(
    model: ModelSpec,
    rho: float,
    s_start: float = -20.0,
    s_end: float = 0.0,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """Integrate one shooting trajectory from asymptotic data.

    On [s_start, min(s_end, 0)] the rescaled pair
    (x e^{-2s}, log(y e^{-2s})) is advanced, with the absolute tolerance of
    the first component scaled by min(1, rho); any remainder integrates
    (x, y) directly, with the field of :func:`rhs_nonautonomous` (one
    definition serves both).  The hot response closure comes from
    :func:`models.response_fn`, so every statistics kind runs the same two
    fields.  The flux variable is kept in log form below s = 0, so
    y > 0 holds by construction there; a zero crossing of x (physically
    impossible) aborts with :class:`PositivityError`, as does one of x or y
    on the s > 0 leg.  Finite-time escape raises :class:`BlowUpError`.
    """
    if not isinstance(model, ModelSpec):
        raise ConfigError(f"model must be a ModelSpec, got {model!r}")
    initial_state(model.d, rho, s_start)  # validates rho and the asymptotic entry
    if not (isinstance(s_end, (int, float)) and math.isfinite(s_end) and s_end > s_start):
        raise ConfigError(f"need s_start < s_end, got {s_start!r} >= {s_end!r}")
    d = model.d
    resp = response_fn(model)
    rho = float(rho)
    split = min(float(s_end), 0.0)

    def scaled_rhs(s, u):
        xt, w = u
        yt = math.exp(w) if w > _LOG_TINY else 0.0
        ratio = resp(yt) / yt if yt > 0.0 else 1.0
        return yt - d * xt, -xt * math.exp(2.0 * s) * ratio

    scaled_leg = ode_integrate(
        scaled_rhs,
        float(s_start),
        (rho / d, math.log(rho)),
        split,
        cfg,
        abs_tol=np.array([cfg.ode_abs_tol * min(1.0, rho), cfg.ode_abs_tol]),
        stop_events=(lambda s, u: u[0],),
    )
    plain_leg = None
    if s_end > 0.0:
        xt_end, w_end = scaled_leg.end_state  # the scale factor at s = 0 is 1
        # The y event tolerates exact underflow to 0.0 in the vacuum tail of
        # compact degenerate profiles; only a real negative excursion fires.
        plain_leg = ode_integrate(
            _plain_field(model),
            0.0,
            (float(xt_end), math.exp(float(w_end))),
            float(s_end),
            cfg,
            stop_events=(lambda s, u: u[0], lambda s, u: u[1] + 1e-300),
        )
    return Trajectory(model, rho, scaled_leg, plain_leg)


def lyapunov(d: int, x: float, y: float) -> float:
    """Lyapunov value (1/2)(x-2)^2 + y - 2(d-2) - 2(d-2) log(y / (2d-4)).

    Nonnegative, vanishing exactly at the sink (2, 2(d-2)).
    """
    d = _check_d(d)
    if not math.isfinite(x):
        raise DomainError(f"need finite x, got {x!r}")
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"Lyapunov value needs y > 0, got {y!r}")
    yeq = 2.0 * (d - 2)
    return 0.5 * (x - 2.0) ** 2 + y - yeq - yeq * math.log(y / yeq)


def _lyapunov_array(d: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    yeq = 2.0 * (d - 2)
    return 0.5 * (x - 2.0) ** 2 + y - yeq - yeq * np.log(y / yeq)


@dataclass(frozen=True)
class LyapunovReport:
    """Outcome of a monotone-decay audit along a classical trajectory.

    ``max_step_increase`` is the largest increase of L between consecutive
    grid points; ``identity_max_rel_err`` is the worst relative mismatch of
    the differentiated L against the decay rate (2-d)(x-2)^2, measured
    where |x-2| > 0.1; ``offending_s`` lists grid points whose step
    increase exceeded the tolerance.
    """

    max_step_increase: float
    decay_ok: bool
    identity_max_rel_err: float
    identity_ok: bool
    offending_s: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.decay_ok and self.identity_ok


def lyapunov_decay_check(
    traj: Trajectory,
    n_samples: int = 2001,
    step_tol: float = 1e-9,
    identity_rtol: float = 1e-3,
) -> LyapunovReport:
    """Audit Lyapunov decay along a classical-kind trajectory.

    Samples L on a uniform grid of ``n_samples`` points, requires every
    step increment <= ``step_tol``, and compares centered-difference
    derivatives (half-width 3e-4 on the dense output) against the decay
    rate (2-d)(x-2)^2 wherever |x-2| > 0.1.
    """
    if not isinstance(traj, Trajectory):
        raise ConfigError(f"need a Trajectory, got {traj!r}")
    if traj.model.kind is not ModelKind.MAXWELL_BOLTZMANN:
        raise ConfigError("Lyapunov decay is a property of the classical kind only")
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 3):
        raise ConfigError(f"need at least 3 samples, got {n_samples!r}")
    d = traj.model.d
    grid = np.linspace(traj.s_start, traj.s_end, int(n_samples))
    x, y = traj.sample(grid)
    lyap = _lyapunov_array(d, x, y)
    steps = np.diff(lyap)
    max_increase = float(steps.max())
    offending = grid[1:][steps > step_tol]
    decay_ok = offending.size == 0

    h = _DIFF_HALF_WIDTH
    inner = grid[(grid >= traj.s_start + h) & (grid <= traj.s_end - h)]
    xp, yp = traj.sample(inner + h)
    xm, ym = traj.sample(inner - h)
    deriv = (_lyapunov_array(d, xp, yp) - _lyapunov_array(d, xm, ym)) / (2.0 * h)
    xi, _ = traj.sample(inner)
    target = (2.0 - d) * (xi - 2.0) ** 2
    mask = np.abs(xi - 2.0) > 0.1
    if mask.any():
        rel = np.abs(deriv[mask] - target[mask]) / np.abs(target[mask])
        identity_err = float(rel.max())
    else:
        identity_err = 0.0
    return LyapunovReport(
        max_step_increase=max_increase,
        decay_ok=decay_ok,
        identity_max_rel_err=identity_err,
        identity_ok=identity_err <= identity_rtol,
        offending_s=tuple(float(v) for v in offending),
    )


def to_radial(state: State, d: int) -> tuple[float, float, float]:
    """Radial image (r, Q, Q') = (e^s, x e^{(d-2)s}, y e^{(d-3)s}) of a state."""
    d = _check_d(d)
    s = state.s
    try:
        r = math.exp(s)
        q = state.x * math.exp((d - 2) * s)
        qp = state.y * math.exp((d - 3) * s)
    except OverflowError:
        raise DomainError(f"radial substitution overflows at s={s!r}") from None
    if not (math.isfinite(r) and math.isfinite(q) and math.isfinite(qp)):
        raise DomainError(f"radial substitution overflows at s={s!r}")
    return r, q, qp


def from_radial(r: float, q: float, qprime: float, d: int) -> State:
    """Inverse of :func:`to_radial`: phase state from (r, Q, Q')."""
    d = _check_d(d)
    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0.0):
        raise DomainError(f"need radius r > 0, got {r!r}")
    x = q / r ** (d - 2)
    y = qprime / r ** (d - 3)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"radial substitution overflows at r={r!r}")
    return State(math.log(r), x, y)


def density_profile(traj: Trajectory) -> list[tuple[float, float]]:
    """Pairs (r, density) at the trajectory's sample nodes.

    The density is y(s) e^{-2s}, read off the rescaled leg where available,
    so the central plateau (r -> 0, density -> rho) keeps full relative
    accuracy.
    """
    return [(math.exp(s), dens) for s, _x, _y, dens in traj._rows()]


def radial_Q_integrate(
    model: ModelSpec,
    rho: float,
    r0: float = 1e-6,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    full_output: bool = False,
):
    """Endpoint (Q(1), Q'(1)) of the second-order radial equation.

    Starts from the leading series Q(r0) = (rho/d) r0^d,
    Q'(r0) = rho r0^{d-1} and integrates Q'' = (d-1)Q'/r - Q R(r^{1-d} Q')
    up to r = 1, entirely in the radial variable: no part of the (s, x, y)
    pathway is reused, so agreement of Q(1) with x(0) cross-checks both.
    Absolute tolerances are scaled per component to the series data, which
    keeps the error control effectively relative while the components grow.

    With ``full_output=True`` the dense radial path is returned as a third
    element.
    """
    if not isinstance(model, ModelSpec):
        raise ConfigError(f"model must be a ModelSpec, got {model!r}")
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 0.0):
        raise ConfigError(f"central density must be finite and positive, got {rho!r}")
    if not (isinstance(r0, (int, float)) and 0.0 < r0 <= 1e-4):
        raise ConfigError(f"r0 must lie in (0, 1e-4], got {r0!r}")
    d = model.d
    rho = float(rho)
    r0 = float(r0)
    q0 = (rho / d) * r0**d
    qp0 = rho * r0 ** (d - 1)
    if q0 == 0.0 or qp0 == 0.0:
        raise ConfigError(f"series data underflows at r0={r0!r} for d={d}")
    resp = response_fn(model)
    pw = d - 1

    def rhs(r, u):
        q, qp = u
        dens = qp / r**pw
        if dens < 0.0:  # trial steps may poke below zero
            dens = 0.0
        return qp, pw / r * qp - q * resp(dens)

    # The Qprime event tolerates exact underflow to 0.0 (vacuum tail of a
    # compact profile); only a real negative excursion fires.
    path = ode_integrate(
        rhs,
        r0,
        (q0, qp0),
        1.0,
        cfg,
        abs_tol=np.array([q0, qp0]) * cfg.ode_abs_tol,
        stop_events=(lambda r, u: u[0], lambda r, u: u[1] + 1e-300),
    )
    q1, qp1 = path.end_state
    if full_output:
        return float(q1), float(qp1), path
    return float(q1), float(qp1)


def comparison_grid(s_start: float, n: int = COMPARISON_GRID_SIZE) -> np.ndarray:
    """Shared uniform grid on [s_start, 0] for cross-trajectory sups."""
    if not (isinstance(s_start, (int, float)) and math.isfinite(s_start) and s_start < 0.0):
        raise ConfigError(f"need s_start < 0, got {s_start!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ConfigError(f"need at least 2 grid points, got {n!r}")
    return np.linspace(float(s_start), 0.0, int(n))
