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

Integration detail: one solver leg advances the normalized logs
a = log(d x e^{-2s}/rho) and b = log(y e^{-2s}/rho), with the field

    a' = d expm1(b - a),        b' = -(rho/d) e^{a + 2s + g},

g = log(R(z)/z) read at log z = b + log rho (g = 0 for classical
statistics).  The launch is exactly (0, 0) and the state stays O(1) over
the central plateau, where floats are finest, so differences between
nearby trajectories keep meaning down to the asymptotic end.  The absolute
error of a log is the relative error of x or y, so one absolute tolerance
serves both, out to the exponentially thin atmosphere of a degenerate
profile; x and y are positive by construction.

Vacuum tail: (b - a)' = b' - d expm1(b - a) <= d, so once an accepted state
has b - a + d (s_end - s) < -50, e^{b-a} < e^-50 up to s_end and
a(s_end) = a - d (s_end - s) within d (s_end - s) e^-50.  The mass-curve
lanes (``_shoot_lanes``) retire there in that closed form.

``radial_Q_integrate`` solves the equivalent second-order radial equation

    Q'' = (d - 1) Q'/r - Q R(r^{1-d} Q')

directly in r, as an independent cross-check of the shooting pathway.  It
advances the normalized logs a = log(d Q/(rho r^d)) and b = log(Q'/(rho
r^{d-1})) of the same form, launched from the series to second order at
r = 1e-6, with R read through the z-based ``response_fn``: it shares the
solver and its tolerances with a shot, but not the variable, the launch or
the field, so agreement of Q(1) with x(0) still checks both.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fermi import _check_dimension
from .models import ModelSpec, _statistics, response_fn
from .numerics import (
    DEFAULT_CONFIG,
    ConfigError,
    DomainError,
    NumericsConfig,
    _initial_step,
    _ode_lanes,
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

# Exponent cap of the shooting and radial fields: their slopes stay below
# 1e262, so a trial stage far outside the physical range stays finite and is
# rejected.
_EXP_CAP = 600.0

# Relative term of the error control on the normalized logs; their absolute
# tolerance is ``ode_rel_tol``.
_LOG_REL_TOL = 1e-13
# Lanes per batch of _shoot_lanes (bounded memory), and the b - a + d (s_end - s)
# below which a lane retires (Vacuum tail, in the module docstring).
_LANE_CHUNK = 1024
_VACUUM_GAP = -50.0

# Half-width for centered differences on dense output: h^2 truncation and
# interpolant noise both land near 1e-7 relative here.
_DIFF_HALF_WIDTH = 3e-4

# Lyapunov audit: uniform grid size, allowed increase of L per grid step, and
# allowed relative error of its derivative against the decay rate.
_LYAPUNOV_SAMPLES = 2001
_LYAPUNOV_STEP_TOL = 1e-9
_LYAPUNOV_IDENTITY_RTOL = 1e-3
# Seed radius of the radial route's series launch.
_RADIAL_R0 = 1e-6


def _write_text(destination, text: str) -> None:
    """Write text to a path or to a writable text file object."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(os.fspath(destination), "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass(frozen=True)
class State:
    """One phase point: log-radius s, integrated-mass variable x, flux variable y."""

    s: float
    x: float
    y: float


class Trajectory:
    """Dense solution of one shooting integration.

    Immutable after construction.  Stores the solver's one leg in the
    normalized logs (a, b) of :func:`integrate_trajectory` and converts on
    evaluation: x = (rho/d) e^{a+2s}, y = rho e^{b+2s} and the density
    y e^{-2s} = rho e^b, so values at very negative s keep full relative
    accuracy.
    """

    def __init__(self, model: ModelSpec, rho: float, path):
        self.model = model
        self.rho = float(rho)
        self._path = path
        self._x_scale = self.rho / model.d
        self.s_start = path.t0
        self.s_end = path.t1

    def __repr__(self) -> str:
        return (
            f"Trajectory({self.model.kind.value}, d={self.model.d}, "
            f"rho={self.rho!r}, s in [{self.s_start!r}, {self.s_end!r}], "
            f"{len(self._path.ts)} samples)"
        )

    def _sample(self, s_values, scaled: bool) -> tuple[np.ndarray, np.ndarray]:
        s_arr = np.atleast_1d(np.asarray(s_values, dtype=float))
        a, b = self._path(s_arr)  # DomainError outside [s_start, s_end]
        if not scaled:
            a, b = a + 2.0 * s_arr, b + 2.0 * s_arr
        return self._x_scale * np.exp(a), self.rho * np.exp(b)

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
        same dense output and converts with the same ``np.exp``.
        """
        s = float(s)
        a, b = self._path(s)
        x = self._x_scale * float(np.exp(a + 2.0 * s))
        return State(s, x, self.rho * float(np.exp(b + 2.0 * s)))

    def _x_at(self, s: float) -> float:
        """``at(s).x`` without the y read and the State, for root refinement."""
        return self._x_scale * float(np.exp(self._path(s)[0] + 2.0 * s))

    def _row(self, s: float, a: float, b: float) -> tuple[float, float, float, float]:
        """(s, x, y, density) of one stored state, with ``math.exp``."""
        x, y = self._x_scale * math.exp(a + 2.0 * s), self.rho * math.exp(b + 2.0 * s)
        return s, x, y, self.rho * math.exp(b)

    def _rows(self) -> list[tuple[float, float, float, float]]:
        """(s, x, y, density) at the solver nodes, in increasing s."""
        path = self._path
        return [self._row(t, a, b) for t, (a, b) in zip(path.ts.tolist(), path.states.tolist())]

    @cached_property
    def samples(self) -> tuple[State, ...]:
        """States at the solver's accepted steps, strictly increasing in s."""
        return tuple(State(s, x, y) for s, x, y, _ in self._rows())

    @property
    def end_state(self) -> State:
        a, b = self._path.end_state.tolist()
        return State(*self._row(self.s_end, a, b)[:3])

    def to_csv(self, destination) -> None:
        """Write the sampled trajectory as CSV (17 significant digits).

        Columns: s, x, y and their radial images r = e^s, Q = x e^{(d-2)s},
        Qprime = y e^{(d-3)s}, plus the local density.  Classical statistics
        (eta = 0) append the Lyapunov value of each row.  ``destination`` is
        a path or a writable text file object.
        """
        d = self.model.d
        lyapunov_column = self.model.eta == 0.0
        header = TRAJECTORY_CSV_HEADER + (",lyapunov" if lyapunov_column else "")
        lines = [header]
        for s, x, y, dens in self._rows():
            r, q, qp = to_radial(State(s, x, y), d)
            vals = [s, x, y, r, q, qp, dens]
            if lyapunov_column:
                vals.append(lyapunov(d, x, y))
            lines.append(",".join("%.17g" % v for v in vals))
        _write_text(destination, "\n".join(lines) + "\n")


def rhs_nonautonomous(model: ModelSpec, s: float, x: float, y: float) -> tuple[float, float]:
    """Vector field of the driven system at one phase point.

    Returns ``((2-d)x + y, 2y - x e^{2s} R(e^{-2s} y))``, the field in the
    plain variables; :func:`integrate_trajectory` advances the same system
    in normalized logs.  The sink term is evaluated as ``x y (R(z)/z)``
    with z = e^{-2s} y: the ratio lies in (0, 1], tends to 1 in the
    classical limit z -> 0, and stays finite for every s where z is
    representable.  The classical kind reduces to the autonomous field
    exactly.

    Raises
    ------
    DomainError
        If y < 0, or the response argument e^{-2s} y overflows.
    """
    if not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"need finite s and x, got s={s!r}, x={x!r}")
    if not (math.isfinite(y) and y >= 0.0):
        raise DomainError(f"need finite y >= 0, got {y!r}")
    if model.eta == 0.0:
        return rhs_autonomous(model.d, x, y)
    dx = (2.0 - model.d) * x + y
    if y == 0.0:
        return dx, 0.0
    if math.log(y) - 2.0 * s > _LOG_HUGE:
        raise DomainError(f"response argument e^(-2 s) y overflows at s={s!r}")
    if abs(2.0 * s) < _LOG_HUGE:
        z = y * math.exp(-2.0 * s)
    else:
        z = math.exp(math.log(y) - 2.0 * s)
    ratio = response_fn(model)(z) / z if z > 0.0 else 1.0
    return dx, 2.0 * y - x * y * ratio


def rhs_autonomous(d: int, x: float, y: float) -> tuple[float, float]:
    """Vector field of the classical system: ``((2-d)x + y, (2-x)y)``."""
    d = _check_dimension(d)
    return (2.0 - d) * x + y, (2.0 - x) * y


def initial_state(d: int, rho: float, s_start: float) -> State:
    """Leading-order asymptotic data (x, y) = (rho/d, rho) e^{2 s_start}.

    The ratio x/y = 1/d is the asymptotic slope every trajectory enters
    with; the relative error of the leading order is O(e^{2 s_start}),
    which motivates the s_start <= -10 requirement.
    """
    d = _check_dimension(d)
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


def _shooting_field(model: ModelSpec, rho: float):
    """The field of the normalized logs as a closure (s, (a, b)) -> (a', b').

    ``a' = d expm1(b - a)`` and ``b' = -exp(a + 2s + log(rho/d) + g)``, with
    g = log(R(z)/z) at log z = b + log rho left out at eta = 0.  Both
    exponents are clamped at ``_EXP_CAP``, so a trial stage far outside the
    physical range gives a large finite slope that the step control
    rejects, never an ``OverflowError``.
    """
    d = model.d
    k = math.log(rho / d)
    exp, expm1, cap = math.exp, math.expm1, _EXP_CAP
    stats = _statistics(model)
    if stats.log_ratio is None:

        def field(s, u):
            a, b = u
            q = b - a
            e = a + 2.0 * s + k
            return d * expm1(q if q < cap else cap), -exp(e if e < cap else cap)

        return field
    g, c = stats.log_ratio, stats.log_shift + math.log(rho)

    def field(s, u):
        a, b = u
        q = b - a
        e = a + 2.0 * s + k + g(b + c)
        return d * expm1(q if q < cap else cap), -exp(e if e < cap else cap)

    return field


def integrate_trajectory(
    model: ModelSpec,
    rho: float,
    s_start: float = -20.0,
    s_end: float = 0.0,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """Integrate one shooting trajectory from asymptotic data.

    One solver leg on [s_start, s_end] advances the normalized logs
    a = log(d x e^{-2s}/rho) and b = log(y e^{-2s}/rho) from exactly (0, 0),
    the leading-order asymptotic data (see the module docstring).  Both logs
    carry the absolute tolerance ``cfg.ode_rel_tol``, which bounds the
    local relative error of x and y, plus a relative term of 1e-13;
    ``cfg.max_steps`` caps the leg's accepted steps.  The per-kind
    g = log(R/z) comes from the statistics object of ``models``, so every
    kind runs the same field.  x and y are positive by construction;
    finite-time escape raises :class:`BlowUpError`.
    """
    if not isinstance(model, ModelSpec):
        raise ConfigError(f"model must be a ModelSpec, got {model!r}")
    initial_state(model.d, rho, s_start)  # validates rho and the asymptotic entry
    if not (isinstance(s_end, (int, float)) and math.isfinite(s_end) and s_end > s_start):
        raise ConfigError(f"need s_start < s_end, got {s_start!r} >= {s_end!r}")
    rho = float(rho)
    path = ode_integrate(
        _shooting_field(model, rho),
        float(s_start),
        (0.0, 0.0),
        float(s_end),
        dataclasses.replace(cfg, ode_rel_tol=_LOG_REL_TOL),
        abs_tol=cfg.ode_rel_tol,
    )
    return Trajectory(model, rho, path)


def _shoot_lanes(model: ModelSpec, rhos, s_start: float, s_end: float, cfg: NumericsConfig):
    """x(s_end) of the shot of every rho (eta > 0), as lanes of :func:`numerics._ode_lanes`.

    The field, tolerances and first step of :func:`integrate_trajectory`, at most
    ``_LANE_CHUNK`` lanes per batch; a lane may retire into the vacuum closed form.
    Returns ``(x, lane_s_end, n_accepted, n_rejected)``, x NaN where a lane failed.
    """
    initial_state(model.d, 1.0, s_start)  # the per-rho launch check: s_start <= -10
    d, cap, stats, atol = model.d, _EXP_CAP, _statistics(model), cfg.ode_rel_tol

    def field(s, u, k, c):
        a, b = u
        e = a + 2.0 * s + k + stats.log_ratio_lanes(b + c)
        return np.array((d * np.expm1(np.minimum(b - a, cap)), -np.exp(np.minimum(e, cap))))

    retire = lambda s, u: u[1] - u[0] + d * (s_end - s) < _VACUUM_GAP

    def batch(chunk):
        h = [_initial_step(f, s_start, [0.0, 0.0], f(s_start, [0.0, 0.0]), s_end, _LOG_REL_TOL,
                           [atol, atol]) for f in (_shooting_field(model, r) for r in chunk)]
        k = np.array([math.log(r / d) for r in chunk])
        c = np.array([stats.log_shift + math.log(r) for r in chunk])
        return _ode_lanes(field, s_start, s_end, np.zeros((2, len(chunk))), np.array(h), (k, c),
                          _LOG_REL_TOL, atol, cfg.max_steps, retire)

    t_end, u_end, n_acc, n_rej, failed = (np.concatenate(v, axis=-1) for v in zip(
        *(batch(rhos[i:i + _LANE_CHUNK]) for i in range(0, len(rhos), _LANE_CHUNK))))
    a_end = (u_end[0] - d * (s_end - t_end)).tolist()
    x = [math.nan if bad else r / d * math.exp(v + 2.0 * s_end)
         for r, v, bad in zip(rhos, a_end, failed.tolist())]
    return x, t_end, n_acc, n_rej


def lyapunov(d: int, x: float, y: float) -> float:
    """Lyapunov value (1/2)(x-2)^2 + y - 2(d-2) - 2(d-2) log(y / (2d-4)).

    Nonnegative, vanishing exactly at the sink (2, 2(d-2)).
    """
    d = _check_dimension(d)
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


def lyapunov_decay_check(traj: Trajectory) -> LyapunovReport:
    """Audit Lyapunov decay along a trajectory with classical statistics (eta = 0).

    Samples L on a uniform grid of 2001 points, requires every step
    increment <= 1e-9, and requires centered-difference derivatives
    (half-width 3e-4 on the dense output) to match the decay rate
    (2-d)(x-2)^2 to 1e-3 relative wherever |x-2| > 0.1.
    """
    if not isinstance(traj, Trajectory):
        raise ConfigError(f"need a Trajectory, got {traj!r}")
    if traj.model.eta != 0.0:
        raise ConfigError("Lyapunov decay is a property of classical statistics (eta = 0) only")
    d = traj.model.d
    grid = np.linspace(traj.s_start, traj.s_end, _LYAPUNOV_SAMPLES)
    x, y = traj.sample(grid)
    lyap = _lyapunov_array(d, x, y)
    steps = np.diff(lyap)
    max_increase = float(steps.max())
    offending = grid[1:][steps > _LYAPUNOV_STEP_TOL]
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
        identity_ok=identity_err <= _LYAPUNOV_IDENTITY_RTOL,
        offending_s=tuple(float(v) for v in offending),
    )


def to_radial(state: State, d: int) -> tuple[float, float, float]:
    """Radial image (r, Q, Q') = (e^s, x e^{(d-2)s}, y e^{(d-3)s}) of a state."""
    d = _check_dimension(d)
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
    d = _check_dimension(d)
    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0.0):
        raise DomainError(f"need radius r > 0, got {r!r}")
    x = q / r ** (d - 2)
    y = qprime / r ** (d - 3)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"radial substitution overflows at r={r!r}")
    return State(math.log(r), x, y)


def density_profile(traj: Trajectory) -> list[tuple[float, float]]:
    """Pairs (r, density) at the trajectory's sample nodes.

    The density is y(s) e^{-2s} = rho e^b, read off the solver's normalized
    log b, so the central plateau (r -> 0, density -> rho) keeps full
    relative accuracy.
    """
    return [(math.exp(s), dens) for s, _x, _y, dens in traj._rows()]


def radial_Q_integrate(
    model: ModelSpec,
    rho: float,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Endpoint (Q(1), Q'(1)) of the second-order radial equation.

    Solves Q'' = (d-1)Q'/r - Q R(r^{1-d} Q') on [r0, 1], r0 = 1e-6, in the
    normalized logs a = log(d Q / (rho r^d)) and b = log(Q' / (rho r^{d-1})):

        a' = d expm1(b - a)/r,        b' = -(rho/d) r e^a R(z)/z,

    with z = rho e^b the density and R(z)/z taken as 1 where z underflows
    to 0.  They launch from the series b = beta r^2, a = d beta r^2/(d+2),
    beta = -R(rho)/(2d), off by O((rho r0^2)^2) at r0; both exponents are
    clamped like the shooting field's.  They carry the tolerances of a shot
    (absolute ``cfg.ode_rel_tol`` plus a relative term of 1e-13), so Q and
    Q' are positive by construction and their relative error stays
    controlled over the six decades of r.

    The route stays independent of the shooting pathway: its variable is r,
    not s = log r; it launches from the series at r0, not from the
    asymptotic data at s_start; and it reads R through :func:`response_fn`,
    not through the statistics' g = log(R/z).  Agreement of Q(1) with x(0)
    therefore cross-checks both.
    """
    if not isinstance(model, ModelSpec):
        raise ConfigError(f"model must be a ModelSpec, got {model!r}")
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 0.0):
        raise ConfigError(f"central density must be finite and positive, got {rho!r}")
    d = model.d
    rho = float(rho)
    k = rho / d
    resp = response_fn(model)
    exp, expm1, cap = math.exp, math.expm1, _EXP_CAP

    def field(r, u):
        a, b = u
        q = b - a
        z = rho * exp(b if b < cap else cap)
        ratio = resp(z) / z if z > 0.0 else 1.0
        return d * expm1(q if q < cap else cap) / r, -k * r * exp(a if a < cap else cap) * ratio

    b0 = -resp(rho) / (2 * d) * _RADIAL_R0**2
    path = ode_integrate(
        field,
        _RADIAL_R0,
        (d * b0 / (d + 2), b0),
        1.0,
        dataclasses.replace(cfg, ode_rel_tol=_LOG_REL_TOL),
        abs_tol=cfg.ode_rel_tol,
    )
    a1, b1 = path.end_state.tolist()
    return k * math.exp(a1), rho * math.exp(b1)


def comparison_grid(s_start: float) -> np.ndarray:
    """Shared uniform grid of ``COMPARISON_GRID_SIZE`` points on [s_start, 0]."""
    if not (isinstance(s_start, (int, float)) and math.isfinite(s_start) and s_start < 0.0):
        raise ConfigError(f"need s_start < 0, got {s_start!r}")
    return np.linspace(float(s_start), 0.0, COMPARISON_GRID_SIZE)
