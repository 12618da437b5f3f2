"""Deterministic numerical kernels shared by the rest of the package.

Three primitives live here: quadrature over ``[0, inf)`` with a caller-chosen
split point, root finding on a monotone function with automatic bracket
expansion, and adaptive Runge-Kutta integration with dense output.  The
first two are thin, carefully-configured wrappers around QUADPACK and Brent's
method in scipy.  The integrator is the Dormand-Prince 5(4) pair with
Shampine's quartic dense output, stepped in plain Python floats: every system
here is planar (two components), where array arithmetic costs far more than
the vector field.  Its tableau, initial-step heuristic, error norm and step
controller are those of scipy's ``RK45``, so it takes the same steps.

Every routine is a pure function of its inputs: no hidden state, no
randomness, so repeated calls with identical arguments give bit-identical
results.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "NumericsError",
    "DomainError",
    "ConfigError",
    "QuadratureError",
    "BracketError",
    "StepLimitError",
    "BlowUpError",
    "PositivityError",
    "OdePath",
    "integrate_semi_infinite",
    "find_root_monotone",
    "ode_integrate",
]


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class DomainError(NumericsError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ConfigError(NumericsError, ValueError):
    """A configuration value is inconsistent or out of range."""


class QuadratureError(NumericsError):
    """Adaptive quadrature failed to converge within its refinement budget.

    Carries the partial result so callers can inspect how far it got.
    """

    def __init__(self, message: str, value: float, err_est: float):
        super().__init__(f"{message} (partial value {value!r}, err_est {err_est!r})")
        self.value = value
        self.err_est = err_est


class BracketError(NumericsError):
    """No sign change could be bracketed for the root finder."""


class StepLimitError(NumericsError):
    """ODE integration exceeded the configured step budget."""


class BlowUpError(NumericsError):
    """The ODE solution left the representable range in finite time.

    Carries the last valid time and state.
    """

    def __init__(self, message: str, t: float, state: np.ndarray):
        super().__init__(f"{message} (t={t!r}, state={state!r})")
        self.t = t
        self.state = state


class PositivityError(NumericsError):
    """A quantity required to stay positive crossed zero during integration."""

    def __init__(self, message: str, t: float, state: np.ndarray):
        super().__init__(f"{message} (t={t!r}, state={state!r})")
        self.t = t
        self.state = state


@dataclass(frozen=True)
class NumericsConfig:
    """Shared tolerance and budget settings.

    They govern the shooting solver only; the response layer (Fermi tables,
    statistics objects) has fixed quadrature settings and takes none.

    Attributes
    ----------
    root_tol : absolute/relative bracket tolerance for root finding.
    ode_rel_tol, ode_abs_tol : local error control for the ODE integrator.
    max_steps : accepted-step budget for a single ODE solve.
    """

    root_tol: float = 1e-12
    ode_rel_tol: float = 1e-10
    ode_abs_tol: float = 1e-14
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        for name in ("root_tol", "ode_rel_tol", "ode_abs_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {value!r}")
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ConfigError(f"max_steps must be a positive integer, got {self.max_steps!r}")


DEFAULT_CONFIG = NumericsConfig()

# QUADPACK relative tolerance and subdivision cap (the refinement budget).
_QUAD_REL_TOL = 1e-10
_QUAD_LIMIT = 200


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    """Wrap an integrand so NaN evaluations raise instead of propagating."""

    def wrapped(x: float) -> float:
        v = f(x)
        if math.isnan(v):
            raise DomainError(f"integrand returned NaN at x={x!r}")
        return v

    return wrapped


def _quad(f, a, b, points=None) -> tuple[float, float]:
    result = quad(
        f,
        a,
        b,
        epsabs=1e-300,
        epsrel=_QUAD_REL_TOL,
        limit=_QUAD_LIMIT,
        points=points,
        full_output=1,
    )
    value, err_est = result[0], result[1]
    if len(result) > 3:
        # QUADPACK flagged non-convergence; result[3] is its message.
        raise QuadratureError(str(result[3]), value, err_est)
    return value, err_est


def integrate_semi_infinite(
    f: Callable[[float], float],
    split_point: float,
    points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over ``[0, inf)``.

    The interval is split at ``max(split_point, 0)`` into a head handled by
    adaptive Gauss-Kronrod and a tail handled by the infinite-range
    transformation.  ``points`` may list interior locations of known kinks
    in the head interval.

    Returns
    -------
    (value, err_est) with ``|value - true| <= max(1e-10 |value|, err_est)``
    for integrands within contract (eventually decaying, finite).
    """
    if not math.isfinite(split_point) or split_point < 0.0:
        raise DomainError(f"split_point must be finite and >= 0, got {split_point!r}")
    g = _checked(f)
    split = max(split_point, 0.0)
    total = 0.0
    err = 0.0
    if split > 0.0:
        interior = [p for p in (points or ()) if 0.0 < p < split]
        head, head_err = _quad(g, 0.0, split, points=sorted(interior) or None)
        total += head
        err += head_err
    tail, tail_err = _quad(g, split, np.inf)
    return total + tail, err + tail_err


def find_root_monotone(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> float:
    """Root of a monotone continuous scalar function.

    The initial interval need not bracket: it is expanded geometrically in
    the direction indicated by the endpoint values until a sign change is
    found (up to a fixed budget), then polished with Brent's method.  An
    interval on which g already changes sign goes straight to Brent, so any
    continuous g that changes sign on [lo, hi] is served too, monotone or
    not; the root is then one of the roots inside the interval.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bracket endpoints must be finite, got {lo!r}, {hi!r}")
    if lo > hi:
        lo, hi = hi, lo
    glo, ghi = g(lo), g(hi)
    if math.isnan(glo) or math.isnan(ghi):
        raise DomainError("objective returned NaN at a bracket endpoint")
    increasing = ghi >= glo
    for _ in range(64):
        if glo == 0.0:
            return lo
        if ghi == 0.0:
            return hi
        if (glo < 0.0) != (ghi < 0.0):
            break
        width = max(hi - lo, 1.0)
        # Same sign at both ends: the root lies below lo or above hi,
        # depending on the monotone direction.
        root_below = (glo > 0.0) == increasing
        if root_below:
            lo -= width
            glo = g(lo)
        else:
            hi += width
            ghi = g(hi)
    else:
        raise BracketError(
            f"no sign change found near [{lo!r}, {hi!r}] after bracket expansion"
        )
    # Brent starts by evaluating both ends: hand it the values already known.
    ends = {lo: glo, hi: ghi}
    rtol = max(cfg.root_tol, 4 * np.finfo(float).eps)
    return float(brentq(lambda x: ends[x] if x in ends else g(x), lo, hi,
                        xtol=cfg.root_tol, rtol=rtol, maxiter=200))


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980), the same numbers as scipy's RK45.  The B and E weights of the second
# stage are zero and are left out of the sums.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
# Shampine's quartic dense output (Math. Comp. 46, 1986): the state at
# t_old + x h is y_old + h (K^T P) (x, x^2, x^3, x^4), K the 7 stage slopes.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# Step controller of scipy's RK45.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5
_EPS = float(np.finfo(float).eps)
_ROOT_2 = 2**0.5  # the RMS norm of a planar error

# State magnitude at which the solution counts as escaped.
_HUGE_STATE = 1e300


class OdePath:
    """Dense solution of one planar ODE solve.

    Holds the accepted step points, the seven stage slopes of every step and
    the solver counters.  The dense output is the quartic interpolant of each
    step, evaluable anywhere between the endpoints.

    Counters
    --------
    nfev : right-hand-side evaluations, ``2 + 6 * (n_accepted + n_rejected)``
        (the initial slope and the initial-step probe, then six per attempt).
    n_accepted : accepted steps, ``len(ts) - 1``.
    n_rejected : step attempts rejected by the error control.
    """

    def __init__(self, ts, states, stages, nfev: int = 0, n_rejected: int = 0):
        self.ts = np.array(ts, dtype=float)
        self.states = np.array(states, dtype=float)
        self._stages = stages
        self.t0 = float(self.ts[0])
        self.t1 = float(self.ts[-1])
        self.nfev = nfev
        self.n_accepted = len(self.ts) - 1
        self.n_rejected = n_rejected
        self._lo, self._hi = min(self.t0, self.t1), max(self.t0, self.t1)
        self._slack = 1e-9 * max(1.0, self._hi - self._lo)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """Interpolant coefficients K^T P of every step, shape (steps, 2, 4)."""
        return np.einsum("mkn,kp->mnp", np.array(self._stages, dtype=float), _P)

    @cached_property
    def _keys(self) -> list[float]:
        """Step points, negated on a backward path so that they increase."""
        return (self.ts if self.t1 > self.t0 else -self.ts).tolist()

    def __call__(self, t):
        """Evaluate the dense solution at a float or array-like ``t``.

        A float ``t`` gives the state as a tuple of two floats, read with
        plain float arithmetic; array-like ``t`` gives an array of shape
        ``(2,) + shape(t)``.  Both sum the interpolant as
        ``(c1 x + c3 x^3) + (c2 x^2 + c4 x^4)``, so they agree bit for bit.
        A step point belongs to the step that ends there.
        """
        lo, hi, slack = self._lo, self._hi, self._slack
        if isinstance(t, float):
            if not lo - slack <= t <= hi + slack:
                raise DomainError(f"evaluation time outside [{lo!r}, {hi!r}]")
            t = min(max(float(t), lo), hi)
            sign = 1.0 if self.t1 > self.t0 else -1.0
            seg = min(max(bisect_left(self._keys, sign * t) - 1, 0), self.n_accepted - 1)
            t_old = sign * self._keys[seg]
            h = sign * self._keys[seg + 1] - t_old
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            (c0, c1, c2, c3), (e0, e1, e2, e3) = self._coeffs[seg].tolist()
            s0, s1 = self.states[seg].tolist()
            return (
                s0 + h * ((c0 * x + c2 * x3) + (c1 * x2 + c3 * x4)),
                s1 + h * ((e0 * x + e2 * x3) + (e1 * x2 + e3 * x4)),
            )
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < lo - slack) or np.any(t_arr > hi + slack):
            raise DomainError(f"evaluation time outside [{lo!r}, {hi!r}]")
        tq = np.clip(t_arr, lo, hi).ravel()
        last = self.n_accepted - 1
        if self.t1 > self.t0:
            seg = np.searchsorted(self.ts, tq, side="left") - 1
        else:
            seg = last + 1 - np.searchsorted(self.ts[::-1], tq, side="right")
        seg = np.clip(seg, 0, last)
        t_old = self.ts[seg]
        h = self.ts[seg + 1] - t_old
        x = (tq - t_old) / h
        x2 = x * x
        x3 = x2 * x
        c = self._coeffs[seg]
        poly = (c[..., 0] * x[:, None] + c[..., 2] * x3[:, None]) + (
            c[..., 1] * x2[:, None] + c[..., 3] * (x3 * x)[:, None]
        )
        y = self.states[seg] + h[:, None] * poly
        return y.T.reshape((2,) + t_arr.shape)

    @property
    def end_state(self) -> np.ndarray:
        return self.states[-1]


def _initial_step(field, t0, y0, f0, t1, direction, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for a fifth-order pair (one evaluation)."""
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    root_n = len(y0) ** 0.5
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, scale))) / root_n
    d1 = math.sqrt(sum((f / s) ** 2 for f, s in zip(f0, scale))) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    interval = abs(t1 - t0)
    h0 = min(h0, interval)
    f1 = field(t0 + h0 * direction, [v + h0 * direction * f for v, f in zip(y0, f0)])
    d2 = math.sqrt(sum(((b - a) / s) ** 2 for a, b, s in zip(f0, f1, scale))) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _raise_at_crossing(stop_events, active, t_old, t_new, y_old, y_new, step) -> None:
    """Raise for the earliest sign change on one step's interpolant.

    Index 0 in ``active`` is the blow-up event; index ``i > 0`` is
    ``stop_events[i - 1]``.
    """
    seg = OdePath([t_old, t_new], [y_old, y_new], [step])
    events = [lambda s, u: _HUGE_STATE - max(abs(u[0]), abs(u[1])), *stop_events]
    roots = []
    for i in active:
        g = lambda s, ev=events[i]: ev(s, list(seg(s)))
        root = brentq(g, t_old, t_new, xtol=4 * _EPS, rtol=4 * _EPS)
        roots.append((abs(root - t_old), i, root))
    _, first, root = min(roots)
    state = np.array(seg(root))
    if first == 0:
        raise BlowUpError(f"solution magnitude exceeded {_HUGE_STATE:g}", root, state)
    raise PositivityError("terminal event fired during integration", root, state)


def ode_integrate(
    field: Callable[[float, list[float]], Sequence[float]],
    t0: float,
    u0: Sequence[float],
    t1: float,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    abs_tol: float | Sequence[float] | None = None,
    stop_events: Sequence[Callable[[float, list[float]], float]] = (),
) -> OdePath:
    """Integrate the planar ``u' = field(t, u)`` from ``t0`` to ``t1`` (either direction).

    ``field`` is called once per evaluation with a float ``t`` and the state
    as a list of two floats, and returns a sequence of two.  The stepper is
    the Dormand-Prince 5(4) pair with the step controller of scipy's
    ``RK45``: its initial-step heuristic, the RMS error norm with scale
    ``atol + max(|y|, |y_new|) * rtol``, safety 0.9, step factors within
    [0.2, 10], no growth right after a rejection, and its minimum step.
    Every stage is written out per component in scipy's order of operations,
    so it takes ``RK45``'s steps.  ``abs_tol`` overrides the configured
    absolute tolerance (may be per-component).  ``stop_events`` are terminal
    sign-crossing events, called like ``field``; if one fires a
    :class:`PositivityError` is raised with the crossing located on the
    step's interpolant.

    The returned :class:`OdePath` carries the counters ``nfev`` (field
    evaluations), ``n_accepted`` and ``n_rejected`` (step attempts).

    Raises
    ------
    DomainError : for equal or non-finite endpoints, or a state that is not
        two finite components.
    StepLimitError : when more than ``8 * max_steps`` evaluations are needed.
    BlowUpError : when a state component exceeds 1e300 in magnitude, or the
        step size underflows while one exceeds 1e12.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise DomainError(f"need distinct finite endpoints, got {t0!r}, {t1!r}")
    y = [float(v) for v in u0]
    if len(y) != 2 or not all(math.isfinite(v) for v in y):
        raise DomainError(f"initial state must be two finite components, got {u0!r}")
    y0, y1 = y
    t0, t1 = float(t0), float(t1)
    rtol = max(cfg.ode_rel_tol, 100 * _EPS)
    tol = cfg.ode_abs_tol if abs_tol is None else abs_tol
    try:
        atol = np.broadcast_to(np.asarray(tol, dtype=float), (2,)).tolist()
    except ValueError:
        raise ConfigError(f"abs_tol must be a scalar or have 2 entries, got {tol!r}") from None
    if not all(a >= 0.0 for a in atol):
        raise ConfigError(f"abs_tol must be >= 0, got {tol!r}")
    at0, at1 = atol
    eval_budget = 8 * cfg.max_steps
    direction = 1.0 if t1 > t0 else -1.0
    toward = direction * math.inf

    f = field(t0, y)
    if len(f) != 2:
        raise DomainError(f"field returned {len(f)} components for a state of 2")
    h_abs = _initial_step(field, t0, y, f, t1, direction, rtol, atol)
    nfev = 2
    n_rejected = 0
    g_huge = _HUGE_STATE - max(abs(y0), abs(y1))
    g = [ev(t0, y) for ev in stop_events]
    t = t0
    ts = [t]
    states = [y]
    stages = []
    while direction * (t - t1) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, toward) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        a0, a1 = k1 = f
        while True:
            if h_abs < min_step:
                # Step-size underflow with a rapidly grown state is how a
                # pole shows before the magnitude event can fire.
                if max(abs(y0), abs(y1)) > 1e12:
                    raise BlowUpError(
                        "finite-time explosion (step size underflow)", t, np.array(y)
                    )
                raise NumericsError(
                    f"ODE step size underflow at t={t!r}: required step is "
                    f"less than the spacing between numbers"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            if nfev + 6 > eval_budget:
                raise StepLimitError(
                    f"exceeded {cfg.max_steps} steps integrating from t={t0!r}"
                )
            nfev += 6
            b0, b1 = k2 = field(t + _C2 * h, [y0 + (_A21 * a0) * h, y1 + (_A21 * a1) * h])
            w0 = y0 + (_A31 * a0 + _A32 * b0) * h
            w1 = y1 + (_A31 * a1 + _A32 * b1) * h
            c0, c1 = k3 = field(t + _C3 * h, [w0, w1])
            w0 = y0 + (_A41 * a0 + _A42 * b0 + _A43 * c0) * h
            w1 = y1 + (_A41 * a1 + _A42 * b1 + _A43 * c1) * h
            d0, d1 = k4 = field(t + _C4 * h, [w0, w1])
            w0 = y0 + (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0) * h
            w1 = y1 + (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1) * h
            e0, e1 = k5 = field(t + _C5 * h, [w0, w1])
            w0 = y0 + (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0) * h
            w1 = y1 + (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1) * h
            p0, p1 = k6 = field(t + h, [w0, w1])
            n0 = y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * p0)
            n1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * p1)
            y_new = [n0, n1]
            q0, q1 = k7 = field(t + h, y_new)
            r0 = (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * p0 + _E7 * q0) * h / (
                at0 + max(abs(y0), abs(n0)) * rtol
            )
            r1 = (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * p1 + _E7 * q1) * h / (
                at1 + max(abs(y1), abs(n1)) * rtol
            )
            error_norm = math.sqrt(r0 * r0 + r1 * r1) / _ROOT_2
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
            n_rejected += 1

        step = (k1, k2, k3, k4, k5, k6, k7)
        huge = _HUGE_STATE - max(abs(n0), abs(n1))
        g_new = [ev(t_new, y_new) for ev in stop_events]
        # The blow-up event (index 0) counts downward crossings only; stop
        # events any.
        active = [0] if g_huge >= 0.0 >= huge else []
        active += [
            i for i, (a, b) in enumerate(zip(g, g_new), 1) if a >= 0.0 >= b or a <= 0.0 <= b
        ]
        if active:
            _raise_at_crossing(stop_events, active, t, t_new, y, y_new, step)
        g_huge, g = huge, g_new
        t, y, f = t_new, y_new, k7
        y0, y1 = n0, n1
        ts.append(t)
        states.append(y)
        stages.append(step)
    return OdePath(ts, states, stages, nfev, n_rejected)
