"""Fermi integrals of real order and their companions.

The central object is

    f_alpha(z) = \\int_0^inf x^alpha / (1 + exp(x - z)) dx,   alpha > -1,

strictly increasing in z, with the nondegenerate limit
``Gamma(alpha+1) e^z`` as z -> -inf and the degenerate limit
``z^(alpha+1)/(alpha+1)`` as z -> +inf.

Evaluation strategy
-------------------
* ``z < -30``: return the nondegenerate limit directly; the first neglected
  correction is ``e^z / 2^(alpha+1)`` relative, below 1e-13 there.
* ``-30 <= z <= 60``: adaptive quadrature.  The semi-infinite range is split
  past the occupation edge at ``max(z, 0) + 30``; the edge
  itself is passed to the quadrature as a known kink location.  For
  ``alpha < 0`` the substitution ``x = u^2`` removes the endpoint
  singularity first.
* ``z > 60``: degenerate expansion.  For smooth h,
  ``int_0^inf h(x)/(1+e^(x-z)) dx ~ int_0^z h + 2 sum_n c_2n h^(2n-1)(z)``
  with c_2 = pi^2/12, c_4 = 7 pi^4/720, c_6 = 31 pi^6/30240,
  c_8 = 127 pi^8/1209600; with four correction terms the truncation is
  below 1e-12 relative at z = 60 and falls like z^-10.

The two closed-form regimes are validated against the quadrature in the
test suite, so the quadrature stays the single source of truth.

Hot-loop evaluators
-------------------
* :class:`FermiEvaluator` proxies ``log f_alpha`` of one order by Chebyshev
  panels fitted to the quadrature, with a guarded Newton inverse.
* :class:`ResponseRatioProxy` serves the full-statistics response.  With
  ``w = 2 z / mu`` its ratio is ``R(z)/z = ((d-2)/2) zeta(w)/w``, ``zeta``
  the composition :func:`zeta_map`, so it depends on d only; eta enters
  through the scale ``2/mu`` alone.  One piecewise Chebyshev interpolant of
  ``log(R/z)`` in ``log w``, sampled once per dimension from the composition
  of the two order evaluators, replaces the per-call Newton inverse; the
  closed forms bound it on both sides.  The dimension constant C(d) of
  :func:`bound_constant_C`, the peak of ``w^(-2/d) (1 - ratio(w))``, is
  read from the same proxy.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from .numerics import (
    DomainError,
    NumericsError,
    find_root_monotone,
    integrate_semi_infinite,
)

__all__ = [
    "CLASSICAL_CUTOFF",
    "DEGENERATE_CUTOFF",
    "fermi_f",
    "fermi_asymptotic",
    "fermi_f_inverse",
    "zeta_map",
    "bound_constant_C",
    "FermiEvaluator",
    "ResponseRatioProxy",
    "cached_ratio_proxy",
]

CLASSICAL_CUTOFF = -30.0
DEGENERATE_CUTOFF = 60.0
_QUAD_SPLIT_MARGIN = 30.0  # the quadrature splits this far past the edge

# 2 * eta(2n) for the degenerate tail corrections, eta the alternating zeta.
_DEGEN_COEFF = (
    math.pi**2 / 6.0,
    7.0 * math.pi**4 / 360.0,
    31.0 * math.pi**6 / 15120.0,
    127.0 * math.pi**8 / 604800.0,
)


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise DomainError(f"order must be a finite real > -1, got {alpha!r}")
    return alpha


def _gamma1p(alpha: float) -> float:
    """Gamma(alpha + 1), finite for alpha > -1."""
    return math.exp(gammaln(alpha + 1.0))


def _occupation(t: float) -> float:
    """1 / (1 + e^t) without overflow for any real t."""
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


def _fermi_quadrature(alpha: float, z: float) -> float:
    """Direct quadrature evaluation, valid for any z but priced for midrange."""
    split = max(z, 0.0) + _QUAD_SPLIT_MARGIN
    if alpha >= 0.0:
        def integrand(x: float) -> float:
            return x**alpha * _occupation(x - z)

        kinks = [z] if 0.0 < z < split else None
        value, _ = integrate_semi_infinite(integrand, split, points=kinks)
        return value

    # x = u^2 tames the x^alpha endpoint singularity (alpha in (-1, 0)).
    beta = 2.0 * alpha + 1.0

    def integrand_u(u: float) -> float:
        return 2.0 * u**beta * _occupation(u * u - z)

    split_u = math.sqrt(split)
    kinks = [math.sqrt(z)] if 0.0 < z < split else None
    value, _ = integrate_semi_infinite(integrand_u, split_u, points=kinks)
    return value


def _fermi_degenerate(alpha: float, z: float) -> float:
    """Four-term degenerate expansion; relative error ~ z^-10 for z >= 60."""
    lead = z ** (alpha + 1.0) / (alpha + 1.0)
    total = lead
    fall = alpha  # falling factorial alpha (alpha-1) ... over odd derivatives
    power = alpha - 1.0
    for coeff in _DEGEN_COEFF:
        total += coeff * fall * z**power
        fall *= (power) * (power - 1.0)
        power -= 2.0
    return total


def fermi_f(alpha: float, z: float) -> float:
    """Evaluate f_alpha(z); relative accuracy ~1e-10 across branches."""
    alpha = _check_order(alpha)
    z = float(z)
    if math.isnan(z):
        raise DomainError("z must not be NaN")
    if z < CLASSICAL_CUTOFF:
        return _gamma1p(alpha) * math.exp(z)
    if z > DEGENERATE_CUTOFF:
        return _fermi_degenerate(alpha, z)
    return _fermi_quadrature(alpha, z)


def fermi_asymptotic(alpha: float, z: float, branch: str) -> float:
    """Leading asymptotic branch, for brackets and cross-validation.

    ``branch`` is ``"classical"`` (z -> -inf limit ``Gamma(alpha+1) e^z``) or
    ``"degenerate"`` (z -> +inf limit ``z^(alpha+1)/(alpha+1)``).
    """
    alpha = _check_order(alpha)
    if branch == "classical":
        try:
            return _gamma1p(alpha) * math.exp(z)
        except OverflowError:
            return math.inf
    if branch == "degenerate":
        if z <= 0.0:
            raise DomainError(f"degenerate branch needs z > 0, got {z!r}")
        return z ** (alpha + 1.0) / (alpha + 1.0)
    raise DomainError(f"branch must be 'classical' or 'degenerate', got {branch!r}")


def fermi_f_inverse(alpha: float, y: float) -> float:
    """Solve f_alpha(z) = y for z (y > 0).

    Initial bracket from the asymptotic branches: the classical inverse
    ``log(y / Gamma(alpha+1))`` always sits below the root (the alternating
    series for f is dominated by its first term), and the degenerate
    inverse padded by a margin sits above; the monotone root finder expands
    if an endpoint guess fails.
    """
    alpha = _check_order(alpha)
    y = float(y)
    if not math.isfinite(y) or y <= 0.0:
        raise DomainError(f"need finite y > 0, got {y!r}")
    gam = _gamma1p(alpha)
    z_classical = math.log(y / gam)
    z_degenerate = math.exp(math.log((alpha + 1.0) * y) / (alpha + 1.0))
    lo = z_classical
    hi = max(z_classical + 1.0, 1.2 * z_degenerate + 10.0)
    log_y = math.log(y)

    def g(v: float) -> float:
        return math.log(fermi_f(alpha, v)) - log_y

    return find_root_monotone(g, lo, hi)


def zeta_map(d: int, w: float) -> float:
    """Composition f_(d/2-2) o f_(d/2-1)^(-1) at w > 0.

    Maps the order-(d/2-1) integral's value to the order-(d/2-2) integral's
    value at the same argument; behaves like ``2 w / (d-2)`` for small w and
    like ``(2/(d-2)) (d w / 2)^((d-2)/d)`` for large w.
    """
    d = _check_dimension(d)
    w = float(w)
    if not math.isfinite(w) or w <= 0.0:
        raise DomainError(f"need finite w > 0, got {w!r}")
    v = fermi_f_inverse(d / 2.0 - 1.0, w)
    return fermi_f(d / 2.0 - 2.0, v)


def _check_dimension(d: int) -> int:
    if not (isinstance(d, (int, np.integer)) and 3 <= d <= 9):
        raise DomainError(f"dimension must be an integer in [3, 9], got {d!r}")
    return int(d)


def _shared(check):
    """Cache a one-argument builder under ``check(arg)``, checked on every call.

    Every spelling of one order or dimension (int, float, numpy scalar) shares
    one result, and an invalid argument raises whatever is cached.
    """

    def decorate(build):
        cached = lru_cache(maxsize=64)(build)

        @wraps(build)
        def shared(arg):
            return cached(check(arg))

        return shared

    return decorate


@_shared(_check_dimension)
def bound_constant_C(d: int) -> tuple[float, float]:
    """Peak C(d) of the degeneracy defect over w, with an accuracy estimate.

    Returns ``(C, accuracy)`` where C is the supremum of
    ``w^(-2/d) (1 - ratio(w))``, the ratio ``((d-2)/2) zeta(w)/w`` read from
    the dimension's :func:`cached_ratio_proxy`.  A log-spaced scan over
    ``[1e-6, 1e8]`` (12 points per decade) brackets the peak and a bounded
    scalar minimization refines it; ``accuracy`` is a conservative bound on
    the scan error (about one percent).  The full-statistics gap majorant is
    ``C_eta = (2/mu)^(2/d) C(d)``.
    """
    ratio = cached_ratio_proxy(d).ratio

    def defect(t: float) -> float:
        w = math.exp(t)
        return w ** (-2.0 / d) * (1.0 - ratio(w))

    grid = np.linspace(math.log(1e-6), math.log(1e8), 14 * 12 + 1)
    values = [defect(float(t)) for t in grid]
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        raise NumericsError(
            f"degeneracy defect not positive anywhere on the scan grid for d={d}"
        )
    refined = minimize_scalar(
        lambda t: -defect(t),
        bounds=(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    peak = max(values[best], -float(refined.fun))
    return peak, abs(peak - values[best]) + 1e-2 * peak


def _cheb_eval(coef: tuple[float, ...], a: float, b: float, v: float) -> float:
    """Clenshaw evaluation of a Chebyshev series on [a, b] with plain floats."""
    t = (2.0 * v - (a + b)) / (b - a)
    t2 = 2.0 * t
    c0 = coef[-2]
    c1 = coef[-1]
    for c in coef[-3::-1]:
        c0, c1 = c - c1, c0 + c1 * t2
    return c0 + c1 * t


class FermiEvaluator:
    """Fast scalar evaluator of one fixed order.

    Outside the quadrature window the closed-form branches apply; inside,
    Chebyshev proxies of ``log f_alpha`` are fitted once per panel from the
    quadrature values and reused.  Proxy error is below 1e-11 relative,
    checked against direct quadrature in the tests.  Intended for repeated
    scalar evaluation (the sampler of :class:`ResponseRatioProxy`, for one);
    the public :func:`fermi_f` stays pure quadrature in the midrange.

    The inverse seeds a guarded Newton iteration from a precomputed value
    table, so results depend only on the query, never on call history.
    """

    _N_PANELS = 6
    _DEGREE = 64

    def __init__(self, alpha: float):
        self.alpha = _check_order(alpha)
        self._gamma = _gamma1p(self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._lo = CLASSICAL_CUTOFF - 0.5
        self._hi = DEGENERATE_CUTOFF + 0.5
        edges = np.linspace(self._lo, self._hi, self._N_PANELS + 1)
        self._edges = edges

        def sampled(vs: np.ndarray) -> np.ndarray:
            return np.array(
                [math.log(_fermi_quadrature(self.alpha, v)) for v in np.atleast_1d(vs)]
            )

        proxies = [
            Chebyshev.interpolate(sampled, self._DEGREE, domain=[edges[i], edges[i + 1]])
            for i in range(self._N_PANELS)
        ]
        self._coef = [tuple(float(c) for c in p.coef) for p in proxies]
        self._dcoef = [tuple(float(c) for c in p.deriv().coef) for p in proxies]
        # Seed table for the inverse: log f on a dense uniform grid.
        self._seed_v = np.linspace(self._lo, self._hi, 1537)
        self._seed_logf = np.array([self._log_mid(v) for v in self._seed_v])
        self._logf_lo = float(self._seed_logf[0])
        self._logf_hi = float(self._seed_logf[-1])

    def _log_mid(self, v: float) -> float:
        i = min(
            int((v - self._lo) / (self._hi - self._lo) * self._N_PANELS),
            self._N_PANELS - 1,
        )
        return _cheb_eval(self._coef[i], self._edges[i], self._edges[i + 1], v)

    def _dlog_mid(self, v: float) -> float:
        i = min(
            int((v - self._lo) / (self._hi - self._lo) * self._N_PANELS),
            self._N_PANELS - 1,
        )
        return _cheb_eval(self._dcoef[i], self._edges[i], self._edges[i + 1], v)

    def log_value(self, v: float) -> float:
        if v < self._lo:
            return self._log_gamma + v
        if v > self._hi:
            return math.log(_fermi_degenerate(self.alpha, v))
        return self._log_mid(v)

    def value(self, v: float) -> float:
        return math.exp(self.log_value(v))

    def inverse(self, y: float) -> float:
        """Solve value(v) = y for v; exact branch inverses outside the window."""
        if not y > 0.0:
            raise DomainError(f"need y > 0, got {y!r}")
        target = math.log(y)
        if target <= self._logf_lo:
            return target - self._log_gamma
        if target >= self._logf_hi:
            return self._invert_degenerate(y)
        k = int(np.searchsorted(self._seed_logf, target))
        k = min(max(k, 1), len(self._seed_v) - 1)
        va, vb = self._seed_v[k - 1], self._seed_v[k]
        fa, fb = self._seed_logf[k - 1], self._seed_logf[k]
        v = va + (vb - va) * (target - fa) / (fb - fa)
        lo, hi = self._lo, self._hi
        for _ in range(30):
            err = self._log_mid(v) - target
            if err > 0.0:
                hi = v
            else:
                lo = v
            slope = self._dlog_mid(v)
            v_new = v - err / slope if slope > 0.0 else 0.5 * (lo + hi)
            if not (lo <= v_new <= hi):
                v_new = 0.5 * (lo + hi)
            if abs(v_new - v) < 1e-14 * max(1.0, abs(v)):
                return v_new
            v = v_new
        return v

    def _invert_degenerate(self, y: float) -> float:
        v = math.exp(math.log((self.alpha + 1.0) * y) / (self.alpha + 1.0))
        v = max(v, self._hi)
        for _ in range(40):
            fv = _fermi_degenerate(self.alpha, v)
            # d f / d v = v^alpha to this accuracy (occupation edge saturated).
            step = (fv - y) / v**self.alpha
            v_new = v - step
            if v_new <= self._hi:
                v_new = 0.5 * (v + self._hi)
            if abs(v_new - v) < 1e-14 * max(1.0, abs(v)):
                return v_new
            v = v_new
        return v


@_shared(_check_order)
def cached_evaluator(alpha: float) -> FermiEvaluator:
    """The shared evaluator of one order."""
    return FermiEvaluator(alpha)


class ResponseRatioProxy:
    """The full-statistics ratio ``((d-2)/2) zeta(w)/w`` for one dimension d.

    The full response is ``R(z) = z * ratio(2 z / mu)``, so every eta of one
    dimension shares this object.  ``window`` is the inner evaluator's range
    ``(logf_lo, logf_hi)`` of ``t = log w`` for the order ``d/2 - 1``.  From
    its bottom to at least ``_ABOVE`` past its top the ratio is
    ``exp(g(t))``, with ``g`` a piecewise Chebyshev interpolant of degree
    ``_DEGREE`` on uniform panels at most ``_PANEL_WIDTH`` wide; the window
    top is a panel edge.  Each panel interpolates
    ``g(t) = log((d-2)/2) + log f_(d/2-2)(f_(d/2-1)^(-1)(e^t)) - t``, composed
    from the two cached order evaluators, at its interior Chebyshev points:
    the composition switches branch exactly at the window edges, so it is
    never sampled there.  Above the window both orders sit on the degenerate
    expansion, so the panels there interpolate that closed form.  Below the
    window both orders sit on their classical branch and the ratio is 1 (this
    covers ``w == 0.0`` as well); past the last panel the ratio is the
    degenerate closed form, through the inner evaluator's Newton inverse.

    One evaluation on the panels costs one ``log``, one panel index, one
    Clenshaw sum and one ``exp``; no Newton iteration runs per call.
    Agreement with the composition and with :func:`zeta_map` is checked in
    the tests.
    """

    # Trailing coefficients sit at or below the composition's own noise.
    _PANEL_WIDTH = 1.0
    _DEGREE = 14
    _ABOVE = 24.0

    def __init__(self, d: int):
        self.d = _check_dimension(d)
        inner = cached_evaluator(self.d / 2.0 - 1.0)
        outer = cached_evaluator(self.d / 2.0 - 2.0)
        self._inner = inner
        self._outer_alpha = outer.alpha
        self._front = 0.5 * (self.d - 2)
        t_lo, t_hi = inner._logf_lo, inner._logf_hi
        self.window = (t_lo, t_hi)
        self._t_lo = t_lo
        self._w_lo = math.exp(t_lo)
        n = math.ceil((t_hi - t_lo) / self._PANEL_WIDTH)
        width = (t_hi - t_lo) / n
        n_above = math.ceil(self._ABOVE / width)
        self._edges = [float(e) for e in np.linspace(t_lo, t_hi, n + 1)]
        self._edges += [t_hi + k * width for k in range(1, n_above + 1)]
        self._n_panels = n + n_above
        self._inv_width = n / (t_hi - t_lo)
        self._w_top = math.exp(self._edges[-1])
        log_front = math.log(self._front)

        def composed(ts: np.ndarray) -> np.ndarray:
            return np.array([
                log_front + outer.log_value(inner.inverse(math.exp(t))) - t for t in ts
            ])

        proxies = [
            Chebyshev.interpolate(composed, self._DEGREE, domain=[a, b])
            for a, b in zip(self._edges[:-1], self._edges[1:])
        ]
        self._coef = [tuple(float(c) for c in p.coef) for p in proxies]

    def ratio(self, w: float) -> float:
        """``R(z)/z`` at ``w = 2 z / mu >= 0``."""
        if w <= self._w_lo:
            return 1.0
        if w >= self._w_top:
            v = self._inner._invert_degenerate(w)
            return self._front * _fermi_degenerate(self._outer_alpha, v) / w
        t = math.log(w)
        i = min(int((t - self._t_lo) * self._inv_width), self._n_panels - 1)
        return math.exp(_cheb_eval(self._coef[i], self._edges[i], self._edges[i + 1], t))


@_shared(_check_dimension)
def cached_ratio_proxy(d: int) -> ResponseRatioProxy:
    """The shared full-statistics ratio proxy of one dimension."""
    return ResponseRatioProxy(d)
