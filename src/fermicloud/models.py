"""Particle statistics family: classical, simplified and full degenerate.

Each model supplies a response function R(z) mapping the local potential
variable to the effective source density.  The family is indexed by a
degeneracy parameter eta >= 0:

* ``mb``  (classical):        R(z) = z
* ``sfd`` (simplified):       R(z) = (1/z + eta / z^(1/d))^(-1)
* ``ffd`` (full):             R(z) = mu (d-2)/4 * f_(d/2-2)(f_(d/2-1)^(-1)(2 z / mu))

with ``eta * mu^(2/d) = 2 d^(2/d - 1)`` tying the two parameterizations
together.  The full response is evaluated as ``z * ratio(2 z / mu)``: the
ratio ``R(z)/z = ((d-2)/2) zeta(w)/w`` of :func:`fermi.zeta_map` depends on
d only, so one Chebyshev proxy of its logarithm per dimension
(:func:`fermi.cached_ratio_proxy`) serves every eta, with no Newton
inversion per call.

As eta -> 0 both degenerate models collapse onto the classical one; the
defect S(z) = z - R(z) >= 0 measures the distance and is majorized by
``C(eta) z^(1+2/d)`` with C(eta) -> 0.

Derived quantities: the enthalpy-like primitive H with H'(z) R(z) = 1, and
the barotropic pressure closure
``p(rho, theta) = theta^(d/2+1) P(rho theta^(-d/2))`` with
``P(z) = int_0^z t / R(t) dt``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gamma as _gamma_fn

from . import fermi
from .numerics import (
    DEFAULT_CONFIG,
    ConfigError,
    DomainError,
    NumericsConfig,
    integrate_semi_infinite,
)

__all__ = [
    "ModelKind",
    "ModelSpec",
    "sigma_d",
    "mu_from_eta",
    "R_value",
    "S_value",
    "H_value",
    "pressure",
    "response_fn",
    "C_eta_majorant",
    "GAP_MAJORANT_FORM",
]

GAP_MAJORANT_FORM = "D(z) = z^(1 + 2/d)"


class ModelKind(str, Enum):
    MAXWELL_BOLTZMANN = "mb"
    SIMPLIFIED_FD = "sfd"
    FULL_FD = "ffd"


def sigma_d(d: int) -> float:
    """Surface measure of the unit sphere in d dimensions, 2 pi^(d/2) / Gamma(d/2)."""
    d = _check_d(d)
    return 2.0 * math.pi ** (d / 2.0) / float(_gamma_fn(d / 2.0))


def mu_from_eta(d: int, eta: float) -> float:
    """Degeneracy scale mu solving eta * mu^(2/d) = 2 d^(2/d-1)."""
    d = _check_d(d)
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"need finite eta > 0, got {eta!r}")
    return (2.0 * d ** (2.0 / d - 1.0) / eta) ** (d / 2.0)


def _check_d(d: int) -> int:
    if not (isinstance(d, (int, np.integer)) and 3 <= int(d) <= 9):
        raise ConfigError(f"dimension must be an integer in [3, 9], got {d!r}")
    return int(d)


@dataclass(frozen=True)
class ModelSpec:
    """One member of the statistics family.

    ``eta == 0`` is only legal for the classical and simplified kinds (where
    it reduces to the classical response); the full kind derives ``mu`` from
    eta on construction.
    """

    kind: ModelKind
    d: int
    eta: float = 0.0
    mu: float | None = None

    def __post_init__(self) -> None:
        _check_d(self.d)
        if not (isinstance(self.eta, (int, float)) and math.isfinite(self.eta) and self.eta >= 0.0):
            raise ConfigError(f"eta must be a finite nonnegative real, got {self.eta!r}")
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eta", float(self.eta))
        if kind is ModelKind.MAXWELL_BOLTZMANN:
            if self.eta != 0.0:
                raise ConfigError("classical kind requires eta = 0")
            if self.mu is not None:
                raise ConfigError("classical kind takes no mu")
        elif kind is ModelKind.FULL_FD:
            if not self.eta > 0.0:
                raise ConfigError("full degenerate kind requires eta > 0")
            mu = mu_from_eta(self.d, self.eta)
            if self.mu is not None and not math.isclose(self.mu, mu, rel_tol=1e-12):
                raise ConfigError(
                    f"mu {self.mu!r} inconsistent with eta {self.eta!r} (expected {mu!r})"
                )
            object.__setattr__(self, "mu", mu)
        else:
            if self.mu is not None:
                raise ConfigError("simplified kind takes no mu")

    @classmethod
    def maxwell_boltzmann(cls, d: int) -> "ModelSpec":
        return cls(ModelKind.MAXWELL_BOLTZMANN, d, 0.0)

    @classmethod
    def simplified_fd(cls, d: int, eta: float) -> "ModelSpec":
        return cls(ModelKind.SIMPLIFIED_FD, d, eta)

    @classmethod
    def full_fd(cls, d: int, eta: float) -> "ModelSpec":
        return cls(ModelKind.FULL_FD, d, eta)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind.value, "d": self.d, "eta": self.eta})

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        try:
            raw = json.loads(text)
            kind = ModelKind(raw["kind"])
            d = raw["d"]
            eta = raw.get("eta", 0.0)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed model description: {exc}") from exc
        return cls(kind, d, eta)


class _FullFdKernel:
    """Scalar response evaluator for the full degenerate kind.

    ``R(z) = z * ratio(2 z / mu)``, where the ratio ``((d-2)/2) zeta(w)/w``
    depends on the dimension only and comes from the shared per-dimension
    Chebyshev proxy :func:`fermi.cached_ratio_proxy`; eta enters through the
    scale ``2/mu`` alone.  The ratio is exactly 1 below the proxy's window
    (including where ``2 z / mu`` underflows to 0), so R(z) = z there,
    matching the analytic limit; it is capped at 1 so that R(z) <= z holds
    to the last bit.
    """

    def __init__(self, d: int, eta: float, cfg: NumericsConfig):
        self.d = d
        self.eta = eta
        self.mu = mu_from_eta(d, eta)
        self.proxy = fermi.cached_ratio_proxy(d, cfg)
        self._ratio = self.proxy.ratio
        self._wscale = 2.0 / self.mu

    def R(self, z: float) -> float:
        return z * min(self._ratio(self._wscale * z), 1.0)


@lru_cache(maxsize=64)
def _full_fd_kernel(d: int, eta: float, cfg: NumericsConfig) -> _FullFdKernel:
    return _FullFdKernel(d, eta, cfg)


def _check_z(z: float) -> float:
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"response argument must be finite and >= 0, got {z!r}")
    return z


def R_value(model: ModelSpec, z: float, cfg: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Response R(z) of the given model; R(0) = 0, strictly increasing."""
    z = _check_z(z)
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        return z
    if model.kind is ModelKind.SIMPLIFIED_FD:
        if z == 0.0:
            return 0.0
        return z / (1.0 + model.eta * z ** (1.0 - 1.0 / model.d))
    return _full_fd_kernel(model.d, model.eta, cfg).R(z)


def response_fn(model: ModelSpec, cfg: NumericsConfig = DEFAULT_CONFIG) -> Callable[[float], float]:
    """Specialized scalar closure z -> R(z) for hot loops.

    Skips per-call validation; callers guarantee z >= 0 and finite.  Agrees
    with :func:`R_value` at every argument.
    """
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        return lambda z: z
    if model.kind is ModelKind.SIMPLIFIED_FD:
        eta = model.eta
        p = 1.0 - 1.0 / model.d
        return lambda z: z / (1.0 + eta * z ** p)
    return _full_fd_kernel(model.d, model.eta, cfg).R


def S_value(model: ModelSpec, z: float, cfg: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Degeneracy defect S(z) = z - R(z) >= 0.

    For the simplified kind the subtraction is carried out algebraically,
    ``S = eta z^(2-1/d) / (1 + eta z^(1-1/d))``, which stays fully accurate
    where z and R(z) agree to many digits.
    """
    z = _check_z(z)
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        return 0.0
    if model.kind is ModelKind.SIMPLIFIED_FD:
        if z == 0.0:
            return 0.0
        u = model.eta * z ** (1.0 - 1.0 / model.d)
        return z * u / (1.0 + u)
    return z - _full_fd_kernel(model.d, model.eta, cfg).R(z)


def H_value(model: ModelSpec, z: float, cfg: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Enthalpy-like primitive H with H'(z) R(z) = 1 and H - log z -> 0 as z -> 0.

    Classical: ``log z``.  Simplified: the closed antiderivative
    ``log z + (d/(d-1)) eta z^(1-1/d)``.  Full: ``log z`` plus the quadrature
    of ``1/R - 1/t`` from the origin (the integrand tends to a finite
    constant there).
    """
    z = _check_z(z)
    if z == 0.0:
        raise DomainError("H diverges at z = 0")
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        return math.log(z)
    if model.kind is ModelKind.SIMPLIFIED_FD:
        d = model.d
        return math.log(z) + d / (d - 1.0) * model.eta * z ** (1.0 - 1.0 / d)
    kernel = _full_fd_kernel(model.d, model.eta, cfg)

    def defect_rate(t: float) -> float:
        r = kernel.R(t)
        return (t - r) / (r * t)

    correction = _finite_quad(defect_rate, z, cfg)
    return math.log(z) + correction


def _sfd_pressure_primitive(d: int, eta: float, z: float) -> float:
    """P(z) for the simplified kind: S/R = eta t^(1-1/d) integrates in closed form."""
    return z + eta * d / (2.0 * d - 1.0) * z ** (2.0 - 1.0 / d)


def pressure(model: ModelSpec, rho: float, theta: float, cfg: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Barotropic pressure p = theta^(d/2+1) P(rho theta^(-d/2)).

    ``P(z) = int_0^z t / R(t) dt = z + int_0^z S/R dt``; the classical kind
    gives the ideal-gas law p = rho theta exactly.
    """
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"need rho >= 0, got {rho!r}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"need theta > 0, got {theta!r}")
    d = model.d
    z = rho * theta ** (-d / 2.0)
    if z == 0.0:
        return 0.0
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        big_p = z
    elif model.kind is ModelKind.SIMPLIFIED_FD:
        big_p = _sfd_pressure_primitive(d, model.eta, z)
    else:
        def excess(t: float) -> float:
            return S_value(model, t, cfg) / R_value(model, t, cfg)

        big_p = z + _finite_quad(excess, z, cfg)
    return theta ** (d / 2.0 + 1.0) * big_p


def _finite_quad(f, upper: float, cfg: NumericsConfig) -> float:
    """Quadrature over [0, upper] via the semi-infinite kernel with a cut tail.

    Only the proxy-backed full-kind integrands come through here; their
    evaluation noise sits near 1e-12 relative, so the requested tolerance is
    floored at 1e-8 to keep the adaptive refinement from chasing noise.
    """
    if cfg.quad_rel_tol < 1e-8:
        cfg = replace(cfg, quad_rel_tol=1e-8)

    def clipped(t: float) -> float:
        return f(t) if t < upper else 0.0

    value, _ = integrate_semi_infinite(clipped, upper, cfg)
    return value


# Scan policy for the defect majorant: log-spaced z in [1e-8, 1e10].
_MAJORANT_DECADES = (-8.0, 10.0)
_MAJORANT_PER_DECADE = 400


def C_eta_majorant(model: ModelSpec, cfg: NumericsConfig = DEFAULT_CONFIG) -> tuple[float, str]:
    """Smallest scanned constant with S(z) <= C * z^(1+2/d) on the grid.

    Scans ``z^(-1-2/d) S(z)`` over the log-spaced grid, refines around the
    best cell by golden section, and returns ``(C_eta, form)`` where form
    describes the majorant shape.  The classical kind returns 0.
    """
    if model.kind is ModelKind.MAXWELL_BOLTZMANN or model.eta == 0.0:
        return 0.0, GAP_MAJORANT_FORM
    lo_dec, hi_dec = _MAJORANT_DECADES
    n = int((hi_dec - lo_dec) * _MAJORANT_PER_DECADE) + 1
    expo = -1.0 - 2.0 / model.d

    if model.kind is ModelKind.SIMPLIFIED_FD:
        zs = np.logspace(lo_dec, hi_dec, n)
        u = model.eta * zs ** (1.0 - 1.0 / model.d)
        values = zs ** (expo + 2.0 - 1.0 / model.d) * model.eta / (1.0 + u)
        values = np.asarray(values)
    else:
        zs = np.logspace(lo_dec, hi_dec, n)
        kernel = _full_fd_kernel(model.d, model.eta, cfg)
        values = np.array([z ** expo * (z - kernel.R(z)) for z in zs])

    def objective(z: float) -> float:
        return z ** expo * S_value(model, z, cfg)

    best = int(np.argmax(values))
    lo = math.log(zs[max(best - 1, 0)])
    hi = math.log(zs[min(best + 1, n - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc = objective(math.exp(c))
    fe = objective(math.exp(e))
    for _ in range(50):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = objective(math.exp(c))
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = objective(math.exp(e))
    peak = float(max(float(values[best]), fc, fe))
    if peak < 0.0:
        raise DomainError("defect objective negative over the whole scan")
    return peak, GAP_MAJORANT_FORM
