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
(:func:`fermi.cached_ratio_proxy`) serves every eta, with no Brent
inversion per call.

As eta -> 0 both degenerate models collapse onto the classical one; the
defect S(z) = z - R(z) >= 0 measures the distance and is majorized by
``C(eta) z^(1+2/d)`` with C(eta) -> 0.

Derived quantity: the barotropic pressure closure
``p(rho, theta) = theta^(d/2+1) P(rho theta^(-d/2))`` with
``P(z) = int_0^z t / R(t) dt``.

Each kind is one private statistics object, built once per model, that
carries R, S, P, the majorant constant C(eta) and, for the shooting field,
g = log(R(z)/z) as a function of log z.
Every one of them is a closed form or a read of the per-dimension Fermi
tables; no quadrature runs here.  For the full kind, with
``v = f_(d/2-1)^(-1)(2 z / mu)``, the ideal Fermi gas identity gives
``P = (mu/2) f_(d/2)(v) / (d/2)`` (Chavanis, PRE 65, 056123, 2002), and the
majorant follows from scaling:
``C(eta) = (2/mu)^(2/d) C(d)``.  Statistics are classical wherever
eta = 0, whatever the kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

from . import fermi
from .numerics import ConfigError, DomainError

__all__ = [
    "ModelKind",
    "ModelSpec",
    "sigma_d",
    "mu_from_eta",
    "R_value",
    "S_value",
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
    d = fermi._check_dimension(d)
    # Gamma(d/2): sqrt(pi) (d-2)!! / 2^((d-1)/2) for odd d, (d/2 - 1)! for even d
    odd = math.sqrt(math.pi) * math.prod(range(1, d - 1, 2)) / 2 ** (d // 2)
    return 2.0 * math.pi ** (d / 2.0) / (odd if d % 2 else math.factorial(d // 2 - 1))


def mu_from_eta(d: int, eta: float) -> float:
    """Degeneracy scale mu solving eta * mu^(2/d) = 2 d^(2/d-1)."""
    d = fermi._check_dimension(d)
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"need finite eta > 0, got {eta!r}")
    return (2.0 * d ** (2.0 / d - 1.0) / eta) ** (d / 2.0)


@dataclass(frozen=True)
class ModelSpec:
    """One member of the statistics family.

    ``eta == 0`` is only legal for the classical and simplified kinds (where
    it reduces to the classical response); the full kind derives ``mu`` from
    eta on construction, and ``mu`` is None for the other kinds.
    """

    kind: ModelKind
    d: int
    eta: float = 0.0
    mu: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        fermi._check_dimension(self.d)
        if not (isinstance(self.eta, (int, float)) and math.isfinite(self.eta) and self.eta >= 0.0):
            raise ConfigError(f"eta must be a finite nonnegative real, got {self.eta!r}")
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eta", float(self.eta))
        if kind is ModelKind.MAXWELL_BOLTZMANN and self.eta != 0.0:
            raise ConfigError("classical kind requires eta = 0")
        if kind is ModelKind.FULL_FD:
            if not self.eta > 0.0:
                raise ConfigError("full degenerate kind requires eta > 0")
            object.__setattr__(self, "mu", mu_from_eta(self.d, self.eta))

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


class _Classical:
    """Classical statistics (``mb``, or any kind at eta = 0): R(z) = z."""

    # The quantum kinds' log_ratio(t) is g = log(R/z) at t = log z + log_shift,
    # finite for any finite t; here g = 0 and the shooting field leaves it out.
    log_ratio = None

    @staticmethod
    def R(z: float) -> float:
        return z

    @staticmethod
    def S(z: float) -> float:
        return 0.0

    @staticmethod
    def P(z: float) -> float:
        return z

    @staticmethod
    def majorant() -> float:
        return 0.0


class _SimplifiedFd:
    """Simplified statistics, 1/R = 1/z + eta z^(-1/d), all in closed form.

    With u = eta z^(1-1/d): ``R = z/(1+u)``, ``S = z u/(1+u)`` (no
    cancellation where z and R agree to many digits) and
    ``P = z + eta d/(2d-1) z^(2-1/d)``.
    ``z^(-1-2/d) S = eta^(2/(d-1)) u^p/(1+u)`` with p = (d-3)/(d-1) peaks at
    u = p/(1-p), so ``C_eta = eta^(2/(d-1)) p^p (1-p)^(1-p)``; at d = 3 this
    is eta, the limit z -> 0.
    """

    def __init__(self, model: ModelSpec):
        self.d = model.d
        self.eta = model.eta
        self.p = 1.0 - 1.0 / model.d
        # eta z^p = e^(p t) at t = log z + log_shift
        self.log_shift = math.log(model.eta) / self.p

    def log_ratio(self, t: float) -> float:
        """g = -log(1 + e^(p t)); past p t = 40 the 1 is below half an ulp."""
        q = self.p * t
        return -math.log1p(math.exp(q)) if q < 40.0 else -q

    def R(self, z: float) -> float:
        return z / (1.0 + self.eta * z ** self.p)

    def S(self, z: float) -> float:
        u = self.eta * z ** self.p
        return z * u / (1.0 + u)

    def P(self, z: float) -> float:
        d = self.d
        return z + self.eta * d / (2.0 * d - 1.0) * z ** (2.0 - 1.0 / d)

    def majorant(self) -> float:
        q = (self.d - 3.0) / (self.d - 1.0)
        return self.eta ** (2.0 / (self.d - 1.0)) * q**q * (1.0 - q) ** (1.0 - q)


class _FullFd:
    """Full Fermi-Dirac statistics from Fermi tables shared per dimension.

    ``R(z) = z * ratio(2 z / mu)``, where the ratio ``((d-2)/2) zeta(w)/w``
    depends on the dimension only and comes from the Chebyshev proxy
    :func:`fermi.cached_ratio_proxy`, shared by every eta; eta enters through
    the scale ``2/mu`` alone.  The ratio is capped at 1 so that R(z) <= z
    holds to the last bit.

    With ``v = f_(d/2-1)^(-1)(2 z / mu)`` from the cached order-(d/2-1)
    evaluator, ``P = (mu/2) f_(d/2)(v) / (d/2)`` is the ideal Fermi gas
    pressure (the order-d/2 evaluator is built on first use).  Below the
    proxy's window the ratio is exactly 1 (also where ``2 z / mu`` underflows
    to 0): R = z and P = z exactly, and S is the classical series' first term
    ``z w 2^(-d/2) / Gamma(d/2)``, w = 2 z / mu, not z - R = 0.  The defect is
    a pure rescaling of the dimension's, so ``C_eta = (2/mu)^(2/d) C(d)``
    with C(d) from :func:`fermi.bound_constant_C`.
    """

    def __init__(self, model: ModelSpec):
        self.d = model.d
        self.mu = model.mu
        self.proxy = fermi.cached_ratio_proxy(model.d)
        self._ratio = self.proxy.ratio
        self._wscale = 2.0 / self.mu
        self.log_ratio = self.proxy.log_ratio  # at t = log w = log z + log_shift
        self.log_shift = math.log(self._wscale)
        self._w_lo = math.exp(self.proxy.window[0])
        self._s_lead = 2.0 ** (-0.5 * model.d) / math.gamma(0.5 * model.d)
        self._inner = fermi.cached_evaluator(model.d / 2.0 - 1.0)

    def R(self, z: float) -> float:
        return z * min(self._ratio(self._wscale * z), 1.0)

    def S(self, z: float) -> float:
        w = self._wscale * z
        if w <= self._w_lo:
            return z * w * self._s_lead
        return z - self.R(z)

    def P(self, z: float) -> float:
        w = self._wscale * z
        if w <= self._w_lo:
            return z
        half_d = 0.5 * self.d
        outer = fermi.cached_evaluator(half_d)
        return 0.5 * self.mu * outer.value(self._inner.inverse(w)) / half_d

    def majorant(self) -> float:
        return self._wscale ** (2.0 / self.d) * fermi.bound_constant_C(self.d)[0]


# The classical kind has eta = 0 by construction, so it never needs an entry.
_QUANTUM_STATISTICS = {ModelKind.SIMPLIFIED_FD: _SimplifiedFd, ModelKind.FULL_FD: _FullFd}


@lru_cache(maxsize=64)
def _statistics(model: ModelSpec):
    """The statistics object of a model: classical wherever eta = 0."""
    if model.eta == 0.0:
        return _Classical()
    return _QUANTUM_STATISTICS[model.kind](model)


def _check_z(z: float) -> float:
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"response argument must be finite and >= 0, got {z!r}")
    return z


def R_value(model: ModelSpec, z: float) -> float:
    """Response R(z) of the given model; R(0) = 0, strictly increasing."""
    return _statistics(model).R(_check_z(z))


def response_fn(model: ModelSpec) -> Callable[[float], float]:
    """Specialized scalar closure z -> R(z) for hot loops.

    Skips per-call validation; callers guarantee z >= 0 and finite.  Agrees
    with :func:`R_value` at every argument.
    """
    return _statistics(model).R


def S_value(model: ModelSpec, z: float) -> float:
    """Degeneracy defect S(z) = z - R(z) >= 0.

    For the simplified kind the subtraction is carried out algebraically,
    ``S = eta z^(2-1/d) / (1 + eta z^(1-1/d))``, which stays fully accurate
    where z and R(z) agree to many digits.
    """
    return _statistics(model).S(_check_z(z))


def pressure(model: ModelSpec, rho: float, theta: float) -> float:
    """Barotropic pressure p = theta^(d/2+1) P(rho theta^(-d/2)).

    ``P(z) = int_0^z t / R(t) dt``: ``z`` for the classical kind (the
    ideal-gas law p = rho theta), ``z + eta d/(2d-1) z^(2-1/d)`` for the
    simplified kind and ``(mu/2) f_(d/2)(v) / (d/2)`` for the full kind.
    """
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"need rho >= 0, got {rho!r}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"need theta > 0, got {theta!r}")
    d = model.d
    z = rho * theta ** (-d / 2.0)
    if z == 0.0:
        return 0.0
    return theta ** (d / 2.0 + 1.0) * _statistics(model).P(z)


def C_eta_majorant(model: ModelSpec) -> tuple[float, str]:
    """Least constant C_eta with S(z) <= C_eta z^(1+2/d) for every z > 0.

    Returns ``(C_eta, form)`` where form describes the majorant shape; both
    constants follow from scaling (see the statistics objects): the classical
    kind gives 0, the simplified kind
    ``eta^(2/(d-1)) p^p (1-p)^(1-p)`` with p = (d-3)/(d-1), and the full kind
    ``(2/mu)^(2/d) C(d)``.
    """
    return _statistics(model).majorant(), GAP_MAJORANT_FORM
