"""Mass-density curve, solution multiplicity, and classical-limit studies.

The shooting map rho -> M(rho) = sigma_d x(0) assigns to each scaled central
density the total mass of the equilibrium cloud it launches.  Scanning it on a
log grid produces the bifurcation curve whose oscillation around the sink value
2 sigma_d creates multiple equilibria at intermediate masses; counting and
refining the crossings quantifies that multiplicity.  At eta = 0 the field is
autonomous, so the trajectory of rho is the rho = 1 orbit shifted by log(rho)/2
in s, and one dense orbit carries the whole curve: M(rho) = sigma_d
x_1(log(rho)/2).  At eta > 0 the grid is shot at once, as lanes of one lockstep
solve with a step budget each, and a failed lane is shot again alone.  The
remaining operations measure how fast the degenerate families collapse onto the
classical curve as the degeneracy parameter shrinks: sup gaps in scaled and
plain coordinates, the empirical Gronwall constant, and direct residual checks
of the bound and the difference system that drive the convergence argument.

All sups are taken over the shared uniform grid of :func:`comparison_grid`, so
every reported number is reproducible bit for bit from the inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (Trajectory, _shoot_lanes, _write_text, comparison_grid, initial_state,
                       integrate_trajectory)
from .models import ModelKind, ModelSpec, S_value, sigma_d
from .numerics import (
    DEFAULT_CONFIG,
    ConfigError,
    NumericsConfig,
    NumericsError,
    find_root_monotone,
)

__all__ = [
    "AprioriBoundReport",
    "ConvergenceReport",
    "DifferenceResidualReport",
    "MassCurve",
    "apriori_bound_audit",
    "convergence_study",
    "count_solutions",
    "difference_residual_audit",
    "mass_curve",
    "mass_of_density",
]

MASS_CURVE_CSV_HEADER = "rho,mass"

# Half-width for centered differences in the residual audit.  Wider than the
# trajectory-level value: the quotient noise of interpolated differences drops
# like 1/h while the truncation term stays far below the contract tolerance.
_AUDIT_DIFF_HALF_WIDTH = 2e-3

# Sample count for the max of S over [0, rho0] (the bound's right-hand scale).
_S_SCAN_POINTS = 513


@dataclass(frozen=True)
class MassCurve:
    """Sampled mass-density curve of one model.

    ``points`` holds (rho, mass) pairs in strictly increasing rho order; only
    successful evaluations appear there.  Grid points whose integration failed
    are kept in ``failures`` as (rho, reason) pairs so gaps stay visible; at
    eta > 0 the reason is that of a per-rho re-shoot of the failed lane.
    ``grid_policy`` describes how the grid was built and ``s_start`` records
    the launch point of a per-rho trajectory (the eta = 0 orbit starts no
    later than its equivalent for any rho), which root refinement reuses.
    ``orbit`` is the eta = 0 orbit the curve was read off, kept for root
    refinement; it is not serialized, compared or shown.  A curve built by
    hand has none, and its roots are refined by per-rho shoots at every eta.
    """

    model: ModelSpec
    points: tuple[tuple[float, float], ...]
    grid_policy: str
    s_start: float = -20.0
    failures: tuple[tuple[float, str], ...] = ()
    orbit: Trajectory | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        pts = tuple((float(r), float(m)) for r, m in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(
            self, "failures", tuple((float(r), str(msg)) for r, msg in self.failures)
        )
        for r, m in pts:
            if not (math.isfinite(r) and r > 0.0):
                raise ConfigError(f"curve rho values must be positive, got {r!r}")
            if not (math.isfinite(m) and m > 0.0):
                raise ConfigError(f"curve masses must be positive, got {m!r} at rho={r!r}")
        rhos = [r for r, _ in pts]
        if any(b <= a for a, b in zip(rhos, rhos[1:])):
            raise ConfigError("curve rho values must be strictly increasing")

    @property
    def rhos(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.points])

    def mass_range(self) -> tuple[float, float]:
        """(smallest, largest) sampled mass."""
        if not self.points:
            raise ConfigError("curve has no points")
        masses = self.masses
        return float(masses.min()), float(masses.max())

    def to_csv(self, destination) -> None:
        """Write ``rho,mass`` rows at 17 significant digits, in rho order.

        A failed grid point keeps its row as ``rho,nan``.
        """
        rows = sorted(self.points + tuple((r, math.nan) for r, _ in self.failures))
        lines = [MASS_CURVE_CSV_HEADER]
        lines.extend("%.17g,%.17g" % p for p in rows)
        _write_text(destination, "\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "model": json.loads(self.model.to_json()),
            "grid": {
                "policy": self.grid_policy,
                "s_start": self.s_start,
                "n_points": len(self.points),
            },
            "points": [[r, m] for r, m in self.points],
            "failures": [[r, msg] for r, msg in self.failures],
        }

    def to_json(self, destination) -> None:
        _write_text(destination, json.dumps(self.to_json_dict(), indent=2) + "\n")


@dataclass(frozen=True)
class ConvergenceReport:
    """Gap measurements between one degenerate trajectory and its classical twin.

    ``A_eta`` and ``B_eta`` are the sups of ``e^{-2s} |x_eta - x_0|`` and
    ``e^{-2s} |y_eta - y_0|`` over the shared grid on [s_start, 0];
    ``sup_uniform_gap`` is the larger of the two plain-coordinate sups, the
    quantity that tends to zero in the classical limit.  ``kappa_emp`` is
    ``2 B_eta e^{-rho0/d} / eta``, the empirical constant of the linear-in-eta
    gap bound; only its order of magnitude is meaningful.
    """

    d: int
    rho0: float
    eta: float
    A_eta: float
    B_eta: float
    kappa_emp: float
    sup_uniform_gap: float

    def __post_init__(self) -> None:
        if not (self.A_eta >= 0.0 and self.B_eta >= 0.0):
            raise NumericsError("gap sups must be nonnegative")
        if self.d * self.A_eta > self.B_eta * (1.0 + 1e-6):
            raise NumericsError(
                f"difference-bound violation: d*A_eta = {self.d * self.A_eta!r} "
                f"exceeds B_eta = {self.B_eta!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "A_eta": self.A_eta,
            "B_eta": self.B_eta,
            "kappa_emp": self.kappa_emp,
            "sup_uniform_gap": self.sup_uniform_gap,
        }


@dataclass(frozen=True)
class AprioriBoundReport:
    """Grid check of the sink-term bound d x S <= rho0 e^{2s} max S.

    ``sup_ratio`` is the largest value of left side over right side on the
    grid (0 when both vanish identically, as for the classical kind);
    ``s_bar`` is ``max_{[0, rho0]} S``, the scale of the right side, which
    shrinks to zero with eta.  ``max_relative_violation`` is how far the
    ratio exceeds 1, clipped at 0.
    """

    rho0: float
    rho: float
    sup_ratio: float
    s_bar: float
    max_relative_violation: float

    @property
    def passed(self) -> bool:
        return self.max_relative_violation <= 1e-6


@dataclass(frozen=True)
class DifferenceResidualReport:
    """Finite-difference validation of the gap evolution system.

    Centered differences of w = x_eta - x_0 and v = y_eta - y_0 are compared
    against w' = (2-d) w + v and v' = (2-x_0) v - y_eta w + x_eta e^{2s} S,
    with S evaluated at the local density of the degenerate trajectory.
    ``rel_residual_*`` is the largest residual divided by the largest
    right-hand-side magnitude on the grid (floored at 1e-10): pointwise
    quotients blow up at interior zeros of the right side for any finite
    differencing scheme, so the identity is certified against the scale it
    actually attains.
    """

    d: int
    rho: float
    max_abs_residual_w: float
    max_abs_residual_v: float
    sup_rhs_w: float
    sup_rhs_v: float
    n_points: int

    @property
    def rel_residual_w(self) -> float:
        return self.max_abs_residual_w / max(self.sup_rhs_w, 1e-10)

    @property
    def rel_residual_v(self) -> float:
        return self.max_abs_residual_v / max(self.sup_rhs_v, 1e-10)

    @property
    def passed(self) -> bool:
        return max(self.rel_residual_w, self.rel_residual_v) <= 1e-3


def mass_of_density(
    model: ModelSpec,
    rho: float,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    s_start: float = -20.0,
) -> float:
    """Total mass of the equilibrium launched from scaled central density rho.

    Integrates the trajectory to s = 0 and returns sigma_d x(0); this equals
    sigma_d Q(1) of the radial formulation.  Integration failures propagate.
    """
    traj = integrate_trajectory(model, rho, s_start=s_start, s_end=0.0, cfg=cfg)
    return sigma_d(model.d) * traj.end_state.x


def _classical_orbit(
    model: ModelSpec, rho_min: float, rho_max: float, cfg: NumericsConfig, s_start: float
) -> Trajectory:
    """The rho = 1 orbit of an eta = 0 model; density rho reads it at s = log(rho)/2."""
    initial_state(model.d, 1.0, s_start)  # the per-rho launch check: s_start <= -10
    s_launch = min(s_start, s_start + 0.5 * math.log(rho_min))  # <= every per-rho launch
    return integrate_trajectory(model, 1.0, s_launch, 0.5 * math.log(rho_max), cfg)


def mass_curve(
    model: ModelSpec,
    rho_min: float,
    rho_max: float,
    points_per_decade: int = 16,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    s_start: float = -20.0,
) -> MassCurve:
    """Scan the shooting map on a log-spaced density grid.

    At eta = 0 every grid point is read off one orbit (:func:`_classical_orbit`),
    kept as the curve's ``orbit``; its single leg spends one ``cfg.max_steps``
    budget over the whole grid, and a numeric error fails all points at once.
    Otherwise each point is one lane of a lockstep solve, with a budget of its
    own and within 1e-13 of :func:`mass_of_density`, which shoots a failed lane
    again; failures go to ``failures`` instead of aborting the scan.
    """
    if not (math.isfinite(rho_min) and math.isfinite(rho_max) and 0.0 < rho_min < rho_max):
        raise ConfigError(
            f"need 0 < rho_min < rho_max, got rho_min={rho_min!r}, rho_max={rho_max!r}"
        )
    points_per_decade = int(points_per_decade)
    if points_per_decade < 4:
        raise ConfigError(f"points_per_decade must be at least 4, got {points_per_decade}")
    decades = math.log10(rho_max / rho_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    grid = np.logspace(math.log10(rho_min), math.log10(rho_max), n)
    points: list[tuple[float, float]] = []
    failures: list[tuple[float, str]] = []
    orbit, xs = None, []
    try:
        if model.eta == 0.0:
            orbit = _classical_orbit(model, grid[0], grid[-1], cfg, s_start)
            xs = orbit.sample(0.5 * np.log(grid))[0].tolist()
        else:
            xs = _shoot_lanes(model, grid.tolist(), s_start, 0.0, cfg)[0]
    except NumericsError as exc:
        failures = [(float(rho), f"{type(exc).__name__}: {exc}") for rho in grid]
    sigma = sigma_d(model.d)
    for rho, x in zip(grid.tolist(), xs):
        try:  # a failed lane (x is NaN) is shot again, for the scalar path's typed failure
            mass = sigma * x if x == x else mass_of_density(model, rho, cfg, s_start)
            points.append((rho, mass))
        except NumericsError as exc:
            failures.append((rho, f"{type(exc).__name__}: {exc}"))
    policy = (
        f"log-spaced, {points_per_decade} points/decade on "
        f"[{rho_min:g}, {rho_max:g}], {n} points"
    )
    return MassCurve(
        model=model,
        points=tuple(points),
        grid_policy=policy,
        s_start=float(s_start),
        failures=tuple(failures),
        orbit=orbit,
    )


def count_solutions(
    curve: MassCurve, M_target: float, cfg: NumericsConfig = DEFAULT_CONFIG
) -> tuple[int, tuple[float, ...]]:
    """Count and locate densities whose equilibrium mass equals ``M_target``.

    Sign changes of M(rho) - M_target between adjacent curve points are each
    refined by Brent's method in u = log rho on the shooting map, not on an
    interpolant of the curve: on the curve's ``orbit`` when it has one (eta = 0;
    its tolerances are the curve's), else by one ``cfg`` shoot per Brent step;
    bracket ends read the curve's own masses.
    Brent stops at ``cfg.root_tol`` in u (absolute plus relative), so that
    tolerance and the accuracy of the shooting map set the roots' relative
    error.  Roots are listed in increasing order.  A target outside the
    sampled mass range yields multiplicity 0 (the diagnostic being the
    returned empty root list); crossings between grid points can only be
    seen at the grid's resolution, so refine the grid to resolve suspected
    near-tangencies.
    """
    if not curve.points:
        raise ConfigError("curve has no points")
    if not (math.isfinite(M_target) and M_target > 0.0):
        raise ConfigError(f"M_target must be positive, got {M_target!r}")
    rhos = curve.rhos
    gaps = curve.masses - M_target
    lo_mass, hi_mass = curve.mass_range()
    if M_target < lo_mass or M_target > hi_mass:
        return 0, ()
    log_rhos = np.log(rhos)
    known = dict(zip(log_rhos.tolist(), gaps.tolist()))  # bracket ends: already shot
    model, orbit = curve.model, curve.orbit
    sigma = sigma_d(model.d)

    def gap(u: float) -> float:
        if u in known:
            return known[u]
        if orbit is not None:
            return sigma * orbit._x_at(0.5 * u) - M_target
        return mass_of_density(model, math.exp(u), cfg, curve.s_start) - M_target

    roots: list[float] = []
    for i, g in enumerate(gaps):
        if g == 0.0 and (i == 0 or gaps[i - 1] != 0.0):
            roots.append(float(rhos[i]))
        elif i + 1 < len(gaps) and g * gaps[i + 1] < 0.0:
            u = find_root_monotone(gap, float(log_rhos[i]), float(log_rhos[i + 1]), cfg)
            roots.append(math.exp(u))
    return len(roots), tuple(roots)


def convergence_study(
    d: int,
    kind,
    rho0: float,
    eta_list,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    s_start: float = -20.0,
) -> list[ConvergenceReport]:
    """Measure the gap to the classical trajectory along a ladder of etas.

    For each eta the degenerate model of the given kind and the classical
    model are integrated from the same rho0 and compared on the shared
    uniform grid over [s_start, 0].  Reports are returned in eta_list order.
    """
    kind = ModelKind(kind)
    if kind is ModelKind.MAXWELL_BOLTZMANN:
        raise ConfigError("convergence_study needs a degenerate kind ('sfd' or 'ffd')")
    etas = [float(e) for e in eta_list]
    if not etas:
        raise ConfigError("eta_list must not be empty")
    if any(not (0.0 < e <= 1.0) for e in etas):
        raise ConfigError(f"every eta must lie in (0, 1], got {etas!r}")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ConfigError(f"eta_list must be strictly decreasing, got {etas!r}")

    base = integrate_trajectory(
        ModelSpec.maxwell_boltzmann(d), rho0, s_start=s_start, s_end=0.0, cfg=cfg
    )
    grid = comparison_grid(s_start)
    xt0, yt0 = base.sample_scaled(grid)
    plain_weight = np.exp(2.0 * grid)

    reports = []
    for eta in etas:
        traj = integrate_trajectory(
            ModelSpec(kind, d, eta), rho0, s_start=s_start, s_end=0.0, cfg=cfg
        )
        xt, yt = traj.sample_scaled(grid)
        dx = np.abs(xt - xt0)
        dy = np.abs(yt - yt0)
        A = float(dx.max())
        B = float(dy.max())
        sup_uniform = float(max((dx * plain_weight).max(), (dy * plain_weight).max()))
        reports.append(
            ConvergenceReport(
                d=d,
                rho0=float(rho0),
                eta=eta,
                A_eta=A,
                B_eta=B,
                kappa_emp=2.0 * B * math.exp(-rho0 / d) / eta,
                sup_uniform_gap=sup_uniform,
            )
        )
    return reports


def apriori_bound_audit(
    model: ModelSpec,
    rho0: float,
    rho: float,
    cfg: NumericsConfig = DEFAULT_CONFIG,
    s_start: float = -20.0,
) -> AprioriBoundReport:
    """Check d x S(density) <= rho0 e^{2s} max_{[0, rho0]} S along a trajectory.

    Both sides carry a common factor e^{2s} beyond that, so the audit
    evaluates the ratio (d x e^{-2s} S) / (rho0 max S), which the monotone
    entry property caps at 1.  Classical statistics (any kind at eta = 0) have
    S identically zero and report a zero ratio.
    """
    if not (math.isfinite(rho0) and rho0 > 0.0):
        raise ConfigError(f"rho0 must be positive, got {rho0!r}")
    if not (math.isfinite(rho) and 0.0 < rho <= rho0):
        raise ConfigError(f"need 0 < rho <= rho0, got rho={rho!r}, rho0={rho0!r}")
    if model.eta == 0.0:
        return AprioriBoundReport(
            rho0=float(rho0), rho=float(rho), sup_ratio=0.0, s_bar=0.0,
            max_relative_violation=0.0,
        )
    s_bar = max(
        S_value(model, float(z)) for z in np.linspace(0.0, rho0, _S_SCAN_POINTS)
    )
    traj = integrate_trajectory(model, rho, s_start=s_start, s_end=0.0, cfg=cfg)
    grid = comparison_grid(s_start)
    xt, yt = traj.sample_scaled(grid)
    gap = np.array([S_value(model, float(z)) for z in yt])
    ratio = model.d * xt * gap / (rho0 * s_bar)
    sup_ratio = float(ratio.max())
    return AprioriBoundReport(
        rho0=float(rho0),
        rho=float(rho),
        sup_ratio=sup_ratio,
        s_bar=float(s_bar),
        max_relative_violation=max(0.0, sup_ratio - 1.0),
    )


def difference_residual_audit(
    d: int, fd_traj: Trajectory, mb_traj: Trajectory
) -> DifferenceResidualReport:
    """Validate the evolution system of the gap (w, v) between two trajectories.

    With w = x_fd - x_mb and v = y_fd - y_mb sampled from the dense outputs,
    centered differences of half-width 2e-3 are matched against

        w' = (2 - d) w + v
        v' = (2 - x_mb) v - y_fd w + x_fd e^{2s} S(e^{-2s} y_fd)

    on the interior of the shared grid.  The reference trajectory must have
    classical statistics (eta = 0, of either kind); the source term uses the
    degenerate trajectory's model (and vanishes when that is classical too).
    """
    if mb_traj.model.eta != 0.0:
        raise ConfigError("reference trajectory must have classical statistics (eta = 0)")
    if fd_traj.model.d != d or mb_traj.model.d != d:
        raise ConfigError(
            f"dimension mismatch: d={d}, trajectories have "
            f"d={fd_traj.model.d} and d={mb_traj.model.d}"
        )
    if fd_traj.rho != mb_traj.rho:
        raise ConfigError(
            f"trajectories disagree on rho: {fd_traj.rho!r} vs {mb_traj.rho!r}"
        )
    if fd_traj.s_start != mb_traj.s_start:
        raise ConfigError(
            f"grid mismatch: s_start {fd_traj.s_start!r} vs {mb_traj.s_start!r}"
        )
    if fd_traj.s_end < 0.0 or mb_traj.s_end < 0.0:
        raise ConfigError("both trajectories must cover s in [s_start, 0]")

    h = _AUDIT_DIFF_HALF_WIDTH
    grid = comparison_grid(fd_traj.s_start)
    inner = grid[(grid >= fd_traj.s_start + h) & (grid <= -h)]

    def gap_arrays(s_values):
        xf, yf = fd_traj.sample(s_values)
        xm, ym = mb_traj.sample(s_values)
        return xf - xm, yf - ym

    w_lo, v_lo = gap_arrays(inner - h)
    w_hi, v_hi = gap_arrays(inner + h)
    x_fd, y_fd = fd_traj.sample(inner)
    x_mb, y_mb = mb_traj.sample(inner)
    w, v = x_fd - x_mb, y_fd - y_mb
    dw = (w_hi - w_lo) / (2.0 * h)
    dv = (v_hi - v_lo) / (2.0 * h)

    xt_fd, yt_fd = fd_traj.sample_scaled(inner)
    source = np.array([S_value(fd_traj.model, float(z)) for z in yt_fd])
    rhs_w = (2.0 - d) * w + v
    rhs_v = (2.0 - x_mb) * v - y_fd * w + xt_fd * np.exp(4.0 * inner) * source

    return DifferenceResidualReport(
        d=d,
        rho=fd_traj.rho,
        max_abs_residual_w=float(np.abs(dw - rhs_w).max()),
        max_abs_residual_v=float(np.abs(dv - rhs_v).max()),
        sup_rhs_w=float(np.abs(rhs_w).max()),
        sup_rhs_v=float(np.abs(rhs_v).max()),
        n_points=int(inner.size),
    )
