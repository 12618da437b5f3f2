"""Tests for the shooting dynamics: vector fields, trajectories, radial cross-check."""

import dataclasses
import io
import math

import numpy as np
import pytest

from fermicloud import (
    ModelSpec,
    State,
    Trajectory,
    comparison_grid,
    density_profile,
    difference_residual_audit,
    from_radial,
    initial_state,
    integrate_trajectory,
    lyapunov,
    lyapunov_decay_check,
    radial_Q_integrate,
    rhs_autonomous,
    rhs_nonautonomous,
    to_radial,
)
from fermicloud import dynamics, fermi
from fermicloud.dynamics import TRAJECTORY_CSV_HEADER
from fermicloud.numerics import DEFAULT_CONFIG, ConfigError, DomainError, NumericsConfig

MB3 = ModelSpec.maxwell_boltzmann(3)
SFD = ModelSpec.simplified_fd(3, 1e-2)
FFD = ModelSpec.full_fd(3, 1e-2)


class TestVectorFields:
    @pytest.mark.parametrize("d", range(3, 10))
    def test_sink_is_equilibrium(self, d):
        dx, dy = rhs_autonomous(d, 2.0, 2.0 * (d - 2))
        assert dx == 0.0
        assert dy == 0.0

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_classical_kind_reduces_to_autonomous(self, d):
        model = ModelSpec.maxwell_boltzmann(d)
        for s, x, y in [(-5.0, 0.3, 0.9), (0.0, 2.0, 2.0), (3.0, 10.0, 1e-4)]:
            assert rhs_nonautonomous(model, s, x, y) == rhs_autonomous(d, x, y)

    def test_degenerate_kind_weakens_sink_term(self):
        # R(z) <= z, so the y-equation sits between 2y - xy and 2y
        s, x, y = -2.0, 1.5, 3.0
        _, dy_mb = rhs_nonautonomous(MB3, s, x, y)
        _, dy_fd = rhs_nonautonomous(SFD, s, x, y)
        assert 2.0 * y - x * y <= dy_mb <= dy_fd <= 2.0 * y

    def test_classical_limit_of_driven_field(self):
        # e^{-2s} y -> 0 makes the response ratio -> 1
        s = 20.0
        dx_fd, dy_fd = rhs_nonautonomous(SFD, s, 1.0, 1.0)
        dx_mb, dy_mb = rhs_nonautonomous(MB3, s, 1.0, 1.0)
        assert dx_fd == dx_mb
        assert dy_fd == pytest.approx(dy_mb, rel=1e-6)

    def test_zero_flux_is_stationary_in_y(self):
        _, dy = rhs_nonautonomous(SFD, -1.0, 0.5, 0.0)
        assert dy == 0.0

    def test_negative_flux_rejected(self):
        with pytest.raises(DomainError):
            rhs_nonautonomous(SFD, 0.0, 1.0, -1e-9)

    def test_response_argument_overflow(self):
        with pytest.raises(DomainError, match="overflows"):
            rhs_nonautonomous(SFD, -400.0, 1.0, 1.0)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(DomainError):
            rhs_nonautonomous(MB3, math.nan, 1.0, 1.0)
        with pytest.raises(DomainError):
            rhs_nonautonomous(MB3, 0.0, math.inf, 1.0)

    @pytest.mark.parametrize("model", [MB3, SFD, FFD])
    def test_shooting_field_stays_finite_on_far_trial_stages(self, model):
        # trial stages of the solver can land as far out as a ~ 9e14; the
        # field must hand the step control a finite slope to reject there,
        # not raise OverflowError
        field = dynamics._shooting_field(model, 1e4)
        for a, b in [(9e14, 0.0), (-9e14, 0.0), (0.0, 9e14), (0.0, -9e14), (1e300, -1e300)]:
            da, db = field(0.5, [a, b])
            assert math.isfinite(da) and math.isfinite(db)
            assert db <= 0.0

    @pytest.mark.parametrize("d", [2, 10, 3.5])
    def test_autonomous_dimension_checked(self, d):
        with pytest.raises(ConfigError):
            rhs_autonomous(d, 1.0, 1.0)


class TestInitialState:
    @pytest.mark.parametrize("d", [3, 5, 9])
    @pytest.mark.parametrize("rho", [0.1, 1.0, 1e6])
    def test_asymptotic_slope(self, d, rho):
        st = initial_state(d, rho, -20.0)
        assert st.s == -20.0
        assert st.y == rho * math.exp(-40.0)
        assert st.x == st.y / d

    def test_density_recovered_at_launch(self):
        st = initial_state(3, 7.5, -15.0)
        assert st.y * math.exp(2.0 * 15.0) == pytest.approx(7.5, rel=1e-15)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_bad_density_rejected(self, rho):
        with pytest.raises(ConfigError):
            initial_state(3, rho, -20.0)

    @pytest.mark.parametrize("s_start", [-9.9, 0.0, 5.0, math.inf])
    def test_start_too_close_rejected(self, s_start):
        with pytest.raises(ConfigError):
            initial_state(3, 1.0, s_start)


@pytest.fixture(scope="module")
def mb_traj():
    return integrate_trajectory(MB3, 1.0)


@pytest.fixture(scope="module")
def mb_long():
    return integrate_trajectory(MB3, 1.0, s_end=5.0)


class TestTrajectory:
    def test_endpoints_and_repr(self, mb_traj):
        assert mb_traj.s_start == -20.0
        assert mb_traj.s_end == 0.0
        assert "Trajectory(mb" in repr(mb_traj)

    def test_end_state_regression(self, mb_traj):
        # frozen from an accepted run; guards the whole integration pathway
        assert mb_traj.end_state.x == pytest.approx(0.3029013761872641, rel=1e-9)
        assert mb_traj.end_state.y == pytest.approx(0.8531433620814901, rel=1e-9)

    def test_solver_settings_build_no_fermi_tables(self, monkeypatch):
        # the response depends on the model alone: once its tables exist, a
        # trajectory under other ODE tolerances reuses them
        integrate_trajectory(FFD, 1.0, s_end=-19.0)
        builds = []
        for cls in (fermi.FermiEvaluator, fermi.ResponseRatioProxy):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                builds.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        cfg = dataclasses.replace(DEFAULT_CONFIG, ode_rel_tol=1e-9)
        integrate_trajectory(FFD, 1.0, cfg=cfg)
        assert builds == []

    def test_end_state_matches_samples(self, mb_traj, mb_long):
        for traj in (mb_traj, mb_long):
            last = traj.samples[-1]
            end = traj.end_state
            assert (last.s, last.x, last.y) == (end.s, end.x, end.y)

    def test_at_matches_sample(self, mb_traj):
        st = mb_traj.at(-3.7)
        x, y = mb_traj.sample([-3.7])
        assert (st.x, st.y) == (float(x[0]), float(y[0]))

    def test_density_consistent_with_sample(self, mb_long):
        s = np.array([-12.0, -1.0, 0.5, 4.0])
        _, y = mb_long.sample(s)
        dens = mb_long.density(s)
        np.testing.assert_allclose(dens, y * np.exp(-2.0 * s), rtol=1e-12)

    def test_density_approaches_central_value(self, mb_traj):
        assert mb_traj.density([-19.0])[0] == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 1e4])
    def test_density_bounded_by_central_value(self, rho):
        traj = integrate_trajectory(SFD, rho)
        grid = comparison_grid(traj.s_start)
        dens = traj.density(grid)
        assert dens.max() <= rho * (1.0 + 1e-6)
        assert dens.min() >= 0.0

    def test_sample_outside_range_rejected(self, mb_traj):
        with pytest.raises(DomainError):
            mb_traj.sample([-20.5])
        with pytest.raises(DomainError):
            mb_traj.sample([0.1])

    def test_sample_tolerates_roundoff_slack(self, mb_traj):
        x, _ = mb_traj.sample([-20.0 - 1e-11, 1e-11])
        assert np.all(np.isfinite(x))

    def test_legs_agree_at_the_seam(self, mb_long):
        # tolerance covers the field's own motion across the 2e-9 window
        x, y = mb_long.sample([-1e-9, 1e-9])
        assert x[1] == pytest.approx(x[0], rel=1e-8)
        assert y[1] == pytest.approx(y[0], rel=1e-8)

    def test_translation_stability(self):
        # launching deeper only changes the truncated asymptotic data
        a = integrate_trajectory(MB3, 1.0, s_start=-20.0).end_state
        b = integrate_trajectory(MB3, 1.0, s_start=-14.0).end_state
        assert b.x == pytest.approx(a.x, rel=1e-6)
        assert b.y == pytest.approx(a.y, rel=1e-6)

    def test_launch_slope_matches_asymptotics(self, mb_traj):
        x, y = mb_traj.sample([-18.0])
        assert x[0] / y[0] == pytest.approx(1.0 / 3.0, rel=1e-7)

    def test_approaches_sink_downstream(self, mb_long):
        # d=3 sink is (2, 2); s_end=5 is far enough for coarse agreement
        end = mb_long.end_state
        assert end.x == pytest.approx(2.0, abs=0.2)
        assert end.y == pytest.approx(2.0, abs=0.2)

    def test_compact_degenerate_profile_integrates(self):
        # high central density: sharp edge and a near-vacuum exponential tail
        traj = integrate_trajectory(SFD, 1e7)
        assert traj.end_state.x == pytest.approx(15.898429577671319, rel=1e-8)
        dens = traj.density(comparison_grid(traj.s_start))
        assert np.all(np.isfinite(dens))

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            integrate_trajectory("mb", 1.0)
        with pytest.raises(ConfigError):
            integrate_trajectory(MB3, -1.0)
        with pytest.raises(ConfigError):
            integrate_trajectory(MB3, 1.0, s_start=-20.0, s_end=-20.0)


class TestCsvExport:
    def _parse(self, text):
        lines = text.strip().split("\n")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return lines[0], data

    def test_columns_are_consistent(self):
        traj = integrate_trajectory(MB3, 1.0, s_end=1.0)
        buf = io.StringIO()
        traj.to_csv(buf)
        header, data = self._parse(buf.getvalue())
        assert header == TRAJECTORY_CSV_HEADER + ",lyapunov"
        s, x, y, r, q, qp, dens, _lyap = data.T
        np.testing.assert_allclose(r, np.exp(s), rtol=1e-12)
        np.testing.assert_allclose(q, x * np.exp(s), rtol=1e-12)  # d - 2 = 1
        np.testing.assert_allclose(qp, y, rtol=1e-12)  # d - 3 = 0
        np.testing.assert_allclose(dens, y * np.exp(-2.0 * s), rtol=1e-12)
        assert np.all(np.diff(s) > 0)

    def test_lyapunov_column(self):
        # written exactly for classical statistics (eta = 0)
        traj = integrate_trajectory(MB3, 1.0)
        buf = io.StringIO()
        traj.to_csv(buf)
        header, data = self._parse(buf.getvalue())
        assert header == TRAJECTORY_CSV_HEADER + ",lyapunov"
        s, x, y = data[:, 0], data[:, 1], data[:, 2]
        expected = [lyapunov(3, xi, yi) for xi, yi in zip(x, y)]
        np.testing.assert_allclose(data[:, 7], expected, rtol=1e-12)
        buf = io.StringIO()
        integrate_trajectory(SFD, 1.0).to_csv(buf)
        assert self._parse(buf.getvalue())[0] == TRAJECTORY_CSV_HEADER

    def test_writes_to_path(self, tmp_path):
        traj = integrate_trajectory(MB3, 1.0)
        target = tmp_path / "traj.csv"
        traj.to_csv(target)
        assert target.read_text().startswith(TRAJECTORY_CSV_HEADER + ",lyapunov\n")


class TestLyapunov:
    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_vanishes_at_sink(self, d):
        assert lyapunov(d, 2.0, 2.0 * (d - 2)) == 0.0

    @pytest.mark.parametrize("x,y", [(0.1, 0.5), (2.0, 7.0), (5.0, 2.0)])
    def test_positive_off_sink(self, x, y):
        assert lyapunov(3, x, y) > 0.0

    def test_rejects_nonpositive_flux(self):
        with pytest.raises(DomainError):
            lyapunov(3, 1.0, 0.0)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("rho", [1.0, 100.0])
    def test_decay_audit_passes(self, d, rho):
        traj = integrate_trajectory(ModelSpec.maxwell_boltzmann(d), rho, s_end=10.0)
        report = lyapunov_decay_check(traj)
        assert report.passed
        assert report.max_step_increase <= 1e-9
        assert report.offending_s == ()
        assert report.identity_max_rel_err <= 1e-3

    def test_audit_rejects_degenerate_kind(self):
        traj = integrate_trajectory(SFD, 1.0)
        with pytest.raises(ConfigError):
            lyapunov_decay_check(traj)

    def test_audits_accept_classical_statistics_of_any_kind(self):
        # sfd at eta = 0 runs the classical field, so both audits take it
        mb = integrate_trajectory(MB3, 1.0, s_end=10.0)
        sfd0 = integrate_trajectory(ModelSpec.simplified_fd(3, 0.0), 1.0, s_end=10.0)
        assert lyapunov_decay_check(sfd0) == lyapunov_decay_check(mb)
        reference = difference_residual_audit(3, mb, mb)
        assert difference_residual_audit(3, mb, sfd0) == reference
        assert reference.max_abs_residual_v == 0.0


class TestRadialMap:
    def test_roundtrip(self):
        st = State(-1.3, 0.7, 2.1)
        for d in (3, 5, 9):
            r, q, qp = to_radial(st, d)
            back = from_radial(r, q, qp, d)
            assert back.s == pytest.approx(st.s, rel=1e-15)
            assert back.x == pytest.approx(st.x, rel=1e-13)
            assert back.y == pytest.approx(st.y, rel=1e-13)

    def test_unit_radius_fixed_point(self):
        # at s = 0 the substitution is the identity on (x, y)
        r, q, qp = to_radial(State(0.0, 1.5, 2.5), 7)
        assert (r, q, qp) == (1.0, 1.5, 2.5)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            to_radial(State(1e4, 1.0, 1.0), 3)
        with pytest.raises(DomainError):
            from_radial(0.0, 1.0, 1.0, 3)


class TestRadialCrossCheck:
    # frozen endpoints x(0) at rho = 10, one per statistics kind
    PINS = {
        "mb": (MB3, 1.6330121886803306),
        "sfd": (SFD, 1.662759579828818),
        "ffd": (FFD, 1.6357847724912224),
    }

    @pytest.mark.parametrize("kind", ["mb", "sfd", "ffd"])
    def test_agrees_with_shooting_endpoint(self, kind):
        model, pin = self.PINS[kind]
        x0 = integrate_trajectory(model, 10.0).end_state.x
        q1, _ = radial_Q_integrate(model, 10.0)
        assert x0 == pytest.approx(pin, rel=1e-9)
        assert abs(x0 - q1) / max(abs(x0), abs(q1)) < 1e-6

    @pytest.mark.parametrize("model", [MB3, ModelSpec.full_fd(3, 1e-3)], ids=["mb", "ffd"])
    def test_launch_error_below_tolerance_at_large_density(self, model):
        # launching the series to second order leaves O((rho r0^2)^2) at
        # r0 = 1e-6: far below a tight shot's error even at rho = 1e8, where
        # the leading term alone was off by 1.6e-8 (mb) and 3.9e-8 (ffd)
        tight = NumericsConfig(ode_rel_tol=1e-13)
        x0 = integrate_trajectory(model, 1e8, cfg=tight).end_state.x
        q1, _ = radial_Q_integrate(model, 1e8)
        assert abs(q1 - x0) <= 1e-10 * x0

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            radial_Q_integrate("mb", 1.0)
        with pytest.raises(ConfigError):
            radial_Q_integrate(MB3, 0.0)


class TestDensityProfileAndGrid:
    def test_profile_plateau_and_decay(self):
        traj = integrate_trajectory(MB3, 4.0)
        prof = density_profile(traj)
        radii = [r for r, _ in prof]
        assert radii == sorted(radii)
        assert prof[0][1] == pytest.approx(4.0, rel=1e-8)
        assert prof[-1][1] < 4.0

    def test_comparison_grid_shape(self):
        grid = comparison_grid(-20.0)
        assert grid.shape == (2000,)
        assert grid[0] == -20.0
        assert grid[-1] == 0.0
        assert np.all(np.diff(grid) > 0)
