"""Tests for the mass curve, solution counting, and the convergence audits."""

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from fermicloud import (
    AprioriBoundReport,
    ConvergenceReport,
    DifferenceResidualReport,
    MassCurve,
    ModelSpec,
    apriori_bound_audit,
    convergence_study,
    count_solutions,
    difference_residual_audit,
    integrate_trajectory,
    mass_curve,
    mass_of_density,
    radial_Q_integrate,
    sigma_d,
)
from fermicloud import bifurcation, dynamics, models
from fermicloud.bifurcation import MASS_CURVE_CSV_HEADER
from fermicloud.dynamics import _shoot_lanes
from fermicloud.numerics import DEFAULT_CONFIG, ConfigError, NumericsConfig, NumericsError

MB3 = ModelSpec.maxwell_boltzmann(3)
SFD = ModelSpec.simplified_fd(3, 1e-2)


@pytest.fixture(scope="module")
def small_curve():
    return mass_curve(MB3, 1.0, 100.0, points_per_decade=8)


@pytest.fixture(scope="module")
def sfd_curve():
    return mass_curve(SFD, 1.0, 100.0, points_per_decade=8)


@pytest.fixture(scope="module")
def mb_base():
    return integrate_trajectory(MB3, 1.0)


@pytest.fixture(scope="module")
def sfd_reports():
    return convergence_study(3, "sfd", 1.0, [1e-2, 1e-3])


class TestMassOfDensity:
    def test_frozen_reference_value(self):
        # the true mass of this launch: mpmath.odefun at 30 digits on the
        # plain (x, y) system from the same asymptotic data at s = -20;
        # guards the full shooting pathway at the ode_rel_tol contract
        reference = 3.8063709526737911
        assert mass_of_density(MB3, 1.0) == pytest.approx(reference, rel=1e-10)
        tight = NumericsConfig(ode_rel_tol=1e-12)
        assert mass_of_density(MB3, 1.0, tight) == pytest.approx(reference, rel=1e-12)

    def test_dilute_limit_is_uniform_ball(self):
        # density ~ rho everywhere inside radius 1, so M -> sigma_d rho / d
        rho = 1e-6
        assert mass_of_density(MB3, rho) == pytest.approx(
            sigma_d(3) * rho / 3.0, rel=1e-6
        )

    def test_mass_saturates_at_high_density(self):
        # self-gravity concentrates the profile: the curve spirals around a
        # limiting mass instead of scaling with the central density
        m1 = mass_of_density(MB3, 1e6)
        m2 = mass_of_density(MB3, 2e6)
        assert m2 == pytest.approx(m1, rel=0.05)
        assert m1 < 1e-2 * sigma_d(3) * 1e6 / 3.0

    def test_full_kind_through_underflowing_vacuum_tail(self):
        # the tail density of this compact profile underflows the scaled
        # Fermi argument; the shoot completes and the mass keeps rising
        ffd = ModelSpec.full_fd(3, 1e-2)
        mass = mass_of_density(ffd, 6e7)
        assert math.isfinite(mass)
        assert mass > mass_of_density(ffd, 3e7)

    def test_rejects_bad_density(self):
        with pytest.raises(ConfigError):
            mass_of_density(MB3, -1.0)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    @pytest.mark.parametrize("kind", ["sfd", "ffd"])
    def test_domain_sweep_returns_a_mass(self, kind, d):
        # every eta x rho cell of the quantum domain shoots past s = 0, out
        # where the density of compact profiles sinks far below any absolute
        # tolerance; y may underflow to 0.0 there, but never goes negative.
        # The radial route returns the same Q(1) = x(0) in every cell.
        bad = []
        for eta in (1.0, 1e-1, 1e-2, 1e-3):
            model = ModelSpec(kind, d, eta)
            for rho in np.logspace(-2.0, 8.0, 21).tolist():
                traj = integrate_trajectory(model, rho, s_end=3.0)
                x0 = traj.at(0.0).x
                mass = sigma_d(d) * x0
                end = traj.end_state
                if not (math.isfinite(mass) and mass > 0.0 and math.isfinite(end.x)
                        and end.x > 0.0 and math.isfinite(end.y) and end.y >= 0.0):
                    bad.append((eta, rho, mass, end))
                q1, _ = radial_Q_integrate(model, rho)
                if not abs(q1 - x0) <= 1e-6 * x0:
                    bad.append((eta, rho, x0, q1))
            # the 21 rho as lanes of one lockstep solve match the scalar shots
            rhos = np.logspace(-2.0, 8.0, 21).tolist()
            lanes = _shoot_lanes(model, rhos, -20.0, 0.0, DEFAULT_CONFIG)[0]
            for rho, x in zip(rhos, lanes):
                x_ref = integrate_trajectory(model, rho).end_state.x
                if not abs(x - x_ref) <= 1e-13 * x_ref:
                    bad.append((eta, rho, x, x_ref))
        assert bad == []


class TestMassCurve:
    def test_grid_size_and_policy(self, small_curve):
        # 2 decades at 8 points each, endpoints inclusive
        assert len(small_curve.points) == 17
        assert "8 points/decade" in small_curve.grid_policy
        assert small_curve.failures == ()

    def test_grid_is_log_spaced(self, small_curve):
        rhos = small_curve.rhos
        ratios = rhos[1:] / rhos[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
        assert rhos[0] == pytest.approx(1.0, rel=1e-12)
        assert rhos[-1] == pytest.approx(100.0, rel=1e-12)

    def test_masses_match_pointwise_evaluation(self, small_curve):
        # the classical curve is read off one orbit, the pointwise masses
        # are shot per rho: two routes, equal to the solver's accuracy
        per_rho = [mass_of_density(MB3, float(rho)) for rho in small_curve.rhos]
        np.testing.assert_allclose(small_curve.masses, per_rho, rtol=1e-9, atol=0.0)

    def test_degenerate_masses_equal_pointwise_evaluation(self, sfd_curve):
        # eta > 0 shoots the grid as lanes of one lockstep solve: the same
        # steps as each per-rho shot, with numpy's exp in place of math's
        per_rho = [mass_of_density(SFD, float(rho)) for rho in sfd_curve.rhos]
        np.testing.assert_allclose(sfd_curve.masses, per_rho, rtol=1e-13, atol=0.0)

    def test_deterministic(self):
        a = mass_curve(MB3, 1.0, 10.0, points_per_decade=4)
        b = mass_curve(MB3, 1.0, 10.0, points_per_decade=4)
        assert a.points == b.points

    def test_mass_range(self, small_curve):
        lo, hi = small_curve.mass_range()
        assert lo == min(small_curve.masses)
        assert hi == max(small_curve.masses)

    def test_failures_recorded_not_raised(self):
        starved = dataclasses.replace(DEFAULT_CONFIG, max_steps=40)
        curve = mass_curve(MB3, 1.0, 10.0, points_per_decade=4, cfg=starved)
        assert curve.points == ()
        assert len(curve.failures) == 5
        rho, reason = curve.failures[0]
        assert rho == 1.0
        assert reason.startswith("StepLimitError")

    def test_classical_step_budget_is_all_or_nothing(self):
        # at eta = 0 max_steps budgets the one orbit behind the curve: its leg
        # from s = 0 runs out of steps, and every point fails with it, even
        # the low densities whose own shoot fits in the budget
        starved = dataclasses.replace(DEFAULT_CONFIG, max_steps=150)
        curve = mass_curve(MB3, 1e-2, 1e8, points_per_decade=4, cfg=starved)
        assert curve.points == ()
        assert len(curve.failures) == 41
        assert len({reason for _, reason in curve.failures}) == 1
        assert curve.failures[0][1].startswith("StepLimitError")
        assert math.isfinite(mass_of_density(MB3, 1e-2, starved))

    def test_late_launch_fails_every_point(self):
        # the orbit launches earlier than s_start, but only where a per-rho
        # shoot from s_start would be allowed to start
        curve = mass_curve(MB3, 1e-4, 1.0, points_per_decade=4, s_start=-5.0)
        assert curve.points == ()
        assert len(curve.failures) == 17
        assert all(reason.startswith("ConfigError: s_start") for _, reason in curve.failures)

    @pytest.mark.parametrize(
        "rho_min,rho_max,ppd",
        [(0.0, 1.0, 8), (-1.0, 1.0, 8), (1.0, 1.0, 8), (10.0, 1.0, 8), (1.0, 10.0, 3)],
    )
    def test_validation(self, rho_min, rho_max, ppd):
        with pytest.raises(ConfigError):
            mass_curve(MB3, rho_min, rho_max, points_per_decade=ppd)

    def test_csv_roundtrip(self, small_curve):
        buf = io.StringIO()
        small_curve.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == MASS_CURVE_CSV_HEADER
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(data[:, 0], small_curve.rhos)
        np.testing.assert_array_equal(data[:, 1], small_curve.masses)

    def test_csv_keeps_failed_rows(self):
        curve = MassCurve(
            MB3, ((1.0, 3.5), (4.0, 7.25)), "manual", failures=((2.0, "StepLimitError: x"),)
        )
        buf = io.StringIO()
        curve.to_csv(buf)
        assert buf.getvalue() == "rho,mass\n1,3.5\n2,nan\n4,7.25\n"

    def test_json_structure(self, small_curve):
        doc = small_curve.to_json_dict()
        assert doc["model"]["kind"] == "mb"
        assert doc["model"]["d"] == 3
        assert doc["grid"]["n_points"] == 17
        assert doc["grid"]["s_start"] == -20.0
        assert len(doc["points"]) == 17
        assert doc["failures"] == []
        json.dumps(doc)  # must be serializable as-is

    def test_json_writes_to_path(self, small_curve, tmp_path):
        target = tmp_path / "curve.json"
        small_curve.to_json(target)
        doc = json.loads(target.read_text())
        assert doc["grid"]["policy"] == small_curve.grid_policy

    def test_orbit_is_not_part_of_the_value(self, small_curve):
        assert small_curve.orbit is not None
        c = small_curve
        rebuilt = MassCurve(MB3, c.points, c.grid_policy, c.s_start, c.failures)
        assert rebuilt.orbit is None
        assert rebuilt == c
        assert hash(rebuilt) == hash(c)
        assert "orbit" not in repr(c)
        assert "orbit" not in json.dumps(c.to_json_dict())

    def test_per_rho_curve_has_no_orbit(self, sfd_curve):
        assert sfd_curve.orbit is None

    @pytest.mark.parametrize(
        "points",
        [((1.0, -2.0),), ((0.0, 1.0),), ((2.0, 1.0), (1.0, 2.0)), ((1.0, math.nan),)],
    )
    def test_constructor_rejects_bad_points(self, points):
        with pytest.raises(ConfigError):
            MassCurve(MB3, points, "manual")


class TestLanes:
    """The eta > 0 curve shoots its grid as lanes of one lockstep solve."""

    FFD = ModelSpec.full_fd(3, 1e-2)
    GRID = np.logspace(-2.0, 8.0, 81).tolist()

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_sfd_lane_read_matches_float_read(self, d):
        # numpy's exp and log1p against math's: one ulp of g at most
        stats = models._statistics(ModelSpec.simplified_fd(d, 1e-2))
        t = np.linspace(-1000.0, 1000.0, 20001)
        expected = [stats.log_ratio(v) for v in t.tolist()]
        np.testing.assert_allclose(stats.log_ratio_lanes(t), expected, rtol=4e-16, atol=0.0)

    def test_lane_bits_do_not_depend_on_the_batch(self):
        rho = self.GRID[37]
        alone = _shoot_lanes(self.FFD, [rho], -20.0, 0.0, DEFAULT_CONFIG)[0][0]
        curve = dict(mass_curve(self.FFD, 1e-2, 1e8, points_per_decade=8).points)
        big = np.logspace(-2.0, 8.0, 641).tolist()
        big.insert(100, rho)
        in_batch = _shoot_lanes(self.FFD, big, -20.0, 0.0, DEFAULT_CONFIG)[0][100]
        assert curve[rho] == sigma_d(3) * alone
        assert in_batch == alone

    def test_step_counts_equal_the_scalar_shots(self):
        # a lane that does not retire takes exactly the steps of its shot
        _, s_end, n_acc, n_rej = _shoot_lanes(self.FFD, self.GRID, -20.0, 0.0, DEFAULT_CONFIG)
        checked = 0
        for rho, end, acc, rej in zip(self.GRID, s_end.tolist(), n_acc.tolist(), n_rej.tolist()):
            if end == 0.0:
                path = integrate_trajectory(self.FFD, rho)._path
                assert (acc, rej) == (path.n_accepted, path.n_rejected)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("rho", [1e7, 1e8])
    def test_vacuum_retirement_keeps_the_mass(self, rho):
        x, s_end, _, _ = _shoot_lanes(self.FFD, [rho], -20.0, 0.0, DEFAULT_CONFIG)
        assert s_end[0] < 0.0
        assert x[0] == pytest.approx(integrate_trajectory(self.FFD, rho).end_state.x, rel=1e-13)

    def test_starved_curve_fails_like_the_scalar_path(self):
        starved = dataclasses.replace(DEFAULT_CONFIG, max_steps=40)
        curve = mass_curve(SFD, 1.0, 100.0, points_per_decade=4, cfg=starved)
        expected = []
        for rho in curve.rhos.tolist() + [r for r, _ in curve.failures]:
            try:
                mass_of_density(SFD, rho, starved)
            except NumericsError as exc:
                expected.append((rho, f"{type(exc).__name__}: {exc}"))
        assert curve.failures
        assert sorted(curve.failures) == sorted(expected)
        assert all(reason.startswith("StepLimitError") for _, reason in curve.failures)

    def test_chunks_do_not_change_the_curve(self, monkeypatch):
        assert dynamics._LANE_CHUNK == 1024
        whole = mass_curve(SFD, 1.0, 100.0, points_per_decade=8)
        monkeypatch.setattr(dynamics, "_LANE_CHUNK", 5)
        assert mass_curve(SFD, 1.0, 100.0, points_per_decade=8) == whole


class TestCountSolutions:
    def test_single_crossing_location(self, small_curve):
        n, roots = count_solutions(small_curve, 2.0 * sigma_d(3))
        assert n == 1
        assert roots[0] == pytest.approx(16.577086394517146, rel=1e-6)

    def test_root_hits_target_mass(self, small_curve):
        target = 2.0 * sigma_d(3)
        _, roots = count_solutions(small_curve, target)
        assert mass_of_density(MB3, roots[0]) == pytest.approx(target, rel=1e-5)

    def test_brent_refinement_shoot_budget(self, sfd_curve, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mass_of_density(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "mass_of_density", counted)
        n, _ = count_solutions(sfd_curve, 2.0 * sigma_d(3))
        assert n == 1
        assert len(calls) <= 10 * n
        # bracket ends are read off the curve, never shot again
        grid = sfd_curve.rhos
        assert all(np.abs(args[1] / grid - 1.0).min() > 1e-9 for args in calls)

    def test_classical_route_integrates_one_orbit_per_call(self, monkeypatch):
        orbits, shoots = [], []

        def counted_orbit(*args, **kwargs):
            orbits.append(args)
            return integrate_trajectory(*args, **kwargs)

        def counted_shoot(*args, **kwargs):
            shoots.append(args)
            return mass_of_density(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "integrate_trajectory", counted_orbit)
        monkeypatch.setattr(bifurcation, "mass_of_density", counted_shoot)
        curve = mass_curve(MB3, 1e-2, 1e6, points_per_decade=8)
        assert len(orbits) == 1
        n, _ = count_solutions(curve, 2.0 * sigma_d(3))
        assert n == 3  # the fourth crossing lies past 1e6
        assert len(orbits) == 1  # root refinement reads the curve's orbit
        assert shoots == []

    def test_hand_built_classical_curve_refines_by_shooting(self, monkeypatch):
        # a curve built by hand carries no orbit: its roots are shot per rho,
        # and agree with the orbit's to the solver's accuracy
        curve = mass_curve(MB3, 1e-2, 1e6, points_per_decade=8)
        by_hand = MassCurve(MB3, curve.points, "manual", curve.s_start)
        assert by_hand.orbit is None
        shoots = []

        def counted_shoot(*args, **kwargs):
            shoots.append(args)
            return mass_of_density(*args, **kwargs)

        target = 2.0 * sigma_d(3)
        n, roots = count_solutions(curve, target)
        monkeypatch.setattr(bifurcation, "mass_of_density", counted_shoot)
        n_hand, roots_hand = count_solutions(by_hand, target)
        assert shoots
        assert n_hand == n == 3
        np.testing.assert_allclose(roots_hand, roots, rtol=1e-8, atol=0.0)

    def test_target_outside_range(self, small_curve):
        lo, hi = small_curve.mass_range()
        assert count_solutions(small_curve, lo / 2.0) == (0, ())
        assert count_solutions(small_curve, hi * 2.0) == (0, ())

    def test_grid_point_hit_counted_once(self, small_curve):
        # a target equal to a tabulated mass must not double-count
        target = float(small_curve.masses[5])
        n, roots = count_solutions(small_curve, target)
        assert n == 1
        assert roots[0] == pytest.approx(float(small_curve.rhos[5]), rel=1e-6)

    def test_roots_sorted(self):
        curve = mass_curve(MB3, 1e-2, 1e6, points_per_decade=8)
        _, roots = count_solutions(curve, 2.0 * sigma_d(3))
        assert list(roots) == sorted(roots)

    def test_empty_curve_rejected(self):
        with pytest.raises(ConfigError):
            count_solutions(MassCurve(MB3, (), "manual"), 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
    def test_bad_target_rejected(self, small_curve, target):
        with pytest.raises(ConfigError):
            count_solutions(small_curve, target)


class TestSingleOrbitRoute:
    """Invariants of the shifted-orbit route against per-rho shooting."""

    @pytest.mark.parametrize("d", range(3, 10))
    def test_classical_curve_matches_per_rho_shoots(self, d):
        model = ModelSpec.maxwell_boltzmann(d)
        curve = mass_curve(model, 1e-2, 1e8, points_per_decade=4)
        assert len(curve.points) == 41
        per_rho = [mass_of_density(model, float(rho)) for rho in curve.rhos]
        np.testing.assert_allclose(curve.masses, per_rho, rtol=1e-9, atol=0.0)

    def test_simplified_kind_at_eta_zero_is_classical_curve(self):
        sfd0 = mass_curve(ModelSpec.simplified_fd(3, 0.0), 1e-2, 1e8, points_per_decade=16)
        mb = mass_curve(MB3, 1e-2, 1e8, points_per_decade=16)
        assert sfd0.points == mb.points

    @pytest.mark.parametrize("kind", ["sfd", "ffd"])
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("lam", [1e2, 1e4])
    def test_quantum_scaling(self, kind, d, lam):
        # R(z)/z depends on z only through z/mu, so shifting s by log(lam)/2
        # maps the (eta, rho) trajectory onto the (eta lam^(-1/p), lam rho) one:
        # M(eta lam^(-1/p), lam rho) = sigma_d x_{eta,rho}(log(lam)/2)
        p = d / (d - 1.0) if kind == "sfd" else d / 2.0
        eta, rho = 1e-2, 3.0
        traj = integrate_trajectory(ModelSpec(kind, d, eta), rho, s_end=0.5 * math.log(lam))
        scaled = ModelSpec(kind, d, eta * lam ** (-1.0 / p))
        assert mass_of_density(scaled, lam * rho) == pytest.approx(
            sigma_d(d) * traj.end_state.x, rel=1e-9
        )

    def test_classical_folds_on_x_nullcline(self):
        # dM/du = sigma_d ((2-d) x + y) / 2 along the orbit, so the folds of
        # the d = 3 curve sit where the orbit crosses y = (d-2) x
        orbit = bifurcation._classical_orbit(MB3, 1e-2, 1e8, DEFAULT_CONFIG, -20.0)

        def nullcline_gap(s):
            state = orbit.at(s)
            return state.y - state.x

        s = np.linspace(0.5 * math.log(1e-2), 0.5 * math.log(1e8), 2001)
        g = np.array([nullcline_gap(t) for t in s])
        cells = np.nonzero(np.sign(g[:-1]) != np.sign(g[1:]))[0]
        folds = [orbit.at(brentq(nullcline_gap, s[i], s[i + 1], xtol=1e-14)).x for i in cells]
        np.testing.assert_allclose(
            folds, [2.51755132, 1.84273136, 2.04794924], rtol=1e-8, atol=0.0
        )


class TestConvergenceStudy:
    def test_one_report_per_eta(self, sfd_reports):
        assert [r.eta for r in sfd_reports] == [1e-2, 1e-3]
        assert all(r.d == 3 and r.rho0 == 1.0 for r in sfd_reports)

    def test_gaps_shrink_with_eta(self, sfd_reports):
        assert sfd_reports[1].sup_uniform_gap < sfd_reports[0].sup_uniform_gap
        assert sfd_reports[1].B_eta < sfd_reports[0].B_eta

    def test_bound_ordering_holds(self, sfd_reports):
        for r in sfd_reports:
            assert 3 * r.A_eta <= r.B_eta * (1.0 + 1e-6)
            assert r.A_eta > 0.0
            assert r.kappa_emp > 0.0

    def test_json_report_fields(self, sfd_reports):
        doc = sfd_reports[0].to_json_dict()
        assert set(doc) == {"eta", "A_eta", "B_eta", "kappa_emp", "sup_uniform_gap"}

    def test_classical_kind_rejected(self):
        with pytest.raises(ConfigError):
            convergence_study(3, "mb", 1.0, [1e-2])

    @pytest.mark.parametrize("etas", [[], [1e-3, 1e-2], [2.0], [0.0], [1e-2, 1e-2]])
    def test_bad_eta_ladder_rejected(self, etas):
        with pytest.raises(ConfigError):
            convergence_study(3, "sfd", 1.0, etas)

    def test_report_invariant_enforced(self):
        with pytest.raises(NumericsError):
            ConvergenceReport(3, 1.0, 1e-2, A_eta=1.0, B_eta=1.0,
                              kappa_emp=0.1, sup_uniform_gap=1.0)
        with pytest.raises(NumericsError):
            ConvergenceReport(3, 1.0, 1e-2, A_eta=-1.0, B_eta=1.0,
                              kappa_emp=0.1, sup_uniform_gap=1.0)


class TestAprioriBound:
    def test_classical_kind_has_no_gap(self):
        report = apriori_bound_audit(MB3, 1.0, 1.0)
        assert report.sup_ratio == 0.0
        assert report.max_relative_violation == 0.0
        assert report.passed

    def test_apriori_classical_statistics_at_eta_zero(self):
        # any kind at eta = 0 is classical: S vanishes and the ratio is 0, not 0/0
        mb = apriori_bound_audit(MB3, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sfd0 = apriori_bound_audit(ModelSpec.simplified_fd(3, 0.0), 1.0, 1.0)
        assert sfd0 == mb
        assert sfd0.sup_ratio == 0.0

    def test_apriori_full_kind_below_proxy_window(self):
        # at d = 9, eta = 1e-4 every density up to rho0 = 1 lies below the
        # ratio proxy's window; S there is the leading series term, so the
        # audit measures a finite ratio instead of 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = apriori_bound_audit(ModelSpec.full_fd(9, 1e-4), 1.0, 1.0)
        assert report.s_bar > 0.0
        assert math.isfinite(report.sup_ratio)
        assert report.passed

    @pytest.mark.parametrize("model", [SFD, ModelSpec.full_fd(3, 1e-2)])
    def test_degenerate_kinds_satisfy_bound(self, model):
        report = apriori_bound_audit(model, 1.0, 1.0)
        assert report.passed
        assert report.max_relative_violation <= 1e-6
        assert report.sup_ratio <= 1.0 + 1e-6
        assert report.s_bar > 0.0

    def test_bound_is_tight_at_full_density(self):
        # the trajectory attains the central density, where the ratio peaks
        report = apriori_bound_audit(SFD, 1.0, 1.0)
        assert report.sup_ratio == pytest.approx(1.0, abs=1e-6)

    def test_interior_density_stays_below_bound(self):
        report = apriori_bound_audit(SFD, 2.0, 1.0)
        assert report.passed
        assert report.sup_ratio < 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            apriori_bound_audit(SFD, 0.0, 1.0)
        with pytest.raises(ConfigError):
            apriori_bound_audit(SFD, 1.0, 2.0)
        with pytest.raises(ConfigError):
            apriori_bound_audit(SFD, 1.0, 0.0)


class TestFullKindClassicalLimit:
    # At d >= 7 the gaps at eta = 1e-4 reach the rounding level of x and y,
    # so noise in the response shows up as a bound violation or a gap that
    # fails to shrink.
    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_apriori_bound_holds(self, d):
        report = apriori_bound_audit(ModelSpec.full_fd(d, 1e-2), 1.0, 1.0)
        assert report.passed

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_gaps_shrink_along_eta_ladder(self, d):
        reports = convergence_study(d, "ffd", 1.0, (1e-2, 1e-3, 1e-4))
        gaps = [r.sup_uniform_gap for r in reports]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestDifferenceResidual:
    def test_classical_difference_is_identically_zero(self, mb_base):
        report = difference_residual_audit(3, mb_base, mb_base)
        assert report.max_abs_residual_w == 0.0
        assert report.max_abs_residual_v == 0.0
        assert report.passed

    def test_degenerate_difference_satisfies_equation(self, mb_base):
        fd = integrate_trajectory(SFD, 1.0)
        report = difference_residual_audit(3, fd, mb_base)
        assert report.passed
        assert report.rel_residual_w <= 1e-3
        assert report.rel_residual_v <= 1e-3
        assert report.n_points > 100

    def test_residual_scales_linearly_in_eta(self, mb_base):
        # the inhomogeneous term carries the only eta dependence
        reps = [
            difference_residual_audit(
                3, integrate_trajectory(ModelSpec.simplified_fd(3, eta), 1.0), mb_base
            )
            for eta in (1e-2, 1e-3)
        ]
        ratio = reps[0].max_abs_residual_v / reps[1].max_abs_residual_v
        assert 5.0 < ratio < 20.0

    def test_mismatched_trajectories_rejected(self, mb_base):
        fd = integrate_trajectory(SFD, 1.0)
        with pytest.raises(ConfigError):
            difference_residual_audit(3, fd, fd)  # base must be classical
        other_rho = integrate_trajectory(SFD, 2.0)
        with pytest.raises(ConfigError):
            difference_residual_audit(3, other_rho, mb_base)
        other_start = integrate_trajectory(SFD, 1.0, s_start=-15.0)
        with pytest.raises(ConfigError):
            difference_residual_audit(3, other_start, mb_base)
        with pytest.raises(ConfigError):
            difference_residual_audit(5, fd, mb_base)  # dimension mismatch


class TestReportDataclasses:
    def test_apriori_report_pass_threshold(self):
        ok = AprioriBoundReport(1.0, 1.0, 0.5, 0.1, 5e-7)
        bad = AprioriBoundReport(1.0, 1.0, 1.1, 0.1, 1e-3)
        assert ok.passed
        assert not bad.passed

    def test_difference_report_relative_metrics(self):
        rep = DifferenceResidualReport(3, 1.0, 1e-6, 2e-6, 1.0, 4.0, 500)
        assert rep.rel_residual_w == pytest.approx(1e-6)
        assert rep.rel_residual_v == pytest.approx(5e-7)
        assert rep.passed

    def test_difference_report_zero_rhs_floor(self):
        # a vanishing right-hand side must not divide by zero
        rep = DifferenceResidualReport(3, 1.0, 0.0, 0.0, 0.0, 0.0, 500)
        assert rep.rel_residual_w == 0.0
        assert rep.passed
