"""Contract tests for the occupancy-weighted power-law integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from fermicloud import fermi
from fermicloud.fermi import (
    CLASSICAL_CUTOFF,
    DEGENERATE_CUTOFF,
    FermiEvaluator,
    bound_constant_C,
    cached_evaluator,
    cached_ratio_proxy,
    fermi_asymptotic,
    fermi_f,
    fermi_f_inverse,
    zeta_map,
)
from fermicloud.numerics import DomainError


def quadrature_oracle(alpha, z):
    """Independent evaluation of int_0^inf x^alpha / (1 + e^(x-z)) dx."""

    def integrand(x):
        t = x - z
        if t > 0.0:
            w = math.exp(-t)
            occ = w / (1.0 + w)
        else:
            occ = 1.0 / (1.0 + math.exp(t))
        return x**alpha * occ

    split = max(z, 0.0) + 30.0
    pts = [z] if 0.0 < z < split else None
    head, _ = quad(integrand, 0.0, split, limit=200, epsabs=0.0, epsrel=1e-12, points=pts)
    tail, _ = quad(integrand, split, np.inf, limit=200, epsabs=1e-300, epsrel=1e-12)
    return head + tail


class TestFermiF:
    def test_order_zero_closed_form(self):
        # f_0(z) = log(1 + e^z)
        for z in np.linspace(-30.0, 30.0, 61):
            expected = math.log1p(math.exp(z))
            assert fermi_f(0.0, float(z)) == pytest.approx(expected, rel=1e-10)

    def test_order_one_at_origin(self):
        # alternating series sum (-1)^(k+1)/k^2 = pi^2/12
        assert fermi_f(1.0, 0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-10)

    @pytest.mark.parametrize(
        "alpha,z,expected",
        [
            # frozen from the independent quadrature oracle above
            (0.5, 1.234, 1.62018731330733),
            (1.0, 5.0, 14.1382074359707),
            (2.5, -3.0, 0.164740393732205),
            (-0.5, 10.0, 6.29713724453385),
        ],
    )
    def test_oracle_values(self, alpha, z, expected):
        assert fermi_f(alpha, z) == pytest.approx(expected, rel=1e-10)

    def test_matches_live_oracle(self):
        for alpha in (-0.5, 0.5, 1.5):
            for z in (-10.0, 0.0, 7.3, 45.0):
                assert fermi_f(alpha, z) == pytest.approx(
                    quadrature_oracle(alpha, z), rel=1e-9
                )

    def test_classical_tail_branch(self):
        # below the cutoff the value is Gamma(alpha+1) e^z
        z = CLASSICAL_CUTOFF - 5.0
        assert fermi_f(0.5, z) == pytest.approx(
            math.gamma(1.5) * math.exp(z), rel=1e-12
        )

    def test_degenerate_tail_continuity(self):
        # quadrature and expansion agree across the cutoff; the window is
        # narrow enough that the function's own slope stays below tolerance
        below = fermi_f(1.0, DEGENERATE_CUTOFF - 1e-12)
        above = fermi_f(1.0, DEGENERATE_CUTOFF + 1e-12)
        assert above == pytest.approx(below, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.5])
    def test_strictly_increasing_in_z(self, alpha):
        zs = np.linspace(-40.0, 80.0, 100)
        values = [fermi_f(alpha, float(z)) for z in zs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_derivative_lowers_order(self):
        # d/dz f_alpha = alpha f_(alpha-1) for alpha >= 1
        h = 1e-5
        for alpha in (1.0, 2.0, 2.5):
            for z in (-5.0, 0.0, 7.0, 20.0):
                deriv = (fermi_f(alpha, z + h) - fermi_f(alpha, z - h)) / (2.0 * h)
                assert deriv == pytest.approx(alpha * fermi_f(alpha - 1.0, z), rel=1e-5)

    @pytest.mark.parametrize("alpha", [-1.0, -1.5])
    def test_order_at_most_minus_one_rejected(self, alpha):
        with pytest.raises(DomainError):
            fermi_f(alpha, 0.0)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            fermi_f(0.5, float("nan"))


class TestAsymptoticBranches:
    def test_classical_branch_value(self):
        assert fermi_asymptotic(0.0, 30.0, "classical") == pytest.approx(math.exp(30.0))

    def test_degenerate_branch_value(self):
        assert fermi_asymptotic(1.0, 100.0, "degenerate") == pytest.approx(5000.0)

    def test_classical_agrees_with_quadrature_far_left(self):
        for alpha in (-0.5, 0.5, 1.0):
            for z in (-15.0, -20.0, -25.0):
                assert fermi_asymptotic(alpha, z, "classical") == pytest.approx(
                    quadrature_oracle(alpha, z), rel=1e-2
                )

    def test_degenerate_agrees_with_quadrature_far_right(self):
        for alpha in (-0.5, 0.5, 1.0):
            for z in (40.0, 55.0):
                assert fermi_asymptotic(alpha, z, "degenerate") == pytest.approx(
                    quadrature_oracle(alpha, z), rel=5e-2
                )

    def test_unknown_branch_rejected(self):
        with pytest.raises(DomainError):
            fermi_asymptotic(0.5, 1.0, "sideways")

    def test_degenerate_needs_positive_argument(self):
        with pytest.raises(DomainError):
            fermi_asymptotic(0.5, -1.0, "degenerate")


class TestInverse:
    def test_order_zero_analytic_inverse(self):
        # f_0(z) = log 2 at z = 0
        assert fermi_f_inverse(0.0, math.log(2.0)) == pytest.approx(0.0, abs=1e-9)

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            alpha = float(rng.uniform(-0.5, 2.5))
            z = float(rng.uniform(-25.0, 55.0))
            y = fermi_f(alpha, z)
            assert fermi_f_inverse(alpha, y) == pytest.approx(z, rel=1e-7, abs=1e-7)

    def test_large_target_follows_degenerate_branch(self):
        root = fermi_f_inverse(0.5, 1e6)
        assert root == pytest.approx((1.5e6) ** (2.0 / 3.0), rel=5e-3)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(DomainError):
            fermi_f_inverse(0.5, 0.0)

    def test_each_argument_evaluated_once(self, monkeypatch):
        # the bracket ends are not evaluated a second time by Brent
        seen = []

        def counted(alpha, z):
            seen.append(z)
            return fermi_f(alpha, z)

        monkeypatch.setattr(fermi, "fermi_f", counted)
        fermi_f_inverse(0.5, 3.0)
        assert len(seen) == len(set(seen))


class TestZetaMap:
    def test_exact_composition_point(self):
        # at d=4 the inner inverse of f_1(0) is 0, so the value is f_0(0) = log 2
        assert zeta_map(4, fermi_f(1.0, 0.0)) == pytest.approx(math.log(2.0), rel=1e-8)

    def test_small_argument_slope(self):
        # zeta(w)/w -> Gamma(d/2-1)/Gamma(d/2) = 2/(d-2) as w -> 0
        for d in (3, 4, 6):
            w = 1e-8
            assert zeta_map(d, w) / w == pytest.approx(2.0 / (d - 2.0), rel=1e-4)

    def test_large_argument_power_law(self):
        # degenerate branches give zeta ~ (2/(d-2)) (d w / 2)^((d-2)/d)
        d, w = 6, 1e6
        expected = 2.0 / (d - 2.0) * (d * w / 2.0) ** ((d - 2.0) / d)
        assert zeta_map(d, w) == pytest.approx(expected, rel=2e-2)

    def test_strictly_increasing(self):
        ws = np.logspace(-3.0, 3.0, 25)
        values = [zeta_map(3, float(w)) for w in ws]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            zeta_map(3, 0.0)


class TestBoundConstant:
    def test_d3_regression_pin(self):
        # frozen value of the earlier quadrature route (zeta_map scan plus
        # golden-section refinement)
        C, accuracy = bound_constant_C(3)
        assert C == pytest.approx(0.27970924497031097, rel=1e-9)
        assert 0.0 < accuracy <= 0.01

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_objective_decays_at_scan_edges(self, d):
        # the defect behaves like w^(1-2/d) at the low edge and w^(-2/d) at
        # the high edge, so the edge/peak ratio shrinks with dimension
        # distance: strict 1e-3 / 10% margins hold mid-range (d=5) while
        # d=3 reaches 1.4e-2 low and d=9 reaches 0.19 high
        def objective(w):
            return w ** (-1.0 - 2.0 / d) * (w - (d - 2.0) / 2.0 * zeta_map(d, w))

        C, _ = bound_constant_C(d)
        assert objective(1e-6) <= 2e-2 * C
        assert objective(1e8) <= 0.25 * C
        if d == 5:
            assert objective(1e-6) <= 1e-3 * C
            assert objective(1e8) <= 0.10 * C

    def test_low_edge_defect_rate_d3(self):
        # classical second-order term gives objective = w^(1/3)/sqrt(2 pi)
        w = 1e-6
        obj = w ** (-1.0 - 2.0 / 3) * (w - 0.5 * zeta_map(3, w))
        assert obj == pytest.approx(w ** (1.0 / 3.0) / math.sqrt(2.0 * math.pi), rel=1e-3)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_matches_quadrature_scan(self, d):
        # oracle: a coarse log scan of the zeta_map defect, refined on the
        # quadrature itself
        def defect(t):
            w = math.exp(t)
            return w ** (-1.0 - 2.0 / d) * (w - 0.5 * (d - 2) * zeta_map(d, w))

        ts = np.linspace(math.log(1e-6), math.log(1e8), 29)
        k = int(np.argmax([defect(float(t)) for t in ts]))
        peak = minimize_scalar(
            lambda t: -defect(t), bounds=(ts[k - 1], ts[k + 1]), method="bounded",
            options={"xatol": 1e-8},
        )
        C, _ = bound_constant_C(d)
        assert C == pytest.approx(-peak.fun, rel=1e-10)

    def test_positive_for_all_dimensions(self):
        for d in range(3, 10):
            C, _ = bound_constant_C(d)
            assert C > 0.0


class TestFermiEvaluator:
    def test_matches_direct_evaluation(self):
        ev = cached_evaluator(0.5)
        for z in np.linspace(-35.0, 65.0, 41):
            assert ev.value(float(z)) == pytest.approx(fermi_f(0.5, float(z)), rel=1e-9)

    def test_deterministic_across_instances(self):
        a = FermiEvaluator(1.5)
        b = FermiEvaluator(1.5)
        for z in (-12.3, 0.7, 31.9, 59.0):
            assert a.value(z) == b.value(z)

    def test_inverse_roundtrip(self):
        ev = cached_evaluator(0.5)
        for z in (-40.0, -10.0, 0.0, 25.0, 70.0):
            assert ev.inverse(ev.value(z)) == pytest.approx(z, rel=1e-9, abs=1e-9)

    def test_inverse_independent_of_call_history(self):
        ev = FermiEvaluator(0.5)
        target = ev.value(12.0)
        first = ev.inverse(target)
        ev.inverse(ev.value(-20.0))
        ev.inverse(ev.value(55.0))
        assert ev.inverse(target) == first

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            cached_evaluator(0.5).inverse(0.0)

    def test_cached_evaluator_is_shared(self):
        assert cached_evaluator(0.5) is cached_evaluator(0.5)

    def test_cache_keys_normalized(self):
        # int, float and numpy-scalar spellings share one instance
        ev = cached_evaluator(1.5)
        assert cached_evaluator(np.float64(1.5)) is ev
        assert cached_evaluator(np.float32(1.5)) is ev
        assert cached_evaluator(1) is cached_evaluator(1.0) is cached_evaluator(np.int64(1))
        proxy = cached_ratio_proxy(3)
        assert cached_ratio_proxy(np.int64(3)) is proxy
        assert cached_ratio_proxy(np.int32(3)) is proxy
        assert bound_constant_C(np.int64(3)) is bound_constant_C(3)
        # a float dimension is rejected even once the integer one is cached
        with pytest.raises(DomainError):
            cached_ratio_proxy(3.0)
        with pytest.raises(DomainError):
            bound_constant_C(3.0)


def composed_ratio(d, w):
    """((d-2)/2) zeta(w)/w through the two order evaluators, Newton inverse included."""
    inner = cached_evaluator(d / 2.0 - 1.0)
    outer = cached_evaluator(d / 2.0 - 2.0)
    return 0.5 * (d - 2) * outer.value(inner.inverse(w)) / w


DIMENSIONS = range(3, 10)


class TestResponseRatioProxy:
    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_matches_composition_on_dense_grid(self, d):
        proxy = cached_ratio_proxy(d)
        t_lo, t_hi = proxy.window
        for t in np.linspace(t_lo - 1.0, t_hi + 1.0, 2001):
            w = math.exp(float(t))
            assert proxy.ratio(w) == pytest.approx(composed_ratio(d, w), rel=1e-10)

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_matches_quadrature_oracle(self, d):
        proxy = cached_ratio_proxy(d)
        t_lo, t_hi = proxy.window
        for t in np.linspace(t_lo - 3.0, t_hi + 3.0, 20):
            w = math.exp(float(t))
            expected = 0.5 * (d - 2) * zeta_map(d, w) / w
            assert proxy.ratio(w) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_continuous_at_window_edges(self, d):
        proxy = cached_ratio_proxy(d)
        for t in proxy.window:
            w = math.exp(t)
            below = proxy.ratio(math.nextafter(w, 0.0))
            above = proxy.ratio(math.nextafter(w, math.inf))
            assert abs(above - below) <= 1e-12 * below

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_panels_continue_above_window(self, d):
        # past the window top the panels interpolate the closed degenerate
        # form; the Newton inverse takes over only at the last panel edge
        proxy = cached_ratio_proxy(d)
        t_hi = proxy.window[1]
        top = proxy._edges[-1]
        assert top >= t_hi + 24.0
        for t in np.linspace(t_hi, top, 1201)[1:]:
            w = math.exp(float(t))
            assert proxy.ratio(w) == pytest.approx(composed_ratio(d, w), rel=1e-12)
        w = math.exp(top)
        below = proxy.ratio(math.nextafter(w, 0.0))
        above = proxy.ratio(math.nextafter(w, math.inf))
        assert abs(above - below) <= 1e-12 * below

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_identity_below_window(self, d):
        proxy = cached_ratio_proxy(d)
        for w in (0.0, 5e-324, 1e-200, math.exp(proxy.window[0])):
            assert proxy.ratio(w) == 1.0

    def test_rejects_dimension_out_of_range(self):
        with pytest.raises(DomainError):
            cached_ratio_proxy(2)
