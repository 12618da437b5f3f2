"""Contract tests for the occupancy-weighted power-law integrals."""

import json
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
from fermicloud.numerics import ConfigError, DomainError


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

    def test_values_unchanged(self):
        # bit for bit the values of scipy's bounded minimizer on the same scan
        pins = [0.2797092449703108, 0.21068933579722168, 0.16651630042361157,
                0.13600472823433177, 0.11399432606197851, 0.09755259187651566,
                0.08490557760194938]
        values = [bound_constant_C(d)[0] for d in range(3, 10)]
        assert values == pins
        # the values read from the Chebyshev panels before the Taylor rows
        panel_pins = [0.2797092449703108, 0.21068933579722168, 0.1665163004236115,
                      0.13600472823433174, 0.11399432606197853, 0.09755259187651566,
                      0.08490557760194938]
        assert values == pytest.approx(panel_pins, rel=1e-13, abs=0.0)


MINIMIZER_CASES = {
    "parabola": lambda x: (x - 0.3) ** 2,
    "cosine": lambda x: math.cos(3.0 * x),
    "kink": lambda x: abs(x - 0.1),
    "rising": lambda x: x,
    "falling": lambda x: -x,
    "constant": lambda x: 1.0,
    "double-well": lambda x: (x * x - 0.5) ** 2 + 0.01 * x,
    "narrow-well": lambda x: -math.exp(-((x - 0.77) ** 2) / 1e-6),
}


@pytest.mark.parametrize("xatol", [1e-5, 1e-10, 1e-14])
@pytest.mark.parametrize("bounds", [(-1.0, 1.0), (0.0, 2.0), (0.2, 0.2000001)])
@pytest.mark.parametrize("name", sorted(MINIMIZER_CASES))
def test_bounded_minimizer_port_matches_scipy(name, bounds, xatol):
    f = MINIMIZER_CASES[name]
    ours, theirs = [], []
    x, fx = fermi._bounded_minimum(lambda t: ours.append(t) or f(t), *bounds, xatol)
    res = minimize_scalar(lambda t: theirs.append(t) or f(t), bounds=bounds,
                          method="bounded", options={"xatol": xatol})
    assert (x, fx) == (float(res.x), float(res.fun))
    assert ours == theirs


TABLED_ORDERS = sorted({d / 2.0 - k for d in range(3, 10) for k in (1, 2)})


class TestShippedTables:
    def test_table_holds_the_nine_response_orders(self):
        table = json.loads(fermi._TABLE_PATH.read_text(encoding="utf-8"))
        assert table["layout"] == {"panels": FermiEvaluator._N_PANELS,
                                   "degree": FermiEvaluator._DEGREE,
                                   "lo": FermiEvaluator._lo, "hi": FermiEvaluator._hi}
        assert list(table["orders"]) == [repr(a) for a in TABLED_ORDERS]
        assert TABLED_ORDERS == [k / 2.0 for k in range(-1, 8)]

    @pytest.mark.parametrize("alpha", TABLED_ORDERS)
    def test_refit_reproduces_the_table(self, alpha):
        # the quadrature fit gives the shipped coefficients bit for bit, and
        # the evaluator reads them
        def hexed(panels):
            return [[float(c).hex() for c in coef] for coef in panels]

        refit = FermiEvaluator._fit(alpha)
        assert hexed(refit) == hexed(fermi._shipped_tables()[repr(alpha)])
        assert hexed(cached_evaluator(alpha)._coef) == hexed(refit)

    def test_other_orders_are_fitted(self):
        ev = cached_evaluator(4.5)  # the pressure of d = 9 reads order d/2
        assert repr(4.5) not in fermi._shipped_tables()
        assert ev._coef == FermiEvaluator._fit(4.5)
        assert ev.value(2.0) == pytest.approx(fermi_f(4.5, 2.0), rel=1e-11)


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

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 3.5])
    def test_inverse_roundtrip_on_every_branch(self, alpha):
        # below the seed table, on it, and above it up to 30 units of log y
        ev = cached_evaluator(alpha)
        for t in np.linspace(ev._logf_lo - 20.0, ev._logf_hi + 30.0, 1001):
            y = math.exp(float(t))
            assert abs(ev.value(ev.inverse(y)) - y) <= 1e-13 * y
        for v in np.linspace(-50.0, 400.0, 1001):
            v = float(v)
            assert abs(ev.inverse(ev.value(v)) - v) <= 1e-13 * (1.0 + abs(v))

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
        with pytest.raises(ConfigError):
            cached_ratio_proxy(3.0)
        with pytest.raises(ConfigError):
            bound_constant_C(3.0)


def composed_ratio(d, w):
    """((d-2)/2) zeta(w)/w through the two order evaluators, Brent inverse included."""
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
        # form; the Brent inverse takes over only at the last panel edge
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

    # ratio(w) at w = 1e-15 (below the window), 1e-10 ... 1e2 (window),
    # 1e4 ... 1e15 (panels above it; for d = 3 and 4, 1e15 lies past them)
    # and 1e20, 1e30 (degenerate closed form past the panels), as the proxy
    # gave them when its window and panel edges were numpy scalars
    RATIO_GRID = (1e-15, 1e-10, 1e-3, 0.5, 7.0, 1e2, 1e4, 1e10, 1e15, 1e20, 1e30)
    RATIO_PINS = {
        3: ("0x1.0000000000000p+0", "0x1.ffffffffa8464p-1", "0x1.ffcbbb7aad79dp-1",
            "0x1.abf3842b66ad2p-1", "0x1.32a534f270971p-2", "0x1.b2d04e7aaab73p-5",
            "0x1.4340294ef6b1fp-9", "0x1.08ceb8a796a35p-22", "0x1.f7735dabf6f22p-34",
            "0x1.de94310fbf5b0p-45", "0x1.b075f7e3500aap-67"),
        4: ("0x1.0000000000000p+0", "0x1.ffffffffc908ap-1", "0x1.ffdf3ea71ca50p-1",
            "0x1.ca333681d68f2p-1", "0x1.e5c76ff4d3238p-2", "0x1.1f3d2c691e133p-3",
            "0x1.cf5f1310721a4p-7", "0x1.da88051e00a3bp-17", "0x1.80274f468e3d0p-25",
            "0x1.36fd255a22143p-33", "0x1.979e8ae802118p-50"),
        9: ("0x1.0000000000000p+0", "0x1.ffffffffff19ap-1", "0x1.ffff8083a09b1p-1",
            "0x1.ff09779d8644ep-1", "0x1.f3f81a5d78503p-1", "0x1.ad7f9b8ce62fcp-1",
            "0x1.9610f1d0b849cp-2", "0x1.3c60b00e4882fp-6", "0x1.87fa1710da306p-10",
            "0x1.e59703035b1f2p-14", "0x1.749ccad3e9beap-21"),
    }

    @pytest.mark.parametrize("d", sorted(RATIO_PINS))
    def test_ratio_values_unchanged_on_every_branch(self, d):
        proxy = cached_ratio_proxy(d)
        for w, pin in zip(self.RATIO_GRID, self.RATIO_PINS[d]):
            value = proxy.ratio(w)
            assert value == pytest.approx(float.fromhex(pin), rel=1e-15, abs=0.0)
            t = math.log(w)
            assert type(proxy.log_ratio(t)) is float
            assert proxy.log_ratio(t) == pytest.approx(math.log(value), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_log_ratio_finite_for_any_argument(self, d):
        # the shooting field reads log_ratio on trial stages far past the range
        # of exp; beyond it the leading degenerate order takes over smoothly
        proxy = cached_ratio_proxy(d)
        edge = proxy._T_LEADING
        below, above = proxy.log_ratio(math.nextafter(edge, 0.0)), proxy.log_ratio(edge)
        assert above == pytest.approx(below, rel=1e-12)
        for t in (-1e300, -1e15, 709.9, 1e15, 1e300):
            assert math.isfinite(proxy.log_ratio(t))
        assert proxy.log_ratio(-1e15) == 0.0

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_lane_read_equals_float_read_bit_for_bit(self, d):
        # the mass-curve lanes read g for every lane at once: the same row
        # index and Horner sum as log_ratio, below the window and past the top
        proxy = cached_ratio_proxy(d)
        t = np.linspace(proxy.window[0] - 5.0, proxy._t_top + 5.0, 20001)
        t = np.concatenate([t, [-1e300, proxy.window[0], proxy._t_top, 800.0, 1e300]])
        lanes = proxy.log_ratio_lanes(t)
        assert lanes.tolist() == [proxy.log_ratio(v) for v in t.tolist()]

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_identity_below_window(self, d):
        proxy = cached_ratio_proxy(d)
        for w in (0.0, 5e-324, 1e-200, math.exp(proxy.window[0])):
            assert proxy.ratio(w) == 1.0

    def test_rejects_dimension_out_of_range(self):
        with pytest.raises(ConfigError):
            cached_ratio_proxy(2)


def panel_read(proxy, t, i=None):
    """The Chebyshev fit the proxy's rows are cut from, read by Clenshaw."""
    if i is None:
        i = min(int((t - proxy._t_lo) * proxy._inv_width), len(proxy._panels) - 1)
    coef = tuple(proxy._panels[i].tolist())
    return fermi._cheb_eval(coef, proxy._edges[i], proxy._edges[i + 1], t)


def row_value(row, t):
    x = t - row[-1]
    return sum(p * x**j for j, p in enumerate(row[:-1]))


class TestTaylorRows:
    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_log_ratio_matches_panel_read(self, d):
        proxy = cached_ratio_proxy(d)
        ts = np.linspace(proxy._t_lo, proxy._t_top, 20003)[1:-1]
        worst = max(abs(proxy.log_ratio(t) - panel_read(proxy, t)) for t in ts.tolist())
        assert worst <= 2e-14

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_rows_meet_at_every_edge(self, d):
        # inside a panel two neighbouring rows agree at their common edge; at a
        # panel edge they inherit the fit's own jump there and add no more
        proxy = cached_ratio_proxy(d)
        rows = proxy._rows[:-1]
        for k in range(1, len(rows)):
            edge = 0.5 * (rows[k - 1][-1] + rows[k][-1])
            jump = abs(row_value(rows[k], edge) - row_value(rows[k - 1], edge))
            fit_jump = 0.0
            if k % proxy._PIECES == 0:
                i = k // proxy._PIECES
                e = proxy._edges[i]
                fit_jump = abs(panel_read(proxy, e, i) - panel_read(proxy, e, i - 1))
            assert jump <= fit_jump + 2e-14

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_top_rounding_onto_last_index_is_served(self, d):
        proxy = cached_ratio_proxy(d)
        t = math.nextafter(proxy._t_top, 0.0)
        assert int((t - proxy._t_lo) * proxy._inv_row) == len(proxy._rows) - 1
        assert proxy.log_ratio(t) == pytest.approx(panel_read(proxy, t), rel=0.0, abs=2e-14)

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_log_ratio_is_a_float(self, d):
        proxy = cached_ratio_proxy(d)
        t_lo, t_hi = proxy.window
        for t in (t_lo - 1.0, t_lo + 0.3, 0.0, t_hi - 0.1, t_hi + 5.0,
                  proxy._t_top + 1.0, 800.0):
            assert type(proxy.log_ratio(t)) is float
