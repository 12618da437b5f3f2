"""Contract tests for the statistics family and its bound constants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fermicloud import mass_of_density, models
from fermicloud.fermi import bound_constant_C, cached_ratio_proxy, fermi_f, fermi_f_inverse
from fermicloud.models import (
    GAP_MAJORANT_FORM,
    C_eta_majorant,
    ModelKind,
    ModelSpec,
    R_value,
    S_value,
    mu_from_eta,
    pressure,
    response_fn,
    sigma_d,
)
from fermicloud.numerics import ConfigError, DomainError


MB3 = ModelSpec.maxwell_boltzmann(3)
SFD = ModelSpec.simplified_fd(3, 1e-2)
FFD = ModelSpec.full_fd(3, 1e-2)


class TestModelSpec:
    def test_kinds_round_trip_json(self):
        for model in (MB3, SFD, FFD, ModelSpec.simplified_fd(7, 0.5)):
            assert ModelSpec.from_json(model.to_json()) == model

    @pytest.mark.parametrize("d", [2, 10, 3.5, -1])
    def test_dimension_range_enforced(self, d):
        with pytest.raises(ConfigError):
            ModelSpec.maxwell_boltzmann(d)

    def test_classical_kind_requires_zero_eta(self):
        with pytest.raises(ConfigError):
            ModelSpec(ModelKind.MAXWELL_BOLTZMANN, 3, 0.5)

    def test_degenerate_kind_requires_positive_eta(self):
        with pytest.raises(ConfigError):
            ModelSpec(ModelKind.FULL_FD, 3, 0.0)

    def test_full_kind_fills_in_mu(self):
        assert FFD.mu == pytest.approx(mu_from_eta(3, 1e-2), rel=1e-15)

    def test_mu_derived_not_settable(self):
        with pytest.raises(TypeError):
            ModelSpec(ModelKind.FULL_FD, 3, 1e-2, mu=mu_from_eta(3, 1e-2))
        assert ModelSpec.full_fd(3, 1e-2).mu == mu_from_eta(3, 1e-2)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec.from_json('{"kind": "xx", "d": 3, "eta": 0.1}')


class TestGeometryConstants:
    def test_sphere_surface_d3(self):
        assert sigma_d(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_sphere_surface_d4(self):
        # 2 pi^2 for the unit 3-sphere
        assert sigma_d(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    def test_mu_eta_relation(self):
        # eta mu^(2/d) = 2 d^(2/d - 1) at every tested pair
        for d in (3, 5, 9):
            for eta in (1e-3, 1e-1, 1.0):
                mu = mu_from_eta(d, eta)
                assert eta * mu ** (2.0 / d) == pytest.approx(
                    2.0 * d ** (2.0 / d - 1.0), rel=1e-12
                )

    def test_mu_frozen_value(self):
        assert mu_from_eta(3, 1e-2) == pytest.approx(1632.9931618554517, rel=1e-14)

    def test_mu_special_points(self):
        # eta = 2 d^(2/d-1) forces mu = 1; quartering it gives mu = 8 at d=3
        assert mu_from_eta(3, 2.0 * 3.0 ** (-1.0 / 3.0)) == pytest.approx(1.0, rel=1e-12)
        assert mu_from_eta(3, 2.0 * 3.0 ** (-1.0 / 3.0) / 4.0) == pytest.approx(
            8.0, rel=1e-12
        )

    def test_mu_homogeneity(self):
        for d in (3, 6):
            assert mu_from_eta(d, 0.05) / mu_from_eta(d, 0.1) == pytest.approx(
                2.0 ** (d / 2.0), rel=1e-12
            )

    def test_mu_rejects_nonpositive_eta(self):
        with pytest.raises((DomainError, ConfigError)):
            mu_from_eta(3, 0.0)


class TestResponse:
    def test_classical_identity(self):
        for z in (0.0, 1e-8, 1.0, 1e6):
            assert R_value(MB3, z) == z

    def test_simplified_closed_form(self):
        # R(z) = z / (1 + eta z^(1-1/d))
        for z in (1e-6, 0.1, 1.0, 100.0, 1e8):
            expected = z / (1.0 + 1e-2 * z ** (2.0 / 3.0))
            assert R_value(SFD, z) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_simplified_defining_identity(self, d):
        # 1/R = 1/z + eta z^(-1/d), the definition the closed form implements
        for eta in (1e-3, 1e-1, 1.0):
            model = ModelSpec.simplified_fd(d, eta)
            for z in (1e-6, 0.3, 1.0, 40.0, 1e8):
                r = R_value(model, z)
                assert 1.0 / r == pytest.approx(1.0 / z + eta * z ** (-1.0 / d), rel=1e-14)

    def test_simplified_half_at_unit_eta(self):
        # (1/1 + 1/1)^(-1) = 1/2, and the gap picks up the other half
        unit = ModelSpec.simplified_fd(3, 1.0)
        assert R_value(unit, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert S_value(unit, 1.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("model", [SFD, FFD], ids=["sfd", "ffd"])
    def test_response_below_identity(self, model):
        for z in np.logspace(-6, 8, 29):
            r = R_value(model, float(z))
            assert 0.0 < r <= z

    @pytest.mark.parametrize("model", [MB3, SFD, FFD], ids=["mb", "sfd", "ffd"])
    def test_strictly_increasing(self, model):
        zs = np.logspace(-4, 6, 41)
        values = [R_value(model, float(z)) for z in zs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_full_kind_classical_limit(self):
        # small eta pushes the full response onto the identity
        weak = ModelSpec.full_fd(3, 1e-4)
        assert R_value(weak, 1.0) == pytest.approx(1.0, rel=1e-2)

    def test_full_kind_gap_controlled_by_majorant(self):
        weak = ModelSpec.full_fd(3, 1e-5)
        C, _ = C_eta_majorant(weak)
        for z in np.logspace(-3, 3, 13):
            z = float(z)
            assert z - R_value(weak, z) <= C * z ** (1.0 + 2.0 / 3.0) * (1 + 1e-9)

    def test_full_kind_from_fermi_composition(self):
        # R(z) = mu (d-2)/4 f_(d/2-2)(f_(d/2-1)^(-1)(2z/mu)) at d=3, by hand
        mu = FFD.mu
        z = 5.0
        v = fermi_f_inverse(0.5, 2.0 * z / mu)
        expected = mu * (3.0 - 2.0) / 4.0 * fermi_f(-0.5, v)
        assert R_value(FFD, z) == pytest.approx(expected, rel=1e-9)

    def test_zero_maps_to_zero(self):
        for model in (MB3, SFD, FFD):
            assert R_value(model, 0.0) == 0.0

    def test_full_kind_identity_where_argument_underflows(self):
        # (2/mu) z rounds to 0.0 this far below the Fermi window, where R(z) = z
        assert R_value(FFD, 5e-324) == 5e-324

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            R_value(SFD, -1.0)

    @pytest.mark.parametrize("model", [MB3, SFD, FFD], ids=["mb", "sfd", "ffd"])
    def test_specialized_closure_agrees(self, model):
        f = response_fn(model)
        for z in (1e-9, 0.37, 12.0, 1e5):
            assert f(z) == pytest.approx(R_value(model, z), rel=1e-12, abs=1e-300)


class TestFullKindProxy:
    @pytest.mark.parametrize("d", range(3, 10))
    def test_one_proxy_per_dimension(self, d):
        strong = models._statistics(ModelSpec.full_fd(d, 1e-2))
        weak = models._statistics(ModelSpec.full_fd(d, 1e-4))
        assert strong.proxy is weak.proxy is cached_ratio_proxy(d)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_response_is_scaled_ratio(self, d):
        model = ModelSpec.full_fd(d, 1e-2)
        proxy = cached_ratio_proxy(d)
        for z in (1e-9, 0.37, 12.0, 1e5, 1e12):
            assert R_value(model, z) == z * min(proxy.ratio(2.0 * z / model.mu), 1.0)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_below_identity_and_strictly_increasing(self, d):
        # the dense grid runs from below the proxy window to past its top at
        # eta = 1e-2; the wide one reaches subnormals, where the shooting
        # fields' unclamped R(z)/z must still not round above 1
        dense = np.logspace(-14.0, 18.0, 20001)
        wide = np.geomspace(5e-324, 1e300, 2001)
        for model in (
            ModelSpec.maxwell_boltzmann(d),
            ModelSpec.simplified_fd(d, 1e-2),
            ModelSpec.simplified_fd(d, 1.0),
            ModelSpec.full_fd(d, 1e-2),
        ):
            f = response_fn(model)
            values = [f(float(z)) for z in dense]
            assert all(b > a for a, b in zip(values, values[1:]))
            for z in map(float, [*dense, *wide]):
                r = f(z)
                assert r <= z and r / z <= 1.0, (model, z, r)

    # mass_of_density (rho = 1, 1e4, 1e7) as the proxy gave it when log_ratio
    # read its Chebyshev panels by Clenshaw, before the Taylor rows
    MASS_PINS = {
        (3, 1e-2): ("0x1.e73c7117274f1p+1", "0x1.a373130ed9cbfp+3", "0x1.8c4a6221417f8p+7"),
        (3, 1e-4): ("0x1.e7372b2d6f0f2p+1", "0x1.7259823614fe7p+4", "0x1.c7f2ae6f55f87p+4"),
        (5, 1e-2): ("0x1.3a5359d67a6d0p+2", "0x1.a427ab0fa71c4p+5", "0x1.a4cc7181e2ba8p+5"),
        (5, 1e-4): ("0x1.3a5352d304d18p+2", "0x1.a430004797cf0p+5", "0x1.a51960fde1b74p+5"),
        (9, 1e-2): ("0x1.93ce204de8cc4p+1", "0x1.daff12e583fc8p+5", "0x1.dafc3c8e2e3bdp+5"),
        (9, 1e-4): ("0x1.93ce204db265ap+1", "0x1.daff11c17e00dp+5", "0x1.dafc3b6fb8c14p+5"),
    }

    @pytest.mark.parametrize("d, eta", sorted(MASS_PINS))
    def test_masses_held_against_the_panel_read(self, d, eta):
        model = ModelSpec.full_fd(d, eta)
        for rho, pin in zip((1.0, 1e4, 1e7), self.MASS_PINS[d, eta]):
            assert mass_of_density(model, rho) == pytest.approx(
                float.fromhex(pin), rel=1e-12, abs=0.0)


class TestGap:
    def test_classical_gap_is_zero(self):
        for z in (0.0, 1.0, 1e8):
            assert S_value(MB3, z) == 0.0

    def test_matches_definition(self):
        for model in (SFD, FFD):
            for z in (0.1, 1.0, 50.0):
                assert S_value(model, z) == pytest.approx(
                    z - R_value(model, z), rel=1e-9
                )

    def test_simplified_gap_no_cancellation(self):
        # the closed form stays relatively accurate where z - R(z) would
        # lose every significant digit to cancellation
        z = 1e-12
        expected = z * 1e-2 * z ** (2.0 / 3.0) / (1.0 + 1e-2 * z ** (2.0 / 3.0))
        assert S_value(SFD, z) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_full_gap_below_proxy_window_is_leading_series_term(self, d):
        # R(z) rounds to z there, so S is the classical series' first term
        # z w 2^(-d/2) / Gamma(d/2); its relative error is O(w)
        model = ModelSpec.full_fd(d, 1e-2)
        w = 1e-14
        z = 0.5 * w * model.mu
        lead = 2.0 ** (-0.5 * d) / math.gamma(0.5 * d)
        assert S_value(model, z) == pytest.approx(z * w * lead, rel=1e-12)

    def test_full_gap_underflow_pin(self):
        assert S_value(FFD, 1e-20) == pytest.approx(4.8860251190e-44, rel=1e-10)
        assert S_value(FFD, 0.0) == 0.0

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_full_gap_series_term_continues_proxy(self, d):
        # at w = 1e-6, well inside the window, z - R from the proxy carries
        # the same leading term (the next one is O(w) relative)
        model = ModelSpec.full_fd(d, 1e-2)
        w = 1e-6
        z = 0.5 * w * model.mu
        lead = 2.0 ** (-0.5 * d) / math.gamma(0.5 * d)
        assert S_value(model, z) == pytest.approx(z * w * lead, rel=1e-5)

    @pytest.mark.parametrize("model", [SFD, FFD], ids=["sfd", "ffd"])
    def test_nonnegative(self, model):
        for z in np.logspace(-8, 8, 33):
            assert S_value(model, float(z)) >= 0.0


class TestPressure:
    def test_classical_ideal_gas(self):
        for rho, theta in [(1.0, 1.0), (3.0, 0.5), (0.1, 7.0)]:
            assert pressure(MB3, rho, theta) == pytest.approx(rho * theta, rel=1e-12)

    def test_simplified_matches_quadrature(self):
        # P(z) = int_0^z t / R(t) dt, compared against direct quadrature
        z = 2.0
        target, _ = quad(lambda t: t / R_value(SFD, t), 0.0, z, epsabs=0, epsrel=1e-12)
        assert pressure(SFD, z, 1.0) == pytest.approx(target, rel=1e-10)

    def test_degeneracy_raises_pressure(self):
        assert pressure(SFD, 1.0, 1.0) > pressure(MB3, 1.0, 1.0)

    def test_full_kind_classical_limit(self):
        weak = ModelSpec.full_fd(3, 1e-4)
        assert pressure(weak, 1.0, 1.0) == pytest.approx(1.0, rel=1e-2)

    def test_scaling_closure(self):
        # p(theta, rho) = theta^(d/2+1) P(rho theta^(-d/2)) by construction:
        # doubling theta at fixed z scales p by 2^(d/2+1)
        d = 3
        z = 0.7
        theta1, theta2 = 1.0, 2.0
        p1 = pressure(SFD, z * theta1 ** (d / 2.0), theta1)
        p2 = pressure(SFD, z * theta2 ** (d / 2.0), theta2)
        assert p2 / p1 == pytest.approx(2.0 ** (d / 2.0 + 1.0), rel=1e-12)

    def test_zero_density(self):
        assert pressure(SFD, 0.0, 1.0) == 0.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            pressure(SFD, 1.0, 0.0)


class TestGapMajorant:
    def test_classical_constant_is_zero(self):
        C, form = C_eta_majorant(MB3)
        assert C == 0.0
        assert form == GAP_MAJORANT_FORM

    def test_majorant_actually_majorizes(self):
        for model in (SFD, FFD):
            C, _ = C_eta_majorant(model)
            for z in np.logspace(-6, 8, 29):
                z = float(z)
                assert S_value(model, z) <= C * z ** (1.0 + 2.0 / model.d) * (1 + 1e-9)

    def test_simplified_constant_at_most_one_up_to_unit_eta(self):
        for eta in (1.0, 0.5, 1e-1, 1e-2):
            C, _ = C_eta_majorant(ModelSpec.simplified_fd(3, eta))
            assert C <= 1.0 + 1e-9

    def test_simplified_tracks_eta(self):
        # C(eta) ~ eta for the algebraic surrogate
        for eta in (1e-1, 1e-2, 1e-3):
            C, _ = C_eta_majorant(ModelSpec.simplified_fd(3, eta))
            assert C == pytest.approx(eta, rel=1e-2)

    def test_full_kind_scaling_identity(self):
        # C_eta = (2/mu)^(2/d) C(d): the response is a pure rescaling of the
        # defect whose peak the dimension constant records
        for eta in (1e-1, 1e-2):
            model = ModelSpec.full_fd(3, eta)
            C, _ = C_eta_majorant(model)
            Cd, _ = bound_constant_C(3)
            assert C <= (2.0 / model.mu) ** (2.0 / 3.0) * Cd * 1.02
            assert C == pytest.approx((2.0 / model.mu) ** (2.0 / 3.0) * Cd, rel=1e-2)

    def test_decreasing_to_zero_along_eta_ladder(self):
        values = [
            C_eta_majorant(ModelSpec.simplified_fd(3, eta))[0]
            for eta in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    @pytest.mark.parametrize("eta", [1.0, 1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("d", range(3, 10))
    @pytest.mark.parametrize("kind", ["sfd", "ffd"])
    def test_least_majorant_on_dense_grid(self, kind, d, eta):
        # the defect z^(-1-2/d) S peaks near z ~ mu (ffd) or eta^(-d/(d-1))
        # (sfd), far outside any fixed z window once eta is small
        model = ModelSpec(kind, d, eta)
        scale = model.mu if model.kind is ModelKind.FULL_FD else eta ** (-d / (d - 1.0))
        C, _ = C_eta_majorant(model)
        ratios = [
            S_value(model, float(z)) / (C * float(z) ** (1.0 + 2.0 / d))
            for z in scale * np.logspace(-3.0, 3.0, 2001)
        ]
        assert max(ratios) <= 1.0 + 1e-9
        assert max(ratios) >= 0.98


class TestFullKindClosedForms:
    """P of the full kind from v = f_(d/2-1)^(-1)(2 z / mu)."""

    @pytest.mark.parametrize("d", range(3, 10))
    def test_match_quadrature_special_functions(self, d):
        # P = (mu/2) f_(d/2)(v) / (d/2)
        model = ModelSpec.full_fd(d, 1e-2)
        for w in (1e-6, 1e-3, 0.5, 20.0, 1e4):
            z = 0.5 * model.mu * w
            v = fermi_f_inverse(d / 2.0 - 1.0, w)
            expected_p = 0.5 * model.mu * fermi_f(d / 2.0, v) / (d / 2.0)
            assert pressure(model, z, 1.0) == pytest.approx(expected_p, rel=1e-10)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_integral_definitions(self, d):
        # P(z) = int_0^z t / R dt
        model = ModelSpec.full_fd(d, 1e-2)
        z = 0.5 * model.mu * 5.0
        p_quad, _ = quad(lambda t: t / R_value(model, t), 0.0, z, epsabs=0, epsrel=1e-11, limit=200)
        assert pressure(model, z, 1.0) == pytest.approx(p_quad, rel=1e-9)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_derivative_identities(self, d):
        # P' = z / R by centred differences, from the classical end of the
        # proxy window to past its degenerate end
        model = ModelSpec.full_fd(d, 1e-2)
        for w in (1e-9, 1e-4, 0.05, 1.0, 30.0, 1e3, 1e6):
            z = 0.5 * model.mu * w
            h = 1e-4 * z
            r = R_value(model, z)
            dp = (pressure(model, z + h, 1.0) - pressure(model, z - h, 1.0)) / (2.0 * h)
            assert dp * r / z == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_classical_below_window(self, d):
        # the ratio is exactly 1 there, so P = z exactly
        model = ModelSpec.full_fd(d, 1e-2)
        for z in (5e-324, 1e-200, 1e-20):
            assert pressure(model, z, 1.0) == z

    def test_probe_has_no_failures(self):
        # every call returns a finite value; R <= z makes P >= z
        for d in (3, 5, 9):
            for eta in (1e-1, 1e-2, 1e-3, 1e-4):
                model = ModelSpec.full_fd(d, eta)
                for z in (1e-6, 1e-4, 1e-3, 1e-2, 0.5, 2.0, 20.0):
                    p = pressure(model, z, 1.0)
                    assert math.isfinite(p) and p >= z * (1.0 - 1e-12)
