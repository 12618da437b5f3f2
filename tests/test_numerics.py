"""Contract tests for the shared numerics layer."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fermicloud import ModelSpec, dynamics, numerics
from fermicloud.numerics import (
    DEFAULT_CONFIG,
    BlowUpError,
    BracketError,
    ConfigError,
    DomainError,
    NumericsConfig,
    NumericsError,
    QuadratureError,
    StepLimitError,
    find_root_monotone,
    integrate_semi_infinite,
    ode_integrate,
)


# Planar decay: u = (e^{-t}, e^{-2t}) from (1, 1) at t = 0.
DECAY = lambda t, u: [-u[0], -2.0 * u[1]]

# An oscillator and an exponential decay over an interval across t = 0.
CLOSED_FORM_CASES = pytest.mark.parametrize(
    "field,t0,u0,t1",
    [
        (lambda t, u: [u[1], -u[0]], 0.0, [1.0, 0.0], 20.0),
        (DECAY, -2.0, [1.0, 1.0], 3.0),
    ],
    ids=["oscillator", "decay"],
)


class TestNumericsConfig:
    def test_defaults_are_valid(self):
        cfg = NumericsConfig()
        assert cfg.ode_rel_tol == 1e-10
        assert cfg.max_steps == 10**6

    @pytest.mark.parametrize(
        "field,value",
        [
            ("root_tol", -1e-9),
            ("ode_rel_tol", float("nan")),
            ("ode_abs_tol", -1.0),
            ("max_steps", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            NumericsConfig(**{field: value})


class TestSemiInfiniteQuadrature:
    @pytest.mark.parametrize(
        "f,split,expected",
        [
            (lambda x: math.exp(-x), 0.0, 1.0),
            (lambda x: math.exp(-x * x), 0.0, math.sqrt(math.pi) / 2.0),
            (lambda x: x * math.exp(-x), 5.0, 1.0),
            (lambda x: x**2 * math.exp(-x), 30.0, 2.0),
        ],
    )
    def test_known_integrals(self, f, split, expected):
        value, err = integrate_semi_infinite(f, split)
        assert value == pytest.approx(expected, rel=1e-10)
        assert err <= max(1e-8, 1e-8 * abs(value))

    def test_interior_kink_points_help(self):
        # int_0^inf |x-1| e^{-x} dx = 2/e, kink at x = 1
        f = lambda x: abs(x - 1.0) * math.exp(-x)
        value, _ = integrate_semi_infinite(f, 10.0, points=[1.0])
        assert value == pytest.approx(2.0 / math.e, rel=1e-9)

    def test_rejects_negative_split(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: math.exp(-x), -1.0)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises((DomainError, QuadratureError)):
            integrate_semi_infinite(lambda x: float("nan"), 1.0)


class TestMonotoneRootFinder:
    def test_cubic_root(self):
        assert find_root_monotone(lambda x: x**3 - 8.0, 0.0, 10.0) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_expands_non_bracketing_interval(self):
        # root at x = 5 lies outside the initial interval
        root = find_root_monotone(lambda x: x - 5.0, 0.0, 1.0)
        assert root == pytest.approx(5.0, abs=1e-10)

    def test_decreasing_function(self):
        root = find_root_monotone(lambda x: math.exp(-x) - 0.5, 0.0, 10.0)
        assert root == pytest.approx(math.log(2.0), rel=1e-10)

    def test_no_root_raises(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: 1.0 + x * 0.0, 0.0, 1.0)

    def test_bracket_ends_evaluated_once(self):
        # Brent reuses the end values: no point is evaluated twice, and the
        # root is Brent's own, bit for bit
        seen = []

        def g(x):
            seen.append(x)
            return x**3 - 8.0

        root = find_root_monotone(g, 0, 10)
        assert seen[:2] == [0, 10]
        assert len(seen) == len(set(seen))
        tol = DEFAULT_CONFIG.root_tol
        assert root == brentq(lambda x: x**3 - 8.0, 0.0, 10.0, xtol=tol, rtol=tol)


# (f, a, b): smooth, steep, reversed and end-point cases, a flat step (which
# only ever bisects), a plateau, and tiny slopes whose product underflows to
# 0 in the extrapolation step (a division by zero that C takes as inf).
BRENT_CASES = {
    "cubic": (lambda x: x**3 - 8.0, 0.0, 10.0),
    "exp": (lambda x: math.exp(x) - 5.0, -3.0, 7.0),
    "reversed": (lambda x: math.tanh(x - 0.25), 3.0, -2.0),
    "root-at-end": (lambda x: x - 1.0, 1.0, 4.0),
    "huge": (lambda x: 1e300 * (x - 0.2), 0.0, 1.0),
    "flat-step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
    "plateau": (lambda x: min(max(x - 0.3, -1e-3), 0.5), -1.0, 2.0),
    "zero-division": (lambda x: 1e-200 * (x**3 - 0.1), 0.0, 1.0),
    "zero-division-exp": (lambda x: 1e-160 * math.expm1(x - 0.7), 0.0, 3.0),
}


class TestBrentPort:
    """``numerics._brentq`` is scipy's ``brentq``: same calls, same root."""

    @pytest.mark.parametrize("tols", [(2e-12, 4 * np.finfo(float).eps), (1e-12, 1e-12),
                                      (1e-3, 1e-6)], ids=["default", "root_tol", "loose"])
    @pytest.mark.parametrize("name", sorted(BRENT_CASES))
    def test_same_calls_and_root_as_scipy(self, name, tols):
        f, a, b = BRENT_CASES[name]
        xtol, rtol = tols
        ours, theirs = [], []
        root = numerics._brentq(lambda x: ours.append(x) or f(x), a, b, xtol, rtol)
        expected = brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol, rtol=rtol)
        assert root == expected
        assert ours == theirs

    def test_same_on_random_power_laws(self):
        # odd powers (x-c)|x-c|^(k-1), k = 1..9, at scales 1e-300 .. 1e300;
        # the flattest ones exhaust the iteration budget on both sides
        rng = np.random.default_rng(28)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            c, scale = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-300.0, 300.0)
            f = lambda x: scale * (x - c) * abs(x - c) ** (k - 1)
            a, b = rng.uniform(-3.0, c), rng.uniform(c, 3.0)
            ours, theirs = [], []
            try:
                root = numerics._brentq(lambda x: ours.append(x) or f(x), a, b, 1e-12, 1e-12)
            except NumericsError:
                root = "no convergence"
            try:
                expected = brentq(lambda x: theirs.append(x) or f(x), a, b,
                                  xtol=1e-12, rtol=1e-12)
            except RuntimeError:
                expected = "no convergence"
            assert (root, ours) == (expected, theirs)

    def test_failures_are_typed(self):
        with pytest.raises(BracketError):
            numerics._brentq(lambda x: x + 2.0, 0.0, 1.0, 1e-12, 1e-12)
        with pytest.raises(DomainError):
            numerics._brentq(lambda x: math.nan if x > 0.3 else -1.0, 0.0, 1.0, 1e-12, 1e-12)
        # x^9 near its root is flatter than the iteration budget resolves
        with pytest.raises(NumericsError):
            numerics._brentq(lambda x: (x - 0.4) ** 9, 0.0, 1.0, 2e-12, 4 * np.finfo(float).eps)


class TestOdeIntegrate:
    def test_exponential_decay(self):
        path = ode_integrate(DECAY, 0.0, [1.0, 1.0], 5.0)
        assert path.end_state[0] == pytest.approx(math.exp(-5.0), rel=1e-8)

    def test_dense_output_matches_closed_form(self):
        path = ode_integrate(DECAY, 0.0, [1.0, 1.0], 5.0)
        ts = np.linspace(0.0, 5.0, 37)
        states = path(ts)  # shape (dim, n)
        assert np.allclose(states[0], np.exp(-ts), rtol=1e-8, atol=0)

    def test_oscillator_energy_conserved(self):
        field = lambda t, u: [u[1], -u[0]]
        path = ode_integrate(field, 0.0, [1.0, 0.0], 20.0)
        x, v = path.end_state
        assert x**2 + v**2 == pytest.approx(1.0, rel=1e-7)

    def test_dense_output_rejects_exterior_query(self):
        path = ode_integrate(DECAY, 0.0, [1.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            path([2.0])

    def test_step_budget_exhaustion(self):
        cfg = NumericsConfig(max_steps=3)
        with pytest.raises(StepLimitError):
            ode_integrate(
                lambda t, u: [math.sin(50.0 * t) * u[0], u[0]], 0.0, [1.0, 0.0], 50.0, cfg
            )

    def test_step_budget_counts_accepted_steps(self):
        # a budget of exactly the accepted steps suffices; one fewer does not
        path = ode_integrate(DECAY, 0.0, [1.0, 1.0], 5.0)
        budget = lambda n: NumericsConfig(max_steps=n)
        tight = ode_integrate(DECAY, 0.0, [1.0, 1.0], 5.0, budget(path.n_accepted))
        assert tight.ts.tolist() == path.ts.tolist()
        assert tight.states.tolist() == path.states.tolist()
        with pytest.raises(StepLimitError):
            ode_integrate(DECAY, 0.0, [1.0, 1.0], 5.0, budget(path.n_accepted - 1))

    def test_blow_up_detected(self):
        # u' = u^2 from u(0)=1 blows up at t=1
        with pytest.raises(BlowUpError) as exc:
            ode_integrate(lambda t, u: [u[0] ** 2, 0.0], 0.0, [1.0, 0.0], 2.0)
        assert exc.value.t < 1.0

    @pytest.mark.parametrize("u0", [[1.0, 2e300]], ids=["starts-huge"])
    def test_entry_checks(self, u0):
        with pytest.raises(DomainError):
            ode_integrate(DECAY, 0.0, u0, 1.0)

    def test_equal_endpoints_rejected(self):
        # the stepper integrates forward only: t1 must exceed t0
        for t0, t1 in [(1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(DomainError):
                ode_integrate(lambda t, u: [0.0, 0.0], t0, [1.0, 0.0], t1)

    @pytest.mark.parametrize("u0", [[1.0], [1.0, 0.0, 0.0]], ids=["one", "three"])
    def test_non_planar_state_rejected(self, u0):
        with pytest.raises(DomainError):
            ode_integrate(lambda t, u: [-v for v in u], 0.0, u0, 1.0)

    def test_per_component_abs_tol(self):
        # second component stays near 1e-12; per-component atol keeps it resolved
        field = lambda t, u: [-u[0], -u[1]]
        path = ode_integrate(field, 0.0, [1.0, 1e-12], 3.0, abs_tol=np.array([1e-14, 1e-26]))
        assert path.end_state[1] == pytest.approx(1e-12 * math.exp(-3.0), rel=1e-6)

    @CLOSED_FORM_CASES
    def test_scalar_read_matches_array_read(self, field, t0, u0, t1):
        # a float is read with plain floats, an array with numpy: same bits
        path = ode_integrate(field, t0, u0, t1)
        ts = np.concatenate([path.ts, np.linspace(t0, t1, 401)])
        arrays = path(ts)
        for k, t in enumerate(ts.tolist()):
            assert path(t) == (arrays[0, k], arrays[1, k])

    @CLOSED_FORM_CASES
    def test_counters(self, field, t0, u0, t1):
        path = ode_integrate(field, t0, u0, t1)
        # one initial slope, one initial-step probe, six evaluations per attempt
        assert path.nfev == 2 + 6 * (path.n_accepted + path.n_rejected)
        assert path.n_accepted == len(path.ts) - 1


def _first_solve(run, monkeypatch):
    """The field, arguments and path of the first ODE solve that ``run`` makes."""
    calls = []

    def recording(field, *args, **kwargs):
        path = ode_integrate(field, *args, **kwargs)
        calls.append((field, args, kwargs, path))
        return path

    monkeypatch.setattr(dynamics, "ode_integrate", recording)
    run()
    (field, (t0, u0, t1, cfg), kwargs, path) = calls[0]
    return field, t0, u0, t1, cfg.ode_rel_tol, kwargs["abs_tol"], path


class TestOdeIntegrateMatchesScipyRK45:
    """The stepper takes scipy's RK45 steps and reproduces its dense output."""

    @staticmethod
    def _compare(path, field, t0, u0, t1, rtol, atol):
        ref = solve_ivp(
            field, (t0, t1), u0, method="RK45", rtol=rtol, atol=atol, dense_output=True
        )
        assert ref.status == 0
        assert path.n_accepted == len(ref.t) - 1
        assert path.nfev == ref.nfev
        assert np.allclose(path.end_state, ref.y[:, -1], rtol=1e-12, atol=0.0)
        inner = np.linspace(t0, t1, 52)[1:-1]
        assert np.allclose(path(inner), ref.sol(inner), rtol=1e-12, atol=0.0)

    @CLOSED_FORM_CASES
    def test_closed_form_fields(self, field, t0, u0, t1):
        path = ode_integrate(field, t0, u0, t1)
        cfg = DEFAULT_CONFIG
        self._compare(path, field, t0, u0, t1, cfg.ode_rel_tol, cfg.ode_abs_tol)

    @pytest.mark.parametrize("rho", [1e-2, 1e4])
    def test_mb_scaled_field(self, rho, monkeypatch):
        run = lambda: dynamics.integrate_trajectory(ModelSpec.maxwell_boltzmann(3), rho)
        field, t0, u0, t1, rtol, atol, path = _first_solve(run, monkeypatch)
        self._compare(path, field, t0, u0, t1, rtol, atol)

    def test_radial_field(self, monkeypatch):
        run = lambda: dynamics.radial_Q_integrate(ModelSpec.simplified_fd(9, 1e-2), 2.0)
        field, t0, u0, t1, rtol, atol, path = _first_solve(run, monkeypatch)
        self._compare(path, field, t0, u0, t1, rtol, atol)
