"""End-to-end acceptance gate: eight criteria covering the whole library.

Each test prints one ``[criterion N] PASS`` line with its runtime and the
key measured quantity; a failed assertion before the print is the FAIL
signal.  Runtime budgets are asserted where the criterion carries one.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from fermicloud import (
    C_eta_majorant,
    ModelSpec,
    apriori_bound_audit,
    bound_constant_C,
    convergence_study,
    count_solutions,
    fermi_asymptotic,
    fermi_f,
    integrate_trajectory,
    lyapunov_decay_check,
    mass_curve,
    radial_Q_integrate,
    rhs_autonomous,
    sigma_d,
)
from fermicloud.cli import main as cli_main

MB3 = ModelSpec.maxwell_boltzmann(3)


def _report(n: int, elapsed: float, detail: str) -> None:
    print(f"[criterion {n}] PASS ({elapsed:.2f} s): {detail}")


def test_special_function_reference_values():
    # order-zero closed form, one exact constant, and both asymptotic branches
    t0 = time.perf_counter()
    zs = np.linspace(-30.0, 30.0, 200)
    worst = 0.0
    for z in zs:
        exact = math.log1p(math.exp(z)) if z < 30 else z + math.log1p(math.exp(-z))
        worst = max(worst, abs(fermi_f(0.0, float(z)) / exact - 1.0))
    assert worst <= 1e-8

    assert fermi_f(1.0, 0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-8)

    for alpha in (-0.5, 0.5, 1.0):
        for z in (-15.0, -22.0, -30.0):
            ratio = fermi_asymptotic(alpha, z, "classical") / fermi_f(alpha, z)
            assert abs(ratio - 1.0) <= 1e-2
        for z in (40.0, 55.0):
            ratio = fermi_asymptotic(alpha, z, "degenerate") / fermi_f(alpha, z)
            assert abs(ratio - 1.0) <= 5e-2

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, elapsed, f"order-zero worst rel err {worst:.2e}")


def test_fixed_points_and_lyapunov_decay():
    t0 = time.perf_counter()
    for d in range(3, 10):
        assert rhs_autonomous(d, 2.0, 2.0 * (d - 2)) == (0.0, 0.0)

    worst_step, worst_identity = 0.0, 0.0
    for d in (3, 5, 7, 9):
        for rho in (1.0, 100.0):
            traj = integrate_trajectory(ModelSpec.maxwell_boltzmann(d), rho, s_end=10.0)
            rep = lyapunov_decay_check(traj)
            assert rep.passed, (d, rho, rep)
            worst_step = max(worst_step, rep.max_step_increase)
            worst_identity = max(worst_identity, rep.identity_max_rel_err)
    assert worst_step <= 1e-9
    assert worst_identity <= 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, elapsed, f"max step increase {worst_step:.1e}, "
                        f"decay-rate rel err {worst_identity:.1e}")


def test_heteroclinic_approach_to_sink():
    t0 = time.perf_counter()
    end = integrate_trajectory(MB3, 1.0, s_start=-20.0, s_end=30.0).end_state
    dist = math.hypot(end.x - 2.0, end.y - 2.0)
    assert dist <= 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, elapsed, f"distance to sink {dist:.2e} after 50 log-units")


def test_independent_route_agreement():
    # shooting endpoint x(0) against the directly integrated radial mass Q(1)
    t0 = time.perf_counter()
    models = [MB3, ModelSpec.simplified_fd(3, 1e-2), ModelSpec.full_fd(3, 1e-2)]
    worst = 0.0
    for model in models:
        for rho in (0.1, 1.0, 10.0):
            x0 = integrate_trajectory(model, rho).end_state.x
            q1, _ = radial_Q_integrate(model, rho)
            rel = abs(x0 - q1) / max(abs(x0), abs(q1))
            assert rel <= 1e-6, (model.kind.value, rho, rel)
            worst = max(worst, rel)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, elapsed, f"worst route disagreement {worst:.2e} over 3x3 matrix")


def test_mass_curve_multiplicity_and_root_stability():
    t0 = time.perf_counter()
    target = 2.0 * sigma_d(3)

    base = mass_curve(MB3, 1e-2, 1e8, points_per_decade=16)
    assert base.failures == ()
    n_mb, roots_mb = count_solutions(base, target)
    assert n_mb >= 3

    doubled = mass_curve(MB3, 1e-2, 1e8, points_per_decade=32)
    n_dbl, roots_dbl = count_solutions(doubled, target)
    assert n_dbl == n_mb
    drift = max(
        abs(a - b) / a for a, b in zip(roots_mb, roots_dbl)
    )
    assert drift <= 1e-6

    ladder = (1e-2, 1e-3, 1e-4)
    counts = {}
    for eta in ladder:
        curve = mass_curve(ModelSpec.simplified_fd(3, eta), 1e-2, 1e8,
                           points_per_decade=16)
        counts[eta], _ = count_solutions(curve, target)
    # smallest eta whose entire tail of the ladder matches the classical count
    matching = [eta for i, eta in enumerate(ladder)
                if all(counts[e] == n_mb for e in ladder[i:])]
    assert matching, f"no ladder entry reproduces multiplicity {n_mb}: {counts}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, elapsed, f"classical multiplicity {n_mb}, root drift {drift:.1e}, "
                        f"matched from eta={matching[0]:g}")


def test_classical_limit_uniform_convergence():
    t0 = time.perf_counter()
    reports = convergence_study(3, "sfd", 1.0, [1e-2, 1e-3, 1e-4])

    gaps = [r.sup_uniform_gap for r in reports]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-3
    for r in reports:
        assert 3.0 * r.A_eta <= r.B_eta * (1.0 + 1e-6)
    slope = float(np.polyfit(np.log([r.eta for r in reports]),
                             np.log([r.B_eta for r in reports]), 1)[0])
    assert 0.8 <= slope <= 1.2

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, elapsed, f"gap(1e-4)={gaps[-1]:.2e}, B_eta slope {slope:.3f}")


def test_apriori_and_majorant_bounds():
    t0 = time.perf_counter()
    for model in (ModelSpec.simplified_fd(3, 1e-2), ModelSpec.full_fd(3, 1e-2)):
        rep = apriori_bound_audit(model, 1.0, 1.0)
        assert rep.max_relative_violation <= 1e-6, (model.kind.value, rep)

    # algebraic surrogate: the gap majorant never exceeds 1 for eta <= 1
    for eta in (1.0, 0.5, 1e-1, 1e-2):
        C, _ = C_eta_majorant(ModelSpec.simplified_fd(3, eta))
        assert C <= 1.0 + 1e-9

    # full statistics: the majorant obeys the degeneracy-scaled constant
    C3, _ = bound_constant_C(3)
    for eta in (1e-1, 1e-2):
        model = ModelSpec.full_fd(3, eta)
        C, _ = C_eta_majorant(model)
        assert C <= (2.0 / model.mu) ** (2.0 / 3.0) * C3 * 1.02

    ladder_c = [C_eta_majorant(ModelSpec.simplified_fd(3, eta))[0]
                for eta in (1.0, 1e-1, 1e-2, 1e-3)]
    assert all(b < a for a, b in zip(ladder_c, ladder_c[1:]))
    assert ladder_c[-1] <= 2e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, elapsed, f"majorant ladder tail {ladder_c[-1]:.2e}")


def test_cli_mass_curve_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["mass-curve", "--rho-min", "1", "--rho-max", "100",
            "--points-per-decade", "8"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*args, "--out", str(a)]) == 0
    assert cli_main([*args, "--out", str(b)]) == 0
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    assert bytes_a == bytes_b
    assert bytes_a.startswith(b"rho,mass\n")

    elapsed = time.perf_counter() - t0
    _report(8, elapsed, f"{len(bytes_a)} bytes, identical across reruns")
