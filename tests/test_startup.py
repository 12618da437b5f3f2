"""Start-up contract: no solve imports scipy; the midrange quadrature still does.

A classical or simplified solve makes no fit, so it imports no ``numpy.polynomial``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import quad

import fermicloud
from fermicloud import fermi
from fermicloud.fermi import fermi_f

SRC = str(Path(fermicloud.__file__).resolve().parent.parent)

# Every statistics object and C(d) for d = 3..9, then one ffd phase run.
STARTUP_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import fermicloud, fermicloud.cli
from fermicloud import ModelSpec, R_value, bound_constant_C
for d in range(3, 10):
    for model in (ModelSpec.maxwell_boltzmann(d), ModelSpec.simplified_fd(d, 1e-2),
                  ModelSpec.full_fd(d, 1e-2)):
        R_value(model, 1.0)
    bound_constant_C(d)
code = fermicloud.cli.main(["phase", "--kind", "ffd", "--eta", "1e-2", "--rho", "1",
                            "--out", {out!r}])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_solve_imports_scipy(tmp_path):
    # a fresh interpreter: this one imported scipy for the oracles
    out = tmp_path / "phase.csv"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT.format(src=SRC, out=str(out))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, scipy_modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert out.stat().st_size > 0
    assert scipy_modules == []


# The mb and sfd statistics for d = 3..9, then one mb phase run.
NO_FIT_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import fermicloud, fermicloud.cli
from fermicloud import ModelSpec, R_value
for d in range(3, 10):
    R_value(ModelSpec.maxwell_boltzmann(d), 1.0)
    R_value(ModelSpec.simplified_fd(d, 1e-2), 1.0)
code = fermicloud.cli.main(["phase", "--kind", "mb", "--rho", "1", "--out", {out!r}])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy.polynomial" or m.startswith("numpy.polynomial."))]))
"""


def test_classical_and_simplified_solves_import_no_fit(tmp_path):
    out = tmp_path / "phase.csv"
    proc = subprocess.run(
        [sys.executable, "-c", NO_FIT_SCRIPT.format(src=SRC, out=str(out))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, fit_modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert out.stat().st_size > 0
    assert fit_modules == []


@pytest.mark.parametrize("alpha, z", [(1.5, 2.0), (0.5, -5.0)])
def test_midrange_fermi_f_is_the_quadpack_value(alpha, z):
    # the head [0, z + 30] with the edge z as a kink, then the infinite tail,
    # at the package's QUADPACK settings: the same number to the last bit
    def integrand(x):
        return x**alpha * fermi._occupation(x - z)

    split = max(z, 0.0) + 30.0
    kinks = [z] if z > 0.0 else None
    settings = {"epsabs": 1e-300, "epsrel": 1e-10, "limit": 200}
    head, _ = quad(integrand, 0.0, split, points=kinks, **settings)
    tail, _ = quad(integrand, split, math.inf, **settings)
    assert fermi_f(alpha, z) == head + tail
