"""Steady states of self-gravitating particle clouds.

The package computes equilibrium configurations of a gas cloud bound by its
own gravity under a family of particle statistics (classical through fully
degenerate), by integrating a shooting problem from asymptotic data and
reading the cloud mass off the trajectory.  On top of that sit the
mass-density bifurcation curve, solution counting for a prescribed mass,
and numerical audits of the classical-limit convergence bounds.
"""

__version__ = "0.1.0"

from .numerics import (
    NumericsConfig,
    DEFAULT_CONFIG,
    NumericsError,
    DomainError,
    ConfigError,
    QuadratureError,
    BracketError,
    StepLimitError,
    BlowUpError,
    find_root_monotone,
    ode_integrate,
)
from .fermi import (
    bound_constant_C,
    fermi_asymptotic,
    fermi_f,
    fermi_f_inverse,
    zeta_map,
)
from .models import (
    ModelKind,
    ModelSpec,
    C_eta_majorant,
    R_value,
    S_value,
    mu_from_eta,
    pressure,
    response_fn,
    sigma_d,
)
from .dynamics import (
    State,
    Trajectory,
    LyapunovReport,
    comparison_grid,
    density_profile,
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
from .bifurcation import (
    AprioriBoundReport,
    ConvergenceReport,
    DifferenceResidualReport,
    MassCurve,
    apriori_bound_audit,
    convergence_study,
    count_solutions,
    difference_residual_audit,
    mass_curve,
    mass_of_density,
)

__all__ = [
    "__version__",
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "NumericsError",
    "DomainError",
    "ConfigError",
    "QuadratureError",
    "BracketError",
    "StepLimitError",
    "BlowUpError",
    "find_root_monotone",
    "ode_integrate",
    "bound_constant_C",
    "fermi_asymptotic",
    "fermi_f",
    "fermi_f_inverse",
    "zeta_map",
    "ModelKind",
    "ModelSpec",
    "C_eta_majorant",
    "R_value",
    "S_value",
    "mu_from_eta",
    "pressure",
    "response_fn",
    "sigma_d",
    "State",
    "Trajectory",
    "LyapunovReport",
    "comparison_grid",
    "density_profile",
    "from_radial",
    "initial_state",
    "integrate_trajectory",
    "lyapunov",
    "lyapunov_decay_check",
    "radial_Q_integrate",
    "rhs_autonomous",
    "rhs_nonautonomous",
    "to_radial",
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
