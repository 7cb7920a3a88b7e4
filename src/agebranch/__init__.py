"""Exact simulation and deterministic solvers for age-structured branching processes.

Populations are finite multisets of particle ages; each particle ages at unit
speed, dies at an age-dependent rate, and is replaced by a random number of
age-zero offspring, optionally alongside Poisson arrivals of immigrant groups.
The package provides an exact event-driven simulator, solvers for the Laplace
exponent and first-moment kernel of the transition law, an ergodicity decision
for the immigration model with its stationary Laplace functional, and
a Monte-Carlo validation layer comparing the two routes.
"""

from .measures import AgeMeasure, ScalarField
from .models import (
    BranchingModel,
    GroupSizeLaw,
    ImmigrationMechanism,
    OffspringLaw,
    OffspringPmf,
)
from .simulate import Event, SimConfig, Trajectory, replicate_rng, simulate
from .solvers import (
    ErgodicityReport,
    ExponentSolution,
    MeanSolution,
    SolverGrid,
    StationaryReport,
    ergodicity_check,
    exponential_tail_identity,
    immigration_exponent_integral,
    mean_with_immigration,
    solve_exponent,
    solve_mean,
    stationary_laplace,
    survival_lower_bound,
)
from .validate import (
    ComparisonReport,
    McEstimate,
    bound_suite,
    compare_laplace,
    compare_mean,
    control_report,
    ergodic_convergence,
    estimate_extinction,
    estimate_laplace,
    estimate_mean,
    laplace_analytic,
    martingale_residual,
    solver_bound_checks,
)

__version__ = "0.1.0"
