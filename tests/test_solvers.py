import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from agebranch import (
    AgeMeasure,
    BranchingModel,
    GroupSizeLaw,
    ImmigrationMechanism,
    OffspringLaw,
    OffspringPmf,
    ScalarField,
    SolverGrid,
    ergodicity_check,
    exponential_tail_identity,
    immigration_exponent_integral,
    mean_with_immigration,
    solve_exponent,
    solve_mean,
    solver_bound_checks,
    stationary_laplace,
    survival_lower_bound,
)
from agebranch import cli, solvers, validate
from oracles import (
    benchmark_models,
    boundary_at,
    fan_exponent,
    fan_mean,
    immigration_integral_per_node,
    lattice_bound_margins,
    lattice_rows,
    march_exponent,
    march_mean,
    observed_orders,
    renewal_exponent_boundary,
    renewal_rounding_bounds,
    row_loop_margins,
    scalar_exponent_at,
    scalar_mean_at,
)

ONE = ScalarField.constant(1.0)
CRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
PURE_DEATH = BranchingModel(ONE, OffspringLaw.table({0: 1.0}))
SUBCRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))
AGE_VARYING = BranchingModel(
    ScalarField.step([1.5], [2.0, 0.5]),
    OffspringLaw((OffspringPmf.table({0: 0.3, 2: 0.7}), OffspringPmf.table({0: 0.8, 2: 0.2})), (1.5,)),
)


def critical_exponent_closed_form(theta: float, t: float) -> float:
    # constant data reduce the renewal equation to w' = (1 - w)^2 / 2
    a = 1.0 - math.exp(-theta)
    return -math.log(1.0 - a / (1.0 + t * a / 2.0))


def pure_death_exponent_closed_form(theta: float, t: float) -> float:
    # w' = 1 - w from the same reduction with g == 1
    return -math.log(1.0 - (1.0 - math.exp(-theta)) * math.exp(-t))


def test_closed_form_rederived_by_high_accuracy_integration():
    w0 = math.exp(-1.0)
    ode = solve_ivp(
        lambda s, w: 0.5 * (1.0 - w[0]) ** 2, (0.0, 1.0), [w0], rtol=1e-12, atol=1e-14
    )
    assert math.exp(-critical_exponent_closed_form(1.0, 1.0)) == pytest.approx(
        float(ode.y[0, -1]), abs=1e-10
    )
    ode2 = solve_ivp(lambda s, w: 1.0 - w[0], (0.0, 2.0), [w0], rtol=1e-12, atol=1e-14)
    assert math.exp(-pure_death_exponent_closed_form(1.0, 2.0)) == pytest.approx(
        float(ode2.y[0, -1]), abs=1e-10
    )


def test_grid_validation():
    with pytest.raises(ValueError, match="horizon 1 is not a whole number of steps of dt 0.3"):
        SolverGrid(0.3, 1.0)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        SolverGrid(1e-2, 1e308)  # 1e310 steps: past the float range, not a count
    with pytest.raises(ValueError):
        SolverGrid(1e-3, 1.0, "simpson")
    grid = SolverGrid(0.25, 1.0)
    assert grid.n_steps == 4
    assert list(grid.times()) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert SolverGrid(1.0, float(solvers._MAX_STEPS)).n_steps == solvers._MAX_STEPS
    with pytest.raises(ValueError, match=f"50000000 steps of dt 0.002 pass the cap of {solvers._MAX_STEPS} steps"):
        SolverGrid(2e-3, 1e5)


def test_coarse_grid_has_twice_the_step_to_the_same_horizon():
    for quadrature in ("trapezoid", "rectangle"):
        grid = SolverGrid(1e-2, 1.0, quadrature)
        coarse = grid.coarse()
        assert coarse == SolverGrid(2e-2, 1.0, quadrature) and coarse.n_steps == 50
        assert coarse.times().tobytes() == grid.times()[::2].tobytes()
    with pytest.raises(ValueError, match=r"horizon 1.01 is an odd number of steps \(101\) of dt 0.01"):
        SolverGrid(1e-2, 1.01).coarse()


def test_grid_weights_are_the_quadrature_rule():
    assert list(SolverGrid(0.25, 1.0).weights()) == [0.125, 0.25, 0.25, 0.25, 0.125]
    assert list(SolverGrid(0.25, 1.0, "rectangle").weights()) == [0.25, 0.25, 0.25, 0.25, 0.0]


def _trapezoid_of_exp(grid):
    return float(np.dot(grid.weights(), np.exp(grid.times())))


def test_refine_returns_the_finer_grid_once_the_estimate_is_within_tol():
    seen = []
    value, estimate, grid = SolverGrid(0.25, 1.0).refine(
        lambda g: seen.append(g.dt) or _trapezoid_of_exp(g), 1e-2
    )
    assert seen == [0.25, 0.125] and grid == SolverGrid(0.125, 1.0)
    assert value == _trapezoid_of_exp(grid)
    assert estimate == abs(value - _trapezoid_of_exp(SolverGrid(0.25, 1.0))) / 3.0 <= 1e-2
    assert value - (math.e - 1.0) == pytest.approx((math.e - 1.0) / 768, rel=1e-2)  # h^2 (e - 1) / 12 at h = 1/8


def test_refine_refuses_at_the_cap_naming_the_estimate():
    # the estimate is |dt - 2 dt| / 3: never within 0, so the halving runs to the cap
    seen = []
    with pytest.raises(RuntimeError, match=rf"estimate is 1.27e-06 at {solvers._MAX_STEPS} steps and the next "
                                           rf"halving would pass the cap of {solvers._MAX_STEPS} steps"):
        SolverGrid(2.0**-14, 1.0).refine(lambda g: seen.append(g.n_steps) or g.dt, 0.0)
    assert seen == [2**14, 2**15, 2**16, 2**17, solvers._MAX_STEPS]


def test_refine_never_certifies_a_nan():
    # a NaN estimate passes no tolerance, not even an infinite one: it halves to the cap and refuses
    seen = []
    with pytest.raises(RuntimeError, match=f"estimate is nan at {solvers._MAX_STEPS} steps"):
        SolverGrid(2.0**-16, 1.0).refine(lambda g: seen.append(g.n_steps) or math.nan, math.inf)
    assert max(seen) == solvers._MAX_STEPS


def test_contraction_precondition():
    fast = BranchingModel(ScalarField.constant(30.0), OffspringLaw.table({0: 1.0}))
    with pytest.raises(ValueError, match="smaller dt"):
        solve_exponent(fast, ONE, SolverGrid(0.05, 1.0))


def test_exponent_zero_field_is_fixed_point():
    sol = solve_exponent(CRITICAL, ScalarField.constant(0.0), SolverGrid(1e-2, 1.0))
    assert np.all(sol.boundary == 0.0)
    assert sol.at(0.7, 1.3) == 0.0


def test_exponent_initial_condition_exact():
    f = ScalarField.exp_decay(1.0, 0.7, 0.2)
    sol = solve_exponent(AGE_VARYING, f, SolverGrid(1e-2, 1.0))
    assert sol.boundary[0] == pytest.approx(float(f(0.0)), abs=1e-14)
    assert sol.at(0.0, 2.3) == float(f(2.3))


def test_exponent_critical_binary_closed_form():
    sol = solve_exponent(CRITICAL, ONE, SolverGrid(1e-3, 1.0))
    exact = critical_exponent_closed_form(1.0, 1.0)
    assert exact == pytest.approx(0.6545281299218776, abs=1e-12)  # frozen
    assert boundary_at(sol, 1.0) == pytest.approx(exact, abs=2e-8)
    # constant data make the exponent age-independent
    assert sol.at(1.0, 2.5) == pytest.approx(exact, abs=2e-8)
    mid = critical_exponent_closed_form(1.0, 0.5)
    assert boundary_at(sol, 0.5) == pytest.approx(mid, abs=2e-8)


def test_exponent_pure_death_closed_form():
    theta = 0.8
    f = ScalarField.constant(theta)
    sol = solve_exponent(PURE_DEATH, f, SolverGrid(1e-3, 2.0))
    for t in (0.5, 1.0, 2.0):
        assert boundary_at(sol, t) == pytest.approx(
            pure_death_exponent_closed_form(theta, t), abs=1e-7
        )


def test_convergence_orders_exponent():
    exact = critical_exponent_closed_form(1.0, 1.0)
    trap = observed_orders(CRITICAL, ONE, 1.0, exact, [4e-3, 2e-3, 1e-3], "trapezoid")
    rect = observed_orders(CRITICAL, ONE, 1.0, exact, [4e-3, 2e-3, 1e-3], "rectangle")
    assert all(abs(o - 2.0) <= 0.3 for o in trap)
    assert all(abs(o - 1.0) <= 0.3 for o in rect)


def test_convergence_orders_mean():
    exact = math.exp(-0.2)
    trap = observed_orders(SUBCRITICAL, ONE, 1.0, exact, [4e-3, 2e-3, 1e-3], "trapezoid", "mean")
    rect = observed_orders(SUBCRITICAL, ONE, 1.0, exact, [4e-3, 2e-3, 1e-3], "rectangle", "mean")
    assert all(abs(o - 2.0) <= 0.3 for o in trap)
    assert all(abs(o - 1.0) <= 0.3 for o in rect)


def test_mean_pure_death_is_pure_discount():
    sol = solve_mean(PURE_DEATH, ONE, SolverGrid(1e-3, 1.0))
    assert boundary_at(sol, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert sol.at(1.0, 4.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_mean_zero_field():
    sol = solve_mean(SUBCRITICAL, ScalarField.constant(0.0), SolverGrid(1e-2, 1.0))
    assert np.all(sol.boundary == 0.0)


def test_mean_subcritical_closed_form():
    sol = solve_mean(SUBCRITICAL, ONE, SolverGrid(1e-3, 2.0))
    for t in (0.5, 1.0, 2.0):
        assert boundary_at(sol, t) == pytest.approx(math.exp(-0.2 * t), abs=1e-7)
    assert sol.at(2.0, 1.0) == pytest.approx(math.exp(-0.4), abs=1e-7)
    assert math.exp(-0.4) == pytest.approx(0.6703200460356393, abs=1e-12)  # frozen


def test_mean_forms_agree():
    smooth = BranchingModel(ScalarField.exp_decay(1.0, 0.8, 0.4), OffspringLaw.geometric(0.35))
    for model in (SUBCRITICAL, AGE_VARYING, smooth):
        grid = SolverGrid(1e-3, 1.0)
        a = solve_mean(model, ONE, grid)
        b = fan_mean(model, ONE, grid, form="direct")
        assert np.max(np.abs(a.boundary - b)) < 5e-6


def test_mean_pure_death_varying_hazard_closed_form():
    # the kernel must reduce to the pure survival discount along the exact ray
    alpha = ScalarField.exp_decay(1.0, 0.8, 0.4)
    model = BranchingModel(alpha, OffspringLaw.table({0: 1.0}))
    hazard, _ = quad(lambda s: float(alpha(s)), 0.0, 1.0, epsabs=1e-13)
    grid = SolverGrid(1e-3, 1.0)
    for boundary in (solve_mean(model, ONE, grid).boundary, fan_mean(model, ONE, grid, form="direct")):
        assert boundary[-1] == pytest.approx(math.exp(-hazard), abs=1e-6)


def test_exponent_forms_agree():
    # characteristic fan vs the survival-discounted renewal discretization
    for model in (CRITICAL, AGE_VARYING):
        grid = SolverGrid(2e-3, 1.0)
        fan = solve_exponent(model, ONE, grid).boundary
        ren = renewal_exponent_boundary(model, ONE, grid)
        assert np.max(np.abs(fan - ren)) < 5e-6


def test_exponent_semigroup_property():
    # u_{t+s} f == u_t (u_s f) within scheme tolerance, via a table field
    s_, t_ = 0.5, 0.75
    grid = SolverGrid(2.5e-3, 1.5)
    sol = solve_exponent(AGE_VARYING, ONE, grid)
    xs = np.linspace(0.0, 4.0, 801)
    inner = ScalarField.pwlinear(xs, sol.rays(xs)[:, round(s_ / grid.dt)])
    outer = solve_exponent(AGE_VARYING, inner, grid)
    for x in (0.0, 0.4, 1.1, 2.0):
        assert outer.at(t_, x) == pytest.approx(sol.at(t_ + s_, x), abs=2e-3)


def test_exponent_monotone_in_field():
    f1 = ScalarField.constant(0.5)
    f2 = ScalarField.constant(1.0)
    grid = SolverGrid(2e-3, 1.0)
    u1 = solve_exponent(AGE_VARYING, f1, grid)
    u2 = solve_exponent(AGE_VARYING, f2, grid)
    assert np.all(u1.boundary <= u2.boundary + 1e-10)
    nodes = 0
    for (i, l1), (_, l2) in zip(lattice_rows(u1), lattice_rows(u2)):
        assert np.all(l1 <= l2 + 1e-10)
        nodes += len(l1)
    assert nodes == (grid.n_steps + 1) * (grid.n_steps + 2) // 2  # every lattice node


def test_exponent_bounds_on_lattice():
    # single-particle survival lower bound and domination by the mean kernel
    grid = SolverGrid(2e-3, 1.0)
    c0, c1, _ = AGE_VARYING.constants()
    usol = solve_exponent(AGE_VARYING, ONE, grid)
    msol = solve_mean(AGE_VARYING, ONE, grid)
    times = grid.times()
    fv = np.asarray(ONE(times))
    nodes = 0
    for (i, urow), (_, prow) in zip(lattice_rows(usol), lattice_rows(msol)):
        lower = -np.expm1(-fv[i:]) * math.exp(-c1 * times[i])
        assert np.all(urow >= lower - 1e-6)
        assert np.all(urow <= prow + 1e-5)
        assert np.all(np.exp(-urow) <= 1.0 + 1e-12)
        assert np.all(np.exp(-urow) > 0.0)
        nodes += len(urow)
    assert nodes == (grid.n_steps + 1) * (grid.n_steps + 2) // 2


def test_survival_lower_bound_values():
    assert survival_lower_bound(CRITICAL, ScalarField.constant(0.0), 1.0, 0.0) == 0.0
    assert survival_lower_bound(CRITICAL, ONE, 1.0, 3.0) == pytest.approx(
        0.23254415793482963, abs=1e-12
    )
    # large theta approaches the pure survival discount exp(-t)
    big = survival_lower_bound(CRITICAL, ScalarField.constant(40.0), 1.0, 0.0)
    assert big == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_survival_lower_bound_nonconstant_alpha_quadrature():
    alpha = ScalarField.exp_decay(1.0, 1.0, 0.5)
    model = BranchingModel(alpha, OffspringLaw.table({0: 1.0}))
    x, t = 0.7, 1.3
    hazard, _ = quad(lambda s: float(alpha(x + s)), 0.0, t, epsabs=1e-13)
    expected = (1 - math.exp(-1.0)) * math.exp(-hazard)
    assert survival_lower_bound(model, ONE, t, x, dt=1e-4) == pytest.approx(expected, abs=1e-7)


def test_immigration_exponent_integral_trivial_cases():
    grid = SolverGrid(1e-2, 1.0)
    none = ImmigrationMechanism.none()
    val, psis = immigration_exponent_integral(PURE_DEATH, none, ONE, grid)
    assert val == 0.0 and np.all(psis == 0.0)
    singles = ImmigrationMechanism.single_arrivals(2.0)
    val0, _ = immigration_exponent_integral(PURE_DEATH, singles, ScalarField.constant(0.0), grid)
    assert val0 == pytest.approx(0.0, abs=1e-14)


def test_immigration_exponent_integral_closed_form():
    # pure death singles: psi(u_s f) = rate (1 - e^-theta) e^-s
    theta, T, rate = 1.0, 2.0, 1.0
    imm = ImmigrationMechanism.single_arrivals(rate)
    grid = SolverGrid(1e-3, T)
    val, psis = immigration_exponent_integral(PURE_DEATH, imm, ScalarField.constant(theta), grid)
    exact = rate * (1 - math.exp(-theta)) * (1 - math.exp(-T))
    assert val == pytest.approx(exact, abs=1e-6)
    oracle, _ = quad(
        lambda s: rate * (1 - math.exp(-pure_death_exponent_closed_form(theta, s))), 0, T,
        epsabs=1e-12,
    )
    assert val == pytest.approx(oracle, abs=1e-6)


def test_immigration_integral_with_aged_atoms():
    # groups arriving at age 2: the exponent is evaluated along the age-2 ray
    imm = ImmigrationMechanism.finite_support([(1.5, AgeMeasure.point(2.0))])
    grid = SolverGrid(1e-3, 1.0)
    val, _ = immigration_exponent_integral(PURE_DEATH, imm, ONE, grid)
    oracle, _ = quad(
        lambda s: 1.5 * (1 - math.exp(-pure_death_exponent_closed_form(1.0, s))), 0.0, 1.0,
        epsabs=1e-12,
    )
    # constant-alpha pure death exponent is age-independent
    assert val == pytest.approx(oracle, abs=1e-6)


def test_mean_with_immigration_queue_formula():
    # infinite-server queue: E mass at T = rate * (1 - e^-T)
    imm = ImmigrationMechanism.single_arrivals(3.0)
    grid = SolverGrid(1e-3, 2.0)
    val = mean_with_immigration(PURE_DEATH, imm, ONE, AgeMeasure.empty(), grid)
    assert val == pytest.approx(3.0 * (1 - math.exp(-2.0)), abs=1e-6)
    # with initial particles the branching part adds m0 e^-T
    val2 = mean_with_immigration(PURE_DEATH, imm, ONE, AgeMeasure.point(0.0, 4), grid)
    assert val2 == pytest.approx(3.0 * (1 - math.exp(-2.0)) + 4 * math.exp(-2.0), abs=1e-6)


def test_mean_with_immigration_subcritical_long_run():
    imm = ImmigrationMechanism.single_arrivals(1.0)
    grid = SolverGrid(5e-3, 50.0)
    val = mean_with_immigration(SUBCRITICAL, imm, ONE, AgeMeasure.empty(), grid)
    assert val == pytest.approx((1.0 - math.exp(-0.2 * 50.0)) / 0.2, abs=1e-4)
    # one initial particle to t = 2 adds its own decay, e^-0.4
    val = mean_with_immigration(SUBCRITICAL, imm, ONE, AgeMeasure.point(0.0), SolverGrid(0.02, 2.0))
    assert val == pytest.approx(math.exp(-0.4) + (1.0 - math.exp(-0.4)) / 0.2, abs=1e-4)


def test_ergodicity_check_trichotomy():
    singles = ImmigrationMechanism.single_arrivals(3.0)
    assert ergodicity_check(SUBCRITICAL, singles).status == "ergodic"
    assert ergodicity_check(PURE_DEATH, singles).status == "ergodic"
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    assert ergodicity_check(SUBCRITICAL, heavy).status == "not_ergodic"
    assert ergodicity_check(CRITICAL, singles).status == "unknown"
    declared = ImmigrationMechanism.parametric(
        1.0, GroupSizeLaw.declared({1: 0.9}, undeclared_tail=0.1)
    )
    assert ergodicity_check(SUBCRITICAL, declared).status == "unknown"
    super_ = BranchingModel(ONE, OffspringLaw.table({0: 0.3, 2: 0.7}))
    assert ergodicity_check(super_, singles).status == "unknown"


def test_stationary_laplace_queue_value():
    imm = ImmigrationMechanism.single_arrivals(3.0)
    rep = stationary_laplace(PURE_DEATH, imm, ONE, 1e-6)
    exact = math.exp(-3.0 * (1.0 - math.exp(-1.0)))
    assert exact == pytest.approx(0.15011378939830683, abs=1e-15)  # frozen
    assert abs(rep.value - exact) <= 1e-6
    assert rep.tail_bound + rep.quadrature_error <= 1e-6


def test_stationary_laplace_monotone_to_one():
    imm = ImmigrationMechanism.single_arrivals(2.0)
    thetas = [2.0, 1.0, 0.5, 0.25, 0.05]
    vals = [stationary_laplace(PURE_DEATH, imm, ScalarField.constant(t), 1e-6).value for t in thetas]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1.0
    assert stationary_laplace(PURE_DEATH, imm, ScalarField.constant(0.0), 1e-6).value == 1.0


def test_stationary_laplace_refusals():
    singles = ImmigrationMechanism.single_arrivals(1.0)
    with pytest.raises(ValueError, match="not certified"):
        stationary_laplace(CRITICAL, singles, ONE)
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    with pytest.raises(ValueError, match="not certified"):
        stationary_laplace(SUBCRITICAL, heavy, ONE)
    # ergodic but infinite mean group size: the tail bound is vacuous
    zeta_heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.zeta_tail(1.8))
    assert ergodicity_check(SUBCRITICAL, zeta_heavy).status == "ergodic"
    with pytest.raises(ValueError, match="infinite mean"):
        stationary_laplace(SUBCRITICAL, zeta_heavy, ONE)


def test_stationary_laplace_refuses_a_horizon_past_the_float_range():
    # the tail bound's horizon log(m1 sup f / (rate tolerance / 2)) / rate
    # overflows, or its denominator underflows to 0
    singles = ImmigrationMechanism.single_arrivals(1.0)
    for tolerance in (1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"tolerance {tolerance!r} needs a truncation horizon past the float range"):
            stationary_laplace(SUBCRITICAL, singles, ONE, tolerance)


def test_stationary_laplace_zero_rate_is_one():
    rep = stationary_laplace(SUBCRITICAL, ImmigrationMechanism.none(), ONE)
    assert rep.value == 1.0


def test_stationary_laplace_group_mechanism_closed_form():
    # pure-death pairs at age 0: psi(u_s) = rate (1 - w(s)^2) with
    # w(s) = 1 - (1 - e^-theta) e^-s, so the full integral is 2b - b^2/2
    imm = ImmigrationMechanism.finite_support([(1.0, AgeMeasure.point(0.0, 2))])
    rep = stationary_laplace(PURE_DEATH, imm, ONE, 1e-6)
    b = 1.0 - math.exp(-1.0)
    exact = 2.0 * b - b * b / 2.0
    assert rep.exponent_integral == pytest.approx(exact, abs=1e-6)
    assert rep.value == pytest.approx(math.exp(-exact), abs=1e-6)


def test_exponential_tail_identity_series_value():
    lhs, rhs = exponential_tail_identity(1.0, 1.0, 1)
    series = 0.7965995992970534  # sum of (-1)^(k+1) / (k k!)
    assert lhs == pytest.approx(series, abs=1e-8)
    assert rhs == pytest.approx(series, abs=1e-9)


def test_exponential_tail_identity_properties():
    lhs1, _ = exponential_tail_identity(1.0, 1.0, 1)
    lhs2, _ = exponential_tail_identity(1.0, 2.0, 1)
    assert lhs2 == pytest.approx(lhs1 / 2.0, abs=2e-9)  # c scales the integral
    small, _ = exponential_tail_identity(1e-8, 1.0, 1)
    assert small < 1e-6  # vanishes with a
    with pytest.raises(ValueError):
        exponential_tail_identity(-1.0, 1.0, 1)


def test_exponential_tail_identity_grid():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for n in (1, 2, 5):
                lhs, rhs = exponential_tail_identity(a, c, n)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8


def test_identity_check_grids_stay_within_the_step_cap(monkeypatch):
    # every grid of the 27 identity-check cases is a SolverGrid, so none passes the cap
    grids = []
    original = SolverGrid.refine
    monkeypatch.setattr(
        SolverGrid, "refine", lambda self, value, tol: original(self, lambda g: grids.append(g.n_steps) or value(g), tol)
    )
    cases = [(a, c, n) for a in (0.5, 1.0, 2.0) for c in (0.5, 1.0, 2.0) for n in (1, 2, 5)]
    for a, c, n in cases:
        lhs, rhs = exponential_tail_identity(a, c, n)
        assert abs(lhs - rhs) <= 1e-9
    assert min(grids) == 2048 and max(grids) <= solvers._MAX_STEPS


@pytest.mark.parametrize("args, match", [
    ((math.nan, 1.0, 1), "a and c must be > 0 and finite, got nan and 1.0"),
    ((math.inf, 1.0, 1), "a and c must be > 0 and finite, got inf and 1.0"),
    ((1.0, math.nan, 1), "a and c must be > 0 and finite, got 1.0 and nan"),
    ((1.0, math.inf, 1), "a and c must be > 0 and finite, got 1.0 and inf"),
    ((1.0, 1.0, 2.5), "group_mass must be >= 1 and an integer, got 2.5"),
    ((1.0, 1.0, True), "group_mass must be >= 1 and an integer, got True"),
    ((1.0, 1.0, 0), "group_mass must be >= 1 and an integer, got 0"),
], ids=["a-nan", "a-inf", "c-nan", "c-inf", "mass-fractional", "mass-bool", "mass-zero"])
def test_exponential_tail_identity_refuses_what_it_cannot_integrate(args, match):
    # a NaN or infinite a or c halved the trapezoid without end, and a mass of 2.5
    # or True was integrated as a mass
    with pytest.raises(ValueError, match=f"^{match}$"):
        exponential_tail_identity(*args)


def test_evaluator_consistency_along_rays():
    # smooth data: the scalar single-ray integrator (oracle) and the
    # vectorized fan follow the same arithmetic, so they agree to rounding
    smooth = BranchingModel(ScalarField.exp_decay(1.0, 0.8, 0.4), OffspringLaw.geometric(0.35))
    grid = SolverGrid(2e-3, 1.0)
    sol = solve_exponent(smooth, ONE, grid)
    ray = sol.along_ray(0.8)
    times = grid.times()
    for j in (100, 250, 500):
        assert scalar_exponent_at(sol, times[j], 0.8) == pytest.approx(ray[j], abs=1e-12)
        assert sol.at(times[j], 0.8) == ray[j]
    msol = solve_mean(smooth, ONE, grid)
    mray = msol.along_ray(0.8)
    for j in (100, 250, 500):
        assert scalar_mean_at(msol, times[j], 0.8) == pytest.approx(mray[j], abs=1e-12)
        assert msol.at(times[j], 0.8) == mray[j]


def test_evaluator_consistency_discontinuous_rates():
    # a step rate makes nodes near the threshold representation-sensitive
    # (fan ages a + k dt vs ray ages (a + t) - r differ by one ulp), which can
    # flip a single node across the jump: agreement is one-node-error loose
    grid = SolverGrid(2e-3, 1.0)
    sol = solve_exponent(AGE_VARYING, ONE, grid)
    ray = sol.along_ray(0.8)
    times = grid.times()
    for j in (100, 250, 500):
        assert scalar_exponent_at(sol, times[j], 0.8) == pytest.approx(ray[j], abs=5 * grid.dt)


SMOOTH = BranchingModel(ScalarField.exp_decay(1.0, 0.8, 0.4), OffspringLaw.geometric(0.35))


@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
@pytest.mark.parametrize("model", [CRITICAL, AGE_VARYING, SMOOTH], ids=["critical", "age_varying", "smooth"])
def test_rays_match_one_fan_per_offset(model, quadrature):
    # dt = 7e-3 keeps the step thresholds at 1.5 off the label grid, so no
    # label sits on a jump where an ulp of its age decides the piece
    grid = SolverGrid(7e-3, 0.7, quadrature)
    f = ScalarField.exp_decay(1.0, 0.7, 0.2)
    # 100 = n is the last age read from the boundary row; 101 and beyond lie
    # past the horizon and get their own rows
    aligned = [k * grid.dt for k in (0, 1, 37, 100, 101, 250, 450)]
    off_grid = [0.0123, 0.8, 2.3456]
    offsets = aligned + off_grid
    for solve, fan in ((solve_exponent, fan_exponent), (solve_mean, fan_mean)):
        sol = solve(model, f, grid)
        table = sol.rays(offsets)
        assert table.shape == (len(offsets), grid.n_steps + 1)
        for x, ray in zip(offsets, table):
            old = fan(model, f, grid, offset=x, boundary=sol.boundary) if x else sol.boundary
            assert np.max(np.abs(ray - old)) <= 1e-13


@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
def test_zero_ray_is_the_boundary_bit_for_bit(quadrature):
    grid = SolverGrid(5e-3, 1.0, quadrature)
    for solve in (solve_exponent, solve_mean):
        sol = solve(AGE_VARYING, ONE, grid)
        assert sol.rays([0.0])[0].tobytes() == sol.boundary.tobytes()
        # asked for together with other rays, the age-0 row is still the boundary
        table = sol.rays([0.3, 0.0, 0.0123])
        assert table[1].tobytes() == sol.boundary.tobytes()
        # repeated solves and ray calls are bit-identical
        again = solve(AGE_VARYING, ONE, grid)
        assert again.boundary.tobytes() == sol.boundary.tobytes()
        assert again.rays([0.3, 0.0, 0.0123]).tobytes() == table.tobytes()
        rows = [row.tobytes() for _, row in lattice_rows(sol)]
        assert rows == [row.tobytes() for _, row in lattice_rows(again)]


def test_rays_reject_bad_offsets():
    # f(-0.5) lies above the field's supremum: a negative age must not be marched
    sol = solve_exponent(AGE_VARYING, ScalarField.exp_decay(1.0, 0.5, 0.0), SolverGrid(1e-2, 1.0))
    msol = solve_mean(AGE_VARYING, ONE, SolverGrid(1e-2, 1.0))
    for bad in (-0.5, math.nan, math.inf):
        for s in (sol, msol):
            with pytest.raises(ValueError, match="finite ages"):
                s.along_ray(bad)
            with pytest.raises(ValueError, match="finite ages"):
                s.rays([0.2, bad])
            with pytest.raises(ValueError):
                s.at(0.5, bad)


def test_at_refuses_off_grid_times():
    grid = SolverGrid(1e-2, 1.0)
    for sol in (solve_exponent(CRITICAL, ONE, grid), solve_mean(CRITICAL, ONE, grid)):
        assert sol.at(0.5, 0.3) == sol.rays([0.3])[0, 50]
        for t in (0.505, -0.01, 1.01, math.nan):
            with pytest.raises(ValueError, match="not a node"):
                sol.at(t, 0.3)


def _count_boundary_solves(monkeypatch) -> list:
    """The grid of each boundary solve from here on."""
    calls = []
    original = solvers._solve_boundary
    monkeypatch.setattr(
        solvers, "_solve_boundary", lambda kind, model, f, grid: calls.append(grid) or original(kind, model, f, grid)
    )
    return calls


@pytest.mark.parametrize("command", ["solve-u", "solve-pi"])
def test_solve_commands_solve_the_boundary_once(tmp_path, monkeypatch, command):
    calls = _count_boundary_solves(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "age_varying.json"
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--dt", "0.01", "--out", str(out)]) == 0
    assert len(calls) == 1
    lattice = (out / "lattice.csv").read_text().strip().split("\n")
    assert len(lattice) == 1 + 51 * 51  # every second node of the n = 100 grid, per axis


def test_validate_solves_each_boundary_once(tmp_path, monkeypatch):
    # the exponent and the mean at dt and 2 dt, shared by the Monte-Carlo and lattice checks
    calls = _count_boundary_solves(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "bench_critical.json"
    assert cli.main(["validate", "--config", str(config), "--replicates", "20",
                     "--out", str(tmp_path / "out")]) == 0
    assert sorted(grid.dt for grid in calls) == [1e-3, 1e-3, 2e-3, 2e-3]


def test_immigration_helpers_solve_the_boundary_once_without_a_solution(monkeypatch):
    calls = _count_boundary_solves(monkeypatch)
    imm = ImmigrationMechanism.finite_support([(1.5, AgeMeasure.point(2.0))])
    grid = SolverGrid(1e-2, 1.0)
    val, psis = immigration_exponent_integral(AGE_VARYING, imm, ONE, grid)
    assert len(calls) == 1
    val_sol, psis_sol = solve_exponent(AGE_VARYING, ONE, grid).readout(AgeMeasure.empty(), imm)
    assert val == val_sol and psis.tobytes() == psis_sol.tobytes()
    calls.clear()
    initial = AgeMeasure.point(0.7, 3)
    mean = mean_with_immigration(AGE_VARYING, imm, ONE, initial, grid)
    assert len(calls) == 1
    assert mean == solve_mean(AGE_VARYING, ONE, grid).readout(initial, imm)[0]


def test_immigration_integral_follows_the_grid_quadrature():
    # bench_critical's model with single arrivals: each rule gives its own value
    imm = ImmigrationMechanism.single_arrivals(2.0)
    grid = SolverGrid(1e-2, 1.0)
    assert immigration_exponent_integral(CRITICAL, imm, ONE, grid)[0] == pytest.approx(1.098571, abs=1e-6)
    rect = SolverGrid(1e-2, 1.0, "rectangle")
    assert immigration_exponent_integral(CRITICAL, imm, ONE, rect)[0] == pytest.approx(1.099694, abs=1e-6)


def test_label_rows_trip_no_guard_a_single_ray_would_not():
    # the moment march's guards must see only the ages the boundary and the
    # requested rays visit
    model = BranchingModel(ScalarField.step([5.0], [1.0, 90.0]), OffspringLaw.geometric(0.875))
    grid = SolverGrid(1e-2, 1.0)
    sol = solve_mean(model, ONE, grid)
    # an off-grid age's row is padded to the extended boundary row (age 2.0);
    # unpadded it would reach age 5.0005, this ray only 4.0005
    table = sol.rays([1.0, 3.0005])
    old = fan_mean(model, ONE, grid, offset=3.0005, boundary=sol.boundary)
    assert np.max(np.abs(table[1] - old)) <= 1e-13
    with pytest.raises(ValueError, match="dt too large"):
        sol.rays([4.5])  # a ray that does reach the high-hazard ages is still refused
    # a grid-aligned age past the horizon gets its own row: ages 1..3 lie
    # between the boundary (0..1) and this ray (3..4) and are never marched
    model = BranchingModel(ScalarField.step([2.0, 2.5], [1.0, 90.0, 1.0]), OffspringLaw.geometric(0.875))
    sol = solve_mean(model, ONE, grid)
    old = fan_mean(model, ONE, grid, offset=3.0, boundary=sol.boundary)
    assert np.max(np.abs(sol.rays([3.0])[0] - old)) <= 1e-13
    assert np.max(np.abs(sol.along_ray(3.0) - old)) <= 1e-13
    assert sol.at(1.0, 3.0) == pytest.approx(old[-1], abs=1e-13)


def test_each_ray_is_guarded_by_its_own_ages():
    # alone, the age-1.9 ray (hazard up to 300, mean 0.5) and the age-3.5 ray
    # (hazard 1, mean 3) stay in the discounted form's range; the largest
    # hazard of one times the largest mean of the other would not
    model = BranchingModel(
        ScalarField.step([2.0, 3.0], [1.0, 300.0, 1.0]),
        OffspringLaw((OffspringPmf.geometric(1 / 3), OffspringPmf.geometric(0.75)), (3.0,)),
    )
    grid = SolverGrid(1e-3, 1.0)
    sol = solve_mean(model, ONE, grid)
    table = sol.rays([1.9, 3.5])
    assert table.tobytes() == np.vstack([sol.along_ray(1.9), sol.along_ray(3.5)]).tobytes()
    old = fan_mean(model, ONE, grid, offset=3.5, boundary=sol.boundary)
    assert np.max(np.abs(table[1] - old)) <= 1e-12


def _count_psi_calls(monkeypatch) -> list:
    calls = []
    original = ImmigrationMechanism.psi_from_exponents
    monkeypatch.setattr(
        ImmigrationMechanism,
        "psi_from_exponents",
        lambda self, *a, **k: calls.append(a) or original(self, *a, **k),
    )
    return calls


@pytest.mark.parametrize("name", ["pure_death_imm", "subcritical_imm", "zeta_groups_imm"])
def test_immigration_integral_matches_per_node_oracle(monkeypatch, name):
    cfg = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    grid = SolverGrid(cfg.grid_dt, cfg.t_end, cfg.quadrature)
    calls = _count_psi_calls(monkeypatch)
    val, psis = immigration_exponent_integral(cfg.model, cfg.immigration, cfg.f, grid)
    assert len(calls) == 1
    sol = solve_exponent(cfg.model, cfg.f, grid)
    ages = cfg.immigration.atom_ages()
    ref_val, ref_psis = immigration_integral_per_node(cfg.immigration, ages, sol.rays(ages), grid)
    assert psis.shape == ref_psis.shape
    assert np.max(np.abs(psis - ref_psis)) <= 1e-12
    assert val == pytest.approx(ref_val, abs=1e-12)


def test_stationary_solve_makes_one_psi_call_per_grid(monkeypatch):
    calls = _count_psi_calls(monkeypatch)
    integrals = []
    original = solvers.immigration_exponent_integral
    monkeypatch.setattr(
        solvers,
        "immigration_exponent_integral",
        lambda *a, **k: integrals.append(a) or original(*a, **k),
    )
    imm = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.zeta_tail(3.0))
    stationary_laplace(SUBCRITICAL, imm, ONE, 2e-3)
    assert len(integrals) >= 2
    assert len(calls) == len(integrals)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
BOUND_NAMES = [
    "solver:exponent_nonneg",
    "solver:survival_lower_bound",
    "solver:exponent_below_mean",
    "solver:mean_norm_bound",
]


def _shipped(name: str, quadrature: str | None = None):
    cfg = cli.load_config(CONFIG_DIR / f"{name}.json")
    return cfg, SolverGrid(cfg.grid_dt, cfg.t_end, quadrature or cfg.quadrature)


def _composed_total(sol, initial: AgeMeasure, imm: ImmigrationMechanism) -> float:
    """The readout's total in separate pieces: the initial rays at the horizon, then the arrival term.

    The exponent's arrival term takes its own ``rays`` call over the atoms and
    is 0.0 for the zero-rate mechanism; the mean's shares one call with the
    initial ages.
    """
    weights, atoms, k = sol.grid.weights(), imm.atom_ages(), len(initial.ages)
    if not sol._mean:
        expo = sum(float(v) for v in sol.rays(initial.ages)[:, -1])
        if imm.total_rate == 0.0:
            return expo + 0.0
        psi = imm.psi_from_exponents(dict(zip(atoms, sol.rays(atoms))))
        return expo + float(np.dot(weights, psi))
    table = sol.rays([*initial.ages, *atoms])
    total = sum(float(v) for v in table[:k, -1])
    if not atoms:
        return total
    return total + float(np.dot(weights, imm.first_moment_from_values(dict(zip(atoms, table[k:])))))


@pytest.mark.parametrize("name", SHIPPED)
def test_readout_total_is_the_composed_total_bit_for_bit(name):
    cfg, grid = _shipped(name, "trapezoid")
    finite = math.isfinite(cfg.immigration.first_moment_of(ONE))
    for g in (grid, grid.coarse()):
        for solve in (solve_exponent, solve_mean):
            sol = solve(cfg.model, cfg.f, g)
            if solve is solve_mean and not finite:
                with pytest.raises(ValueError, match="mean group size is infinite; the first moment diverges"):
                    sol.readout(cfg.initial, cfg.immigration)
                continue
            total, per_node = sol.readout(cfg.initial, cfg.immigration)
            assert float(total).hex() == float(_composed_total(sol, cfg.initial, cfg.immigration)).hex()
            assert per_node.shape == (g.n_steps + 1,)


def test_readout_makes_one_rays_call(monkeypatch):
    calls = []
    original = solvers._FanSolution.rays
    monkeypatch.setattr(solvers._FanSolution, "rays", lambda self, offsets: calls.append(offsets) or original(self, offsets))
    imm = ImmigrationMechanism.finite_support([(1.5, AgeMeasure.point(2.0)), (0.5, AgeMeasure((0.0, 0.3)))])
    initial, grid = AgeMeasure((0.7, 1.2)), SolverGrid(1e-2, 1.0)
    for solve in (solve_exponent, solve_mean):
        sol = solve(AGE_VARYING, ONE, grid)
        calls.clear()
        total, per_node = sol.readout(initial, imm)
        assert calls == [[0.7, 1.2, 0.0, 0.3, 2.0]]
        assert math.isfinite(total) and per_node.shape == (grid.n_steps + 1,)
    # without atoms the arrival term is zero at every node, and the total a double
    calls.clear()
    total, per_node = solve_mean(CRITICAL, ONE, grid).readout(AgeMeasure.empty(), ImmigrationMechanism.none())
    assert len(calls) == 1 and repr(total) == "0.0" and not per_node.any()
    # the Laplace side of validate reads out once on each of its two grids
    calls.clear()
    validate.laplace_analytic(AGE_VARYING, imm, initial, ONE, 1.0, 1e-2)
    assert len(calls) == 2


def _atoms(cfg) -> tuple:
    imm = cfg.immigration
    return imm.atom_ages() if imm.total_rate > 0.0 else ()


@pytest.mark.parametrize(
    "name, quadrature",
    [(name, "trapezoid") for name in SHIPPED]
    + [(name, "rectangle") for name in ("age_varying", "bench_critical", "pure_death", "heavy_tail_imm")],
)
def test_renewal_solve_matches_the_march_on_shipped_grids(name, quadrature):
    cfg, grid = _shipped(name, quadrature)
    n, dt = grid.n_steps, grid.dt
    # aligned ages up to n, aligned ages past n, and ages off the grid; the
    # march's cost grows with the largest aligned age, so n itself is left to
    # the smaller grids
    aligned = [dt, 37 * dt, *([n * dt] if n <= 1000 else []), (n + 1) * dt, 3 * n * dt]
    ages = [*cfg.initial.ages, *_atoms(cfg), *aligned, 0.0123, 1.7]
    for solve, march in ((solve_exponent, march_exponent), (solve_mean, march_mean)):
        sol = solve(cfg.model, cfg.f, grid)
        boundary, table, _ = march(cfg.model, cfg.f, grid, ages)
        b_gap = np.max(np.abs(sol.boundary - boundary))
        r_gap = np.max(np.abs(sol.rays(ages) - table), axis=1)
        assert b_gap <= 1e-12 and r_gap.max() <= 1e-12
        # the stated rounding bounds hold the observed gaps
        _, (b_bound, r_bound) = renewal_rounding_bounds(sol, ages)
        assert b_gap <= b_bound and np.all(r_gap <= r_bound)


# The offspring kinds no shipped config has: geometric and Poisson laws, and two
# regimes of different kinds either way round.  Thresholds are > 0, so
# regimes[0] is the age-0 regime whose pgf closes every boundary step; a short
# first regime leaves every other age to regimes[1].
OFFSPRING_KINDS = {
    "geometric": BranchingModel(ScalarField.exp_decay(1.5, 3.0, 0.5), OffspringLaw.geometric(0.45)),
    "poisson": BranchingModel(ScalarField.step([0.7], [1.2, 0.6]), OffspringLaw.poisson(1.4)),
    "poisson_then_geometric": BranchingModel(
        ONE, OffspringLaw((OffspringPmf.poisson(0.5), OffspringPmf.geometric(0.6)), (0.05,))
    ),
    "geometric_then_poisson": BranchingModel(
        ScalarField.constant(1.5), OffspringLaw((OffspringPmf.geometric(0.3), OffspringPmf.poisson(1.8)), (0.05,))
    ),
}


@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
@pytest.mark.parametrize("name", sorted(OFFSPRING_KINDS))
def test_renewal_solve_matches_the_march_for_every_offspring_kind(name, quadrature):
    model, f = OFFSPRING_KINDS[name], ScalarField.exp_decay(1.0, 0.7, 0.2)
    for dt in (0.01, 0.3):  # a coarse step makes the closing term C_0 g(w) large
        grid = SolverGrid(dt, 3.0, quadrature)
        n = grid.n_steps
        ages = [dt, 7 * dt, n * dt, (n + 1) * dt, 0.0123, 1.7]
        for solve, march in ((solve_exponent, march_exponent), (solve_mean, march_mean)):
            sol = solve(model, f, grid)
            boundary, table, _ = march(model, f, grid, ages)
            assert np.max(np.abs(sol.boundary - boundary)) <= 1e-12
            assert np.max(np.abs(sol.rays(ages) - table)) <= 1e-12


@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
def test_rows_are_the_marched_lattice(quadrature):
    # n = 300 across the step at age 1.5, which no node hits exactly
    grid = SolverGrid(7e-3, 2.1, quadrature)
    f = ScalarField.exp_decay(1.0, 0.7, 0.2)
    for solve, march in ((solve_exponent, march_exponent), (solve_mean, march_mean)):
        sol = solve(AGE_VARYING, f, grid)
        lattice = march(AGE_VARYING, f, grid, keep_lattice=True)[2]
        if solve is solve_exponent:
            lattice = -np.log(np.maximum(lattice, 1e-300))
        seen = [i for i, row in lattice_rows(sol) if np.max(np.abs(row - lattice[i, i:])) <= 1e-12]
        assert seen == list(range(grid.n_steps + 1))


@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
def test_bound_check_margins_match_the_lattice_oracle(quadrature):
    cases = [(m, ONE, SolverGrid(1e-2, 1.0, quadrature)) for m in benchmark_models().values()]
    for name in ("age_varying", "bench_critical", "pure_death"):
        cfg, grid = _shipped(name, quadrature)
        cases.append((cfg.model, cfg.f, grid))
    # a rising alpha, whose survival hazard along a ray is below c1 t
    rising = BranchingModel(ScalarField.step([0.5], [0.5, 2.0]), CRITICAL.offspring)
    cases.append((rising, ONE, SolverGrid(1e-2, 2.0, quadrature)))
    for model, f, grid in cases:
        assert grid.n_steps <= 4096
        oracle = lattice_bound_margins(model, f, grid)
        reports = solver_bound_checks(model, f, grid)
        assert [r.name for r in reports] == BOUND_NAMES
        for rep in reports:
            assert abs(rep.mc.value - oracle[rep.name]) <= 1e-12


_LATTICE_FIELD = ScalarField.exp_decay(1.0, 0.7, 0.2)


@pytest.mark.parametrize("budget", ["one-row", "ragged", "default"])
@pytest.mark.parametrize("quadrature", ["trapezoid", "rectangle"])
@pytest.mark.parametrize("model", ["one-regime", "two-regimes"])
def test_lattice_margins_are_the_row_loop_bit_for_bit(monkeypatch, model, quadrature, budget):
    # n = 300; the two-regime model steps its alpha and offspring law at age
    # 1.5, which no node hits, so both survival hazards (alpha t and the
    # trapezoid along the ray) and one and two source classes are swept
    model = CRITICAL if model == "one-regime" else AGE_VARYING
    grid = SolverGrid(7e-3, 2.1, quadrature)
    if budget == "one-row":
        monkeypatch.setattr(solvers, "_BLOCK_ENTRIES", 1)
    elif budget == "ragged":  # 7 rows of 301, then blocks whose heights leave a remainder
        monkeypatch.setattr(solvers, "_BLOCK_ENTRIES", 7 * (grid.n_steps + 1) + 5)
    usol, msol = solve_exponent(model, _LATTICE_FIELD, grid), solve_mean(model, _LATTICE_FIELD, grid)
    margins = solvers.lattice_margins(usol, msol)
    expect = row_loop_margins(usol, msol)
    assert np.array(margins).tobytes() == np.array(expect).tobytes()
    assert all(math.isfinite(m) for m in margins)


def test_lattice_margins_refuse_solutions_of_different_problems():
    grid = SolverGrid(1e-2, 1.0)
    usol = solve_exponent(CRITICAL, ONE, grid)
    # another step; the other quadrature; 100 steps either way, but on [0, 2]
    # or with the horizon a rounding away
    for other in (SolverGrid(2e-2, 1.0), SolverGrid(1e-2, 1.0, "rectangle"), SolverGrid(2e-2, 2.0),
                  SolverGrid(1e-2, 1.0 + 1e-13)):
        with pytest.raises(ValueError, match="mean solution grid .* is not the requested grid"):
            solvers.lattice_margins(usol, solve_mean(CRITICAL, ONE, other))
    for model, f in ((CRITICAL, _LATTICE_FIELD), (SUBCRITICAL, ONE)):
        with pytest.raises(ValueError, match="mean solution is of another model or field"):
            solvers.lattice_margins(usol, solve_mean(model, f, grid))
    # an equal model built anew is the same problem
    same = BranchingModel(CRITICAL.alpha, CRITICAL.offspring)
    assert solvers.lattice_margins(usol, solve_mean(same, ONE, grid)) == (
        solvers.lattice_margins(usol, solve_mean(CRITICAL, ONE, grid)))


def test_a_nan_on_the_lattice_fails_every_bound_check(monkeypatch):
    # a NaN at age 3 dt of the time-0 row, which is not a boundary node: the
    # boundaries and their error estimates stay finite, and the NaN runs
    # along its characteristic through both lattices until it reaches age 0
    cfg, _ = _shipped("bench_critical")
    grid, memo = SolverGrid(0.01, cfg.t_end), {}
    solver_bound_checks(cfg.model, cfg.f, grid, memo)
    start = solvers._FanSolution._start.__func__

    def poisoned(cls, fvals):
        w = np.array(start(cls, fvals))
        w[3] = math.nan
        return w

    monkeypatch.setattr(solvers._FanSolution, "_start", classmethod(poisoned))
    reports = solver_bound_checks(cfg.model, cfg.f, grid, memo)
    assert [r.name for r in reports] == BOUND_NAMES
    assert all(math.isnan(r.mc.value) and math.isfinite(r.analytic_tol) for r in reports)
    assert [r.row()[-1] for r in reports] == ["fail"] * 4


@pytest.mark.parametrize("name", ["pure_death_imm", "subcritical_imm"])
def test_solver_bound_checks_stream_the_immigration_grids(name):
    cfg, grid = _shipped(name)
    assert grid.n_steps == 10_000  # past the 4096 steps a stored lattice was capped at
    reports = solver_bound_checks(cfg.model, cfg.f, grid)
    assert [r.name for r in reports] == BOUND_NAMES
    assert all(r.verdict for r in reports)


def test_mean_refuses_a_cumulative_hazard_past_the_floating_point_range():
    model = BranchingModel(ScalarField.constant(10.0), OffspringLaw.table({0: 1.0}))
    with pytest.raises(ValueError, match="cumulative hazard"):
        solve_mean(model, ONE, SolverGrid(1e-2, 61.0))


def test_boundary_fixed_point_refuses_when_it_does_not_converge(monkeypatch):
    monkeypatch.setattr(solvers, "_FIXED_POINT_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_exponent(CRITICAL, ONE, SolverGrid(1e-2, 1.0))


def _count_step_calls(monkeypatch):
    """``g'(z)`` at every closure call the boundary step makes: its Newton steps, then one source call a regime.

    Calls from elsewhere (the solve's up-front test at z = 1, its node-0
    sources, ``OffspringPmf.mean``) are not counted.
    """
    derivatives = []
    original = OffspringPmf.pgf_slope

    def counted(self):
        inner = original(self)

        def pgf_slope(z):
            value, slope = inner(z)
            if sys._getframe(1).f_code.co_name == "step":
                derivatives.append(slope)
            return value, slope

        return pgf_slope

    monkeypatch.setattr(OffspringPmf, "pgf_slope", counted)
    return derivatives


# The zero field at alpha = 1 and dt = 0.5: C_0 = 0.25 / 1.25 = 1/5, so the
# exponent is 0 while C_0 g'(1) = mu / 5 < 1 for a Poisson mean mu.
ZERO_FIELD_GRID = SolverGrid(0.5, 10.0)


@pytest.mark.parametrize("mu", [10.0, 5.5])
def test_boundary_solve_refuses_a_tangent_of_one_or_more_at_age_zero(mu):
    # With C_0 g'(1) >= 1 the step F(w) = w - known - C_0 g(w) has a root below
    # the solution, and Newton's method (like the damped iteration) converges to
    # it: Poisson(10) gave [0, 0.174, 0.603, ...] and Poisson(5.5) [0, 0.036,
    # 0.203, ...] for an exponent that is 0
    model = BranchingModel(ONE, OffspringLaw.poisson(mu))
    with pytest.raises(ValueError, match=r"C_0 g'\(1\) = .* >= 1 at age 0: .*; use a smaller dt$"):
        solve_exponent(model, ScalarField.constant(0.0), ZERO_FIELD_GRID)


def test_boundary_solve_keeps_the_zero_exponent_below_a_tangent_of_one():
    # Poisson(4.99) is supercritical, so w = 1 repels: a rounding error at a
    # node grows like exp(3.99 t), and past t = 3.5 the trace leaves 0 (at
    # t = 10 it reads 2.76), as the field 1e-16 does sooner.  The horizon stops
    # before.
    model = BranchingModel(ONE, OffspringLaw.poisson(4.99))
    sol = solve_exponent(model, ScalarField.constant(0.0), SolverGrid(0.5, 3.0))
    assert np.all(sol.boundary == 0.0)


def test_boundary_newton_step_refuses_a_slope_that_is_not_positive(monkeypatch):
    # The model that once reached the guard through rounding, C_0 g'(1) = 1 + 1e-9
    # at an iterate w = 1, is now refused before the first step
    model = BranchingModel(ONE, OffspringLaw.poisson(5.0 * (1.0 + 1e-9)))
    with pytest.raises(ValueError, match="use a smaller dt$"):
        solve_exponent(model, ScalarField.constant(0.0), ZERO_FIELD_GRID)
    # Past that test g' is largest at 1, so every Newton slope 1 - C_0 g'(w) is
    # positive in exact arithmetic; the guard stays for rounding.  A closure whose
    # slope inside [0, 1) exceeds its slope at 1 reaches it at the first Newton
    # step.  At z = 1 it is the law's own, so the law's mean is unchanged.
    c0, newton = 0.25 / 1.25, []
    original = OffspringPmf.pgf_slope

    def steep(self):
        inner = original(self)

        def pgf_slope(z):
            if z == 1.0:
                return inner(z)
            newton.append(z)
            return inner(z)[0], 2.0 / c0

        return pgf_slope

    monkeypatch.setattr(OffspringPmf, "pgf_slope", steep)
    with pytest.raises(RuntimeError, match="did not converge; use a smaller dt"):
        solve_exponent(CRITICAL, ScalarField.constant(0.0), ZERO_FIELD_GRID)
    assert newton == [pytest.approx(0.8)]  # refused by the slope, not the cap


def test_boundary_newton_steps_on_the_stationary_zeta_grids(monkeypatch):
    # the benchmark's stationary-zeta solves: about four Newton steps per boundary step
    derivatives = _count_step_calls(monkeypatch)
    steps = []
    original = solvers.solve_exponent
    monkeypatch.setattr(
        solvers, "solve_exponent", lambda model, f, grid: steps.append(grid.n_steps) or original(model, f, grid)
    )
    cfg = cli.load_config(CONFIG_DIR / "zeta_groups_imm.json")
    for theta in (0.25, 0.5, 1.0):
        stationary_laplace(cfg.model, cfg.immigration, ScalarField.constant(theta), 2e-3)
    assert sum(steps) == 1836
    assert len(cfg.model.offspring.regimes) == 1
    newton = len(derivatives) - sum(steps)  # less each step's one source call
    assert newton / sum(steps) <= 4.0


def test_stationary_laplace_refuses_past_the_step_cap(monkeypatch):
    grids = []
    original = solvers.immigration_exponent_integral
    monkeypatch.setattr(
        solvers,
        "immigration_exponent_integral",
        lambda *a, **k: grids.append(a[3].n_steps) or original(*a, **k),
    )
    # the quadrature error falls about fourfold per halving from about 1e-5:
    # 1e-12 would need far more steps than the cap
    imm = ImmigrationMechanism.single_arrivals(1.0)
    with pytest.raises(RuntimeError, match=f"cap of {solvers._MAX_STEPS} steps"):
        stationary_laplace(SUBCRITICAL, imm, ONE, 1e-12)
    assert max(grids) <= solvers._MAX_STEPS < 2 * max(grids)
    assert solvers._MAX_STEPS > 54_912  # what zeta_groups_imm needs at f = 2


def test_fft_products_stay_within_the_stated_allowance():
    # positive sources against a decaying kernel, as in the boundary's blocks
    rng = np.random.default_rng(3)
    for t in range(7, 13):
        size, half = 2**t, 2 ** (t - 1)
        a = rng.random(half)
        b = rng.uniform(1e-4, 1e-2) * np.exp(-np.arange(size) * rng.uniform(1e-4, 1e-2))
        got = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[half:]
        exact = np.array([math.fsum(a * b[j - np.arange(half)]) for j in range(half, size)])
        allowance = 4.0 * t * 2.0**-53 * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.max(np.abs(got - exact)) <= allowance / 4.0  # measured: about 3 ulps of the norms


def _effects(cfg, grid: SolverGrid, mean: bool) -> tuple[float, float]:
    """How far the (fft, total) rounding bounds can move the value a tolerance certifies."""
    sol = (solve_mean if mean else solve_exponent)(cfg.model, cfg.f, grid)
    atoms, k = _atoms(cfg), len(cfg.initial.ages)
    effects = []
    for _, rays in renewal_rounding_bounds(sol, [*cfg.initial.ages, *atoms]):
        effect = float(np.sum(rays[:k]))
        if atoms and mean:
            m1 = cfg.immigration.first_moment_of(ScalarField.constant(1.0))
            effect += cfg.t_end * m1 * float(rays[k:].max())
        elif atoms:
            # psi's gradient falls as any exponent grows, so the spread over
            # +-width is largest at the smallest exponents, and the weights sum to T
            h = sol.rays(atoms).min(axis=1)
            psi = cfg.immigration.psi_from_exponents
            spread = psi(dict(zip(atoms, h + rays[k:]))) - psi(dict(zip(atoms, np.maximum(h - rays[k:], 0.0))))
            effect += cfg.t_end * spread
        effects.append(effect)
    return effects[0], effects[1]


@pytest.mark.parametrize("name", SHIPPED)
def test_fft_rounding_bound_is_far_below_the_richardson_tolerances(name):
    cfg, grid = _shipped(name)
    pairs = {}  # tolerance name -> (tolerance, fft effect, total effect)
    _, tol = validate.laplace_analytic(cfg.model, cfg.immigration, cfg.initial, cfg.f, cfg.t_end, grid.dt)
    fine, coarse = _effects(cfg, grid, False), _effects(cfg, grid.coarse(), False)
    pairs["laplace"] = (tol, fine[0] + coarse[0], fine[1] + coarse[1])
    if math.isfinite(cfg.immigration.first_moment_of(ONE)):
        _, tol = validate._analytic(True, cfg.model, cfg.immigration, cfg.initial, cfg.f, cfg.t_end, grid.dt)
        fine, coarse = _effects(cfg, grid, True), _effects(cfg, grid.coarse(), True)
        pairs["mean"] = (tol, fine[0] + coarse[0], fine[1] + coarse[1])
    reports = {r.name: r for r in solver_bound_checks(cfg.model, cfg.f, grid)}
    for key, solve, report in (
        ("cert_u", solve_exponent, "solver:exponent_nonneg"),
        ("cert_p", solve_mean, "solver:mean_norm_bound"),
    ):
        bounds = [renewal_rounding_bounds(solve(cfg.model, cfg.f, g)) for g in (grid, grid.coarse())]
        cert = (reports[report].analytic_tol - 1e-9) / 10.0
        pairs[key] = (cert, sum(b[0][0] for b in bounds), sum(b[1][0] for b in bounds))
    if cfg.immigration.total_rate > 0.0 and ergodicity_check(cfg.model, cfg.immigration).status == "ergodic":
        rep = stationary_laplace(cfg.model, cfg.immigration, cfg.f)
        effects = []
        for step in (rep.dt, 2 * rep.dt):
            g = SolverGrid(step, rep.horizon)
            sol = solve_exponent(cfg.model, cfg.f, g)
            atoms = _atoms(cfg)
            (_, fft_rays), (_, total_rays) = renewal_rounding_bounds(sol, atoms)
            effects.append(
                [rep.horizon * cfg.immigration.first_moment_of(ONE) * float(r.max()) for r in (fft_rays, total_rays)]
            )
        pairs["stationary"] = (rep.quadrature_error, *np.sum(effects, axis=0))
    # The one tolerance the bound does not clear is itself at rounding level:
    # below the arithmetic rounding that any evaluation order shares, the
    # march's included (the trapezoid error of the pure-death exponent
    # cancels in the trapezoid integral over its arrivals).
    missed = sorted(k for k, (tol, fft, _) in pairs.items() if 100.0 * fft > tol)
    assert missed == (["laplace"] if name == "pure_death_imm" else []), pairs
    assert all(pairs[k][0] <= pairs[k][2] for k in missed)
