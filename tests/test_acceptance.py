"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test asserts its criterion and prints PASS only after the
assertions hold.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    GroupSizeLaw,
    ImmigrationMechanism,
    OffspringLaw,
    ScalarField,
    SimConfig,
    SolverGrid,
    bound_suite,
    compare_laplace,
    ergodicity_check,
    estimate_extinction,
    estimate_laplace,
    estimate_mean,
    martingale_residual,
    solve_mean,
    solver_bound_checks,
    stationary_laplace,
)
from agebranch.cli import main
from oracles import benchmark_models, observed_orders

ONE = ScalarField.constant(1.0)
CRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
PURE_DEATH = BranchingModel(ONE, OffspringLaw.table({0: 1.0}))
SUBCRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def cfg_of(model, ages, t_end, seed, imm=ImmigrationMechanism.none()):
    return SimConfig(model, AgeMeasure.from_ages(ages), t_end, (t_end,), imm, seed)


def announce(n, label, detail):
    print(f"ACCEPTANCE criterion {n} ({label}): PASS  [{detail}]")


def critical_exponent(theta, t):
    a = 1.0 - math.exp(-theta)
    return -math.log(1.0 - a / (1.0 + t * a / 2.0))


def test_criterion_01_laplace_identity():
    start = time.monotonic()
    rep = compare_laplace(cfg_of(CRITICAL, [0.0], 1.0, 1001), ONE, 1.0, 100_000)
    elapsed = time.monotonic() - start
    assert rep.analytic == pytest.approx(math.exp(-critical_exponent(1.0, 1.0)), abs=1e-6)
    assert round(rep.analytic, 4) == 0.5197
    assert abs(rep.z) <= 3.0
    assert elapsed < 60.0
    announce(1, "laplace identity", f"mc={rep.mc.value:.5f} analytic={rep.analytic:.5f} "
                                    f"z={rep.z:.2f} elapsed={elapsed:.0f}s")


def test_criterion_02_extinction_probability():
    start = time.monotonic()
    est = estimate_extinction(cfg_of(CRITICAL, [0.0], 2.0, 1002), 2.0, 100_000)
    elapsed = time.monotonic() - start
    assert abs(est.value - 0.5) <= 3.0 * est.std_error
    assert elapsed < 60.0
    announce(2, "extinction probability", f"freq={est.value:.4f} "
                                          f"3se={3 * est.std_error:.4f} elapsed={elapsed:.0f}s")


def test_criterion_03_moment_identity():
    est = estimate_mean(cfg_of(PURE_DEATH, [0.0] * 100, 1.0, 1003), ONE, 1.0, 10_000)
    target = 100.0 * math.exp(-1.0)
    z = (est.value - target) / est.std_error
    assert abs(z) <= 3.0
    sol = solve_mean(PURE_DEATH, ONE, SolverGrid(1e-3, 1.0, "trapezoid"))
    err = float(np.max(np.abs(sol.boundary - np.exp(-sol.grid.times()))))
    assert err <= 1e-8
    announce(3, "moment identity", f"mc={est.value:.3f} target={target:.3f} z={z:.2f} "
                                   f"solver_err={err:.1e}")


def test_criterion_04_bound_suite():
    grid = SolverGrid(2e-3, 1.0, "trapezoid")
    lattice_failures = []
    for name, model in benchmark_models().items():
        for rep in solver_bound_checks(model, ONE, grid):
            if not rep.verdict:
                lattice_failures.append(f"{name}/{rep.name}")
    assert not lattice_failures, lattice_failures
    mc_reports = bound_suite(cfg_of(CRITICAL, [0.0], 1.0, 1004), 1.0, 10_000)
    assert all(r.verdict for r in mc_reports)
    announce(4, "bound suite", f"5 models x 4 lattice bounds, "
                               f"{len(mc_reports)} one-sided MC checks")


def test_criterion_05_solver_convergence_order():
    dts = [4e-3, 2e-3, 1e-3]
    u_exact = critical_exponent(1.0, 1.0)
    orders = {
        "u/trapezoid": observed_orders(CRITICAL, ONE, 1.0, u_exact, dts, "trapezoid"),
        "u/rectangle": observed_orders(CRITICAL, ONE, 1.0, u_exact, dts, "rectangle"),
        "pi/trapezoid": observed_orders(SUBCRITICAL, ONE, 1.0, math.exp(-0.2), dts, "trapezoid", "mean"),
        "pi/rectangle": observed_orders(SUBCRITICAL, ONE, 1.0, math.exp(-0.2), dts, "rectangle", "mean"),
    }
    for key, obs in orders.items():
        nominal = 2.0 if "trapezoid" in key else 1.0
        for o in obs:
            assert abs(o - nominal) <= 0.3, f"{key}: observed {obs}"
    announce(5, "solver convergence order",
             " ".join(f"{k}={[f'{o:.2f}' for o in v]}" for k, v in orders.items()))


def test_criterion_06_generator_martingale_residual():
    cfg = cfg_of(CRITICAL, [0.0], 1.0, 1006)
    rep = martingale_residual(cfg, "exp", ONE, 1.0, 100_000)
    assert abs(rep.z) <= 3.0
    control = martingale_residual(cfg, "exp", ONE, 1.0, 100_000, perturb=0.05)
    assert abs(control.z) > 3.0
    announce(6, "generator martingale residual",
             f"z={rep.z:.2f} control_z={control.z:.2f}")


def test_criterion_07_ergodicity():
    imm3 = ImmigrationMechanism.single_arrivals(3.0)
    stat = stationary_laplace(PURE_DEATH, imm3, ONE, 1e-6)
    exact = math.exp(-3.0 * (1.0 - math.exp(-1.0)))
    assert abs(stat.value - exact) <= 1e-6
    assert stat.total_error_bound <= 1e-6

    mc = estimate_laplace(cfg_of(PURE_DEATH, [], 20.0, 1007, imm=imm3), ONE, 20.0, 10_000)
    assert abs(mc.value - stat.value) <= 3.0 * mc.std_error

    imm1 = ImmigrationMechanism.single_arrivals(1.0)
    mass = estimate_mean(cfg_of(SUBCRITICAL, [], 50.0, 1008, imm=imm1), ONE, 50.0, 4000)
    assert abs(mass.value - 5.0) <= 3.0 * mass.std_error
    announce(7, "ergodicity", f"stationary={stat.value:.8f} (cert {stat.total_error_bound:.1e}) "
                              f"mc_T20={mc.value:.4f}+-{mc.std_error:.4f} "
                              f"longrun_mass={mass.value:.3f}+-{mass.std_error:.3f}")


def test_criterion_08_criterion_dichotomy():
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    assert ergodicity_check(SUBCRITICAL, heavy).status == "not_ergodic"
    finite_mechs = [
        ImmigrationMechanism.single_arrivals(3.0),
        ImmigrationMechanism.finite_support([(1.0, AgeMeasure.point(0.0, 2))]),
        ImmigrationMechanism.finite_support(
            [(0.5, AgeMeasure.from_ages([0.0, 1.0, 2.0])), (2.0, AgeMeasure.point(1.0))]
        ),
    ]
    for model in (SUBCRITICAL, PURE_DEATH):
        for imm in finite_mechs:
            assert ergodicity_check(model, imm).status == "ergodic"
    assert ergodicity_check(CRITICAL, finite_mechs[0]).status == "unknown"
    announce(8, "criterion dichotomy",
             "log-squared tail -> not_ergodic, finite support + c0<0 -> ergodic, c0=0 -> unknown")


def test_criterion_09_tail_identity_self_test():
    from agebranch import exponential_tail_identity

    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for n in (1, 2, 5):
                lhs, rhs = exponential_tail_identity(a, c, n)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8
    announce(9, "tail identity self-test", f"max_abs_diff={worst:.1e} over 27 cases")


def test_criterion_10_byte_identical_determinism(tmp_path):
    raw = json.loads((CONFIG_DIR / "bench_critical.json").read_text())
    raw["replicates"] = 800
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    outputs = []
    for tag, par in (("r1", "1"), ("r2", "2")):
        out = tmp_path / tag
        assert main(
            ["validate", "--config", str(cfg_path), "--out", str(out),
             "--seed", "7", "--parallelism", par]
        ) == 0
        outputs.append(
            (out / "checks.csv").read_bytes() + (out / "summary.txt").read_bytes()
        )
    assert outputs[0] == outputs[1]
    announce(10, "byte-identical determinism",
             "validate suite identical across runs and parallelism degrees")
