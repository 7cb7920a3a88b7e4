import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    ImmigrationMechanism,
    GroupSizeLaw,
    OffspringLaw,
    OffspringPmf,
    ScalarField,
    SimConfig,
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
    martingale_suite,
    solver_bound_checks,
)
from agebranch.cli import load_config
from agebranch.validate import (
    McEstimate,
    ComparisonReport,
    _ReplicateJob,
    _estimate,
    _run_chunk,
    benchmark_models,
    snapshot_profile,
)
from oracles import run_chunk_objects
from agebranch.solvers import SolverGrid

ONE = ScalarField.constant(1.0)
ZERO = ScalarField.constant(0.0)
CRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
PURE_DEATH = BranchingModel(ONE, OffspringLaw.table({0: 1.0}))
SUBCRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))


def cfg_of(model, ages, t_end, seed, imm=None):
    return SimConfig(model, AgeMeasure.from_ages(ages), t_end, (t_end,), imm, seed)


def test_estimate_laplace_zero_field_exact():
    est = estimate_laplace(cfg_of(CRITICAL, [0.0], 1.0, 1), ZERO, 1.0, 500)
    assert est.value == 1.0 and est.std_error == 0.0


def test_estimate_laplace_empty_initial_exact():
    est = estimate_laplace(cfg_of(CRITICAL, [], 1.0, 1), ONE, 1.0, 500)
    assert est.value == 1.0 and est.std_error == 0.0


def test_laplace_analytic_critical_benchmark():
    value, tol = laplace_analytic(CRITICAL, None, AgeMeasure.point(0.0), ONE, 1.0, 1e-3)
    w0 = math.exp(-1.0)
    a = 1.0 - w0
    exact = 1.0 - a / (1.0 + a / 2.0)
    assert value == pytest.approx(exact, abs=1e-7)
    assert tol < 1e-6


def test_compare_laplace_critical_passes_and_control_fails():
    rep = compare_laplace(cfg_of(CRITICAL, [0.0], 1.0, 11), ONE, 1.0, 8000)
    assert rep.verdict
    assert abs(rep.z) <= 3.0
    bad = control_report(rep)
    assert not bad.verdict
    assert bad.name.startswith("control:")


def test_compare_mean_examples():
    rep = compare_mean(cfg_of(PURE_DEATH, [0.0] * 100, 1.0, 13), ONE, 1.0, 1500)
    assert rep.analytic == pytest.approx(100 * math.exp(-1.0), abs=1e-5)
    assert rep.verdict
    # subcritical single particle at t = 2: mean mass e^{-0.4}
    rep2 = compare_mean(cfg_of(SUBCRITICAL, [0.0], 2.0, 14), ONE, 2.0, 8000)
    assert rep2.analytic == pytest.approx(0.6703200460356393, abs=1e-6)
    assert rep2.verdict


def test_estimate_extinction_critical():
    est = estimate_extinction(cfg_of(CRITICAL, [0.0], 2.0, 15), 2.0, 8000)
    assert abs(est.value - 0.5) <= 3 * est.std_error


def test_compare_zero_field_is_exact_pass():
    rep = compare_laplace(cfg_of(CRITICAL, [0.0], 1.0, 40), ZERO, 1.0, 100)
    assert rep.mc.value == 1.0 and rep.analytic == 1.0 and rep.z == 0.0 and rep.verdict
    rep2 = compare_mean(cfg_of(CRITICAL, [0.0], 1.0, 41), ZERO, 1.0, 100)
    assert rep2.mc.value == 0.0 and rep2.analytic == 0.0 and rep2.z == 0.0 and rep2.verdict


def test_bound_suite_pure_death_zero_beta():
    # with no reproduction the event-count bound degenerates to mass * rate * t
    reports = bound_suite(cfg_of(PURE_DEATH, [0.0] * 10, 1.0, 42), 1.0, 1500)
    by_name = {r.name: r for r in reports}
    assert by_name["bound:branch_events"].analytic == pytest.approx(10.0)
    assert by_name["bound:sup_mass"].analytic == pytest.approx(10.0)
    assert by_name["bound:sup_mass"].mc.value == 10.0  # mass never grows
    assert all(r.verdict for r in reports)


def test_ergodic_convergence_zero_rate_limit_is_one():
    cfg = cfg_of(SUBCRITICAL, [], 4.0, 43, imm=ImmigrationMechanism.none())
    stat, reports, gaps = ergodic_convergence(cfg, ONE, [2.0, 4.0], 100)
    assert stat == 1.0
    assert all(r.mc.value == 1.0 and r.verdict for r in reports)


def test_bound_suite_critical_and_empty():
    reports = bound_suite(cfg_of(CRITICAL, [0.0], 1.0, 16), 1.0, 2000)
    assert [r.name for r in reports] == [
        "bound:sup_mass",
        "bound:branch_events",
        "bound:mean_mass",
    ]
    assert all(r.verdict for r in reports)
    assert reports[0].analytic == pytest.approx(math.e)
    assert reports[1].analytic == pytest.approx(math.e - 1.0)
    # empty initial state: all statistics vanish, trivially within bounds
    empty = bound_suite(cfg_of(PURE_DEATH, [], 1.0, 17), 1.0, 100)
    assert all(r.verdict for r in empty)
    assert all(r.mc.value == 0.0 for r in empty)


def test_solver_bound_checks_pass_on_catalog():
    grid = SolverGrid(2e-3, 1.0)
    for name, model in benchmark_models().items():
        reports = solver_bound_checks(model, ONE, grid)
        assert all(r.verdict for r in reports), f"{name} violated a lattice bound"


def test_martingale_identity_pure_death():
    rep = martingale_residual(cfg_of(PURE_DEATH, [0.0] * 30, 1.0, 18), "identity", ONE, 1.0, 800)
    assert rep.verdict


def test_martingale_exp_critical_and_perturbation_direction():
    cfg = cfg_of(CRITICAL, [0.0], 1.0, 19)
    rep = martingale_residual(cfg, "exp", ONE, 1.0, 4000)
    assert rep.verdict
    bad = martingale_residual(cfg, "exp", ONE, 1.0, 4000, perturb=0.05)
    # same streams: the perturbation shifts every path's integral the same way
    assert bad.mc.value < rep.mc.value


def test_martingale_square_generator():
    rep = martingale_residual(cfg_of(SUBCRITICAL, [0.0, 0.5], 1.0, 20), "square", ONE, 1.0, 4000)
    assert rep.verdict


def test_martingale_with_immigration():
    imm = ImmigrationMechanism.single_arrivals(2.0)
    cfg = cfg_of(PURE_DEATH, [0.0], 1.0, 21, imm=imm)
    for g in ("identity", "exp"):
        rep = martingale_residual(cfg, g, ONE, 1.0, 4000)
        assert rep.verdict, f"{g} residual z={rep.z}"


def test_martingale_t_zero_exact():
    rep = martingale_residual(cfg_of(CRITICAL, [0.0], 1.0, 22), "exp", ONE, 0.0, 100)
    assert rep.mc.value == 0.0 and rep.mc.std_error == 0.0 and rep.verdict


def test_martingale_rejects_unknown_generator():
    with pytest.raises(ValueError):
        martingale_residual(cfg_of(CRITICAL, [0.0], 1.0, 23), "cubic", ONE, 1.0, 100)


def test_ergodic_convergence_gaps_decrease():
    imm = ImmigrationMechanism.single_arrivals(3.0)
    cfg = cfg_of(PURE_DEATH, [], 20.0, 24, imm=imm)
    stat, reports, gaps = ergodic_convergence(cfg, ONE, [5.0, 10.0, 20.0], 800, dt=5e-3)
    assert stat == pytest.approx(0.15011378939830683, abs=2e-6)
    assert all(r.verdict for r in reports)
    assert gaps[0] > gaps[1] > gaps[2]


def test_ergodic_convergence_refuses_uncertified():
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    cfg = cfg_of(SUBCRITICAL, [], 5.0, 25, imm=heavy)
    with pytest.raises(ValueError, match="not certified"):
        ergodic_convergence(cfg, ONE, [1.0], 100)
    with pytest.raises(ValueError, match="immigration"):
        ergodic_convergence(cfg_of(SUBCRITICAL, [], 5.0, 26), ONE, [1.0], 100)


def test_reports_reproducible_bit_for_bit():
    cfg = cfg_of(CRITICAL, [0.0], 1.0, 27)
    a = compare_laplace(cfg, ONE, 1.0, 1000)
    b = compare_laplace(cfg, ONE, 1.0, 1000)
    assert a == b
    c = compare_laplace(cfg, ONE, 1.0, 1000, n_jobs=2)
    assert a == c  # parallel assembly is by replicate index


def test_standard_error_scales_as_inverse_sqrt_n():
    cfg = cfg_of(PURE_DEATH, [0.0, 0.0, 0.0], 0.3, 28)
    ses = [estimate_laplace(cfg, ONE, 0.3, n).std_error for n in (1000, 10_000, 100_000)]
    for a, b in zip(ses, ses[1:]):
        ratio = a / b
        assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0)


def test_snapshot_profile_initial_time_exact():
    cfg = SimConfig(PURE_DEATH, AgeMeasure.point(0.0, 7), 1.0, (0.0, 0.5, 1.0), None, 29)
    prof = snapshot_profile(cfg, ONE, 300)
    t0, mass0, f0 = prof[0]
    assert t0 == 0.0 and mass0.value == 7.0 and mass0.std_error == 0.0
    assert f0.value == 7.0
    # masses decay in the mean
    assert prof[0][1].value > prof[1][1].value > prof[2][1].value


def test_event_cap_exclusion_counted():
    # a marginal cap truncates only the busy tail of paths
    cfg = SimConfig(CRITICAL, AgeMeasure.point(0.0), 2.0, (2.0,), None, 30, 0, 4)
    est = estimate_mean(cfg, ONE, 2.0, 300)
    assert est.excluded > 0
    assert est.replicates + est.excluded == 300
    # when almost every path is truncated the estimator refuses
    hopeless = SimConfig(CRITICAL, AgeMeasure.point(0.0, 60), 4.0, (4.0,), None, 30, 0, 2)
    with pytest.raises(RuntimeError, match="event cap"):
        estimate_mean(hopeless, ONE, 4.0, 50)


def test_comparison_report_sided_semantics():
    mc = McEstimate(1.0, 0.1, 100, 0)
    assert ComparisonReport("x", mc, 1.2, 0.0, sided="upper").verdict
    assert not ComparisonReport("x", mc, 0.5, 0.0, sided="upper").verdict
    assert ComparisonReport("x", mc, 0.9, 0.0, sided="lower").verdict
    assert not ComparisonReport("x", mc, 1.5, 0.0, sided="lower").verdict
    exact = McEstimate(0.5, 0.0, 10, 0)
    assert ComparisonReport("x", exact, 0.5, 0.0).z == 0.0
    assert not math.isfinite(ComparisonReport("x", exact, 0.6, 0.0).z)


# ---------------------------------------------------------------------------
# Replicate chunks read from observers against chunks read from AgeMeasure
# snapshots (tests/oracles.py), and the one-pass martingale check and control.
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SMOOTH = ScalarField.exp_decay(1.0, 0.7, 0.2)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def chunk_cases():
    regimes = BranchingModel(
        ScalarField.step([0.4, 1.0], [0.5, 3.0, 1.5]),
        OffspringLaw((OffspringPmf.table({0: 0.3, 2: 0.7}), OffspringPmf.geometric(0.4),
                      OffspringPmf.poisson(0.8)), (0.3, 1.2)),
    )
    groups = ImmigrationMechanism.parametric(
        1.5, GroupSizeLaw.table({1: 0.5, 3: 0.5}), age_atoms=((0.0, 0.5), (0.8, 0.5))
    )
    snaps = tuple(np.linspace(0.0, 1.5, 9))
    return [
        SimConfig(CRITICAL, AgeMeasure.from_ages([0.0, 0.5]), 1.5, snaps, None, 41),
        SimConfig(regimes, AgeMeasure.from_ages([0.1, 0.9, 2.0]), 1.5, snaps, groups, 42),
        SimConfig(SUBCRITICAL, AgeMeasure.empty(), 1.5, snaps, ImmigrationMechanism.single_arrivals(2.0), 43),
        SimConfig(PURE_DEATH, AgeMeasure.point(0.0, 4), 1.5, snaps, None, 44),  # extinction
        SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 1.5, snaps, None, 45, 0, 5),  # some capped
    ]


@pytest.mark.parametrize("case", range(5))
def test_run_chunk_modes_match_object_trajectories(case):
    cfg = chunk_cases()[case]
    for mode in ("laplace", "integral", "extinct", "growth", "profile"):
        for f in (ONE, SMOOTH, ScalarField.step([0.5], [1.0, 0.2])):
            job = _ReplicateJob(cfg, mode, f, stream=3)
            assert same_bits(_run_chunk(job, 5, 45), run_chunk_objects(job, 5, 45)), (mode, f)
    for g_name in ("identity", "exp", "square"):
        job = _ReplicateJob(cfg, "martingale", SMOOTH, stream=3, g_name=g_name)
        new, old = _run_chunk(job, 5, 45), run_chunk_objects(job, 5, 45)
        assert same_bits(new[:, 2], old[:, 1])
        # the residual of the pair is the one-pass residual, bit for bit
        assert same_bits(new[:, 0] - new[:, 1], old[:, 0]), g_name


def test_capped_chunk_rows_are_flagged():
    job = _ReplicateJob(chunk_cases()[4], "growth", ONE, stream=3)
    data = _run_chunk(job, 0, 40)
    capped = data[:, -1] == 1.0
    assert capped.any() and not capped.all()
    assert np.isnan(data[capped, :-1]).all() and not np.isnan(data[~capped]).any()


def test_martingale_suite_check_is_the_two_pass_check():
    for cfg, g_name in ((cfg_of(CRITICAL, [0.0], 1.0, 19), "exp"),
                        (chunk_cases()[1], "identity"), (chunk_cases()[2], "square")):
        check, control = martingale_suite(cfg, g_name, SMOOTH, 1.0, 700, stream=4)
        assert check == martingale_residual(cfg, g_name, SMOOTH, 1.0, 700, stream=4)
        job = _ReplicateJob(
            replace(cfg, t_end=1.0, snapshot_times=tuple(np.linspace(0.0, 1.0, 50))),
            "martingale", SMOOTH, 4, g_name,
        )
        old = np.concatenate([run_chunk_objects(job, 0, 512), run_chunk_objects(job, 512, 700)])
        assert check.mc == _estimate(old[:, 0], old[:, 1], cfg.seed)
        assert control.name == f"control:martingale:{g_name}"
        assert control.mc.replicates == check.mc.replicates
        assert control.mc.excluded == check.mc.excluded


def test_martingale_residual_perturb_scales_the_integral():
    cfg = cfg_of(CRITICAL, [0.0], 1.0, 19)
    job = _ReplicateJob(
        replace(cfg, snapshot_times=tuple(np.linspace(0.0, 1.0, 50))), "martingale", ONE, 5
    )
    data = _run_chunk(job, 0, 300)
    bad = martingale_residual(cfg, "exp", ONE, 1.0, 300, stream=5, perturb=0.05)
    assert bad.name == "martingale:exp"
    assert bad.mc == _estimate(data[:, 0] - 1.05 * data[:, 1], data[:, 2], cfg.seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_martingale_control_has_power_on_bench_critical(seed):
    # validate's own streams and snapshot grid; the check must pass and its
    # control fail at every replicate count, not only above ~22k replicates
    run = load_config(CONFIG_DIR / "bench_critical.json")
    sim = replace(run.sim_config(), seed=seed)
    for n in (2000, 10_000):
        check, control = martingale_suite(sim, "exp", run.f, run.t_end, n, stream=30)
        assert check.verdict, (n, check.z)
        assert not control.verdict and control.z < -3.0, (n, control.z)


def test_martingale_suite_t_zero_exact():
    check, control = martingale_suite(cfg_of(CRITICAL, [0.0], 1.0, 22), "exp", ONE, 0.0, 100)
    assert check.mc.value == 0.0 and check.mc.std_error == 0.0 and check.verdict
    assert control.name == "control:martingale:exp"
