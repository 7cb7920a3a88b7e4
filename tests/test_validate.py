import json
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
    stationary_laplace,
)
from agebranch.cli import _fmt, load_config, validation_suite
from agebranch.simulate import replicate_rng, simulate_paths
from agebranch.validate import (
    _CHUNK,
    McEstimate,
    ComparisonReport,
    Z_THRESHOLD,
    _collect,
    _ReplicateJob,
    _Rows,
    _run_chunk,
    snapshot_profile,
)
from oracles import ObjectTrajectory, benchmark_models, chunk_rows_objects
from agebranch.solvers import SolverGrid, survival_bound_rows, survival_lower_bound

ONE = ScalarField.constant(1.0)
NO_IMMIGRATION = ImmigrationMechanism.none()
ZERO = ScalarField.constant(0.0)
CRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
PURE_DEATH = BranchingModel(ONE, OffspringLaw.table({0: 1.0}))
SUBCRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))


def cfg_of(model, ages, t_end, seed, imm=NO_IMMIGRATION):
    return SimConfig(model, AgeMeasure.from_ages(ages), t_end, (t_end,), imm, seed)


def test_estimate_laplace_zero_field_exact():
    est = estimate_laplace(cfg_of(CRITICAL, [0.0], 1.0, 1), ZERO, 1.0, 500)
    assert est.value == 1.0 and est.std_error == 0.0


def test_estimate_laplace_empty_initial_exact():
    est = estimate_laplace(cfg_of(CRITICAL, [], 1.0, 1), ONE, 1.0, 500)
    assert est.value == 1.0 and est.std_error == 0.0


def test_laplace_analytic_critical_benchmark():
    value, tol = laplace_analytic(CRITICAL, NO_IMMIGRATION, AgeMeasure.point(0.0), ONE, 1.0, 1e-3)
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


def test_zero_rate_limit_is_one_and_ergodic_convergence_refuses_it():
    assert stationary_laplace(SUBCRITICAL, NO_IMMIGRATION, ONE).value == 1.0
    with pytest.raises(ValueError, match="needs an immigration mechanism"):
        ergodic_convergence(cfg_of(SUBCRITICAL, [], 4.0, 43), ONE, [2.0, 4.0], 100)


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


def test_bound_suite_counts_arrivals():
    # zero-rate immigration leaves every value as without it, bit for bit
    plain = bound_suite(cfg_of(CRITICAL, [0.0], 1.0, 16), 1.0, 300)
    zero = bound_suite(cfg_of(CRITICAL, [0.0], 1.0, 16, imm=ImmigrationMechanism.none()), 1.0, 300)
    assert zero == plain
    # pure death (c0 = -1, beta = 0, c1 = 1) from 2 particles with rate-3 single arrivals
    t = 1.5
    cfg = cfg_of(PURE_DEATH, [0.0, 0.0], t, 31, imm=ImmigrationMechanism.single_arrivals(3.0))
    sup, events, mass = bound_suite(cfg, t, 1000)
    assert sup.analytic == pytest.approx(2.0 + 3.0 * t, rel=1e-14)
    assert events.analytic == pytest.approx(2.0 * t + 3.0 * t * t / 2.0, rel=1e-14)
    assert mass.analytic == pytest.approx(2.0 * math.exp(-t) + 3.0 * -math.expm1(-t), rel=1e-14)
    assert sup.verdict and events.verdict and mass.verdict
    # group sizes with an infinite mean: vacuous bounds, never a refusal
    zeta2 = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.zeta_tail(2.0))
    for r in bound_suite(cfg_of(SUBCRITICAL, [0.0], 1.0, 32, imm=zeta2), 1.0, 200):
        assert math.isinf(r.analytic) and r.verdict


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
    cfg = SimConfig(PURE_DEATH, AgeMeasure.point(0.0, 7), 1.0, (0.0, 0.5, 1.0), NO_IMMIGRATION, 29)
    prof = snapshot_profile(cfg, ONE, 300)
    t0, mass0, f0 = prof[0]
    assert t0 == 0.0 and mass0.value == 7.0 and mass0.std_error == 0.0
    assert f0.value == 7.0
    # masses decay in the mean
    assert prof[0][1].value > prof[1][1].value > prof[2][1].value


def test_event_cap_exclusion_counted():
    # a marginal cap truncates only the busy tail of paths
    cfg = SimConfig(CRITICAL, AgeMeasure.point(0.0), 2.0, (2.0,), NO_IMMIGRATION, 30, 0, 4)
    est = estimate_mean(cfg, ONE, 2.0, 300)
    assert est.excluded > 0
    assert est.replicates + est.excluded == 300
    # when almost every path is truncated the estimator refuses
    hopeless = SimConfig(CRITICAL, AgeMeasure.point(0.0, 60), 4.0, (4.0,), NO_IMMIGRATION, 30, 0, 2)
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
# Replicate chunks reduced in one vectorised pass against the same chunk's
# paths read one at a time from AgeMeasure snapshots and event logs
# (tests/oracles.py), and the one-pass martingale check and control.
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SMOOTH = ScalarField.exp_decay(1.0, 0.7, 0.2)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def chunk_objects(job, start, stop):
    """The paths of ``_run_chunk(job, start, stop)``, one ``ObjectTrajectory`` each."""
    paths = simulate_paths(
        job.cfg, replicate_rng(job.cfg.seed, job.stream, start // _CHUNK), stop - start,
        log_events=True,
    )
    trajs = (paths.trajectory(p) for p in range(len(paths)))
    return [ObjectTrajectory(tuple(t.snapshots), t.events, t.terminated_by, t.initial) for t in trajs]


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
        SimConfig(CRITICAL, AgeMeasure.from_ages([0.0, 0.5]), 1.5, snaps, NO_IMMIGRATION, 41),
        SimConfig(regimes, AgeMeasure.from_ages([0.1, 0.9, 2.0]), 1.5, snaps, groups, 42),
        SimConfig(SUBCRITICAL, AgeMeasure.empty(), 1.5, snaps, ImmigrationMechanism.single_arrivals(2.0), 43),
        SimConfig(PURE_DEATH, AgeMeasure.point(0.0, 4), 1.5, snaps, NO_IMMIGRATION, 44),  # extinction
        SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 1.5, snaps, NO_IMMIGRATION, 45, 0, 5),  # some capped
    ]


@pytest.mark.parametrize("case", range(5))
def test_run_chunk_rows_match_object_trajectories(case):
    # the one row layout equals the per-path computation on the same chunk's
    # paths: bit for bit where the sums run in the same order, and
    # G(v_T) - G(v_0) within 1e-12 where exp is taken over an array instead
    # of one value
    cfg = chunk_cases()[case]
    k = len(cfg.snapshot_times)
    for start, stop in ((0, 40), (_CHUNK, _CHUNK + 40)):
        objects = chunk_objects(_ReplicateJob(cfg, ONE, 3), start, stop)
        for reads in ((k - 1,), (0, 3, k - 1), tuple(range(k))):
            for f in (ONE, SMOOTH, ScalarField.step([0.5], [1.0, 0.2])):
                job = _ReplicateJob(cfg, f, 3, reads)
                assert same_bits(_run_chunk(job, start, stop), chunk_rows_objects(job, objects)), (reads, f)
        for g_name in ("identity", "exp", "square"):
            job = _ReplicateJob(cfg, SMOOTH, 3, (k - 1,), g_name)
            new = _run_chunk(job, start, stop)
            old = chunk_rows_objects(job, objects)
            assert same_bits(np.delete(new, -3, axis=1), np.delete(old, -3, axis=1)), g_name
            assert np.allclose(new[:, -3], old[:, -3], rtol=1e-12, atol=0.0, equal_nan=True), g_name


@pytest.mark.parametrize("n", [511, 512, 513, 1100])
def test_collect_is_the_same_at_any_parallelism(n):
    # chunk bounds and streams depend on the replicate count only
    job = _ReplicateJob(chunk_cases()[1], SMOOTH, 6, tuple(range(9)), "exp")
    assert same_bits(_collect(job, n, 1).data, _collect(job, n, 2).data)


def test_capped_chunk_rows_are_flagged():
    data = _run_chunk(_ReplicateJob(chunk_cases()[4], ONE, 3), 0, 40)
    capped = data[:, -1] == 1.0
    assert capped.any() and not capped.all()
    assert np.isnan(data[capped, :-1]).all() and not np.isnan(data[~capped]).any()


def martingale_job(cfg, f, stream, g_name="exp"):
    snaps = tuple(np.linspace(0.0, 1.0, 50))
    return _ReplicateJob(replace(cfg, t_end=1.0, snapshot_times=snaps), f, stream, (-1,), g_name)


def test_martingale_suite_check_is_the_two_pass_check():
    for cfg, g_name in ((cfg_of(CRITICAL, [0.0], 1.0, 19), "exp"),
                        (chunk_cases()[1], "identity"), (chunk_cases()[2], "square")):
        check, control = martingale_suite(cfg, g_name, SMOOTH, 1.0, 700, stream=4)
        assert check == martingale_residual(cfg, g_name, SMOOTH, 1.0, 700, stream=4)
        job = martingale_job(cfg, SMOOTH, 4, g_name)
        old = np.concatenate(
            [chunk_rows_objects(job, chunk_objects(job, s, e)) for s, e in ((0, 512), (512, 700))]
        )
        assert check.mc == _Rows(job, old).estimate(old[:, -3] - old[:, -2])
        assert control.name == f"control:martingale:{g_name}"
        assert control.mc.replicates == check.mc.replicates
        assert control.mc.excluded == check.mc.excluded


def test_martingale_residual_perturb_scales_the_integral():
    cfg = cfg_of(CRITICAL, [0.0], 1.0, 19)
    job = martingale_job(cfg, ONE, 5)
    data = _run_chunk(job, 0, 300)
    bad = martingale_residual(cfg, "exp", ONE, 1.0, 300, stream=5, perturb=0.05)
    assert bad.name == "martingale:exp"
    assert bad.mc == _Rows(job, data).estimate(data[:, -3] - 1.05 * data[:, -2])


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


@pytest.mark.parametrize("name", ["pure_death_imm", "subcritical_imm"])
def test_martingale_control_fails_whenever_the_check_passes(name):
    # validate's stream and horizon at small replicate counts, where a control
    # that scales the generator integral lacked power (z = 2.86 on
    # pure_death_imm, seed 3, 200 replicates)
    run = load_config(CONFIG_DIR / f"{name}.json")
    for seed in (1, 2, 3, 4, 5):
        sim = replace(run.sim_config(), seed=seed)
        for n in (20, 200):
            check, control = martingale_suite(sim, "exp", run.f, run.t_end, n, stream=10)
            assert not (check.verdict and control.verdict), (seed, n, check.z, control.z)


def test_martingale_suite_t_zero_exact():
    check, control = martingale_suite(cfg_of(CRITICAL, [0.0], 1.0, 22), "exp", ONE, 0.0, 100)
    assert check.mc.value == 0.0 and check.mc.std_error == 0.0 and check.verdict
    assert control.name == "control:martingale:exp" and not control.verdict


# ---------------------------------------------------------------------------
# One path set per command: every public estimator keeps the bits it had when
# each check simulated its own set, and the suites are those estimators read
# from one set.
# ---------------------------------------------------------------------------

GOLDENS = json.loads((Path(__file__).resolve().parent / "estimator_goldens.json").read_text())


def flat(x):
    """Reports and estimates as nested lists of their numbers, as JSON holds them."""
    if isinstance(x, McEstimate):
        return [x.value, x.std_error, x.replicates, x.seed, x.excluded]
    if isinstance(x, ComparisonReport):
        return [x.name, flat(x.mc), x.analytic, x.analytic_tol, x.sided]
    if isinstance(x, (list, tuple)):
        return [flat(y) for y in x]
    return x


@pytest.mark.parametrize("case", ["age_varying", "subcritical_imm", "capped"])
def test_estimators_keep_their_golden_bits(case):
    # recorded when every estimator simulated a set of its own, 600 replicates on stream 3
    n, stream = 600, 3
    if case == "capped":  # an event cap of 5 truncates many paths
        cfg, f, t = SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 1.5, (1.5,), NO_IMMIGRATION, 45, 0, 5), ONE, 1.5
    else:
        run = load_config(CONFIG_DIR / f"{case}.json")
        cfg, f, t = run.sim_config(), run.f, {"age_varying": 1.0, "subcritical_imm": 5.0}[case]
    profile_cfg = replace(cfg, t_end=t, snapshot_times=tuple(np.linspace(0.0, t, 5)))
    got = {
        "estimate_laplace": estimate_laplace(cfg, f, t, n, stream),
        "estimate_mean": estimate_mean(cfg, f, t, n, stream),
        "estimate_extinction": estimate_extinction(cfg, t, n, stream),
        "snapshot_profile": snapshot_profile(profile_cfg, f, n, stream),
        "bound_suite": bound_suite(cfg, t, n, stream),
        "martingale_residual": martingale_residual(cfg, "exp", f, t, n, stream, perturb=0.05),
        "martingale_suite": martingale_suite(cfg, "identity", f, t, n, stream),
        "compare_laplace": compare_laplace(cfg, f, t, n, dt=1e-2, stream=stream),
        "compare_mean": compare_mean(cfg, f, t, n, dt=1e-2, stream=stream),
    }
    assert {k: flat(v) for k, v in got.items()} == GOLDENS[case]


@pytest.mark.parametrize("config, t_end, f, quadrature", [
    ("bench_critical", 1.0, None, "trapezoid"),
    ("pure_death_imm", 2.0, None, "trapezoid"),
    ("age_varying", 1.0, ScalarField.step([0.5], [1.0, 0.2]), "trapezoid"),  # no martingale check
    # grids the memo cannot share: an odd step count has no coarse grid to the same
    # horizon, and the identity checks of a rectangle config solve with the trapezoid rule
    ("bench_critical", 1.01, None, "trapezoid"),
    ("pure_death_imm", 2.0, None, "rectangle"),
])
def test_validation_suite_is_the_public_checks_on_stream_10(config, t_end, f, quadrature):
    run = replace(load_config(CONFIG_DIR / f"{config}.json"), replicates=700, t_end=t_end, grid_dt=1e-2,
                  quadrature=quadrature)
    if f is not None:
        run = replace(run, f=f)
    sim, n, dt = run.sim_config(), run.replicates, run.grid_dt
    lap = compare_laplace(sim, run.f, t_end, n, dt=dt, stream=10)
    mean = compare_mean(sim, run.f, t_end, n, dt=dt, stream=10)
    expected = [lap, control_report(lap), mean, control_report(mean)]
    if f is None:
        expected += martingale_suite(sim, "exp", run.f, t_end, n, stream=10)
    expected += bound_suite(sim, t_end, n, stream=10)
    expected += solver_bound_checks(run.model, run.f, SolverGrid(dt, t_end, run.quadrature))
    assert validation_suite(run) == expected


def test_ergodic_last_horizon_is_compare_laplace():
    cfg = cfg_of(PURE_DEATH, [], 4.0, 24, imm=ImmigrationMechanism.single_arrivals(3.0))
    _, reports, _ = ergodic_convergence(cfg, ONE, [2.0, 1.0, 4.0], 700, dt=5e-3, stream=7)
    assert [r.name for r in reports] == ["ergodic:T=2", "ergodic:T=1", "ergodic:T=4"]
    assert reports[-1] == compare_laplace(cfg, ONE, 4.0, 700, dt=5e-3, stream=7, name="ergodic:T=4")


# ---------------------------------------------------------------------------
# One solve per boundary: the suite's solver rows keep the bits they had when
# the lattice checks solved their own boundaries.
# ---------------------------------------------------------------------------

SOLVER_ROWS = json.loads((Path(__file__).resolve().parent / "solver_row_goldens.json").read_text())


@pytest.mark.parametrize("config", sorted(SOLVER_ROWS))
def test_solver_rows_keep_their_golden_bytes(config):
    # the checks.csv rows as recorded when each check solved its own boundaries; the four
    # 10,000-step grids are cut to about 2,000 steps (t_end in the file) for the suite's time
    golden = SOLVER_ROWS[config]
    run = replace(load_config(CONFIG_DIR / f"{config}.json"), t_end=golden["t_end"], replicates=2)
    grid = SolverGrid(run.grid_dt, run.t_end, run.quadrature)
    line = lambda r: ",".join(map(_fmt, r.row()))
    assert [line(r) for r in solver_bound_checks(run.model, run.f, grid)] == golden["rows"]
    if config != "heavy_tail_imm":  # whose validate refuses its infinite mean group size
        suite = [line(r) for r in validation_suite(run) if r.name.startswith("solver:")]
        assert suite == golden["rows"]


def test_validate_refuses_an_infinite_mean_group_size_before_simulating(monkeypatch):
    def no_paths(*args, **kwargs):
        raise RuntimeError("simulate_paths called")

    monkeypatch.setattr("agebranch.validate.simulate_paths", no_paths)
    with pytest.raises(ValueError, match="mean group size is infinite"):
        validation_suite(load_config(CONFIG_DIR / "heavy_tail_imm.json"))


def test_solution_memo_refuses_another_field():
    grid, memo = SolverGrid(1e-2, 1.0), {}
    solver_bound_checks(CRITICAL, ONE, grid, memo)
    assert set(memo) == {(eq, g) for eq in ("exponent", "mean") for g in (grid, SolverGrid(2e-2, 1.0))}
    assert solver_bound_checks(CRITICAL, ONE, grid, memo) == solver_bound_checks(CRITICAL, ONE, grid)
    with pytest.raises(ValueError, match="another model or field"):
        solver_bound_checks(CRITICAL, ScalarField.constant(2.0), grid, memo)


def test_survival_lower_bound_off_grid_time_keeps_ceil():
    # t = 10.5 dt is no grid time: the hazard takes ceil(t / dt) = 11 trapezoid steps
    model = BranchingModel(ScalarField.exp_decay(1.5, 3.0, 0.5), CRITICAL.offspring)
    t, x, dt = 0.0105, 0.25, 1e-3
    s = np.linspace(0.0, t, 12)
    vals = np.asarray(model.alpha(x + s))
    hazard = (t / 11) * (vals[0] / 2.0 + vals[1:-1].sum() + vals[-1] / 2.0)
    expect = -math.expm1(-float(SMOOTH(x + t))) * math.exp(-hazard)
    assert survival_lower_bound(model, SMOOTH, t, x, dt) == pytest.approx(expect, rel=1e-14)


def test_verdict_sides_at_z_threshold():
    def report(value, sided):
        return ComparisonReport("r", McEstimate(value, 1.0, 100, 0), 0.0, 0.0, sided)

    edge, past = Z_THRESHOLD, math.nextafter(Z_THRESHOLD, math.inf)
    assert report(edge, "two").verdict and report(-edge, "two").verdict
    assert not report(past, "two").verdict and not report(-past, "two").verdict
    assert report(edge, "upper").verdict and report(-100.0, "upper").verdict
    assert not report(past, "upper").verdict
    assert report(-edge, "lower").verdict and report(100.0, "lower").verdict
    assert not report(-past, "lower").verdict


@pytest.mark.parametrize("case", ["age_varying", "rising", "off_step_rows"])
def test_survival_bound_rows_are_survival_lower_bound(case):
    # a step alpha: the lattice takes survival_lower_bound's trapezoid hazard along
    # each ray in place of c1 t; the rising one's hazard is below c1 t past age 0.5
    # (a binary dt puts survival_lower_bound's own nodes exactly on the grid).  At
    # dt = 1e-3, (i dt) / dt rounds above i for i = 1001 and 1003, where ceil(t / dt)
    # would take one step more than the grid.
    if case == "rising":
        model = BranchingModel(ScalarField.step([0.5], [0.5, 2.0]), CRITICAL.offspring)
        f, grid = SMOOTH, SolverGrid(2.0**-6, 2.0)
    else:
        run = load_config(CONFIG_DIR / "age_varying.json")
        model, f, grid = run.model, run.f, SolverGrid(run.grid_dt, run.t_end, run.quadrature)
        if case == "off_step_rows":
            grid = SolverGrid(1e-3, 2.0)
    assert not model.alpha.is_constant
    n, dt = grid.n_steps, grid.dt
    rows = list(survival_bound_rows(model, f, grid))
    assert [len(r) for r in rows] == list(range(n + 1, 0, -1))
    rng = np.random.default_rng(12)
    picks = [1000, 1001, 1003] if case == "off_step_rows" else [0, 1, n, *rng.integers(0, n + 1, 40)]
    for i in picks:
        for d in {0, n - i, int(rng.integers(0, n + 1 - i))}:
            node = survival_lower_bound(model, f, i * dt, d * dt, dt)
            assert abs(rows[i][d] - node) <= 1e-12
