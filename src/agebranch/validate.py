"""Monte-Carlo estimators and the statistical layer tying simulator to solvers.

Identity claims (Laplace functional, first moments, martingale residuals) are
tested two-sided at |z| <= 3 with the solver's certified numerical tolerance
added in quadrature to the Monte-Carlo standard error.  Inequality claims
(growth and event-count bounds) are tested one-sided: the estimate minus three
standard errors must not exceed the bound.  Every report is a pure function of
(seed, configuration): replicates draw from counter-based streams indexed by
(seed, check, replicate), so results are independent of scheduling and of the
degree of parallelism.

Each suite run also checks its own power: perturbed-analytic negative controls
must fail, otherwise the suite's acceptance is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Callable, Sequence

import numpy as np

from .measures import AgeMeasure, ScalarField
from .models import BranchingModel, ImmigrationMechanism, OffspringLaw, OffspringPmf
from .simulate import SimConfig, Trajectory, replicate_rng, simulate
from .solvers import (
    SolverGrid,
    ergodicity_check,
    immigration_exponent_integral,
    mean_with_immigration,
    solve_exponent,
    solve_mean,
    stationary_laplace,
)

__all__ = [
    "McEstimate",
    "ComparisonReport",
    "control_report",
    "estimate_laplace",
    "estimate_mean",
    "estimate_extinction",
    "laplace_analytic",
    "compare_laplace",
    "compare_mean",
    "bound_suite",
    "solver_bound_checks",
    "martingale_residual",
    "martingale_suite",
    "ergodic_convergence",
    "observed_orders",
    "benchmark_models",
]

Z_THRESHOLD = 3.0
MARTINGALE_SNAPSHOTS = 50
_CHUNK = 512


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over independent replicates."""

    value: float
    std_error: float
    replicates: int
    seed: int
    excluded: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("standard error must be >= 0")


@dataclass(frozen=True)
class ComparisonReport:
    """One verdict comparing a Monte-Carlo estimate with an analytic value.

    ``sided`` is "two" for identities, "upper" for one-sided bounds (the
    estimate must not exceed ``analytic``) and "lower" for margins that must
    stay above ``analytic``.  ``z`` measures the discrepancy in combined
    standard deviations sqrt(std_error^2 + analytic_tol^2).
    """

    name: str
    mc: McEstimate
    analytic: float
    analytic_tol: float
    sided: str = "two"
    threshold: float = Z_THRESHOLD

    @property
    def z(self) -> float:
        sigma = math.hypot(self.mc.std_error, self.analytic_tol)
        diff = self.mc.value - self.analytic
        if sigma == 0.0:
            return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return diff / sigma

    @property
    def verdict(self) -> bool:
        if self.sided == "upper":
            return self.z <= self.threshold
        if self.sided == "lower":
            return self.z >= -self.threshold
        return abs(self.z) <= self.threshold

    def row(self) -> list:
        return [
            self.name,
            self.mc.value,
            self.mc.std_error,
            self.analytic,
            self.analytic_tol,
            self.z,
            "pass" if self.verdict else "fail",
        ]


def control_report(report: ComparisonReport) -> ComparisonReport:
    """Negative control: shift the analytic value until the check must fail.

    The shift is max(0.05, 10 combined sigma), so a healthy harness flags it
    regardless of the scale of the quantity under test.
    """
    sigma = math.hypot(report.mc.std_error, report.analytic_tol)
    shift = max(0.05, 10.0 * sigma)
    return replace(report, name=f"control:{report.name}", analytic=report.analytic + shift)


# ---------------------------------------------------------------------------
# Replicate collection: one job object describes one scalar-per-path extractor;
# chunks of replicates run in-process or in a fork pool, and results are
# reassembled by replicate index so parallelism cannot change any number.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReplicateJob:
    cfg: SimConfig
    mode: str  # "laplace" | "integral" | "extinct" | "growth" | "martingale" | "profile"
    f: ScalarField
    stream: int
    g_name: str = "exp"

    def columns(self) -> int:
        if self.mode in ("growth", "martingale"):
            return 3
        if self.mode == "profile":
            return 2 * len(self.cfg.snapshot_times) + 1
        return 2


def _run_chunk(job: _ReplicateJob, start: int, stop: int) -> np.ndarray:
    # Every mode reads the path's observers; the last column flags paths cut
    # by the event cap, which carry no usable statistics and are counted and
    # excluded downstream.
    out = np.empty((stop - start, job.columns()))
    pair = _martingale_pair_fn(job) if job.mode == "martingale" else None
    for r in range(start, stop):
        rng = replicate_rng(job.cfg.seed, job.stream, r)
        traj = simulate(job.cfg, rng, log_events=False)
        row = out[r - start]
        if traj.terminated_by == "event_cap":
            row[:] = np.nan
            row[-1] = 1.0
            continue
        row[-1] = 0.0
        if job.mode == "laplace":
            row[0] = math.exp(-traj.integrals(job.f)[-1])
        elif job.mode == "integral":
            row[0] = traj.integrals(job.f)[-1]
        elif job.mode == "extinct":
            row[0] = 1.0 if traj.snapshot_masses[-1] == 0 else 0.0
        elif job.mode == "growth":
            row[0] = traj.max_mass
            row[1] = traj.branches
        elif job.mode == "profile":
            k = len(traj.snapshot_masses)
            row[0:k] = traj.snapshot_masses
            row[k : 2 * k] = traj.integrals(job.f)
        else:
            row[0], row[1] = pair(traj)
    return out


def _collect(job: _ReplicateJob, n: int, n_jobs: int = 1) -> np.ndarray:
    if n < 2:
        raise ValueError("need at least 2 replicates")
    bounds = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if n_jobs <= 1 or len(bounds) == 1:
        parts = [_run_chunk(job, s, e) for s, e in bounds]
    else:
        with get_context("fork").Pool(n_jobs) as pool:
            parts = pool.starmap(_run_chunk, [(job, s, e) for s, e in bounds])
    return np.concatenate(parts, axis=0)


def _estimate(values: np.ndarray, flags: np.ndarray, seed: int) -> McEstimate:
    good = values[flags == 0.0]
    excluded = int(np.sum(flags != 0.0))
    if len(good) < 2:
        raise RuntimeError("too many replicates hit the event cap to form an estimate")
    mean = float(np.mean(good))
    se = float(np.std(good, ddof=1) / math.sqrt(len(good)))
    return McEstimate(mean, se, len(good), seed, excluded)


def _sim_at(cfg: SimConfig, t: float, snapshots: tuple[float, ...] | None = None) -> SimConfig:
    return replace(cfg, t_end=t, snapshot_times=snapshots if snapshots is not None else (t,))


def estimate_laplace(
    cfg: SimConfig, f: ScalarField, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo mean of exp(-<X_t, f>); values lie in [0, 1].

    Paths cut by the event cap are excluded from the mean and counted in
    ``excluded`` (their inclusion would bias the estimate).  Degenerate cases
    (zero field, or empty initial state with no immigration) are exact.
    """
    if f.sup == 0.0:
        return McEstimate(1.0, 0.0, n, cfg.seed)
    if not cfg.initial.ages and (cfg.immigration is None or cfg.immigration.total_rate == 0.0):
        return McEstimate(1.0, 0.0, n, cfg.seed)
    job = _ReplicateJob(_sim_at(cfg, t), "laplace", f, stream)
    data = _collect(job, n, n_jobs)
    return _estimate(data[:, 0], data[:, 1], cfg.seed)


def estimate_mean(
    cfg: SimConfig, f: ScalarField, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo mean of <X_t, f>."""
    job = _ReplicateJob(_sim_at(cfg, t), "integral", f, stream)
    data = _collect(job, n, n_jobs)
    return _estimate(data[:, 0], data[:, 1], cfg.seed)


def estimate_extinction(
    cfg: SimConfig, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo frequency of the population being empty at time t."""
    job = _ReplicateJob(_sim_at(cfg, t), "extinct", ScalarField.constant(1.0), stream)
    data = _collect(job, n, n_jobs)
    return _estimate(data[:, 0], data[:, 1], cfg.seed)


def snapshot_profile(
    cfg: SimConfig, f: ScalarField, n: int, stream: int = 0, n_jobs: int = 1
) -> list[tuple[float, McEstimate, McEstimate]]:
    """Per-snapshot (time, mass estimate, integral-of-f estimate), one pass."""
    job = _ReplicateJob(cfg, "profile", f, stream)
    data = _collect(job, n, n_jobs)
    flags = data[:, -1]
    k = len(cfg.snapshot_times)
    out = []
    for i, t in enumerate(cfg.snapshot_times):
        out.append(
            (t, _estimate(data[:, i], flags, cfg.seed), _estimate(data[:, k + i], flags, cfg.seed))
        )
    return out


def laplace_analytic(
    model: BranchingModel,
    imm: ImmigrationMechanism | None,
    initial: AgeMeasure,
    f: ScalarField,
    t: float,
    dt: float,
    quadrature: str = "trapezoid",
) -> tuple[float, float]:
    """Analytic Laplace functional with a Richardson error estimate.

    Solves the exponent at dt and 2 dt; the difference scaled by the scheme
    order certifies the returned fine-grid value.
    """

    def value(step: float) -> float:
        # land the horizon exactly on t so the arrival integral covers [0, t]
        n_steps = max(1, math.ceil(t / step - 1e-12))
        grid = SolverGrid(t / n_steps, t, quadrature)
        sol = solve_exponent(model, f, grid)
        expo = sum(float(v) for v in sol.rays(initial.ages)[:, -1])
        if imm is not None and imm.total_rate > 0.0:
            integral, _ = immigration_exponent_integral(model, imm, f, grid, sol)
            expo += integral
        return math.exp(-expo)

    fine = value(dt)
    coarse = value(2 * dt)
    order = 2 if quadrature == "trapezoid" else 1
    tol = abs(fine - coarse) / (2**order - 1)
    return fine, tol


def compare_laplace(
    cfg: SimConfig,
    f: ScalarField,
    t: float,
    n: int,
    dt: float = 1e-3,
    stream: int = 0,
    n_jobs: int = 1,
    name: str = "laplace",
) -> ComparisonReport:
    """Simulated Laplace functional against the exponent solver, two-sided."""
    mc = estimate_laplace(cfg, f, t, n, stream, n_jobs)
    analytic, tol = laplace_analytic(cfg.model, cfg.immigration, cfg.initial, f, t, dt)
    return ComparisonReport(name, mc, analytic, tol)


def compare_mean(
    cfg: SimConfig,
    f: ScalarField,
    t: float,
    n: int,
    dt: float = 1e-3,
    stream: int = 0,
    n_jobs: int = 1,
    name: str = "mean",
) -> ComparisonReport:
    """Simulated first moment against the moment-kernel solver, two-sided."""
    mc = estimate_mean(cfg, f, t, n, stream, n_jobs)

    def value(step: float) -> float:
        n_steps = max(1, math.ceil(t / step - 1e-12))
        grid = SolverGrid(t / n_steps, t, "trapezoid")
        return mean_with_immigration(cfg.model, cfg.immigration, f, cfg.initial, grid)

    fine, coarse = value(dt), value(2 * dt)
    tol = abs(fine - coarse) / 3.0
    return ComparisonReport(name, mc, fine, tol)


def bound_suite(
    cfg: SimConfig, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> list[ComparisonReport]:
    """One-sided Monte-Carlo checks of the pathwise growth bounds.

    The running supremum of the population size is bounded in mean by the
    initial mass times exp(beta t); the branch-event count by sup(alpha) times
    initial mass times the integral of exp(beta s); and the mean mass by the
    initial mass times exp(c0 t).
    """
    c0, c1, beta = cfg.model.constants()
    m0 = float(cfg.initial.total_mass)
    job = _ReplicateJob(_sim_at(cfg, t), "growth", ScalarField.constant(1.0), stream)
    data = _collect(job, n, n_jobs)
    sup_est = _estimate(data[:, 0], data[:, 2], cfg.seed)
    n_est = _estimate(data[:, 1], data[:, 2], cfg.seed)
    mass_job = _ReplicateJob(_sim_at(cfg, t), "integral", ScalarField.constant(1.0), stream + 1)
    mass_data = _collect(mass_job, n, n_jobs)
    mass_est = _estimate(mass_data[:, 0], mass_data[:, 1], cfg.seed)

    int_exp_beta = t if beta == 0.0 else (math.exp(beta * t) - 1.0) / beta
    return [
        ComparisonReport("bound:sup_mass", sup_est, m0 * math.exp(beta * t), 0.0, sided="upper"),
        ComparisonReport("bound:branch_events", n_est, c1 * m0 * int_exp_beta, 0.0, sided="upper"),
        ComparisonReport("bound:mean_mass", mass_est, m0 * math.exp(c0 * t), 0.0, sided="upper"),
    ]


def solver_bound_checks(
    model: BranchingModel, f: ScalarField, grid: SolverGrid
) -> list[ComparisonReport]:
    """Deterministic inequalities at every characteristic lattice node.

    Checks that the exponent is nonnegative, dominates the single-particle
    survival bound, and is dominated by the moment kernel (Jensen), and that
    the moment kernel respects the exponential norm bound.  The inequalities
    are exact for the continuous objects but the lattice values carry scheme
    error, so the allowed slack is ten times the Richardson-certified boundary
    error of each solver (several bounds are tight, e.g. the norm bound at
    criticality).
    """
    c0, c1, _ = model.constants()
    usol = solve_exponent(model, f, grid, keep_lattice=True)
    msol = solve_mean(model, f, grid, keep_lattice=True)
    half = grid.n_steps // 2
    coarse = SolverGrid(2 * grid.dt, 2 * half * grid.dt, grid.quadrature)
    shared = slice(0, 2 * half + 1, 2)  # fine nodes that coincide with coarse nodes
    shift = 2**grid.order - 1
    cert_u = float(
        np.max(np.abs(usol.boundary[shared] - solve_exponent(model, f, coarse).boundary)) / shift
    )
    cert_p = float(
        np.max(np.abs(msol.boundary[shared] - solve_mean(model, f, coarse).boundary)) / shift
    )
    u = usol.lattice_exponents()
    p = msol.lattice_values()
    n = grid.n_steps
    times = grid.times()
    fv = np.asarray(f(times), dtype=np.float64)  # f at x + t = j dt along the lattice

    margins = {
        "solver:exponent_nonneg": [math.inf, cert_u],
        "solver:survival_lower_bound": [math.inf, cert_u],
        "solver:exponent_below_mean": [math.inf, cert_u + cert_p],
        "solver:mean_norm_bound": [math.inf, cert_p],
    }
    for i in range(n + 1):
        urow = u[i, i:]
        prow = p[i, i:]
        lower = -np.expm1(-fv[i:]) * math.exp(-c1 * times[i])
        norm_bound = math.exp(c0 * times[i]) * f.sup
        for name, value in (
            ("solver:exponent_nonneg", float(urow.min(initial=math.inf))),
            ("solver:survival_lower_bound", float((urow - lower).min(initial=math.inf))),
            ("solver:exponent_below_mean", float((prow - urow).min(initial=math.inf))),
            ("solver:mean_norm_bound", float((norm_bound - prow).min(initial=math.inf))),
        ):
            margins[name][0] = min(margins[name][0], value)
    return [
        ComparisonReport(
            name, McEstimate(margin, 0.0, 0, 0), 0.0, 1e-9 + 10.0 * cert, sided="lower"
        )
        for name, (margin, cert) in margins.items()
    ]


def martingale_residual(
    cfg: SimConfig,
    g_name: str,
    f: ScalarField,
    t: float,
    n: int,
    stream: int = 0,
    n_jobs: int = 1,
    perturb: float = 0.0,
    name: str | None = None,
) -> ComparisonReport:
    """Generator martingale residual, two-sided against zero.

    Estimates ``E[G(<X_t, f>)] - G(<X_0, f>) - integral_0^t E[L G_f(X_s)] ds``
    with the time integral taken by trapezoid over a fixed snapshot grid.
    ``perturb`` scales the generator term by (1 + perturb) for negative
    controls.  G comes from the smooth catalog ("identity", "exp", "square");
    f must be continuously differentiable.
    """
    data = _martingale_pairs(cfg, g_name, f, t, n, stream, n_jobs)
    return _residual_report(name or f"martingale:{g_name}", data, perturb, cfg.seed, n)


def martingale_suite(
    cfg: SimConfig,
    g_name: str,
    f: ScalarField,
    t: float,
    n: int,
    stream: int = 0,
    n_jobs: int = 1,
) -> list[ComparisonReport]:
    """The martingale check and its negative control, from one set of paths.

    The control scales the generator integral by ``1 + p`` with
    ``p = max(0.05, 10 se / |mean integral|)``, ``se`` the check's standard
    error (``p = 0.05`` when the mean integral is 0): the shift of the mean
    residual is then at least ten check standard errors, so a healthy harness
    flags the control at any replicate count.
    """
    name = f"martingale:{g_name}"
    data = _martingale_pairs(cfg, g_name, f, t, n, stream, n_jobs)
    check = _residual_report(name, data, 0.0, cfg.seed, n)
    integral = 0.0 if data is None else float(np.mean(data[data[:, 2] == 0.0, 1]))
    perturb = max(0.05, 10.0 * check.mc.std_error / abs(integral)) if integral else 0.05
    return [check, _residual_report(f"control:{name}", data, perturb, cfg.seed, n)]


def _martingale_pairs(
    cfg: SimConfig, g_name: str, f: ScalarField, t: float, n: int, stream: int, n_jobs: int
) -> np.ndarray | None:
    """Per-path ``(G(v_t) - G(v_0), integral of L G)`` and flag columns; None at t = 0."""
    if g_name not in _G_CATALOG:
        raise ValueError(f"unknown generator test function {g_name!r}")
    if t == 0.0:
        return None
    snaps = tuple(np.linspace(0.0, t, MARTINGALE_SNAPSHOTS))
    job = _ReplicateJob(_sim_at(cfg, t, snaps), "martingale", f, stream, g_name)
    return _collect(job, n, n_jobs)


def _residual_report(
    name: str, data: np.ndarray | None, perturb: float, seed: int, n: int
) -> ComparisonReport:
    """Residual ``G(v_t) - G(v_0) - (1 + perturb) * integral`` against zero."""
    if data is None:  # t = 0: the residual is exactly zero
        return ComparisonReport(name, McEstimate(0.0, 0.0, n, seed), 0.0, 0.0)
    est = _estimate(data[:, 0] - (1.0 + perturb) * data[:, 1], data[:, 2], seed)
    return ComparisonReport(name, est, 0.0, 0.0)


_G_CATALOG: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    "identity": (lambda v: v, lambda v: 1.0),
    "exp": (lambda v: math.exp(-v), lambda v: -math.exp(-v)),
    "square": (lambda v: v * v, lambda v: 2.0 * v),
}


def _martingale_pair_fn(job: _ReplicateJob) -> Callable[[Trajectory], tuple[float, float]]:
    """The per-path pair ``(G(v_T) - G(v_0), integral_0^T L G_f(X_s) ds)``.

    One pooled pass over all snapshot particles: every generator term
    factorizes into snapshot-level functions of v = <X_s, f> times
    per-particle sums, accumulated with bincount over the snapshot index.
    Everything that does not depend on the path is computed here, once.
    """
    model = job.cfg.model
    f = job.f
    imm = job.cfg.immigration
    g_name = job.g_name
    G, _ = _G_CATALOG[g_name]
    fprime, _ = f.derivative_fn()
    f0 = float(f(0.0))
    offspring = model.offspring

    imm_f1 = imm_f2 = psi_f = 0.0
    has_imm = imm is not None and imm.total_rate > 0.0
    if has_imm:
        if g_name == "exp":
            psi_f = imm.psi(f)
        else:
            imm_f1 = imm.first_moment_of(f)
            if math.isinf(imm_f1):
                raise ValueError("martingale check needs a finite mean group integral")
            if g_name == "square":
                imm_f2 = imm.second_moment_of(f)
                if math.isinf(imm_f2):
                    raise ValueError("martingale check needs a finite second group moment")

    n_snap = len(job.cfg.snapshot_times)
    snap_index = np.arange(n_snap)
    h = np.diff(np.array(job.cfg.snapshot_times))
    mean_by_regime = offspring.mean_by_regime()
    g0_by_regime = offspring.g_by_regime(math.exp(-f0))
    second_by_regime = offspring.second_moment_by_regime()

    def pair(traj: Trajectory) -> tuple[float, float]:
        ages = traj.snapshot_ages
        seg = np.repeat(snap_index, traj.snapshot_masses)
        fa = np.asarray(f(ages), dtype=np.float64)
        a_vals = np.asarray(model.alpha(ages), dtype=np.float64)
        ridx = offspring.regime_indices(ages)
        means = mean_by_regime[ridx]
        vs = np.bincount(seg, weights=fa, minlength=n_snap)
        seg_fp = np.bincount(seg, weights=fprime(ages), minlength=n_snap)

        if g_name == "identity":
            seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
            lg = seg_fp + seg_lin + (imm_f1 if has_imm else 0.0)
        elif g_name == "exp":
            g0 = g0_by_regime[ridx]
            seg_g = np.bincount(seg, weights=a_vals * (np.exp(fa) * g0 - 1.0), minlength=n_snap)
            lg = np.exp(-vs) * (-seg_fp + seg_g - (psi_f if has_imm else 0.0))
        else:
            second = second_by_regime[ridx]
            seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
            seg_sq = np.bincount(
                seg, weights=a_vals * (f0**2 * second - 2.0 * f0 * fa * means + fa**2),
                minlength=n_snap,
            )
            lg = 2.0 * vs * seg_fp + 2.0 * vs * seg_lin + seg_sq
            if has_imm:
                lg = lg + 2.0 * vs * imm_f1 + imm_f2

        integral = float(np.sum(h * (lg[:-1] + lg[1:]) / 2.0))
        return G(float(vs[-1])) - G(float(vs[0])), integral

    return pair


def ergodic_convergence(
    cfg: SimConfig,
    f: ScalarField,
    horizons: Sequence[float],
    n: int,
    tolerance: float = 1e-6,
    dt: float = 1e-3,
    stream: int = 0,
    n_jobs: int = 1,
) -> tuple[float, list[ComparisonReport], list[float]]:
    """Convergence of the immigration model toward its stationary law.

    For each horizon T the simulated Laplace functional is compared two-sided
    with the finite-T analytic value, and the gap between the finite-T value
    and the certified stationary value is reported; the gaps must shrink as T
    grows.  Refuses configurations that are not certified ergodic.
    """
    if cfg.immigration is None:
        raise ValueError("ergodic convergence needs an immigration mechanism")
    report = ergodicity_check(cfg.model, cfg.immigration)
    if report.status != "ergodic":
        raise ValueError(f"not certified ergodic: {report.status} ({report.detail})")
    stat = stationary_laplace(cfg.model, cfg.immigration, f, tolerance)
    reports: list[ComparisonReport] = []
    gaps: list[float] = []
    for k, T in enumerate(horizons):
        rep = compare_laplace(
            cfg, f, T, n, dt=dt, stream=stream + k, n_jobs=n_jobs, name=f"ergodic:T={T:g}"
        )
        reports.append(rep)
        gaps.append(abs(rep.analytic - stat.value))
    return stat.value, reports, gaps


def observed_orders(
    model: BranchingModel,
    f: ScalarField,
    t: float,
    reference: float,
    dts: Sequence[float],
    quadrature: str,
    which: str = "exponent",
) -> list[float]:
    """Empirical convergence orders of the boundary solvers against a closed form.

    Runs the requested solver at each dt, measures the boundary error at time
    t against the reference value, and returns log2 error ratios between
    consecutive step halvings.
    """
    errors = []
    for dt in dts:
        grid = SolverGrid(dt, max(1, round(t / dt)) * dt, quadrature)
        if which == "exponent":
            sol = solve_exponent(model, f, grid)
        else:
            sol = solve_mean(model, f, grid)
        errors.append(abs(sol.boundary_at(t) - reference))
    orders = []
    for a, b in zip(errors, errors[1:]):
        if b == 0.0:
            raise RuntimeError("error hit zero; cannot measure an order")
        orders.append(math.log2(a / b))
    return orders


def benchmark_models() -> dict[str, BranchingModel]:
    """Small catalog of models exercising the bound suite across regimes."""
    one = ScalarField.constant(1.0)
    return {
        "critical_binary": BranchingModel(one, OffspringLaw.table({0: 0.5, 2: 0.5})),
        "subcritical": BranchingModel(one, OffspringLaw.table({0: 0.6, 2: 0.4})),
        "pure_death": BranchingModel(ScalarField.constant(2.0), OffspringLaw.table({0: 1.0})),
        "supercritical": BranchingModel(one, OffspringLaw.table({0: 0.3, 2: 0.7})),
        "age_varying": BranchingModel(
            ScalarField.step([1.5], [2.0, 0.5]),
            OffspringLaw(
                (OffspringPmf.table({0: 0.3, 2: 0.7}), OffspringPmf.table({0: 0.8, 2: 0.2})),
                (1.5,),
            ),
        ),
    }
