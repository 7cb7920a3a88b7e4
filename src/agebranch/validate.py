"""Monte-Carlo estimators and the statistical layer tying simulator to solvers.

Identity claims (Laplace functional, first moments, martingale residuals) are
tested two-sided at |z| <= 3 with the solver's certified numerical tolerance
added in quadrature to the Monte-Carlo standard error.  Inequality claims
(growth and event-count bounds) are tested one-sided: the estimate minus three
standard errors must not exceed the bound.  Every report is a pure function of
(seed, configuration): replicates run in fixed chunks of 512, each chunk
simulated in lock step from one counter-based stream indexed by (seed, stream,
chunk), so replicate r is a function of (seed, stream, replicate count, r) and
results are independent of scheduling and of the degree of parallelism.  A
command reads all its checks from one such path set, so they are correlated:
each keeps its marginal size, but not the joint false-failure rate.

Each suite run also checks its own power: perturbed-analytic negative controls
must fail, otherwise the suite's acceptance is meaningless.  A control reads
its check's paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Callable, Sequence

import numpy as np

from .measures import AgeMeasure, ScalarField, segment_sums
from .models import BranchingModel, ImmigrationMechanism
from .simulate import SimConfig, replicate_rng, simulate_paths
from .solvers import (
    SolverGrid,
    immigration_exponent_integral,
    mean_with_immigration,
    solve_exponent,
    solve_mean,
    stationary_laplace,
    survival_bound_rows,
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
    "monte_carlo_checks",
    "ergodic_convergence",
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
            return self.z <= Z_THRESHOLD
        if self.sided == "lower":
            return self.z >= -Z_THRESHOLD
        return abs(self.z) <= Z_THRESHOLD

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
# Path sets: one job describes a set of paths and the row each path is reduced
# to; fixed chunks of replicates run in-process or in a fork pool, and rows are
# reassembled by replicate index so parallelism cannot change any number.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReplicateJob:
    """The paths of ``cfg`` on ``stream``, each reduced to one row.

    A row holds the mass and ``<X_r, f>`` at each snapshot index in ``reads``,
    the running maximum of the mass, the branch count, the martingale pair
    over the whole grid if ``g_name`` names a test function, and the cap flag.
    """

    cfg: SimConfig
    f: ScalarField
    stream: int
    reads: tuple[int, ...] = (-1,)
    g_name: str | None = None


def _run_chunk(job: _ReplicateJob, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop`` of a job: one chunk, simulated in lock step from one stream.

    The chunk's generator is indexed by (seed, stream, chunk), so a row is a
    function of the seed, the job, the replicate count and the replicate
    index alone; the snapshot grid consumes no random draws.  Paths cut by
    the event cap are NaN rows, flagged to be counted and excluded downstream.
    """
    if start % _CHUNK or stop - start > _CHUNK:
        raise ValueError(f"replicates {start}..{stop} are not one chunk of {_CHUNK}")
    cfg = job.cfg
    paths = simulate_paths(cfg, replicate_rng(cfg.seed, job.stream, start // _CHUNK), stop - start)
    k = len(job.reads)
    pair = None if job.g_name is None else _martingale_pair_fn(job)
    out = np.empty((stop - start, 2 * k + (3 if pair is None else 5)))
    for rows, masses, ages in paths.blocks():
        fa = np.asarray(job.f(ages), dtype=np.float64)
        out[rows, :k] = masses[:, job.reads]
        out[rows, k : 2 * k] = segment_sums(fa, masses.ravel()).reshape(masses.shape)[:, job.reads]
        if pair is not None:
            out[rows, 2 * k + 2], out[rows, 2 * k + 3] = pair(masses, ages, fa)
    out[:, 2 * k], out[:, 2 * k + 1] = paths.max_mass, paths.branches
    capped = paths.capped
    out[capped] = np.nan
    out[:, -1] = capped
    return out


class _Rows:
    """The rows of one path set, by column; ``pair`` is (G(v_T) - G(v_0), integral of L G_f)."""

    def __init__(self, job: _ReplicateJob, data: np.ndarray) -> None:
        k = len(job.reads)
        self.job, self.data, self.n, self.flags = job, data, len(data), data[:, -1]
        self.mass, self.integral = data[:, :k], data[:, k : 2 * k]
        self.max_mass, self.branches = data[:, 2 * k], data[:, 2 * k + 1]
        self.pair = data[:, 2 * k + 2 : 2 * k + 4] if job.g_name is not None else None

    def estimate(self, values: np.ndarray) -> McEstimate:  # over paths the event cap left whole
        good = values[self.flags == 0.0]
        if len(good) < 2:
            raise RuntimeError("too many replicates hit the event cap to form an estimate")
        se = float(np.std(good, ddof=1) / math.sqrt(len(good)))
        return McEstimate(float(np.mean(good)), se, len(good), self.job.cfg.seed, self.n - len(good))


def _collect(job: _ReplicateJob, n: int, n_jobs: int = 1) -> _Rows:
    if n < 2:
        raise ValueError("need at least 2 replicates")
    bounds = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if n_jobs <= 1 or len(bounds) == 1:
        parts = [_run_chunk(job, s, e) for s, e in bounds]
    else:
        with get_context("fork").Pool(n_jobs) as pool:
            parts = pool.starmap(_run_chunk, [(job, s, e) for s, e in bounds])
    return _Rows(job, np.concatenate(parts, axis=0))


def _job(cfg: SimConfig, f: ScalarField, t: float, stream: int, g_name: str | None = None):
    """The path set to t, read at t; with a test function G, on the martingale's grid."""
    snaps = tuple(np.linspace(0.0, t, MARTINGALE_SNAPSHOTS)) if g_name else (t,)
    return _ReplicateJob(replace(cfg, t_end=t, snapshot_times=snaps), f, stream, (-1,), g_name)


def _laplace(rows: _Rows, i: int = -1) -> McEstimate:
    """Mean of exp(-<X_r, f>) at read-out ``i``; exact when the functional is identically 1."""
    cfg = rows.job.cfg
    if rows.job.f.sup == 0.0 or not (cfg.initial.ages or cfg.immigration.total_rate > 0.0):
        return McEstimate(1.0, 0.0, rows.n, cfg.seed)
    return rows.estimate(np.exp(-rows.integral[:, i]))


def estimate_laplace(
    cfg: SimConfig, f: ScalarField, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo mean of exp(-<X_t, f>); values lie in [0, 1].

    Paths cut by the event cap are excluded from the mean and counted in
    ``excluded`` (their inclusion would bias the estimate).  Degenerate cases
    (zero field, or empty initial state with no immigration) are exact.
    """
    return _laplace(_collect(_job(cfg, f, t, stream), n, n_jobs))


def estimate_mean(
    cfg: SimConfig, f: ScalarField, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo mean of <X_t, f>."""
    rows = _collect(_job(cfg, f, t, stream), n, n_jobs)
    return rows.estimate(rows.integral[:, -1])


def estimate_extinction(
    cfg: SimConfig, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo frequency of the population being empty at time t."""
    rows = _collect(_job(cfg, ScalarField.constant(1.0), t, stream), n, n_jobs)
    return rows.estimate((rows.mass[:, -1] == 0).astype(np.float64))


def snapshot_profile(
    cfg: SimConfig, f: ScalarField, n: int, stream: int = 0, n_jobs: int = 1
) -> list[tuple[float, McEstimate, McEstimate]]:
    """Per-snapshot (time, mass estimate, integral-of-f estimate), one pass."""
    rows = _collect(_ReplicateJob(cfg, f, stream, tuple(range(len(cfg.snapshot_times)))), n, n_jobs)
    return [(t, rows.estimate(rows.mass[:, i]), rows.estimate(rows.integral[:, i]))
            for i, t in enumerate(cfg.snapshot_times)]


def laplace_analytic(
    model: BranchingModel,
    imm: ImmigrationMechanism,
    initial: AgeMeasure,
    f: ScalarField,
    t: float,
    dt: float,
    quadrature: str = "trapezoid",
    solutions: dict | None = None,
) -> tuple[float, float]:
    """Analytic Laplace functional with a Richardson error estimate.

    Solves the exponent at dt and 2 dt; the difference scaled by the scheme
    order certifies the returned fine-grid value.  ``solutions`` is a memo of
    one run's solutions of ``model`` and ``f`` (see ``_solved``): a grid
    already in it is read, not solved again.
    """

    def value(grid: SolverGrid) -> float:
        sol = _solved(solutions, "exponent", model, f, grid)
        expo = sum(float(v) for v in sol.rays(initial.ages)[:, -1])
        if imm.total_rate > 0.0:
            integral, _ = immigration_exponent_integral(model, imm, f, grid, sol)
            expo += integral
        return math.exp(-expo)

    return _richardson(value, t, dt, quadrature)


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
    return _laplace_report(_collect(_job(cfg, f, t, stream), n, n_jobs), t, dt, name)


def _laplace_report(rows: _Rows, t: float, dt: float, name: str, i: int = -1) -> ComparisonReport:
    cfg = rows.job.cfg
    analytic, tol = laplace_analytic(cfg.model, cfg.immigration, cfg.initial, rows.job.f, t, dt)
    return ComparisonReport(name, _laplace(rows, i), analytic, tol)


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
    analytic = _mean_analytic(cfg, f, t, dt)
    rows = _collect(_job(cfg, f, t, stream), n, n_jobs)
    return ComparisonReport(name, rows.estimate(rows.integral[:, -1]), *analytic)


def _mean_analytic(
    cfg: SimConfig, f: ScalarField, t: float, dt: float, solutions: dict | None = None
) -> tuple[float, float]:
    """``mean_with_immigration`` at t with a Richardson error estimate from dt and 2 dt."""

    def value(grid: SolverGrid) -> float:
        sol = _solved(solutions, "mean", cfg.model, f, grid)
        return mean_with_immigration(cfg.model, cfg.immigration, f, cfg.initial, grid, sol)

    return _richardson(value, t, dt, "trapezoid")


def _richardson(
    value: Callable[[SolverGrid], float], t: float, dt: float, quadrature: str
) -> tuple[float, float]:
    """``value`` on the grid of about dt to t, with a Richardson error estimate from 2 dt.

    Each grid lands exactly on t, so an arrival integral covers [0, t].
    """
    grids = [SolverGrid(t / max(1, math.ceil(t / step - 1e-12)), t, quadrature) for step in (dt, 2 * dt)]
    fine, coarse = map(value, grids)
    return fine, abs(fine - coarse) / (2 ** grids[0].order - 1)


def bound_suite(
    cfg: SimConfig, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> list[ComparisonReport]:
    """One-sided Monte-Carlo checks of the pathwise growth bounds, from one set of paths.

    From ``m0`` initial particles the running supremum of the population
    size is bounded in mean by ``m0 exp(beta t)``, the branch-event count by
    ``c1 m0 I(t)`` with ``I(r) = integral_0^r exp(beta u) du``, and the mass
    at t by ``m0 exp(c0 t)``.

    Immigration adds by superposition: the population is the sum of the
    descendants of the initial particles and of each immigrant, every
    immigrant starting an independent copy of the process from one particle
    at its arrival time s.  The supremum of a sum is at most the sum of the
    suprema and counts add, so each immigrant arriving at s adds at most
    ``exp(beta (t - s))``, ``c1 I(t - s)`` and ``exp(c0 (t - s))`` to the
    three means.  Immigrant particles arrive at rate
    ``m1 = integral of <nu, 1> dL(nu)``, so by Campbell's formula the bounds
    gain ``m1 integral_0^t exp(beta (t - s)) ds``,
    ``c1 m1 integral_0^t I(t - s) ds`` and ``m1 integral_0^t exp(c0 s) ds``.
    An infinite ``m1`` (heavy group sizes) gives infinite, vacuous bounds.
    """
    return _bound_reports(_collect(_job(cfg, ScalarField.constant(1.0), t, stream), n, n_jobs), t)


def _bound_reports(rows: _Rows, t: float) -> list[ComparisonReport]:
    cfg = rows.job.cfg
    c0, c1, beta = cfg.model.constants()
    m0 = float(cfg.initial.total_mass)
    m1 = cfg.immigration.first_moment_of(ScalarField.constant(1.0))
    sup_est, n_est, mass_est = map(rows.estimate, (rows.max_mass, rows.branches, rows.mass[:, -1]))

    int_exp_beta = t if beta == 0.0 else (math.exp(beta * t) - 1.0) / beta
    sup_bound = m0 * math.exp(beta * t)
    events_bound = c1 * m0 * int_exp_beta
    mass_bound = m0 * math.exp(c0 * t)
    if m1 > 0.0:  # t > 0, so every integral below is positive
        # integral_0^t I(r) dr = (exp(beta t) - 1 - beta t) / beta^2
        int_int = t * t / 2.0 if beta == 0.0 else (math.expm1(beta * t) - beta * t) / beta**2
        sup_bound += m1 * int_exp_beta
        events_bound += c1 * m1 * int_int
        mass_bound += m1 * (t if c0 == 0.0 else math.expm1(c0 * t) / c0)
    return [
        ComparisonReport("bound:sup_mass", sup_est, sup_bound, 0.0, sided="upper"),
        ComparisonReport("bound:branch_events", n_est, events_bound, 0.0, sided="upper"),
        ComparisonReport("bound:mean_mass", mass_est, mass_bound, 0.0, sided="upper"),
    ]


def monte_carlo_checks(
    cfg: SimConfig, f: ScalarField, t: float, n: int, dt: float, stream: int, n_jobs: int,
    g_name: str | None,
    solutions: dict | None = None,
) -> list[ComparisonReport]:
    """The reports of ``compare_laplace`` and ``compare_mean`` with their controls,
    of ``martingale_suite`` if ``g_name`` is given, and of ``bound_suite``, as each
    gives them on ``stream``, from one path set whose exclusion count each carries.
    The analytic sides read and fill the memo ``solutions`` (see ``_solved``).
    They are computed first, the mean's first, so a model they refuse (an
    infinite mean group size) is refused before any path is simulated.
    """
    mean_side = _mean_analytic(cfg, f, t, dt, solutions)
    lap_side = laplace_analytic(cfg.model, cfg.immigration, cfg.initial, f, t, dt, solutions=solutions)
    rows = _collect(_job(cfg, f, t, stream, g_name), n, n_jobs)
    lap = ComparisonReport("laplace", _laplace(rows, -1), *lap_side)
    mean = ComparisonReport("mean", rows.estimate(rows.integral[:, -1]), *mean_side)
    reports = [lap, control_report(lap), mean, control_report(mean)]
    if g_name is not None:
        reports += _martingale_reports(g_name, rows, cfg.seed, n)
    return reports + _bound_reports(rows, t)


def solver_bound_checks(
    model: BranchingModel, f: ScalarField, grid: SolverGrid, solutions: dict | None = None
) -> list[ComparisonReport]:
    """Deterministic inequalities at every characteristic lattice node.

    Checks that the exponent is nonnegative, dominates the single-particle
    survival bound (``survival_lower_bound`` at each node), and is dominated by the moment kernel (Jensen), and that
    the moment kernel respects the exponential norm bound.  The inequalities
    are exact for the continuous objects but the lattice values carry scheme
    error, so the allowed slack is ten times the Richardson-certified boundary
    error of each solver (several bounds are tight, e.g. the norm bound at
    criticality).  The lattice is swept one time row at a time and each row
    is reduced to the four margins as it is produced, so memory stays O(n).

    Both equations are solved on ``grid`` and on the grid of twice its step,
    each read from the memo ``solutions`` when a run already solved it there
    (see ``_solved``), so a ``validate`` run solves each boundary once.
    """
    c0, _, _ = model.constants()
    usol = _solved(solutions, "exponent", model, f, grid)
    msol = _solved(solutions, "mean", model, f, grid)
    half = grid.n_steps // 2
    coarse = SolverGrid(2 * grid.dt, 2 * half * grid.dt, grid.quadrature)
    shared = slice(0, 2 * half + 1, 2)  # fine nodes that coincide with coarse nodes
    shift = 2**grid.order - 1
    ucoarse = _solved(solutions, "exponent", model, f, coarse)
    mcoarse = _solved(solutions, "mean", model, f, coarse)
    cert_u = float(np.max(np.abs(usol.boundary[shared] - ucoarse.boundary)) / shift)
    cert_p = float(np.max(np.abs(msol.boundary[shared] - mcoarse.boundary)) / shift)
    times, sup = grid.times(), f.sup

    nonneg = survival = below = norm = math.inf
    rows = zip(usol.rows(), msol.rows(), survival_bound_rows(model, f, grid))
    for (i, urow), (_, prow), lower in rows:
        nonneg = min(nonneg, float(urow.min()))
        survival = min(survival, float((urow - lower).min()))
        below = min(below, float((prow - urow).min()))
        # min(bound - prow) in one subtraction: rounded subtraction is monotone
        norm = min(norm, math.exp(c0 * times[i]) * sup - float(prow.max()))
    return [
        ComparisonReport(
            name, McEstimate(margin, 0.0, 0, 0), 0.0, 1e-9 + 10.0 * cert, sided="lower"
        )
        for name, margin, cert in (
            ("solver:exponent_nonneg", nonneg, cert_u),
            ("solver:survival_lower_bound", survival, cert_u),
            ("solver:exponent_below_mean", below, cert_u + cert_p),
            ("solver:mean_norm_bound", norm, cert_p),
        )
    ]


def _solved(
    solutions: dict | None, equation: str, model: BranchingModel, f: ScalarField, grid: SolverGrid
):
    """``solve_exponent`` or ``solve_mean`` (``equation`` "exponent" or "mean") on ``grid``.

    ``solutions`` is a memo of one model and field, keyed by ``(equation,
    grid)``: a solution already in it is returned, a new one is stored.  Grids
    match only when exactly equal, quadrature included, so a grid that does
    not line up is solved again.  With ``solutions=None`` every call solves.
    """
    solve = solve_exponent if equation == "exponent" else solve_mean
    if solutions is None:
        return solve(model, f, grid)
    sol = solutions.get((equation, grid))
    if sol is None:
        sol = solutions[equation, grid] = solve(model, f, grid)
    elif sol.model is not model or sol.f is not f:
        raise ValueError("the solution memo holds another model or field")
    return sol


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
    rows = _martingale_rows(cfg, g_name, f, t, n, stream, n_jobs)
    return _residual_report(name or f"martingale:{g_name}", rows, perturb, cfg.seed, n)


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

    The control is ``control_report`` of the check, as for the Laplace and
    mean checks: it shifts the residual's analytic value 0 by max(0.05, ten
    standard errors), so a healthy harness flags it at any replicate count.
    """
    rows = _martingale_rows(cfg, g_name, f, t, n, stream, n_jobs)
    return _martingale_reports(g_name, rows, cfg.seed, n)


def _martingale_rows(
    cfg: SimConfig, g_name: str, f: ScalarField, t: float, n: int, stream: int, n_jobs: int
) -> _Rows | None:
    """The path set carrying the martingale pairs of ``g_name``; None at t = 0."""
    if g_name not in _G_CATALOG:
        raise ValueError(f"unknown generator test function {g_name!r}")
    if t == 0.0:
        return None
    return _collect(_job(cfg, f, t, stream, g_name), n, n_jobs)


def _martingale_reports(g_name: str, rows: _Rows | None, seed: int, n: int) -> list[ComparisonReport]:
    check = _residual_report(f"martingale:{g_name}", rows, 0.0, seed, n)
    return [check, control_report(check)]


def _residual_report(name: str, rows: _Rows | None, perturb: float, seed: int, n: int):
    """Residual ``G(v_t) - G(v_0) - (1 + perturb) * integral`` against zero."""
    if rows is None:  # t = 0: the residual is exactly zero
        return ComparisonReport(name, McEstimate(0.0, 0.0, n, seed), 0.0, 0.0)
    est = rows.estimate(rows.pair[:, 0] - (1.0 + perturb) * rows.pair[:, 1])
    return ComparisonReport(name, est, 0.0, 0.0)


_G_CATALOG: dict[str, Callable] = {
    "identity": lambda v: v,
    "exp": lambda v: np.exp(-v),
    "square": lambda v: v * v,
}


def _martingale_pair_fn(job: _ReplicateJob) -> Callable:
    """Per path of a block, the pair ``(G(v_T) - G(v_0), integral_0^T L G_f(X_s) ds)``.

    ``block(masses, ages, fa)`` makes one pooled pass over the snapshot
    particles of a block of paths, ``fa`` holding f at their ages: every
    generator term factorizes into snapshot-level functions of v = <X_s, f>
    times per-particle sums, accumulated with one bincount keyed by
    ``path * n_snap + snap``.  Everything that does not depend on the paths is
    computed here, once.
    """
    model = job.cfg.model
    f = job.f
    imm = job.cfg.immigration
    g_name = job.g_name
    G = _G_CATALOG[g_name]
    fprime, _ = f.derivative_fn()
    f0 = float(f(0.0))
    offspring = model.offspring

    imm_f1 = imm_f2 = psi_f = 0.0
    has_imm = imm.total_rate > 0.0
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

    h = np.diff(np.array(job.cfg.snapshot_times))
    mean_by_regime = offspring.mean_by_regime()
    g0_by_regime = offspring.g_by_regime(math.exp(-f0))
    second_by_regime = offspring.second_moment_by_regime()

    def block(masses: np.ndarray, ages: np.ndarray, fa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = masses.shape
        size = shape[0] * shape[1]
        seg = np.repeat(np.arange(size), masses.ravel())

        def per_snapshot(weights):
            return np.bincount(seg, weights=weights, minlength=size).reshape(shape)

        a_vals = np.asarray(model.alpha(ages), dtype=np.float64)
        ridx = offspring.regime_indices(ages)
        means = mean_by_regime[ridx]
        vs = per_snapshot(fa)
        seg_fp = per_snapshot(fprime(ages))

        if g_name == "identity":
            seg_lin = per_snapshot(a_vals * (means * f0 - fa))
            lg = seg_fp + seg_lin + (imm_f1 if has_imm else 0.0)
        elif g_name == "exp":
            g0 = g0_by_regime[ridx]
            seg_g = per_snapshot(a_vals * (np.exp(fa) * g0 - 1.0))
            lg = np.exp(-vs) * (-seg_fp + seg_g - (psi_f if has_imm else 0.0))
        else:
            second = second_by_regime[ridx]
            seg_lin = per_snapshot(a_vals * (means * f0 - fa))
            seg_sq = per_snapshot(a_vals * (f0**2 * second - 2.0 * f0 * fa * means + fa**2))
            lg = 2.0 * vs * seg_fp + 2.0 * vs * seg_lin + seg_sq
            if has_imm:
                lg = lg + 2.0 * vs * imm_f1 + imm_f2

        integral = np.sum(h * (lg[:, :-1] + lg[:, 1:]) / 2.0, axis=1)
        return G(vs[:, -1]) - G(vs[:, 0]), integral

    return block


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

    For each horizon T, read from one path set to the last horizon, the
    simulated Laplace functional is compared two-sided with the finite-T
    analytic value, and the gap between the finite-T value and the certified
    stationary value is reported; the gaps must shrink as T grows.  Refuses a
    zero-rate mechanism, and (in ``stationary_laplace``) a model that is not
    certified ergodic.
    """
    if cfg.immigration.total_rate == 0.0:
        raise ValueError("ergodic convergence needs an immigration mechanism")
    stat = stationary_laplace(cfg.model, cfg.immigration, f, tolerance)
    grid = tuple(sorted(horizons))
    sim = replace(cfg, t_end=grid[-1], snapshot_times=grid)
    rows = _collect(_ReplicateJob(sim, f, stream, tuple(map(grid.index, horizons))), n, n_jobs)
    reports = [_laplace_report(rows, T, dt, f"ergodic:T={T:g}", i) for i, T in enumerate(horizons)]
    return stat.value, reports, [abs(r.analytic - stat.value) for r in reports]
