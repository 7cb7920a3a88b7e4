"""Monte-Carlo estimators and the statistical layer tying simulator to solvers.

Identity claims (Laplace functional, first moments, martingale residuals) are
tested two-sided at |z| <= 3 with the solver's Richardson error estimate
added in quadrature to the Monte-Carlo standard error.  Inequality claims
(growth and event-count bounds) are tested one-sided: the estimate minus three
standard errors must not exceed the bound.  Every report is a pure function of
(seed, configuration): replicates run in fixed chunks of 512, each chunk
simulated in lock step from one counter-based stream indexed by (seed, stream,
chunk), so replicate r is a function of (seed, stream, replicate count, r) and
results are independent of scheduling and of the degree of parallelism.  A
command reads all its checks from one such path set, so they are correlated:
each keeps its marginal size, but not the joint false-failure rate.

The martingale residual has one test function, G(v) = exp(-v) of
v = <X, f>: the generator of a measure-valued branching process is
characterised on the functionals exp(-<X, f>) (Li 2011).  It needs f' and so
runs for the continuously differentiable fields only.

Each suite run also checks its own power: perturbed-analytic negative controls
must fail, otherwise the suite's acceptance is meaningless.  A control reads
its check's paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .measures import AgeMeasure, ScalarField, segment_sums
from .models import BranchingModel, ImmigrationMechanism
from .simulate import SimConfig, Trajectory, replicate_rng, simulate_paths
from .solvers import SolverGrid, lattice_margins, solve_exponent, solve_mean, stationary_laplace

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
    the running maximum of the mass, the branch count, the martingale pair of
    G(v) = exp(-v) over the whole grid if ``martingale``, and the cap flag.
    Replicate 0 is also kept whole, with its event log.
    """

    cfg: SimConfig
    f: ScalarField
    stream: int
    reads: tuple[int, ...] = (-1,)
    martingale: bool = False


def _run_chunk(job: _ReplicateJob, start: int, stop: int) -> tuple[np.ndarray, Trajectory | None]:
    """Rows ``start..stop`` of a job: one chunk, simulated in lock step from one stream.

    The chunk's generator is indexed by (seed, stream, chunk), so a row is a
    function of the seed, the job, the replicate count and the replicate
    index alone; the snapshot grid consumes no random draws.  Paths cut by
    the event cap are NaN rows, flagged to be counted and excluded downstream.
    The first chunk also returns replicate 0 with its event log (later chunks
    ``None``): one path's log per path set.
    """
    if start % _CHUNK or stop - start > _CHUNK:
        raise ValueError(f"replicates {start}..{stop} are not one chunk of {_CHUNK}")
    cfg = job.cfg
    first = start == 0
    pair = _martingale_pair_fn(job) if job.martingale else None  # refuses a field without f'
    paths = simulate_paths(
        cfg, replicate_rng(cfg.seed, job.stream, start // _CHUNK), stop - start, log_paths=int(first)
    )
    k = len(job.reads)
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
    return out, paths.trajectory(0) if first else None


class _Rows:
    """The rows of one path set, by column; ``pair`` is (G(v_T) - G(v_0), integral of L G_f).

    ``first`` is replicate 0 with its event log.
    """

    def __init__(self, job: _ReplicateJob, data: np.ndarray, first: Trajectory | None = None) -> None:
        k = len(job.reads)
        self.job, self.data, self.n, self.flags, self.first = job, data, len(data), data[:, -1], first
        self.mass, self.integral = data[:, :k], data[:, k : 2 * k]
        self.max_mass, self.branches = data[:, 2 * k], data[:, 2 * k + 1]
        self.pair = data[:, 2 * k + 2 : 2 * k + 4] if job.martingale else None

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
        from multiprocessing import get_context  # here only: a serial run never pays for its import

        with get_context("fork").Pool(min(n_jobs, len(bounds))) as pool:
            parts = pool.starmap(_run_chunk, [(job, s, e) for s, e in bounds])
    return _Rows(job, np.concatenate([rows for rows, _ in parts], axis=0), parts[0][1])


def _job(cfg: SimConfig, f: ScalarField, t: float, stream: int, martingale: bool = False):
    """The path set to t, read at t; with ``martingale``, on the martingale's grid."""
    snaps = tuple(np.linspace(0.0, t, MARTINGALE_SNAPSHOTS)) if martingale else (t,)
    return _ReplicateJob(replace(cfg, t_end=t, snapshot_times=snaps), f, stream, (-1,), martingale)


def _laplace(rows: _Rows, i: int = -1) -> McEstimate:
    """Mean of exp(-<X_r, f>) at read-out ``i`` over the paths the event cap left whole.

    Where the functional is identically 1 every row is 1.0: the mean is exactly
    1.0 with standard error 0.0, and the capped paths are still counted.
    """
    return rows.estimate(np.exp(-rows.integral[:, i]))


def estimate_laplace(
    cfg: SimConfig, f: ScalarField, t: float, n: int, stream: int = 0, n_jobs: int = 1
) -> McEstimate:
    """Monte-Carlo mean of exp(-<X_t, f>); values lie in [0, 1].

    Paths cut by the event cap are excluded from the mean and counted in
    ``excluded`` (their inclusion would bias the estimate).  Degenerate cases
    (zero field, or empty initial state with no immigration) are exact, and
    count their exclusions like any other.
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
) -> tuple[list[tuple[float, McEstimate, McEstimate]], Trajectory]:
    """Per-snapshot (time, mass estimate, integral-of-f estimate), and replicate 0 with its event log.

    Both come from one path set: replicate 0 is the set's first path, the
    only one whose events are logged (as in every path set).
    """
    reads = tuple(range(len(cfg.snapshot_times)))
    rows = _collect(_ReplicateJob(cfg, f, stream, reads), n, n_jobs)
    profile = [(t, rows.estimate(rows.mass[:, i]), rows.estimate(rows.integral[:, i]))
               for i, t in enumerate(cfg.snapshot_times)]
    return profile, rows.first


def laplace_analytic(
    model: BranchingModel,
    imm: ImmigrationMechanism,
    initial: AgeMeasure,
    f: ScalarField,
    t: float,
    dt: float,
    solutions: dict | None = None,
) -> tuple[float, float]:
    """Analytic Laplace functional with a Richardson error estimate (``_analytic``).

    ``solutions`` is a memo of one run's solutions of ``model`` and ``f`` (see
    ``_solved``).
    """
    return _analytic(False, model, imm, initial, f, t, dt, solutions)


def compare_laplace(
    cfg: SimConfig, f: ScalarField, t: float, n: int, dt: float = 1e-3, stream: int = 0, n_jobs: int = 1
) -> ComparisonReport:
    """Simulated Laplace functional against the exponent solver, two-sided."""
    analytic = laplace_analytic(cfg.model, cfg.immigration, cfg.initial, f, t, dt)
    rows = _collect(_job(cfg, f, t, stream), n, n_jobs)
    return ComparisonReport("laplace", _laplace(rows), *analytic)


def compare_mean(
    cfg: SimConfig, f: ScalarField, t: float, n: int, dt: float = 1e-3, stream: int = 0, n_jobs: int = 1
) -> ComparisonReport:
    """Simulated first moment against the moment-kernel solver, two-sided."""
    analytic = _analytic(True, cfg.model, cfg.immigration, cfg.initial, f, t, dt)
    rows = _collect(_job(cfg, f, t, stream), n, n_jobs)
    return ComparisonReport("mean", rows.estimate(rows.integral[:, -1]), *analytic)


def _analytic(mean: bool, model: BranchingModel, imm: ImmigrationMechanism, initial: AgeMeasure, f: ScalarField,
              t: float, dt: float, solutions: dict | None = None) -> tuple[float, float]:
    """The Laplace functional, or with ``mean`` the first moment, at t with a Richardson estimate.

    The value is ``exp(-total)`` of the exponent's ``readout``, or the mean's
    ``total``, on ``SolverGrid(dt, t)`` (trapezoid); the estimate takes the
    same value on its ``coarse()`` grid.  Both grids end on t, so an arrival
    integral covers [0, t], and a t of no whole or no even number of steps is
    refused before any solve.  Solutions come from the memo ``solutions``
    (``_solved``).
    """
    solve = solve_mean if mean else solve_exponent

    def value(grid: SolverGrid) -> float:
        total, _ = _solved(solutions, solve, model, f, grid).readout(initial, imm)
        return total if mean else math.exp(-total)

    grid = SolverGrid(dt, t)
    coarse = grid.coarse()
    fine = value(grid)
    return fine, grid.richardson(fine, value(coarse))


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
    # arrivals add m1 times positive integrals (t > 0); integral_0^t I(r) dr
    # = (exp(beta t) - 1 - beta t) / beta^2
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
    solutions: dict | None = None,
) -> list[ComparisonReport]:
    """The reports of ``compare_laplace`` and ``compare_mean`` with their controls,
    of ``martingale_residual`` with its control where f has a derivative, and
    of ``bound_suite``, as each gives them on ``stream``, from one path set
    whose exclusion count each carries.
    The analytic sides read and fill the memo ``solutions`` (see ``_solved``).
    They are computed first, the mean's first, so a model they refuse (an
    infinite mean group size) is refused before any path is simulated.
    """
    mean_side = _analytic(True, cfg.model, cfg.immigration, cfg.initial, f, t, dt, solutions)
    lap_side = laplace_analytic(cfg.model, cfg.immigration, cfg.initial, f, t, dt, solutions=solutions)
    martingale = f.derivative_fn() is not None  # the martingale check needs f'
    rows = _collect(_job(cfg, f, t, stream, martingale), n, n_jobs)
    lap = ComparisonReport("laplace", _laplace(rows, -1), *lap_side)
    mean = ComparisonReport("mean", rows.estimate(rows.integral[:, -1]), *mean_side)
    reports = [lap, control_report(lap), mean, control_report(mean)]
    if martingale:
        check = _residual_report(rows, 0.0)
        reports += [check, control_report(check)]
    return reports + _bound_reports(rows, t)


def solver_bound_checks(
    model: BranchingModel, f: ScalarField, grid: SolverGrid, solutions: dict | None = None
) -> list[ComparisonReport]:
    """Deterministic inequalities at every characteristic lattice node.

    Checks that the exponent is nonnegative, dominates the single-particle
    survival bound, and is dominated by the moment kernel (Jensen), and that
    the moment kernel respects the exponential norm bound (``lattice_margins``
    states the four margins).  The inequalities are exact for the continuous
    objects but the lattice values carry scheme error, so the allowed slack is
    ten times the Richardson estimate of each solver's boundary error (several
    bounds are tight, e.g. the norm bound at criticality).  The lattice is
    swept a block of time rows at a time, each block reduced to the four
    margins as it is produced, so memory stays O(n) beyond one buffer of
    ``solvers._BLOCK_ENTRIES`` values per lattice.  A NaN at any node fails
    its checks.

    Both equations are solved on ``grid`` and ``grid.coarse()`` (which an odd
    step count lacks), each read from the memo ``solutions`` if a run solved
    it there already (``_solved``), so a ``validate`` run solves each once.
    """
    usol, msol, ucoarse, mcoarse = (_solved(solutions, solve, model, f, g)
                                    for g in (grid, grid.coarse()) for solve in (solve_exponent, solve_mean))
    cert_u = float(np.max(grid.richardson(usol.boundary[::2], ucoarse.boundary)))
    cert_p = float(np.max(grid.richardson(msol.boundary[::2], mcoarse.boundary)))
    nonneg, survival, below, norm = lattice_margins(usol, msol)
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


def _solved(solutions: dict | None, solve: Callable, model: BranchingModel, f: ScalarField, grid: SolverGrid):
    """``solve(model, f, grid)``, for ``solve`` either ``solve_exponent`` or ``solve_mean``.

    ``solutions`` is a memo of one model and field, keyed by ``(solve,
    grid)``: a solution already in it is returned, a new one is stored.  Grids
    match only when exactly equal, quadrature included, so a rectangle grid
    is not the identity checks' trapezoid one.  A stored solution of another
    model or field is refused.  ``None`` solves every call.
    """
    if solutions is None:
        return solve(model, f, grid)
    sol = solutions.get((solve, grid))
    if sol is None:
        sol = solutions[solve, grid] = solve(model, f, grid)
    sol._check_of(model, f, grid)
    return sol


def martingale_residual(
    cfg: SimConfig,
    f: ScalarField,
    t: float,
    n: int,
    stream: int = 0,
    n_jobs: int = 1,
    perturb: float = 0.0,
) -> ComparisonReport:
    """Generator martingale residual of G(v) = exp(-v), two-sided against zero.

    Estimates ``E[G(<X_t, f>)] - G(<X_0, f>) - integral_0^t E[L G_f(X_s)] ds``
    with the time integral taken by trapezoid over a fixed snapshot grid.
    ``perturb`` scales the generator term by (1 + perturb) for negative
    controls; ``control_report`` of the check is ``validate``'s control.
    f must be continuously differentiable, and t > 0 (``SimConfig`` refuses
    t = 0, as for every estimator).
    """
    return _residual_report(_collect(_job(cfg, f, t, stream, True), n, n_jobs), perturb)


def _residual_report(rows: _Rows, perturb: float) -> ComparisonReport:
    """Residual ``G(v_t) - G(v_0) - (1 + perturb) * integral`` against zero."""
    est = rows.estimate(rows.pair[:, 0] - (1.0 + perturb) * rows.pair[:, 1])
    return ComparisonReport("martingale:exp", est, 0.0, 0.0)


def _martingale_pair_fn(job: _ReplicateJob) -> Callable:
    """Per path of a block, ``(G(v_T) - G(v_0), integral_0^T L G_f(X_s) ds)`` for G(v) = exp(-v).

    ``block(masses, ages, fa)`` makes one pooled pass over the snapshot
    particles of a block of paths, ``fa`` holding f at their ages.  With
    v = <X_s, f> the generator term is
    ``exp(-v) (<X_s, alpha (e^f g(e^-f(0)) - 1) - f'> - psi(f))``: a function
    of v times per-particle sums, accumulated with one bincount keyed by
    ``path * n_snap + snap``.  Everything that does not depend on the paths
    is computed here, once.
    """
    model = job.cfg.model
    f = job.f
    fprime = f.derivative_fn()
    if fprime is None:
        raise ValueError(f"field kind {f.kind!r} is not continuously differentiable")
    offspring = model.offspring
    psi_f = job.cfg.immigration.psi(f)  # 0.0 for the zero-rate mechanism
    h = np.diff(np.array(job.cfg.snapshot_times))
    g0_by_regime = offspring.g_by_regime(math.exp(-float(f(0.0))))

    def block(masses: np.ndarray, ages: np.ndarray, fa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = masses.shape
        size = shape[0] * shape[1]
        seg = np.repeat(np.arange(size), masses.ravel())

        def per_snapshot(weights):
            return np.bincount(seg, weights=weights, minlength=size).reshape(shape)

        a_vals = np.asarray(model.alpha(ages), dtype=np.float64)
        g0 = g0_by_regime[offspring.regime_indices(ages)]
        vs = per_snapshot(fa)
        seg_fp = per_snapshot(fprime(ages))
        seg_g = per_snapshot(a_vals * (np.exp(fa) * g0 - 1.0))
        lg = np.exp(-vs) * (-seg_fp + seg_g - psi_f)
        integral = np.sum(h * (lg[:, :-1] + lg[:, 1:]) / 2.0, axis=1)
        return np.exp(-vs[:, -1]) - np.exp(-vs[:, 0]), integral

    return block


def ergodic_convergence(
    cfg: SimConfig,
    f: ScalarField,
    horizons: Sequence[float],
    n: int,
    dt: float = 1e-3,
    stream: int = 0,
    n_jobs: int = 1,
) -> tuple[float, list[ComparisonReport], list[float]]:
    """Convergence of the immigration model toward its stationary law.

    For each horizon T, read from one path set to the last horizon, the
    simulated Laplace functional is compared two-sided with the finite-T
    analytic value, and the gap between the finite-T value and the stationary
    value (``stationary_laplace`` at its default tolerance) is reported; the
    gaps must shrink as T grows.  Refuses a zero-rate mechanism, and (in
    ``stationary_laplace``) a model that is not certified ergodic.  The
    analytic sides come first, so a horizon they refuse is refused before the
    stationary solve and before any path.
    """
    if cfg.immigration.total_rate == 0.0:
        raise ValueError("ergodic convergence needs an immigration mechanism")
    sides = [laplace_analytic(cfg.model, cfg.immigration, cfg.initial, f, T, dt) for T in horizons]
    stat = stationary_laplace(cfg.model, cfg.immigration, f)
    grid = tuple(sorted(horizons))
    sim = replace(cfg, t_end=grid[-1], snapshot_times=grid)
    rows = _collect(_ReplicateJob(sim, f, stream, tuple(map(grid.index, horizons))), n, n_jobs)
    reports = [ComparisonReport(f"ergodic:T={T:g}", _laplace(rows, i), *side)
               for i, (T, side) in enumerate(zip(horizons, sides))]
    return stat.value, reports, [abs(r.analytic - stat.value) for r in reports]
