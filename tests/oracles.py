"""Reference implementations that the tests compare the solvers against.

These are independent or older discretizations of the same equations, kept
only as oracles:

* ``march_exponent`` / ``march_mean``: the O(n^2) characteristic fan march
  that the renewal-form solver replaced, marching the boundary and a block of
  ray labels in one loop, with the full (time, age) lattice on request
  (``keep_lattice``, capped at ``_LATTICE_MAX_STEPS``);
  ``lattice_bound_margins`` reduces those lattices to the four margins of
  ``solver_bound_checks``.
* ``lattice_rows`` / ``survival_bound_rows``: a solved lattice and the
  survival bound swept one time row at a time in O(n) memory, as the package
  did before it swept blocks of rows; ``row_loop_margins`` reduces them row
  by row to the four margins of ``solvers.lattice_margins``.
* ``renewal_rounding_bounds``: the rounding bounds that the ``solvers``
  module docstring states for the renewal-form solve.
* ``fan_exponent`` / ``fan_mean``: one O(n^2) characteristic fan per ray,
  with labels ``offset + t_j``, reading a given boundary trace (or closing
  it when none is given).  ``fan_mean`` also carries the bare-quadrature
  ``form="direct"`` of the moment equation.
* ``renewal_exponent_boundary``: the exponent's boundary trace through the
  survival-discounted renewal form.
* ``scalar_exponent_at`` / ``scalar_mean_at``: a single ray integrated in
  scalar Python, reading the boundary trace linearly interpolated
  (``boundary_at``).
* ``immigration_integral_per_node``: the arrival-compensation integral with
  psi evaluated in scalar Python, one grid node at a time.
* ``simulate_objects``: the simulator that stores every snapshot as a
  validated ``KeptAges`` measure and always keeps the ``Event`` log,
  returning an ``ObjectTrajectory``; one event at a time, a branch proposal
  tries one particle picked uniformly and accepts it with probability
  alpha(age) / c1, and every newcomer joins the front of the list, as the
  kernel does.  ``replay_objects`` rebuilds the path an event log describes;
  ``replay_statistics``, ``mass_path`` and ``log_counters`` read statistics
  from the event log of either trajectory type, ``mass_delta`` the size
  change of one event.  ``kept_snapshots`` reads a kernel ``Trajectory``'s
  snapshots in the kernel's order.
* ``single_arrivals``: the mechanism of single age-0 immigrants at a rate.
* ``lockstep_paths``: the chunk kernel ``simulate_paths`` as it was before
  it kept its live-path state compact, tried one particle per branch
  proposal and put newcomers at the front of their path: it summed every
  path's hazard, picked the dying particle with the complex-key pick
  ``keyed_segment_pick`` and placed arrivals in ascending order by a search
  on ``segment_keys``.  Where alpha is constant and every arrival is at age
  0 the rules read the same bits, so there it pins every bit of the
  kernel's ``PathSet``.
* ``weighted_index``: the dying-particle index of the chunk kernel as it was
  before one cumulative sum served every path of a pass: the chosen
  segments compacted, their sums and cumulative sums taken afresh.  It is
  the reference that ``keyed_segment_pick`` is checked against on weights
  that are not constant.
* ``chunk_rows_objects``: the replicate-chunk extractor reading the one row
  layout from ``AgeMeasure`` snapshots and event logs, with the martingale
  pair path by path for any test function of ``TEST_FUNCTIONS`` (the
  package's check has G(v) = exp(-v) only).
* ``pmf_second_moment``, ``size_second_moment`` and ``group_second_moment``:
  the second moments of offspring counts, group sizes and ``<nu, f>`` under
  the immigration measure, which the quadratic generator term reads.
* ``observed_orders``: empirical convergence orders of the boundary solvers
  against a closed form; ``benchmark_models``: a small catalog of models
  across regimes for the bound checks.
* ``write_csv_rows``: the CSV writer as it was before it took columns, one
  ``csv.writer`` row at a time with ``cli._fmt`` per cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from agebranch import models
from agebranch.cli import _fmt
from agebranch.measures import AgeMeasure, ScalarField, index_ranges, interleave
from agebranch.models import BranchingModel, ImmigrationMechanism, OffspringLaw, OffspringPmf
from agebranch.simulate import (
    _ENDINGS, _EVENT_CAP, _EXTINCTION, _T_END, Event, PathSet, SimConfig, Trajectory, replicate_rng,
)

from agebranch.solvers import (
    _FIXED_POINT_MAX_ITER,
    _FIXED_POINT_TOL,
    _LEAF,
    MeanSolution,
    SolverGrid,
    _check_contraction,
    _clip_unit,
    _ray_offsets,
    _Scheme,
    solve_exponent,
    solve_mean,
)

_LATTICE_MAX_STEPS = 4096


def _ray_labels(grid: SolverGrid, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label block of one fan march, and where each ray is read from it.

    Row 0 is the boundary family ``t_0..t_N``.  An offset ``x = K dt`` (within
    SolverGrid's 1e-9 relative tolerance) with ``K <= n`` lies on it: the ray
    at age x reads entry ``i + K`` after step i, and the row is extended to
    ``N = n + max K``, exactly the labels the boundary and these rays visit.
    Every other distinct offset gets its own row of labels ``x + t_j``, read
    at entry i.
    Returns the label ages (rows, N + 1) and each ray's row and column shift.
    """
    n, dt = grid.n_steps, grid.dt
    ks = np.rint(offsets / dt)
    on_row = (np.abs(ks * dt - offsets) <= 1e-9 * np.maximum(1.0, offsets)) & (ks <= n)
    starts, inverse = np.unique(offsets[~on_row], return_inverse=True)
    rows = np.zeros(len(offsets), dtype=np.intp)
    rows[~on_row] = 1 + inverse
    cols = np.where(on_row, ks, 0.0).astype(np.intp)
    ages = np.concatenate(([0.0], starts))[:, None] + dt * np.arange(n + 1 + cols.max(initial=0))
    # own rows need labels x + t_0..t_n only; the padding repeats the last one
    # so that it cannot trip a guard
    ages[1:, n + 1 :] = ages[1:, n : n + 1]
    return ages, rows, cols


def march_exponent(
    model: BranchingModel,
    f: ScalarField,
    grid: SolverGrid,
    offsets=(),
    keep_lattice: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """March the exponent fan once, for the boundary and every requested ray.

    Returns ``(boundary, rays, lattice_w)``: the exponent at age 0 for every
    grid time, the exponent at age ``offsets[r]`` for every grid time (row r),
    and, when requested, ``L[i, j] = exp(-u_{t_i} f((j - i) dt))`` for
    ``j >= i`` (NaN below the diagonal).
    """
    _check_contraction(model, grid)
    n, dt = grid.n_steps, grid.dt
    trapezoid = grid.quadrature == "trapezoid"
    offspring = model.offspring
    ages, rows, cols = _ray_labels(grid, _ray_offsets(offsets))
    width = ages.shape[1]
    alpha_g = np.asarray(model.alpha(ages), dtype=np.float64)
    ridx = offspring.regime_indices(ages)
    W = np.exp(-np.asarray(f(ages), dtype=np.float64))
    diag = np.empty(n + 1)
    diag[0] = W[0, 0]
    table = np.empty((len(rows), n + 1))
    table[:, 0] = W[rows, cols]
    lattice = None
    if keep_lattice:
        if n > _LATTICE_MAX_STEPS:
            raise ValueError(f"lattice storage capped at {_LATTICE_MAX_STEPS} steps")
        lattice = np.full((n + 1, n + 1), np.nan)
        lattice[0] = W[0, : n + 1]

    # g at the boundary value, by label; only the labels still ahead are kept
    g_at = offspring.g_by_regime(float(_clip_unit(W[0, 0])))[ridx]
    for i in range(n):
        m = width - 1 - i
        w = W[:, i + 1 :]
        F_left = alpha_g[:, 1 : m + 1] * (g_at[:, 1 : m + 1] - w)
        if not trapezoid:
            W[:, i + 1 :] = w + dt * F_left
            g_at = offspring.g_by_regime(_clip_unit(float(W[0, i + 1])))[ridx[:, :m]]
        else:
            # diagonal: the new boundary value appears inside its own
            # endpoint term g(0, w+) and as the unknown itself
            c_known = float(w[0, 0] + (dt / 2.0) * F_left[0, 0])
            a0 = float(alpha_g[0, 0])
            denom = 1.0 + (dt / 2.0) * a0
            regime0 = offspring.regimes[int(ridx[0, 0])]
            w_plus = min(max(c_known / denom, 0.0), 1.0)
            for _ in range(_FIXED_POINT_MAX_ITER):
                w_next = (c_known + (dt / 2.0) * a0 * regime0.g(min(max(w_plus, 0.0), 1.0))) / denom
                if abs(w_next - w_plus) <= _FIXED_POINT_TOL:
                    w_plus = w_next
                    break
                w_plus = w_next
            else:
                raise RuntimeError("boundary fixed point did not converge; use a smaller dt")
            zb = _clip_unit(w_plus)
            g_at = offspring.g_by_regime(zb)[ridx[:, :m]]
            W[:, i + 1 :] = (w + (dt / 2.0) * (F_left + alpha_g[:, :m] * g_at)) / (
                1.0 + (dt / 2.0) * alpha_g[:, :m]
            )
            W[0, i + 1] = zb
        diag[i + 1] = W[0, i + 1]
        if rows.size:
            table[:, i + 1] = W[rows, i + 1 + cols]
        if lattice is not None:
            lattice[i + 1, i + 1 :] = W[0, i + 1 : n + 1]
    return -np.log(np.maximum(diag, 1e-300)), -np.log(np.maximum(table, 1e-300)), lattice


def march_mean(
    model: BranchingModel,
    f: ScalarField,
    grid: SolverGrid,
    offsets=(),
    keep_lattice: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """March the first-moment fan once, for the boundary and every requested ray.

    Returns ``(boundary, rays, lattice)`` laid out as in ``march_exponent``,
    with the lattice holding the kernel's values themselves.
    """
    _check_contraction(model, grid)
    n, dt = grid.n_steps, grid.dt
    trapezoid = grid.quadrature == "trapezoid"
    offspring = model.offspring
    ages, rows, cols = _ray_labels(grid, _ray_offsets(offsets))
    width = ages.shape[1]
    alpha_g = np.asarray(model.alpha(ages), dtype=np.float64)
    mean_g = offspring.mean_by_regime()[offspring.regime_indices(ages)]
    am = alpha_g * mean_g
    fvals = np.asarray(f(ages), dtype=np.float64)
    mb = np.empty(n + 1)
    mb[0] = fvals[0, 0]
    table = np.empty((len(rows), n + 1))
    table[:, 0] = fvals[rows, cols]
    lattice = None
    if keep_lattice:
        if n > _LATTICE_MAX_STEPS:
            raise ValueError(f"lattice storage capped at {_LATTICE_MAX_STEPS} steps")
        lattice = np.full((n + 1, n + 1), np.nan)
        lattice[0] = fvals[0, : n + 1]

    if am.max() * dt / 2.0 >= 0.95:
        raise ValueError("dt too large for the implicit moment endpoint; use a smaller dt")
    if alpha_g.max() * grid.horizon * max(1.0, mean_g.max()) > 600.0:
        raise ValueError(
            "cumulative hazard exceeds the floating-point range of the "
            "discounted form; reduce the horizon or split the solve"
        )
    A = np.zeros_like(ages)  # cumulative hazard along each ray
    J = np.zeros_like(ages)  # discount-weighted source integral along each ray
    for i in range(n):
        m = width - 1 - i
        k_l = slice(1, m + 1)  # age indices at the left endpoint, labels i+1..
        k_r = slice(0, m)  # age indices at the right endpoint
        h_left = np.exp(A[:, i + 1 :]) * am[:, k_l] * mb[i]
        if trapezoid:
            A_new = A[:, i + 1 :] + (dt / 2.0) * (alpha_g[:, k_l] + alpha_g[:, k_r])
            # diagonal: exp(-A_new) * exp(A_new) = 1 on the endpoint term
            known = math.exp(-A_new[0, 0]) * (fvals[0, i + 1] + J[0, i + 1] + (dt / 2.0) * h_left[0, 0])
            mb[i + 1] = known / (1.0 - (dt / 2.0) * am[0, 0])
            h_right = np.exp(A_new) * am[:, k_r] * mb[i + 1]
            J[:, i + 1 :] += (dt / 2.0) * (h_left + h_right)
        else:
            A_new = A[:, i + 1 :] + dt * alpha_g[:, k_l]
            J[:, i + 1 :] += dt * h_left
            mb[i + 1] = math.exp(-A_new[0, 0]) * (fvals[0, i + 1] + J[0, i + 1])
        A[:, i + 1 :] = A_new
        if rows.size:
            node = (rows, i + 1 + cols)
            table[:, i + 1] = np.exp(-A[node]) * (fvals[node] + J[node])
        if lattice is not None:
            live = slice(i + 1, n + 1)
            lattice[i + 1, live] = np.exp(-A[0, live]) * (fvals[0, live] + J[0, live])
    table[(rows == 0) & (cols == 0)] = mb  # the ray at age 0 is the boundary trace
    return mb, table, lattice


def lattice_bound_margins(model, f, grid) -> dict[str, float]:
    """The four margins of ``solver_bound_checks`` from the marched lattices.

    The survival bound is ``survival_lower_bound``'s: its hazard is alpha t
    for a constant alpha, and otherwise the trapezoid at dt along each ray,
    accumulated here one step at a time as the rows advance.
    """
    c0, c1, _ = model.constants()
    u = -np.log(np.maximum(march_exponent(model, f, grid, keep_lattice=True)[2], 1e-300))
    p = march_mean(model, f, grid, keep_lattice=True)[2]
    times = grid.times()
    fv = np.asarray(f(times), dtype=np.float64)
    a = np.asarray(model.alpha(times), dtype=np.float64)
    step_hazard = grid.dt / 2.0 * (a[1:] + a[:-1])  # between grid ages j dt and (j + 1) dt
    hazard = np.zeros(grid.n_steps + 1)  # row i: from age d dt at time 0 to time t_i
    margins = dict.fromkeys(
        ("solver:exponent_nonneg", "solver:survival_lower_bound", "solver:exponent_below_mean",
         "solver:mean_norm_bound"),
        math.inf,
    )
    for i in range(grid.n_steps + 1):
        urow, prow = u[i, i:], p[i, i:]
        if i:
            hazard = hazard[:-1] + step_hazard[i - 1 :]
        decay = math.exp(-c1 * times[i]) if model.alpha.is_constant else np.exp(-hazard)
        lower = -np.expm1(-fv[i:]) * decay
        norm_bound = math.exp(c0 * times[i]) * f.sup
        for name, value in (
            ("solver:exponent_nonneg", urow.min()),
            ("solver:survival_lower_bound", (urow - lower).min()),
            ("solver:exponent_below_mean", (prow - urow).min()),
            ("solver:mean_norm_bound", (norm_bound - prow).min()),
        ):
            margins[name] = min(margins[name], float(value))
    return margins


def lattice_rows(sol):
    """Yield ``(i, values)`` for i = 0..n: ages 0, dt, .., (n - i) dt at time t_i.

    The recurrence swept one time step at a time over every characteristic
    that reaches age 0 by the horizon, driven by the solution's known
    boundary: the whole triangular lattice in O(n) memory.  ``values[0]`` is
    the boundary.
    """
    n = sol.grid.n_steps
    ages = sol.grid.dt * np.arange(n + 1)
    scheme = _Scheme(sol.model, sol.grid, ages, sol._mean)
    B, C = scheme.by_class(scheme.B), scheme.by_class(scheme.C)
    w = sol._start(np.asarray(sol.f(ages), dtype=np.float64))
    for i in range(n + 1):
        if i:
            m = n + 1 - i
            live = w[i:]
            live *= scheme.A[1 : m + 1]
            for c in range(scheme.n_cls):
                live += B[c, 1 : m + 1] * sol.sources[c, i - 1]
                live += C[c, :m] * sol.sources[c, i]
        values = sol._finish(w[i:])
        values[0] = sol.boundary[i]
        yield i, values


def survival_bound_rows(model, f, grid):
    """The single-particle survival bound on the lattice, in the rows of ``lattice_rows``.

    Row i holds ``(1 - exp(-f(x + t_i))) exp(-hazard)`` at ages x = 0, dt,
    .., (n - i) dt.  The hazard is alpha t_i for a constant alpha, otherwise
    the trapezoid of alpha at dt along the ray, ``H[d + i] - H[d]`` from age
    x = d dt with ``H`` the cumulative trapezoid of alpha over the grid ages.
    """
    n, times = grid.n_steps, grid.times()
    surv = -np.expm1(-np.asarray(f(times), dtype=np.float64))  # at x + t = j dt
    alpha = model.alpha
    if alpha.is_constant:
        rate = float(alpha(0.0))
        for i in range(n + 1):
            yield surv[i:] * math.exp(-rate * times[i])
        return
    a = np.asarray(alpha(times), dtype=np.float64)
    H = np.concatenate(([0.0], np.cumsum(grid.dt / 2.0 * (a[1:] + a[:-1]))))
    for i in range(n + 1):
        yield surv[i:] * np.exp(H[: n + 1 - i] - H[i:])


def row_loop_margins(usol, msol) -> list[float]:
    """``lattice_margins`` one lattice row at a time, each row reduced as it is swept.

    The margins fold with ``numpy.minimum``, so a NaN at any node reaches
    its margin.
    """
    model, f = usol.model, usol.f
    c0, _, _ = model.constants()
    times, sup = usol.grid.times(), f.sup
    margins = [math.inf] * 4
    rows = zip(lattice_rows(usol), lattice_rows(msol), survival_bound_rows(model, f, usol.grid))
    for (i, urow), (_, prow), lower in rows:
        row = (
            urow.min(),
            (urow - lower).min(),
            (prow - urow).min(),
            math.exp(c0 * times[i]) * sup - float(prow.max()),
        )
        margins = [float(np.minimum(m, v)) for m, v in zip(margins, row)]
    return margins


_UNIT_ROUNDOFF = 2.0**-53


def _fft_allowance(size: int) -> float:
    return 4.0 * math.log2(size) * _UNIT_ROUNDOFF


def renewal_rounding_bounds(sol, offsets=()):
    """The rounding bounds of the ``solvers`` docstring, for a solution.

    Returns ``(fft, total)``, each a pair ``(bound on every boundary value,
    bounds on the rays at offsets)`` in the solution's own units (exponents
    for an exponent solution).  ``fft`` is the FFT products' rounding
    allowance alone, propagated through the scheme; ``total`` adds the direct
    leaf sums, the fixed point's stopping rule and the recurrence's own
    arithmetic in either evaluation order, and so bounds the gap to
    ``march_exponent`` / ``march_mean``.
    """
    mean = isinstance(sol, MeanSolution)
    model, grid, n, u = sol.model, sol.grid, sol.grid.n_steps, _UNIT_ROUNDOFF
    lip = 1.0 if mean else model.offspring.sup_mean  # bounds d source / d w
    src = np.abs(sol.sources)
    smax = float(src.max())

    def along(ages):
        scheme = _Scheme(model, grid, ages, mean)
        fvals = np.asarray(sol.f(ages), dtype=np.float64)
        start = float(np.abs(scheme.P * (fvals if mean else np.exp(-fvals))).max())
        return np.abs(scheme.by_class(scheme.K)), start

    K, start = along(grid.dt * np.arange(n + 1))
    k1 = float(K.sum())
    size = 1 << (2 * (n + 1) - 1).bit_length()  # at least the largest block product
    blocks = math.sqrt(n) / (math.sqrt(2.0) - 1.0)  # sum of sqrt(block length) per output
    fft = _fft_allowance(size) * blocks * float(np.sum(np.linalg.norm(K, axis=1) * src.max(axis=1)))
    q = lip * float(K[:, 0].sum())
    rest = (
        math.log2(n + 1) * u * (start + k1 * smax)  # adding the block products
        + _LEAF * u * k1 * smax  # the leaves' direct sums
        + (0.0 if mean else 2.0 * q / (1.0 - q) * _FIXED_POINT_TOL)  # either stopping point
        + 8.0 * (n + 1) * u * (start + k1 * smax)  # the recurrence's arithmetic, either order
    )
    # rho: how far the linearized scheme amplifies a per-step error
    ksum = lip * K.sum(axis=0)
    if ksum.sum() < 1.0:
        rho = 1.0 / (1.0 - ksum.sum())
    else:
        r = np.empty(n + 1)
        for j in range(n + 1):
            r[j] = (1.0 + np.dot(ksum[j:0:-1], r[:j])) / (1.0 - ksum[0])
        rho = float(r.max())
    bounds = {"fft": [rho * fft, []], "total": [rho * (fft + rest), []]}

    offsets = _ray_offsets(offsets)
    spec = 1 << (2 * n + 1).bit_length()
    for x, ray in zip(offsets, sol.rays(offsets)):
        Kx, start_x = along(x + grid.dt * np.arange(n + 1))
        own = _fft_allowance(spec) * float(np.sum(np.linalg.norm(src, axis=1) * np.linalg.norm(Kx, axis=1)))
        arith = 8.0 * (n + 1) * u * (start_x + float(Kx.sum()) * smax)
        feed = lip * float(Kx.sum())
        bounds["fft"][1].append(own + feed * bounds["fft"][0])
        bounds["total"][1].append(own + arith + feed * bounds["total"][0])
        if not mean:  # an error e in w = exp(-exponent) moves the exponent by at most e / (w - e)
            w_min = math.exp(-float(ray.max()))
            for key in bounds:
                bounds[key][1][-1] /= w_min - bounds[key][1][-1]
    if not mean:
        w_min = math.exp(-float(sol.boundary.max()))
        for key in bounds:
            bounds[key][0] /= w_min - bounds[key][0]
    return tuple((bound, np.array(rays)) for bound, rays in bounds.values())


def fan_exponent(model, f, grid, offset=0.0, boundary=None):
    """Exponent along the ray at age ``offset`` for every grid time.

    With ``boundary=None`` this marches the boundary fan itself (offset 0).
    """
    is_boundary = boundary is None
    _check_contraction(model, grid)
    n, dt = grid.n_steps, grid.dt
    trapezoid = grid.quadrature == "trapezoid"
    alpha, offspring = model.alpha, model.offspring

    ages = offset + dt * np.arange(n + 1)
    alpha_g = np.asarray(alpha(ages), dtype=np.float64)
    ridx = offspring.regime_indices(ages)
    W = np.exp(-np.asarray(f(ages), dtype=np.float64))
    diag = np.empty(n + 1)
    diag[0] = W[0]
    if is_boundary:
        zb_arr = np.empty(n + 1)
        zb_arr[0] = _clip_unit(W[0])
    else:
        zb_arr = np.exp(-np.asarray(boundary, dtype=np.float64))
    g_at = offspring.g_by_regime(float(zb_arr[0]))[ridx]

    for i in range(n):
        m = n - i
        w_slice = W[i + 1 :]
        F_left = alpha_g[1 : m + 1] * (g_at[1 : m + 1] - w_slice)
        if not trapezoid:
            W[i + 1 :] = w_slice + dt * F_left
            if is_boundary:
                zb_arr[i + 1] = _clip_unit(float(W[i + 1]))
            g_at = offspring.g_by_regime(float(zb_arr[i + 1]))[ridx]
        else:
            if is_boundary:
                c_known = float(w_slice[0] + (dt / 2.0) * F_left[0])
                a0 = float(alpha_g[0])
                denom = 1.0 + (dt / 2.0) * a0
                regime0 = offspring.regimes[int(ridx[0])]
                w_plus = min(max(c_known / denom, 0.0), 1.0)
                for _ in range(_FIXED_POINT_MAX_ITER):
                    w_next = (c_known + (dt / 2.0) * a0 * regime0.g(min(max(w_plus, 0.0), 1.0))) / denom
                    if abs(w_next - w_plus) <= _FIXED_POINT_TOL:
                        w_plus = w_next
                        break
                    w_plus = w_next
                else:
                    raise RuntimeError("boundary fixed point did not converge")
                zb_arr[i + 1] = _clip_unit(w_plus)
            g_at = offspring.g_by_regime(float(zb_arr[i + 1]))[ridx]
            W[i + 1 :] = (
                w_slice + (dt / 2.0) * (F_left + alpha_g[0:m] * g_at[0:m])
            ) / (1.0 + (dt / 2.0) * alpha_g[0:m])
            if is_boundary:
                W[i + 1] = zb_arr[i + 1]
        diag[i + 1] = W[i + 1]
    return -np.log(np.maximum(diag, 1e-300))


def fan_mean(model, f, grid, offset=0.0, boundary=None, form="discounted"):
    """First-moment kernel along the ray at age ``offset`` for every grid time."""
    is_boundary = boundary is None
    _check_contraction(model, grid)
    n, dt = grid.n_steps, grid.dt
    trapezoid = grid.quadrature == "trapezoid"
    alpha, offspring = model.alpha, model.offspring

    ages = offset + dt * np.arange(n + 1)
    alpha_g = np.asarray(alpha(ages), dtype=np.float64)
    mean_g = offspring.mean_by_regime()[offspring.regime_indices(ages)]
    am = alpha_g * mean_g
    fvals = np.asarray(f(ages), dtype=np.float64)
    if is_boundary:
        mb = np.empty(n + 1)
        mb[0] = fvals[0]
    else:
        mb = np.asarray(boundary, dtype=np.float64)
    diag = np.empty(n + 1)
    diag[0] = fvals[0]

    if form == "discounted":
        A = np.zeros(n + 1)
        J = np.zeros(n + 1)
        for i in range(n):
            m = n - i
            k_l = slice(1, m + 1)
            k_r = slice(0, m)
            h_left = np.exp(A[i + 1 :]) * am[k_l] * mb[i]
            if trapezoid:
                A_new = A[i + 1 :] + (dt / 2.0) * (alpha_g[k_l] + alpha_g[k_r])
                if is_boundary:
                    known = math.exp(-A_new[0]) * (fvals[i + 1] + J[i + 1] + (dt / 2.0) * h_left[0])
                    mb[i + 1] = known / (1.0 - (dt / 2.0) * am[0])
                h_right = np.exp(A_new) * am[k_r] * mb[i + 1]
                J[i + 1 :] += (dt / 2.0) * (h_left + h_right)
            else:
                A_new = A[i + 1 :] + dt * alpha_g[k_l]
                J[i + 1 :] += dt * h_left
                if is_boundary:
                    mb[i + 1] = math.exp(-A_new[0]) * (fvals[i + 1] + J[i + 1])
            A[i + 1 :] = A_new
            diag[i + 1] = (
                mb[i + 1] if is_boundary else math.exp(-A[i + 1]) * (fvals[i + 1] + J[i + 1])
            )
        return diag

    # direct form: plain quadrature of d(phi)/dt = alpha (mean m_b(t) - phi)
    phi = fvals.copy()
    for i in range(n):
        m = n - i
        k_l = slice(1, m + 1)
        k_r = slice(0, m)
        F_left = alpha_g[k_l] * (mean_g[k_l] * mb[i] - phi[i + 1 :])
        if trapezoid:
            if is_boundary:
                numer = phi[i + 1] + (dt / 2.0) * F_left[0]
                denom = 1.0 + (dt / 2.0) * alpha_g[0] * (1.0 - mean_g[0])
                mb[i + 1] = numer / denom
            phi[i + 1 :] = (
                phi[i + 1 :] + (dt / 2.0) * (F_left + alpha_g[k_r] * mean_g[k_r] * mb[i + 1])
            ) / (1.0 + (dt / 2.0) * alpha_g[k_r])
            if is_boundary:
                phi[i + 1] = mb[i + 1]
        else:
            phi[i + 1 :] = phi[i + 1 :] + dt * F_left
            if is_boundary:
                mb[i + 1] = phi[i + 1]
        diag[i + 1] = phi[i + 1]
    return diag


def renewal_exponent_boundary(model, f, grid):
    """Boundary trace via the survival-discounted renewal form.

    Marches ``exp(-b(t)) = exp(-f(t) - A(t)) + integral_0^t exp(-A(s)) alpha(s)
    g(s, exp(-b(t-s))) ds`` directly; an independent discretization of the
    exponent the characteristic fan computes.
    """
    _check_contraction(model, grid)
    n, dt = grid.n_steps, grid.dt
    trapezoid = grid.quadrature == "trapezoid"
    alpha, offspring = model.alpha, model.offspring
    s = dt * np.arange(n + 1)
    alpha_g = np.asarray(alpha(s), dtype=np.float64)
    ridx = offspring.regime_indices(s)
    n_reg = len(offspring.regimes)
    A = np.zeros(n + 1)
    if trapezoid:
        A[1:] = np.cumsum((dt / 2.0) * (alpha_g[:-1] + alpha_g[1:]))
    else:
        A[1:] = np.cumsum(dt * alpha_g[:-1])
    decay = np.exp(-A)
    fvals = np.asarray(f(s), dtype=np.float64)

    Z = np.empty(n + 1)  # exp(-b(t_j))
    Z[0] = _clip_unit(math.exp(-fvals[0]))
    G = np.empty((n_reg, n + 1))  # g by regime at each known Z
    G[:, 0] = offspring.g_by_regime(float(Z[0]))
    kernel = decay * alpha_g
    for j in range(1, n + 1):
        idx = np.arange(j + 1)
        conv = kernel[idx] * G[ridx[idx], j - idx]  # entry j uses the unknown Z[j]
        base = math.exp(-fvals[j]) * decay[j]
        if not trapezoid:
            known = base + dt * float(np.sum(conv[:j])) - dt * conv[0]
            w0 = dt * kernel[0]
        else:
            known = base + (dt / 2.0) * conv[j] + dt * float(np.sum(conv[1:j]))
            w0 = (dt / 2.0) * kernel[0]
        regime0 = offspring.regimes[int(ridx[0])]
        z = min(max(known + w0 * G[ridx[0], j - 1], 0.0), 1.0)
        for _ in range(_FIXED_POINT_MAX_ITER):
            z_next = known + w0 * regime0.g(min(max(z, 0.0), 1.0))
            if abs(z_next - z) <= _FIXED_POINT_TOL:
                z = z_next
                break
            z = z_next
        else:
            raise RuntimeError("renewal fixed point did not converge")
        Z[j] = _clip_unit(z)
        G[:, j] = offspring.g_by_regime(float(Z[j]))
    return -np.log(Z)


def boundary_at(sol, t: float) -> float:
    """A solution's boundary trace at time t, linear between grid nodes."""
    return float(np.interp(t, sol.grid.times(), sol.boundary))


def scalar_exponent_at(sol, t, x):
    """Exponent at time t and age x by scalar integration along one ray."""
    if t == 0.0:
        return float(sol.f(x))
    dt = sol.grid.dt
    trapezoid = sol.grid.quadrature == "trapezoid"
    alpha, offspring = sol.model.alpha, sol.model.offspring
    y = x + t
    w = math.exp(-float(sol.f(y)))
    r = 0.0
    while r < t - 1e-15:
        h = min(dt, t - r)
        age_l = y - r
        zb_l = math.exp(-boundary_at(sol, r))
        F_l = float(alpha(age_l)) * (offspring.g_by_regime(zb_l)[offspring.regime_indices(age_l)] - w)
        if not trapezoid:
            w = w + h * F_l
        else:
            age_r = y - (r + h)
            a_r = float(alpha(age_r))
            zb_r = math.exp(-boundary_at(sol, r + h))
            g_r = offspring.g_by_regime(min(max(zb_r, 0.0), 1.0))[offspring.regime_indices(age_r)]
            w = (w + (h / 2.0) * (F_l + a_r * g_r)) / (1.0 + (h / 2.0) * a_r)
        r += h
    return -math.log(_clip_unit(w))


def scalar_mean_at(sol, t, x):
    """First-moment kernel at time t and age x by scalar integration along one ray."""
    if t == 0.0:
        return float(sol.f(x))
    dt = sol.grid.dt
    trapezoid = sol.grid.quadrature == "trapezoid"
    alpha, offspring = sol.model.alpha, sol.model.offspring
    means = offspring.mean_by_regime()
    y = x + t
    A = 0.0
    J = 0.0
    r = 0.0
    while r < t - 1e-15:
        h = min(dt, t - r)
        age_l, age_r = y - r, y - (r + h)
        a_l, a_r = float(alpha(age_l)), float(alpha(age_r))
        am_l, am_r = a_l * means[offspring.regime_indices(age_l)], a_r * means[offspring.regime_indices(age_r)]
        h_left = math.exp(A) * am_l * boundary_at(sol, r)
        if trapezoid:
            A_new = A + (h / 2.0) * (a_l + a_r)
            h_right = math.exp(A_new) * am_r * boundary_at(sol, r + h)
            J += (h / 2.0) * (h_left + h_right)
        else:
            A_new = A + h * a_l
            J += h * h_left
        A = A_new
        r += h
    return math.exp(-A) * (float(sol.f(y)) + J)


def immigration_integral_per_node(imm, ages, rays, grid, tol=1e-12):
    """(integral, per-node psi) from the exponent rays at the atom ages.

    psi is the scalar form of ``psi_from_exponents``, called once per node
    with the group Laplace sum taken one q at a time.
    """
    n = grid.n_steps
    psi = np.empty(n + 1)
    for j in range(n + 1):
        h = {a: float(r[j]) for a, r in zip(ages, rays)}
        if imm.kind == "finite":
            psi[j] = sum(w * -math.expm1(-sum(h[a] for a in g.ages)) for w, g in imm.groups)
        else:
            q = min(max(sum(p * math.exp(-h[a]) for a, p in imm.age_atoms), 0.0), 1.0)
            s = imm.size_law.laplace_sum(q, tol / max(imm.total_rate, 1.0))
            psi[j] = imm.total_rate * (1.0 - s)
    return float(np.dot(grid.weights(), psi)), psi


def single_arrivals(rate: float) -> ImmigrationMechanism:
    """Rate-lambda arrivals of single newborn immigrants (age 0)."""
    if rate == 0.0:
        return ImmigrationMechanism.none()
    return ImmigrationMechanism.finite_support([(rate, AgeMeasure.point(0.0))])


def mass_delta(e: Event) -> int:
    """The change of the population size at event ``e``."""
    if e.kind == "branch":
        return e.offspring_count - 1
    return e.group.total_mass


class KeptAges(AgeMeasure):
    """An ``AgeMeasure`` whose ages stay in the order given, validated as any other.

    A snapshot as a simulator keeps it, newest first: its sums (``integrate``,
    ``as_array``) run in that order, as the kernel's sums over its flat
    snapshot ages do.
    """

    def __post_init__(self) -> None:
        AgeMeasure(self.ages)


def kept_snapshots(traj: Trajectory) -> tuple[tuple[float, KeptAges], ...]:
    """A kernel ``Trajectory``'s snapshots, each's ages in the order the kernel recorded them."""
    ends = np.cumsum(traj.snapshot_masses)
    return tuple(
        (s, KeptAges(tuple(traj.snapshot_ages[e - m : e].tolist())))
        for s, m, e in zip(traj.snapshot_times, traj.snapshot_masses.tolist(), ends.tolist())
    )


@dataclass(frozen=True)
class ObjectTrajectory:
    """Snapshots at requested times plus the full event log.

    Each snapshot's ages are in the order the simulator kept them
    (``KeptAges``), so a comparison with the kernel reads them bit for bit.

    ``terminated_by`` is "t_end" (ran to the horizon), "extinction" (the
    population died and, without immigration, can never recover) or
    "event_cap" (truncated; statistics from such a path are biased and all
    consumers must check the flag).
    """

    snapshots: tuple[tuple[float, AgeMeasure], ...]
    events: tuple[Event, ...]
    terminated_by: str
    initial: AgeMeasure


def weighted_index(weights: np.ndarray, y, total, counts):
    """Index of the first entry whose cumulative weight exceeds ``y * total``, per segment.

    The weights are consecutive nonempty segments of ``counts`` entries, and
    ``y`` and ``total`` hold one entry per segment.  ``total`` is ``None`` for
    each segment's last cumulative weight; a caller that already holds the
    sums passes them.  The index is clamped to the segment's last entry, so
    rounding between ``total`` and the cumulative sum cannot run past its
    end.  As ``y ~ Uniform[0, 1)`` entry ``i`` is picked with probability
    ``weights[i] / total``.  Each result is the same integer as a call on its
    segment alone: the cumulative sums restart at every segment because a
    running sum minus itself is exactly 0.
    """
    counts = np.asarray(counts, dtype=np.int64)
    seg = np.arange(len(counts)).repeat(counts)
    sums = np.bincount(seg, weights=weights, minlength=len(counts))  # sequential, as cumsum
    # minus the running sum leads every segment after the first
    resets = (counts.cumsum() + np.arange(len(counts)))[:-1]
    led, held = interleave(weights, resets, -sums[:-1])
    cum = led.cumsum()[held]
    totals = sums if total is None else np.asarray(total, dtype=np.float64)
    if not (totals > 0.0).all():
        raise ValueError("alpha-weighted mass is zero; alpha must be positive on atoms")
    below = np.bincount(seg[cum <= (np.asarray(y) * totals)[seg]], minlength=len(counts))
    return np.minimum(below, counts - 1)


def log_counters(traj, t: float) -> tuple[int, int]:
    """sup of the population size over [0, t] and the branch events up to and including t.

    Exact from the event log of either trajectory type; a ``Trajectory``
    simulated without its log has only its whole-path counters.
    """
    m = best = traj.initial.total_mass
    branches = 0
    for e in traj.events:
        if e.time > t:
            break
        m += mass_delta(e)
        best = max(best, m)
        branches += e.kind == "branch"
    return best, branches


def simulate_objects(cfg: SimConfig, rng: np.random.Generator | None = None) -> ObjectTrajectory:
    """Run one exact path of the branching process, with immigration if configured.

    Deterministic: identical (seed, replicate_index, config) gives a
    bit-identical trajectory.  An accepted event past ``max_events`` at or
    before ``t_end`` truncates the path before it happens and flags it, with
    the snapshots before that event; it is never silently dropped.
    """
    if rng is None:
        rng = replicate_rng(cfg.seed, cfg.replicate_index)
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate if imm is not None else 0.0

    # age of particle i at time t is bases[i] + t; a newcomer at time t of age
    # a gets base a - t and joins the front of the list, newest first
    bases: list[float] = list(cfg.initial.ages)
    clock = 0.0
    events: list[Event] = []
    snapshots: list[tuple[float, AgeMeasure]] = []
    snap_times = list(cfg.snapshot_times)
    snap_pos = 0

    def record_through(t: float, inclusive: bool) -> None:
        # The path is right-continuous: a snapshot exactly at a jump time sees
        # the post-jump state, so pre-event recording stays strictly below it.
        nonlocal snap_pos
        while snap_pos < len(snap_times) and (
            snap_times[snap_pos] < t or (inclusive and snap_times[snap_pos] <= t)
        ):
            s = snap_times[snap_pos]
            snapshots.append((s, KeptAges(tuple(b + s for b in bases))))
            snap_pos += 1

    n_events = 0
    terminated_by = "t_end"
    while True:
        mass = len(bases)
        if mass == 0 and rate_arrival == 0.0:
            terminated_by = "extinction"
            record_through(cfg.t_end, inclusive=True)
            break
        t_branch = math.inf
        if mass > 0:
            t_branch = clock + rng.exponential(1.0 / (c1 * mass))
        t_arrival = math.inf
        if rate_arrival > 0.0:
            t_arrival = clock + rng.exponential(1.0 / rate_arrival)
        t_next = min(t_branch, t_arrival)
        if t_next > cfg.t_end:
            record_through(cfg.t_end, inclusive=True)
            break
        record_through(t_next, inclusive=False)
        if t_branch <= t_arrival:
            # try one particle, picked uniformly; it dies with probability alpha(age) / c1
            u = rng.random()
            idx = min(int(rng.random() * mass), mass - 1)
            dying_age = bases[idx] + t_next
            if u * c1 < float(alpha(np.array([dying_age]))[0]):
                if n_events >= cfg.max_events:  # an accepted event past the cap cuts the path
                    terminated_by = "event_cap"
                    break
                k = int(offspring.sample(np.array([dying_age]), rng)[0])
                del bases[idx]
                if k:
                    bases[0:0] = [-t_next] * k
                events.append(Event(t_next, "branch", dying_age=dying_age, offspring_count=k))
                n_events += 1
        else:
            assert imm is not None
            if n_events >= cfg.max_events:
                terminated_by = "event_cap"
                break
            group = AgeMeasure(tuple(imm.sample_groups(rng, 1)[1].tolist()))
            bases[0:0] = [a - t_next for a in group.ages]
            events.append(Event(t_next, "immigrate", group=group))
            n_events += 1
        clock = t_next

    return ObjectTrajectory(tuple(snapshots), tuple(events), terminated_by, cfg.initial)


def replay_objects(cfg: SimConfig, events, terminated_by: str, recorded: int | None = None) -> ObjectTrajectory:
    """The path an event log describes, rebuilt from the initial state without randomness.

    Each branch event removes a particle of exactly its dying age (there must
    be one) and adds its offspring at age zero; each arrival adds its group.
    Newcomers join the front of the list, as in ``simulate_objects``.
    Snapshots are taken as ``simulate_objects`` takes them, through ``t_end``
    unless the event cap cut the path.  The log does not hold the event past
    the cap that cut a path, so a cut path takes its first ``recorded``
    snapshots, those after its last event included.
    """
    bases: list[float] = list(cfg.initial.ages)
    snapshots: list[tuple[float, AgeMeasure]] = []
    snap_times = list(cfg.snapshot_times)
    snap_pos = 0

    def record_through(t: float, inclusive: bool) -> None:
        nonlocal snap_pos
        while snap_pos < len(snap_times) and (
            snap_times[snap_pos] < t or (inclusive and snap_times[snap_pos] <= t)
        ):
            s = snap_times[snap_pos]
            snapshots.append((s, KeptAges(tuple(b + s for b in bases))))
            snap_pos += 1

    for e in events:
        record_through(e.time, inclusive=False)
        if e.kind == "branch":
            del bases[[b + e.time for b in bases].index(e.dying_age)]
            bases[0:0] = [-e.time] * e.offspring_count
        else:
            bases[0:0] = [a - e.time for a in e.group.ages]
    if terminated_by != "event_cap":
        record_through(cfg.t_end, inclusive=True)
    elif recorded:
        record_through(snap_times[recorded - 1], inclusive=True)
    return ObjectTrajectory(tuple(snapshots), tuple(events), terminated_by, cfg.initial)


def segment_keys(segment: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Complex keys ``segment + 1j * values``, which sort by segment, then by value.

    Complex numbers order lexicographically (real part, then imaginary), so
    one ``searchsorted`` on these keys searches each segment on its own.
    """
    keys = np.empty(len(segment), dtype=np.complex128)
    keys.real, keys.imag = segment, values
    return keys


def keyed_segment_pick(weights, owner, first, counts, sums, segs, y) -> np.ndarray:
    """``measures.segment_pick`` as it was: one ``searchsorted`` on complex keys, segment + 1j * value.

    In each segment of ``segs``, the first entry whose cumulative weight
    exceeds ``y * sums``.

    The weights are consecutive segments, segment ``j`` holding the
    ``counts[j]`` entries from ``first[j]`` (empty segments allowed);
    ``owner`` is each entry's segment and ``sums`` each segment's sequential
    sum, ``np.bincount(owner, weights=weights)``.  ``segs`` lists nonempty
    segments, with one ``y`` each.  The cumulative sums restart at every
    segment because a running sum minus itself is exactly 0, so each keeps
    the bits of a cumulative sum over its segment alone.  The index is
    clamped to the segment's last entry.  As ``y ~ Uniform[0, 1)`` entry
    ``i`` of segment ``s`` is picked with probability ``weights[i] / sums[s]``.
    """
    # minus the running sum leads every segment after the first
    led, held = interleave(weights, first[1:] + np.arange(len(first) - 1), -sums[:-1])
    at = segment_keys(owner, led.cumsum()[held]).searchsorted(
        segment_keys(segs, y * sums[segs]), side="right"
    )
    return np.minimum(at, first[segs] + counts[segs] - 1)


def lockstep_paths(
    cfg: SimConfig, rng: np.random.Generator, n_paths: int, *, log_paths: int = 0
) -> PathSet:
    """``simulate.simulate_paths`` as it was, frozen as the oracle of every bit of its ``PathSet``.

    Each pass gathered and scattered the per-path mass, clock and running
    maximum through the live paths, and picked every dying particle with
    ``keyed_segment_pick``.  Its event cap cut a path as the path's
    ``max_events``-th event landed, so compare it with the kernel only where
    no path reaches the cap.

    Each pass of the loop makes one proposal on every live path, vectorised
    over them: the branch exponentials of the paths with particles, then one
    arrival exponential per path if the mechanism's rate is positive (one
    vector draw for both), then the acceptance uniforms of the branch
    proposals, the dying-index uniforms and the offspring counts (one vector
    draw per regime) of the accepted ones, and last the immigrant groups of
    the arrivals, in ascending path order (one vector draw, or group by group
    for members spread over several ages).  A vector draw of size k consumes
    the stream as k scalar draws and a size-0 draw consumes nothing, so at
    ``n_paths = 1`` the stream is read in the order of a one-path event loop;
    an exponential of scale s is ``s`` times a standard one, the bits of
    ``rng.exponential(s)``.  Paths leave the loop at ``t_end``, at extinction
    or at the event cap; the passes number about the longest path's
    proposals, not the sum over paths.  An empty path without immigration
    proposes at +inf, so in the same pass it records its remaining snapshots
    at mass 0 and ends by extinction.

    The live particles sit in one flat array of birth offsets, path by path
    and ascending within a path; a path's segment is located by the
    cumulative sum of the live masses, so memory is O(live particles).  Each
    pass sums every path's hazard in sequence with one ``bincount`` and picks
    every dying particle from one cumulative sum restarted at each path
    (``keyed_segment_pick``).  Only the first
    ``log_paths`` paths keep an ``Event`` log; the draws and every recorded
    number are the same whichever paths are logged.
    """
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate
    t_end = cfg.t_end
    snap_times = np.asarray(cfg.snapshot_times, dtype=np.float64)
    n_snap = len(snap_times)

    # the age of a particle at time t is its base + t; newborns get base = -t,
    # which is below every base of their path, so they go first in its segment
    m0 = cfg.initial.total_mass
    base = np.tile(np.asarray(cfg.initial.ages, dtype=np.float64), n_paths)
    mass = np.full(n_paths, m0, dtype=np.int64)
    clock = np.zeros(n_paths)
    snap_pos = np.zeros(n_paths, dtype=np.int64)
    snap_masses = np.zeros((n_paths, n_snap), dtype=np.int64)
    branches = np.zeros(n_paths, dtype=np.int64)
    n_events = np.zeros(n_paths, dtype=np.int64)
    max_mass = mass.copy()
    ending = np.full(n_paths, _T_END)
    logs: list[list[Event]] = [[] for _ in range(min(log_paths, n_paths))]
    recorded: list[tuple[np.ndarray, np.ndarray]] = []  # (path * n_snap + snap, their ages)
    group_measures: dict[tuple, AgeMeasure] = {}  # the logged groups: one measure per distinct group

    def record_through(paths, stop, first) -> None:
        # Snapshots up to index stop of each path, its particles starting at base[first].
        lo = snap_pos[paths]
        cnt = stop - lo
        if not cnt.any():
            return
        snap_pos[paths] = stop
        pair_path = paths.repeat(cnt)
        pair_snap = index_ranges(lo, cnt)
        m = mass[pair_path]
        snap_masses[pair_path, pair_snap] = m
        if m.any():
            ages = base[index_ranges(first.repeat(cnt), m)] + snap_times[pair_snap].repeat(m)
            recorded.append((pair_path * n_snap + pair_snap, ages))

    act = np.arange(n_paths)  # live paths, ascending; base holds exactly their particles
    while len(act):
        # below, arrays of one entry per live path are indexed by its place in act
        m = mass[act]
        first = m.cumsum() - m
        owner = np.arange(len(act)).repeat(m)  # of each live particle
        now = clock[act]
        # the branch proposals of the paths with particles, then one arrival per
        # path only at a positive rate (so a stream without immigration reads no
        # arrival); an empty path without immigration proposes at +inf
        has = m > 0
        n_has = int(has.sum())
        n_arrivals = len(act) if rate_arrival > 0.0 else 0
        draws = rng.standard_exponential(n_has + n_arrivals)
        t_next = np.full(len(act), np.inf)
        t_next[has] = now[has] + draws[:n_has] * (1.0 / (c1 * m[has]))
        t_arrival = now + draws[n_has:] * (1.0 / rate_arrival) if n_arrivals else np.inf
        branching = t_next <= t_arrival
        t_next = np.minimum(t_next, t_arrival)
        # snapshots strictly before each path's next event: the path is
        # right-continuous, so a snapshot at a jump time sees the post-jump
        # state; a path whose proposal passes t_end records all of them
        record_through(act, snap_times.searchsorted(t_next), first)
        done = t_next > t_end
        ending[act[t_next == np.inf]] = _EXTINCTION  # empty, and it stays empty
        keep = ~done[owner]

        # thinning: accept a branch proposal with probability <alpha, aged state> / (c1 mass);
        # the hazard of every live path is summed, and read where a branch is proposed
        ages_now = base + t_next[owner]
        weights = np.asarray(alpha(ages_now), dtype=np.float64)
        hazard = np.bincount(owner, weights=weights, minlength=len(act))
        proposed = np.flatnonzero(branching & ~done)
        d = proposed[rng.random(len(proposed)) * c1 * m[proposed] < hazard[proposed]]
        new_pos, new_base, new_owner = [], [], []
        if len(d):
            dying = keyed_segment_pick(weights, owner, first, m, hazard, d, rng.random(len(d)))
            dying_age = ages_now[dying]
            kids = offspring.sample(dying_age, rng)
            keep[dying] = False
            d_paths, d_t = act[d], t_next[d]
            mass[d_paths] += kids - 1
            branches[d_paths] += 1
            n_events[d_paths] += 1
            new_pos.append(first[d].repeat(kids))
            new_base.append((-d_t).repeat(kids))
            new_owner.append(d.repeat(kids))
            if logs:
                j = d_paths.searchsorted(len(logs))  # the logged paths lead act
                for p, t, a, k in zip(d_paths[:j].tolist(), d_t[:j].tolist(), dying_age[:j].tolist(),
                                      kids[:j].tolist()):
                    logs[p].append(Event(t, "branch", dying_age=a, offspring_count=k))

        arriving = np.flatnonzero(~(branching | done))
        if len(arriving):
            sizes, arrived = imm.sample_groups(rng, len(arriving))
            of_new = arriving.repeat(sizes)
            arrived_base = arrived - t_next[of_new]
            # each newcomer goes after the particles of its path with a base at
            # or below its own
            new_pos.append(
                segment_keys(owner, base).searchsorted(segment_keys(of_new, arrived_base), side="right")
            )
            new_base.append(arrived_base)
            new_owner.append(of_new)
            a_paths = act[arriving]
            mass[a_paths] += sizes
            n_events[a_paths] += 1
            if logs:
                j = a_paths.searchsorted(len(logs))
                ends = sizes[:j].cumsum()
                a_t = t_next[arriving[:j]]
                for p, t, lo, hi in zip(a_paths[:j].tolist(), a_t.tolist(), (ends - sizes[:j]).tolist(),
                                        ends.tolist()):
                    ages = tuple(arrived[lo:hi].tolist())
                    group = group_measures.get(ages)
                    if group is None:
                        group = group_measures[ages] = AgeMeasure(ages)
                    logs[p].append(Event(t, "immigrate", group=group))

        if new_pos:
            # the new particles listed by path have non-decreasing positions in
            # base; each goes after the kept particles before its position
            pos, values = np.concatenate(new_pos), np.concatenate(new_base)
            if len(new_pos) > 1:
                order = np.concatenate(new_owner).argsort(kind="stable")
                pos, values = pos[order], values[order]
            kept_before = np.concatenate(([0], keep.cumsum()))
            base = interleave(base[keep], kept_before[pos] + np.arange(len(pos)), values)[0]
        elif not keep.all():
            base = base[keep]
        act, t_next = act[~done], t_next[~done]
        max_mass[act] = np.maximum(max_mass[act], mass[act])
        clock[act] = t_next
        capped = n_events[act] >= cfg.max_events
        if capped.any():
            ending[act[capped]] = _EVENT_CAP
            m = mass[act]
            stay = np.ones(len(base), dtype=bool)
            stay[index_ranges((m.cumsum() - m)[capped], m[capped])] = False
            base = base[stay]
            act = act[~capped]

    # each recorded snapshot's ages go to its place, path by path then snapshot
    # by snapshot; each block is dropped once placed
    flat = snap_masses.ravel()
    offsets = np.cumsum(flat) - flat
    ages = np.empty(int(flat.sum()))
    while recorded:
        keys, block = recorded.pop()
        ages[index_ranges(offsets[keys], flat[keys])] = block
    snap_masses.flags.writeable = False
    ages.flags.writeable = False
    return PathSet(
        cfg.snapshot_times, snap_masses, ages, snap_pos, branches, max_mass, n_events,
        tuple(_ENDINGS[e] for e in ending.tolist()), cfg.initial, t_end,
        tuple(tuple(log) for log in logs),
    )


def replay_statistics(traj, f) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Per-snapshot times, integrals <X_t, f>, branch counts n(t), and a bias flag.

    A pure function of the trajectory.  ``biased`` is True when the path was
    cut off by the event cap, in which case the statistics must not be pooled
    into unbiased estimators.
    """
    times = np.array([t for t, _ in traj.snapshots])
    integrals = np.array([m.integrate(f) for _, m in traj.snapshots])
    branch_times = sorted(e.time for e in traj.events if e.kind == "branch")
    counts = np.searchsorted(branch_times, times, side="right")
    return times, integrals, counts, traj.terminated_by == "event_cap"


def mass_path(traj) -> tuple[np.ndarray, np.ndarray]:
    """Event times and the population size right after each event."""
    times = np.empty(len(traj.events))
    masses = np.empty(len(traj.events), dtype=np.int64)
    m = traj.initial.total_mass
    for i, e in enumerate(traj.events):
        m += mass_delta(e)
        times[i] = e.time
        masses[i] = m
    return times, masses


def chunk_rows_objects(job, trajs, g: str = "exp") -> np.ndarray:
    """A ``validate`` job's chunk rows, path by path, from ``ObjectTrajectory`` objects.

    Rows match the package's one chunk layout (mass and integral at each
    read-out snapshot, running maximum, branch count, the martingale pair
    of the test function ``TEST_FUNCTIONS[g]`` for a martingale job, the
    event-cap flag); every statistic is read from the ``AgeMeasure``
    snapshots or replayed from the event log, and the martingale pair is
    computed one path at a time.
    """
    k = len(job.reads)
    out = np.empty((len(trajs), 2 * k + (5 if job.martingale else 3)))
    for row, traj in zip(out, trajs):
        biased = 1.0 if traj.terminated_by == "event_cap" else 0.0
        row[-1] = biased
        if biased:
            row[:-1] = np.nan
            continue
        read = [traj.snapshots[i][1] for i in job.reads]
        row[:k] = [m.total_mass for m in read]
        row[k : 2 * k] = [m.integrate(job.f) for m in read]
        t = job.cfg.t_end
        row[2 * k : 2 * k + 2] = log_counters(traj, t)
        if job.martingale:
            row[2 * k + 2 : 2 * k + 4] = _martingale_pair_path(job, traj, g)
    return out


TEST_FUNCTIONS = {"identity": lambda v: v, "exp": lambda v: np.exp(-v), "square": lambda v: v * v}


def _martingale_pair_path(job, traj, g: str) -> tuple[float, float]:
    """``(G(v_T) - G(v_0), integral_0^T L G_f(X_s) ds)`` of one path, G = ``TEST_FUNCTIONS[g]``."""
    # One pooled pass over all snapshot particles: every generator term
    # factorizes into snapshot-level functions of v = <X_s, f> times
    # per-particle sums, accumulated with bincount over the snapshot index.
    model = job.cfg.model
    f = job.f
    imm = job.cfg.immigration
    G = TEST_FUNCTIONS[g]
    fprime = f.derivative_fn()
    if fprime is None:
        raise ValueError(f"field kind {f.kind!r} is not continuously differentiable")
    f0 = float(f(0.0))
    offspring = model.offspring

    imm_f1 = imm_f2 = psi_f = 0.0
    has_imm = imm.total_rate > 0.0
    if has_imm:
        if g == "exp":
            psi_f = imm.psi(f)
        else:
            imm_f1 = imm.first_moment_of(f)
            if math.isinf(imm_f1):
                raise ValueError("martingale check needs a finite mean group integral")
            if g == "square":
                imm_f2 = group_second_moment(imm, f)
                if math.isinf(imm_f2):
                    raise ValueError("martingale check needs a finite second group moment")

    n_snap = len(traj.snapshots)
    times = np.array([s for s, _ in traj.snapshots])
    counts = np.array([m.total_mass for _, m in traj.snapshots])
    if counts.sum() == 0:
        ages = np.empty(0)
    else:
        ages = np.concatenate([m.as_array() for _, m in traj.snapshots if m.total_mass])
    seg = np.repeat(np.arange(n_snap), counts)

    fa = np.asarray(f(ages), dtype=np.float64)
    a_vals = np.asarray(model.alpha(ages), dtype=np.float64)
    ridx = offspring.regime_indices(ages)
    means = offspring.mean_by_regime()[ridx]
    vs = np.bincount(seg, weights=fa, minlength=n_snap)
    seg_fp = np.bincount(seg, weights=fprime(ages), minlength=n_snap)

    if g == "identity":
        seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
        lg = seg_fp + seg_lin + (imm_f1 if has_imm else 0.0)
    elif g == "exp":
        g0 = offspring.g_by_regime(math.exp(-f0))[ridx]
        seg_g = np.bincount(seg, weights=a_vals * (np.exp(fa) * g0 - 1.0), minlength=n_snap)
        lg = np.exp(-vs) * (-seg_fp + seg_g - (psi_f if has_imm else 0.0))
    else:
        second = np.array([pmf_second_moment(r) for r in offspring.regimes])[ridx]
        seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
        seg_sq = np.bincount(
            seg, weights=a_vals * (f0**2 * second - 2.0 * f0 * fa * means + fa**2), minlength=n_snap
        )
        lg = 2.0 * vs * seg_fp + 2.0 * vs * seg_lin + seg_sq
        if has_imm:
            lg = lg + 2.0 * vs * imm_f1 + imm_f2

    h = np.diff(times)
    integral = float(np.sum(h * (lg[:-1] + lg[1:]) / 2.0))
    return G(float(vs[-1])) - G(float(vs[0])), integral


def pmf_second_moment(pmf) -> float:
    """E[N^2] of an ``OffspringPmf``."""
    if pmf.kind == "pmf":
        return float(sum(k * k * p for k, p in zip(pmf.counts, pmf.probs)))
    if pmf.kind == "geometric":
        q = pmf.param
        return q * (1.0 + q) / (1.0 - q) ** 2
    return pmf.param + pmf.param**2


def size_second_moment(law) -> float:
    """E[K^2] of a ``GroupSizeLaw``; zeta(s - 2) / zeta(s) for a zeta tail, +inf where it diverges."""
    if law.kind == "pmf":
        return float(sum(k * k * p for k, p in zip(law.sizes, law.probs)))
    if law.kind == "zeta":
        if law.exponent <= 3.0:
            return math.inf
        return models._zeta_real(law.exponent - 2.0) / models._zeta_real(law.exponent)
    if law.kind == "log_squared":
        return math.inf
    raise ValueError("declared laws do not certify a second moment")


def group_second_moment(imm, f) -> float:
    """integral of <nu, f>^2 dL(nu) of an ``ImmigrationMechanism``; may be +inf."""
    if imm.total_rate == 0.0:
        return 0.0
    if imm.kind == "finite":
        return sum(w * g.integrate(f) ** 2 for w, g in imm.groups)
    m1, m2 = imm.size_law.mean_size, size_second_moment(imm.size_law)
    if math.isinf(m1) or math.isinf(m2):
        return math.inf
    mean_f = sum(p * float(f(a)) for a, p in imm.age_atoms)
    mean_f2 = sum(p * float(f(a)) ** 2 for a, p in imm.age_atoms)
    var_f = mean_f2 - mean_f**2
    return imm.total_rate * (m1 * var_f + m2 * mean_f**2)



def observed_orders(model, f, t, reference, dts, quadrature, which="exponent") -> list[float]:
    """Empirical convergence orders of the boundary solvers against a closed form.

    Runs the requested solver at each dt, measures the boundary error at time
    t against the reference value, and returns log2 error ratios between
    consecutive step halvings.
    """
    errors = []
    for dt in dts:
        grid = SolverGrid(dt, max(1, round(t / dt)) * dt, quadrature)
        solve = solve_exponent if which == "exponent" else solve_mean
        errors.append(abs(boundary_at(solve(model, f, grid), t) - reference))
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


def write_csv_rows(path, header, rows) -> None:
    """A header line, then each row of ``rows`` with ``_fmt`` per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
