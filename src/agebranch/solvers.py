"""Deterministic solvers for the population's Laplace and moment functionals.

Both governing equations couple values only along characteristics (rays where
age plus time is constant) plus the boundary trace at age zero.

Laplace exponent (``exponent``): writing ``w_y(r) = exp(-u_r f(y - r))`` on
the characteristic through label ``y``, with boundary trace ``b(r) = u_r f(0)``,

    w_y(t) = exp(-f(y)) + integral_0^t alpha(y-r) [g(y-r, exp(-b(r))) - w_y(r)] dr.

First-moment kernel (``mean``): writing ``phi_y(t)`` for the kernel applied to
f along the same characteristic, with boundary trace ``m_b(r)``, the
characteristic form is ``d phi/dt = alpha(y-t) [mean(y-t) m_b(t) - phi(t)]``:
offspring are born at age zero, so the reproduction term feeds on the
boundary trace while the compensation carries the ray value (this is the
field-derivative of the exponent equation, and the pure-death closed form
``f(y) exp(-cumulative hazard)`` solves it exactly).  It is integrated in the
survival-discounted shape ``exp(-A_y(t)) [f(y) + integral exp(A_y(r)) alpha m
m_b(r) dr]``, ``A_y`` the cumulative hazard along the ray, which is exact for
models whose mean offspring number vanishes.

The scheme.  One time step moves a characteristic from age ``d dt`` to age
``(d - 1) dt``.  With rectangle (left endpoint, first order) or trapezoid
(second order) quadrature it is the linear recurrence

    w <- A_d w + B_d s(d, t_i) + C_(d-1) s(d - 1, t_(i+1))

where the source ``s(a, t)`` is ``g_r(exp(-b(t)))`` for the exponent, ``r``
the offspring regime at age a, and ``m_b(t)`` for the mean.  The coefficients
depend only on the ages (``_Scheme`` builds them), so unrolling the recurrence
along a characteristic that is at age ``x`` at time ``t_i`` gives

    w_x(t_i) = P_i w_x(0) + sum_(k=0..i) K_(i-k) s(x + (i-k) dt, t_k) - E_i s(x + i dt, t_0)

with ``P_d = A_1 ... A_d``, ``K_d = P_(d-1) B_d + P_d C_d`` and the edge term
``E_d = P_d C_d`` (no step ends at time 0), all taken along the ages
``x + d dt``.  This is an exact rewrite of marching the characteristic fan
step by step, not a second discretization, so tolerances and convergence
orders are those of the march.

* The boundary (x = 0) is a discrete Volterra convolution equation in its own
  trace.  It is solved online in O(n log^2 n): the sum over completed blocks
  of ``2^k`` leaves is added to the next ``2^k`` leaves with one FFT product
  (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541),
  and within a leaf of ``_LEAF`` steps the sum is direct.  The new value
  appears in its own k = i term through ``C_0``: the exponent's step closes
  it by the damped fixed point ``w = known + C_0 g(w)`` to ``_FIXED_POINT_TOL``
  (the contraction needs ``dt * sup alpha < 1``, enforced up front); the
  mean's is ``known / (1 - C_0)``.
* A ray at any age x, once the boundary is known, is one plain convolution of
  the boundary's sources with the ray's own kernel over the ages
  ``x + d dt`` (``rays``).  A grid-aligned age ``K dt`` with ``K <= n`` uses
  the ages ``(K + d) dt``, the labels the march would visit.
* ``rows`` sweeps the recurrence row by row in time, driven by the known
  boundary, for the values on the whole (time, age) lattice with O(n) memory.

Rounding.  ``numpy.fft`` is pocketfft, single-threaded, so no output depends
on a worker setting.  Its worst-case error bound for a circular convolution
``a * b`` of size N, about ``(14 log2 N + 3) u (|a|_1 |b|_2 + |a|_2 |b|_1)``
per entry with ``u = 2^-53`` (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 24.1), is orders of magnitude above what occurs:
on positive sources and decaying kernels of sizes 2^7 to 2^16 (numpy 2.4,
x86-64) the largest error measured was ``3.3 u |a|_2 |b|_2``.  Like the zeta
closed form, the bound therefore uses an allowance, ``4 log2(N) u |a|_2
|b|_2`` per product, ten times that or more.  The blocks that feed one boundary output hold at most n/2, n/4, ..
sources, so its FFT error is within

    delta = (1 + sqrt 2) sqrt(n) 4 log2(N) u sum_r |K_r|_2 max_k |s_r(t_k)|.

It propagates through the boundary's own equation as through the linearized
scheme: with ``L`` bounding the source's derivative in w (the largest mean
offspring number for the exponent, 1 for the mean), the boundary is within
``rho delta`` of the same recurrence in exact arithmetic, where ``rho`` is
the largest ``rho_n = (1 + sum_(k<n) L |K_(n-k)| rho_k) / (1 - L |K_0|)``
(``1 / (1 - L |K|_1)`` when that is below one).  A ray adds its own product's
allowance plus ``L |K_x|_1`` times the boundary's bound; an exponent divides
the bound on ``w`` by ``w`` less the bound.  On every shipped config the
propagated bound is at least 200 times below each Richardson tolerance it
feeds, except the Laplace tolerance on ``pure_death_imm``, which is itself at
rounding level (the trapezoid error of the pure-death exponent cancels in the
trapezoid integral over its arrivals).  ``tests/oracles.py`` computes the bound.

The boundary trace (``boundary``) and ``at``, ``rays`` and ``rows`` hold
values at grid times only; nothing interpolates between nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
import numpy.fft  # loaded at import, not inside the first timed solve

from .measures import AgeMeasure, ScalarField
from .models import BranchingModel, ImmigrationMechanism

__all__ = [
    "SolverGrid",
    "ExponentSolution",
    "MeanSolution",
    "solve_exponent",
    "solve_mean",
    "survival_lower_bound",
    "survival_bound_rows",
    "immigration_exponent_integral",
    "mean_with_immigration",
    "StationaryReport",
    "stationary_laplace",
    "ErgodicityReport",
    "ergodicity_check",
    "exponential_tail_identity",
]

_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 200
_LEAF = 64  # steps of the boundary solve summed directly, below the FFT blocks
_RAY_CHUNK = 2  # rays convolved together; a few at a time keep the peak memory O(n)
# most grid steps stationary_laplace refines to (zeta_groups_imm needs 54,912)
_STATIONARY_MAX_STEPS = 2**18


@dataclass(frozen=True)
class SolverGrid:
    """Uniform time grid with a quadrature rule for the marching schemes."""

    dt: float
    horizon: float
    quadrature: str = "trapezoid"

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be > 0")
        if self.quadrature not in ("rectangle", "trapezoid"):
            raise ValueError("quadrature must be 'rectangle' or 'trapezoid'")
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integral number of steps")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def order(self) -> int:
        return 2 if self.quadrature == "trapezoid" else 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def _check_contraction(model: BranchingModel, grid: SolverGrid) -> None:
    _, c1, _ = model.constants()
    if grid.dt * c1 >= 1.0:
        raise ValueError(
            f"dt * sup(alpha) = {grid.dt * c1:.3g} >= 1: the implicit endpoint "
            "iteration is not a contraction; use a smaller dt"
        )


def _clip_unit(w: float) -> float:
    # w = exp(-exponent) must stay in (0, 1]; tolerate only rounding spill.
    if w > 1.0 + 1e-9:
        raise RuntimeError(f"exponent marching left the unit interval (w={w!r})")
    return min(max(w, 1e-300), 1.0)


def _ray_offsets(offsets) -> np.ndarray:
    arr = np.asarray(offsets, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("ray offsets must be a one-dimensional sequence of ages")
    bad = ~(np.isfinite(arr) & (arr >= 0))
    if bad.any():
        raise ValueError(f"ray offsets must be finite ages >= 0, got {arr[bad]}")
    return arr


def _grid_node(grid: SolverGrid, t: float) -> int:
    i = round(t / grid.dt) if math.isfinite(t) else -1
    if not 0 <= i <= grid.n_steps or abs(i * grid.dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(
            f"time {t} is not a node of the solved grid (dt={grid.dt}, horizon={grid.horizon})"
        )
    return i


def _moment_guard(grid: SolverGrid, alpha: np.ndarray, mean_g: np.ndarray) -> None:
    """Refuse a moment solve whose ages take the scheme out of its range, ray by ray."""
    if np.any((alpha * mean_g).max(axis=-1) * grid.dt / 2.0 >= 0.95):
        raise ValueError("dt too large for the implicit moment endpoint; use a smaller dt")
    if np.any(alpha.max(axis=-1) * grid.horizon * np.maximum(1.0, mean_g.max(axis=-1)) > 600.0):
        raise ValueError(
            "cumulative hazard exceeds the floating-point range of the "
            "discounted form; reduce the horizon or split the solve"
        )


class _Scheme:
    """The step coefficients along rows of ages ``ages[..., d] = x + d dt``.

    ``A[..., d]`` and ``B[..., d]`` belong to the step from age d to d - 1
    (``d >= 1``; entry 0 is unused), ``C[..., d]`` to the step from d + 1 to d.
    ``cls[..., d]`` names the source row the age reads (the offspring regime
    for the exponent, 0 for the mean, whose coefficients carry the mean).
    ``P``, ``K`` and ``E`` are the products, kernel and edge term of the
    unrolled recurrence (module docstring).
    """

    def __init__(self, model: BranchingModel, grid: SolverGrid, ages: np.ndarray, mean: bool):
        dt, half = grid.dt, grid.dt / 2.0
        offspring = model.offspring
        alpha = np.asarray(model.alpha(ages), dtype=np.float64)
        regimes = offspring.regime_indices(ages)
        A, B, C = np.ones_like(alpha), np.zeros_like(alpha), np.zeros_like(alpha)
        a_l, a_r = alpha[..., 1:], alpha[..., :-1]  # left and right ends of each step
        if mean:
            mean_g = offspring.mean_by_regime()[regimes]
            _moment_guard(grid, alpha, mean_g)
            am = alpha * mean_g
            self.cls, self.n_cls = np.zeros(ages.shape, dtype=np.intp), 1
            hazard = np.zeros_like(alpha)  # of each step, along the ray
            if grid.quadrature == "trapezoid":
                hazard[..., 1:] = half * (a_l + a_r)
                B[..., 1:] = half * am[..., 1:]
                C = half * am
            else:
                hazard[..., 1:] = dt * a_l
                B[..., 1:] = dt * am[..., 1:]
            A = np.exp(-hazard)
            B *= A
            P = np.exp(-np.cumsum(hazard, axis=-1))  # as the discounted form accumulates it
        else:
            self.cls, self.n_cls = regimes, len(offspring.regimes)
            if grid.quadrature == "trapezoid":
                den = 1.0 + half * alpha
                A[..., 1:] = (1.0 - half * a_l) / den[..., :-1]
                B[..., 1:] = half * a_l / den[..., :-1]
                C = half * alpha / den
            else:
                A[..., 1:] = 1.0 - dt * a_l
                B[..., 1:] = dt * a_l
            P = np.cumprod(A, axis=-1)
        self.A, self.B, self.C, self.P = A, B, C, P
        self.E = P * C
        self.K = self.E.copy()
        self.K[..., 1:] += P[..., :-1] * B[..., 1:]

    def by_class(self, coef: np.ndarray) -> np.ndarray:
        """``coef`` split into one row per source class, zero at other ages."""
        return np.stack([np.where(self.cls == c, coef, 0.0) for c in range(self.n_cls)])


def _solve_boundary(model: BranchingModel, f: ScalarField, grid: SolverGrid, mean: bool):
    """The boundary trace and its sources, by online convolution (module docstring).

    Returns ``(values, sources)``: the exponent (or the mean) at age 0 for
    every grid time, and the source rows ``s(., t_k)`` by class.
    """
    _check_contraction(model, grid)
    n = grid.n_steps
    ages = grid.dt * np.arange(n + 1)
    scheme = _Scheme(model, grid, ages, mean)
    fvals = np.asarray(f(ages), dtype=np.float64)
    w0 = fvals if mean else np.exp(-fvals)
    c0 = float(scheme.C[0])
    sources = np.empty((n + 1, scheme.n_cls))  # row k: s(., t_k) by class
    values = np.empty(n + 1)
    values[0] = w0[0]
    if mean:

        def step(known: float) -> tuple[float, list[float]]:
            value = known / (1.0 - c0)
            return value, [value]

    else:
        pgfs = [r.pgf() for r in model.offspring.regimes]
        g0 = pgfs[int(scheme.cls[0])]

        def step(known: float) -> tuple[float, list[float]]:
            # c0 is 0 under the rectangle rule: the iteration returns known, clipped
            w = 0.0 if known < 0.0 else 1.0 if known > 1.0 else known
            for _ in range(_FIXED_POINT_MAX_ITER):
                w_next = known + c0 * g0(0.0 if w < 0.0 else 1.0 if w > 1.0 else w)
                if abs(w_next - w) <= _FIXED_POINT_TOL:
                    z = _clip_unit(w_next)
                    return z, [g(z) for g in pgfs]
                w = w_next
            raise RuntimeError("boundary fixed point did not converge; use a smaller dt")

    sources[0] = w0[0] if mean else [g(_clip_unit(w0[0])) for g in pgfs]
    kernels = scheme.by_class(scheme.K).T.copy()  # row d: K_d by class
    acc = scheme.P * w0 - scheme.E * sources[0, scheme.cls]
    lags = kernels[_LEAF:0:-1].copy()  # lags _LEAF..1 (fewer when n < _LEAF), for the leaves
    spectra: dict[int, np.ndarray] = {}
    for lo in range(0, n + 1, _LEAF):
        hi = min(lo + _LEAF, n + 1)
        for j in range(max(lo, 1), hi):
            known = float(acc[j])
            if j > lo:  # the leaf's own earlier steps, summed directly
                known += float(np.vdot(lags[len(lags) - (j - lo) :], sources[lo:j]))
            values[j], sources[j] = step(known)
        if hi > n:
            break
        # the block [hi - size, hi) just completed feeds the next `size` steps:
        # `size` is the largest power-of-two multiple of _LEAF dividing hi
        leaves = hi // _LEAF
        size = _LEAF * (leaves & -leaves)
        spec = spectra.get(size)
        if spec is None:
            head = kernels[: 2 * size].copy()
            head[0] = 0.0  # lag 0 reaches no output of the product
            spec = spectra[size] = np.fft.rfft(head, 2 * size, axis=0)
        block = np.fft.rfft(sources[hi - size : hi], 2 * size, axis=0)
        tail = np.fft.irfft((block * spec).sum(axis=1), 2 * size)[size:]
        stop = min(hi + size, n + 1)
        acc[hi:stop] += tail[: stop - hi]
    if not mean:
        values = -np.log(np.maximum(values, 1e-300))
    return values, sources.T.copy()


@dataclass(frozen=True)
class _FanSolution:
    """A solved boundary trace, with the model, field and grid to reach other ages."""

    model: BranchingModel
    f: ScalarField
    grid: SolverGrid
    boundary: np.ndarray
    # s(., t_k) by source class: what every ray's convolution reads
    sources: np.ndarray = field(repr=False, compare=False)

    _mean = False

    def _start(self, fvals: np.ndarray) -> np.ndarray:
        return fvals if self._mean else np.exp(-fvals)

    def _finish(self, w: np.ndarray) -> np.ndarray:
        return w if self._mean else -np.log(np.maximum(w, 1e-300))

    def rays(self, offsets) -> np.ndarray:
        """Values at each fixed age in ``offsets`` (rows) for every grid time.

        Each ray is one FFT convolution of the boundary's sources with its
        own kernel; the age-0 ray is the boundary trace itself.
        """
        offsets = _ray_offsets(offsets)
        n, dt = self.grid.n_steps, self.grid.dt
        ks = np.rint(offsets / dt)
        aligned = (np.abs(ks * dt - offsets) <= 1e-9 * np.maximum(1.0, offsets)) & (ks <= n)
        table = np.empty((len(offsets), n + 1))
        zero = aligned & (ks == 0)
        table[zero] = self.boundary
        todo = np.flatnonzero(~zero)
        start = np.where(aligned, 0.0, offsets)[:, None]
        shift = np.where(aligned, ks, 0.0)[:, None]
        steps = np.arange(n + 1)
        size = 1 << (2 * n + 1).bit_length()
        spec = np.fft.rfft(self.sources, size)[:, None, :]
        for lo in range(0, todo.size, _RAY_CHUNK):
            rows = todo[lo : lo + _RAY_CHUNK]
            # ages (K + d) dt for an aligned age K dt, K <= n: the labels a march visits
            part = start[rows] + dt * (shift[rows] + steps)
            scheme = _Scheme(self.model, self.grid, part, self._mean)
            kernels = np.fft.rfft(scheme.by_class(scheme.K), size)
            conv = np.fft.irfft((kernels * spec).sum(axis=0), size)[:, : n + 1]
            w0 = self._start(np.asarray(self.f(part), dtype=np.float64))
            w = scheme.P * w0 + conv - scheme.E * self.sources[scheme.cls, 0]
            w[:, 0] = w0[:, 0]
            if not self._mean:
                np.minimum(w, 1.0, out=w)  # exp(-exponent) <= 1: no rounding spill past it
            table[rows] = self._finish(w)
        return table

    def along_ray(self, offset: float) -> np.ndarray:
        """Value at the fixed age ``offset`` for every grid time."""
        return self.rays([offset])[0]

    def at(self, t: float, x: float) -> float:
        """Value at grid time ``t`` and age ``x``; a time off the grid is refused."""
        offsets = _ray_offsets([x])
        i = _grid_node(self.grid, t)
        return float(self.f(offsets[0])) if i == 0 else float(self.rays(offsets)[0, i])

    def rows(self):
        """Yield ``(i, values)`` for i = 0..n: ages 0, dt, .., (n - i) dt at time t_i.

        The recurrence swept one time step at a time over every
        characteristic that reaches age 0 by the horizon, driven by the known
        boundary: the whole triangular lattice in O(n) memory.  ``values[0]``
        is the boundary.
        """
        n = self.grid.n_steps
        ages = self.grid.dt * np.arange(n + 1)
        scheme = _Scheme(self.model, self.grid, ages, self._mean)
        B, C = scheme.by_class(scheme.B), scheme.by_class(scheme.C)
        w = self._start(np.asarray(self.f(ages), dtype=np.float64))
        for i in range(n + 1):
            if i:
                m = n + 1 - i
                live = w[i:]
                live *= scheme.A[1 : m + 1]
                for c in range(scheme.n_cls):
                    live += B[c, 1 : m + 1] * self.sources[c, i - 1]
                    live += C[c, :m] * self.sources[c, i]
            values = self._finish(w[i:])
            values[0] = self.boundary[i]
            yield i, values


@dataclass(frozen=True)
class ExponentSolution(_FanSolution):
    """The exponent of the population Laplace functional on a grid.

    ``boundary[j]`` is the exponent at age 0 and time ``j * dt``; other ages
    are reached through ``rays`` and ``rows``.
    """


def solve_exponent(model: BranchingModel, f: ScalarField, grid: SolverGrid) -> ExponentSolution:
    """Solve the nonlinear renewal equation for the Laplace exponent.

    The returned evaluator is deterministic; the exponent is nonnegative with
    ``u_0 f = f`` exactly by construction.
    """
    boundary, sources = _solve_boundary(model, f, grid, mean=False)
    return ExponentSolution(model, f, grid, boundary, sources)


@dataclass(frozen=True)
class MeanSolution(_FanSolution):
    """The first-moment kernel applied to f, on the same characteristic grid."""

    _mean = True


def solve_mean(model: BranchingModel, f: ScalarField, grid: SolverGrid) -> MeanSolution:
    """Solve the linear renewal equation for the first-moment kernel."""
    boundary, sources = _solve_boundary(model, f, grid, mean=True)
    return MeanSolution(model, f, grid, boundary, sources)


def survival_lower_bound(
    model: BranchingModel, f: ScalarField, t: float, x: float, dt: float = 1e-3
) -> float:
    """Closed-form lower bound on the Laplace exponent.

    ``(1 - exp(-f(x+t))) * exp(-integral_0^t alpha(x+s) ds)``: the exponent of
    the event that the initial particle is still alive with no branch yet.
    The hazard integral is exact for constant alpha and composite-trapezoid at
    the given dt otherwise: ``t / dt`` steps when that is an integer to
    ``SolverGrid``'s tolerance, so a grid time takes the grid's own nodes, and
    ``ceil(t / dt)`` steps otherwise.
    """
    if t < 0 or x < 0:
        raise ValueError("t and x must be >= 0")
    alpha = model.alpha
    if t == 0.0:
        hazard = 0.0
    elif alpha.is_constant:
        hazard = float(alpha(x)) * t
    else:
        n = round(t / dt)
        if n < 1 or abs(n * dt - t) > 1e-9 * max(1.0, t):
            n = max(1, math.ceil(t / dt))
        s = np.linspace(0.0, t, n + 1)
        vals = np.asarray(alpha(x + s), dtype=np.float64)
        hazard = float((t / n) * (vals[0] / 2.0 + vals[1:-1].sum() + vals[-1] / 2.0))
    return -math.expm1(-float(f(x + t))) * math.exp(-hazard)


def survival_bound_rows(model: BranchingModel, f: ScalarField, grid: SolverGrid):
    """``survival_lower_bound`` on the lattice, row by row in the order of ``rows``.

    Row i holds the bound at ages 0, dt, .., (n - i) dt and time t_i.  The
    hazard is ``survival_lower_bound``'s: alpha t for a constant alpha,
    otherwise its trapezoid at dt, which along the ray from age x = d dt is
    ``H[d + i] - H[d]`` with ``H`` the cumulative trapezoid of alpha over the
    grid ages.
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


def _quadrature_weights(n: int, dt: float, rule: str) -> np.ndarray:
    w = np.full(n + 1, dt)
    if rule == "trapezoid":
        w[0] = w[-1] = dt / 2.0
    else:
        w[-1] = 0.0  # left rectangle
    return w


def immigration_exponent_integral(
    model: BranchingModel,
    imm: ImmigrationMechanism,
    f: ScalarField,
    grid: SolverGrid,
    exponent_solution: ExponentSolution | None = None,
) -> tuple[float, np.ndarray]:
    """Integral over [0, horizon] of the arrival compensation of the exponent.

    Evaluates the exponent at each group atom age along its ray, applies the
    mechanism's analytic functional to every grid node in one call, and
    integrates with the grid's quadrature.  Returns (integral,
    per-node values).
    """
    n = grid.n_steps
    if imm.total_rate == 0.0:
        return 0.0, np.zeros(n + 1)
    sol = exponent_solution
    if sol is None:
        sol = solve_exponent(model, f, grid)
    elif abs(sol.grid.horizon - grid.horizon) > 1e-12 or sol.grid.dt != grid.dt:
        raise ValueError("exponent solution grid does not match the requested grid")
    ages = imm.atom_ages()
    rays = sol.rays(ages)
    psi_vals = imm.psi_from_exponents(dict(zip(ages, rays)))
    w = _quadrature_weights(n, grid.dt, grid.quadrature)
    return float(np.dot(w, psi_vals)), psi_vals


def mean_with_immigration(
    model: BranchingModel,
    imm: ImmigrationMechanism,
    f: ScalarField,
    initial: AgeMeasure,
    grid: SolverGrid,
    mean_solution: MeanSolution | None = None,
) -> float:
    """Expected integral of f against the population at the grid horizon.

    Initial particles contribute through the moment kernel; each arrival
    cohort contributes the kernel applied over its residual time, integrated
    against the arrival intensity.
    """
    atoms = imm.atom_ages() if imm.total_rate > 0.0 else ()
    ages = [*initial.ages, *atoms]
    sol = mean_solution if mean_solution is not None else solve_mean(model, f, grid)
    table = sol.rays(ages)
    total = sum(float(v) for v in table[: len(initial.ages), -1])
    if not atoms:
        return total
    contrib = imm.first_moment_from_values(dict(zip(atoms, table[len(initial.ages) :])))
    if np.isinf(contrib).any():
        raise ValueError("mean group size is infinite; the first moment diverges")
    w = _quadrature_weights(grid.n_steps, grid.dt, grid.quadrature)
    return total + float(np.dot(w, contrib))


@dataclass(frozen=True)
class ErgodicityReport:
    """Outcome of the convergence-to-equilibrium test for immigration models."""

    status: str  # "ergodic" | "not_ergodic" | "unknown"
    c0: float
    criterion_status: str
    criterion_value: float | None
    detail: str


def ergodicity_check(model: BranchingModel, imm: ImmigrationMechanism) -> ErgodicityReport:
    """Decide convergence of the immigration model to a stationary law.

    Ergodic iff the mean growth exponent is negative and the group-size log
    moment is finite; the criterion is necessary and sufficient under the
    negative-exponent hypothesis, and outside that hypothesis the answer is
    "unknown" (the theory is silent there), never a guess.
    """
    c0, _, _ = model.constants()
    crit_status, crit_value = imm.log_moment_criterion()
    if c0 >= 0.0:
        return ErgodicityReport(
            "unknown",
            c0,
            crit_status,
            crit_value,
            f"mean growth exponent c0={c0:.6g} is not negative; no convergence certificate",
        )
    if crit_status == "finite":
        return ErgodicityReport(
            "ergodic", c0, crit_status, crit_value, "c0 < 0 and group log-moment finite"
        )
    if crit_status == "infinite":
        return ErgodicityReport(
            "not_ergodic", c0, crit_status, crit_value, "group log-moment diverges"
        )
    return ErgodicityReport(
        "unknown", c0, crit_status, crit_value, "group log-moment not certified"
    )


@dataclass(frozen=True)
class StationaryReport:
    """Certified stationary Laplace value with its error budget."""

    value: float
    exponent_integral: float
    horizon: float
    dt: float
    tail_bound: float
    quadrature_error: float

    @property
    def total_error_bound(self) -> float:
        # |exp(-I1) - exp(-I2)| <= |I1 - I2| for nonnegative exponents
        return self.tail_bound + self.quadrature_error


def stationary_laplace(
    model: BranchingModel,
    imm: ImmigrationMechanism,
    f: ScalarField,
    tolerance: float = 1e-6,
) -> StationaryReport:
    """Stationary Laplace functional of the immigration model, certified.

    Computes ``exp(-integral_0^inf psi(u_s f) ds)``.  The truncation horizon T
    is chosen so that the analytic tail bound (exponent dominated by the norm
    bound of the moment kernel times the mechanism's first moment) is below
    tolerance/2; the quadrature error is certified below tolerance/2 by step
    halving, refused once the next halving would pass
    ``_STATIONARY_MAX_STEPS`` steps.  Refuses models that are not certified
    ergodic, and mechanisms with infinite mean group size (the prescribed tail
    bound is vacuous there).
    """
    report = ergodicity_check(model, imm)
    if report.status != "ergodic":
        raise ValueError(f"stationary law not certified: {report.status} ({report.detail})")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if imm.total_rate == 0.0 or f.sup == 0.0:
        return StationaryReport(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    c0, c1, _ = model.constants()
    m1 = imm.first_moment_of(ScalarField.constant(1.0))
    if math.isinf(m1):
        raise ValueError(
            "mechanism has infinite mean group size: the moment-kernel tail "
            "bound cannot certify the truncation"
        )
    rate = -c0
    tail_target = tolerance / 2.0
    T = math.log(max(m1 * f.sup / (rate * tail_target), 2.0)) / rate
    dt = min(0.2 / c1, T / 64.0)
    n = math.ceil(T / dt)
    T = n * dt
    tail_bound = m1 * f.sup * math.exp(c0 * T) / rate

    prev: float | None = None
    while True:
        grid = SolverGrid(dt, T, "trapezoid")
        integral, _ = immigration_exponent_integral(model, imm, f, grid)
        if prev is not None:
            quad_err = abs(integral - prev) / 3.0
            if quad_err <= tolerance / 2.0:
                return StationaryReport(
                    math.exp(-integral), integral, T, dt, tail_bound, quad_err
                )
            if 2 * grid.n_steps > _STATIONARY_MAX_STEPS:
                raise RuntimeError(
                    f"stationary quadrature did not certify tolerance {tolerance}: the "
                    f"error estimate is {quad_err:.3g} at {grid.n_steps} steps and the "
                    f"next halving would pass the cap of {_STATIONARY_MAX_STEPS} steps"
                )
        prev = integral
        dt /= 2.0


def exponential_tail_identity(
    a: float, c: float, group_mass: int, tol: float = 1e-9
) -> tuple[float, float]:
    """Two quadrature forms of the exponential-decay tail integral.

    Left: ``integral_0^inf (1 - exp(-a n exp(-c s))) ds`` by this package's
    trapezoid stack (truncated with a certified exponential tail bound and
    step-halving).  Right: the substitution ``z = a n exp(-c s)`` giving
    ``c^-1 integral_0^{a n} (1 - exp(-z)) / z dz`` via adaptive quadrature.
    Used as a self-test of the quadrature machinery; the two must agree.

    The right side is scipy's adaptive quadrature, independent of this
    package's; scipy is imported here, not at module level, so only this
    self-test pays for it.
    """
    from scipy.integrate import quad

    if a <= 0 or c <= 0 or group_mass < 1:
        raise ValueError("need a > 0, c > 0, group_mass >= 1")
    an = a * group_mass
    # truncate where the integrand's tail integral a n exp(-c S) / c < tol/4
    S = math.log(max(4.0 * an / (c * tol), 2.0)) / c

    def integrand(s: np.ndarray) -> np.ndarray:
        return -np.expm1(-an * np.exp(-c * s))

    n = 2048
    prev = None
    lhs = math.nan
    for _ in range(16):
        s = np.linspace(0.0, S, n + 1)
        vals = integrand(s)
        h = S / n
        lhs = float(h * (vals[0] / 2.0 + vals[1:-1].sum() + vals[-1] / 2.0))
        if prev is not None and abs(lhs - prev) / 3.0 < tol / 4.0:
            break
        prev = lhs
        n *= 2
    else:
        raise RuntimeError("tail identity quadrature did not converge")

    rhs_integrand = lambda z: (-math.expm1(-z) / z) if z > 0 else 1.0
    rhs, _ = quad(rhs_integrand, 0.0, an, epsabs=tol / 10.0, epsrel=1e-12, limit=200)
    return lhs, rhs / c
