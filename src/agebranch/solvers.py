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
  appears in its own k = i term through ``C_0``: the exponent's step solves
  ``F(w) = w - known - C_0 g(w) = 0`` by Newton's method, from ``known``
  clipped to [0, 1] until a step moves ``w`` by at most ``_FIXED_POINT_TOL``.
  Each offspring regime gives one closure ``z -> (g(z), g'(z))``
  (``OffspringPmf.pgf_slope``): the age-0 regime's takes the Newton steps,
  and every regime's value at the clipped root is the step's source.  ``g``
  is absolutely monotone, so F is concave and its slope ``1 - C_0 g'(w)``
  falls as w rises, to its least value at w = 1.  The solve therefore
  requires ``C_0 g'(1) < 1`` and refuses up front otherwise, as it does
  ``dt * sup alpha >= 1``.  Then F rises on [0, 1], and since the scheme
  keeps ``known <= 1 - C_0``, ``F(1) >= 0``: F has one root, in [known, 1],
  and from ``known``, where F <= 0, the iterates rise monotonically to it,
  about four of them a step.  Without the precondition F can have a root
  below the solution, on which Newton's method and the damped iteration
  ``w = known + C_0 g(w)`` both close: the zero field with alpha = 1, dt =
  0.5 and Poisson(10) offspring gave [0, 0.174, 0.603, ...] for an exponent
  that is 0.  A closure is monotone only up to rounding, so with ``C_0
  g'(1)`` just below 1 a slope <= 0 can still occur; it would mean no root
  above the iterate, so the step refuses there, as it does after
  ``_FIXED_POINT_MAX_ITER`` iterations.  The mean's step is
  ``known / (1 - C_0)``.
* A ray at any age x, once the boundary is known, is one plain convolution of
  the boundary's sources with the ray's own kernel over the ages
  ``x + d dt`` (``rays``).  A grid-aligned age ``K dt`` with ``K <= n`` uses
  the ages ``(K + d) dt``, the labels the march would visit.
* ``lattice_margins`` runs the recurrence over the whole (time, age)
  lattice of both solutions, driven by their known boundaries, and reduces
  it to the four margins of the lattice checks.  Where alpha is constant
  and the coefficients, source classes and start values hold one value over
  the grid ages, every label column is the same, so it marches one column
  in O(n); otherwise it sweeps a block of time rows at a time in one reused
  buffer: O(n^2) work, O(n) memory.

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

The boundary trace (``boundary``), ``at``, ``rays`` and ``lattice_margins``
read values at grid times only; nothing interpolates between nodes.
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
    "lattice_margins",
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
_BLOCK_ENTRIES = 2**15  # lattice values swept per block of time rows (lattice_margins)
# most steps of any grid: shipped grids have at most 10,000; stationary_laplace
# refines zeta_groups_imm to 54,912, and identity-check refines to the cap itself
_MAX_STEPS = 2**18


def _whole_steps(t, dt):
    """The number of steps of ``dt`` in ``t`` where it is whole, else -1; elementwise for arrays.

    The one grid rule: ``k dt`` must match ``t`` within 1e-9, relative above 1.
    A count past the float range (``t / dt`` overflows) is not whole.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(t / dt)
        return np.where(np.abs(k * dt - t) <= 1e-9 * np.maximum(1.0, np.abs(t)), k, -1.0)


@dataclass(frozen=True)
class SolverGrid:
    """Uniform time grid with a quadrature rule for the marching schemes.

    The horizon must be a whole number of steps (``_whole_steps``), at most
    ``_MAX_STEPS`` of them, refused before any array is built.  ``richardson``
    is the error estimate of a value on this grid from the same value on
    ``coarse()``, the grid of twice the step, which an odd step count lacks;
    ``refine`` halves the step until that estimate is within a tolerance.
    """

    dt: float
    horizon: float
    quadrature: str = "trapezoid"

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be > 0")
        if self.quadrature not in ("rectangle", "trapezoid"):
            raise ValueError("quadrature must be 'rectangle' or 'trapezoid'")
        if _whole_steps(self.horizon, self.dt) < 1:
            raise ValueError(f"horizon {self.horizon:g} is not a whole number of steps of dt {self.dt:g}")
        if self.n_steps > _MAX_STEPS:
            raise ValueError(f"{self.n_steps} steps of dt {self.dt:g} pass the cap of {_MAX_STEPS} steps per grid")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def order(self) -> int:
        return 2 if self.quadrature == "trapezoid" else 1

    def coarse(self) -> SolverGrid:
        """The grid of every other node: twice the step, the same horizon and quadrature."""
        if self.n_steps % 2:
            raise ValueError(f"horizon {self.horizon:g} is an odd number of steps ({self.n_steps}) "
                             f"of dt {self.dt:g}: no grid of twice the step ends on it")
        return SolverGrid(2 * self.dt, self.horizon, self.quadrature)

    def richardson(self, fine, coarse):
        """``|fine - coarse| / (2^order - 1)``, elementwise for arrays."""
        return abs(fine - coarse) / (2**self.order - 1)

    def refine(self, value, tol: float) -> tuple[float, float, SolverGrid]:
        """Halve the step until ``value`` is certified; return ``(value(g), estimate, g)``.

        ``value`` is evaluated on this grid and on grids of half the step until
        ``richardson`` of the last two values is at most ``tol`` (a NaN never
        is); refused once the next halving would pass ``_MAX_STEPS`` steps.
        """
        grid, prev = self, value(self)
        while True:
            grid = SolverGrid(grid.dt / 2.0, grid.horizon, grid.quadrature)
            current = value(grid)
            estimate = grid.richardson(current, prev)
            if estimate <= tol:
                return current, estimate, grid
            if 2 * grid.n_steps > _MAX_STEPS:
                raise RuntimeError(
                    f"quadrature did not certify tolerance {tol:g}: the error estimate is "
                    f"{estimate:.3g} at {grid.n_steps} steps and the next halving would pass "
                    f"the cap of {_MAX_STEPS} steps"
                )
            prev = current

    def weights(self) -> np.ndarray:
        """The quadrature weights at the nodes: trapezoid, or left rectangle."""
        w = np.full(self.n_steps + 1, self.dt)
        if self.quadrature == "trapezoid":
            w[0] = w[-1] = self.dt / 2.0
        else:
            w[-1] = 0.0
        return w

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
    return 1.0 if w > 1.0 else 1e-300 if w < 1e-300 else w


def _ray_offsets(offsets) -> np.ndarray:
    arr = np.asarray(offsets, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("ray offsets must be a one-dimensional sequence of ages")
    bad = ~(np.isfinite(arr) & (arr >= 0))
    if bad.any():
        raise ValueError(f"ray offsets must be finite ages >= 0, got {arr[bad]}")
    return arr


def _grid_node(grid: SolverGrid, t: float) -> int:
    i = int(_whole_steps(t, grid.dt))
    if not 0 <= i <= grid.n_steps:
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


def _solve_boundary(kind: type[_FanSolution], model: BranchingModel, f: ScalarField, grid: SolverGrid):
    """The ``kind`` solution (exponent or mean) of ``model`` and ``f`` on ``grid``.

    Its boundary trace, at age 0 for every grid time, and the source rows
    ``s(., t_k)`` by class, by online convolution (module docstring).
    """
    _check_contraction(model, grid)
    mean, n = kind._mean, grid.n_steps
    ages = grid.dt * np.arange(n + 1)
    scheme = _Scheme(model, grid, ages, mean)
    w0 = kind._start(np.asarray(f(ages), dtype=np.float64))
    c0 = float(scheme.C[0])
    sources = np.empty((n + 1, scheme.n_cls))  # row k: s(., t_k) by class
    values = np.empty(n + 1)
    values[0] = w0[0]
    if mean:

        def step(known: float) -> tuple[float, float]:
            value = known / (1.0 - c0)
            return value, value

    else:
        closures = [r.pgf_slope() for r in model.offspring.regimes]
        g0 = closures[int(scheme.cls[0])]
        tangent = c0 * g0(1.0)[1]  # F'(1) = 1 - tangent, the Newton slope's least value
        if tangent >= 1.0:
            raise ValueError(
                f"C_0 g'(1) = {tangent:.3g} >= 1 at age 0: the boundary step can close "
                "on a root below the solution; use a smaller dt"
            )
        single = len(closures) == 1
        tol, iterations = _FIXED_POINT_TOL, range(_FIXED_POINT_MAX_ITER)

        def step(known: float) -> tuple[float, float | list[float]]:
            # Newton on F(w) = w - known - c0 g(w), concave and rising from the
            # clipped `known` to its root; c0 is 0 under the rectangle rule,
            # where the first step returns `known`, clipped
            w = 0.0 if known < 0.0 else 1.0 if known > 1.0 else known
            for _ in iterations:
                g, dg = g0(0.0 if w < 0.0 else 1.0 if w > 1.0 else w)
                slope = 1.0 - c0 * dg
                if slope <= 0.0:  # only rounding gets here: F falls from w on, no root above
                    break
                fixed = known + c0 * g  # the damped iteration's next value
                w_next = fixed + (fixed - w) * (c0 * dg) / slope
                if -tol <= w_next - w <= tol:
                    z = _clip_unit(w_next)
                    return z, g0(z)[0] if single else [p(z)[0] for p in closures]
                w = w_next
            raise RuntimeError("boundary fixed point did not converge; use a smaller dt")

    sources[0] = w0[0] if mean else [p(_clip_unit(w0[0]))[0] for p in closures]
    kernels = scheme.by_class(scheme.K).T.copy()  # row d: K_d by class
    acc = scheme.P * w0 - scheme.E * sources[0, scheme.cls]
    lags = kernels[_LEAF:0:-1].copy()  # lags _LEAF..1 (fewer when n < _LEAF), for the leaves
    top = len(lags)
    source_rows = sources[:, 0] if scheme.n_cls == 1 else sources  # a single class is set as a scalar
    spectra: dict[int, np.ndarray] = {}
    for lo in range(0, n + 1, _LEAF):
        hi = min(lo + _LEAF, n + 1)
        leaf = acc[lo:hi].tolist()
        for j in range(max(lo, 1), hi):
            known = leaf[j - lo]
            if j > lo:  # the leaf's own earlier steps, summed directly
                known += float(np.vdot(lags[top - (j - lo) :], sources[lo:j]))
            values[j], source_rows[j] = step(known)
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
    return kind(model, f, grid, kind._finish(values), sources.T.copy())


@dataclass(frozen=True)
class _FanSolution:
    """A solved boundary trace, with the model, field and grid to reach other ages."""

    model: BranchingModel
    f: ScalarField
    grid: SolverGrid
    boundary: np.ndarray
    # s(., t_k) by source class: what every ray's convolution reads
    sources: np.ndarray = field(repr=False, compare=False)

    _mean = False  # the equation solved, exponent or mean: every solve, sweep and check reads it here

    @classmethod
    def _start(cls, fvals: np.ndarray) -> np.ndarray:
        """The scheme's start values from f: exp(-f) for the exponent."""
        return fvals if cls._mean else np.exp(-fvals)

    @classmethod
    def _finish(cls, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The values from the scheme's: -log w for the exponent, into ``out`` if given."""
        return w if cls._mean else np.negative(np.log(np.maximum(w, 1e-300, out=out), out=out), out=out)

    def _check_of(self, model: BranchingModel, f: ScalarField, grid: SolverGrid) -> None:
        """Refuse to stand for the solution of another model, field f or grid (quadrature included)."""
        name, mix = "mean" if self._mean else "exponent", "solutions of different models, fields or grids do not mix"
        if self.grid != grid:
            raise ValueError(f"{name} solution grid {self.grid} is not the requested grid {grid}: {mix}")
        if (self.model, self.f) != (model, f):
            raise ValueError(f"{name} solution is of another model or field: {mix}")

    def rays(self, offsets) -> np.ndarray:
        """Values at each fixed age in ``offsets`` (rows) for every grid time.

        Each ray is one FFT convolution of the boundary's sources with its
        own kernel; the age-0 ray is the boundary trace itself.
        """
        offsets = _ray_offsets(offsets)
        n, dt = self.grid.n_steps, self.grid.dt
        ks = _whole_steps(offsets, dt)
        aligned = (ks >= 0) & (ks <= n)
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
            table[rows] = self._finish(w, out=w)
        return table

    def readout(self, initial: AgeMeasure, imm: ImmigrationMechanism) -> tuple[float, np.ndarray]:
        """The population's value at the horizon from ``initial`` and arrivals by ``imm``: ``(total, per_node)``.

        One ``rays`` call over the initial ages and the atom ages.  ``per_node``
        is the arrival term at each grid node, ``psi_from_exponents`` for the
        exponent and ``first_moment_from_values`` for the mean (zeros without
        atoms); ``total`` is the initial particles' rays at the horizon plus
        its quadrature with the grid's weights.  An infinite mean group size
        is refused.
        """
        atoms, k = imm.atom_ages(), len(initial.ages)
        table = self.rays([*initial.ages, *atoms])
        if not atoms:
            per_node = np.zeros(self.grid.n_steps + 1)
        elif self._mean:
            per_node = imm.first_moment_from_values(dict(zip(atoms, table[k:])))
            if np.isinf(per_node).any():
                raise ValueError("mean group size is infinite; the first moment diverges")
        else:
            per_node = imm.psi_from_exponents(dict(zip(atoms, table[k:])))
        total = sum(float(v) for v in table[:k, -1]) + float(np.dot(self.grid.weights(), per_node))
        return total, per_node

    def along_ray(self, offset: float) -> np.ndarray:
        """Value at the fixed age ``offset`` for every grid time."""
        return self.rays([offset])[0]

    def at(self, t: float, x: float) -> float:
        """Value at grid time ``t`` and age ``x``; a time off the grid is refused."""
        offsets = _ray_offsets([x])
        i = _grid_node(self.grid, t)
        return float(self.f(offsets[0])) if i == 0 else float(self.rays(offsets)[0, i])


@dataclass(frozen=True)
class ExponentSolution(_FanSolution):
    """The exponent of the population Laplace functional on a grid.

    ``boundary[j]`` is the exponent at age 0 and time ``j * dt``; other ages
    are reached through ``rays``.
    """


def solve_exponent(model: BranchingModel, f: ScalarField, grid: SolverGrid) -> ExponentSolution:
    """Solve the nonlinear renewal equation for the Laplace exponent.

    The returned evaluator is deterministic; the exponent is nonnegative with
    ``u_0 f = f`` exactly by construction.
    """
    return _solve_boundary(ExponentSolution, model, f, grid)


@dataclass(frozen=True)
class MeanSolution(_FanSolution):
    """The first-moment kernel applied to f, on the same characteristic grid."""

    _mean = True


def solve_mean(model: BranchingModel, f: ScalarField, grid: SolverGrid) -> MeanSolution:
    """Solve the linear renewal equation for the first-moment kernel."""
    return _solve_boundary(MeanSolution, model, f, grid)


def survival_lower_bound(
    model: BranchingModel, f: ScalarField, t: float, x: float, dt: float = 1e-3
) -> float:
    """Closed-form lower bound on the Laplace exponent.

    ``(1 - exp(-f(x+t))) * exp(-integral_0^t alpha(x+s) ds)``: the exponent of
    the event that the initial particle is still alive with no branch yet.
    The hazard integral is exact for constant alpha and composite-trapezoid at
    the given dt otherwise: ``t / dt`` steps when that is whole by the grid
    rule (``_whole_steps``), so a grid time takes the grid's own nodes, and
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
        n = int(_whole_steps(t, dt))
        if n < 1:
            n = max(1, math.ceil(t / dt))
        s = np.linspace(0.0, t, n + 1)
        vals = np.asarray(alpha(x + s), dtype=np.float64)
        hazard = float((t / n) * (vals[0] / 2.0 + vals[1:-1].sum() + vals[-1] / 2.0))
    return -math.expm1(-float(f(x + t))) * math.exp(-hazard)


def _sweep_block(block: np.ndarray, i0: int, tri, A, terms, carry, sol: _FanSolution) -> np.ndarray:
    """The lattice of ``sol``: its time rows i0, i0 + 1, .. into ``block[r, c]``, label i0 + c.

    The recurrence runs a row at a time into ``block[r, r:]``, from ``carry``,
    which holds by label the row before i0 (at i0 = 0 the start values, which
    are row 0) and on return the block's last row.  ``A`` is
    ``_Scheme.A[1:]`` and ``terms`` holds ``(B[1:], C, sources)`` by class.
    The block is finished in place, the diagonal (age 0) is the boundary,
    and the entries ``tri`` (c < r) take their row's age-0 node.
    """
    prev = carry[i0:]
    for r in range(len(block)):
        row, i = block[r, r:], i0 + r
        if i:
            m = len(row)
            np.multiply(prev, A[:m], out=row)
            for b, c, s in terms:
                row += b[:m] * s[i - 1]
                row += c[:m] * s[i]
        else:
            row[:] = prev
        prev = block[r, r + 1 :]
    carry[i0 + len(block) :] = prev
    sol._finish(block, out=block)
    block.reshape(-1)[:: block.shape[1] + 1] = sol.boundary[i0 : i0 + len(block)]
    block[tri] = block[tri[0], tri[0]]
    return block


def _one_valued(x: np.ndarray) -> bool:
    """Every entry equals the first; a NaN anywhere fails."""
    return bool((x == x[0]).all())


def _march_column(A, terms, carry, sol: _FanSolution) -> np.ndarray:
    """The lattice of ``sol`` where every label column is the same: ``[boundary, column]`` by time row.

    ``_sweep_block``'s recurrence down one label column, in its order of
    operations; its arguments are one-valued (``lattice_margins``), so row i
    holds the column's value at every age > 0.  Row n has no such age and
    repeats its age-0 node, as the sweep fills the entries that are not nodes.
    """
    a, w = float(A[0]), float(carry[0])
    coefs = [(float(b[0]), float(c[0]), s) for b, c, s in terms]
    column = [w]
    for i in range(1, len(carry) - 1):
        w *= a
        for b, c, s in coefs:
            w += b * s[i - 1]
            w += c * s[i]
        column.append(w)
    return np.stack((sol.boundary, np.append(sol._finish(np.array(column)), sol.boundary[-1])))


def lattice_margins(usol: ExponentSolution, msol: MeanSolution) -> list[float]:
    """The four margins of the lattice checks, each a minimum over every lattice node.

    Both solutions must be of one model, field f and grid; the nodes are
    ``(t_i, x)`` for i = 0..n and ages x = 0, dt, .., (n - i) dt.  With u the
    exponent and p the moment kernel of f, and ``label = (x + t_i) / dt``, the
    margins are

        [min u,  min (u - lower),  min (p - u),  min_i (exp(c0 t_i) sup f - max_x p(t_i, x))]

    where ``lower = (1 - exp(-f(x + t))) exp(-hazard)`` is the single-particle
    survival bound: the hazard is alpha t for a constant alpha, and otherwise
    ``H[label] - H[x / dt]``, ``H`` the cumulative trapezoid of alpha over the
    grid ages.  A NaN at any node makes its margins NaN.

    The recurrence of the renewal form's scheme is run over both lattices,
    driven by the known boundaries (each node's age-0 value), in one of two
    ways that give the same bits:

    * Age-free lattices, O(n): alpha is constant (``is_constant``) and, over
      the grid ages, each of ``_Scheme.A[1:]``, ``B[1:]``, ``C`` and ``cls``
      of both schemes, the start values and the survival factor ``1 -
      exp(-f)`` holds one value.  Then every label column does the same
      operations on the same operands, so a row holds two values, its
      boundary node and one marched value (``_march_column``), and the
      margins fold from those, row by row.  The column is still driven by
      the boundary's sources and read against the boundary at every row.
    * Every other input, O(n^2): the lattice is swept a block of at most
      ``_BLOCK_ENTRIES`` values (one row if a row is longer) at a time:
      ``block[r, c]`` is the node at time ``i0 + r`` and label ``i0 + c``.
      The entries ``c < r``, which are not nodes, take their own row's age-0
      node, so each reduction runs on whole blocks.  Every block is a view
      of one buffer of two blocks, allocated once: memory is O(n +
      _BLOCK_ENTRIES).
    """
    model, f, grid = usol.model, usol.f, usol.grid
    msol._check_of(model, f, grid)
    n, times = grid.n_steps, grid.times()  # the times are also the ages d dt
    c0, _, _ = model.constants()
    fvals = np.asarray(f(times), dtype=np.float64)
    surv = -np.expm1(-fvals)  # at x + t = label dt
    sup = f.sup
    norm = np.array([math.exp(c0 * t) * sup for t in times.tolist()])
    alpha = model.alpha
    if alpha.is_constant:
        rate = float(alpha(0.0))
        decay = np.array([math.exp(-rate * t) for t in times.tolist()])
    else:
        a = np.asarray(alpha(times), dtype=np.float64)
        H = np.concatenate(([0.0], np.cumsum(grid.dt / 2.0 * (a[1:] + a[:-1]))))
        padded = np.concatenate((np.zeros(n), H))  # window n - r reads H[c - r]
    flat = alpha.is_constant and _one_valued(surv)
    sweeps = []
    for sol in (usol, msol):
        scheme = _Scheme(model, grid, times, sol._mean)
        B, C = scheme.by_class(scheme.B), scheme.by_class(scheme.C)
        terms = [(B[c, 1:], C[c], sol.sources[c].tolist()) for c in range(scheme.n_cls)]
        carry = np.array(sol._start(fvals))
        flat = flat and all(map(_one_valued, (scheme.A[1:], scheme.B[1:], scheme.C, scheme.cls, carry)))
        sweeps.append((scheme.A[1:], terms, carry, sol))
    if flat:  # reduced with numpy, whose min and max keep a NaN that Python's may drop
        U, P = (_march_column(*sweep) for sweep in sweeps)
        lower = decay * surv[0]
        return [float(m) for m in (U.min(), (U - lower).min(), (P - U).min(), (norm - P.max(axis=0)).min())]
    buf = np.zeros((2, max(min(_BLOCK_ENTRIES, (n + 1) ** 2), n + 1)))
    margins = np.full(4, np.inf)
    below_diagonal = {}  # block height -> its entries c < r
    i0 = 0
    while i0 <= n:
        width = n + 1 - i0
        h = min(max(1, _BLOCK_ENTRIES // width), width)
        X, Y = (b[: h * width].reshape(h, width) for b in buf)
        tri = below_diagonal.get(h)
        if tri is None:
            tri = below_diagonal[h] = np.tril_indices(h, -1)
        U = _sweep_block(X, i0, tri, *sweeps[0])
        lower = Y  # the survival bound, then u - lower
        if alpha.is_constant:
            np.multiply(decay[i0 : i0 + h, None], surv[i0:], out=lower)
        else:
            skew = np.lib.stride_tricks.sliding_window_view(padded, width)[n - h + 1 : n + 1][::-1]
            np.subtract(skew, H[i0:], out=lower)
            np.exp(lower, out=lower)
            lower *= surv[i0:]
        lower[tri] = lower[tri[0], tri[0]]
        nonneg = U.min()
        survival = np.subtract(U, lower, out=lower).min()
        P = _sweep_block(Y, i0, tri, *sweeps[1])
        # min(bound - p) in one subtraction a row: rounded subtraction is monotone
        norm_margin = (norm[i0 : i0 + h] - P.max(axis=1)).min()
        below = np.subtract(P, U, out=U).min()
        np.minimum(margins, (nonneg, survival, below, norm_margin), out=margins)
        i0 += h
    return margins.tolist()


def immigration_exponent_integral(
    model: BranchingModel, imm: ImmigrationMechanism, f: ScalarField, grid: SolverGrid
) -> tuple[float, np.ndarray]:
    """Integral over [0, horizon] of the arrival compensation of the exponent, and its values at the nodes.

    The exponent's ``readout`` from an empty population; 0 without a solve for
    the zero-rate mechanism.
    """
    if imm.total_rate == 0.0:
        return 0.0, np.zeros(grid.n_steps + 1)
    return solve_exponent(model, f, grid).readout(AgeMeasure.empty(), imm)


def mean_with_immigration(
    model: BranchingModel, imm: ImmigrationMechanism, f: ScalarField, initial: AgeMeasure, grid: SolverGrid
) -> float:
    """Expected integral of f against the population at the grid horizon: the mean's ``readout`` total."""
    return solve_mean(model, f, grid).readout(initial, imm)[0]


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
        status = "unknown"
        detail = f"mean growth exponent c0={c0:.6g} is not negative; no convergence certificate"
    else:
        status, detail = {
            "finite": ("ergodic", "c0 < 0 and group log-moment finite"),
            "infinite": ("not_ergodic", "group log-moment diverges"),
        }.get(crit_status, ("unknown", "group log-moment not certified"))
    return ErgodicityReport(status, c0, crit_status, crit_value, detail)


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
    """Stationary Laplace functional of the immigration model, with its error.

    Computes ``exp(-integral_0^inf psi(u_s f) ds)``.  The truncation horizon T
    is chosen so that the analytic tail bound (exponent dominated by the norm
    bound of the moment kernel times the mechanism's first moment) is below
    tolerance/2; ``SolverGrid.refine`` halves the step until the Richardson
    estimate of the quadrature error is below tolerance/2, and refuses once the
    next halving would pass ``_MAX_STEPS`` steps.  Refuses models that are not
    certified ergodic, and mechanisms with infinite mean group size (the
    prescribed tail bound is vacuous there).
    """
    report = ergodicity_check(model, imm)
    if report.status != "ergodic":
        raise ValueError(f"stationary law not certified: {report.status} ({report.detail})")
    if not tolerance > 0:  # NaN too
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
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
    scale = rate * (tolerance / 2.0)  # the tail bound targets tolerance / 2
    T = math.log(max(m1 * f.sup / scale, 2.0)) / rate if scale > 0.0 else math.inf
    if not math.isfinite(T):
        raise ValueError(f"tolerance {tolerance!r} needs a truncation horizon past the float range")
    dt = min(0.2 / c1, T / 64.0)
    T = math.ceil(T / dt) * dt
    tail_bound = m1 * f.sup * math.exp(c0 * T) / rate

    integral, quad_err, grid = SolverGrid(dt, T).refine(
        lambda g: immigration_exponent_integral(model, imm, f, g)[0], tolerance / 2.0
    )
    return StationaryReport(math.exp(-integral), integral, T, grid.dt, tail_bound, quad_err)


def exponential_tail_identity(a: float, c: float, group_mass: int) -> tuple[float, float]:
    """Two quadrature forms of the exponential-decay tail integral.

    Left: ``integral_0^inf (1 - exp(-a n exp(-c s))) ds`` by the trapezoid rule
    of ``SolverGrid``, truncated at S with a certified exponential tail bound,
    and certified by ``SolverGrid.refine`` from 2048 steps, under the grid
    cap.  Right: the substitution ``z = a n exp(-c s)`` giving ``c^-1
    integral_0^{a n} (1 - exp(-z)) / z dz`` via adaptive quadrature.  Used as a
    self-test of the quadrature machinery; the two must agree, each side to
    within ``tol = 1e-9``.  Refuses ``a`` or ``c`` that is not finite and > 0,
    and a ``group_mass`` n that is not an integer >= 1.

    The right side is scipy's adaptive quadrature, independent of this
    package's; scipy is imported here, not at module level, so only this
    self-test pays for it.
    """
    from scipy.integrate import quad

    if not (0 < a < math.inf and 0 < c < math.inf):  # NaN too
        raise ValueError(f"a and c must be > 0 and finite, got {a!r} and {c!r}")
    if isinstance(group_mass, bool) or not isinstance(group_mass, (int, np.integer)) or group_mass < 1:
        raise ValueError(f"group_mass must be >= 1 and an integer, got {group_mass!r}")
    tol = 1e-9
    an = a * group_mass
    # truncate where the integrand's tail integral a n exp(-c S) / c < tol/4
    S = math.log(max(4.0 * an / (c * tol), 2.0)) / c

    # the truncation keeps tol/4, so the quadrature has the other 3 tol/4
    lhs, _, _ = SolverGrid(S / 2048, S).refine(
        lambda g: float(np.dot(g.weights(), -np.expm1(-an * np.exp(-c * g.times())))), 3.0 * tol / 4.0
    )

    rhs_integrand = lambda z: (-math.expm1(-z) / z) if z > 0 else 1.0
    rhs, _ = quad(rhs_integrand, 0.0, an, epsabs=tol / 10.0, epsrel=1e-12, limit=200)
    return lhs, rhs / c
