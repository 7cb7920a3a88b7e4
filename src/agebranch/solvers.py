"""Deterministic solvers for the population's Laplace and moment functionals.

Both governing equations couple values only along characteristics (rays where
age minus time is constant) plus the boundary trace at age zero, so the
numerics march a triangular *fan* of one-dimensional Volterra problems,
vectorized across characteristics, closing the boundary value at each step.

Laplace exponent (``exponent``): writing ``w_y(r) = exp(-u_r f(y - r))`` on
the ray through label ``y``, with boundary trace ``b(r) = u_r f(0)``,

    w_y(t) = exp(-f(y)) + integral_0^t alpha(y-r) [g(y-r, exp(-b(r))) - w_y(r)] dr

is marched forward in ``r``; at the diagonal ``y = t`` the new boundary value
appears implicitly and is resolved by a damped fixed point (the quadrature
endpoint's contraction needs ``dt * sup alpha < 1``, enforced up front).

First-moment kernel (``mean``): writing ``phi_y(t)`` for the kernel applied to
f along the ray through label ``y``, with boundary trace ``m_b(r)``, the
characteristic form is ``d phi/dt = alpha(y-t) [mean(y-t) m_b(t) - phi(t)]``:
offspring are born at age zero, so the reproduction term feeds on the
boundary trace while the compensation carries the ray value (this is the
field-derivative of the exponent equation, and the pure-death closed form
``f(y) exp(-cumulative hazard)`` solves it exactly).  It is integrated in the
survival-discounted renewal shape

    phi_y(t) = exp(-A_y(t)) [ f(y) + integral_0^t exp(A_y(r)) alpha m  m_b(r) dr ]

with ``A_y(t)`` the cumulative hazard along the ray.  This form is exact for
models whose mean offspring number vanishes (the integral term is zero), which
a plain quadrature of the bare characteristic ODE cannot achieve at the same
step size.

One march serves every ray.  The labels form a block: row 0 holds the
boundary family ``t_0..t_N``, and a ray at the grid-aligned age ``x = K dt``
with ``K <= n`` is the same characteristics shifted in time, so it is read
from entry ``i + K`` of that row after step ``i`` (the row is extended to
``N = n + max K``).  Any other age ``x`` gets a row of labels ``x + t_j``,
marched in the same loop against the boundary value closed in it.  Only the
requested entries are gathered at each step, into a ``(rays, n + 1)`` table
(``rays``); the per-step state is never stored unless the lattice is asked
for.

Quadrature is rectangle (left endpoint, first order) or trapezoid (second
order, implicit endpoints solved exactly or by fixed point).  Interpolation of
boundary traces between nodes (``boundary_at``) is linear; ``at`` and ``rays``
answer only at grid times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.integrate import quad as _quad

from .measures import AgeMeasure, ScalarField
from .models import BranchingModel, ImmigrationMechanism

__all__ = [
    "SolverGrid",
    "ExponentSolution",
    "MeanSolution",
    "march_exponent",
    "march_mean",
    "solve_exponent",
    "solve_mean",
    "survival_lower_bound",
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
_LATTICE_MAX_STEPS = 4096


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

    def refined(self) -> "SolverGrid":
        return SolverGrid(self.dt / 2.0, self.horizon, self.quadrature)

    def with_horizon(self, horizon: float) -> "SolverGrid":
        n = max(1, math.ceil(horizon / self.dt - 1e-12))
        return SolverGrid(self.dt, n * self.dt, self.quadrature)

    def to_dict(self) -> dict:
        return {"dt": self.dt, "horizon": self.horizon, "quadrature": self.quadrature}

    @classmethod
    def from_dict(cls, d: dict) -> "SolverGrid":
        return cls(d["dt"], d["horizon"], d.get("quadrature", "trapezoid"))


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


@dataclass(frozen=True)
class _FanSolution:
    """A solved boundary trace, with the model, field and grid to march rays."""

    model: BranchingModel
    f: ScalarField
    grid: SolverGrid
    boundary: np.ndarray

    @property
    def order(self) -> int:
        return self.grid.order

    def boundary_at(self, t: float) -> float:
        if t < -1e-12 or t > self.grid.horizon * (1 + 1e-12):
            raise ValueError(f"time {t} outside the solved horizon {self.grid.horizon}")
        return float(np.interp(t, self.grid.times(), self.boundary))

    def rays(self, offsets) -> np.ndarray:
        """Values at each fixed age in ``offsets`` (rows) for every grid time, in one march."""
        offsets = _ray_offsets(offsets)
        if not offsets.any():  # age-0 rays are the boundary trace: nothing to march
            return np.tile(self.boundary, (len(offsets), 1))
        return self._march(self.model, self.f, self.grid, offsets)[1]

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
    are reached through ``rays``, which re-marches the fan with their labels.
    """

    lattice_w: np.ndarray | None = None
    _march = staticmethod(march_exponent)

    def lattice_exponents(self) -> np.ndarray:
        """Exponent values on the triangular (time, age) lattice, NaN outside."""
        if self.lattice_w is None:
            raise ValueError("solution was built without keep_lattice=True")
        return -np.log(np.maximum(self.lattice_w, 1e-300))


def solve_exponent(
    model: BranchingModel, f: ScalarField, grid: SolverGrid, keep_lattice: bool = False
) -> ExponentSolution:
    """Solve the nonlinear renewal equation for the Laplace exponent.

    The returned evaluator is deterministic; the exponent is nonnegative with
    ``u_0 f = f`` exactly by construction.
    """
    boundary, _, lattice = march_exponent(model, f, grid, keep_lattice=keep_lattice)
    return ExponentSolution(model, f, grid, boundary, lattice)


@dataclass(frozen=True)
class MeanSolution(_FanSolution):
    """The first-moment kernel applied to f, on the same characteristic grid."""

    lattice: np.ndarray | None = None
    _march = staticmethod(march_mean)

    def lattice_values(self) -> np.ndarray:
        if self.lattice is None:
            raise ValueError("solution was built without keep_lattice=True")
        return self.lattice


def solve_mean(
    model: BranchingModel, f: ScalarField, grid: SolverGrid, keep_lattice: bool = False
) -> MeanSolution:
    """Solve the linear renewal equation for the first-moment kernel."""
    boundary, _, lattice = march_mean(model, f, grid, keep_lattice=keep_lattice)
    return MeanSolution(model, f, grid, boundary, lattice)


def survival_lower_bound(
    model: BranchingModel, f: ScalarField, t: float, x: float, dt: float = 1e-3
) -> float:
    """Closed-form lower bound on the Laplace exponent.

    ``(1 - exp(-f(x+t))) * exp(-integral_0^t alpha(x+s) ds)``: the exponent of
    the event that the initial particle is still alive with no branch yet.
    The hazard integral is exact for constant alpha and composite-trapezoid at
    the given dt otherwise.
    """
    if t < 0 or x < 0:
        raise ValueError("t and x must be >= 0")
    alpha = model.alpha
    if t == 0.0:
        hazard = 0.0
    elif alpha.is_constant:
        hazard = float(alpha(x)) * t
    else:
        n = max(1, math.ceil(t / dt))
        s = np.linspace(0.0, t, n + 1)
        vals = np.asarray(alpha(x + s), dtype=np.float64)
        hazard = float((t / n) * (vals[0] / 2.0 + vals[1:-1].sum() + vals[-1] / 2.0))
    return -math.expm1(-float(f(x + t))) * math.exp(-hazard)


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

    Evaluates the exponent at each group atom age along characteristic fans,
    applies the mechanism's analytic functional to every grid node in one
    call, and integrates with the grid's quadrature.  Returns (integral,
    per-node values).
    """
    n = grid.n_steps
    if imm.total_rate == 0.0:
        return 0.0, np.zeros(n + 1)
    ages = imm.atom_ages()
    sol = exponent_solution
    if sol is None:
        _, rays, _ = march_exponent(model, f, grid, ages)
    else:
        if abs(sol.grid.horizon - grid.horizon) > 1e-12 or sol.grid.dt != grid.dt:
            raise ValueError("exponent solution grid does not match the requested grid")
        rays = sol.rays(ages)
    psi_vals = imm.psi_from_exponents(dict(zip(ages, rays)))
    w = _quadrature_weights(n, grid.dt, grid.quadrature)
    return float(np.dot(w, psi_vals)), psi_vals


def mean_with_immigration(
    model: BranchingModel,
    imm: ImmigrationMechanism | None,
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
    atoms = imm.atom_ages() if imm is not None and imm.total_rate > 0.0 else ()
    ages = [*initial.ages, *atoms]
    if mean_solution is None:
        _, table, _ = march_mean(model, f, grid, ages)
    else:
        table = mean_solution.rays(ages)
    total = sum(float(v) for v in table[: len(initial.ages), -1])
    if not atoms:
        return total
    rays = dict(zip(atoms, table[len(initial.ages) :]))
    n = grid.n_steps
    contrib = np.zeros(n + 1)
    if imm.kind == "finite":
        for wgt, g in imm.groups:
            for a in g.ages:
                contrib += wgt * rays[a]
    else:
        mean_size = imm.size_law.mean_size  # type: ignore[union-attr]
        if math.isinf(mean_size):
            raise ValueError("mean group size is infinite; the first moment diverges")
        for a, p in imm.age_atoms:
            contrib += imm.total_rate * mean_size * p * rays[a]
    w = _quadrature_weights(n, grid.dt, grid.quadrature)
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
    halving.  Refuses models that are not certified ergodic, and mechanisms
    with infinite mean group size (the prescribed tail bound is vacuous there).
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
    for _ in range(16):
        grid = SolverGrid(dt, T, "trapezoid")
        integral, _ = immigration_exponent_integral(model, imm, f, grid)
        if prev is not None:
            quad_err = abs(integral - prev) / 3.0
            if quad_err <= tolerance / 2.0:
                return StationaryReport(
                    math.exp(-integral), integral, T, dt, tail_bound, quad_err
                )
        prev = integral
        dt /= 2.0
    raise RuntimeError(
        f"stationary quadrature did not certify tolerance {tolerance} after refinement"
    )


def exponential_tail_identity(
    a: float, c: float, group_mass: int, tol: float = 1e-9
) -> tuple[float, float]:
    """Two quadrature forms of the exponential-decay tail integral.

    Left: ``integral_0^inf (1 - exp(-a n exp(-c s))) ds`` by this package's
    trapezoid stack (truncated with a certified exponential tail bound and
    step-halving).  Right: the substitution ``z = a n exp(-c s)`` giving
    ``c^-1 integral_0^{a n} (1 - exp(-z)) / z dz`` via adaptive quadrature.
    Used as a self-test of the quadrature machinery; the two must agree.
    """
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
    rhs, _ = _quad(rhs_integrand, 0.0, an, epsabs=tol / 10.0, epsrel=1e-12, limit=200)
    return lhs, rhs / c
