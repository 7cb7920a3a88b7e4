"""Reference implementations that the tests compare the solvers against.

These are independent or older discretizations of the same equations, kept
only as oracles:

* ``fan_exponent`` / ``fan_mean``: one O(n^2) characteristic fan per ray,
  with labels ``offset + t_j``, reading a given boundary trace (or closing
  it when none is given).  ``fan_mean`` also carries the bare-quadrature
  ``form="direct"`` of the moment equation.
* ``renewal_exponent_boundary``: the exponent's boundary trace through the
  survival-discounted renewal form.
* ``scalar_exponent_at`` / ``scalar_mean_at``: a single ray integrated in
  scalar Python, reading the boundary trace linearly interpolated.
* ``immigration_integral_per_node``: the arrival-compensation integral with
  psi evaluated in scalar Python, one grid node at a time.
* ``simulate_objects``: the simulator that stores every snapshot as a
  validated ``AgeMeasure`` and always keeps the ``Event`` log, returning an
  ``ObjectTrajectory``; ``replay_statistics`` and ``mass_path`` read
  statistics from the event log of either trajectory type.
* ``run_chunk_objects``: the replicate-chunk extractor reading every mode
  from ``AgeMeasure`` snapshots, with the martingale residual path by path.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from agebranch.measures import AgeMeasure
from agebranch.simulate import Event, SimConfig, replicate_rng
from agebranch.validate import _G_CATALOG

from agebranch.solvers import (
    _FIXED_POINT_MAX_ITER,
    _FIXED_POINT_TOL,
    _check_contraction,
    _clip_unit,
    _quadrature_weights,
)


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
        zb_l = math.exp(-sol.boundary_at(r))
        F_l = float(alpha(age_l)) * (offspring.g(age_l, zb_l) - w)
        if not trapezoid:
            w = w + h * F_l
        else:
            age_r = y - (r + h)
            a_r = float(alpha(age_r))
            zb_r = math.exp(-sol.boundary_at(r + h))
            g_r = offspring.g(age_r, min(max(zb_r, 0.0), 1.0))
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
    y = x + t
    A = 0.0
    J = 0.0
    r = 0.0
    while r < t - 1e-15:
        h = min(dt, t - r)
        age_l, age_r = y - r, y - (r + h)
        a_l, a_r = float(alpha(age_l)), float(alpha(age_r))
        am_l = a_l * offspring.mean(age_l)
        am_r = a_r * offspring.mean(age_r)
        h_left = math.exp(A) * am_l * sol.boundary_at(r)
        if trapezoid:
            A_new = A + (h / 2.0) * (a_l + a_r)
            h_right = math.exp(A_new) * am_r * sol.boundary_at(r + h)
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
    w = _quadrature_weights(n, grid.dt, grid.quadrature)
    return float(np.dot(w, psi)), psi


@dataclass(frozen=True)
class ObjectTrajectory:
    """Snapshots at requested times plus the full event log.

    ``terminated_by`` is "t_end" (ran to the horizon), "extinction" (the
    population died and, without immigration, can never recover) or
    "event_cap" (truncated; statistics from such a path are biased and all
    consumers must check the flag).
    """

    snapshots: tuple[tuple[float, AgeMeasure], ...]
    events: tuple[Event, ...]
    terminated_by: str
    initial: AgeMeasure

    def branch_count(self, t: float) -> int:
        """Number of branch events up to and including time t."""
        return sum(1 for e in self.events if e.kind == "branch" and e.time <= t)

    def running_max_mass(self, t: float) -> int:
        """sup of the population size over [0, t]; exact from the event log."""
        m = self.initial.total_mass
        best = m
        for e in self.events:
            if e.time > t:
                break
            m += e.mass_delta
            best = max(best, m)
        return best


def simulate_objects(cfg: SimConfig, rng: np.random.Generator | None = None) -> ObjectTrajectory:
    """Run one exact path of the branching process, with immigration if configured.

    Deterministic: identical (seed, replicate_index, config) gives a
    bit-identical trajectory.  Exceeding ``max_events`` truncates the path and
    flags it; it is never silently dropped.
    """
    if rng is None:
        rng = replicate_rng(cfg.seed, cfg.replicate_index)
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate if imm is not None else 0.0

    # age of particle i at time t is bases[i] + t; newborns get base = -t,
    # which is strictly smaller than every existing base, so prepending keeps
    # the list sorted
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
            snapshots.append((s, AgeMeasure(tuple(b + s for b in bases))))
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
            ages_now = np.asarray(bases) + t_next
            weights = np.asarray(alpha(ages_now), dtype=np.float64)
            hazard = float(weights.sum())
            if rng.random() * c1 * mass < hazard:
                cum = np.cumsum(weights)
                idx = int(np.searchsorted(cum, rng.random() * hazard, side="right"))
                idx = min(idx, mass - 1)
                dying_age = float(ages_now[idx])
                k = offspring.sample(dying_age, rng)
                del bases[idx]
                if k:
                    bases[0:0] = [-t_next] * k
                events.append(Event(t_next, "branch", dying_age=dying_age, offspring_count=k))
                n_events += 1
        else:
            assert imm is not None
            group = imm.sample_group(rng)
            for a in group.ages:
                bisect.insort(bases, a - t_next)
            events.append(Event(t_next, "immigrate", group=group))
            n_events += 1
        clock = t_next
        if n_events >= cfg.max_events:
            terminated_by = "event_cap"
            break

    return ObjectTrajectory(tuple(snapshots), tuple(events), terminated_by, cfg.initial)


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
        m += e.mass_delta
        times[i] = e.time
        masses[i] = m
    return times, masses


def run_chunk_objects(job, start: int, stop: int) -> np.ndarray:
    """Replicates ``start..stop`` of a ``validate`` job, read from ``ObjectTrajectory``.

    Rows match the package's chunk layout, except that the martingale mode
    holds the residual ``G(v_T) - G(v_0) - integral`` and the flag.
    """
    columns = 2 if job.mode == "martingale" else job.columns()
    out = np.empty((stop - start, columns))
    for r in range(start, stop):
        rng = replicate_rng(job.cfg.seed, job.stream, r)
        traj = simulate_objects(replace(job.cfg, replicate_index=r), rng)
        biased = 1.0 if traj.terminated_by == "event_cap" else 0.0
        row = out[r - start]
        if biased:
            row[:] = np.nan
            row[-1] = 1.0
            continue
        if job.mode == "laplace":
            _, last = traj.snapshots[-1]
            row[0] = math.exp(-last.integrate(job.f))
        elif job.mode == "integral":
            _, last = traj.snapshots[-1]
            row[0] = last.integrate(job.f)
        elif job.mode == "extinct":
            _, last = traj.snapshots[-1]
            row[0] = 1.0 if last.total_mass == 0 else 0.0
        elif job.mode == "growth":
            t = job.cfg.t_end
            row[0] = traj.running_max_mass(t)
            row[1] = traj.branch_count(t)
            row[2] = biased
            continue
        elif job.mode == "profile":
            k = len(traj.snapshots)
            row[0:k] = [m.total_mass for _, m in traj.snapshots]
            row[k : 2 * k] = [m.integrate(job.f) for _, m in traj.snapshots]
            row[-1] = biased
            continue
        else:
            row[0] = _martingale_residual_path(job, traj)
        row[1] = biased
    return out


def _martingale_residual_path(job, traj) -> float:
    # One pooled pass over all snapshot particles: every generator term
    # factorizes into snapshot-level functions of v = <X_s, f> times
    # per-particle sums, accumulated with bincount over the snapshot index.
    model = job.cfg.model
    f = job.f
    imm = job.cfg.immigration
    G, Gp = _G_CATALOG[job.g_name]
    fprime, _ = f.derivative_fn()
    f0 = float(f(0.0))
    offspring = model.offspring

    imm_f1 = imm_f2 = psi_f = 0.0
    has_imm = imm is not None and imm.total_rate > 0.0
    if has_imm:
        if job.g_name == "exp":
            psi_f = imm.psi(f)
        else:
            imm_f1 = imm.first_moment_of(f)
            if math.isinf(imm_f1):
                raise ValueError("martingale check needs a finite mean group integral")
            if job.g_name == "square":
                imm_f2 = imm.second_moment_of(f)
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

    if job.g_name == "identity":
        seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
        lg = seg_fp + seg_lin + (imm_f1 if has_imm else 0.0)
    elif job.g_name == "exp":
        g0 = offspring.g_by_regime(math.exp(-f0))[ridx]
        seg_g = np.bincount(seg, weights=a_vals * (np.exp(fa) * g0 - 1.0), minlength=n_snap)
        lg = np.exp(-vs) * (-seg_fp + seg_g - (psi_f if has_imm else 0.0))
    else:
        second = offspring.second_moment_by_regime()[ridx]
        seg_lin = np.bincount(seg, weights=a_vals * (means * f0 - fa), minlength=n_snap)
        seg_sq = np.bincount(
            seg, weights=a_vals * (f0**2 * second - 2.0 * f0 * fa * means + fa**2), minlength=n_snap
        )
        lg = 2.0 * vs * seg_fp + 2.0 * vs * seg_lin + seg_sq
        if has_imm:
            lg = lg + 2.0 * vs * imm_f1 + imm_f2

    h = np.diff(times)
    integral = float(np.sum(h * (lg[:-1] + lg[1:]) / 2.0))
    return G(float(vs[-1])) - G(float(vs[0])) - integral

