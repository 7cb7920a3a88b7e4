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
"""

from __future__ import annotations

import math

import numpy as np

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
