"""Dense convex QP solver: interior point with an active-set polish.

Solves
    minimize    0.5 x^T P x + q^T x
    subject to  A x  = b
                G x <= h

for P positive semidefinite and strictly convex on the equality null space
(every problem the optimizer builds satisfies this). Strategy:

1. Diagonal variable scaling evens out the objective's dynamic range.
2. The equality-constrained KKT system is solved outright and accepted when
   all inequalities already hold (the common case for settled contacts).
3. Warm start: a caller-supplied active set (typically the previous frame's)
   seeds a few rounds of the active-set crossover; its result is accepted
   only when it passes the KKT check.
4. Otherwise a Mehrotra predictor-corrector interior-point iteration runs on
   the augmented KKT system.
5. Polish: the detected active inequalities are re-solved as equalities,
   restoring exact complementarity and a machine-precision KKT residual; the
   interior-point iterate is kept if the polished candidate fails checks.

An inconsistent equality system raises QPInfeasibleError (the caller drops
constraint groups in response); failure to reach the tolerance raises
SolverError with iteration diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import QPInfeasibleError, SolverError

# active-set crossover rounds after the interior point, and the rounds a warm
# start may take before the cold path runs instead
CROSSOVER_ROUNDS = 40
WARM_START_ROUNDS = 5


@dataclass
class QPSolution:
    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    iterations: int
    active_set: Tuple[int, ...]
    kkt_residual: float


def _kkt_solve(
    p_mat: np.ndarray, q_vec: np.ndarray, e_mat: np.ndarray, e_rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Solve the bordered system; returns (x, multipliers, rhs_consistent).

    The factorization uses a small static quasi-definite regularization
    (+delta on the Hessian block, -delta on the constraint block) and then
    refines against the true matrix, which keeps nearly singular systems
    (straight-leg poses, objectives without a full diagonal) solvable.
    """
    n = p_mat.shape[0]
    m = e_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = p_mat
    if m:
        kkt[:n, n:] = e_mat.T
        kkt[n:, :n] = e_mat
    rhs = np.concatenate([-q_vec, e_rhs])
    rhs_scale = 1.0 + float(np.abs(rhs).max())
    delta = 1e-9 * (1.0 + float(np.abs(p_mat).max()))
    reg = np.concatenate([np.full(n, delta), np.full(m, -delta)])
    try:
        lu = lu_factor(kkt + np.diag(reg))
        sol = lu_solve(lu, rhs)
        res = rhs - kkt @ sol
        for _ in range(8):
            err = float(np.abs(res).max())
            if err < 1e-13 * rhs_scale:
                break
            step = lu_solve(lu, res)
            new_sol = sol + step
            new_res = rhs - kkt @ new_sol
            if float(np.abs(new_res).max()) >= err:
                break
            sol, res = new_sol, new_res
        if float(np.abs(rhs - kkt @ sol).max()) > 1e-9 * rhs_scale:
            # genuinely singular (redundant or inconsistent rows): fall back
            # to the least-squares solution if it is cleaner
            alt, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if float(np.abs(rhs - kkt @ alt).max()) < float(np.abs(rhs - kkt @ sol).max()):
                sol = alt
    except (np.linalg.LinAlgError, ValueError):
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x, mult = sol[:n], sol[n:]
    consistent = True
    if m:
        scale = 1.0 + float(np.abs(e_rhs).max())
        consistent = float(np.abs(e_mat @ x - e_rhs).max()) <= 1e-7 * scale
    return x, mult, consistent


def kkt_residual(
    p_mat: np.ndarray,
    q_vec: np.ndarray,
    a_mat: np.ndarray,
    b_vec: np.ndarray,
    g_mat: np.ndarray,
    h_vec: np.ndarray,
    x: np.ndarray,
    nu: np.ndarray,
    mu: np.ndarray,
) -> float:
    """Worst normalized KKT violation.

    Stationarity is measured relative to the objective-gradient magnitude;
    primal feasibility relative to the constraint right-hand sides; dual sign
    and complementarity relative to the multiplier magnitude.
    """
    grad = p_mat @ x + q_vec
    station = grad.copy()
    if a_mat.size:
        station = station + a_mat.T @ nu
    if g_mat.size:
        station = station + g_mat.T @ mu
    parts = [float(np.abs(station).max()) / (1.0 + float(np.abs(grad).max()))]
    if a_mat.size:
        parts.append(float(np.abs(a_mat @ x - b_vec).max()) / (1.0 + float(np.abs(b_vec).max())))
    if g_mat.size:
        slack = g_mat @ x - h_vec
        mu_scale = 1.0 + float(np.abs(mu).max())
        parts.append(float(max(0.0, slack.max())) / (1.0 + float(np.abs(h_vec).max())))
        parts.append(float(max(0.0, -mu.min())) / mu_scale)
        parts.append(float(np.abs(mu * slack).max()) / mu_scale)
    return max(parts)


def _interior_point(
    p_mat: np.ndarray,
    q_vec: np.ndarray,
    a_mat: np.ndarray,
    b_vec: np.ndarray,
    g_mat: np.ndarray,
    h_vec: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    max_iter: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Mehrotra predictor-corrector on the augmented KKT system.

    Returns the best iterate seen (by worst KKT residual); the caller's
    polish step supplies the final precision, so the loop may stop as soon as
    the active set is resolved or progress stalls.
    """
    n = x0.shape[0]
    me, mi = a_mat.shape[0], g_mat.shape[0]
    x = x0.copy()
    y = y0.copy()
    s = np.maximum(h_vec - g_mat @ x, 1.0)
    z = np.ones(mi)
    scale = 1.0 + float(np.abs(q_vec).max()) + float(np.abs(h_vec).max())
    target = 1e-9 * scale
    best = (x.copy(), y.copy(), s.copy(), z.copy())
    best_worst = np.inf
    best_it = 0

    # The saddle block [[P, A^T], [A, 0]] is constant across iterations:
    # factor once, then each Newton step reduces to a small mi x mi Schur
    # solve in the slack variables.
    nm = n + me
    k0 = np.zeros((nm, nm))
    k0[:n, :n] = p_mat
    if me:
        k0[:n, n:] = a_mat.T
        k0[n:, :n] = a_mat
    try:
        lu0 = lu_factor(k0)
    except (np.linalg.LinAlgError, ValueError):
        return x, y, z, 0
    ghat = np.hstack([g_mat, np.zeros((mi, me))])
    y_mat = lu_solve(lu0, ghat.T)  # (n+me) x mi
    w_mat = ghat @ y_mat  # PSD: G (reduced inverse) G^T

    for it in range(1, max_iter + 1):
        rd = p_mat @ x + q_vec + a_mat.T @ y + g_mat.T @ z
        rp = a_mat @ x - b_vec if me else np.zeros(0)
        rg = g_mat @ x + s - h_vec
        mu = float(s @ z) / mi
        worst = max(
            float(np.abs(rd).max()),
            float(np.abs(rp).max()) if me else 0.0,
            float(np.abs(rg).max()),
            mu,
        )
        if not np.isfinite(worst):
            break  # iterate blew up; return the best one seen
        if worst < best_worst:
            best = (x.copy(), y.copy(), s.copy(), z.copy())
            best_worst = worst
            best_it = it
        if worst < target:
            break
        # numerical breakdown after convergence: return the good iterate
        if best_worst < 1e-6 * scale and worst > 1e3 * best_worst:
            break
        if it - best_it > 30:
            break  # stagnation

        d_slack = np.clip(s / z, 1e-14, 1e14)
        schur = w_mat + np.diag(d_slack)
        r1 = np.concatenate([-rd, -rp])
        u_vec = lu_solve(lu0, r1)
        gu = ghat @ u_vec

        def newton(rc_vec: np.ndarray):
            # complementarity linearization: z ds + s dz = rc_vec,
            # eliminated into the slack block: G dx - (s/z) dz = -rg - rc/z
            r3 = -rg - rc_vec / z
            dz = np.linalg.solve(schur, gu - r3)
            dxy = u_vec - y_mat @ dz
            dx = dxy[:n]
            dy = dxy[n:]
            ds = (rc_vec - s * dz) / z
            if not (np.isfinite(dxy).all() and np.isfinite(ds).all()):
                raise np.linalg.LinAlgError("non-finite Newton step")
            return dx, dy, ds, dz

        def max_step(v: np.ndarray, dv: np.ndarray) -> float:
            neg = dv < 0
            if not neg.any():
                return 1.0
            return min(1.0, float((-v[neg] / dv[neg]).min()))

        # a singular Schur system or a non-finite or overflowing step is a
        # numerical breakdown: stop and return the best iterate seen
        try:
            with np.errstate(over="raise", invalid="raise"):
                dx, dy, ds, dz = newton(-s * z)
                alpha_aff = min(max_step(s, ds), max_step(z, dz))
                mu_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz)) / mi
                sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10), 1.0)
                dx, dy, ds, dz = newton(sigma * mu - s * z - ds * dz)
        except (np.linalg.LinAlgError, ArithmeticError):
            break
        alpha = 0.995 * min(max_step(s, ds), max_step(z, dz))
        if alpha < 1e-12:
            break
        x += alpha * dx
        y += alpha * dy
        s += alpha * ds
        z += alpha * dz

    x, y, s, z = best
    return x, y, z, best_it


def solve_qp(
    p_mat: np.ndarray,
    q_vec: np.ndarray,
    a_mat: Optional[np.ndarray] = None,
    b_vec: Optional[np.ndarray] = None,
    g_mat: Optional[np.ndarray] = None,
    h_vec: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    warm_start: Optional[Sequence[int]] = None,
) -> QPSolution:
    """Solve the QP; `warm_start` is a guess of the active inequality rows.

    A warm start that does not reach a KKT-checked solution within
    WARM_START_ROUNDS crossover rounds (or that names rows outside G) is
    ignored, and the cold interior-point path runs as without it.
    """
    p_in = np.asarray(p_mat, dtype=float)
    q_in = np.asarray(q_vec, dtype=float).reshape(-1)
    n = q_in.shape[0]
    if a_mat is None or np.size(a_mat) == 0:
        a_in, b_in = np.zeros((0, n)), np.zeros(0)
    else:
        a_in = np.asarray(a_mat, dtype=float).reshape(-1, n)
        b_in = np.asarray(b_vec, dtype=float).reshape(-1)
    if g_mat is None or np.size(g_mat) == 0:
        g_in, h_in = np.zeros((0, n)), np.zeros(0)
    else:
        g_in = np.asarray(g_mat, dtype=float).reshape(-1, n)
        h_in = np.asarray(h_vec, dtype=float).reshape(-1)
    me, mi = a_in.shape[0], g_in.shape[0]
    for arr, label in ((p_in, "P"), (q_in, "q"), (a_in, "A"), (b_in, "b"), (g_in, "G"), (h_in, "h")):
        if arr.size and not np.isfinite(arr).all():
            raise SolverError(f"non-finite values in QP data ({label})")

    # diagonal variable scaling: x = d * x_scaled
    diag = np.abs(np.diag(p_in))
    d = 1.0 / np.sqrt(np.maximum(diag, 1e-6 * (diag.max() if diag.size else 1.0) + 1e-12))
    p_s = p_in * d[None, :] * d[:, None]
    q_s = q_in * d
    a_s = a_in * d[None, :]
    g_s = g_in * d[None, :]
    # row equilibration: keeps small constraint rows (e.g. the root
    # acceleration pin) from drowning numerically among large dynamics rows
    if me:
        row_a = np.maximum(np.abs(a_s).max(axis=1), 1e-12)
        a_s = a_s / row_a[:, None]
        b_s = b_in / row_a
    else:
        row_a = np.ones(0)
        b_s = b_in
    if mi:
        row_g = np.maximum(np.abs(g_s).max(axis=1), 1e-12)
        g_s = g_s / row_g[:, None]
        h_s = h_in / row_g
    else:
        row_g = np.ones(0)
        h_s = h_in

    def unscale(sol_x: np.ndarray) -> np.ndarray:
        return sol_x * d

    def unscale_eq_mult(nu_s: np.ndarray) -> np.ndarray:
        return nu_s / row_a if me else nu_s

    def unscale_ineq_mult(mu_s: np.ndarray) -> np.ndarray:
        return mu_s / row_g if mi else mu_s

    # equality-only fast path (also the consistency certificate)
    xs, mult, consistent = _kkt_solve(p_s, q_s, a_s, b_s)
    if not consistent:
        raise QPInfeasibleError("equality constraints are inconsistent")
    if not (np.isfinite(xs).all() and np.isfinite(mult).all()):
        raise SolverError("equality solve produced non-finite values")
    x = unscale(xs)
    if mi == 0 or float((g_in @ x - h_in).max()) <= min(tol, 1e-9) * (1.0 + float(np.abs(h_in).max())):
        mu = np.zeros(mi)
        nu = unscale_eq_mult(mult)
        residual = kkt_residual(p_in, q_in, a_in, b_in, g_in, h_in, x, nu, mu)
        if residual > tol:
            raise SolverError(f"KKT residual {residual:.3e} above tolerance on equality solve")
        return QPSolution(x, nu, mu, 1, (), residual)

    def polish(seed: np.ndarray, max_rounds: int, iters: int) -> Optional[QPSolution]:
        polished = _crossover(p_s, q_s, a_s, b_s, g_s, h_s, seed, me, mi, max_rounds)
        if polished is None:
            return None
        xp_s, nu_s, mu_s, rounds, active = polished
        xp = unscale(xp_s)
        nu = unscale_eq_mult(nu_s)
        mu = unscale_ineq_mult(mu_s)
        residual = kkt_residual(p_in, q_in, a_in, b_in, g_in, h_in, xp, nu, mu)
        if residual > tol:
            return None
        return QPSolution(xp, nu, mu, iters + rounds, active, residual)

    if warm_start is not None and len(warm_start):
        warm = np.asarray(warm_start, dtype=int)
        if warm.min() >= 0 and warm.max() < mi:
            sol = polish(warm, WARM_START_ROUNDS, 0)
            if sol is not None:
                return sol

    xs_ip, y_ip, z_ip, iters = _interior_point(
        p_s, q_s, a_s, b_s, g_s, h_s, xs, mult, min(max_iter, 100)
    )
    x_ip = unscale(xs_ip)
    slack = h_s - g_s @ xs_ip
    seed = np.flatnonzero(z_ip > slack)

    # crossover: active-set cleanup seeded with the interior-point active set
    sol = polish(seed, CROSSOVER_ROUNDS, iters)
    if sol is not None:
        return sol

    residual_ip = kkt_residual(
        p_in,
        q_in,
        a_in,
        b_in,
        g_in,
        h_in,
        x_ip,
        unscale_eq_mult(y_ip),
        unscale_ineq_mult(np.maximum(z_ip, 0.0)),
    )
    if residual_ip <= tol:
        return QPSolution(
            x_ip,
            unscale_eq_mult(y_ip),
            unscale_ineq_mult(np.maximum(z_ip, 0.0)),
            iters,
            tuple(int(i) for i in seed),
            residual_ip,
        )
    raise SolverError(
        f"no convergence after {iters} interior-point iterations "
        f"(residual {residual_ip:.3e}, {seed.size} active of {mi} inequalities)"
    )


def _independent_rows(base_q: np.ndarray, rows: np.ndarray) -> list:
    """Indices of rows independent of the base row space and of each other.

    base_q is an orthonormal basis (columns) of the equality row space; rows
    at a friction-cone vertex are linearly dependent and must be pruned or
    the working-set KKT system turns singular.
    """
    kept = []
    extras: list = []
    for i, row in enumerate(rows):
        v = row - base_q @ (base_q.T @ row)
        for e in extras:
            v = v - (e @ v) * e
        norm = float(np.linalg.norm(v))
        if norm > 1e-8 * (1.0 + float(np.linalg.norm(row))):
            extras.append(v / norm)
            kept.append(i)
    return kept


def _crossover(
    p_s: np.ndarray,
    q_s: np.ndarray,
    a_s: np.ndarray,
    b_in: np.ndarray,
    g_s: np.ndarray,
    h_in: np.ndarray,
    seed: np.ndarray,
    me: int,
    mi: int,
    max_rounds: int,
):
    """Finish to machine precision: add violated rows, drop negative multipliers.

    Starting from the interior-point active-set estimate (or a warm start)
    this settles in a couple of rounds; returns None if it cycles, the set
    goes inconsistent, or max_rounds pass.
    """
    feas_tol = 1e-9 * (1.0 + float(np.abs(h_in).max()) if mi else 1.0)
    base_q = np.linalg.qr(a_s.T)[0] if me else np.zeros((p_s.shape[0], 0))
    working = sorted({int(i) for i in seed})
    seen = set()
    for rounds in range(1, max_rounds + 1):
        key = tuple(working)
        if key in seen:
            return None
        seen.add(key)
        solve_set = [working[i] for i in _independent_rows(base_q, g_s[working])]
        e_mat = np.vstack([a_s, g_s[solve_set]]) if solve_set else a_s
        e_rhs = np.concatenate([b_in, h_in[solve_set]]) if solve_set else b_in
        xs, mult, consistent = _kkt_solve(p_s, q_s, e_mat, e_rhs)
        if not consistent:
            if not solve_set:
                return None
            working.remove(solve_set[int(np.argmin(mult[me:]))])
            continue
        slack = g_s @ xs - h_in
        enforced = np.abs(slack[working]) <= feas_tol if working else np.zeros(0, bool)
        slack_sel = slack.copy()
        if working:
            slack_sel[np.asarray(working)[enforced]] = 0.0
        worst = int(np.argmax(slack_sel)) if mi else 0
        if mi and slack_sel[worst] > feas_tol:
            if worst in working:
                return None  # redundant row turned inconsistent: give up
            working = sorted(working + [worst])
            continue
        mu_w = mult[me:]
        if len(solve_set) and mu_w.min() < -feas_tol:
            working.remove(solve_set[int(np.argmin(mu_w))])
            continue
        nu = mult[:me]
        mu = np.zeros(mi)
        for idx, row in enumerate(solve_set):
            mu[row] = max(float(mu_w[idx]), 0.0)
        return xs, nu, mu, rounds, tuple(solve_set)
    return None
