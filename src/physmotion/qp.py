"""Dense strictly convex QP solver: the Goldfarb-Idnani dual active-set method.

Solves
    minimize    0.5 x^T P x + q^T x
    subject to  A x  = b
                G x <= h

for P positive semidefinite and strictly convex on the equality null space
(every problem the optimizer builds satisfies this). Strategy:

1. Diagonal variable scaling evens out the objective's dynamic range, and row
   equilibration evens out the constraint rows.
2. The equality-constrained KKT matrix is factored once, and solved for the
   equality-only minimiser x0. When x0 satisfies every inequality it is the
   solution (the common case for settled contacts).
3. Otherwise the same factorisation gives, per inequality row, how (x, nu)
   respond to a unit multiplier on it. Every point the method visits is x0
   plus a combination of those responses, so the iteration runs on the
   inequality multipliers alone, through S = G Z G^T (Z the inverse Hessian
   on the equality null space): each row's slack decrease per unit
   multiplier on each row.
4. The dual method (Goldfarb & Idnani 1983, Math. Programming 27)
   adds the most violated row to the working set. Each iterate is optimal
   for the rows in its working set; a partial step drops a working row whose
   multiplier reaches zero. A violated row that depends on the working set
   is skipped when its violation is rounding; otherwise, when no working row
   can leave, no feasible point exists and QPInfeasibleError is raised.
5. Warm start: a caller-supplied active set (typically the previous frame's)
   seeds the working set. Its rows that depend on earlier ones are left
   out, and it is pruned to dual feasibility by dropping its most negative
   multiplier until none is negative. Rows outside G make it ignored.
6. One final solve of the KKT system with the working rows as equalities
   restores machine precision; its KKT residual must be within tol.

An inconsistent equality system raises QPInfeasibleError (the caller drops
constraint groups in response); a failed factorisation, a working set that
does not settle within 3 (mi + 1) steps, or a final KKT residual above tol
raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import QPInfeasibleError, SolverError


@dataclass
class QPSolution:
    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    iterations: int
    active_set: Tuple[int, ...]
    kkt_residual: float


def _kkt_factor(p_mat: np.ndarray, e_mat: np.ndarray) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Factor [[P, E^T], [E, 0]] once; returns solve(rhs) for blocks rhs (n + m, k).

    solve returns (sol, constraint_error): per column, |E x - rhs[n:]|max
    relative to 1 + |rhs[n:]|max, the certificate that the constraint rows
    are consistent. The factorisation carries a small static quasi-definite
    regularization (+delta on the Hessian block, -delta on the constraint
    block) and each solve is refined against the true matrix, which keeps
    nearly singular systems (straight-leg poses) solvable. Refinement
    measures the stationarity rows against |rhs[:n]| and the constraint rows
    against |rhs[n:]|, so a large linear cost does not loosen the constraints.
    """
    n, m = p_mat.shape[0], e_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = p_mat
    kkt[:n, n:] = e_mat.T
    kkt[n:, :n] = e_mat
    delta = 1e-9 * (1.0 + float(np.abs(p_mat).max()))
    reg = np.concatenate([np.full(n, delta), np.full(m, -delta)])
    try:
        lu = lu_factor(kkt + np.diag(reg))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"KKT factorisation failed: {exc}") from exc

    def solve(rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        top = 1.0 + np.abs(rhs[:n]).max(axis=0)
        bottom = 1.0 + np.abs(rhs[n:]).max(axis=0, initial=0.0)

        def errors(sol: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            res = rhs - kkt @ sol
            cons = np.abs(res[n:]).max(axis=0, initial=0.0) / bottom
            return res, np.maximum(np.abs(res[:n]).max(axis=0) / top, cons), cons

        # lu_solve takes about 40 times longer on a C-ordered block of
        # columns than on a Fortran-ordered one (21 columns, 2-core OpenBLAS)
        sol = lu_solve(lu, np.asfortranarray(rhs))
        if not np.isfinite(sol).all():
            raise SolverError("KKT factorisation is singular")
        res, err, cons = errors(sol)
        for _ in range(8):
            if err.max() < 1e-13:
                break
            new_sol = sol + lu_solve(lu, np.asfortranarray(res))
            new_res, new_err, new_cons = errors(new_sol)
            better = new_err < err
            # a column that no longer halves its error has reached rounding
            progress = (new_err < 0.5 * err).any()
            sol = np.where(better, new_sol, sol)
            res = np.where(better, new_res, res)
            err = np.where(better, new_err, err)
            cons = np.where(better, new_cons, cons)
            if not progress:
                break
        if err.max() > 1e-9:
            # genuinely singular (redundant or inconsistent rows): take the
            # least-squares solution of each column where it is cleaner
            try:
                alt, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"KKT least-squares solve failed: {exc}") from exc
            _, alt_err, alt_cons = errors(alt)
            better = alt_err < err
            sol = np.where(better, alt, sol)
            cons = np.where(better, alt_cons, cons)
        return sol, cons

    return solve


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


def _dual_active_set(
    s_mat: np.ndarray, s0: np.ndarray, feas_tol: float, warm: Sequence[int]
) -> Tuple[List[int], int]:
    """Goldfarb-Idnani on the inequality multipliers mu; returns (working rows, steps).

    The slacks are s(mu) = s0 - S mu, positive where a row is violated.
    Every iterate keeps the working rows tight (S_WW mu_W = s0_W) with
    mu_W >= 0 and mu = 0 elsewhere.
    """
    mi = s0.shape[0]
    dep_floor = 1e-15 * float(s_mat.diagonal().max())
    working: List[int] = []
    steps = 0

    def response(p: int) -> Tuple[np.ndarray, float]:
        """Change of mu_W per unit of mu_p keeping the working rows tight, and
        the Schur complement z: the decrease of row p's slack per unit of mu_p."""
        if not working:
            return np.zeros(0), float(s_mat[p, p])
        c = np.linalg.solve(s_mat[np.ix_(working, working)], s_mat[working, p])
        return -c, float(s_mat[p, p] - s_mat[p, working] @ c)

    def independent(p: int, z: float) -> bool:
        return z > 1e-10 * s_mat[p, p] + dep_floor

    def working_multipliers() -> np.ndarray:
        mu = np.zeros(mi)
        if working:
            mu[working] = np.linalg.solve(s_mat[np.ix_(working, working)], s0[working])
        return mu

    for p in sorted(set(warm)):
        if independent(p, response(p)[1]):
            working.append(p)
    mu = working_multipliers()
    while working and mu[working].min() < 0.0:
        del working[int(np.argmin(mu[working]))]
        mu = working_multipliers()
        steps += 1

    max_steps = 3 * (mi + 1)
    skipped: set = set()
    while True:
        slack = s0 - s_mat @ mu
        rows = (i for i in range(mi) if i not in skipped and i not in working)
        p = max(rows, key=slack.__getitem__, default=None)
        if p is None or slack[p] <= feas_tol:
            return working, steps
        while True:
            dmu, z = response(p)
            full = independent(p, z)
            leave = dmu < -1e-12 * max(1.0, float(np.abs(dmu).max(initial=0.0)))
            if not full and not leave.any():
                if slack[p] <= 1e-9 * (abs(s0[p]) + float(np.abs(s_mat[p]) @ mu)):
                    skipped.add(p)  # implied by the working set: rounding only
                    break
                raise QPInfeasibleError(f"inequality row {p} is violated and depends on rows {sorted(working)}")
            steps += 1
            if steps > max_steps:
                raise SolverError(f"dual active set did not settle in {max_steps} steps ({mi} inequalities)")
            # step lengths: a leaving row's multiplier reaches zero, or row p is tight
            ratios = np.full(len(working) + 1, np.inf)
            ratios[:-1][leave] = mu[working][leave] / -dmu[leave]
            ratios[-1] = slack[p] / z if full else np.inf
            k = int(np.argmin(ratios))
            t = float(ratios[k])
            mu[working] += t * dmu
            mu[p] += t
            skipped.clear()
            if k == len(working):
                working.append(p)
                break
            mu[working[k]] = 0.0  # its multiplier reached zero: the row leaves
            del working[k]
            slack = s0 - s_mat @ mu


def solve_qp(
    p_mat: np.ndarray,
    q_vec: np.ndarray,
    a_mat: Optional[np.ndarray] = None,
    b_vec: Optional[np.ndarray] = None,
    g_mat: Optional[np.ndarray] = None,
    h_vec: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    warm_start: Optional[Sequence[int]] = None,
) -> QPSolution:
    """Solve the QP; `warm_start` is a guess of the active inequality rows.

    A warm start that names rows outside G is ignored. `iterations` is 1
    plus the dual method's steps; the equality-only solution takes 1 and has
    an empty active set.
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
    row_a = np.maximum(np.abs(a_s).max(axis=1, initial=0.0), 1e-12)
    row_g = np.maximum(np.abs(g_s).max(axis=1, initial=0.0), 1e-12)
    a_s, b_s = a_s / row_a[:, None], b_in / row_a
    g_s, h_s = g_s / row_g[:, None], h_in / row_g

    def finish(xs: np.ndarray, nu_s: np.ndarray, mu_s: np.ndarray, iterations: int, active) -> QPSolution:
        x, nu, mu = xs * d, nu_s / row_a, mu_s / row_g
        residual = kkt_residual(p_in, q_in, a_in, b_in, g_in, h_in, x, nu, mu)
        if residual > tol:
            raise SolverError(
                f"KKT residual {residual:.3e} above tolerance ({len(active)} active of {mi} inequalities)"
            )
        return QPSolution(x, nu, mu, iterations, tuple(active), residual)

    # one factorisation: the equality-only minimiser, then, unless it is
    # feasible, per inequality row the response of (x, nu) to a unit
    # multiplier on it
    solve = _kkt_factor(p_s, a_s)
    sol, consistency = solve(np.concatenate([-q_s, b_s])[:, None])
    if consistency[0] > 1e-7:
        raise QPInfeasibleError("equality constraints are inconsistent")
    x0, nu0 = sol[:n, 0], sol[n:, 0]
    s0 = g_s @ x0 - h_s
    feas_tol = 1e-9 * (1.0 + float(np.abs(h_s).max(initial=0.0)))
    if mi == 0 or s0.max() <= feas_tol:
        return finish(x0, nu0, np.zeros(mi), 1, ())

    responses, _ = solve(np.vstack([-g_s.T, np.zeros((me, mi))]))
    s_mat = -g_s @ responses[:n]
    s_mat = 0.5 * (s_mat + s_mat.T)
    seed = np.asarray(warm_start if warm_start is not None else (), dtype=int)
    warm = seed.tolist() if seed.size and seed.min() >= 0 and seed.max() < mi else []
    try:
        working, steps = _dual_active_set(s_mat, s0, feas_tol, warm)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dual active set: {exc}") from exc

    # final solve with the working rows as equalities, to machine precision
    working.sort()
    e_mat = np.vstack([a_s, g_s[working]])
    final, _ = _kkt_factor(p_s, e_mat)(np.concatenate([-q_s, b_s, h_s[working]])[:, None])
    mu_s = np.zeros(mi)
    mu_s[working] = np.maximum(final[n + me :, 0], 0.0)
    return finish(final[:n, 0], final[n : n + me, 0], mu_s, 1 + steps, working)
