"""Dense strictly convex QP solver: the Goldfarb-Idnani dual active-set method.

Solves
    minimize    0.5 x^T P x + q^T x
    subject to  A x  = b
                G x <= h

for P positive semidefinite and strictly convex on the equality null space
(every problem the optimizer builds satisfies this). Strategy:

1. Diagonal variable scaling evens out the objective's dynamic range, and row
   equilibration evens out the constraint rows.
2. The equality-constrained KKT matrix K is factored once: one LU by one
   LAPACK getrf call (`lu_factor`), the only factorisation a QP makes. Its
   solve for the equality-only minimiser x0 is refined by `_refine`:
   corrections against the true matrix until the relative residual is
   below EXACT or stops falling. When x0 satisfies
   every inequality it is the solution (the common case for settled contacts).
3. Otherwise the same factorisation gives how (x, nu) respond to a unit
   multiplier on each inequality row. G touches only a few columns of x
   (the contact forces), so one solve for unit forces on those columns gives
   every row's response, and S = G_J [K^-1]_JJ G_J^T: each row's slack
   decrease per unit multiplier on each row. Every point the method visits
   is x0 plus a combination of the responses, so the iteration runs on the
   inequality multipliers alone.
4. The dual method (Goldfarb & Idnani 1983, Math. Programming 27)
   adds the most violated row to the working set. Each iterate is optimal
   for the rows in its working set; a partial step drops a working row whose
   multiplier reaches zero. As in their method, S restricted to the working
   set is held as a triangular factor R (R^T R = S_WW) that gains a column
   when a row enters and is made triangular again by one small QR when a
   row leaves, so no step solves with S_WW from scratch. A slack within
   rounding of the terms it is formed from counts as met. A violated row
   that depends on the working set, when no working row can leave, admits
   no feasible point, and QPInfeasibleError is raised.
5. Warm start: a caller-supplied active set (typically the previous frame's)
   seeds the working set. Its rows that depend on earlier ones are left
   out, and it is pruned to dual feasibility by dropping its most negative
   multiplier until none is negative. Rows outside G make it ignored.
6. The final point solves the KKT system with the working rows as
   equalities, by block elimination on the one factorisation: mu_W from R,
   then x from x0 and the responses. It is refined like x0 in step 2, each
   correction one solve with the LU and one with R; the KKT residual must be
   within tol.

An inconsistent equality system (x0's constraint rows still off by more than
1e-7 relative after refinement) or a violated dependent row that no working
row can make room for raises QPInfeasibleError (the caller drops constraint
groups in response); a failed factorisation or solve (a zero or non-finite
pivot, a non-finite solution, or LAPACK's own error), a working
set that does not settle within 3 (mi + 1) steps, or a final KKT residual
above tol raises SolverError.

The LAPACK routines come from scipy.linalg.lapack, imported at the first
solve, so importing this module does not load scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import QPInfeasibleError, SolverError

class _Lapack:
    """The routines of scipy.linalg.lapack, each imported at its first use:
    importing scipy.linalg costs about a third of a second and 28 MB, which
    a run that solves no QP should not pay."""

    def __getattr__(self, name: str):
        from scipy.linalg import lapack

        routine = getattr(lapack, name)
        setattr(self, name, routine)
        return routine

    def lu_factor(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """LU factorisation with partial pivoting of a copy of a, by one
        LAPACK getrf call: (lu, piv) with 0-based pivots, as
        scipy.linalg.lu_factor gives them, without its input checks. An
        exactly zero pivot raises LinAlgError."""
        lu, piv, info = self.dgetrf(a)
        if info > 0:
            raise np.linalg.LinAlgError(f"getrf: pivot {info - 1} is exactly zero")
        return lu, piv


_LAPACK = _Lapack()
# The one factorisation, a module attribute that tests and the benchmark's
# tracer replace to fail or count it. The tracer also wraps every function
# this module defines; a bound method is not one, so each call counts once.
lu_factor = _LAPACK.lu_factor


@dataclass
class QPSolution:
    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    iterations: int
    active_set: Tuple[int, ...]
    kkt_residual: float


# Relative KKT residual at which a refined solve has reached machine precision
EXACT = 1e-13


def _kkt_factor(kkt: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Factor kkt = [[P, E^T], [E, 0]] (P of size n) once; returns its solve.

    The factorisation carries a small static quasi-definite regularization
    (+delta on the Hessian block, -delta on the constraint block), which
    keeps nearly singular systems (straight-leg poses) solvable. The solve
    applies it to rhs (n + m,) or (n + m, k) with one LAPACK getrs call and
    no refinement. Each caller reads it at its own precision:
    - The equality-only minimiser and the final point are `_refine`d against
      the true matrix to EXACT, because they are returned as solutions.
    - The response columns are raw solves: S is then the Schur complement of
      the regularized matrix (about 1e-6 relative from the true one on gait
      frames), and the dual method reads it only to pick its working set.
    """
    diag = np.einsum("ii->i", kkt)  # a writable view
    # P is positive semidefinite, so its largest entry is on its diagonal
    delta = 1e-9 * (1.0 + float(np.abs(diag[:n]).max()))
    unregularised = diag.copy()
    diag[:n] += delta
    diag[n:] -= delta
    try:
        # kkt is assembled row-major, so its transpose is the column-major
        # array LAPACK takes; getrs solves with trans=1
        lu, piv = lu_factor(kkt.T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"KKT factorisation failed: {exc}") from exc
    diag[:] = unregularised
    pivots = np.diagonal(lu)
    if not (np.isfinite(pivots).all() and pivots.all()):
        raise SolverError("KKT factorisation is singular")

    def solve(rhs: np.ndarray) -> np.ndarray:
        sol, info = _LAPACK.dgetrs(lu, piv, rhs, trans=1)
        if info != 0 or not np.isfinite(sol).all():
            raise SolverError("KKT solve is not finite")
        return sol

    return solve


def _refine(
    mat: np.ndarray, rhs: np.ndarray, n: int, sol: np.ndarray, correct: Callable[[np.ndarray], np.ndarray]
) -> Tuple[np.ndarray, float]:
    """Iterative refinement of sol, an approximate solution of mat sol = rhs
    whose first n rows are stationarity and the rest constraints; returns
    (sol, constraint error).

    Adds correct(residual), at most 8 times, while the relative residual is
    at least EXACT and falls. Stationarity rows are measured against |rhs[:n]| and constraint
    rows against |rhs[n:]|, so a large linear cost does not loosen the
    constraints. The constraint error, |residual[n:]|max relative to
    1 + |rhs[n:]|max, certifies that the constraint rows are consistent.
    """
    top = 1.0 + float(np.abs(rhs[:n]).max())
    bottom = 1.0 + float(np.abs(rhs[n:]).max(initial=0.0))

    def errors(z: np.ndarray) -> Tuple[np.ndarray, float, float]:
        res = rhs - mat @ z
        mag = np.abs(res)
        cons = float(mag[n:].max(initial=0.0)) / bottom
        return res, max(float(mag[:n].max()) / top, cons), cons

    res, err, cons = errors(sol)
    for _ in range(8):
        if err < EXACT:
            break
        new_sol = sol + correct(res)
        new_res, new_err, new_cons = errors(new_sol)
        if not new_err < err:
            break
        sol, res, err, cons = new_sol, new_res, new_err, new_cons
    return sol, cons


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


class _WorkingSet:
    """The dual method's working rows W of S, in the order they entered, and
    Goldfarb and Idnani's factor of them: an upper-triangular R with
    R^T R = S_WW. A row enters as one new column of R; a row that leaves
    takes its column out, and one QR factorisation of the trailing block
    makes R triangular again."""

    def __init__(self, s_mat: np.ndarray, dep_tol: np.ndarray, seed: List[int]):
        """Start from the rows of `seed` in order, leaving out each row whose
        Schur complement against the rows before it is at most dep_tol."""
        self.s_mat = s_mat
        self.dep_tol = dep_tol
        self.rows: List[int] = []
        self._r = np.zeros(s_mat.shape, order="F")
        if seed:
            # one Cholesky factorisation when no seed row depends on earlier
            # ones (its squared pivots are the Schur complements), else row by row
            r, info = _LAPACK.dpotrf(s_mat[seed][:, seed], clean=1)
            if info == 0 and (r.diagonal() ** 2 > dep_tol[seed]).all():
                self._r[: len(seed), : len(seed)] = r
                self.rows = list(seed)
                return
        for p in seed:
            _, z, col = self.response(p)
            if z > dep_tol[p]:
                self.add(p, col, z)

    def _triangular(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        w = len(self.rows)
        sol, info = _LAPACK.dtrtrs(self._r[:w, :w], rhs, trans=trans)
        if info != 0:
            raise SolverError(f"working-set factor is singular ({w} rows)")
        return sol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S_WW^{-1} rhs."""
        w = len(self.rows)
        if not w:
            return np.zeros(0)
        sol, info = _LAPACK.dpotrs(self._r[:w, :w], rhs)
        if info != 0:
            raise SolverError(f"working-set factor is singular ({w} rows)")
        return sol

    def response(self, p: int) -> Tuple[np.ndarray, float, np.ndarray]:
        """c = S_WW^{-1} S_Wp, so that keeping the working rows tight moves
        mu_W by -c per unit of mu_p; the Schur complement z, the decrease of
        row p's slack per unit of mu_p; and R^{-T} S_Wp, the new column of R
        should p enter."""
        if not self.rows:
            return np.zeros(0), float(self.s_mat[p, p]), np.zeros(0)
        col = self._triangular(self.s_mat[self.rows, p], 1)
        return self._triangular(col, 0), float(self.s_mat[p, p] - col @ col), col

    def add(self, p: int, col: np.ndarray, z: float) -> None:
        w = len(self.rows)
        self._r[:w, w] = col
        self._r[w, w] = math.sqrt(z)
        self.rows.append(p)

    def remove(self, k: int) -> None:
        w = len(self.rows)
        r = self._r
        r[:w, k : w - 1] = r[:w, k + 1 : w]
        r[:w, w - 1] = 0.0
        if k < w - 1:
            # the block is upper Hessenberg, so its Householder vectors
            # occupy only the subdiagonal
            qr, *_ = _LAPACK.dgeqrf(r[k:w, k : w - 1])
            sub = np.arange(w - 1 - k)
            qr[sub + 1, sub] = 0.0
            r[k:w, k : w - 1] = qr
        del self.rows[k]

    def multipliers(self, s0: np.ndarray) -> np.ndarray:
        """mu with the working rows tight (S_WW mu_W = s0_W) and 0 elsewhere."""
        mu = np.zeros(s0.shape[0])
        mu[self.rows] = self.solve(s0[self.rows])
        return mu


def _dual_active_set(
    s_mat: np.ndarray, s0: np.ndarray, feas_tol: float, warm: Sequence[int]
) -> Tuple[_WorkingSet, int]:
    """Goldfarb-Idnani on the inequality multipliers mu; returns (working set, steps).

    The slacks are s(mu) = s0 - S mu, positive where a row is violated.
    Every iterate keeps the working rows tight (S_WW mu_W = s0_W) with
    mu_W >= 0 and mu = 0 elsewhere. A row is independent of the working set
    when its Schur complement z exceeds 1e-10 S_pp (plus a floor of 1e-15
    of S's largest diagonal entry).
    """
    mi = s0.shape[0]
    diag = s_mat.diagonal()
    working = _WorkingSet(s_mat, 1e-10 * diag + 1e-15 * float(diag.max()), sorted(set(warm)))
    steps = 0
    mu = working.multipliers(s0)
    while working.rows and mu[working.rows].min() < 0.0:
        working.remove(int(np.argmin(mu[working.rows])))
        mu = working.multipliers(s0)
        steps += 1

    max_steps = 3 * (mi + 1)
    while True:
        slack = s0 - s_mat @ mu
        candidates = slack.copy()
        candidates[working.rows] = -np.inf
        while True:  # the most violated row whose slack is not met
            p = int(candidates.argmax())
            if candidates[p] <= feas_tol:
                return working, steps
            # a slack within rounding of the terms it is formed from is met:
            # chasing it only swaps dependent rows in and out of the working set
            if slack[p] > feas_tol + 1e-13 * (abs(s0[p]) + float(np.abs(s_mat[p]) @ mu)):
                break
            candidates[p] = -np.inf
        slack_p = float(slack[p])
        while True:
            c, z, col = working.response(p)
            w = len(working.rows)
            full = z > working.dep_tol[p]
            # step lengths: row p becomes tight, or a leaving row's multiplier
            # reaches zero (which wins a tie)
            t, k = (slack_p / z, w) if full else (np.inf, w)
            if w:
                mu_w = mu[working.rows]
                leave = c > 1e-12 * max(1.0, float(np.abs(c).max()))
                if leave.any():
                    ratios = np.divide(mu_w, c, out=np.full(w, np.inf), where=leave)
                    j = int(ratios.argmin())
                    if ratios[j] <= t:
                        t, k = float(ratios[j]), j
            if k == w and not full:
                raise QPInfeasibleError(
                    f"inequality row {p} is violated and depends on rows {sorted(working.rows)}"
                )
            steps += 1
            if steps > max_steps:
                raise SolverError(f"dual active set did not settle in {max_steps} steps ({mi} inequalities)")
            if w:
                mu[working.rows] = mu_w - t * c
            mu[p] += t
            if k == w:
                working.add(p, col, z)
                break
            mu[working.rows[k]] = 0.0  # its multiplier reached zero: the row leaves
            working.remove(k)
            slack_p -= t * z


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
    rows_in, rhs_in = np.concatenate([a_in, g_in]), np.concatenate([b_in, h_in])
    if not all(np.isfinite(arr).all() for arr in (p_in, q_in, rows_in, rhs_in)):
        for arr, label in ((p_in, "P"), (q_in, "q"), (a_in, "A"), (b_in, "b"), (g_in, "G"), (h_in, "h")):
            if not np.isfinite(arr).all():
                raise SolverError(f"non-finite values in QP data ({label})")

    # diagonal variable scaling: x = d * x_scaled
    diag = np.abs(np.diag(p_in))
    d = 1.0 / np.sqrt(np.maximum(diag, 1e-6 * (diag.max() if diag.size else 1.0) + 1e-12))
    q_s = q_in * d
    # row equilibration of [A; G]: keeps small constraint rows (e.g. the root
    # acceleration pin) from drowning numerically among large dynamics rows
    rows_s = rows_in * d[None, :]
    row_scale = np.maximum(np.abs(rows_s).max(axis=1, initial=0.0), 1e-12)
    rows_s /= row_scale[:, None]
    rhs_s = rhs_in / row_scale
    a_s, g_s, b_s, h_s = rows_s[:me], rows_s[me:], rhs_s[:me], rhs_s[me:]

    def finish(xs: np.ndarray, nu_s: np.ndarray, mu_s: np.ndarray, iterations: int, active) -> QPSolution:
        x, nu, mu = xs * d, nu_s / row_scale[:me], mu_s / row_scale[me:]
        residual = kkt_residual(p_in, q_in, a_in, b_in, g_in, h_in, x, nu, mu)
        if residual > tol:
            raise SolverError(
                f"KKT residual {residual:.3e} above tolerance ({len(active)} active of {mi} inequalities)"
            )
        return QPSolution(x, nu, mu, iterations, tuple(active), residual)

    # one factorisation of the KKT matrix, assembled with room to border it
    # with the working rows at the end: the equality-only minimiser, then,
    # unless it is feasible, the responses
    nz = n + me
    bordered = np.zeros((nz + mi, nz + mi))
    kkt = bordered[:nz, :nz]
    np.multiply(p_in * d[None, :], d[:, None], out=kkt[:n, :n])
    kkt[:n, n:] = a_s.T
    kkt[n:, :n] = a_s
    lu_solve = _kkt_factor(kkt, n)
    rhs0 = np.concatenate([-q_s, b_s])
    z0, consistency = _refine(kkt, rhs0, n, lu_solve(rhs0), lu_solve)
    if consistency > 1e-7:
        raise QPInfeasibleError("equality constraints are inconsistent")
    x0, nu0 = z0[:n], z0[n:]
    s0 = g_s @ x0 - h_s
    feas_tol = 1e-9 * (1.0 + float(np.abs(h_s).max(initial=0.0)))
    if mi == 0 or s0.max() <= feas_tol:
        return finish(x0, nu0, np.zeros(mi), 1, ())

    # G touches only the columns `support` of x (the contact forces), so the
    # responses to all mi rows are combinations of the responses Y to unit
    # forces on those columns: a multiplier vector mu moves (x, nu) by
    # Y G_J^T mu, and S = G_J [K^-1]_JJ G_J^T
    support = np.flatnonzero(np.abs(g_s).max(axis=0))
    unit = np.zeros((nz, support.shape[0]), order="F")
    unit[support, np.arange(support.shape[0])] = -1.0
    y_mat = lu_solve(unit)
    g_j = g_s[:, support]
    s_mat = -g_j @ y_mat[support] @ g_j.T
    s_mat = 0.5 * (s_mat + s_mat.T)
    seed = np.asarray(warm_start if warm_start is not None else (), dtype=int)
    warm = seed.tolist() if seed.size and seed.min() >= 0 and seed.max() < mi else []
    working, steps = _dual_active_set(s_mat, s0, feas_tol, warm)

    # final solve with the working rows as equalities, by block elimination
    # on the one factorisation: S_WW mu_W = s0_W and z = z0 + Y G_J^T mu;
    # each correction against the true bordered matrix eliminates the same way
    rows = working.rows
    g_w, y_w = g_s[rows], y_mat @ g_j[rows].T
    w = len(rows)
    bordered = bordered[: nz + w, : nz + w]
    bordered[:n, nz:] = g_w.T
    bordered[nz:, :n] = g_w

    def correct(res: np.ndarray) -> np.ndarray:
        w0 = lu_solve(res[:nz])
        d_mu = working.solve(g_w @ w0[:n] - res[nz:])
        return np.concatenate([w0 + y_w @ d_mu, d_mu])

    mu_w = working.solve(s0[rows])
    start = np.concatenate([z0 + y_w @ mu_w, mu_w])
    zb, _ = _refine(bordered, np.concatenate([rhs0, h_s[rows]]), n, start, correct)
    mu_s = np.zeros(mi)
    mu_s[rows] = np.maximum(zb[nz:], 0.0)
    return finish(zb[:n], zb[n:nz], mu_s, 1 + steps, sorted(rows))
