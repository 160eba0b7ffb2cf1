import itertools
import warnings

import numpy as np
import pytest

import physmotion.qp as qp_module
from physmotion.errors import QPInfeasibleError, SolverError
from physmotion.qp import kkt_residual, solve_qp


def brute_force_qp(p, q, a, b, g, h):
    """Exhaustive active-set enumeration oracle for tiny strictly convex QPs."""
    n = len(q)
    me = a.shape[0]
    mi = g.shape[0]
    best = None
    for k in range(mi + 1):
        for combo in itertools.combinations(range(mi), k):
            e = np.vstack([a, g[list(combo)]]) if combo else a
            rhs = np.concatenate([b, h[list(combo)]]) if combo else b
            m = e.shape[0]
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = p
            kkt[:n, n:] = e.T
            kkt[n:, :n] = e
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-q, rhs]))
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mult = sol[n + me :]
            if (g @ x - h > 1e-9).any():
                continue
            if (mult < -1e-9).any():
                continue
            val = 0.5 * x @ p @ x + q @ x
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
    return best[1]


def random_convex_qp(rng, n=6, me=2, mi=4):
    m = rng.normal(size=(n, n))
    p = m @ m.T + np.eye(n)
    q = rng.normal(size=n)
    a = rng.normal(size=(me, n))
    b = rng.normal(size=me)
    g = rng.normal(size=(mi, n))
    # keep the problem feasible: offset h by a known feasible point
    x_feas = np.linalg.lstsq(a, b, rcond=None)[0]
    h = g @ x_feas + rng.uniform(0.1, 1.0, size=mi)
    return p, q, a, b, g, h


# rows name -> (A, b, the minimiser of 0.5 |x|^2 + q.x subject to A x = b for
# q = (c, c, c), a row G x <= h that it violates, the minimiser with that row)
CONSISTENT_EQUALITIES = {
    "independent-rows": (
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([1.0, -2.0]), np.array([0.5, 0.5, -2.0]),
        np.array([[1.0, 0.0, 0.0]]), np.array([0.25]), np.array([0.25, 0.75, -2.0]),
    ),
    "repeated-row": (
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([1.0, 1.0, -2.0]),
        np.array([1.0, -1.0, -1.0]), np.array([[0.0, 1.0, 0.0]]), np.array([-1.5]), np.array([1.0, -1.5, -0.5]),
    ),
}


class TestSolveQP:
    def test_unconstrained_matches_linear_solve(self, rng):
        m = rng.normal(size=(5, 5))
        p = m @ m.T + np.eye(5)
        q = rng.normal(size=5)
        sol = solve_qp(p, q)
        assert np.abs(sol.x - np.linalg.solve(p, -q)).max() < 1e-9

    def test_equality_only(self, rng):
        p, q, a, b, _, _ = random_convex_qp(rng)
        sol = solve_qp(p, q, a, b)
        assert np.abs(a @ sol.x - b).max() < 1e-10
        # stationarity on the constraint manifold
        grad = p @ sol.x + q + a.T @ sol.eq_multipliers
        assert np.abs(grad).max() < 1e-8

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(40):
            p, q, a, b, g, h = random_convex_qp(rng)
            sol = solve_qp(p, q, a, b, g, h)
            expected = brute_force_qp(p, q, a, b, g, h)
            assert np.abs(sol.x - expected).max() < 1e-6

    def test_kkt_residual_below_tolerance(self, rng):
        for _ in range(40):
            p, q, a, b, g, h = random_convex_qp(rng, n=8, me=3, mi=6)
            sol = solve_qp(p, q, a, b, g, h, tol=1e-8)
            assert sol.kkt_residual <= 1e-8
            recomputed = kkt_residual(
                p, q, a, b, g, h, sol.x, sol.eq_multipliers, sol.ineq_multipliers
            )
            assert recomputed <= 1e-8

    def test_active_constraints_held_exactly(self, rng):
        # force activity by putting the unconstrained optimum outside the box
        p = np.eye(2)
        q = np.array([-10.0, 0.0])
        g = np.array([[1.0, 0.0]])
        h = np.array([1.0])
        sol = solve_qp(p, q, None, None, g, h)
        assert abs(sol.x[0] - 1.0) < 1e-9
        assert abs(sol.x[1]) < 1e-9
        assert sol.ineq_multipliers[0] > 0

    @pytest.mark.parametrize("cost", [0.0, 1e10, 1e12])
    def test_inconsistent_equalities_raise(self, cost):
        p = np.eye(3)
        q = np.full(3, cost)
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = np.array([0.0, 1.0])
        with pytest.raises(QPInfeasibleError):
            solve_qp(p, q, a, b)

    @pytest.mark.parametrize("binding", [False, True], ids=["no-inequality", "binding-inequality"])
    @pytest.mark.parametrize("rows", sorted(CONSISTENT_EQUALITIES))
    @pytest.mark.parametrize("cost", [0.0, 1e10, 1e12])
    def test_large_linear_cost_keeps_consistent_equalities(self, cost, rows, binding):
        # |q| / |b| = cost: the consistency certificate judges A x = b on |b|
        # alone, so a large linear cost does not fail a consistent system;
        # a repeated row makes the KKT matrix singular and solves the same
        a, b, x_eq, g, h, x_bound = CONSISTENT_EQUALITIES[rows]
        sol = solve_qp(np.eye(3), np.full(3, cost), a, b, *((g, h) if binding else (None, None)))
        assert np.abs(a @ sol.x - b).max() <= 1e-12
        assert np.abs(sol.x - (x_bound if binding else x_eq)).max() <= 1e-12
        assert sol.active_set == ((0,) if binding else ())
        assert sol.kkt_residual <= 1e-8

    def test_deterministic(self, rng):
        p, q, a, b, g, h = random_convex_qp(rng, n=8, me=3, mi=6)
        s1 = solve_qp(p, q, a, b, g, h)
        s2 = solve_qp(p, q, a, b, g, h)
        assert np.array_equal(s1.x, s2.x)

    def test_psd_hessian_strictly_convex_on_nullspace(self, rng):
        # P singular along a direction that the equality removes
        p = np.diag([1.0, 0.0])
        q = np.array([0.0, -1.0])
        a = np.array([[0.0, 1.0]])
        b = np.array([0.5])
        sol = solve_qp(p, q, a, b)
        assert np.abs(sol.x - np.array([0.0, 0.5])).max() < 1e-9

    def test_redundant_active_rows(self, rng):
        # duplicated inequality rows active at the optimum must not break it
        p = np.eye(2)
        q = np.array([-4.0, 0.0])
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        h = np.array([1.0, 1.0, 0.5])
        sol = solve_qp(p, q, None, None, g, h)
        assert abs(sol.x[0] - 1.0) < 1e-8


def qps_with_active_inequalities(rng, count=8):
    out = []
    while len(out) < count:
        prob = random_convex_qp(rng, n=8, me=3, mi=6)
        cold = solve_qp(*prob)
        if cold.active_set:
            out.append((prob, cold))
    return out


class TestWarmStart:
    def test_optimal_seed_returns_cold_solution(self, rng):
        for prob, cold in qps_with_active_inequalities(rng):
            warm = solve_qp(*prob, warm_start=cold.active_set)
            assert warm.iterations == 1  # the seed is optimal: no dual step
            assert np.abs(warm.x - cold.x).max() <= 1e-8 * (1.0 + np.abs(cold.x).max())
            assert warm.kkt_residual <= 1e-8

    def test_out_of_range_seed_is_ignored(self, rng):
        for prob, cold in qps_with_active_inequalities(rng):
            mi = prob[4].shape[0]
            for seed in ((mi,), (-1,), (0, mi + 3)):
                sol = solve_qp(*prob, warm_start=seed)
                assert np.array_equal(sol.x, cold.x)
                assert sol.iterations == cold.iterations

    def test_stale_or_infeasible_seed_gives_the_cold_solution(self, rng):
        for prob, cold in qps_with_active_inequalities(rng):
            mi = prob[4].shape[0]
            inactive = tuple(i for i in range(mi) if i not in cold.active_set)
            for seed in (inactive, tuple(range(mi))):
                sol = solve_qp(*prob, warm_start=seed)
                assert np.abs(sol.x - cold.x).max() <= 1e-8 * (1.0 + np.abs(cold.x).max())
                assert sol.kkt_residual <= 1e-8


def apex_qp(rng, mu=0.6):
    """A QP whose optimum puts one contact force at the apex of its friction
    pyramid: the 4 facet rows and the normal row all hold with equality at
    lambda = 0, with positive multipliers, though only 3 of the 5 rows are
    independent. x = (v (3,), lambda (3,)), the normal along y."""
    n = 6
    m = rng.normal(size=(n, n))
    p = m @ m.T + np.eye(n)
    normal, t1, t2 = np.eye(3)[1], np.eye(3)[0], np.eye(3)[2]
    g = np.zeros((5, n))
    for f, d in enumerate((t1, t2, -t1, -t2)):
        g[f, 3:] = d - mu * normal
    g[4, 3:] = -normal
    h = np.zeros(5)
    a = np.zeros((1, n))
    a[0, :3] = rng.normal(size=3)
    a[0, 3] = 0.5  # the equality couples the force to the other variables
    x_opt = np.concatenate([rng.normal(size=3), np.zeros(3)])
    b = a @ x_opt
    nu = rng.normal(size=1)
    mult = rng.uniform(0.5, 2.0, size=5)
    q = -(p @ x_opt + a.T @ nu + g.T @ mult)
    return (p, q, a, b, g, h), x_opt


def raise_singular(a):
    raise np.linalg.LinAlgError("Singular matrix")


def singular_factor(a):
    """An LU factor with zero pivots: solving with it divides by zero."""
    return np.zeros_like(a), np.arange(len(a), dtype=np.int32)


class TestDualActiveSet:
    def test_pyramid_apex_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            prob, x_opt = apex_qp(rng)
            expected = brute_force_qp(*prob)
            assert np.abs(expected - x_opt).max() < 1e-9
            for seed in (None, tuple(range(5)), (0, 2), (4,)):
                sol = solve_qp(*prob, warm_start=seed)
                assert np.abs(sol.x - expected).max() < 1e-9
                assert sol.kkt_residual <= 1e-8
                # dependent rows never enter the working set together
                assert len(sol.active_set) <= 3

    @pytest.mark.parametrize("gap", [5e-9, 1.5e-8])
    def test_a_small_infeasibility_between_dependent_rows_raises(self, gap):
        # x <= 0 and x >= gap, with the cost pulling x up: the second row
        # depends on the first, which cannot leave, however small the gap
        g = np.array([[1.0], [-1.0]])
        h = np.array([0.0, -gap])
        with pytest.raises(QPInfeasibleError, match="row 1 is violated and depends on rows"):
            solve_qp(np.eye(1), np.array([-10.0]), None, None, g, h)

    def test_infeasible_inequalities_raise(self):
        # x <= 0 and x >= 1: the second row depends on the first, and no
        # working row can leave to make room for it
        g = np.array([[1.0], [-1.0]])
        h = np.array([0.0, -1.0])
        with pytest.raises(QPInfeasibleError):
            solve_qp(np.eye(1), np.zeros(1), None, None, g, h)
        # the same pair on one coordinate of a constrained problem
        g2 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(QPInfeasibleError):
            solve_qp(np.eye(3), np.ones(3), np.array([[0.0, 1.0, 1.0]]), np.array([2.0]), g2, h)

    @pytest.mark.parametrize("factor", [raise_singular, singular_factor])
    def test_factorisation_failure_is_a_solver_error(self, rng, monkeypatch, factor):
        prob = qps_with_active_inequalities(rng, count=1)[0][0]
        monkeypatch.setattr(qp_module, "lu_factor", factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError):
                solve_qp(*prob)


def pyramid_qp(rng, contacts=2, facets=4, apex=False):
    """A multi-contact friction-pyramid QP over x = (v (3,), lambda_c (3,) per
    contact). Each contact has `facets` facet rows d_f . lambda <= mu n . lambda
    and the unilateral row -n . lambda <= 0, which the facets imply: its 5 rows
    span 3 force components, so S is singular. One equality couples v and the
    forces. With apex, the optimum puts contact 0's force at its apex, where
    all 5 of its rows hold with positive multipliers."""
    n = 3 + 3 * contacts
    m = rng.normal(size=(n, n))
    p = m @ m.T + np.eye(n)
    g = np.zeros((contacts * (facets + 1), n))
    for c in range(contacts):
        normal = np.eye(3)[1] + rng.normal(0.0, 0.3, 3)
        normal /= np.linalg.norm(normal)
        t1 = np.cross(normal, rng.normal(size=3))
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        mu = rng.uniform(0.3, 1.0)
        cols = slice(3 + 3 * c, 6 + 3 * c)
        for f in range(facets):
            ang = 2.0 * np.pi * f / facets
            g[c * (facets + 1) + f, cols] = np.cos(ang) * t1 + np.sin(ang) * t2 - mu * normal
        g[c * (facets + 1) + facets, cols] = -normal
    h = np.zeros(len(g))
    a = rng.normal(size=(1, n))
    if not apex:
        x_in = np.concatenate([rng.normal(size=3), np.tile([0.0, 1.0, 0.0], contacts)])
        return (p, rng.normal(size=n) * 5.0, a, a @ x_in, g, h)
    x_opt = np.zeros(n)
    x_opt[:3] = rng.normal(size=3)
    for c in range(1, contacts):  # the other forces strictly inside their pyramids
        normal = -g[c * (facets + 1) + facets, 3 + 3 * c : 6 + 3 * c]
        x_opt[3 + 3 * c : 6 + 3 * c] = rng.uniform(0.5, 1.5) * normal
    mult = np.zeros(len(g))
    mult[: facets + 1] = rng.uniform(0.5, 2.0, size=facets + 1)
    nu = rng.normal(size=1)
    q = -(p @ x_opt + a.T @ nu + g.T @ mult)
    return (p, q, a, a @ x_opt, g, h)


class TestFactorisationOncePerQP:
    def test_one_lu_factor_per_inequality_active_solve(self, rng, monkeypatch):
        calls = []
        original = qp_module.lu_factor

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(qp_module, "lu_factor", counted)
        for prob, cold in qps_with_active_inequalities(rng):
            mi = prob[4].shape[0]
            stale = tuple(i for i in range(mi) if i not in cold.active_set)
            for seed in (None, cold.active_set, stale):
                del calls[:]
                sol = solve_qp(*prob, warm_start=seed)
                assert sol.active_set
                assert len(calls) == 1
        for apex in (False, True):
            prob = pyramid_qp(rng, apex=apex)
            del calls[:]
            assert solve_qp(*prob).active_set
            assert len(calls) == 1

    def test_pyramid_problems_match_enumeration_oracle(self, rng):
        # dependent rows in every problem (each unilateral row is implied by
        # its facets), with S singular, and a quarter with a force at its apex
        active = 0
        for k in range(200):
            prob = pyramid_qp(rng, contacts=2, apex=k % 4 == 0)
            expected = brute_force_qp(*prob)
            for seed in (None, tuple(range(0, 10, 2))):
                sol = solve_qp(*prob, warm_start=seed)
                assert np.abs(sol.x - expected).max() < 1e-6
                assert sol.kkt_residual <= 1e-8
            active += bool(sol.active_set)
        assert active >= 100


original_lu_factor = qp_module.lu_factor


def zero_pivot_factor(a):
    """The real lu_factor of an all-zero matrix: getrf reports info > 0,
    which lu_factor raises as LinAlgError."""
    return original_lu_factor(np.zeros_like(a))


def nan_factor(a):
    return np.full_like(a, np.nan), np.arange(len(a), dtype=np.int32)


def overflowing_factor(a):
    """A finite factor with subnormal pivots: its solves overflow to inf."""
    return np.eye(len(a)) * 1e-320, np.arange(len(a), dtype=np.int32)


@pytest.mark.parametrize("factor", [zero_pivot_factor, nan_factor, overflowing_factor])
@pytest.mark.parametrize("strict", [True, False])
def test_lapack_failures_are_solver_errors(rng, monkeypatch, factor, strict):
    prob = qps_with_active_inequalities(rng, count=1)[0][0]
    monkeypatch.setattr(qp_module, "lu_factor", factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "ignore")
        with pytest.raises(SolverError):
            solve_qp(*prob)
