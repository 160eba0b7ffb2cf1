import warnings

import numpy as np
import pytest
from oracles import (
    cross3,
    exp_so3_scalar,
    exp_to_quat,
    left_jacobian_dot_scalar,
    left_jacobian_scalar,
    log_so3_scalar,
    matrix_to_quat_scalar,
    quat_to_exp_scalar,
    quat_to_matrix_scalar,
    random_rotation,
    skew,
)

from physmotion.rotations import (
    cross_rows,
    exp_so3,
    left_jacobian,
    left_jacobian_dot,
    log_so3,
    matrix_to_quat,
    quat_to_exp,
    quat_to_matrix,
)


def test_exp_log_roundtrip(rng):
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0, 3)
        r = exp_so3(v)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)
        v2 = log_so3(r)
        assert np.allclose(exp_so3(v2), r, atol=1e-10)


def test_log_small_and_large_angles():
    assert np.allclose(log_so3(np.eye(3)), 0.0)
    v = np.array([np.pi - 1e-7, 0.0, 0.0])
    assert np.allclose(np.abs(log_so3(exp_so3(v))), np.abs(v), atol=1e-6)


def test_quat_matrix_roundtrip(rng):
    for _ in range(200):
        r = random_rotation(rng)
        q = matrix_to_quat(r)
        assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert np.allclose(quat_to_matrix(q), r, atol=1e-12)


def test_exp_quat_consistency(rng):
    for _ in range(100):
        v = rng.normal(size=3)
        assert np.allclose(quat_to_matrix(exp_to_quat(v)), exp_so3(v), atol=1e-12)


def test_cross_rows_is_np_cross_bit_for_bit(rng):
    a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3)) * 1e3
    assert np.array_equal(cross_rows(a, b), np.cross(a, b))
    assert np.array_equal(cross_rows(a.reshape(5, 10, 3), b[0]), np.cross(a, b[0]).reshape(5, 10, 3))
    for x, y in zip(a[:5], b[:5]):
        assert np.array_equal(cross_rows(x, y), cross3(x, y))
        assert np.allclose(skew(x) @ y, cross_rows(x, y))


def test_left_jacobian_finite_difference(rng):
    # d/dt exp(v) = skew(J_l(v) vdot) exp(v)
    eps = 1e-7
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(0, 2.5)
        vd = rng.normal(size=3)
        r0, r1 = exp_so3(v), exp_so3(v + eps * vd)
        omega_fd = (r1 - r0) @ r0.T / eps
        omega = left_jacobian(v) @ vd
        assert np.allclose(omega_fd, skew(omega), atol=5e-6)


def test_left_jacobian_dot_finite_difference(rng):
    eps = 1e-7
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(0, 2.5)
        vd = rng.normal(size=3)
        fd = (left_jacobian(v + eps * vd) - left_jacobian(v)) / eps
        assert np.allclose(fd, left_jacobian_dot(v, vd), atol=5e-6)


def test_left_jacobian_small_angle_branch(rng):
    vd = rng.normal(size=3)
    for scale in (0.0, 1e-10, 1e-6, 1e-4):
        v = np.array([scale, 0.0, 0.0])
        jl = left_jacobian(v)
        assert np.allclose(jl, np.eye(3) + 0.5 * skew(v), atol=1e-7)
        jd = left_jacobian_dot(v, vd)
        assert np.all(np.isfinite(jd))


def test_exp_so3_stack_equals_the_scalar_formula_bit_for_bit(rng):
    v = rng.normal(size=(4000, 3)) * rng.uniform(0.0, 7.0, size=(4000, 1))
    v[:40] *= 1e-9  # below the 1e-8 series threshold
    v[40:80] *= 1e-12
    v[80:120] = v[80:120] / np.linalg.norm(v[80:120], axis=1, keepdims=True) * 1e-8
    v[120] = 0.0
    v[121] = [0.0, -0.0, 1e-300]
    expected = np.array([exp_so3_scalar(x) for x in v])
    got = exp_so3(v)
    assert got.shape == (4000, 3, 3)
    assert np.array_equal(got, expected)
    # any leading shape, and one vector gives one matrix
    assert np.array_equal(exp_so3(v.reshape(40, 100, 3)), expected.reshape(40, 100, 3, 3))
    for x, e in zip(v[::97], expected[::97]):
        one = exp_so3(x)
        assert one.shape == (3, 3) and np.array_equal(one, e)
    assert np.array_equal(exp_so3(np.zeros(3)), np.eye(3))


def conversion_test_inputs(rng, n=12000):
    """Quaternions and matrices for the conversions: random ones, w = 0,
    |xyz| below 1e-8 and zero, negative w, unnormalised; 180-degree turns,
    the identity, a trace-0 permutation, near-identity and non-orthonormal
    matrices."""
    q = rng.normal(size=(n, 4)) * rng.uniform(0.1, 10.0, size=(n, 1))
    q[:2000, 0] = 0.0
    q[2000:4000, 1:] *= rng.uniform(0.0, 2e-8, size=(2000, 1)) / np.linalg.norm(q[2000:4000, 1:], axis=1, keepdims=True)
    q[4000:4010, 1:] = 0.0
    q[4010:4020, 0] = 0.0
    q[4010:4020, 1:] *= 1e-10  # w = 0 and |xyz| below 1e-8
    axes = rng.normal(size=(1000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    mats = np.concatenate(
        [
            np.array([quat_to_matrix_scalar(x) for x in q]),
            2.0 * axes[:, :, None] * axes[:, None, :] - np.eye(3),  # 180-degree turns
            [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])],
            [np.eye(3), [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
            exp_so3(rng.normal(size=(500, 3)) * 1e-9),
            exp_so3(rng.normal(size=(500, 3))) + rng.normal(size=(500, 3, 3)) * 1e-3,
        ]
    )
    return q, mats


def test_quaternion_conversions_of_a_stack_equal_the_scalar_formulas_bit_for_bit(rng):
    q, mats = conversion_test_inputs(rng)
    # every Shepperd branch: positive trace, and each axis's largest diagonal
    trace = np.trace(mats, axis1=1, axis2=2)
    assert (trace > 0.0).sum() > 1000
    assert np.bincount(np.argmax(np.diagonal(mats, axis1=1, axis2=2)[trace <= 0.0], axis=1)).min() > 1000
    quats = matrix_to_quat(mats)
    assert quats.shape == (len(mats), 4)
    assert np.array_equal(quats, np.array([matrix_to_quat_scalar(m) for m in mats]))
    assert np.array_equal(log_so3(mats), np.array([log_so3_scalar(m) for m in mats]))
    assert np.array_equal(quat_to_matrix(q), np.array([quat_to_matrix_scalar(x) for x in q]))
    stack = np.concatenate([q, -q[:2000], quats])
    assert np.array_equal(quat_to_exp(stack), np.array([quat_to_exp_scalar(x) for x in stack]))
    # one input gives today's shape and its row's bits, and any leading shape works
    for k in list(range(0, len(mats), 397)) + [len(q), len(mats) - 1000]:
        assert np.array_equal(matrix_to_quat(mats[k]), quats[k])
        assert np.array_equal(log_so3(mats[k]), log_so3_scalar(mats[k]))
        assert np.array_equal(quat_to_matrix(stack[k]), quat_to_matrix_scalar(stack[k]))
        assert np.array_equal(quat_to_exp(stack[k]), quat_to_exp_scalar(stack[k]))
    assert matrix_to_quat(np.eye(3)).shape == (4,) and quat_to_exp(np.array([1.0, 0, 0, 0])).shape == (3,)
    assert np.array_equal(matrix_to_quat(mats[:12000].reshape(40, 300, 3, 3)), quats[:12000].reshape(40, 300, 4))
    assert np.array_equal(quat_to_matrix(q.reshape(30, 400, 4)), quat_to_matrix(q).reshape(30, 400, 3, 3))


def jacobian_test_vectors(rng, n=3000):
    """Random vectors on both sides of both series thresholds, and zero."""
    v = rng.normal(size=(n, 3)) * rng.uniform(0.0, 7.0, size=(n, 1))
    v[:40] *= 1e-9  # below 1e-8: left_jacobian's series
    v[40:80] *= 1e-5  # below 1e-4: left_jacobian_dot's series
    v[80:120] = v[80:120] / np.linalg.norm(v[80:120], axis=1, keepdims=True) * 1e-8
    v[120:160] = v[120:160] / np.linalg.norm(v[120:160], axis=1, keepdims=True) * 1e-4
    v[160] = 0.0
    v[161] = [0.0, -0.0, 1e-300]
    return v, rng.normal(size=(n, 3)) * rng.uniform(0.0, 5.0, size=(n, 1))


def test_left_jacobians_of_a_stack_equal_the_scalar_formulas_bit_for_bit(rng):
    v, vd = jacobian_test_vectors(rng)
    jl = left_jacobian(v)
    jd = left_jacobian_dot(v, vd)
    assert jl.shape == jd.shape == (len(v), 3, 3)
    assert np.array_equal(jl, np.array([left_jacobian_scalar(x) for x in v]))
    assert np.array_equal(jd, np.array([left_jacobian_dot_scalar(x, y) for x, y in zip(v, vd)]))
    # one vector gives one matrix with the bits of its row in the stack, in
    # both series branches and at v = 0
    for k in list(range(0, 200, 7)) + [160, 161, 999]:
        one, one_dot = left_jacobian(v[k]), left_jacobian_dot(v[k], vd[k])
        assert one.shape == one_dot.shape == (3, 3)
        assert np.array_equal(one, jl[k]) and np.array_equal(one_dot, jd[k])
    # any leading shape
    assert np.array_equal(left_jacobian(v.reshape(30, 100, 3)), jl.reshape(30, 100, 3, 3))
    assert np.array_equal(
        left_jacobian_dot(v.reshape(30, 100, 3), vd.reshape(30, 100, 3)), jd.reshape(30, 100, 3, 3)
    )
    assert np.array_equal(left_jacobian(np.zeros(3)), np.eye(3))


def test_left_jacobian_dot_past_the_float_range_gives_inf_not_overflow_error(rng):
    # a diverging refinement reaches such angles: t**5 overflows, which a
    # numpy scalar turns into inf (the op then aborts as a SolverError) and a
    # Python float into OverflowError, which is not a PhysmotionError
    v = rng.normal(size=(6, 3))
    v *= 1e70 / np.linalg.norm(v, axis=1, keepdims=True)
    v[3] = [1e-5, 0.0, 0.0]  # a small joint in the same stack
    vd = rng.normal(size=(6, 3))
    with pytest.warns(RuntimeWarning, match="overflow"):
        stacked = left_jacobian_dot(v, vd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = [left_jacobian_dot(x, y) for x, y in zip(v, vd)]
        scalar = [left_jacobian_dot_scalar(x, y) for x, y in zip(v, vd)]
        # |v| = 1e170: t**2 overflows too, and every entry is nan
        huge = v * 1e100
        jl, jl_dot = left_jacobian(huge), left_jacobian_dot(huge, vd)
        jl_rows = [left_jacobian(x) for x in huge]
        jl_dot_rows = [left_jacobian_dot_scalar(x, y) for x, y in zip(huge, vd)]
    for got, one, expected in zip(stacked, rows, scalar):
        assert np.array_equal(got, one, equal_nan=True)
        assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(jl, np.array(jl_rows), equal_nan=True)
    assert np.array_equal(jl_dot, np.array(jl_dot_rows), equal_nan=True)
    assert np.isnan(jl[0]).all() and np.isfinite(jl[3]).all()
    assert np.isfinite(stacked[3]).all()
