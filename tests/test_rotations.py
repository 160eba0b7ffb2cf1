import numpy as np
from oracles import exp_so3_scalar

from physmotion.rotations import (
    cross3,
    exp_so3,
    exp_to_quat,
    left_jacobian,
    left_jacobian_dot,
    log_so3,
    matrix_to_quat,
    quat_to_matrix,
    random_rotation,
    skew,
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


def test_cross3_matches_numpy(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(cross3(a, b), np.cross(a, b))
    assert np.allclose(skew(a) @ b, np.cross(a, b))


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
