"""SO(3) helpers: exponential coordinates, quaternions, and their derivatives.

Conventions:
    - Rotation matrices are 3x3, right-handed, det +1.
    - Exponential coordinates v are axis * angle (radians); exp_so3(v) is the
      matrix exponential of the skew matrix of v.
    - Quaternions are (w, x, y, z), unit norm.
    - The left Jacobian J_l(v) maps exponential-coordinate rates to
      world-frame angular velocity of exp_so3(v):
      d/dt exp(v) = skew(J_l(v) @ vdot) @ exp(v).
    - Every conversion takes one input or a stack of them: exp_so3 and
      exp_and_jacobians take (3,) or (..., 3), log_so3 and matrix_to_quat
      (3, 3) or (..., 3, 3), quat_to_matrix and quat_to_exp (4,) or (..., 4).
      A stack gives the same bits as one call per row, so a sequence's root
      rotations convert in one call, and the dynamics take the exponentials,
      left Jacobians and their derivatives of all 24 joints from one
      exp_and_jacobians pass.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_SMALL_ANGLE = 1e-8
# the left Jacobian derivative's series branch: its closed form loses the
# leading terms of A'(t)/t and B'(t)/t to cancellation well above _SMALL_ANGLE
_SMALL_ANGLE_DOT = 1e-4


def _scalar_powers(t: np.ndarray, *exponents: int) -> list:
    """t**n for each exponent, each an array shaped like t.

    Taken one element at a time as a Python float's or numpy scalar's t**n
    is (libm pow), whatever t's shape. numpy's array power is another
    function: it squares exactly, and its vectorised pow differs from libm
    in the last place for other exponents. A gait refinement near divergence
    turns such an ulp into another abort frame, so the rotations keep the
    scalar bits. Python floats are the faster; past the float range they
    raise OverflowError, and the powers are taken again as numpy scalars,
    which give inf (and a RuntimeWarning).
    """
    for scalars in (t.ravel().tolist(), t.ravel()):  # Python floats, then numpy scalars
        try:
            return [np.array([x**n for x in scalars]).reshape(t.shape) for n in exponents]
        except OverflowError:
            pass


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays, component k being
    a[k+1] b[k+2] - a[k+2] b[k+1]: np.cross's formula and bits, without its
    axis bookkeeping."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def matvec_rows(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats @ vecs matrix by matrix, (..., m, 3) and (..., 3) to (..., m):
    each row the same bits as one (m, 3) @ (3,) product."""
    return (mats @ vecs[..., None])[..., 0]


def exp_so3(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula with a series fallback near zero angle.

    Takes one vector (3,) or a stack (..., 3) and returns (3, 3) or
    (..., 3, 3); a stack gives the same bits as one call per vector.
    """
    v = np.asarray(v, dtype=float)
    angle = vector_norms(v)[..., None]
    (square,) = _scalar_powers(angle, 2)
    small = angle < _SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    # sin(t)/t and (1-cos(t))/t^2, to O(t^4) near zero
    a = np.where(small, 1.0 - square / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - square / 24.0, (1.0 - np.cos(safe)) / np.where(small, 1.0, square))
    k = skew_rows(v)
    k2 = k @ k
    k2 *= b
    # (a K + I) + b K^2 in place: a stack holds two (..., 3, 3) arrays at a time
    k *= a
    k += np.eye(3)
    k += k2
    return k


def vector_norms(v: np.ndarray) -> np.ndarray:
    """(..., 1) lengths of the vectors of a (..., k) array, each the same bits
    as np.linalg.norm of that one vector (np.linalg.norm(axis=-1) can differ
    from it in the last place)."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


# where skew() puts (v0, v1, v2) and their negations in its flattened 3x3 matrix
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


def skew_rows(v: np.ndarray) -> np.ndarray:
    """skew() of every vector of a (..., 3) array, (..., 3, 3)."""
    k = np.zeros(v.shape[:-1] + (9,))
    k[..., _SKEW_PLUS] = v
    k[..., _SKEW_MINUS] = -v
    return k.reshape(v.shape[:-1] + (3, 3))


def log_so3(rot: np.ndarray) -> np.ndarray:
    """Exponential coordinates of a rotation matrix, |result| <= pi.

    Computed through the quaternion representation, which stays well behaved
    near angle pi where the direct trace formula degrades.
    """
    return quat_to_exp(matrix_to_quat(rot))


def matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0 (Shepperd's method)."""
    m = np.asarray(rot, dtype=float)
    shape, m = m.shape[:-2], m.reshape(-1, 3, 3)
    trace = np.trace(m, axis1=1, axis2=2)
    diag = np.diagonal(m, axis1=1, axis2=2)
    # square[:, b] = 4 q_b^2 and products[:, b, c] = 4 q_b q_c (b != c) for
    # components b, c of (w, x, y, z). The pivot is w for a positive trace,
    # else the axis of the largest diagonal entry; s = 4 |q_pivot|, and the
    # other components are the pivot's row of products over s.
    pivot = np.where(trace > 0.0, 0, 1 + np.argmax(diag, axis=1))
    square = np.concatenate([trace[:, None] + 1.0, diag - diag[:, _NEXT] - diag[:, _PREV] + 1.0], axis=1)
    products = np.empty((len(m), 4, 4))
    products[:, 0, 1:] = products[:, 1:, 0] = m[:, _PREV, _NEXT] - m[:, _NEXT, _PREV]
    products[:, 1:, 1:] = m + np.swapaxes(m, 1, 2)
    rows = np.arange(len(m))
    s = square[rows, pivot]
    s = np.sqrt(np.where(0.0 > s, 0.0, s)) * 2.0  # max(s, 0.0), nan kept
    q = products[rows, pivot] / s[:, None]
    q[rows, pivot] = 0.25 * s
    q = np.where(q[:, :1] < 0.0, -q, q)
    q /= vector_norms(q)
    return q.reshape(shape + (4,))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (w, x, y, z), normalised first."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q / vector_norms(q), -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def quat_to_exp(q: np.ndarray) -> np.ndarray:
    """Exponential coordinates of a quaternion (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    w, xyz = q[..., :1], q[..., 1:]
    n = vector_norms(xyz)
    small = n < _SMALL_ANGLE
    nonzero_w = w != 0.0
    # theta/sin(theta/2) ~ 2/w for small angles
    small_factor = np.where(nonzero_w, 2.0 / np.where(nonzero_w, w, 1.0), 2.0)
    factor = np.where(small, small_factor, 2.0 * np.arctan2(n, w) / np.where(small, 1.0, n))
    return xyz * factor


def exp_and_jacobians(v: np.ndarray, vdot: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp_so3(v), the left Jacobian J_l(v) and its time derivative for
    vdot = dv/dt, for two (..., 3) stacks, each (..., 3, 3).

    J_l(v) = I + A skew(v) + B skew(v)^2, with A = (1-cos t)/t^2 and
    B = (t-sin t)/t^3 for t = |v|, by their series below 1e-8 rad; it maps
    exponential-coordinate rates to world angular velocity:
    d/dt exp(v) = skew(J_l(v) vdot) exp(v). The dynamics recursions take the
    angular acceleration of a 3-DoF joint as J_l(v) vddot + Jdot_l vdot.

    One pass serves all three: one norm, one set of libm powers, one sin and
    cos and one skew(v) and its square. Each entry has the bits of the
    one-vector formulas (tests/oracles.py).
    """
    v = np.asarray(v, dtype=float)
    vdot = np.asarray(vdot, dtype=float)
    t = vector_norms(v)[..., None]
    t2, t3, t4, t5 = _scalar_powers(t, 2, 3, 4, 5)
    small = t < _SMALL_ANGLE
    safe = np.where(small, 1.0, t)
    sin, one_minus_cos = np.sin(safe), 1.0 - np.cos(safe)
    t_minus_sin = safe - sin
    k = skew_rows(v)
    k2 = k @ k
    eye = np.eye(3)
    # sin(t)/t, A and B to O(t^4) near zero
    a_series, b_series = 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    a_exp = np.where(small, 1.0 - t2 / 6.0, sin / safe)
    a = np.where(small, a_series, one_minus_cos / np.where(small, 1.0, t2))
    b = np.where(small, b_series, t_minus_sin / np.where(small, 1.0, t3))
    rot = a_exp * k + eye + a * k2
    jl = eye + a * k + b * k2

    # dA/dt = A'(t) * tdot with tdot = (v.vdot)/t; below 1e-4 rad the 1/t is
    # folded into the series, and A and B take theirs
    small = t < _SMALL_ANGLE_DOT
    a_bar = np.where(
        small, -1.0 / 12.0 + t2 / 180.0, (safe * sin - 2.0 * one_minus_cos) / np.where(small, 1.0, t4)
    )
    b_bar = np.where(
        small,
        -1.0 / 60.0 + t2 / 1260.0,
        (safe * one_minus_cos - 3.0 * t_minus_sin) / np.where(small, 1.0, t5),
    )
    a = np.where(small, a_series, a)
    b = np.where(small, b_series, b)
    kd = skew_rows(vdot)
    vvd = v[..., None, :] @ vdot[..., :, None]
    jl_dot = vvd * (a_bar * k + b_bar * k2) + a * kd + b * (kd @ k + k @ kd)
    return rot, jl, jl_dot
