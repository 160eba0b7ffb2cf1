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


def _scalar_powers(t: np.ndarray, *exponents: float) -> np.ndarray:
    """(1 + len(exponents),) + t.shape: t itself, then t**n for each
    exponent, from one conversion.

    Taken one element at a time as a Python float's or numpy scalar's t**n
    is (libm pow), whatever t's shape. numpy's array power is another
    function: it squares exactly, and its vectorised pow differs from libm
    in the last place for other exponents. A gait refinement near divergence
    turns such an ulp into another abort frame, so the rotations keep the
    scalar bits. Python floats are the faster (and a float exponent the
    faster, with the same bits); past the float range they raise
    OverflowError, and the powers are taken again as numpy scalars, which
    give inf (and a RuntimeWarning).
    """
    for scalars in (t.ravel().tolist(), t.ravel()):  # Python floats, then numpy scalars
        try:
            flat = [*scalars, *[x**n for n in exponents for x in scalars]]
            return np.array(flat).reshape((1 + len(exponents),) + t.shape)
        except OverflowError:
            pass


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays, component k being
    a[k+1] b[k+2] - a[k+2] b[k+1]: np.cross's formula and bits, without its
    axis bookkeeping (take gathers the components at a fraction of the cost
    of an index array)."""
    return a.take(_NEXT, axis=-1) * b.take(_PREV, axis=-1) - a.take(_PREV, axis=-1) * b.take(_NEXT, axis=-1)


def matvec_rows(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats @ vecs matrix by matrix, (..., m, 3) and (..., 3) to (..., m):
    each row the same bits as one (m, 3) @ (3,) product."""
    return (mats @ vecs[..., None])[..., 0]


# The Rodrigues coefficients as quotients num / den of t = |v|, each with a
# series c + t^2 / d below its threshold, one row each:
#   row  quotient                                series              below
#   0    sin t / t                               1 - t^2/6           1e-8
#   1    (1 - cos t) / t^2                       1/2 - t^2/24        1e-8
#   2    (t sin t - 2 (1 - cos t)) / t^4         -1/12 + t^2/180     1e-4
#   3    (1 - cos t) / t^2                       1/2 - t^2/24        1e-8
#   4    (t - sin t) / t^3                       1/6 - t^2/120       1e-8
#   5    (t (1 - cos t) - 3 (t - sin t)) / t^5   -1/60 + t^2/1260    1e-4
#   6    (1 - cos t) / t^2                       1/2 - t^2/24        1e-4
#   7    (t - sin t) / t^3                       1/6 - t^2/120       1e-4
# exp_so3 takes rows 0 and 1; exp_and_jacobians takes all eight: rows 0-2
# multiply K (exp, J_l, the derivative's A'), rows 3-5 multiply K^2, and rows
# 6-7, the derivative's A and B, switch to their series at 1e-4 rad.
_NUMERATOR = np.array([0, 1, 3, 1, 2, 4, 1, 2])  # rows of _trig_terms
_DENOMINATOR = np.array([0, 1, 3, 1, 2, 4, 1, 2])  # rows of (t, t^2, t^3, t^4, t^5)
_SERIES_C = np.array([1.0, 0.5, -1.0 / 12.0, 0.5, 1.0 / 6.0, -1.0 / 60.0, 0.5, 1.0 / 6.0])
_SERIES_D = np.array([-6.0, -24.0, 180.0, -24.0, -120.0, 1260.0, -24.0, -120.0])  # signed: c + t^2 / d
_SERIES_BELOW_1E4 = np.array([False, False, True, False, False, True, True, True])


def _coefficients(v: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` (2 or 8) Rodrigues coefficients of the table above
    for a (..., 3) stack v, as (rows, ..., 1, 1).

    Each element gets the operations of the one-vector formulas: the
    quotient, or its series below the row's threshold, where t is replaced
    by 1 so that no division is by zero. A stack with no angle below 1e-4
    rad skips the series."""
    t = vector_norms(v)[..., None]
    derivative = rows > 2
    small = t < (_SMALL_ANGLE_DOT if derivative else _SMALL_ANGLE)
    series = bool(small.any())
    tiny = t < _SMALL_ANGLE if derivative else small
    safe = np.where(tiny, 1.0, t) if series else t
    # (t, t^2, t^3, t^4, t^5), t^n by libm pow; a series element's quotient
    # divides by 1 instead
    powers = _scalar_powers(t, *(2.0, 3.0, 4.0, 5.0)[: rows // 2])
    trig = _trig_terms(safe, derivative)
    lead = (slice(None),) + (None,) * t.ndim
    if rows == 2:
        num, den = trig, powers
    else:
        num, den = trig.take(_NUMERATOR, axis=0), powers.take(_DENOMINATOR, axis=0)
    if not series:
        return num / den
    mask = np.where(_SERIES_BELOW_1E4[:rows][lead], small, tiny)
    below = _SERIES_C[:rows][lead] + powers[1] / _SERIES_D[:rows][lead]
    return np.where(mask, below, num / np.where(mask, 1.0, den))


def _trig_terms(t: np.ndarray, derivative: bool) -> np.ndarray:
    """(sin t, 1 - cos t), and with derivative also t - sin t,
    t sin t - 2 (1 - cos t) and t (1 - cos t) - 3 (t - sin t); (k,) + t.shape."""
    out = np.empty((5 if derivative else 2,) + t.shape)
    np.sin(t, out=out[0])
    np.subtract(1.0, np.cos(t), out=out[1])
    if derivative:
        np.subtract(t, out[0], out=out[2])
        np.subtract(t * out[:2], _TWO_THREE.reshape((2,) + (1,) * t.ndim) * out[1:3], out=out[3:])
    return out


_TWO_THREE = np.array([2.0, 3.0])
_EYE = np.eye(3)


def exp_so3(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula with a series fallback near zero angle.

    Takes one vector (3,) or a stack (..., 3) and returns (3, 3) or
    (..., 3, 3); a stack gives the same bits as one call per vector.
    """
    v = np.asarray(v, dtype=float)
    a, b = _coefficients(v, 2)
    k = skew_rows(v)
    k2 = k @ k
    k2 *= b
    # (a K + I) + b K^2 in place: a stack holds two (..., 3, 3) arrays at a time
    k *= a
    k += _EYE
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

    One pass serves all three: the eight coefficients of the table above
    are one quotient, and the skew matrices of v and vdot one array; each
    entry has the bits of the one-vector formulas (tests/oracles.py).
    """
    v = np.asarray(v, dtype=float)
    vdot = np.asarray(vdot, dtype=float)
    coef = _coefficients(v, 8)
    pair = np.empty((2,) + v.shape)
    pair[0], pair[1] = v, vdot
    k, kd = skew_rows(pair)
    k2 = k @ k
    with_k = coef[:3] * k  # exp's, J_l's and the derivative's A' terms
    with_k2 = coef[3:6] * k2
    rot_jl = with_k[:2] + _EYE
    rot_jl += with_k2[:2]
    # dA/dt = A'(t) * tdot with tdot = (v.vdot)/t; below 1e-4 rad the 1/t is
    # folded into the series, and A and B take theirs
    vvd = v[..., None, :] @ vdot[..., :, None]
    jl_dot = vvd * (with_k[2] + with_k2[2])
    jl_dot += coef[6] * kd
    jl_dot += coef[7] * (kd @ k + k @ kd)
    return rot_jl[0], rot_jl[1], jl_dot
