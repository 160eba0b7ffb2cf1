"""Per-vector and per-frame reference code for the batched library kernels.

These are the scalar formulations the library used before it worked on
whole stacks; the batched code must reproduce them.
"""

import numpy as np

from physmotion.humanoid import NUM_BODIES, FKResult
from physmotion.rotations import skew


def exp_so3_scalar(v):
    """Rodrigues formula for one vector, series branch below 1e-8 rad."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    k = skew(v)
    if angle < 1e-8:
        a = 1.0 - angle**2 / 6.0
        b = 0.5 - angle**2 / 24.0
    else:
        a = np.sin(angle) / angle
        b = (1.0 - np.cos(angle)) / angle**2
    return np.eye(3) + a * k + b * (k @ k)


def fk_scalar(model, q):
    """Forward kinematics of one q, one joint rotation at a time."""
    q = np.asarray(q, dtype=float)
    rot = np.empty((NUM_BODIES, 3, 3))
    pos = np.empty((NUM_BODIES, 3))
    rot[0] = exp_so3_scalar(q[3:6])
    pos[0] = q[0:3]
    for i in range(1, NUM_BODIES):
        p = model.parents[i]
        pos[i] = pos[p] + rot[p] @ model.bodies[i].offset
        rot[i] = rot[p] @ exp_so3_scalar(q[3 + 3 * i : 6 + 3 * i])
    return FKResult(rot, pos)
