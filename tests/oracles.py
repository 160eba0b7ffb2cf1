"""Per-vector, per-body and per-contact reference code for the batched
library kernels, and independent routes to what the library computes.

The scalar formulations are the ones the library used before it worked on
whole stacks; the batched code must reproduce them bit for bit. The other
routes (inverse dynamics at any acceleration, the quaternion form of the
exponential map, the world-to-camera inverse) check identities to rounding.
The test data helpers that no run needs (random rotations, the trajectory
writer, one frame's generalized position) live here too.
"""

import json
import math

import numpy as np

from physmotion.humanoid import DEFAULT_DT, NUM_BODIES, NV, FKResult, end_effector_positions, forward_kinematics
from physmotion.optimizer import (
    CONTACT_ACTIVATION_MARGIN,
    CONTACT_KP,
    CONTACT_KV,
    CONTACT_MAX_CORRECTION_VELOCITY,
    CONTACT_REST_OFFSET,
    FALLBACK_LEVELS,
    ROOT_ORIENT_WEIGHT_SCALE,
    FrameSetup,
    PDGains,
    ReferenceFrameInput,
    pd_desired_accel_angles,
    root_supervision_accel,
    solve_frame,
)
from physmotion.rotations import log_so3, matrix_to_quat, quat_to_matrix
from physmotion.scene import CONTACT_NAMES, query_surface


def random_rotation(rng):
    """Uniform random rotation via normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return quat_to_matrix(q)


def save_trajectory(traj, path):
    """Write one JSON record per line: {frame, quat_wxyz, trans_xyz}, the
    format frames.load_trajectory reads."""
    records = zip(traj.frames.tolist(), matrix_to_quat(traj.rotations).tolist(), traj.translations.tolist())
    with open(path, "w") as fh:
        for frame, quat, trans in records:
            fh.write(json.dumps({"frame": frame, "quat_wxyz": quat, "trans_xyz": trans}) + "\n")


def continuous_exp_coords_scalar(v, previous):
    """One 3-vector: the 2*pi-equivalent representation closest to previous."""
    best, best_d = v, float(np.linalg.norm(v - previous))
    norm = float(np.linalg.norm(v))
    if norm > 1e-12:
        for k in (-1, 1):
            alt = v * (1.0 + k * 2.0 * np.pi / norm)
            d = float(np.linalg.norm(alt - previous))
            if d < best_d:
                best, best_d = alt, d
    return best.copy()


def generalized_position(seq, t, previous=None):
    """q (75,) of frame t of a MotionSequence as stored; with previous, each
    3-vector of exponential coordinates moved to its 2*pi-equivalent
    representation nearest the same vector of previous."""
    q = np.concatenate([seq.root_trans[t], log_so3(seq.root_rot[t]), seq.joint_angles[t].ravel()])
    if previous is not None:
        for j in range(24):
            sl = slice(3 + 3 * j, 6 + 3 * j)
            q[sl] = continuous_exp_coords_scalar(q[sl], previous[sl])
    return q


def contact_targets(model, q):
    """(4, 3) world positions of the contact end effectors at q, CONTACT_NAMES order."""
    ee = end_effector_positions(model, forward_kinematics(model, q))
    return np.array([ee[name] for name in CONTACT_NAMES])


def skew(v):
    """Skew-symmetric matrix such that skew(a) @ b == cross(a, b)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def cross3(a, b):
    """Cross product of two 3-vectors, one component at a time."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


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


def left_jacobian_scalar(v):
    """J_l(v) = I + A skew(v) + B skew(v)^2 for one vector, series below 1e-8 rad."""
    v = np.asarray(v, dtype=float)
    t = np.linalg.norm(v)
    k = skew(v)
    if t < 1e-8:
        a = 0.5 - t**2 / 24.0
        b = 1.0 / 6.0 - t**2 / 120.0
    else:
        a = (1.0 - np.cos(t)) / t**2
        b = (t - np.sin(t)) / t**3
    return np.eye(3) + a * k + b * (k @ k)


def left_jacobian_dot_scalar(v, vdot):
    """d/dt J_l(v(t)) for one vector pair, series below 1e-4 rad."""
    v = np.asarray(v, dtype=float)
    vdot = np.asarray(vdot, dtype=float)
    t = np.linalg.norm(v)
    k = skew(v)
    kd = skew(vdot)
    if t < 1e-4:
        a_bar = -1.0 / 12.0 + t**2 / 180.0
        b_bar = -1.0 / 60.0 + t**2 / 1260.0
        a = 0.5 - t**2 / 24.0
        b = 1.0 / 6.0 - t**2 / 120.0
    else:
        a_bar = (t * np.sin(t) - 2.0 * (1.0 - np.cos(t))) / t**4
        b_bar = (t * (1.0 - np.cos(t)) - 3.0 * (t - np.sin(t))) / t**5
        a = (1.0 - np.cos(t)) / t**2
        b = (t - np.sin(t)) / t**3
    vvd = float(v @ vdot)
    return vvd * (a_bar * k + b_bar * (k @ k)) + a * kd + b * (kd @ k + k @ kd)


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


def _joint(x, body):
    return x[3 + 3 * body : 6 + 3 * body]


def joint_axes_scalar(model, q, fk):
    """(24, 3, 3) world joint axes, one left Jacobian at a time."""
    axes = np.empty((NUM_BODIES, 3, 3))
    axes[0] = left_jacobian_scalar(q[3:6])
    for i in range(1, NUM_BODIES):
        axes[i] = fk.rotations[model.parents[i]] @ left_jacobian_scalar(_joint(q, i))
    return axes


def forward_sweep_scalar(model, q, qd, qdd, fk, axes):
    """The forward recursion one body at a time: omega, vel, omega_dot, acc."""
    rot, pos = fk.rotations, fk.positions
    omega = np.empty((NUM_BODIES, 3))
    vel = np.empty((NUM_BODIES, 3))
    omega_dot = np.empty((NUM_BODIES, 3))
    acc = np.empty((NUM_BODIES, 3))
    omega[0] = axes[0] @ qd[3:6]
    vel[0] = qd[0:3]
    omega_dot[0] = axes[0] @ qdd[3:6] + left_jacobian_dot_scalar(q[3:6], qd[3:6]) @ qd[3:6]
    acc[0] = qdd[0:3]
    for i in range(1, NUM_BODIES):
        p = model.parents[i]
        th, thd = _joint(q, i), _joint(qd, i)
        d = pos[i] - pos[p]
        w_rel = axes[i] @ thd
        omega[i] = omega[p] + w_rel
        vel[i] = vel[p] + cross3(omega[p], d)
        omega_dot[i] = (
            omega_dot[p]
            + cross3(omega[p], w_rel)
            + axes[i] @ _joint(qdd, i)
            + rot[p] @ (left_jacobian_dot_scalar(th, thd) @ thd)
        )
        acc[i] = acc[p] + cross3(omega_dot[p], d) + cross3(omega[p], cross3(omega[p], d))
    return omega, vel, omega_dot, acc


def backward_pass_scalar(model, fk, axes, inertia_w, omega, omega_dot, acc):
    """The RNEA backward pass folding one body at a time into its parent."""
    pos = fk.positions
    force = model.masses[:, None] * acc
    moment = np.einsum("bij,bj->bi", inertia_w, omega_dot) + np.cross(
        omega, np.einsum("bij,bj->bi", inertia_w, omega)
    )
    for i in range(NUM_BODIES - 1, 0, -1):
        p = model.parents[i]
        force[p] += force[i]
        moment[p] += moment[i] + cross3(pos[i] - pos[p], force[i])
    tau = np.empty(NV)
    tau[0:3] = force[0]
    tau[3:] = np.einsum("bji,bj->bi", axes, moment).ravel()
    return tau


def inverse_dynamics_scalar(model, q, qd, qdd):
    """M(q) qdd + h(q, qd) by the per-body recursive Newton-Euler algorithm,
    qdd pushed through the forward recursion and gravity folded in as a
    base acceleration of -gravity."""
    fk = fk_scalar(model, q)
    axes = joint_axes_scalar(model, q, fk)
    inertia_w = fk.rotations @ model.inertias @ fk.rotations.transpose(0, 2, 1)
    omega, _, omega_dot, acc = forward_sweep_scalar(model, q, qd, qdd, fk, axes)
    return backward_pass_scalar(model, fk, axes, inertia_w, omega, omega_dot, acc - model.gravity)


def crba_scalar(model, fk, subspace, inertia_w):
    """The joint-space inertia matrix assembled one joint's blocks at a time."""
    mass = model.masses[:, None, None]
    cc = np.stack([skew(p) for p in fk.positions])
    composite = np.empty((NUM_BODIES, 6, 6))
    composite[:, :3, :3] = inertia_w - mass * (cc @ cc)
    composite[:, :3, 3:] = mass * cc
    composite[:, 3:, :3] = -mass * cc
    composite[:, 3:, 3:] = mass * np.eye(3)
    for i in range(NUM_BODIES - 1, 0, -1):
        composite[model.parents[i]] += composite[i]
    m = np.zeros((NV, NV))
    for i in range(NUM_BODIES):
        cols_i = model.joint_cols(i)
        support = np.flatnonzero(model.support_mask[i])
        block = subspace[:, support].T @ (composite[i] @ subspace[:, cols_i])
        m[support, cols_i] = block
        m[cols_i, support] = block.T
    return m


def point_terms_scalar(model, dyn, body, local_point):
    """(position, 3x75 Jacobian, velocity, bias acceleration) of one point."""
    rot = dyn.fk.rotations[body]
    arm = rot @ np.asarray(local_point, dtype=float)
    p = dyn.fk.positions[body] + rot @ np.asarray(local_point, dtype=float)
    cols = np.flatnonzero(model.support_mask[body])
    jac = np.zeros((3, NV))
    jac[:, cols] = dyn.subspace[3:, cols] - skew(p) @ dyn.subspace[:3, cols]
    w = dyn.omega[body]
    vel = dyn.vel[body] + cross3(w, arm)
    bias = dyn.acc_bias[body] + cross3(dyn.omega_dot_bias[body], arm) + cross3(w, cross3(w, arm))
    return p, jac, vel, bias


def exp_to_quat(v):
    """Unit quaternion (w, x, y, z) of the rotation vector v, series below 1e-8 rad."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-8:
        return np.concatenate([[1.0 - 0.5 * (angle / 2.0) ** 2], 0.5 * v])
    axis = v / angle
    return np.concatenate([[np.cos(angle / 2.0)], axis * np.sin(angle / 2.0)])


def matrix_to_quat_scalar(rot):
    """Unit quaternion (w, x, y, z) with w >= 0 of one matrix (Shepperd's method)."""
    m = np.asarray(rot, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_matrix_scalar(q):
    """Rotation matrix of one quaternion (w, x, y, z), normalised first."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_to_exp_scalar(q):
    """Exponential coordinates of one quaternion (w, x, y, z), series below 1e-8."""
    w, xyz = q[0], np.asarray(q[1:], dtype=float)
    n = np.linalg.norm(xyz)
    if n < 1e-8:
        return xyz * (2.0 / w if w != 0.0 else 2.0)
    angle = 2.0 * np.arctan2(n, w)
    return xyz * (angle / n)


def log_so3_scalar(rot):
    """Exponential coordinates of one rotation matrix, through its quaternion."""
    return quat_to_exp_scalar(matrix_to_quat_scalar(rot))


def world_to_camera(root_rot, root_trans, cam_rot, cam_trans):
    """The camera-frame root poses (rotations, translations) of world-frame
    ones, one pose or stacks: the inverse of frames.camera_to_world for the
    camera poses (cam_rot, cam_trans)."""
    r = np.asarray(cam_rot, dtype=float)
    t = np.asarray(cam_trans, dtype=float)
    return r @ root_rot, (r @ np.asarray(root_trans, dtype=float)[..., None])[..., 0] + t


def tangent_basis_scalar(n):
    """Two unit tangents of one unit normal."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def cone_rows_scalar(normals, n, lam0, settings):
    """The friction-cone rows G, one contact and one facet at a time."""
    g_rows = []
    for c, normal in enumerate(normals):
        t1, t2 = tangent_basis_scalar(normal)
        cols = slice(lam0 + 3 * c, lam0 + 3 * c + 3)
        for f in range(settings.cone_facets):
            ang = 2.0 * np.pi * f / settings.cone_facets
            d = np.cos(ang) * t1 + np.sin(ang) * t2
            row = np.zeros(n)
            row[cols] = d - settings.friction_mu * normal
            g_rows.append(row)
    return np.vstack(g_rows)


def ground_scalar(hm, settings, point):
    """Surface height and upward normal below one point; without a height map
    (or with use_height_map off) the ground is the plane y = 0."""
    if settings.use_height_map and hm is not None:
        return query_surface(hm, point[0], point[2])
    return 0.0, np.array([0.0, 1.0, 0.0])


def grounded(setup, ref):
    """ref with its labelled targets on the ground, as refine_sequence hands it over."""
    targets = setup.ground_targets(ref.ee_targets, ref.contacts)
    return ReferenceFrameInput(ref.q_ref, targets, ref.contacts, ref.root_future)


def solve_frame_grounded(model, state, ref, hm, settings, dt=DEFAULT_DT, **kwargs):
    """solve_frame of one frame as refine_sequence calls it: one FrameSetup
    (default gains, flat ground at y = 0 without a height map) and the
    labelled targets on the ground."""
    setup = FrameSetup(model, hm, settings, dt=dt)
    return solve_frame(setup, state, grounded(setup, ref), **kwargs)


def frame_qp_scalar(model, dyn, state, ref, hm, settings, level, dt, latched):
    """The (P, q, A, b, G, h) of one frame at one FALLBACK_LEVELS level, built
    per contact point and per level as solve_frame built them."""
    gains = PDGains()
    q, qd = state.q, state.qd
    _, use_slide, use_cone = next(entry for entry in FALLBACK_LEVELS if entry[0] == level)
    points, hold, targets = {}, {}, {}
    if ref.contacts.any():
        effectors = [model.end_effector(name) for name in CONTACT_NAMES]
        targets = {name: ref.ee_targets[k].copy() for k, name in enumerate(CONTACT_NAMES)}
        grounded = [name for name in targets if ref.contacts[CONTACT_NAMES.index(name)]]
        terms = [point_terms_scalar(model, dyn, body, off) for body, off in effectors]
        probes = np.array([t[0] for t in terms] + [targets[name] for name in grounded])
        heights, normals = zip(*(ground_scalar(hm, settings, p) for p in probes))
        for name, height in zip(grounded, heights[len(effectors) :]):
            targets[name][1] = height + CONTACT_REST_OFFSET
        for k, (name, (body, _)) in enumerate(zip(CONTACT_NAMES, effectors)):
            _, jac, vel, bias = terms[k]
            points[name] = dict(
                name=name, body=body, position=probes[k], jacobian=jac, bias=bias, velocity=vel,
                surface_height=float(heights[k]), normal=normals[k],
            )
            hold[name] = bool(latched[k]) and bool(ref.contacts[k])
    active = []
    for k, name in enumerate(CONTACT_NAMES):
        if not ref.contacts[k] or name not in points:
            continue
        p = points[name]
        if hold[name] or p["position"][1] < p["surface_height"] + CONTACT_ACTIVATION_MARGIN:
            active.append(p)

    m_mat, h_vec = dyn.m, dyn.h
    qdd_des = pd_desired_accel_angles(q, qd, ref.q_ref, gains)
    a_des = {
        name: gains.position_kp * (np.asarray(target) - points[name]["position"])
        - gains.position_kd * points[name]["velocity"]
        for name, target in targets.items()
    }
    nc = len(active)
    n = NV + 3 * nc
    lam0 = NV
    jc_t = np.zeros((NV, 3 * nc))
    for c, point in enumerate(active):
        jc_t[:, 3 * c : 3 * c + 3] = point["jacobian"].T
    b_mat = np.hstack([m_mat[6:], -jc_t[6:]])
    p_mat = np.zeros((n, n))
    q_vec = np.zeros(n)
    idx = np.arange(3, NV)
    w = np.full(NV, 2.0 * settings.angle_weight)
    w[3:6] *= ROOT_ORIENT_WEIGHT_SCALE
    if settings.use_angle_pd:
        target = qdd_des
    else:
        w *= 0.01
        target = np.zeros(NV)
        target[3:6] = -gains.root_orient_kd * qd[3:6]
        target[6:] = -gains.angle_kd * qd[6:]
    p_mat[idx, idx] += w[idx]
    q_vec[idx] -= w[idx] * target[idx]
    if settings.use_position_pd:
        w = 2.0 * settings.point_weight
        for name, point in points.items():
            if name not in a_des:
                continue
            jac, rhs = point["jacobian"], a_des[name] - point["bias"]
            p_mat[:NV, :NV] += w * jac.T @ jac
            q_vec[:NV] -= w * jac.T @ rhs
    reg = 2.0 * settings.reg_weight
    diag = np.arange(lam0, n)
    p_mat[diag, diag] += reg
    p_mat += b_mat.T @ (reg * b_mat)
    q_vec += reg * (b_mat.T @ h_vec[6:])

    eq_rows = [np.hstack([m_mat[:6], -jc_t[:6]])]
    eq_rhs = [-h_vec[:6]]
    if use_slide:
        first_on_body = {}
        for point in active:
            err = point["position"][1] - (point["surface_height"] + CONTACT_REST_OFFSET)
            v_n = float(point["velocity"] @ point["normal"])
            v_t = point["velocity"] - v_n * point["normal"]
            a_n = -CONTACT_KV * v_n - CONTACT_KP * err
            cap = CONTACT_MAX_CORRECTION_VELOCITY
            v_next = v_n + a_n * dt
            if abs(v_next) > cap:
                a_n = (math.copysign(cap, v_next) - v_n) / dt
            a_corr = -(1.0 / dt) * v_t + a_n * point["normal"]
            basis = np.eye(3)
            anchor = first_on_body.setdefault(point["body"], point)
            if anchor is not point:
                axis = point["position"] - anchor["position"]
                norm = np.linalg.norm(axis)
                if norm < 1e-9:
                    continue
                axis /= norm
                t1, t2 = tangent_basis_scalar(axis)
                basis = np.vstack([t1, t2])
            row = np.zeros((basis.shape[0], n))
            row[:, :NV] = basis @ point["jacobian"]
            eq_rows.append(row)
            eq_rhs.append(basis @ (a_corr - point["bias"]))
    if settings.use_root_supervision and ref.root_future is not None:
        row = np.zeros((3, n))
        row[:3, :3] = np.eye(3)
        eq_rows.append(row)
        eq_rhs.append(root_supervision_accel(ref.root_future[1], ref.root_future[0], qd[0:3], dt))
    g_mat = h_ineq = None
    if use_cone and nc:
        g_mat = cone_rows_scalar([p["normal"] for p in active], n, lam0, settings)
        h_ineq = np.zeros(len(g_mat))
    return p_mat, q_vec, np.vstack(eq_rows), np.concatenate(eq_rhs), g_mat, h_ineq
