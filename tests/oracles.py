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

from physmotion.errors import QPInfeasibleError, SolverError
from physmotion.humanoid import DEFAULT_DT, NUM_BODIES, NV, FKResult, contact_positions, forward_kinematics
from physmotion.motion import _continuous_exp_coords
from physmotion.optimizer import (
    CONTACT_ACTIVATION_MARGIN,
    CONTACT_MAX_CORRECTION_VELOCITY,
    CONTACT_REST_OFFSET,
    FALLBACK_LEVELS,
    ROOT_ORIENT_WEIGHT_SCALE,
    FrameSetup,
    PDGains,
    ReferenceFrameInput,
    root_supervision_accel,
    solve_frame,
)
from physmotion.rotations import log_so3, matrix_to_quat, quat_to_matrix, vector_norms
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


def generalized_positions_per_frame(seq):
    """(T, 75) q of a MotionSequence, each frame after the first unwrapped
    against the unwrapped frame before it, one frame at a time."""
    q = seq._stored_positions()
    coords = q[:, 3:].reshape(len(q), -1, 3)
    for t in range(1, len(q)):
        coords[t] = _continuous_exp_coords(coords[t], coords[t - 1])
    return q


def contact_targets(model, q):
    """(4, 3) world positions of the contact points at q, CONTACT_NAMES order."""
    return contact_positions(model, forward_kinematics(model, q))


def contact_point(model, name):
    """(body index, offset) of the named contact point, found in the bodies'
    own end effectors rather than in the model's contact table."""
    return next((i, b.end_effectors[name]) for i, b in enumerate(model.bodies) if name in b.end_effectors)


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


def motion_subspace_scalar(model, fk, axes):
    """The (6, 75) world motion subspace assembled one joint's columns at a
    time: the root translation's unit columns, then per joint its axes and
    the velocity its axes give the body-fixed point at the world origin."""
    s = np.zeros((6, NV))
    s[3:, 0:3] = np.eye(3)
    for i in range(NUM_BODIES):
        cols = slice(3 + 3 * i, 6 + 3 * i)
        s[:3, cols] = axes[i]
        s[3:, cols] = skew(fk.positions[i]) @ axes[i]
    return s


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


def pd_gains(rate):
    """(kp, kd) of the critically damped PD of rate w (1/s): w^2 and 2 w."""
    return rate * rate, 2.0 * rate


def frame_qp_scalar(model, dyn, state, ref, hm, settings, level, dt, latched):
    """The (P, q, A, b, G, h) of one frame at one FALLBACK_LEVELS level, built
    per contact point and per level as solve_frame built them."""
    gains = PDGains()
    q, qd = state.q, state.qd
    _, use_slide, use_cone = next(entry for entry in FALLBACK_LEVELS if entry[0] == level)
    points, hold, targets = {}, {}, {}
    if ref.contacts.any():
        effectors = [contact_point(model, name) for name in CONTACT_NAMES]
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
    (kp_root, kd_root), (kp_angle, kd_angle), (kp_point, kd_point) = (
        pd_gains(rate) for rate in (gains.root_orient_rate, gains.angle_rate, gains.position_rate)
    )
    qdd_des = np.zeros(NV)
    qdd_des[3:6] = kp_root * (ref.q_ref[3:6] - q[3:6]) - kd_root * qd[3:6]
    qdd_des[6:] = kp_angle * (ref.q_ref[6:] - q[6:]) - kd_angle * qd[6:]
    a_des = {
        name: kp_point * (np.asarray(target) - points[name]["position"]) - kd_point * points[name]["velocity"]
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
        target[3:6] = -kd_root * qd[3:6]
        target[6:] = -kd_angle * qd[6:]
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
        # the normal axis is deadbeat: rate 1/dt
        kp_normal, kd_normal = pd_gains(1.0 / dt)
        first_on_body = {}
        for point in active:
            err = point["position"][1] - (point["surface_height"] + CONTACT_REST_OFFSET)
            v_n = float(point["velocity"] @ point["normal"])
            v_t = point["velocity"] - v_n * point["normal"]
            a_n = -kd_normal * v_n - kp_normal * err
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


def query_height_scalar(hm, x, z):
    """Bilinear height of one point (x, z), one operation at a time; off the
    grid, the default height."""
    nx, nz = hm.heights.shape
    ox, oz = hm.origin
    if x < ox or x > ox + nx * hm.cell_size or z < oz or z > oz + nz * hm.cell_size:
        return hm.default_height
    gx = (x - ox) / hm.cell_size - 0.5
    gz = (z - oz) / hm.cell_size - 0.5
    i0 = int(min(max(math.floor(gx), 0), nx - 2))
    j0 = int(min(max(math.floor(gz), 0), nz - 2))
    fx = min(max(gx - i0, 0.0), 1.0)
    fz = min(max(gz - j0, 0.0), 1.0)
    ex, ez = 1 - fx, 1 - fz
    h = hm.heights
    return ex * ez * h[i0, j0] + fx * ez * h[i0 + 1, j0] + ex * fz * h[i0, j0 + 1] + fx * fz * h[i0 + 1, j0 + 1]


def query_surface_scalar(hm, x, z):
    """(height, upward unit normal) of one point: the normal from central
    differences of the height one cell to either side."""
    d = hm.cell_size
    dhdx = (query_height_scalar(hm, x + d, z) - query_height_scalar(hm, x - d, z)) / (2.0 * d)
    dhdz = (query_height_scalar(hm, x, z + d) - query_height_scalar(hm, x, z - d)) / (2.0 * d)
    n = np.array([-dhdx, 1.0, -dhdz])
    return query_height_scalar(hm, x, z), n / vector_norms(n)


def one_euro_per_sample(signal, params, rate):
    """The One-Euro filter of a (T, n) signal, one sample at a time."""
    x = np.asarray(signal, dtype=float)
    alpha_d = 1.0 / (1.0 + rate / (2.0 * np.pi * 1.0))
    out = np.empty_like(x)
    out[0] = x[0]
    x_hat = x[0].copy()
    dx_hat = np.zeros(x.shape[1])
    for t in range(1, x.shape[0]):
        dx = (x[t] - x[t - 1]) * rate
        dx_hat = dx_hat + alpha_d * (dx - dx_hat)
        cutoff = params.min_cutoff + params.beta * np.abs(dx_hat)
        alpha = 1.0 / (1.0 + rate / (2.0 * np.pi * cutoff))
        x_hat = x_hat + alpha * (x[t] - x_hat)
        out[t] = x_hat
    return out


def solve_qp_reference(p_mat, q_vec, a_mat, b_vec, g_mat, h_vec, tol=1e-8, warm_start=None):
    """qp.solve_qp as a plain transcription of its method (docstrings in
    physmotion/qp.py): scaling, one regularised KKT factorisation with
    refined solves, the responses to unit multipliers and the
    Goldfarb-Idnani dual active set on a triangular factor of the working
    rows. Returns (x, nu, mu, iterations, active set, KKT residual); raises
    what solve_qp raises."""
    from scipy.linalg import lapack

    def kkt_solver(kkt, n):
        diag = np.einsum("ii->i", kkt)
        delta = 1e-9 * (1.0 + float(np.abs(diag[:n]).max()))
        unregularised = diag.copy()
        diag[:n] += delta
        diag[n:] -= delta
        lu, piv, info = lapack.dgetrf(kkt.T)
        if info > 0:
            raise SolverError(f"KKT factorisation failed: getrf: pivot {info - 1} is exactly zero")
        diag[:] = unregularised
        pivots = np.diagonal(lu)
        if not (np.isfinite(pivots).all() and pivots.all()):
            raise SolverError("KKT factorisation is singular")

        def solve(rhs):
            sol, info = lapack.dgetrs(lu, piv, rhs, trans=1)
            if info != 0 or not np.isfinite(sol).all():
                raise SolverError("KKT solve is not finite")
            return sol

        return solve

    def refine(mat, rhs, n, sol, correct):
        top = 1.0 + float(np.abs(rhs[:n]).max())
        bottom = 1.0 + float(np.abs(rhs[n:]).max(initial=0.0))

        def errors(z):
            res = rhs - mat @ z
            mag = np.abs(res)
            cons = float(mag[n:].max(initial=0.0)) / bottom
            return res, max(float(mag[:n].max()) / top, cons), cons

        res, err, cons = errors(sol)
        for _ in range(8):
            if err < 1e-13:
                break
            new_sol = sol + correct(res)
            new_res, new_err, new_cons = errors(new_sol)
            if not new_err < err:
                break
            sol, res, err, cons = new_sol, new_res, new_err, new_cons
        return sol, cons

    p_in = np.asarray(p_mat, dtype=float)
    q_in = np.asarray(q_vec, dtype=float).reshape(-1)
    n = q_in.shape[0]
    a_in, b_in = (np.zeros((0, n)), np.zeros(0)) if a_mat is None or np.size(a_mat) == 0 else (
        np.asarray(a_mat, dtype=float).reshape(-1, n), np.asarray(b_vec, dtype=float).reshape(-1))
    g_in, h_in = (np.zeros((0, n)), np.zeros(0)) if g_mat is None or np.size(g_mat) == 0 else (
        np.asarray(g_mat, dtype=float).reshape(-1, n), np.asarray(h_vec, dtype=float).reshape(-1))
    me, mi = a_in.shape[0], g_in.shape[0]
    rows_in, rhs_in = np.concatenate([a_in, g_in]), np.concatenate([b_in, h_in])
    for arr, label in ((p_in, "P"), (q_in, "q"), (a_in, "A"), (b_in, "b"), (g_in, "G"), (h_in, "h")):
        if not np.isfinite(arr).all():
            raise SolverError(f"non-finite values in QP data ({label})")
    diag = np.abs(np.diag(p_in))
    d = 1.0 / np.sqrt(np.maximum(diag, 1e-6 * (diag.max() if diag.size else 1.0) + 1e-12))
    q_s = q_in * d
    rows_s = rows_in * d[None, :]
    row_scale = np.maximum(np.abs(rows_s).max(axis=1, initial=0.0), 1e-12)
    rows_s /= row_scale[:, None]
    rhs_s = rhs_in / row_scale
    a_s, g_s, b_s, h_s = rows_s[:me], rows_s[me:], rhs_s[:me], rhs_s[me:]

    def finish(xs, nu_s, mu_s, iterations, active):
        x, nu, mu = xs * d, nu_s / row_scale[:me], mu_s / row_scale[me:]
        grad = p_in @ x + q_in
        station = grad.copy()
        if a_in.size:
            station = station + a_in.T @ nu
        if g_in.size:
            station = station + g_in.T @ mu
        parts = [float(np.abs(station).max()) / (1.0 + float(np.abs(grad).max()))]
        if a_in.size:
            parts.append(float(np.abs(a_in @ x - b_in).max()) / (1.0 + float(np.abs(b_in).max())))
        if g_in.size:
            slack = g_in @ x - h_in
            mu_scale = 1.0 + float(np.abs(mu).max())
            parts.append(float(max(0.0, slack.max())) / (1.0 + float(np.abs(h_in).max())))
            parts.append(float(max(0.0, -mu.min())) / mu_scale)
            parts.append(float(np.abs(mu * slack).max()) / mu_scale)
        residual = max(parts)
        if residual > tol:
            raise SolverError(f"KKT residual {residual:.3e} above tolerance ({len(active)} active of {mi} inequalities)")
        return x, nu, mu, iterations, tuple(active), residual

    nz = n + me
    bordered = np.zeros((nz + mi, nz + mi))
    kkt = bordered[:nz, :nz]
    np.multiply(p_in * d[None, :], d[:, None], out=kkt[:n, :n])
    kkt[:n, n:] = a_s.T
    kkt[n:, :n] = a_s
    lu_solve = kkt_solver(kkt, n)
    rhs0 = np.concatenate([-q_s, b_s])
    z0, consistency = refine(kkt, rhs0, n, lu_solve(rhs0), lu_solve)
    if consistency > 1e-7:
        raise QPInfeasibleError("equality constraints are inconsistent")
    x0, nu0 = z0[:n], z0[n:]
    s0 = g_s @ x0 - h_s
    feas_tol = 1e-9 * (1.0 + float(np.abs(h_s).max(initial=0.0)))
    if mi == 0 or s0.max() <= feas_tol:
        return finish(x0, nu0, np.zeros(mi), 1, ())

    support = np.flatnonzero(np.abs(g_s).max(axis=0))
    unit = np.zeros((nz, support.shape[0]), order="F")
    unit[support, np.arange(support.shape[0])] = -1.0
    y_mat = lu_solve(unit)
    g_j = g_s[:, support]
    s_mat = -g_j @ y_mat[support] @ g_j.T
    s_mat = 0.5 * (s_mat + s_mat.T)
    seed = np.asarray(warm_start if warm_start is not None else (), dtype=int)
    warm = seed.tolist() if seed.size and seed.min() >= 0 and seed.max() < mi else []

    # the dual active set on the working rows' factor R (R^T R = S_WW)
    sdiag = s_mat.diagonal()
    dep_tol = 1e-10 * sdiag + 1e-15 * float(sdiag.max())
    rows, r_fac = [], np.zeros(s_mat.shape, order="F")

    def triangular(rhs, trans):
        w = len(rows)
        sol, info = lapack.dtrtrs(r_fac[:w, :w], rhs, trans=trans)
        if info != 0:
            raise SolverError(f"working-set factor is singular ({w} rows)")
        return sol

    def solve_working(rhs):
        w = len(rows)
        if not w:
            return np.zeros(0)
        sol, info = lapack.dpotrs(r_fac[:w, :w], rhs)
        if info != 0:
            raise SolverError(f"working-set factor is singular ({w} rows)")
        return sol

    def response(p):
        if not rows:
            return np.zeros(0), float(s_mat[p, p]), np.zeros(0)
        col = triangular(s_mat[rows, p], 1)
        return triangular(col, 0), float(s_mat[p, p] - col @ col), col

    def add(p, col, z):
        w = len(rows)
        r_fac[:w, w] = col
        r_fac[w, w] = math.sqrt(z)
        rows.append(p)

    def remove(k):
        w = len(rows)
        r_fac[:w, k : w - 1] = r_fac[:w, k + 1 : w]
        r_fac[:w, w - 1] = 0.0
        if k < w - 1:
            qr, *_ = lapack.dgeqrf(r_fac[k:w, k : w - 1])
            sub = np.arange(w - 1 - k)
            qr[sub + 1, sub] = 0.0
            r_fac[k:w, k : w - 1] = qr
        del rows[k]

    def multipliers():
        mu = np.zeros(mi)
        mu[rows] = solve_working(s0[rows])
        return mu

    seed_rows = sorted(set(warm))
    if seed_rows:
        r, info = lapack.dpotrf(s_mat[seed_rows][:, seed_rows], clean=1)
        if info == 0 and (r.diagonal() ** 2 > dep_tol[seed_rows]).all():
            r_fac[: len(seed_rows), : len(seed_rows)] = r
            rows.extend(seed_rows)
        else:
            for p in seed_rows:
                _, z, col = response(p)
                if z > dep_tol[p]:
                    add(p, col, z)
    steps = 0
    mu = multipliers()
    while rows and mu[rows].min() < 0.0:
        remove(int(np.argmin(mu[rows])))
        mu = multipliers()
        steps += 1
    max_steps = 3 * (mi + 1)
    while True:
        slack = s0 - s_mat @ mu
        candidates = slack.copy()
        candidates[rows] = -np.inf
        while True:
            p = int(candidates.argmax())
            if candidates[p] <= feas_tol:
                break
            if slack[p] > feas_tol + 1e-13 * (abs(s0[p]) + float(np.abs(s_mat[p]) @ mu)):
                break
            candidates[p] = -np.inf
        if candidates[p] <= feas_tol:
            break
        slack_p = float(slack[p])
        while True:
            c, z, col = response(p)
            w = len(rows)
            full = z > dep_tol[p]
            t, k = (slack_p / z, w) if full else (np.inf, w)
            if w:
                mu_w = mu[rows]
                leave = c > 1e-12 * max(1.0, float(np.abs(c).max()))
                if leave.any():
                    ratios = np.divide(mu_w, c, out=np.full(w, np.inf), where=leave)
                    j = int(ratios.argmin())
                    if ratios[j] <= t:
                        t, k = float(ratios[j]), j
            if k == w and not full:
                raise QPInfeasibleError(f"inequality row {p} is violated and depends on rows {sorted(rows)}")
            steps += 1
            if steps > max_steps:
                raise SolverError(f"dual active set did not settle in {max_steps} steps ({mi} inequalities)")
            if w:
                mu[rows] = mu_w - t * c
            mu[p] += t
            if k == w:
                add(p, col, z)
                break
            mu[rows[k]] = 0.0
            remove(k)
            slack_p -= t * z

    g_w, y_w = g_s[rows], y_mat @ g_j[rows].T
    w = len(rows)
    bordered = bordered[: nz + w, : nz + w]
    bordered[:n, nz:] = g_w.T
    bordered[nz:, :n] = g_w

    def correct(res):
        w0 = lu_solve(res[:nz])
        d_mu = solve_working(g_w @ w0[:n] - res[nz:])
        return np.concatenate([w0 + y_w @ d_mu, d_mu])

    mu_w = solve_working(s0[rows])
    start = np.concatenate([z0 + y_w @ mu_w, mu_w])
    zb, _ = refine(bordered, np.concatenate([rhs0, h_s[rows]]), n, start, correct)
    mu_s = np.zeros(mi)
    mu_s[rows] = np.maximum(zb[nz:], 0.0)
    return finish(zb[:n], zb[n:nz], mu_s, 1 + steps, sorted(rows))
