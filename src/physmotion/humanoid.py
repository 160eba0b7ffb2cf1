"""Floating-base articulated rigid-body model and its dynamics algorithms.

The skeleton is a fixed 24-body tree (SMPL joint topology). Generalized
coordinates q (75):

    q[0:3]   root translation (m)
    q[3:6]   root orientation, exponential coordinates (rad)
    q[6:75]  23 x 3 joint angles, exponential coordinates per joint

Velocities are coordinate rates (not body angular velocities); the left
Jacobian of SO(3) converts between the two inside the recursions. Each body's
center of mass sits at its joint origin and carries the body-frame inertia
from the model file.

`frame_dynamics` runs forward kinematics and one forward sweep, and derives
M (CRBA), h (RNEA backward pass) and the contact-point terms from them; the
other dynamics functions are views of the same sweep.

Sign conventions: gravity enters the nonlinear-effects vector so that
unsupported free fall solves qdd_y = -9.81 with zero torques and contact
forces under tau + Jc^T lambda = M qdd + h.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, InvalidStateError
from .rotations import cross3, exp_so3, left_jacobian, left_jacobian_dot, skew, skew_rows

NUM_BODIES = 24
NV = 75  # 3 translation + 3 root orientation + 23 * 3 joints
DEFAULT_DT = 1.0 / 60.0
DEFAULT_GRAVITY = np.array([0.0, -9.81, 0.0])


@dataclass
class Body:
    name: str
    parent: int
    offset: np.ndarray  # translation from parent joint, parent frame (m)
    mass: float
    inertia: np.ndarray  # 3x3 body-frame inertia about the joint origin (kg m^2)
    end_effectors: Dict[str, np.ndarray] = field(default_factory=dict)


class HumanoidModel:
    """Immutable articulated model; safe to share across threads."""

    def __init__(self, bodies: Sequence[Body], gravity: np.ndarray = DEFAULT_GRAVITY):
        if len(bodies) != NUM_BODIES:
            raise InvalidInputError(f"model needs {NUM_BODIES} bodies, got {len(bodies)}")
        if bodies[0].parent != -1:
            raise InvalidInputError("body 0 must be the root (parent -1)")
        for i, b in enumerate(bodies[1:], start=1):
            if not 0 <= b.parent < i:
                raise InvalidInputError(
                    f"body {i} ({b.name}): parent {b.parent} must precede it in the tree"
                )
        for b in bodies:
            if b.mass <= 0.0:
                raise InvalidInputError(f"body {b.name}: mass must be positive")
            inertia = np.asarray(b.inertia, dtype=float)
            if inertia.shape != (3, 3) or np.max(np.abs(inertia - inertia.T)) > 1e-12:
                raise InvalidInputError(f"body {b.name}: inertia must be symmetric 3x3")
            if np.linalg.eigvalsh(inertia).min() <= 0.0:
                raise InvalidInputError(f"body {b.name}: inertia must be positive definite")
            b.offset = np.asarray(b.offset, dtype=float).reshape(3)
            b.inertia = inertia
        self.bodies: Tuple[Body, ...] = tuple(bodies)
        self.gravity = np.asarray(gravity, dtype=float).reshape(3)
        self.parents = np.array([b.parent for b in bodies])
        self.total_mass = float(sum(b.mass for b in bodies))
        self.masses = np.array([b.mass for b in bodies])
        self.inertias = np.stack([b.inertia for b in bodies])
        # generalized columns of each body's joint and of every ancestor's
        self.support_cols: List[np.ndarray] = []
        for i, b in enumerate(bodies):
            own = np.arange(NV)[self.joint_cols(i)]
            if b.parent != -1:
                own = np.concatenate([self.support_cols[b.parent], own])
            self.support_cols.append(own)
        # end effector registry in a stable order
        self.end_effectors: List[Tuple[str, int, np.ndarray]] = []
        for i, b in enumerate(bodies):
            for name, off in b.end_effectors.items():
                self.end_effectors.append((name, i, np.asarray(off, dtype=float).reshape(3)))
        self.end_effectors.sort(key=lambda e: e[0])

    def body_index(self, name: str) -> int:
        for i, b in enumerate(self.bodies):
            if b.name == name:
                return i
        raise KeyError(name)

    def end_effector(self, name: str) -> Tuple[int, np.ndarray]:
        for ee_name, body, off in self.end_effectors:
            if ee_name == name:
                return body, off
        raise KeyError(name)

    @staticmethod
    def joint_cols(body: int) -> slice:
        """Generalized-coordinate columns driven by this body's joint."""
        if body == 0:
            return slice(0, 6)
        return slice(3 + 3 * body, 6 + 3 * body)


@dataclass
class GeneralizedState:
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray

    def __post_init__(self):
        for name in ("q", "qd", "qdd"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if v.shape != (NV,):
                raise InvalidStateError(f"{name} must have length {NV}, got {v.shape}")
            setattr(self, name, v)

    @staticmethod
    def zero() -> "GeneralizedState":
        return GeneralizedState(np.zeros(NV), np.zeros(NV), np.zeros(NV))

    def copy(self) -> "GeneralizedState":
        return GeneralizedState(self.q.copy(), self.qd.copy(), self.qdd.copy())


@dataclass
class FKResult:
    """World pose of every body, for one q or a stack of them."""

    rotations: np.ndarray  # (..., 24, 3, 3) world rotations
    positions: np.ndarray  # (..., 24, 3) world joint origins


def _joint_angles(q: np.ndarray, body: int) -> np.ndarray:
    return q[3 + 3 * body : 6 + 3 * body]


def forward_kinematics(model: HumanoidModel, q: np.ndarray) -> FKResult:
    """World transform of every body: parent transform * offset * joint rotation.

    q is one generalized position (75,) or a stack (..., 75), e.g. the (T, 75)
    positions of a sequence; the result carries the same leading axes. The
    joint rotations of all bodies and frames come from one exp_so3 call and
    every frame is composed down the tree at once.
    """
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    q = q.reshape(-1, NV)
    joint_rot = exp_so3(q[:, 3:].reshape(-1, NUM_BODIES, 3))
    rot = np.empty((len(q), NUM_BODIES, 3, 3))
    pos = np.empty((len(q), NUM_BODIES, 3))
    rot[:, 0] = joint_rot[:, 0]
    pos[:, 0] = q[:, 0:3]
    for i in range(1, NUM_BODIES):
        p = model.parents[i]
        pos[:, i] = pos[:, p] + rot[:, p] @ model.bodies[i].offset
        rot[:, i] = rot[:, p] @ joint_rot[:, i]
    return FKResult(rot.reshape(lead + rot.shape[1:]), pos.reshape(lead + pos.shape[1:]))


def end_effector_positions(model: HumanoidModel, fk: FKResult) -> Dict[str, np.ndarray]:
    """World position of every end effector, (..., 3) for an (..., 24) FK result."""
    return {
        name: fk.positions[..., body, :] + fk.rotations[..., body, :, :] @ off
        for name, body, off in model.end_effectors
    }


def _joint_axes(model: HumanoidModel, q: np.ndarray, fk: FKResult) -> np.ndarray:
    """(24, 3, 3) world joint axes: axes[i] @ (joint i rates) is the angular
    velocity of body i relative to its parent; axes[0] maps root-orientation
    rates to the base's angular velocity."""
    axes = np.empty((NUM_BODIES, 3, 3))
    axes[0] = left_jacobian(q[3:6])
    for i in range(1, NUM_BODIES):
        axes[i] = fk.rotations[model.parents[i]] @ left_jacobian(_joint_angles(q, i))
    return axes


def _motion_subspace(fk: FKResult, axes: np.ndarray) -> np.ndarray:
    """(6, 75) world motion subspace, Plucker rows (omega; velocity of the
    body-fixed point at the world origin): body i's spatial velocity is
    S[:, support_cols[i]] @ qd[support_cols[i]]."""
    s = np.zeros((6, NV))
    s[3:, 0:3] = np.eye(3)  # root translation
    s[:3, 3:] = axes.transpose(1, 0, 2).reshape(3, 3 * NUM_BODIES)
    s[3:, 3:] = (skew_rows(fk.positions) @ axes).transpose(1, 0, 2).reshape(3, 3 * NUM_BODIES)
    return s


def _point_jacobian(
    model: HumanoidModel, fk: FKResult, subspace: np.ndarray, body_id: int, local_point: np.ndarray
) -> np.ndarray:
    if not 0 <= body_id < NUM_BODIES:
        raise InvalidInputError(f"body_id {body_id} out of range")
    p = fk.positions[body_id] + fk.rotations[body_id] @ np.asarray(local_point, dtype=float)
    cols = model.support_cols[body_id]
    jac = np.zeros((3, NV))
    # velocity of the point p: v(origin) + omega x p
    jac[:, cols] = subspace[3:, cols] - skew(p) @ subspace[:3, cols]
    return jac


def _forward_sweep(
    model: HumanoidModel,
    q: np.ndarray,
    qd: np.ndarray,
    qdd: np.ndarray,
    fk: FKResult,
    axes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forward recursion, root to leaves: every body's world angular
    velocity, joint-origin velocity, angular acceleration and joint-origin
    acceleration (each 24 x 3). Gravity is not in the accelerations."""
    rot, pos = fk.rotations, fk.positions
    omega = np.empty((NUM_BODIES, 3))
    vel = np.empty((NUM_BODIES, 3))
    omega_dot = np.empty((NUM_BODIES, 3))
    acc = np.empty((NUM_BODIES, 3))
    omega[0] = axes[0] @ qd[3:6]
    vel[0] = qd[0:3]
    omega_dot[0] = axes[0] @ qdd[3:6] + left_jacobian_dot(q[3:6], qd[3:6]) @ qd[3:6]
    acc[0] = qdd[0:3]
    for i in range(1, NUM_BODIES):
        p = model.parents[i]
        th, thd = _joint_angles(q, i), _joint_angles(qd, i)
        d = pos[i] - pos[p]
        w_rel = axes[i] @ thd
        omega[i] = omega[p] + w_rel
        vel[i] = vel[p] + cross3(omega[p], d)
        omega_dot[i] = (
            omega_dot[p]
            + cross3(omega[p], w_rel)
            + axes[i] @ _joint_angles(qdd, i)
            + rot[p] @ (left_jacobian_dot(th, thd) @ thd)
        )
        acc[i] = acc[p] + cross3(omega_dot[p], d) + cross3(omega[p], cross3(omega[p], d))
    return omega, vel, omega_dot, acc


def _world_inertias(model: HumanoidModel, fk: FKResult) -> np.ndarray:
    return fk.rotations @ model.inertias @ fk.rotations.transpose(0, 2, 1)


def _backward_pass(
    model: HumanoidModel,
    fk: FKResult,
    axes: np.ndarray,
    inertia_w: np.ndarray,
    omega: np.ndarray,
    omega_dot: np.ndarray,
    acc: np.ndarray,
) -> np.ndarray:
    """The RNEA backward pass: generalized forces producing the given body
    motion. Gravity is folded in by passing acc - gravity."""
    pos = fk.positions
    force = model.masses[:, None] * acc
    moment = np.einsum("bij,bj->bi", inertia_w, omega_dot) + np.cross(
        omega, np.einsum("bij,bj->bi", inertia_w, omega)
    )
    # children come after their parents, so each body's subtree is complete
    # when it is folded into its parent
    for i in range(NUM_BODIES - 1, 0, -1):
        p = model.parents[i]
        force[p] += force[i]
        moment[p] += moment[i] + cross3(pos[i] - pos[p], force[i])
    tau = np.empty(NV)
    tau[0:3] = force[0]
    tau[3:] = np.einsum("bji,bj->bi", axes, moment).ravel()
    return tau


def _crba(
    model: HumanoidModel, fk: FKResult, subspace: np.ndarray, inertia_w: np.ndarray
) -> np.ndarray:
    """Joint-space inertia matrix by the composite-rigid-body algorithm: the
    block of joint i and an ancestor j is S_j^T I_c(i) S_i, with I_c(i) the
    spatial inertia of the subtree at i about the world origin."""
    mass = model.masses[:, None, None]
    cc = skew_rows(fk.positions)
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
        support = model.support_cols[i]
        block = subspace[:, support].T @ (composite[i] @ subspace[:, cols_i])
        m[support, cols_i] = block
        m[cols_i, support] = block.T
    return m


@dataclass
class FrameDynamics:
    """Rigid-body quantities of one state (q, qd), from one forward sweep.

    `m` and `h` are the terms of M(q) qdd + h(q, qd) = tau + Jc^T lambda.
    The point methods give a body-fixed point's world position, Jacobian,
    velocity and velocity-product acceleration Jdot qd (no gravity).
    """

    model: HumanoidModel
    fk: FKResult
    subspace: np.ndarray  # (6, 75) world motion subspace, see _motion_subspace
    omega: np.ndarray  # (24, 3) world angular velocities
    vel: np.ndarray  # (24, 3) joint-origin linear velocities
    omega_dot_bias: np.ndarray  # (24, 3) angular accelerations at qdd = 0
    acc_bias: np.ndarray  # (24, 3) joint-origin accelerations at qdd = 0, no gravity
    m: np.ndarray  # (75, 75) joint-space inertia matrix
    h: np.ndarray  # (75,) Coriolis, centrifugal and gravity generalized forces

    def _arm(self, body_id: int, local_point: np.ndarray) -> np.ndarray:
        return self.fk.rotations[body_id] @ np.asarray(local_point, dtype=float)

    def point_position(self, body_id: int, local_point: np.ndarray) -> np.ndarray:
        return self.fk.positions[body_id] + self._arm(body_id, local_point)

    def point_jacobian(self, body_id: int, local_point: np.ndarray) -> np.ndarray:
        """3x75 Jacobian of a body-fixed point; see point_jacobian."""
        return _point_jacobian(self.model, self.fk, self.subspace, body_id, local_point)

    def point_velocity(self, body_id: int, local_point: np.ndarray) -> np.ndarray:
        return self.vel[body_id] + cross3(self.omega[body_id], self._arm(body_id, local_point))

    def point_bias_acceleration(self, body_id: int, local_point: np.ndarray) -> np.ndarray:
        """Jdot @ qd for the point: its acceleration with qdd = 0 and no gravity."""
        arm = self._arm(body_id, local_point)
        w = self.omega[body_id]
        return (
            self.acc_bias[body_id]
            + cross3(self.omega_dot_bias[body_id], arm)
            + cross3(w, cross3(w, arm))
        )


def frame_dynamics(model: HumanoidModel, q: np.ndarray, qd: np.ndarray) -> FrameDynamics:
    """Forward kinematics once, then one forward sweep at qdd = 0.

    M comes from the CRBA over the sweep's joint axes, h from one RNEA
    backward pass over its accelerations with gravity folded in; the
    contact-point quantities are methods of the result.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    fk = forward_kinematics(model, q)
    axes = _joint_axes(model, q, fk)
    subspace = _motion_subspace(fk, axes)
    omega, vel, omega_dot, acc = _forward_sweep(model, q, qd, np.zeros(NV), fk, axes)
    inertia_w = _world_inertias(model, fk)
    m = _crba(model, fk, subspace, inertia_w)
    h = _backward_pass(model, fk, axes, inertia_w, omega, omega_dot, acc - model.gravity)
    return FrameDynamics(model, fk, subspace, omega, vel, omega_dot, acc, m, h)


def point_jacobian(
    model: HumanoidModel,
    q: np.ndarray,
    body_id: int,
    local_point: np.ndarray,
    fk: Optional[FKResult] = None,
) -> np.ndarray:
    """3x75 Jacobian of a body-fixed point: world point velocity = J @ qd.

    Columns of joints off the root-to-body path are zero.
    """
    q = np.asarray(q, dtype=float)
    if fk is None:
        fk = forward_kinematics(model, q)
    subspace = _motion_subspace(fk, _joint_axes(model, q, fk))
    return _point_jacobian(model, fk, subspace, body_id, local_point)


def mass_matrix(model: HumanoidModel, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix M(q), symmetric positive definite."""
    return frame_dynamics(model, q, np.zeros(NV)).m


def nonlinear_effects(model: HumanoidModel, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
    """Coriolis, centrifugal and gravity generalized forces h(q, qd)."""
    return frame_dynamics(model, q, qd).h


def inverse_dynamics(
    model: HumanoidModel, q: np.ndarray, qd: np.ndarray, qdd: np.ndarray
) -> np.ndarray:
    """Generalized forces for the given motion, recursive Newton-Euler.

    Returns M(q) qdd + h(q, qd), with qdd pushed through the forward sweep;
    gravity is folded in through a fictitious base acceleration of -gravity.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    fk = forward_kinematics(model, q)
    axes = _joint_axes(model, q, fk)
    omega, _, omega_dot, acc = _forward_sweep(model, q, qd, qdd, fk, axes)
    inertia_w = _world_inertias(model, fk)
    return _backward_pass(model, fk, axes, inertia_w, omega, omega_dot, acc - model.gravity)


def integrate(state: GeneralizedState, dt: float) -> GeneralizedState:
    """Explicit update: position with the current velocity, then velocity.

        q(t+1)  = q(t)  + qd(t) dt
        qd(t+1) = qd(t) + qdd(t) dt

    Applied component-wise to all generalized coordinates, including the
    exponential rotation coordinates.
    """
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if not (
        np.isfinite(state.q).all() and np.isfinite(state.qd).all() and np.isfinite(state.qdd).all()
    ):
        raise InvalidStateError("state contains non-finite values")
    return GeneralizedState(
        state.q + state.qd * dt,
        state.qd + state.qdd * dt,
        state.qdd.copy(),
    )


def kinetic_energy(model: HumanoidModel, q: np.ndarray, qd: np.ndarray) -> float:
    m = mass_matrix(model, q)
    return 0.5 * float(qd @ m @ qd)


# --- model file I/O -------------------------------------------------------


def load_model(path: str | Path) -> HumanoidModel:
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def model_from_dict(doc: dict) -> HumanoidModel:
    bodies = []
    for rec in doc["bodies"]:
        if "inertia" in rec:
            inertia = np.asarray(rec["inertia"], dtype=float)
        else:
            inertia = np.diag(np.asarray(rec["inertia_diag"], dtype=float))
        ee = {
            e["name"]: np.asarray(e["offset_xyz"], dtype=float)
            for e in rec.get("end_effectors", [])
        }
        bodies.append(
            Body(
                name=rec["name"],
                parent=int(rec["parent"]),
                offset=np.asarray(rec["offset_xyz"], dtype=float),
                mass=float(rec["mass"]),
                inertia=inertia,
                end_effectors=ee,
            )
        )
    gravity = np.asarray(doc.get("gravity", DEFAULT_GRAVITY), dtype=float)
    return HumanoidModel(bodies, gravity)


def save_model(model: HumanoidModel, path: str | Path) -> None:
    doc = {
        "name": "physmotion-humanoid",
        "gravity": [float(v) for v in model.gravity],
        "bodies": [
            {
                "name": b.name,
                "parent": int(b.parent),
                "offset_xyz": [float(v) for v in b.offset],
                "mass": float(b.mass),
                "inertia": [[float(v) for v in row] for row in b.inertia],
                "end_effectors": [
                    {"name": n, "offset_xyz": [float(v) for v in off]}
                    for n, off in b.end_effectors.items()
                ],
            }
            for b in model.bodies
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


_default_model_cache: Optional[HumanoidModel] = None


def default_model() -> HumanoidModel:
    """The shipped 24-body skeleton (70 kg anthropometric defaults)."""
    global _default_model_cache
    if _default_model_cache is None:
        path = resources.files("physmotion").joinpath("data/default_model.json")
        with path.open() as fh:
            _default_model_cache = model_from_dict(json.load(fh))
    return _default_model_cache
