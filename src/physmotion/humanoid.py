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

`frame_dynamics` is the one route to the rigid-body terms: it runs forward
kinematics and one forward sweep at qdd = 0, and derives M (CRBA), h (RNEA
backward pass) and the contact-point terms from them.

No forward pass steps body by body. Forward kinematics composes the tree
one depth level at a time (`HumanoidModel.levels`), for one q or a stack.
The forward sweep evaluates each group of per-body terms for all 24 bodies
at once (the stacked left Jacobians and their derivatives, the cross
products) and sums them along the root-to-leaf paths
(`HumanoidModel.paths`) in the order of the recursion, so every value has
the bits of the body-by-body loop. `FrameDynamics.points` gives any number
of body-fixed points' positions, Jacobians, velocities and bias
accelerations in one call.

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
from .rotations import cross_rows, exp_so3, left_jacobian, left_jacobian_dot, matvec_rows, skew_rows
from .scene import CONTACT_NAMES

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
            if not 0.0 < b.mass < np.inf:  # NaN fails the comparison
                raise InvalidInputError(f"body {b.name}: mass must be finite and positive")
            inertia = np.asarray(b.inertia, dtype=float)
            if inertia.shape != (3, 3) or not np.isfinite(inertia).all():
                raise InvalidInputError(f"body {b.name}: inertia must be a finite 3x3 matrix")
            if np.max(np.abs(inertia - inertia.T)) > 1e-12 or np.linalg.eigvalsh(inertia).min() <= 0.0:
                raise InvalidInputError(f"body {b.name}: inertia must be symmetric positive definite")
            b.offset = np.asarray(b.offset, dtype=float).reshape(3)
            if not np.isfinite(b.offset).all():
                raise InvalidInputError(f"body {b.name}: offset must be finite")
            for name, off in b.end_effectors.items():
                if not np.isfinite(off).all():
                    raise InvalidInputError(f"body {b.name}: end effector {name} offset must be finite")
            b.inertia = inertia
        self.bodies: Tuple[Body, ...] = tuple(bodies)
        self.gravity = np.asarray(gravity, dtype=float).reshape(3)
        if not np.isfinite(self.gravity).all():
            raise InvalidInputError("gravity must be finite")
        self.parents = np.array([b.parent for b in bodies])
        # each body's parent row with the root pointing at itself, for
        # gathering every body's parent term at once (the root's is unused)
        self.parent_rows = np.maximum(self.parents, 0)
        depth = np.zeros(NUM_BODIES, dtype=int)
        for i in range(1, NUM_BODIES):
            depth[i] = depth[self.parents[i]] + 1
        # the tree below the root by depth: (bodies, their parents) per level,
        # bodies ascending; a walk over them meets every parent before its
        # children, and siblings share a level
        self.levels: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(
            (np.flatnonzero(depth == k), self.parents[depth == k]) for k in range(1, depth.max() + 1)
        )
        # the root-to-leaf paths, one row per leaf, padded at the end with
        # NUM_BODIES; path_slot holds, for every body, a (row, position) of it
        paths = []
        for leaf in sorted(set(range(NUM_BODIES)) - set(self.parents.tolist())):
            path = [leaf]
            while path[-1] != 0:
                path.append(int(self.parents[path[-1]]))
            paths.append(path[::-1])
        self.paths = np.full((len(paths), depth.max() + 1), NUM_BODIES)
        slot_row = np.empty(NUM_BODIES, dtype=int)
        for r, path in enumerate(paths):
            self.paths[r, : len(path)] = path
            slot_row[path] = r
        self.path_slot = (slot_row, depth)
        self.total_mass = float(sum(b.mass for b in bodies))
        self.masses = np.array([b.mass for b in bodies])
        self.inertias = np.stack([b.inertia for b in bodies])
        self.offsets = np.stack([b.offset for b in bodies])
        # support_mask[i]: the generalized columns of body i's joint and of
        # every ancestor's
        self.support_mask = np.zeros((NUM_BODIES, NV), dtype=bool)
        for i, b in enumerate(bodies):
            if b.parent != -1:
                self.support_mask[i] = self.support_mask[b.parent]
            self.support_mask[i, self.joint_cols(i)] = True
        # where the CRBA reads M[a, b] from, with a and b generalized columns:
        # the block of b's body when a's body is a strict ancestor of it, the
        # transposed block of a's body when b's body is an ancestor of a's or
        # the same body, and zero off the ancestor lines
        body_of = np.repeat(np.arange(NUM_BODIES), [6] + [3] * (NUM_BODIES - 1))
        ancestor = self.support_mask[body_of].T
        self.mass_blocks = (ancestor & (body_of[:, None] != body_of), ancestor.T)
        # end effector registry in a stable order
        self.end_effectors: List[Tuple[str, int, np.ndarray]] = []
        for i, b in enumerate(bodies):
            for name, off in b.end_effectors.items():
                self.end_effectors.append((name, i, np.asarray(off, dtype=float).reshape(3)))
        self.end_effectors.sort(key=lambda e: e[0])

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

    def copy(self) -> "GeneralizedState":
        return GeneralizedState(self.q.copy(), self.qd.copy(), self.qdd.copy())


@dataclass
class FKResult:
    """World pose of every body, for one q or a stack of them."""

    rotations: np.ndarray  # (..., 24, 3, 3) world rotations
    positions: np.ndarray  # (..., 24, 3) world joint origins


def forward_kinematics(model: HumanoidModel, q: np.ndarray) -> FKResult:
    """World transform of every body: parent transform * offset * joint rotation.

    q is one generalized position (75,) or a stack (..., 75), e.g. the (T, 75)
    positions of a sequence; the result carries the same leading axes. The
    joint rotations of all bodies and frames come from one exp_so3 call, and
    every frame is composed down the tree one level at a time.
    """
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    q = q.reshape(-1, NV)
    # body-major (24, frames, ...) while walking, so that a level's gathers
    # and scatters move whole blocks of frames
    joint_rot = exp_so3(q[:, 3:].reshape(-1, NUM_BODIES, 3).transpose(1, 0, 2))
    rot = np.empty((NUM_BODIES, len(q), 3, 3))
    pos = np.empty((NUM_BODIES, len(q), 3))
    rot[0] = joint_rot[0]
    pos[0] = q[:, 0:3]
    for bodies, parents in model.levels:
        parent_rot = rot[parents]
        pos[bodies] = pos[parents] + matvec_rows(parent_rot, model.offsets[bodies][:, None])
        rot[bodies] = parent_rot @ joint_rot[bodies]
    rot = np.ascontiguousarray(rot.transpose(1, 0, 2, 3))
    pos = np.ascontiguousarray(pos.transpose(1, 0, 2))
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
    axes = left_jacobian(q[3:].reshape(NUM_BODIES, 3))
    axes[1:] = fk.rotations[model.parents[1:]] @ axes[1:]
    return axes


def _motion_subspace(fk: FKResult, axes: np.ndarray) -> np.ndarray:
    """(6, 75) world motion subspace, Plucker rows (omega; velocity of the
    body-fixed point at the world origin): body i's spatial velocity is
    S[:, support_mask[i]] @ qd[support_mask[i]]."""
    s = np.zeros((6, NV))
    s[3:, 0:3] = np.eye(3)  # root translation
    s[:3, 3:] = axes.transpose(1, 0, 2).reshape(3, 3 * NUM_BODIES)
    s[3:, 3:] = (skew_rows(fk.positions) @ axes).transpose(1, 0, 2).reshape(3, 3 * NUM_BODIES)
    return s


def _path_sums(model: HumanoidModel, root_value: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(24, 3): x_0 = root_value and x_i = x_p + terms[i, 0] + ... + terms[i, k-1]
    for every other body i with parent p, from terms (24, k, 3).

    Each body's value is a running sum along a root-to-leaf path through it,
    and np.cumsum adds in sequence, so every x_i rounds exactly as the
    body-by-body recursion would.
    """
    paths = model.paths[:, 1:]
    k = terms.shape[1]
    padded = np.concatenate([terms, np.zeros((1, k, 3))])  # row NUM_BODIES pads the paths
    seq = np.empty((len(paths), 1 + k * paths.shape[1], 3))
    seq[:, 0] = root_value
    seq[:, 1:] = padded[paths].reshape(len(paths), -1, 3)
    rows, depth = model.path_slot
    return np.cumsum(seq, axis=1)[rows, k * depth]


def _forward_sweep(
    model: HumanoidModel,
    q: np.ndarray,
    qd: np.ndarray,
    fk: FKResult,
    axes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forward recursion at qdd = 0, root to leaves: every body's world
    angular velocity, joint-origin velocity, angular acceleration and
    joint-origin acceleration (each 24 x 3). Gravity is not in the
    accelerations.

    With d_i = x_i - x_p the joint-origin offset from the parent p,

        omega_i     = omega_p + w_i,   w_i = axes_i thd_i
        v_i         = v_p + omega_p x d_i
        omegadot_i  = omegadot_p + omega_p x w_i + R_p Jdot_i thd_i
        a_i         = a_p + omegadot_p x d_i + omega_p x (omega_p x d_i)

    Each group of terms is computed for the whole tree at once, as soon as
    the parent values it needs are known, and summed down the tree in the
    order written (_path_sums).
    """
    rot, pos = fk.rotations, fk.positions
    up = model.parent_rows
    th, thd = (x[3:].reshape(NUM_BODIES, 3) for x in (q, qd))
    w_rel = matvec_rows(axes, thd)
    # velocity-product term of each joint; the root's stays in world axes
    jdot = matvec_rows(left_jacobian_dot(th, thd), thd)
    jdot[1:] = matvec_rows(rot[up[1:]], jdot[1:])
    omega = _path_sums(model, w_rel[0], w_rel[:, None])

    d = pos - pos[up]
    omega_up = omega[up]
    vel = _path_sums(model, qd[0:3], cross_rows(omega_up, d)[:, None])
    coriolis = cross_rows(omega_up, w_rel)
    omega_dot = _path_sums(model, jdot[0], np.stack([coriolis, jdot], axis=1))

    tangential = cross_rows(omega_dot[up], d)
    centripetal = cross_rows(omega_up, cross_rows(omega_up, d))
    acc = _path_sums(model, np.zeros(3), np.stack([tangential, centripetal], axis=1))
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
    moment = np.einsum("bij,bj->bi", inertia_w, omega_dot) + cross_rows(
        omega, np.einsum("bij,bj->bi", inertia_w, omega)
    )
    # children come after their parents, so each body's subtree is complete
    # when it is folded into its parent; the moment of a body's subtree force
    # about its parent's origin needs only that final force, so the moments
    # are taken in one pass between the two folds
    parents = model.parents.tolist()
    for i in range(NUM_BODIES - 1, 0, -1):
        force[parents[i]] += force[i]
    arm_moment = cross_rows(pos - pos[model.parent_rows], force)
    for i in range(NUM_BODIES - 1, 0, -1):
        moment[parents[i]] += moment[i] + arm_moment[i]
    tau = np.empty(NV)
    tau[0:3] = force[0]
    tau[3:] = np.einsum("bji,bj->bi", axes, moment).ravel()
    return tau


def _crba(
    model: HumanoidModel, fk: FKResult, subspace: np.ndarray, inertia_w: np.ndarray
) -> np.ndarray:
    """Joint-space inertia matrix by the composite-rigid-body algorithm: the
    block of joint i and an ancestor j is S_j^T I_c(i) S_i, with I_c(i) the
    spatial inertia of the subtree at i about the world origin.

    Every joint's I_c(i) S_i comes from one stacked product and S^T of all
    of them from one more; `HumanoidModel.mass_blocks` then keeps each entry
    of M from the block the per-joint assembly would have written it from.
    """
    mass = model.masses[:, None, None]
    cc = skew_rows(fk.positions)
    composite = np.empty((NUM_BODIES, 6, 6))
    composite[:, :3, :3] = inertia_w - mass * (cc @ cc)
    composite[:, :3, 3:] = mass * cc
    composite[:, 3:, :3] = -mass * cc
    composite[:, 3:, 3:] = mass * np.eye(3)
    for i in range(NUM_BODIES - 1, 0, -1):
        composite[model.parents[i]] += composite[i]

    # (6, 75): I_c(i) S_i in the columns of joint i
    force = np.empty((6, NV))
    force[:, :6] = composite[0] @ subspace[:, :6]
    joints = subspace[:, 6:].reshape(6, NUM_BODIES - 1, 3).transpose(1, 0, 2)
    force[:, 6:] = (composite[1:] @ joints).transpose(1, 0, 2).reshape(6, NV - 6)
    blocks = subspace.T @ force
    from_column, from_row = model.mass_blocks
    return np.where(from_column, blocks, np.where(from_row, blocks.T, 0.0))


@dataclass
class PointKinematics:
    """World terms of k body-fixed points in one state."""

    position: np.ndarray  # (k, 3)
    jacobian: np.ndarray  # (k, 3, 75): point velocity = jacobian @ qd
    velocity: np.ndarray  # (k, 3)
    bias: np.ndarray  # (k, 3) Jdot @ qd: the acceleration at qdd = 0, no gravity


@dataclass
class FrameDynamics:
    """Rigid-body quantities of one state (q, qd), from one forward sweep.

    `m` and `h` are the terms of M(q) qdd + h(q, qd) = tau + Jc^T lambda.
    `points` gives body-fixed points' world positions, Jacobians, velocities
    and velocity-product accelerations Jdot qd (no gravity) in one call.
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

    def points(self, bodies: Sequence[int], local_points: np.ndarray) -> PointKinematics:
        """The points local_points[j] (k, 3) fixed to bodies[j] (k,).

        A point p's velocity is v(origin) + omega x p over the columns of its
        body's support, so its Jacobian is zero in every other column.
        """
        bodies = np.asarray(bodies, dtype=int).reshape(-1)
        if np.any((bodies < 0) | (bodies >= NUM_BODIES)):
            raise InvalidInputError(f"body ids {bodies.tolist()} out of range")
        arm = matvec_rows(self.fk.rotations[bodies], np.asarray(local_points, dtype=float).reshape(-1, 3))
        position = self.fk.positions[bodies] + arm
        jac = self.subspace[3:] - skew_rows(position) @ self.subspace[:3]
        w = self.omega[bodies]
        return PointKinematics(
            position=position,
            jacobian=np.where(self.model.support_mask[bodies][:, None, :], jac, 0.0),
            velocity=self.vel[bodies] + cross_rows(w, arm),
            bias=(
                self.acc_bias[bodies]
                + cross_rows(self.omega_dot_bias[bodies], arm)
                + cross_rows(w, cross_rows(w, arm))
            ),
        )


def frame_dynamics(model: HumanoidModel, q: np.ndarray, qd: np.ndarray) -> FrameDynamics:
    """Forward kinematics once, then one forward sweep at qdd = 0.

    M comes from the CRBA over the sweep's joint axes, h from one RNEA
    backward pass over its accelerations with gravity folded in; the
    contact-point quantities come from the result's `points`.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    fk = forward_kinematics(model, q)
    axes = _joint_axes(model, q, fk)
    subspace = _motion_subspace(fk, axes)
    omega, vel, omega_dot, acc = _forward_sweep(model, q, qd, fk, axes)
    inertia_w = _world_inertias(model, fk)
    m = _crba(model, fk, subspace, inertia_w)
    h = _backward_pass(model, fk, axes, inertia_w, omega, omega_dot, acc - model.gravity)
    return FrameDynamics(model, fk, subspace, omega, vel, omega_dot, acc, m, h)


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


# --- model file I/O -------------------------------------------------------


def load_model(path: str | Path) -> HumanoidModel:
    """model_from_dict of a JSON file; a malformed file raises
    InvalidInputError naming the file and the field."""
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def model_from_dict(doc: dict) -> HumanoidModel:
    """A model from its document. A missing or malformed field raises
    InvalidInputError naming its body, and so does a model without an end
    effector for each contact point (scene.CONTACT_NAMES)."""
    bodies = []
    where = "model"
    try:
        for i, rec in enumerate(doc["bodies"]):
            where = f"bodies[{i}]"
            if "inertia" in rec:
                inertia = np.asarray(rec["inertia"], dtype=float)
            else:
                inertia = np.diag(np.asarray(rec["inertia_diag"], dtype=float).reshape(3))
            ee = {
                e["name"]: np.asarray(e["offset_xyz"], dtype=float).reshape(3)
                for e in rec.get("end_effectors", [])
            }
            bodies.append(
                Body(
                    name=rec["name"],
                    parent=int(rec["parent"]),
                    offset=np.asarray(rec["offset_xyz"], dtype=float).reshape(3),
                    mass=float(rec["mass"]),
                    inertia=inertia,
                    end_effectors=ee,
                )
            )
        where = "model"
        gravity = np.asarray(doc.get("gravity", DEFAULT_GRAVITY), dtype=float).reshape(3)
    except KeyError as exc:
        raise InvalidInputError(f"{where}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{where}: malformed field: {exc}") from exc
    model = HumanoidModel(bodies, gravity)
    missing = sorted(set(CONTACT_NAMES) - {name for name, _, _ in model.end_effectors})
    if missing:
        raise InvalidInputError(f"model has no end effector for contact point(s) {', '.join(missing)}")
    return model


_default_model_cache: Optional[HumanoidModel] = None


def default_model() -> HumanoidModel:
    """The shipped 24-body skeleton (70 kg anthropometric defaults)."""
    global _default_model_cache
    if _default_model_cache is None:
        path = resources.files("physmotion").joinpath("data/default_model.json")
        with path.open() as fh:
            _default_model_cache = model_from_dict(json.load(fh))
    return _default_model_cache
