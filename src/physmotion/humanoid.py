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

`frame_dynamics` is the one route to the rigid-body terms: one SO(3) pass
(`rotations.exp_and_jacobians`) gives the rotation, left Jacobian and its
derivative of all 24 rotation vectors, then it runs forward kinematics on
those rotations and one forward sweep at qdd = 0, and derives M (CRBA), h
(RNEA backward pass) and the contact-point terms from them.

No pass steps body by body; the tree is walked two ways, each term
computed for all 24 bodies at once. Rotation products and subtree sums go
by depth level (`HumanoidModel.levels`): the rotations root to leaves, and
the one fold (`_fold`) leaves to root for the CRBA composite inertias, the
RNEA forces and the RNEA moments. Sums down the tree go by path: the joint
origins and the forward sweep's velocities and accelerations are running
sums along the root-to-leaf paths (`HumanoidModel.paths`, `_path_sums`),
for one q or a stack. Both add in the order of the body-by-body
recursions, so every value has their bits. `FrameDynamics.points` gives
any number of body-fixed points' positions, Jacobians, velocities and
bias accelerations in one call.

The model owns the contact points: `HumanoidModel.contact_bodies` (4,) and
`contact_offsets` (4, 3), in scene.CONTACT_NAMES order. They come from the
bodies' end effectors, which must name each contact point once and nothing
else; `contact_positions` places them for any FK result.

Sign conventions: gravity enters the nonlinear-effects vector so that
unsupported free fall solves qdd_y = -9.81 with zero torques and contact
forces under tau + Jc^T lambda = M qdd + h.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, InvalidStateError
from .frames import NumericField
from .rotations import _EYE, cross_rows, exp_and_jacobians, exp_so3, matvec_rows, skew_rows
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
    # contact-point name (scene.CONTACT_NAMES) -> offset in the body frame (m)
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
            b.inertia = inertia
        # the contact points, CONTACT_NAMES order: every end effector is one
        # of them, and each of them is on exactly one body
        contacts: Dict[str, Tuple[int, np.ndarray]] = {}
        for i, b in enumerate(bodies):
            for name, off in b.end_effectors.items():
                if name not in CONTACT_NAMES:
                    raise InvalidInputError(f"body {b.name}: end effector {name} is not a contact point")
                if name in contacts:
                    raise InvalidInputError(
                        f"body {b.name}: contact point {name} is already on body {bodies[contacts[name][0]].name}"
                    )
                off = np.asarray(off, dtype=float).reshape(3)
                if not np.isfinite(off).all():
                    raise InvalidInputError(f"body {b.name}: end effector {name} offset must be finite")
                contacts[name] = (i, off)
        missing = [name for name in CONTACT_NAMES if name not in contacts]
        if missing:
            raise InvalidInputError(f"model has no end effector for contact point(s) {', '.join(missing)}")
        self.contact_bodies = np.array([contacts[name][0] for name in CONTACT_NAMES])
        self.contact_offsets = np.array([contacts[name][1] for name in CONTACT_NAMES])
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
        # NUM_BODIES
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
        # _path_sums' gathers: the paths' rows of a (NUM_BODIES + 1, k, d)
        # terms array, flattened, and per k where each body's sum lands in the
        # flattened running sums (the last of its k terms along its path)
        self._path_rows = self.paths.ravel()
        self._path_ends = {k: slot_row * (k * self.paths.shape[1]) + k * depth + k - 1 for k in (1, 2)}
        # the levels as slices where their bodies or parents are consecutive
        # (every level of the SMPL numbering): a slice reads a view
        self._level_index = tuple((_as_index(b), _as_index(p)) for b, p in self.levels)
        # _fold's rounds, deepest level first: a level's siblings add in
        # descending index order, so round r of a level adds each parent's
        # r-th child in that order, and a round names each parent once
        rounds = []
        for level, above in reversed(self.levels):
            level, above = level[::-1], above[::-1]
            rank = np.array([np.count_nonzero(above[:j] == p) for j, p in enumerate(above)])
            rounds += [(_as_index(above[rank == r]), _as_index(level[rank == r])) for r in range(rank.max() + 1)]
        self._fold_rounds = tuple(rounds)
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
        # as one gather: for M[a, b], the flat index into the products of
        # the entry (a, b), or (b, a), or NV * NV for a zero
        entry = np.arange(NV * NV).reshape(NV, NV)
        from_column = ancestor & (body_of[:, None] != body_of)
        self._mass_entries = np.where(from_column, entry, np.where(ancestor.T, entry.T, NV * NV))

    @staticmethod
    def joint_cols(body: int) -> slice:
        """Generalized-coordinate columns driven by this body's joint."""
        if body == 0:
            return slice(0, 6)
        return slice(3 + 3 * body, 6 + 3 * body)


def _as_index(ids: np.ndarray):
    """ids (k,) as a slice when they step by +1 or -1, else ids itself."""
    if len(ids) == 1:
        return slice(int(ids[0]), int(ids[0]) + 1)
    step = int(ids[1] - ids[0])
    if step in (1, -1) and np.array_equal(np.diff(ids), np.full(len(ids) - 1, step)):
        stop = int(ids[-1]) + step
        return slice(int(ids[0]), None if stop < 0 else stop, step)
    return ids


@dataclass
class GeneralizedState:
    """What one frame hands the next besides its solution: q and qd."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        for name in ("q", "qd"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if v.shape != (NV,):
                raise InvalidStateError(f"{name} must have length {NV}, got {v.shape}")
            setattr(self, name, v)


@dataclass
class FKResult:
    """World pose of every body, for one q or a stack of them."""

    rotations: np.ndarray  # (..., 24, 3, 3) world rotations
    positions: np.ndarray  # (..., 24, 3) world joint origins


# frames forward_kinematics walks at a time; bounds its temporaries to
# about 1.5 MB however many frames the stack holds
_FK_BLOCK = 256


def forward_kinematics(
    model: HumanoidModel, q: np.ndarray, joint_rot: Optional[np.ndarray] = None
) -> FKResult:
    """World transform of every body: parent transform * offset * joint rotation.

    q is one generalized position (75,) or a stack (..., 75), e.g. the (T, 75)
    positions of a sequence; the result carries the same leading axes. A
    stack is walked in blocks of _FK_BLOCK frames written into the result,
    so the memory beyond the result stays fixed however long the clip; no
    frame's arithmetic depends on the others, so the bits do not depend on
    the block. A block's joint rotations come from one exp_so3 call, or are
    joint_rot (..., 24, 3, 3) when the caller has them already (the
    dynamics take them from the same pass as the left Jacobians). Every
    frame's rotations are composed down the tree one level at a time; the
    joint origins x_i = x_p + R_p offset_i are then summed along the
    root-to-leaf paths (_path_sums), as the forward sweep sums velocities.
    """
    q = np.asarray(q, dtype=float)
    lead = q.shape[:-1]
    q = q.reshape(-1, NV)
    n = len(q)
    if joint_rot is not None:
        joint_rot = joint_rot.reshape(n, NUM_BODIES, 3, 3)
    rot = np.empty((n, NUM_BODIES, 3, 3))
    pos = np.empty((n, NUM_BODIES, 3))
    for s in range(0, n, _FK_BLOCK):
        block = slice(s, s + _FK_BLOCK)
        _fk_block(model, q[block], None if joint_rot is None else joint_rot[block], rot[block], pos[block])
    return FKResult(rot.reshape(lead + rot.shape[1:]), pos.reshape(lead + pos.shape[1:]))


def _fk_block(
    model: HumanoidModel, q: np.ndarray, joint_rot: Optional[np.ndarray], rot_out: np.ndarray, pos_out: np.ndarray
) -> None:
    """forward_kinematics of the (n, 75) frames q into rot_out (n, 24, 3, 3)
    and pos_out (n, 24, 3); joint_rot is (n, 24, 3, 3) or None."""
    n = len(q)
    # body-major (24, frames, ...) while walking, so that a level's gathers
    # and scatters move whole blocks of frames
    if joint_rot is None:
        joint_rot = exp_so3(q[:, 3:].reshape(n, NUM_BODIES, 3).transpose(1, 0, 2))
    else:
        joint_rot = joint_rot.transpose(1, 0, 2, 3)
    rot = np.empty((NUM_BODIES, n, 3, 3))
    rot[0] = joint_rot[0]
    for bodies, parents in model._level_index:
        rot[bodies] = rot[parents] @ joint_rot[bodies]
    # the path sums' terms, the frames side by side in d: the root
    # translation, then each body's arm R_p offset_i
    terms = np.empty((NUM_BODIES + 1, 1, 3 * n))
    np.matmul(rot.take(model.parent_rows, axis=0), model.offsets[:, None, :, None],
              out=terms[:NUM_BODIES].reshape(NUM_BODIES, n, 3, 1))
    terms[0, 0] = q[:, 0:3].ravel()
    terms[NUM_BODIES] = 0.0
    rot_out[...] = rot.transpose(1, 0, 2, 3)
    pos_out[...] = _path_sums(model, terms).reshape(NUM_BODIES, n, 3).transpose(1, 0, 2)


def _body_points(fk: FKResult, bodies: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(R_b o, x_b + R_b o), each (..., k, 3), of the points o = offsets[j]
    (k, 3) fixed to bodies b = bodies[j] (k,) for an (..., 24) FK result."""
    arm = matvec_rows(fk.rotations.take(bodies, axis=-3), offsets)
    return arm, fk.positions.take(bodies, axis=-2) + arm


def contact_positions(model: HumanoidModel, fk: FKResult) -> np.ndarray:
    """World positions of the contact points, (..., 4, 3) in CONTACT_NAMES
    order for an (..., 24) FK result."""
    return _body_points(fk, model.contact_bodies, model.contact_offsets)[1]


def _joint_axes(model: HumanoidModel, fk: FKResult, jl: np.ndarray) -> np.ndarray:
    """(24, 3, 3) world joint axes from the joints' left Jacobians jl (24, 3, 3),
    which it overwrites: axes[i] @ (joint i rates) is the angular velocity of
    body i relative to its parent; axes[0] maps root-orientation rates to the
    base's angular velocity."""
    jl[1:] = fk.rotations.take(model.parents[1:], axis=0) @ jl[1:]
    return jl


def _motion_subspace(cc: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """(6, 75) world motion subspace, Plucker rows (omega; velocity of the
    body-fixed point at the world origin), from cc = skew(joint origins):
    body i's spatial velocity is S[:, support_mask[i]] @ qd[support_mask[i]]."""
    s = np.zeros((6, NV))
    s[3:, 0:3] = _EYE  # root translation
    s[:3, 3:].reshape(3, NUM_BODIES, 3)[...] = axes.transpose(1, 0, 2)
    np.matmul(cc, axes, out=s[3:, 3:].reshape(3, NUM_BODIES, 3).transpose(1, 0, 2))
    return s


def _path_sums(model: HumanoidModel, terms: np.ndarray) -> np.ndarray:
    """(24, d): x_0 = terms[0, 0] and x_i = x_p + terms[i, 0] + ... +
    terms[i, k-1] for every other body i with parent p, from terms
    (NUM_BODIES + 1, k, d) whose root row holds -0.0 after its value and
    whose last row, which pads the paths, is zero.

    The tree's one root-to-leaf walk. Each body's value is a running sum
    along a root-to-leaf path through it, and a running sum adds in sequence, so
    every x_i rounds exactly as the body-by-body recursion would (adding
    -0.0 changes no value). Recursions that share their inputs run as one,
    side by side in d (forward kinematics puts a stack's frames there); one
    with fewer terms pads them with -0.0.
    """
    k, d = terms.shape[1:]
    seq = terms.take(model._path_rows, axis=0).reshape(len(model.paths), -1, d)
    np.add.accumulate(seq, axis=1, out=seq)
    return seq.reshape(-1, d).take(model._path_ends[k], axis=0)


def _forward_sweep(
    model: HumanoidModel,
    qd: np.ndarray,
    fk: FKResult,
    axes: np.ndarray,
    jl_dot: np.ndarray,
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

    with Jdot_i = jl_dot[i], the derivative of joint i's left Jacobian. Each
    group of terms is computed for the whole tree at once, as soon as the
    parent values it needs are known, and summed down the tree in the order
    written (_path_sums); v and omegadot need only omega, so they are summed
    in one pass.
    """
    rot, pos = fk.rotations, fk.positions
    up = model.parent_rows
    thd = qd[3:].reshape(NUM_BODIES, 3)
    # omega sums the w_i, and the root's w is its value
    spins = np.empty((NUM_BODIES + 1, 1, 3))
    w_rel = spins[:NUM_BODIES, 0]
    np.matmul(axes, thd[:, :, None], out=w_rel[:, :, None])
    spins[NUM_BODIES] = 0.0
    omega = _path_sums(model, spins)
    # velocity-product term of each joint; the root's stays in world axes
    jdot = matvec_rows(jl_dot, thd)
    jdot[1:] = matvec_rows(rot.take(up[1:], axis=0), jdot[1:])

    d = pos - pos.take(up, axis=0)
    omega_up = omega.take(up, axis=0)
    pairs = np.empty((NUM_BODIES + 1, 2, 6))
    swing = cross_rows(omega_up, d)
    pairs[:NUM_BODIES, 0, :3] = swing
    pairs[:NUM_BODIES, 1, :3] = -0.0
    pairs[:NUM_BODIES, 0, 3:] = cross_rows(omega_up, w_rel)  # coriolis
    pairs[:NUM_BODIES, 1, 3:] = jdot
    pairs[0, 0, :3] = qd[0:3]
    pairs[0, 0, 3:] = jdot[0]
    pairs[0, 1, 3:] = -0.0
    pairs[NUM_BODIES] = 0.0
    sums = _path_sums(model, pairs)
    vel, omega_dot = sums[:, :3].copy(), sums[:, 3:].copy()

    pairs = np.empty((NUM_BODIES + 1, 2, 3))
    pairs[:NUM_BODIES, 0] = cross_rows(omega_dot.take(up, axis=0), d)  # tangential
    pairs[:NUM_BODIES, 1] = cross_rows(omega_up, swing)  # centripetal
    pairs[0] = ((0.0,), (-0.0,))
    pairs[NUM_BODIES] = 0.0
    acc = _path_sums(model, pairs)
    return omega, vel, omega_dot, acc


def _fold(model: HumanoidModel, rows: np.ndarray, arms: Optional[np.ndarray] = None) -> None:
    """Subtree sums of rows (24, d) in place: rows[p] += rows[i] (+ arms[i])
    for every body i with parent p, each row complete when it is added. The
    deepest level goes first and siblings in descending index, by rounds
    that name each parent once (`HumanoidModel._fold_rounds`), so every sum
    rounds as the last-to-first loop would."""
    for parents, bodies in model._fold_rounds:
        addend = rows[bodies] if arms is None else rows[bodies] + arms[bodies]
        rows[parents] += addend


def _subtree_terms(model: HumanoidModel, cc: np.ndarray, inertia_w: np.ndarray, acc: np.ndarray) -> tuple:
    """The CRBA's composite inertias I_c(i) (24, 6, 6), the spatial inertia
    of body i's subtree about the world origin, and the RNEA's subtree
    forces (24, 3), the sum of m_j acc_j over it: one fold of 39-wide rows."""
    mass = model.masses[:, None, None]
    rows = np.empty((NUM_BODIES, 39))
    composite = rows[:, :36].reshape(NUM_BODIES, 6, 6)
    np.subtract(inertia_w, mass * (cc @ cc), out=composite[:, :3, :3])
    np.multiply(mass, cc, out=composite[:, :3, 3:])
    np.multiply(-mass, cc, out=composite[:, 3:, :3])
    composite[:, 3:, 3:] = mass * _EYE
    np.multiply(model.masses[:, None], acc, out=rows[:, 36:])
    _fold(model, rows)
    return composite, rows[:, 36:]


def _backward_pass(
    model: HumanoidModel,
    fk: FKResult,
    axes: np.ndarray,
    inertia_w: np.ndarray,
    omega: np.ndarray,
    omega_dot: np.ndarray,
    force: np.ndarray,
) -> np.ndarray:
    """The RNEA backward pass: generalized forces producing the given body
    motion, from its subtree forces (gravity enters as acc - gravity). The
    moments fold with the moment of each body's subtree force about its
    parent's origin, which needs only the folded force."""
    pos = fk.positions
    moment = np.einsum("bij,bj->bi", inertia_w, omega_dot) + cross_rows(
        omega, np.einsum("bij,bj->bi", inertia_w, omega)
    )
    _fold(model, moment, cross_rows(pos - pos.take(model.parent_rows, axis=0), force))
    tau = np.empty(NV)
    tau[0:3] = force[0]
    tau[3:] = np.einsum("bji,bj->bi", axes, moment).ravel()
    return tau


def _crba(model: HumanoidModel, subspace: np.ndarray, composite: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix by the composite-rigid-body algorithm: the
    block of joint i and an ancestor j is S_j^T I_c(i) S_i, with I_c(i) the
    composite inertia (_subtree_terms).

    Every joint's I_c(i) S_i comes from one stacked product and S^T of all
    of them from one more; one gather (`HumanoidModel._mass_entries`) then
    takes each entry of M from the block the per-joint assembly would have
    written it from.
    """
    # (6, 75): I_c(i) S_i in the columns of joint i
    force = np.empty((6, NV))
    force[:, :6] = composite[0] @ subspace[:, :6]
    joints = subspace[:, 6:].reshape(6, NUM_BODIES - 1, 3).transpose(1, 0, 2)
    force[:, 6:] = (composite[1:] @ joints).transpose(1, 0, 2).reshape(6, NV - 6)
    # the blocks, then a zero for the entries off the ancestor lines
    blocks = np.empty(NV * NV + 1)
    np.matmul(subspace.T, force, out=blocks[:-1].reshape(NV, NV))
    blocks[-1] = 0.0
    return blocks.take(model._mass_entries).reshape(NV, NV)


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
        ids = bodies.tolist()
        if ids and not (0 <= min(ids) and max(ids) < NUM_BODIES):
            raise InvalidInputError(f"body ids {ids} out of range")
        arm, position = _body_points(self.fk, bodies, np.asarray(local_points, dtype=float).reshape(-1, 3))
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

    The joints' rotations, left Jacobians and Jacobian derivatives come from
    one exp_and_jacobians pass over the 24 rotation vectors. One fold gives
    the composite inertias and the subtree forces (gravity folded in); M
    comes from the CRBA over the sweep's joint axes, h from the RNEA
    backward pass, whose moments are the second fold. The contact-point
    quantities come from the result's `points`.
    """
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    joint_rot, jl, jl_dot = exp_and_jacobians(q[3:].reshape(NUM_BODIES, 3), qd[3:].reshape(NUM_BODIES, 3))
    fk = forward_kinematics(model, q, joint_rot)
    axes = _joint_axes(model, fk, jl)
    cc = skew_rows(fk.positions)
    subspace = _motion_subspace(cc, axes)
    omega, vel, omega_dot, acc = _forward_sweep(model, qd, fk, axes, jl_dot)
    inertia_w = fk.rotations @ model.inertias @ fk.rotations.transpose(0, 2, 1)
    composite, force = _subtree_terms(model, cc, inertia_w, acc - model.gravity)
    m = _crba(model, subspace, composite)
    h = _backward_pass(model, fk, axes, inertia_w, omega, omega_dot, force)
    return FrameDynamics(model, fk, subspace, omega, vel, omega_dot, acc, m, h)


def integrate(state: GeneralizedState, qdd: np.ndarray, dt: float) -> GeneralizedState:
    """Explicit update by qdd: position with the current velocity, then velocity.

        q(t+1)  = q(t)  + qd(t) dt
        qd(t+1) = qd(t) + qdd(t) dt

    Applied component-wise to all generalized coordinates, including the
    exponential rotation coordinates.
    """
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if not (np.isfinite(state.q).all() and np.isfinite(state.qd).all() and np.isfinite(qdd).all()):
        raise InvalidStateError("state contains non-finite values")
    return GeneralizedState(state.q + state.qd * dt, state.qd + qdd * dt)


# --- model file I/O -------------------------------------------------------


def load_model(path: str | Path) -> HumanoidModel:
    """model_from_dict of a JSON file; a malformed file raises
    InvalidInputError naming the file and the field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return model_from_dict(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def model_from_dict(doc: dict) -> HumanoidModel:
    """A model from its document. A missing or malformed field raises
    InvalidInputError naming its body, and so does an end effector listed
    twice in one body; a parent must be a JSON integer, a mass a JSON number,
    and an offset, an inertia and the gravity JSON numbers of their shape
    (frames.NumericField). HumanoidModel checks that they are finite, and
    checks the contact points."""
    bodies = []
    where = "model"

    def numbers(label: str, value, shape: tuple) -> np.ndarray:
        field = NumericField(label, shape, InvalidInputError, finite=False)
        return field.add(value, f"{where}: malformed field").array()[0]

    try:
        for i, rec in enumerate(doc["bodies"]):
            where = f"bodies[{i}]"
            if "inertia" in rec:
                inertia = numbers("inertia", rec["inertia"], (3, 3))
            else:
                inertia = np.diag(numbers("inertia_diag", rec["inertia_diag"], (3,)))
            ee = {}
            for e in rec.get("end_effectors", []):
                if e["name"] in ee:
                    raise InvalidInputError(f"body {rec['name']}: end effector {e['name']} is listed twice")
                ee[e["name"]] = numbers(f"end effector {e['name']} offset_xyz", e["offset_xyz"], (3,))
            # as written: int() and float() would take 4.9, "4" or true
            name, parent, mass = rec["name"], rec["parent"], rec["mass"]
            if type(parent) is not int:
                raise TypeError(f"parent must be a JSON integer, got {parent!r}")
            if type(mass) not in (int, float):
                raise TypeError(f"mass must be a JSON number, got {mass!r}")
            offset = numbers("offset_xyz", rec["offset_xyz"], (3,))
            bodies.append(Body(name, parent, offset, float(mass), inertia, ee))
        where = "model"
        gravity = numbers("gravity", doc.get("gravity", DEFAULT_GRAVITY.tolist()), (3,))
    except KeyError as exc:
        raise InvalidInputError(f"{where}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{where}: malformed field: {exc}") from exc
    return HumanoidModel(bodies, gravity)


_default_model_cache: Optional[HumanoidModel] = None


def default_model() -> HumanoidModel:
    """The shipped 24-body skeleton (70 kg anthropometric defaults)."""
    global _default_model_cache
    if _default_model_cache is None:
        path = resources.files("physmotion").joinpath("data/default_model.json")
        with path.open() as fh:
            _default_model_cache = model_from_dict(json.load(fh))
    return _default_model_cache
