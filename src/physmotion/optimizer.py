"""Per-frame constrained quadratic program over floating-base dynamics.

Each frame solves for accelerations and contact forces x = (qdd, lambda)

    min  E_pd + E_reg
    s.t. M[:6] qdd + h[:6] = Jc[:, :6]^T lambda   (unactuated floating base)
         lambda in linearized friction cone      (per active contact)
         Jc qdd + Jcdot qd = a_corr              (no sliding, Baumgarte)
         qdd[0:3] = future-frame target          (no drifting, when available)

The joint torques are not decision variables: they enter only the actuated
rows of the equation of motion, so they are recovered by substitution,
tau[6:] = M[6:] qdd + h[6:] - Jc[:, 6:]^T lambda, and those rows hold by
construction (tau[0:6] = 0: the floating base is unactuated).

E_pd combines an angle-space PD toward the reference pose and a Cartesian PD
pulling contact-labeled foot points toward their reference world positions.
Each PD term (joint angles, root orientation, foot points and the contact
normal's Baumgarte term) is one critically damped rate w (1/s), evaluated by
`pd_accel` as w^2 e - 2 w v: kp = w^2 and kd = 2 w, a double pole at s = -w
that the explicit Euler step maps to p = 1 - w dt. The contact normal runs
at the deadbeat rate w = 1/dt (p = 0).
E_reg = reg_weight * (|lambda|^2 + |tau[6:]|^2), a quadratic in x after the
substitution.

One frame hands the next two things: the state (q, qd), integrated with
the frame's qdd, and its `FrameSolution`. The solution's `active` mask is
the next frame's held contacts, and its active inequality set seeds the
working set of the QP's dual active-set method (contact phases persist for
tens of frames, so the seed is usually the answer); the solver prunes a
stale seed and continues from what is left.

Contact activation requires the per-frame contact label and either a held
contact or foot height below surface + 1 cm; labels alone can be stale when
the kinematic input floats above the scene.

A `FrameSetup` holds what every frame of a sequence shares, built once per
sequence: the model (which holds the contact points' bodies and offsets),
the ground, the settings and gains, the angle term's weights and the cone
facet directions. `refine_sequence` also puts every labelled foot target of
the sequence on the ground with one height query
(`FrameSetup.ground_targets`), so a frame queries the ground under its
four feet only.

`frame_problem` builds a frame's QP once: contact activation, the cost and
the constraint blocks (equation-of-motion rows, no-sliding rows, the root
pin and the friction cones, with the tangent bases of every contact in one
call). Its rigid-body terms (M, h and the contact-point Jacobians,
velocities and bias accelerations) come from one `frame_dynamics` sweep, the
four feet's point terms from one `FrameDynamics.points` call, and their four
Gram products for the point-tracking cost from one stacked product.

`solve_frame` walks that problem down the FALLBACK_LEVELS chain: full, then
no-slide (no-sliding rows dropped), then no-cone (friction cone dropped as
well), every level at the settings' solver tolerance; each level only
selects the blocks it keeps. A SolverError (QPInfeasibleError included) at
a level is recorded in `FrameSolution.failures` as (level, error text) and
moves the frame to the next level; every level after the first flags the
frame degraded. When no-cone fails too, the SolverError names every level's
reason in one line. A frame with no active contact has no no-sliding rows
and no cone, so its levels are one QP: it is solved at full only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, SolverError, check_number
from .humanoid import (
    DEFAULT_DT,
    NV,
    GeneralizedState,
    HumanoidModel,
    PointKinematics,
    contact_positions,
    forward_kinematics,
    frame_dynamics,
    integrate,
)
from .motion import MotionSequence, resample_motion, sequence_from_generalized
from .qp import solve_qp
from .rotations import cross_rows, matvec_rows, vector_norms
from .scene import CONTACT_NAMES, HeightMap, query_height, query_surface

# contacts activate only when the foot is this close to the surface
CONTACT_ACTIVATION_MARGIN = 0.01
# the stabilization rests the contact point a hair above the surface so the
# strict penetration check is not tripped by integration noise
CONTACT_REST_OFFSET = 5e-4
# cap on the normal correction velocity the stabilization may command in one
# step; the unclamped spring at 5 cm depth asks for 180 m/s^2, which blows up
# the explicit integrator and slams the legs into full extension
CONTACT_MAX_CORRECTION_VELOCITY = 0.3
# extra tracking weight on the root-orientation rows: a tilt of the
# unactuated base corrupts every joint position, so when contact constraints
# conflict with the reference the compromise should land in the limbs
ROOT_ORIENT_WEIGHT_SCALE = 10.0
# degradation chain: (level, no-sliding rows, friction cone); every level
# after the first flags the frame degraded
FALLBACK_LEVELS = (
    ("full", True, True),
    ("no-slide", False, True),
    ("no-cone", False, False),
)


@dataclass
class PDGains:
    """The critically damped rate w (1/s) of each tracking term: joint
    angles, contact points and root orientation, each a PD with kp = w^2 and
    kd = 2 w (`pd_accel`).

    The root orientation gets its own, much slower rate: the base is
    unactuated, so its tracking torque must come from contact friction, and
    demands beyond the friction-cone authority (roughly 25 rad/s^2 in single
    support) saturate the cone and destabilize the stance instead of helping.
    """

    angle_rate: float = math.sqrt(2400.0)
    position_rate: float = 50.0
    root_orient_rate: float = 20.0

    def __post_init__(self):
        for name in ("angle_rate", "position_rate", "root_orient_rate"):
            check_number(name, getattr(self, name), ">= 0")


@dataclass
class QPSettings:
    friction_mu: float = 0.8
    cone_facets: int = 4
    solver_tol: float = 1e-8
    reg_weight: float = 1e-3
    # least-squares weights of the two tracking terms; large relative to
    # reg_weight so regularization does not bend the tracked accelerations
    angle_weight: float = 1e5
    point_weight: float = 1e5
    use_angle_pd: bool = True
    use_position_pd: bool = True
    use_height_map: bool = True
    use_root_supervision: bool = True

    def __post_init__(self):
        # reg_weight > 0 keeps the QP strictly convex; a negative tracking
        # weight would make it indefinite
        for name, bound in (("friction_mu", "> 0"), ("solver_tol", "> 0"), ("reg_weight", "> 0"),
                            ("angle_weight", ">= 0"), ("point_weight", ">= 0")):
            check_number(name, getattr(self, name), bound)
        if not isinstance(self.cone_facets, (int, np.integer)) or self.cone_facets < 3:
            raise InvalidInputError(f"cone_facets must be an integer >= 3, not {self.cone_facets!r}")


@dataclass
class ReferenceFrameInput:
    """Per-frame targets handed to the QP."""

    q_ref: np.ndarray  # (75,) reference generalized position, world frame
    # (4, 3) contact-point targets, CONTACT_NAMES order, tracked as given;
    # refine_sequence puts each labelled one on the ground (FrameSetup.ground_targets)
    ee_targets: np.ndarray
    contacts: np.ndarray  # (4,) bool, CONTACT_NAMES order
    root_future: Optional[np.ndarray] = None  # (2, 3) reference root translation at t+1, t+2

    def __post_init__(self):
        self.q_ref = np.asarray(self.q_ref, dtype=float).reshape(NV)
        self.ee_targets = np.asarray(self.ee_targets, dtype=float).reshape(4, 3)
        self.contacts = np.asarray(self.contacts, dtype=bool).reshape(4)
        if self.root_future is not None:
            self.root_future = np.asarray(self.root_future, dtype=float).reshape(2, 3)
        for name in ("q_ref", "ee_targets", "root_future"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise InvalidInputError(f"{name} contains non-finite values")


@dataclass
class FrameSolution:
    """One frame's solution. With the state it is all that frame hands to
    the next: `active` is the next frame's held contacts, and `level` and
    `active_set` its warm start."""

    qdd: np.ndarray  # (75,)
    active: np.ndarray  # (4,) bool, the contacts active this frame
    contact_forces: np.ndarray  # (nc, 3) world frame, one row per active contact
    tau: np.ndarray  # (75,), rows 0..5 identically zero
    level: str = "full"  # the FALLBACK_LEVELS entry the frame was solved at
    active_set: Tuple[int, ...] = ()  # active friction-cone rows of the QP
    kkt_residual: float = 0.0
    iterations: int = 0
    failures: Tuple[Tuple[str, str], ...] = ()  # (level, error text) of each level that failed

    @property
    def degraded(self) -> bool:
        return self.level != FALLBACK_LEVELS[0][0]

    @property
    def contact_names(self) -> Tuple[str, ...]:
        """The names of the active contacts, in CONTACT_NAMES order."""
        return tuple(name for name, on in zip(CONTACT_NAMES, self.active) if on)


def pd_accel(rate: float, error: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """The critically damped PD acceleration w^2 e - 2 w v of rate w (1/s),
    for an error e (target minus value) and a velocity v of one shape."""
    return rate * rate * error - 2.0 * rate * velocity


def pd_desired_accel_angles(
    q: np.ndarray, qd: np.ndarray, q_ref: np.ndarray, gains: PDGains
) -> np.ndarray:
    """Per-coordinate PD on root orientation and joint angles.

    Root-translation rows stay zero: the root is steered by the no-drifting
    constraint (or, absent it, by contact mechanics alone).
    """
    out = np.zeros(NV)
    out[3:6] = pd_accel(gains.root_orient_rate, q_ref[3:6] - q[3:6], qd[3:6])
    out[6:] = pd_accel(gains.angle_rate, q_ref[6:] - q[6:], qd[6:])
    return out


def root_supervision_accel(
    root_t2: np.ndarray, root_t1: np.ndarray, root_vel: np.ndarray, dt: float
) -> np.ndarray:
    """Root acceleration implied by the next two reference root positions."""
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    root_t2 = np.asarray(root_t2, dtype=float)
    root_t1 = np.asarray(root_t1, dtype=float)
    root_vel = np.asarray(root_vel, dtype=float)
    return (root_t2 - root_t1 - root_vel * dt) / (dt * dt)


class FrameSetup:
    """What every frame of a sequence shares, built once: the model, the
    ground, the settings and gains, and the parts of the QP that no
    state changes (the span of the contact points' Jacobians, the angle
    term's weights and the cone facet directions).

    With hm None (or use_height_map off) the ground is the horizontal plane
    at flat_ground_height.
    """

    def __init__(
        self, model: HumanoidModel, hm: Optional[HeightMap], settings: QPSettings,
        gains: Optional[PDGains] = None, dt: float = DEFAULT_DT, flat_ground_height: float = 0.0,
    ):
        self.model, self.settings, self.dt = model, settings, dt
        self.gains = gains if gains is not None else PDGains()
        self.hm = hm if settings.use_height_map else None
        self.flat_ground_height = float(flat_ground_height)
        # the contact points' Jacobians are zero past this column (their
        # bodies' supports end there), and so are their Gram products
        self.foot_cols = int(np.flatnonzero(model.support_mask[model.contact_bodies].any(axis=0)).max()) + 1
        # the angle term's weights on qdd[3:]; with angle tracking ablated, a
        # weak velocity-damping term (1% of the tracking weight) stays so the
        # otherwise-unconstrained degrees of freedom remain numerically solvable
        w = np.full(NV, 2.0 * settings.angle_weight)
        w[3:6] *= ROOT_ORIENT_WEIGHT_SCALE
        if not settings.use_angle_pd:
            w *= 0.01
        self.angle_weight = w[3:]
        ang = 2.0 * np.pi * np.arange(settings.cone_facets) / settings.cone_facets
        self.facet_cos, self.facet_sin = np.cos(ang)[:, None], np.sin(ang)[:, None]

    def ground(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Surface heights (k,) and upward normals (k, 3) below points (k, 3)."""
        if self.hm is not None:
            return query_surface(self.hm, points[:, 0], points[:, 2])
        return np.full(len(points), self.flat_ground_height), np.tile([0.0, 1.0, 0.0], (len(points), 1))

    def ground_targets(self, targets: np.ndarray, contacts: np.ndarray) -> np.ndarray:
        """The contact-point targets (..., 4, 3) with each labelled one's height
        on the ground below it (plus CONTACT_REST_OFFSET), from one height query.

        A contact label asserts ground contact, so a floating or penetrating
        reference still lands the foot where the ground actually is.
        """
        out = np.array(targets, dtype=float)
        ground = self.flat_ground_height
        if self.hm is not None:
            labelled = out[contacts]
            ground = query_height(self.hm, labelled[:, 0], labelled[:, 2])
        out[contacts, 1] = ground + CONTACT_REST_OFFSET
        return out


_Z_AXIS = np.array([0.0, 0.0, 1.0])
_X_AXIS = np.array([1.0, 0.0, 0.0])


def _tangent_bases(n: np.ndarray) -> np.ndarray:
    """(k, 2, 3): unit tangents t1 and t2 = n x t1 of each unit vector of n (k, 3)."""
    t1 = cross_rows(n, np.where(np.abs(n[:, 2:]) < 0.9, _Z_AXIS, _X_AXIS))
    t1 /= vector_norms(t1)
    return np.concatenate([t1, cross_rows(n, t1)], axis=1).reshape(-1, 2, 3)


def _cone_rows(normals: np.ndarray, tangents: np.ndarray, setup: FrameSetup) -> np.ndarray:
    """The linearized friction cones of the active contacts as G x <= 0 rows
    over x = (qdd, lambda): per contact, cone_facets facet rows d_f . lambda_c <=
    mu n . lambda_c. The facet directions sum to zero, so the rows sum to
    -cone_facets mu n . lambda_c <= 0: they imply the unilateral condition
    n . lambda_c >= 0, which therefore has no row of its own."""
    nc = len(normals)
    d = setup.facet_cos * tangents[:, :1] + setup.facet_sin * tangents[:, 1:]
    rows = d - setup.settings.friction_mu * normals[:, None]
    # contact c's facet rows act on its force lambda_c, columns NV + 3c .. NV + 3c + 2
    g_mat = np.zeros((nc, setup.settings.cone_facets, NV + 3 * nc))
    for c in range(nc):
        g_mat[c, :, NV + 3 * c : NV + 3 * c + 3] = rows[c]
    return g_mat.reshape(-1, NV + 3 * nc)


def _contact_blocks(
    feet: PointKinematics, surface: np.ndarray, normals: np.ndarray, setup: FrameSetup, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-sliding rows of the active contacts idx over qdd (k, 75) and
    their right-hand side (k,), and their cone rows G over x = (qdd, lambda)."""
    dt = setup.dt
    pos, vel, normal = feet.position.take(idx, axis=0), feet.velocity.take(idx, axis=0), normals.take(idx, axis=0)
    # normal axis: a deadbeat PD (rate 1/dt) toward the surface; bound the
    # commanded velocity so deep penetration recovers at a finite rate
    # instead of slamming the legs straight
    v_n = (vel[:, None, :] @ normal[:, :, None])[:, 0, 0]
    v_t = vel - v_n[:, None] * normal
    a_n = pd_accel(1.0 / dt, (surface.take(idx) + CONTACT_REST_OFFSET) - pos[:, 1], v_n)
    cap = CONTACT_MAX_CORRECTION_VELOCITY
    v_next = v_n + a_n * dt
    a_n = np.where(np.abs(v_next) > cap, (np.copysign(cap, v_next) - v_n) / dt, a_n)
    # tangential axis: one-step deadbeat to zero velocity; a plain -kv*v_t
    # damper at kv*dt = 2 flips the velocity sign each frame under the
    # explicit integrator and goes unstable
    a_corr = -(1.0 / dt) * v_t + a_n[:, None] * normal

    # Two active points on one foot body are rigidly linked: their relative
    # acceleration along the connecting axis is fixed by rigidity, so the
    # second point only contributes the two rows perpendicular to that axis
    # (full 3 rows would be inconsistent), and none when it coincides with
    # the first. A point's anchor is the first active point on its body.
    nc = len(idx)
    bodies = setup.model.contact_bodies[idx].tolist()
    anchor = np.array([bodies.index(b) for b in bodies], dtype=int)
    second = np.flatnonzero(anchor != np.arange(nc))
    axis = pos.take(second, axis=0) - pos.take(anchor[second], axis=0)
    norm = vector_norms(axis)
    apart = ~(norm[:, 0] < 1e-9)
    linked = second[apart]
    # one tangent-basis call: the contact normals for the cone, then the axes
    tangents = _tangent_bases(np.concatenate([normal, axis[apart] / norm[apart]]))
    basis = np.tile(np.eye(3), (nc, 1, 1))
    basis[linked, :2] = tangents[nc:]
    basis[linked, 2] = 0.0
    keep = np.ones((nc, 3), dtype=bool)
    keep[second[~apart]] = False
    keep[linked, 2] = False
    slide = (basis @ feet.jacobian.take(idx, axis=0))[keep]
    slide_rhs = matvec_rows(basis, a_corr - feet.bias.take(idx, axis=0))[keep]
    return slide, slide_rhs, _cone_rows(normal, tangents[:nc], setup)


@dataclass
class FrameProblem:
    """One frame's QP over x = (qdd, lambda), its blocks built once for every
    fallback level."""

    active: np.ndarray  # (4,) bool, the active contacts
    p_mat: np.ndarray  # (n, n) cost, 1/2 x^T P x + q^T x
    q_vec: np.ndarray  # (n,)
    b_mat: np.ndarray  # (69, n) torque recovery: tau[6:] = B x + h[6:]
    h_act: np.ndarray  # (69,) h[6:]
    # equality blocks, each (rows, right-hand side)
    eom: Tuple[np.ndarray, np.ndarray]  # (6, n) floating-base rows of the equation of motion
    slide: Tuple[np.ndarray, np.ndarray]  # (k, n) no-sliding rows, k >= 0
    root: Tuple[np.ndarray, np.ndarray]  # (3, n) root pin, or (0, n) without it
    cone: Optional[np.ndarray]  # friction-cone rows G x <= 0, None without contacts

    def qp(self, use_slide: bool, use_cone: bool) -> Tuple[np.ndarray, ...]:
        """The (P, q, A, b, G, h) of the level that keeps the given blocks."""
        blocks = (self.eom, self.slide, self.root) if use_slide else (self.eom, self.root)
        a_mat = np.concatenate([rows for rows, _ in blocks])
        b_vec = np.concatenate([rhs for _, rhs in blocks])
        g_mat = self.cone if use_cone else None
        h_vec = np.zeros(len(g_mat)) if g_mat is not None else None
        return self.p_mat, self.q_vec, a_mat, b_vec, g_mat, h_vec


def frame_problem(
    setup: FrameSetup, state: GeneralizedState, ref: ReferenceFrameInput, held: np.ndarray
) -> FrameProblem:
    """The QP of one frame over x = (qdd, lambda).

    A labeled contact activates once the foot point is within 1 cm of the
    surface; `held` (4,) marks contacts already established (solve_frame
    passes the previous frame's active ones), which stay active while their
    label holds (dropping them mid-stance injects impulses and destabilizes
    single-support phases). The contact points are pulled toward
    ref.ee_targets as given: refine_sequence puts the labelled ones on the
    ground beforehand (FrameSetup.ground_targets).
    """
    q, qd = state.q, state.qd
    settings, gains = setup.settings, setup.gains
    dyn = frame_dynamics(setup.model, q, qd)

    # Foot-point kinematics, all four feet in one call. While the character
    # is in a contact phase (any label set) all four end effectors are
    # position-tracked, so swing feet land where the reference puts them; in
    # free flight no point is tracked and the base follows pure ballistics.
    active = np.zeros(4, dtype=bool)
    tracking = ref.contacts.any()
    if tracking:
        feet = dyn.points(setup.model.contact_bodies, setup.model.contact_offsets)
        surface, normals = setup.ground(feet.position)
        active = ref.contacts & (held | (feet.position[:, 1] < surface + CONTACT_ACTIVATION_MARGIN))

    m_mat, h_vec = dyn.m, dyn.h

    # Decision variables x = (qdd, lambda). The equation of motion over x is
    # [M, -Jc^T] x + h = (0, tau[6:]). Its actuated rows substitute the
    # torques out, tau[6:] = B x + h[6:] with B = [M[6:], -Jc[:, 6:]^T], so
    # they hold by construction and the torque regulariser becomes
    # reg (B^T B, B^T h[6:]) on (P, q); its floating-base rows are equalities.
    idx = np.flatnonzero(active)
    nc = len(idx)
    n = NV + 3 * nc
    motion = np.empty((NV, n))
    motion[:, :NV] = m_mat
    if nc:
        jac = feet.jacobian.take(idx, axis=0)
        np.negative(jac.transpose(2, 0, 1), out=motion[:, NV:].reshape(NV, nc, 3))
    b_mat = motion[6:]

    p_mat = np.zeros((n, n))
    diagonal = p_mat.reshape(-1)[:: n + 1]  # a writable view
    q_vec = np.zeros(n)
    # angle tracking ablated: a PD toward q itself, so only the weak velocity
    # damping stays
    target = pd_desired_accel_angles(q, qd, ref.q_ref if settings.use_angle_pd else q, gains)
    diagonal[3:NV] = setup.angle_weight
    q_vec[3:NV] -= setup.angle_weight * target[3:]
    if settings.use_position_pd and tracking:
        a_des = pd_accel(gains.position_rate, ref.ee_targets - feet.position, feet.velocity)
        # w J^T of each point is its own buffer (w J^T J is then a general
        # product, not numpy's multithreaded syrk), the four Gram products
        # come from one stacked call over the columns where they are not
        # zero, and so do the four pulls w J^T (a_des - bias); the sums run
        # one point at a time, in CONTACT_NAMES order
        wjt = (2.0 * settings.point_weight) * feet.jacobian.transpose(0, 2, 1)
        c = setup.foot_cols
        grams = wjt[:, :c] @ feet.jacobian[:, :, :c]
        pulls = matvec_rows(wjt, a_des - feet.bias)
        for k in range(len(pulls)):
            p_mat[:c, :c] += grams[k]
            q_vec[:NV] -= pulls[k]
    reg = 2.0 * settings.reg_weight
    diagonal[NV:] += reg
    # reg * B on the right is a separate buffer: numpy sends X.T @ X to a
    # multithreaded syrk, whose thread wake-up costs far more than its flops
    # at this size
    p_mat += b_mat.T @ (reg * b_mat)
    q_vec += reg * (b_mat.T @ h_vec[6:])

    slide, slide_rhs, cone = np.zeros((0, n)), np.zeros(0), None
    if nc:
        rows, slide_rhs, cone = _contact_blocks(feet, surface, normals, setup, idx)
        slide = np.zeros((len(rows), n))
        slide[:, :NV] = rows
    root, root_rhs = np.zeros((0, n)), np.zeros(0)
    if settings.use_root_supervision and ref.root_future is not None:
        root = np.eye(3, n)
        root_rhs = root_supervision_accel(ref.root_future[1], ref.root_future[0], qd[0:3], setup.dt)
    # floating-base rows of the equation of motion: M[:6] qdd - Jc[:, :6]^T lambda = -h[:6]
    eom = (motion[:6], -h_vec[:6])
    return FrameProblem(
        active, p_mat, q_vec, b_mat, h_vec[6:], eom, (slide, slide_rhs), (root, root_rhs), cone
    )


def solve_frame(
    setup: FrameSetup,
    state: GeneralizedState,
    ref: ReferenceFrameInput,
    previous: Optional[FrameSolution] = None,
) -> FrameSolution:
    """Solve one frame's `frame_problem` for (qdd, lambda) and recover tau
    by substitution; `setup` holds what the frames of its sequence share.

    When the QP raises SolverError (infeasible or not converged), the frame
    is solved again one FALLBACK_LEVELS level down: without the no-sliding
    rows, then also without the friction cone, each level at
    settings.solver_tol. Each failed level's error text is recorded in
    `failures`, the level reached in `level`, and any level after the first
    flags the frame degraded. When every level fails, the SolverError names
    each level and its reason: "full: ...; no-slide: ...; no-cone: ...". A
    frame with no active contact has one QP at every level, so it is solved
    at full only and fails as "full: ...".

    `previous` is the preceding frame's solution, which with the state is
    all one frame hands to the next. Its active contacts are this frame's
    held ones, and its active set warm-starts the QP when the same contacts
    are active and the same level is tried. Without it no contact is held
    and the solve is cold.
    """
    held = previous.active if previous is not None else np.zeros(4, dtype=bool)
    problem = frame_problem(setup, state, ref, held)

    # An (approximately) infeasible constraint set, e.g. a leg locked at full
    # extension fighting the no-sliding target, downgrades through the chain:
    # drop no-sliding, then the friction cone. The previous frame's active
    # set seeds the solve at the level it was solved at, provided the same
    # contacts are active (the inequality rows are then laid out alike).
    # Without an active contact there are no no-sliding rows and no cone, so
    # every level is the same QP and only the first is solved.
    warm = previous if previous is not None and (previous.active == problem.active).all() else None
    levels = FALLBACK_LEVELS if problem.cone is not None else FALLBACK_LEVELS[:1]
    failures: List[Tuple[str, str]] = []
    for level, use_slide, use_cone in levels:
        seed = warm.active_set if warm is not None and warm.level == level else None
        try:
            sol = solve_qp(*problem.qp(use_slide, use_cone), tol=setup.settings.solver_tol, warm_start=seed)
            break
        except SolverError as exc:
            failures.append((level, str(exc)))
            if len(failures) == len(levels):
                raise SolverError("; ".join(f"{lv}: {why}" for lv, why in failures)) from exc

    tau = np.zeros(NV)
    tau[6:] = problem.b_mat @ sol.x + problem.h_act
    return FrameSolution(
        qdd=sol.x[:NV],
        active=problem.active,
        contact_forces=sol.x[NV:].reshape(-1, 3),
        tau=tau,
        level=level,
        active_set=sol.active_set,
        kkt_residual=sol.kkt_residual,
        iterations=sol.iterations,
        failures=tuple(failures),
    )


def refine_sequence(
    model: HumanoidModel,
    kinematic_seq: MotionSequence,
    hm: Optional[HeightMap],
    settings: QPSettings,
    gains: Optional[PDGains] = None,
) -> Tuple[MotionSequence, List[FrameSolution]]:
    """Run the per-frame QP over a whole sequence, integrating frame by frame.

    The QP runs at 60 fps: `resample_motion` takes the sequence there and
    the refined motion back to the input rate, each a no-op when the rates
    already match. The state is initialized from the first reference frame
    (root placed at the estimated world root position) with a
    finite-difference velocity.
    Each frame hands the next only its integrated state and its
    FrameSolution. The last two frames run without root supervision since
    it needs references at t+1 and t+2. One FrameSetup serves every frame
    (its flat ground, without a height map, at the first frame's lowest
    contact point), and every labelled foot target is put on the ground
    before the first.
    """
    seq = kinematic_seq
    if len(seq) < 3:
        raise InvalidInputError("refinement needs at least 3 frames")
    original_fps = seq.frame_rate
    seq = resample_motion(seq, 1.0 / DEFAULT_DT)
    dt = seq.dt

    n = len(seq)
    q_refs = seq.generalized_positions()
    points = contact_positions(model, forward_kinematics(model, q_refs))
    setup = FrameSetup(model, hm, settings, gains, dt, float(points[0, :, 1].min()))

    contacts = seq.contacts if seq.contacts is not None else np.zeros((n, 4), dtype=bool)
    # (n, 4, 3), every labelled target on the ground below it
    targets = setup.ground_targets(points, contacts)

    state = GeneralizedState(q_refs[0].copy(), (q_refs[1] - q_refs[0]) / dt)
    out_q = np.empty((n, NV))
    solutions: List[FrameSolution] = []
    for t in range(n):
        out_q[t] = state.q
        future = q_refs[t + 1 : t + 3, 0:3] if t + 2 < n else None
        ref = ReferenceFrameInput(q_refs[t], targets[t], contacts[t], future)
        try:
            sol = solve_frame(setup, state, ref, solutions[-1] if solutions else None)
        except SolverError as exc:
            raise SolverError(f"frame {t}: {exc}") from exc
        solutions.append(sol)
        if t < n - 1:
            state = integrate(state, sol.qdd, dt)

    refined = sequence_from_generalized(seq.frame_rate, out_q, model, seq.contacts)
    return resample_motion(refined, original_fps), solutions
