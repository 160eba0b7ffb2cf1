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
E_reg = reg_weight * (|lambda|^2 + |tau[6:]|^2), a quadratic in x after the
substitution.

`refine_sequence` hands each frame's active inequality set to the next
frame, where it seeds the QP's active-set crossover (contact phases persist
for tens of frames); when that seed does not close within a few rounds the
solver falls back to the cold interior-point path.

Contact activation requires both the per-frame contact label and foot height
below surface + 1 cm; labels alone can be stale when the kinematic input
floats above the scene.

A frame whose QP fails goes down the FALLBACK_LEVELS chain: full, then
no-slide (no-sliding rows dropped), then no-cone (friction cone dropped as
well), then loose (the same QP at a 1e4 times looser solver tolerance).
Every level after the first flags the frame degraded. A SolverError
(QPInfeasibleError included) at any level moves the frame to the next one;
only the error of the last level escapes `solve_frame`.

The rigid-body terms of a frame (M, h and the contact-point Jacobians,
velocities and bias accelerations) come from one `frame_dynamics` sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, SolverError
from .humanoid import (
    DEFAULT_DT,
    NV,
    FrameDynamics,
    GeneralizedState,
    HumanoidModel,
    end_effector_positions,
    forward_kinematics,
    frame_dynamics,
    integrate,
)
from .motion import MotionSequence, resample_motion, sequence_from_generalized
from .qp import QPSolution, solve_qp
from .scene import CONTACT_NAMES, HeightMap, query_height, surface_normal

# Baumgarte stabilization of the contact equality, critically damped at 60 fps
CONTACT_KP = 3600.0
CONTACT_KV = 120.0
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
# degradation chain: (level, no-sliding rows, friction cone, tolerance scale);
# every level after the first flags the frame degraded
FALLBACK_LEVELS = (
    ("full", True, True, 1.0),
    ("no-slide", False, True, 1.0),
    ("no-cone", False, False, 1.0),
    ("loose", False, False, 1e4),
)


def _critical_damping(kp: float) -> float:
    return 2.0 * math.sqrt(kp)


@dataclass
class PDGains:
    """Dual-controller gains; derivative gains default to critical damping.

    The root-orientation rows get their own, much softer gains: the base is
    unactuated, so its tracking torque must come from contact friction, and
    demands beyond the friction-cone authority (roughly 25 rad/s^2 in single
    support) saturate the cone and destabilize the stance instead of helping.
    """

    angle_kp: float = 2400.0
    angle_kd: Optional[float] = None
    position_kp: float = 2500.0
    position_kd: Optional[float] = None
    root_orient_kp: float = 400.0
    root_orient_kd: Optional[float] = None

    def __post_init__(self):
        for name in ("angle_kp", "position_kp", "root_orient_kp"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be >= 0")
        if self.angle_kd is None:
            self.angle_kd = _critical_damping(self.angle_kp)
        if self.position_kd is None:
            self.position_kd = _critical_damping(self.position_kp)
        if self.root_orient_kd is None:
            self.root_orient_kd = _critical_damping(self.root_orient_kp)
        for name in ("angle_kd", "position_kd", "root_orient_kd"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be >= 0")


@dataclass
class QPSettings:
    friction_mu: float = 0.8
    cone_facets: int = 4
    solver_tol: float = 1e-8
    max_iter: int = 200
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
        if self.friction_mu <= 0.0:
            raise InvalidInputError("friction_mu must be positive")
        if self.cone_facets < 3:
            raise InvalidInputError("cone_facets must be at least 3")
        if self.solver_tol <= 0.0 or self.max_iter <= 0:
            raise InvalidInputError("solver_tol and max_iter must be positive")
        if self.reg_weight <= 0.0:
            raise InvalidInputError("reg_weight must be positive (keeps the QP strictly convex)")


@dataclass
class ReferenceFrameInput:
    """Per-frame targets handed to the QP."""

    q_ref: np.ndarray  # (75,) reference generalized position, world frame
    ee_targets: Dict[str, np.ndarray]  # end-effector name -> reference world position
    contacts: np.ndarray  # (4,) bool, CONTACT_NAMES order
    root_future: Optional[np.ndarray] = None  # (2, 3) reference root translation at t+1, t+2

    def __post_init__(self):
        self.q_ref = np.asarray(self.q_ref, dtype=float).reshape(NV)
        self.contacts = np.asarray(self.contacts, dtype=bool).reshape(4)
        if self.root_future is not None:
            self.root_future = np.asarray(self.root_future, dtype=float).reshape(2, 3)
        if not np.isfinite(self.q_ref).all():
            raise InvalidInputError("q_ref contains non-finite values")


@dataclass
class FrameSolution:
    qdd: np.ndarray  # (75,)
    contact_names: Tuple[str, ...]
    contact_forces: np.ndarray  # (nc, 3) world frame
    tau: np.ndarray  # (75,), rows 0..5 identically zero
    level: str = "full"  # the FALLBACK_LEVELS entry the frame was solved at
    active_set: Tuple[int, ...] = ()  # active friction-cone rows of the QP
    kkt_residual: float = 0.0
    iterations: int = 0

    @property
    def degraded(self) -> bool:
        return self.level != FALLBACK_LEVELS[0][0]

    def force_for(self, name: str) -> np.ndarray:
        return self.contact_forces[self.contact_names.index(name)]


def pd_desired_accel_angles(
    q: np.ndarray, qd: np.ndarray, q_ref: np.ndarray, gains: PDGains
) -> np.ndarray:
    """Per-coordinate PD on root orientation and joint angles.

    Root-translation rows stay zero: the root is steered by the no-drifting
    constraint (or, absent it, by contact mechanics alone).
    """
    out = np.zeros(NV)
    out[3:6] = gains.root_orient_kp * (q_ref[3:6] - q[3:6]) - gains.root_orient_kd * qd[3:6]
    out[6:] = gains.angle_kp * (q_ref[6:] - q[6:]) - gains.angle_kd * qd[6:]
    return out


def pd_desired_accel_points(
    dyn: FrameDynamics, targets: Dict[str, np.ndarray], gains: PDGains
) -> Dict[str, np.ndarray]:
    """Cartesian PD per tracked end effector: kp (r_ref - p) - kd (J qd)."""
    out = {}
    for name, target in targets.items():
        body, off = dyn.model.end_effector(name)
        pos = dyn.point_position(body, off)
        vel = dyn.point_velocity(body, off)
        out[name] = gains.position_kp * (np.asarray(target) - pos) - gains.position_kd * vel
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


def _ground(
    hm: Optional[HeightMap], settings: QPSettings, flat_height: float, points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Surface heights (k,) and upward normals (k, 3) below points (k, 3)."""
    x, z = points[:, 0], points[:, 2]
    if settings.use_height_map and hm is not None:
        return query_height(hm, x, z), surface_normal(hm, x, z)
    return np.full(len(points), float(flat_height)), np.tile([0.0, 1.0, 0.0], (len(points), 1))


def _tangent_basis(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


@dataclass
class _ContactPoint:
    name: str
    body: int
    position: np.ndarray
    jacobian: np.ndarray
    bias: np.ndarray
    velocity: np.ndarray
    surface_height: float
    normal: np.ndarray


def solve_frame(
    model: HumanoidModel,
    state: GeneralizedState,
    ref: ReferenceFrameInput,
    hm: Optional[HeightMap],
    settings: QPSettings,
    gains: Optional[PDGains] = None,
    dt: float = DEFAULT_DT,
    flat_ground_height: float = 0.0,
    latched: Optional[np.ndarray] = None,
    previous: Optional[FrameSolution] = None,
) -> FrameSolution:
    """Solve one frame for (qdd, lambda) and recover tau by substitution.

    A labeled contact activates once the foot point is within 1 cm of the
    surface; `latched` marks contacts already established on earlier frames,
    which stay active while their label holds (dropping them mid-stance
    injects impulses and destabilizes single-support phases).

    With hm None (or use_height_map off) the ground is the horizontal plane
    at flat_ground_height.

    When the QP raises SolverError (infeasible or not converged), the frame
    is solved again one FALLBACK_LEVELS level down: without the no-sliding
    rows, then also without the friction cone, then at a looser tolerance;
    the level reached is recorded and any level after the first flags the
    frame degraded. Only the last level's SolverError escapes.

    `previous` is the preceding frame's solution; its active set warm-starts
    the QP when the same contacts are active and the same level is tried.
    Without it the solve is cold.
    """
    gains = gains or PDGains()
    q, qd = state.q, state.qd
    dyn = frame_dynamics(model, q, qd)
    if latched is None:
        latched = np.zeros(4, dtype=bool)

    # Foot-point kinematics. While the character is in a contact phase (any
    # label set) all four end effectors are position-tracked, so swing feet
    # land where the reference puts them; in free flight no point is tracked
    # and the base follows pure ballistics.
    points: Dict[str, _ContactPoint] = {}
    hold = {}
    targets: Dict[str, np.ndarray] = {}
    if ref.contacts.any():
        effectors = [model.end_effector(name) for name in CONTACT_NAMES]
        targets = {
            name: np.asarray(ref.ee_targets[name], dtype=float).copy()
            for name in CONTACT_NAMES
            if name in ref.ee_targets
        }
        # a contact label asserts ground contact: project the height target
        # onto the scene surface so a floating or penetrating reference still
        # lands the foot where the ground actually is
        grounded = [name for name in targets if ref.contacts[CONTACT_NAMES.index(name)]]
        # one scene query: the four foot points, then the grounded targets
        feet = [dyn.point_position(body, off) for body, off in effectors]
        probes = np.array(feet + [targets[name] for name in grounded])
        heights, normals = _ground(hm, settings, flat_ground_height, probes)
        for name, height in zip(grounded, heights[len(effectors) :]):
            targets[name][1] = height + CONTACT_REST_OFFSET
        for k, (name, (body, off)) in enumerate(zip(CONTACT_NAMES, effectors)):
            points[name] = _ContactPoint(
                name=name,
                body=body,
                position=probes[k],
                jacobian=dyn.point_jacobian(body, off),
                bias=dyn.point_bias_acceleration(body, off),
                velocity=dyn.point_velocity(body, off),
                surface_height=float(heights[k]),
                normal=normals[k],
            )
            hold[name] = bool(latched[k]) and bool(ref.contacts[k])

    active = []
    for k, name in enumerate(CONTACT_NAMES):
        if not ref.contacts[k] or name not in points:
            continue
        p = points[name]
        if hold[name] or p.position[1] < p.surface_height + CONTACT_ACTIVATION_MARGIN:
            active.append(p)

    m_mat, h_vec = dyn.m, dyn.h

    qdd_des = pd_desired_accel_angles(q, qd, ref.q_ref, gains)
    a_des = pd_desired_accel_points(dyn, targets, gains)

    # Decision variables x = (qdd, lambda). The actuated torques are
    # substituted out, tau[6:] = B x + h[6:] with B = [M[6:], -Jc[:, 6:]^T],
    # so the actuated equation-of-motion rows hold by construction and the
    # torque regulariser becomes reg (B^T B, B^T h[6:]) on (P, q).
    nc = len(active)
    n = NV + 3 * nc
    lam0 = NV
    jc_t = np.zeros((NV, 3 * nc))
    for c, point in enumerate(active):
        jc_t[:, 3 * c : 3 * c + 3] = point.jacobian.T
    b_mat = np.hstack([m_mat[6:], -jc_t[6:]])

    p_mat = np.zeros((n, n))
    q_vec = np.zeros(n)
    idx = np.arange(3, NV)
    w = np.full(NV, 2.0 * settings.angle_weight)
    w[3:6] *= ROOT_ORIENT_WEIGHT_SCALE
    if settings.use_angle_pd:
        target = qdd_des
    else:
        # angle tracking ablated: the reference-tracking term is removed;
        # a weak velocity-damping term (1% of the tracking weight) stays
        # so the otherwise-unconstrained degrees of freedom remain
        # numerically solvable
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
            jac, rhs = point.jacobian, a_des[name] - point.bias
            p_mat[:NV, :NV] += w * jac.T @ jac
            q_vec[:NV] -= w * jac.T @ rhs
    reg = 2.0 * settings.reg_weight
    diag = np.arange(lam0, n)
    p_mat[diag, diag] += reg
    # reg * B on the right is a separate buffer: numpy sends X.T @ X to a
    # multithreaded syrk, whose thread wake-up costs far more than its flops
    # at this size
    p_mat += b_mat.T @ (reg * b_mat)
    q_vec += reg * (b_mat.T @ h_vec[6:])

    # floating-base rows of the equation of motion: M[:6] qdd - Jc[:, :6]^T lambda = -h[:6]
    eom = np.hstack([m_mat[:6], -jc_t[:6]])

    def build_and_solve(
        use_slide: bool, use_cone: bool, tol_scale: float, seed: Optional[Tuple[int, ...]]
    ) -> QPSolution:
        eq_rows: List[np.ndarray] = [eom]
        eq_rhs: List[np.ndarray] = [-h_vec[:6]]

        if use_slide:
            # Two active points on one foot body are rigidly linked: their
            # relative acceleration along the connecting axis is fixed by
            # rigidity, so the second point only contributes the two rows
            # perpendicular to that axis (full 3 rows would be inconsistent).
            first_on_body: Dict[int, _ContactPoint] = {}
            for point in active:
                err = point.position[1] - (point.surface_height + CONTACT_REST_OFFSET)
                v_n = float(point.velocity @ point.normal)
                v_t = point.velocity - v_n * point.normal
                # normal axis: critically damped spring toward the surface;
                # bound the commanded velocity so deep penetration recovers at
                # a finite rate instead of slamming the legs straight
                a_n = -CONTACT_KV * v_n - CONTACT_KP * err
                cap = CONTACT_MAX_CORRECTION_VELOCITY
                v_next = v_n + a_n * dt
                if abs(v_next) > cap:
                    a_n = (math.copysign(cap, v_next) - v_n) / dt
                # tangential axis: one-step deadbeat to zero velocity; a plain
                # -kv*v_t damper at kv*dt = 2 flips the velocity sign each
                # frame under the explicit integrator and goes unstable
                a_corr = -(1.0 / dt) * v_t + a_n * point.normal
                basis = np.eye(3)
                anchor = first_on_body.setdefault(point.body, point)
                if anchor is not point:
                    axis = point.position - anchor.position
                    norm = np.linalg.norm(axis)
                    if norm < 1e-9:
                        continue  # coincident with the anchor: fully redundant
                    axis /= norm
                    t1, t2 = _tangent_basis(axis)
                    basis = np.vstack([t1, t2])
                row = np.zeros((basis.shape[0], n))
                row[:, :NV] = basis @ point.jacobian
                eq_rows.append(row)
                eq_rhs.append(basis @ (a_corr - point.bias))

        if settings.use_root_supervision and ref.root_future is not None:
            row = np.zeros((3, n))
            row[:3, :3] = np.eye(3)
            eq_rows.append(row)
            eq_rhs.append(
                root_supervision_accel(ref.root_future[1], ref.root_future[0], qd[0:3], dt)
            )

        a_mat = np.vstack(eq_rows)
        b_vec = np.concatenate(eq_rhs)

        g_rows: List[np.ndarray] = []
        if use_cone and nc:
            for c, point in enumerate(active):
                t1, t2 = _tangent_basis(point.normal)
                cols = slice(lam0 + 3 * c, lam0 + 3 * c + 3)
                for f in range(settings.cone_facets):
                    ang = 2.0 * np.pi * f / settings.cone_facets
                    d = np.cos(ang) * t1 + np.sin(ang) * t2
                    row = np.zeros(n)
                    row[cols] = d - settings.friction_mu * point.normal
                    g_rows.append(row)
                row = np.zeros(n)
                row[cols] = -point.normal
                g_rows.append(row)
        g_mat = np.vstack(g_rows) if g_rows else None
        h_ineq = np.zeros(len(g_rows)) if g_rows else None

        return solve_qp(
            p_mat,
            q_vec,
            a_mat,
            b_vec,
            g_mat,
            h_ineq,
            tol=settings.solver_tol * tol_scale,
            max_iter=settings.max_iter,
            warm_start=seed,
        )

    # An (approximately) infeasible constraint set, e.g. a leg locked at full
    # extension fighting the no-sliding target, downgrades through the chain:
    # drop no-sliding, then the friction cone, finally accept a loose solve.
    # The previous frame's active set seeds the solve at the level it was
    # solved at, provided the same contacts are active (the inequality rows
    # are then laid out alike).
    names = tuple(p.name for p in active)
    warm = previous if previous is not None and previous.contact_names == names else None
    for k, (level, use_slide, use_cone, tol_scale) in enumerate(FALLBACK_LEVELS):
        seed = warm.active_set if warm is not None and warm.level == level else None
        try:
            sol = build_and_solve(use_slide, use_cone, tol_scale, seed)
            break
        except SolverError:
            if k == len(FALLBACK_LEVELS) - 1:
                raise

    qdd = sol.x[:NV]
    forces = sol.x[lam0:].reshape(nc, 3)
    tau = np.zeros(NV)
    tau[6:] = b_mat @ sol.x + h_vec[6:]
    return FrameSolution(
        qdd=qdd,
        contact_names=names,
        contact_forces=forces,
        tau=tau,
        level=level,
        active_set=sol.active_set,
        kkt_residual=sol.kkt_residual,
        iterations=sol.iterations,
    )


def refine_sequence(
    model: HumanoidModel,
    kinematic_seq: MotionSequence,
    hm: Optional[HeightMap],
    settings: QPSettings,
    gains: Optional[PDGains] = None,
) -> Tuple[MotionSequence, List[FrameSolution]]:
    """Run the per-frame QP over a whole sequence, integrating frame by frame.

    The state is initialized from the first reference frame (root placed at
    the estimated world root position) with a finite-difference velocity. The
    last two frames run without root supervision since it needs references at
    t+1 and t+2.
    """
    seq = kinematic_seq
    if len(seq) < 3:
        raise InvalidInputError("refinement needs at least 3 frames")
    target_fps = 1.0 / DEFAULT_DT
    original_fps = seq.frame_rate
    if abs(seq.frame_rate - target_fps) > 1e-9:
        seq = resample_motion(seq, target_fps)
    dt = seq.dt

    n = len(seq)
    q_refs = np.empty((n, NV))
    q_refs[0] = seq.generalized_position(0)
    for t in range(1, n):
        q_refs[t] = seq.generalized_position(t, previous=q_refs[t - 1])

    ee_refs = []
    for t in range(n):
        fk = forward_kinematics(model, q_refs[t])
        ee_refs.append(end_effector_positions(model, fk))

    flat_height = 0.0
    if not settings.use_height_map or hm is None:
        flat_height = float(min(p[1] for p in ee_refs[0].values()))

    contacts = (
        seq.contacts.data
        if seq.contacts is not None
        else np.zeros((n, 4), dtype=bool)
    )

    state = GeneralizedState(q_refs[0].copy(), (q_refs[1] - q_refs[0]) / dt, np.zeros(NV))
    out_q = np.empty((n, NV))
    solutions: List[FrameSolution] = []
    latched = np.zeros(4, dtype=bool)
    for t in range(n):
        out_q[t] = state.q
        future = q_refs[t + 1 : t + 3, 0:3] if t + 2 < n else None
        ref = ReferenceFrameInput(
            q_ref=q_refs[t],
            ee_targets=ee_refs[t],
            contacts=contacts[t],
            root_future=future,
        )
        try:
            sol = solve_frame(
                model,
                state,
                ref,
                hm,
                settings,
                gains=gains,
                dt=dt,
                flat_ground_height=flat_height,
                latched=latched,
                previous=solutions[-1] if solutions else None,
            )
        except SolverError as exc:
            raise SolverError(f"frame {t}: {exc}") from exc
        solutions.append(sol)
        latched = np.array(
            [contacts[t][k] and (CONTACT_NAMES[k] in sol.contact_names) for k in range(4)]
        )
        if t < n - 1:
            state.qdd = sol.qdd
            state = integrate(state, dt)

    refined = sequence_from_generalized(seq.frame_rate, out_q, model, seq.contacts)
    if abs(original_fps - seq.frame_rate) > 1e-9:
        refined = resample_motion(refined, original_fps)
    return refined, solutions
