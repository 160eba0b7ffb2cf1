"""Oracle for the per-frame QP: the full (qdd, lambda, tau) formulation.

`solve_frame` solves over (qdd, lambda) only and recovers the actuated
torques by substitution. This module rebuilds the formulation with the
torques as decision variables and all 75 equation-of-motion rows, solves it
with the same QP solver, and requires the same accelerations, forces and
torques. The objective and the equation of motion are assembled here from
the dynamics layer; the no-sliding, no-drifting and friction-cone rows,
which do not involve the torques, are taken from the reduced QP that
`frame_problem` builds.
"""

import numpy as np
import pytest
from oracles import contact_point, contact_targets, generalized_position, grounded, pd_gains

from physmotion.humanoid import NV, GeneralizedState, frame_dynamics
from physmotion.optimizer import (
    CONTACT_REST_OFFSET,
    ROOT_ORIENT_WEIGHT_SCALE,
    FrameSetup,
    PDGains,
    QPSettings,
    ReferenceFrameInput,
    frame_problem,
    solve_frame,
)
from physmotion.qp import solve_qp
from physmotion.scene import CONTACT_NAMES, build_height_map, make_box_mesh, query_height
from physmotion.synth import SyntheticScenario, generate_scenario

NA = NV - 6


def full_qp(model, state, ref, hm, settings, gains, names, reduced):
    """The (qdd, lambda, tau[6:]) QP of one frame; `reduced` is the (A, b, G, h)
    of frame_problem's QP at the full level."""
    q, qd = state.q, state.qd
    nc = len(names)
    n = NV + 3 * nc + NA
    dyn = frame_dynamics(model, q, qd)
    effectors = [contact_point(model, name) for name in CONTACT_NAMES]
    feet = dyn.points([body for body, _ in effectors], np.array([off for _, off in effectors]))
    p_mat = np.zeros((n, n))
    q_vec = np.zeros(n)

    w = np.full(NV, 2.0 * settings.angle_weight)
    w[3:6] *= ROOT_ORIENT_WEIGHT_SCALE
    target = np.zeros(NV)
    for rows, rate in ((slice(3, 6), gains.root_orient_rate), (slice(6, NV), gains.angle_rate)):
        kp, kd = pd_gains(rate)
        target[rows] = kp * (ref.q_ref[rows] - q[rows]) - kd * qd[rows]
    kp_point, kd_point = pd_gains(gains.position_rate)
    for i in range(3, NV):
        p_mat[i, i] += w[i]
        q_vec[i] -= w[i] * target[i]
    jacobians = {}
    for k, name in enumerate(CONTACT_NAMES):
        jac = feet.jacobian[k]
        jacobians[name] = jac
        goal = ref.ee_targets[k].copy()
        if ref.contacts[k]:
            goal[1] = query_height(hm, goal[0], goal[2]) + CONTACT_REST_OFFSET
        accel = kp_point * (goal - feet.position[k]) - kd_point * feet.velocity[k]
        rhs = accel - feet.bias[k]
        p_mat[:NV, :NV] += 2.0 * settings.point_weight * jac.T @ jac
        q_vec[:NV] -= 2.0 * settings.point_weight * jac.T @ rhs
    p_mat[NV:, NV:] += 2.0 * settings.reg_weight * np.eye(3 * nc + NA)

    # M qdd - Jc^T lambda - [0; I] tau = -h
    eom = np.zeros((NV, n))
    eom[:, :NV] = dyn.m
    for c, name in enumerate(names):
        eom[:, NV + 3 * c : NV + 3 * c + 3] = -jacobians[name].T
    eom[6:, NV + 3 * nc :] = -np.eye(NA)
    h = dyn.h

    def pad(rows):
        return np.hstack([rows, np.zeros((rows.shape[0], NA))])

    a_red, b_red, g_red, h_red = reduced
    a_mat = np.vstack([eom, pad(a_red[6:])])
    b_vec = np.concatenate([-h, b_red[6:]])
    g_mat = pad(g_red) if g_red is not None else None
    return solve_qp(p_mat, q_vec, a_mat, b_vec, g_mat, h_red, tol=settings.solver_tol)


def solve_both(model, state, ref, hm, settings):
    setup = FrameSetup(model, hm, settings)
    sol = solve_frame(setup, state, grounded(setup, ref))
    assert not sol.degraded
    problem = frame_problem(setup, state, grounded(setup, ref), np.zeros(4, dtype=bool))
    p_mat, _, *reduced = problem.qp(use_slide=True, use_cone=True)
    assert np.array_equal(problem.active, sol.active)
    assert p_mat.shape[0] == NV + 3 * len(sol.contact_names)  # no torque columns
    full = full_qp(model, state, ref, hm, settings, PDGains(), sol.contact_names, reduced)
    return sol, full


def rel(a, b):
    return float(np.abs(a - b).max()) / (1.0 + float(np.abs(b).max()))


def assert_matches(model, state, sol, full):
    # Both formulations agree to rounding (about 1e-14). The regulariser moves
    # the optimum by only about 1e-8 relative, so a looser bound would not
    # see a wrong torque regulariser.
    nc = len(sol.contact_names)
    tau = np.concatenate([np.zeros(6), full.x[NV + 3 * nc :]])
    assert rel(sol.qdd, full.x[:NV]) <= 1e-10
    assert rel(sol.contact_forces.ravel(), full.x[NV : NV + 3 * nc]) <= 1e-10
    assert rel(sol.tau, tau) <= 1e-10
    # the recovered torques satisfy M qdd + h = tau + Jc^T lambda
    dyn = frame_dynamics(model, state.q, state.qd)
    jt_lambda = np.zeros(NV)
    for name, force in zip(sol.contact_names, sol.contact_forces):
        body, off = contact_point(model, name)
        jt_lambda += dyn.points([body], off).jacobian[0].T @ force
    h = dyn.h
    lhs = dyn.m @ sol.qdd + h
    assert np.abs(lhs - sol.tau - jt_lambda).max() <= 1e-9 * (1.0 + np.abs(h).max())


@pytest.fixture(scope="module")
def flat_map():
    return build_height_map(make_box_mesh(-3, 3, -3, 3, 0.0), (64, 64))


def standing(model, rng=None):
    q = np.zeros(NV)
    q[1] = 0.97 + CONTACT_REST_OFFSET
    qd = np.zeros(NV) if rng is None else rng.normal(size=NV) * 0.5
    ref = ReferenceFrameInput(q.copy(), contact_targets(model, q), np.ones(4, dtype=bool), np.vstack([q[0:3], q[0:3]]))
    return GeneralizedState(q, qd), ref


def test_standing_flat(model, flat_map):
    state, ref = standing(model)
    sol, full = solve_both(model, state, ref, flat_map, QPSettings())
    assert len(sol.contact_names) == 4
    assert_matches(model, state, sol, full)


def test_cone_facet_active(model, flat_map, rng):
    state, ref = standing(model, rng)
    sol, full = solve_both(model, state, ref, flat_map, QPSettings(friction_mu=0.05))
    assert sol.active_set  # the friction cone binds
    assert_matches(model, state, sol, full)


def test_single_support_on_ramp(model):
    bundle = generate_scenario(SyntheticScenario("ramp", "walk", 0.0, 0.0, 1.5, 4), model)
    hm = build_height_map(bundle.mesh, (128, 128))
    seq = bundle.ground_truth
    labels = bundle.contacts
    # the first frame in mid-walk with exactly one foot (toe and heel) labelled
    t = next(
        t for t in range(10, len(seq) - 2)
        if labels[t].sum() == 2 and labels[t][0] == labels[t][2] and labels[t][1] == labels[t][3]
    )
    q = generalized_position(seq, t)
    qd = (generalized_position(seq, t + 1, previous=q) - q) * seq.frame_rate
    state = GeneralizedState(q, qd)
    future = np.array([generalized_position(seq, t + k)[0:3] for k in (1, 2)])
    ref = ReferenceFrameInput(q.copy(), contact_targets(model, q), labels[t], future)
    sol, full = solve_both(model, state, ref, hm, QPSettings())
    assert len(sol.contact_names) == 2
    assert_matches(model, state, sol, full)
