import json

import numpy as np
import pytest

from oracles import (
    backward_pass_scalar,
    crba_scalar,
    fk_scalar,
    forward_sweep_scalar,
    inverse_dynamics_scalar,
    joint_axes_scalar,
    point_terms_scalar,
)

from physmotion.errors import InvalidInputError, InvalidStateError
from physmotion.humanoid import (
    NV,
    Body,
    GeneralizedState,
    HumanoidModel,
    end_effector_positions,
    forward_kinematics,
    frame_dynamics,
    integrate,
    load_model,
)
import physmotion.humanoid as humanoid
from physmotion.rotations import exp_and_jacobians, exp_so3


def random_state(rng, angle_scale=0.6, vel_scale=1.0):
    q = np.concatenate([rng.normal(size=3), rng.normal(size=72) * angle_scale])
    qd = rng.normal(size=NV) * vel_scale
    qdd = rng.normal(size=NV)
    return q, qd, qdd


def fk_homogeneous_oracle(model, q):
    """Independent chain multiplication with 4x4 homogeneous matrices."""
    mats = [None] * 24
    for i, body in enumerate(model.bodies):
        local = np.eye(4)
        if i == 0:
            local[:3, :3] = exp_so3(q[3:6])
            local[:3, 3] = q[0:3]
            mats[i] = local
        else:
            offset = np.eye(4)
            offset[:3, 3] = body.offset
            joint = np.eye(4)
            joint[:3, :3] = exp_so3(q[3 + 3 * i : 6 + 3 * i])
            mats[i] = mats[body.parent] @ offset @ joint
    return mats


class TestForwardKinematics:
    def test_zero_pose_cumulative_offsets(self, model):
        fk = forward_kinematics(model, np.zeros(NV))
        for i, body in enumerate(model.bodies):
            expected = np.zeros(3)
            j = i
            while j != -1:
                expected += model.bodies[j].offset
                j = model.parents[j]
            assert np.abs(fk.positions[i] - expected).max() < 1e-14

    def test_rigid_translation(self, model):
        q = np.zeros(NV)
        q[0:3] = [1.0, 2.0, 3.0]
        base = forward_kinematics(model, np.zeros(NV))
        shifted = forward_kinematics(model, q)
        assert np.abs(shifted.positions - base.positions - np.array([1.0, 2.0, 3.0])).max() < 1e-14

    def test_homogeneous_chain_oracle(self, model, rng):
        for _ in range(20):
            q, _, _ = random_state(rng)
            fk = forward_kinematics(model, q)
            mats = fk_homogeneous_oracle(model, q)
            for i in range(24):
                assert np.abs(fk.positions[i] - mats[i][:3, 3]).max() < 1e-10
                assert np.abs(fk.rotations[i] - mats[i][:3, :3]).max() < 1e-10


    def test_single_q_equals_the_scalar_chain_bit_for_bit(self, model, rng):
        for scale in (0.6, 2.5, 1e-9):
            for _ in range(20):
                q, _, _ = random_state(rng, angle_scale=scale)
                j = rng.integers(23)
                q[6 + 3 * j : 9 + 3 * j] = 0.0  # a joint on the series branch
                fk, expected = forward_kinematics(model, q), fk_scalar(model, q)
                assert fk.rotations.shape == (24, 3, 3) and fk.positions.shape == (24, 3)
                assert np.array_equal(fk.rotations, expected.rotations)
                assert np.array_equal(fk.positions, expected.positions)

    def test_stacked_frames_match_the_per_frame_loop(self, model, rng):
        q = np.concatenate([rng.normal(size=(150, 3)), rng.normal(size=(150, 72)) * 1.5], axis=1)
        fk = forward_kinematics(model, q)
        assert fk.rotations.shape == (150, 24, 3, 3) and fk.positions.shape == (150, 24, 3)
        for t in range(len(q)):
            expected = fk_scalar(model, q[t])
            assert np.abs(fk.rotations[t] - expected.rotations).max() <= 1e-12
            assert np.abs(fk.positions[t] - expected.positions).max() <= 1e-12
        # any leading shape; end effectors carry it too
        grid = forward_kinematics(model, q.reshape(10, 15, NV))
        assert np.array_equal(grid.positions.reshape(150, 24, 3), fk.positions)
        stacked = end_effector_positions(model, fk)
        for t in (0, 77, 149):
            one = end_effector_positions(model, forward_kinematics(model, q[t]))
            assert one.keys() == stacked.keys()
            for name, p in one.items():
                assert p.shape == (3,) and stacked[name].shape == (150, 3)
                assert np.abs(stacked[name][t] - p).max() <= 1e-12


def point_jacobian(model, q, body, local_point):
    """3x75 Jacobian of one body-fixed point from frame_dynamics (it does not
    depend on qd)."""
    return frame_dynamics(model, q, np.zeros(NV)).points([body], local_point).jacobian[0]


class TestPointJacobian:
    def test_root_translation_block_identity(self, model, rng):
        q, _, _ = random_state(rng)
        jac = point_jacobian(model, q, 0, rng.normal(size=3))
        assert np.allclose(jac[:, 0:3], np.eye(3))

    def test_off_path_columns_zero(self, model, rng):
        q, _, _ = random_state(rng)
        # l_foot (10): the arm chain is off its path
        jac = point_jacobian(model, q, 10, np.zeros(3))
        arm_body = [b.name for b in model.bodies].index("r_elbow")
        cols = model.joint_cols(arm_body)
        assert np.abs(jac[:, cols]).max() == 0.0

    def test_finite_difference_all_bodies(self, model, rng):
        q, qd, _ = random_state(rng)
        eps = 1e-6
        fk0 = forward_kinematics(model, q)
        fk1 = forward_kinematics(model, q + eps * qd)
        local = rng.normal(size=(24, 3)) * 0.1
        jacobians = frame_dynamics(model, q, qd).points(range(24), local).jacobian
        for body, lp in enumerate(local):
            p0 = fk0.positions[body] + fk0.rotations[body] @ lp
            p1 = fk1.positions[body] + fk1.rotations[body] @ lp
            v_fd = (p1 - p0) / eps
            v = jacobians[body] @ qd
            denom = max(1.0, np.abs(v).max())
            assert np.abs(v_fd - v).max() / denom < 1e-5

    def test_velocity_matches_jacobian(self, model, rng):
        for _ in range(5):
            q, qd, _ = random_state(rng)
            pts = frame_dynamics(model, q, qd).points(range(24), rng.normal(size=(24, 3)) * 0.1)
            assert np.abs(pts.jacobian @ qd - pts.velocity).max() < 1e-12

    def test_bias_acceleration_finite_difference(self, model, rng):
        eps = 1e-6
        for _ in range(5):
            q, qd, _ = random_state(rng)
            local = rng.normal(size=(24, 3)) * 0.1
            pts = frame_dynamics(model, q, qd).points(range(24), local)
            j1 = frame_dynamics(model, q + eps * qd, qd).points(range(24), local).jacobian
            fd = (j1 @ qd - pts.jacobian @ qd) / eps
            for bias, fd_body in zip(pts.bias, fd):
                assert np.abs(fd_body - bias).max() / max(1.0, np.abs(bias).max()) < 1e-4

    def test_invalid_body_rejected(self, model):
        with pytest.raises(InvalidInputError):
            point_jacobian(model, np.zeros(NV), 24, np.zeros(3))


class TestMassMatrix:
    def test_translational_block_total_mass(self, model, rng):
        q, _, _ = random_state(rng)
        m = frame_dynamics(model, q, np.zeros(NV)).m
        assert np.abs(m[0:3, 0:3] - model.total_mass * np.eye(3)).max() < 1e-9

    def test_symmetric_and_positive_definite(self, model, rng):
        for _ in range(10):
            q, _, _ = random_state(rng)
            m = frame_dynamics(model, q, np.zeros(NV)).m
            assert np.abs(m - m.T).max() < 1e-10
            np.linalg.cholesky(m)

    def test_kinetic_energy_oracle(self, model, rng):
        for _ in range(10):
            q, qd, _ = random_state(rng)
            dyn = frame_dynamics(model, q, qd)
            ke_matrix = 0.5 * qd @ dyn.m @ qd
            fk = forward_kinematics(model, q)
            omega, vel = dyn.omega, dyn.vel
            ke_direct = 0.0
            for i, body in enumerate(model.bodies):
                inertia_w = fk.rotations[i] @ body.inertia @ fk.rotations[i].T
                ke_direct += 0.5 * body.mass * vel[i] @ vel[i]
                ke_direct += 0.5 * omega[i] @ inertia_w @ omega[i]
            assert abs(ke_matrix - ke_direct) / ke_direct < 1e-8


class TestInverseDynamics:
    def test_static_gravity_translational_rows(self, model):
        h = frame_dynamics(model, np.zeros(NV), np.zeros(NV)).h
        assert np.abs(h[0:3] - np.array([0.0, model.total_mass * 9.81, 0.0])).max() < 1e-9

    def test_free_fall_solves_minus_g(self, model):
        dyn = frame_dynamics(model, np.zeros(NV), np.zeros(NV))
        qdd = np.linalg.solve(dyn.m, -dyn.h)
        assert abs(qdd[1] + 9.81) < 1e-9
        mask = np.ones(NV, dtype=bool)
        mask[1] = False
        assert np.abs(qdd[mask]).max() < 1e-9

    def test_zero_gravity_zero_velocity_gives_zero(self, model, rng):
        zero_g = HumanoidModel(
            [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors)) for b in model.bodies],
            gravity=np.zeros(3),
        )
        q, _, _ = random_state(rng)
        h = frame_dynamics(zero_g, q, np.zeros(NV)).h
        assert np.abs(h).max() < 1e-10

    def test_id_equals_m_qdd_plus_h(self, model, rng):
        # the per-body RNEA with qdd in its forward recursion against M and h
        for _ in range(20):
            q, qd, qdd = random_state(rng)
            dyn = frame_dynamics(model, q, qd)
            tau = inverse_dynamics_scalar(model, q, qd, qdd)
            h_scale = 1.0 + np.abs(dyn.h).max()
            assert np.abs(tau - (dyn.m @ qdd + dyn.h)).max() / h_scale < 1e-8


class TestFrameDynamics:
    """frame_dynamics against finite-difference and inverse-dynamics oracles."""

    def test_mass_matrix_is_kinetic_energy_of_finite_difference_motion(self, model, rng):
        # body velocities from central differences of forward kinematics
        eps = 1e-6
        for _ in range(5):
            q, qd, _ = random_state(rng)
            fk, fk_p, fk_m = (forward_kinematics(model, q + s * eps * qd) for s in (0.0, 1.0, -1.0))
            ke_direct = 0.0
            for i, body in enumerate(model.bodies):
                vel = (fk_p.positions[i] - fk_m.positions[i]) / (2 * eps)
                w_hat = (fk_p.rotations[i] - fk_m.rotations[i]) / (2 * eps) @ fk.rotations[i].T
                omega = np.array([w_hat[2, 1], w_hat[0, 2], w_hat[1, 0]])
                inertia_w = fk.rotations[i] @ body.inertia @ fk.rotations[i].T
                ke_direct += 0.5 * body.mass * vel @ vel + 0.5 * omega @ inertia_w @ omega
            ke_matrix = 0.5 * qd @ frame_dynamics(model, q, qd).m @ qd
            assert abs(ke_matrix - ke_direct) / ke_direct < 1e-7

    def test_h_is_inverse_dynamics_at_zero_acceleration(self, model, rng):
        for _ in range(10):
            q, qd, _ = random_state(rng)
            h = frame_dynamics(model, q, qd).h
            oracle = inverse_dynamics_scalar(model, q, qd, np.zeros(NV))
            assert np.abs(h - oracle).max() / (1.0 + np.abs(oracle).max()) < 1e-12

    def test_jacobian_matches_finite_difference_fk(self, model, rng):
        eps = 1e-6
        for _ in range(5):
            q, qd, _ = random_state(rng)
            dyn = frame_dynamics(model, q, qd)
            fk_p = forward_kinematics(model, q + eps * qd)
            fk_m = forward_kinematics(model, q - eps * qd)
            local = rng.normal(size=(24, 3)) * 0.1
            jacobians = dyn.points(range(24), local).jacobian
            for body, lp in enumerate(local):
                p_p = fk_p.positions[body] + fk_p.rotations[body] @ lp
                p_m = fk_m.positions[body] + fk_m.rotations[body] @ lp
                v_fd = (p_p - p_m) / (2 * eps)
                v = jacobians[body] @ qd
                assert np.abs(v_fd - v).max() / max(1.0, np.abs(v).max()) < 1e-7


def seeded_states(rng, count=40):
    """Random states at several angle scales, each with one joint at zero,
    one below 1e-8 rad and one below 1e-4 rad (the series branches of the
    left Jacobian and of its derivative)."""
    for k in range(count):
        q, qd, qdd = random_state(rng, angle_scale=(0.6, 2.5, 1e-9, 1e-5)[k % 4])
        for scale in (0.0, 1e-9, 5e-5):
            j = rng.integers(24)
            q[3 + 3 * j : 6 + 3 * j] = rng.normal(size=3) * scale
        yield q, qd, qdd


def dynamics_oracle(model, q, qd):
    """frame_dynamics' fields from the per-body recursions."""
    fk = fk_scalar(model, q)
    axes = joint_axes_scalar(model, q, fk)
    inertia_w = fk.rotations @ model.inertias @ fk.rotations.transpose(0, 2, 1)
    omega, vel, omega_dot, acc = forward_sweep_scalar(model, q, qd, np.zeros(NV), fk, axes)
    h = backward_pass_scalar(model, fk, axes, inertia_w, omega, omega_dot, acc - model.gravity)
    m = crba_scalar(model, fk, humanoid._motion_subspace(fk, axes), inertia_w)
    return dict(m=m, h=h, omega=omega, vel=vel, omega_dot_bias=omega_dot, acc_bias=acc)


class TestBatchedKernels:
    """The stacked Jacobians, the tree-level sweep and the batched point terms
    against the per-body and per-point formulas they replaced, bit for bit."""

    def test_frame_dynamics_equals_the_per_body_recursion(self, model, rng):
        for q, qd, _ in seeded_states(rng):
            dyn = frame_dynamics(model, q, qd)
            for name, value in dynamics_oracle(model, q, qd).items():
                assert np.array_equal(getattr(dyn, name), value), name
                # zeros keep their signs too
                assert np.array_equal(np.signbit(getattr(dyn, name)), np.signbit(value)), name

    def test_joint_axes_and_sweep(self, model, rng):
        for q, qd, _ in seeded_states(rng, 12):
            fk = forward_kinematics(model, q)
            _, jl, jl_dot = exp_and_jacobians(q[3:].reshape(24, 3), qd[3:].reshape(24, 3))
            axes = humanoid._joint_axes(model, fk, jl)
            assert np.array_equal(axes, joint_axes_scalar(model, q, fk))
            got = humanoid._forward_sweep(model, qd, fk, axes, jl_dot)
            for a, b in zip(got, forward_sweep_scalar(model, q, qd, np.zeros(NV), fk, axes)):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_batched_foot_points_equal_one_point_at_a_time(self, model, rng):
        effectors = [model.end_effector(name) for name in ("l_toe", "r_toe", "l_heel", "r_heel")]
        bodies = [body for body, _ in effectors]
        offsets = np.array([off for _, off in effectors])
        for q, qd, _ in seeded_states(rng, 12):
            dyn = frame_dynamics(model, q, qd)
            # the feet, then arbitrary points on arbitrary bodies
            for ids, local in ((bodies, offsets), (rng.integers(0, 24, 6), rng.normal(size=(6, 3)) * 0.1)):
                pts = dyn.points(ids, local)
                assert pts.jacobian.shape == (len(ids), 3, NV)
                for k, (body, lp) in enumerate(zip(ids, local)):
                    pos, jac, vel, bias = point_terms_scalar(model, dyn, body, lp)
                    assert np.array_equal(pts.position[k], pos)
                    assert np.array_equal(pts.jacobian[k], jac)
                    assert np.array_equal(pts.velocity[k], vel)
                    assert np.array_equal(pts.bias[k], bias)

    def test_tree_levels_and_paths_cover_the_tree(self, model):
        assert len(model.levels) == 8
        walked = np.concatenate([bodies for bodies, _ in model.levels])
        assert sorted(walked.tolist()) == list(range(1, 24))
        seen = {0}
        for bodies, parents in model.levels:
            assert np.array_equal(parents, model.parents[bodies])
            assert set(parents.tolist()) <= seen
            seen |= set(bodies.tolist())
        rows, depth = model.path_slot
        for body in range(24):
            path = model.paths[rows[body]]
            assert path[depth[body]] == body
            assert path[0] == 0
            for j in range(1, depth[body] + 1):
                assert model.parents[path[j]] == path[j - 1]


class TestIntegrate:
    def test_zero_rates_unchanged(self, rng):
        q = rng.normal(size=NV)
        state = GeneralizedState(q, np.zeros(NV), np.zeros(NV))
        out = integrate(state, 1.0 / 60.0)
        assert np.array_equal(out.q, q)
        assert np.array_equal(out.qd, np.zeros(NV))

    def test_translation_step(self):
        state = GeneralizedState(np.zeros(NV), np.zeros(NV), np.zeros(NV))
        state.qd[0] = 1.0
        out = integrate(state, 1.0 / 60.0)
        assert np.isclose(out.q[0], 1.0 / 60.0)

    def test_position_uses_old_velocity(self):
        # gravity step: position unchanged this frame, velocity updated
        state = GeneralizedState(np.zeros(NV), np.zeros(NV), np.zeros(NV))
        state.qdd[1] = -9.81
        out = integrate(state, 1.0 / 60.0)
        assert out.q[1] == 0.0
        assert np.isclose(out.qd[1], -9.81 / 60.0)

    def test_rejects_bad_dt_and_nan(self):
        state = GeneralizedState(np.zeros(NV), np.zeros(NV), np.zeros(NV))
        with pytest.raises(InvalidInputError):
            integrate(state, 0.0)
        state.q[0] = np.nan
        with pytest.raises(InvalidStateError):
            integrate(state, 1.0 / 60.0)


def test_free_integration_conserves_energy(model, rng):
    zero_g = HumanoidModel(
        [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors)) for b in model.bodies],
        gravity=np.zeros(3),
    )
    q = np.concatenate([np.zeros(3), rng.normal(size=72) * 0.3])
    qd = rng.normal(size=NV) * 0.5
    state = GeneralizedState(q, qd, np.zeros(NV))

    def kinetic_energy(state):
        return 0.5 * state.qd @ frame_dynamics(zero_g, state.q, state.qd).m @ state.qd

    e0 = kinetic_energy(state)
    dt = 1.0 / 600.0
    for _ in range(10):
        dyn = frame_dynamics(zero_g, state.q, state.qd)
        state.qdd = np.linalg.solve(dyn.m, -dyn.h)
        state = integrate(state, dt)
    e1 = kinetic_energy(state)
    assert abs(e1 - e0) / e0 < 0.01


class TestModelIO:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        doc = {
            "gravity": model.gravity.tolist(),
            "bodies": [
                {
                    "name": b.name,
                    "parent": b.parent,
                    "offset_xyz": b.offset.tolist(),
                    "mass": b.mass,
                    "inertia": b.inertia.tolist(),
                    "end_effectors": [{"name": n, "offset_xyz": off.tolist()} for n, off in b.end_effectors.items()],
                }
                for b in model.bodies
            ],
        }
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.total_mass == pytest.approx(model.total_mass)
        for a, b in zip(loaded.bodies, model.bodies):
            assert a.name == b.name and a.parent == b.parent
            assert np.abs(a.offset - b.offset).max() < 1e-12
            assert np.abs(a.inertia - b.inertia).max() < 1e-12
        assert [e[0] for e in loaded.end_effectors] == [e[0] for e in model.end_effectors]

    def test_default_model_shape(self, model):
        assert len(model.bodies) == 24
        assert model.total_mass == pytest.approx(70.0)
        assert {name for name, _, _ in model.end_effectors} == {"l_toe", "r_toe", "l_heel", "r_heel"}
        assert np.allclose(model.gravity, [0.0, -9.81, 0.0])

    def test_validation_rejects_bad_models(self, model):
        bodies = [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors)) for b in model.bodies]
        bodies[3].mass = -1.0
        with pytest.raises(InvalidInputError):
            HumanoidModel(bodies)
        bodies = [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors)) for b in model.bodies]
        bodies[5].inertia = -np.eye(3)
        with pytest.raises(InvalidInputError):
            HumanoidModel(bodies)
        bodies = [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors)) for b in model.bodies]
        bodies[4].parent = 9  # not preceding in the tree order
        with pytest.raises(InvalidInputError):
            HumanoidModel(bodies)


def _default_doc():
    import json
    from importlib import resources

    return json.loads(resources.files("physmotion").joinpath("data/default_model.json").read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["bodies"][3].update(mass=float("nan")), "body spine1: mass must be finite"),
        (lambda doc: doc["bodies"][3].update(mass=float("inf")), "body spine1: mass must be finite"),
        (lambda doc: doc["bodies"][5].update(offset_xyz=[float("nan"), 0.0, 0.0]), "body r_knee: offset must be finite"),
        (lambda doc: doc["bodies"][2].update(inertia_diag=[float("inf"), 1.0, 1.0]), "body r_hip: inertia must be a finite"),
        (lambda doc: doc["bodies"][10]["end_effectors"][0].update(offset_xyz=[0.0, float("nan"), 0.0]),
         "body l_foot: end effector l_toe offset must be finite"),
        (lambda doc: doc.update(gravity=[0.0, float("nan"), 0.0]), "gravity must be finite"),
    ],
)
def test_model_from_dict_rejects_non_finite_fields(edit, message):
    from physmotion.humanoid import model_from_dict

    doc = _default_doc()
    edit(doc)
    with pytest.raises(InvalidInputError, match=message):
        model_from_dict(doc)
