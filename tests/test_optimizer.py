import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import contact_point, contact_targets, frame_qp_scalar, generalized_position, grounded, solve_frame_grounded

from physmotion.errors import InvalidInputError, QPInfeasibleError, SolverError
from physmotion.humanoid import (
    DEFAULT_DT,
    NV,
    Body,
    GeneralizedState,
    HumanoidModel,
    contact_positions,
    forward_kinematics,
    frame_dynamics,
)
from physmotion.metrics import penetration_stats
from physmotion.motion import sequence_from_generalized
from physmotion.optimizer import (
    CONTACT_REST_OFFSET,
    FALLBACK_LEVELS,
    FrameSetup,
    PDGains,
    QPSettings,
    ReferenceFrameInput,
    pd_accel,
    pd_desired_accel_angles,
    frame_problem,
    refine_sequence,
    root_supervision_accel,
)
from physmotion.scene import CONTACT_NAMES, build_height_map, make_box_mesh, query_surface
from physmotion.synth import SyntheticScenario, generate_scenario


@pytest.fixture(scope="module")
def flat_map():
    return build_height_map(make_box_mesh(-3, 3, -3, 3, 0.0), (64, 64))


def standing_setup(model, rest_offset=5e-4):
    q = np.zeros(NV)
    q[1] = 0.97 + rest_offset
    state = GeneralizedState(q.copy(), np.zeros(NV))
    ref = ReferenceFrameInput(
        q_ref=q.copy(),
        ee_targets=contact_targets(model, q),
        contacts=np.ones(4, dtype=bool),
        root_future=np.vstack([q[0:3], q[0:3]]),
    )
    return state, ref


class TestPDAngles:
    def test_at_target_at_rest_is_zero(self, model, rng):
        q = rng.normal(size=NV)
        out = pd_desired_accel_angles(q, np.zeros(NV), q.copy(), PDGains())
        assert np.abs(out).max() == 0.0

    def test_proportional_term(self, model):
        q = np.zeros(NV)
        q_ref = np.zeros(NV)
        q_ref[10] = 0.1
        gains = PDGains(angle_rate=10.0)
        out = pd_desired_accel_angles(q, np.zeros(NV), q_ref, gains)
        assert np.isclose(out[10], 10.0)
        assert np.abs(np.delete(out, 10)).max() == 0.0

    def test_scalar_recomputation_oracle(self, model, rng):
        q, qd, q_ref = rng.normal(size=NV), rng.normal(size=NV), rng.normal(size=NV)
        gains = PDGains(angle_rate=17.5, root_orient_rate=7.25)
        out = pd_desired_accel_angles(q, qd, q_ref, gains)
        for i in range(NV):
            if i < 3:
                expected = 0.0
            elif i < 6:
                expected = 52.5625 * (q_ref[i] - q[i]) - 14.5 * qd[i]
            else:
                expected = 306.25 * (q_ref[i] - q[i]) - 35.0 * qd[i]
            assert abs(out[i] - expected) < 1e-12

    def test_root_translation_rows_zero(self, model, rng):
        out = pd_desired_accel_angles(rng.normal(size=NV), rng.normal(size=NV), rng.normal(size=NV), PDGains())
        assert np.abs(out[0:3]).max() == 0.0


def feet_of(model, q, qd, names):
    """The batched point terms of the named contact points."""
    effectors = [contact_point(model, name) for name in names]
    dyn = frame_dynamics(model, q, qd)
    return dyn.points([body for body, _ in effectors], np.array([off for _, off in effectors]))


class TestPDPoints:
    def test_at_target_at_rest(self, model):
        q = np.zeros(NV)
        points = contact_positions(model, forward_kinematics(model, q))
        feet = feet_of(model, q, np.zeros(NV), CONTACT_NAMES)
        out = pd_accel(PDGains().position_rate, points - feet.position, feet.velocity)
        assert out.shape == (len(CONTACT_NAMES), 3)
        assert np.abs(out).max() < 1e-12

    def test_proportional_magnitude(self, model):
        q = np.zeros(NV)
        target = contact_targets(model, q)[CONTACT_NAMES.index("l_toe")] + np.array([0.01, 0.0, 0.0])
        feet = feet_of(model, q, np.zeros(NV), ["l_toe"])
        out = pd_accel(20.0, target[None] - feet.position, feet.velocity)
        assert np.isclose(np.linalg.norm(out[0]), 4.0)

    def test_direct_recomputation_oracle(self, model, rng):
        q = np.concatenate([rng.normal(size=3), rng.normal(size=72) * 0.4])
        qd = rng.normal(size=NV)
        fk = forward_kinematics(model, q)
        targets = {name: p + rng.normal(size=3) * 0.05 for name, p in zip(CONTACT_NAMES, contact_positions(model, fk))}
        feet = feet_of(model, q, qd, list(targets))
        out = pd_accel(11.5, np.array(list(targets.values())) - feet.position, feet.velocity)
        for k, name in enumerate(targets):
            body, off = contact_point(model, name)
            pos = fk.positions[body] + fk.rotations[body] @ off
            vel = feet.jacobian[k] @ qd
            expected = 132.25 * (targets[name] - pos) - 23.0 * vel
            assert np.abs(out[k] - expected).max() < 1e-10


class TestGainRule:
    """Each PD term is one critically damped rate w: kp = w^2 and kd = 2 w.
    The default rates give back the hand-set gains of the kp/kd form bit
    for bit."""

    def test_default_rates_give_the_hand_set_gains(self):
        gains = PDGains()
        rates = (gains.angle_rate, gains.position_rate, gains.root_orient_rate)
        assert [w * w for w in rates] == [2400.0, 2500.0, 400.0]
        assert [2 * w for w in rates] == [2 * math.sqrt(2400.0), 100.0, 40.0]
        for w, kp, kd in zip(rates, (2400.0, 2500.0, 400.0), (2 * math.sqrt(2400.0), 100.0, 40.0)):
            assert pd_accel(w, 1.0, 0.0) == kp
            assert pd_accel(w, 0.0, 1.0) == -kd

    def test_contact_normal_is_deadbeat_at_60_fps(self):
        rate = 1.0 / DEFAULT_DT
        assert (rate * rate, 2.0 * rate) == (3600.0, 120.0)
        assert pd_accel(rate, 1.0, 0.0) == 3600.0
        assert pd_accel(rate, 0.0, 1.0) == -120.0


class TestRootSupervision:
    def test_stationary_future_zero(self):
        r = np.array([1.0, 2.0, 3.0])
        out = root_supervision_accel(r, r, np.zeros(3), 1.0 / 60.0)
        assert np.abs(out).max() == 0.0

    def test_direct_substitution(self):
        out = root_supervision_accel(np.array([2.0, 0, 0]), np.array([1.0, 0, 0]), np.zeros(3), 1.0)
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_hand_evaluation(self):
        dt = 1.0 / 60.0
        out = root_supervision_accel(
            np.array([0.02, 0, 0]), np.array([0.01, 0, 0]), np.array([0.6, 0, 0]), dt
        )
        assert np.abs(out).max() < 1e-9

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidInputError):
            root_supervision_accel(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)


class TestSolveFrame:
    def test_standing_statics(self, model, flat_map):
        state, ref = standing_setup(model)
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert not sol.degraded
        assert np.abs(sol.qdd).max() <= 1e-3
        total_vertical = sol.contact_forces[:, 1].sum()
        weight = model.total_mass * 9.81
        assert abs(total_vertical - weight) / weight < 0.01
        assert np.array_equal(sol.tau[0:6], np.zeros(6))

    def test_free_flight_ballistics(self, model, flat_map):
        q = np.zeros(NV)
        q[1] = 3.0
        state = GeneralizedState(q.copy(), np.zeros(NV))
        ref = ReferenceFrameInput(q.copy(), np.zeros((4, 3)), contacts=np.zeros(4, bool), root_future=None)
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert abs(sol.qdd[1] + 9.81) < 1e-6
        assert np.abs(np.delete(sol.qdd, 1)).max() < 1e-6
        assert np.abs(sol.tau).max() < 1e-6
        assert sol.contact_names == ()

    def test_vanishing_friction_removes_tangential(self, model, flat_map):
        state, ref = standing_setup(model)
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings(friction_mu=1e-12))
        tangential = np.abs(sol.contact_forces[:, [0, 2]]).max()
        assert tangential <= 1e-8

    def test_equation_of_motion_residual(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        for _ in range(20):
            q = state.q + np.concatenate([rng.normal(size=3) * 0.01, rng.normal(size=72) * 0.05])
            qd = rng.normal(size=NV) * 0.7
            st = GeneralizedState(q, qd)
            sol = solve_frame_grounded(model, st, ref, flat_map, QPSettings())
            dyn = frame_dynamics(model, q, qd)
            h = dyn.h
            jt_lambda = np.zeros(NV)
            for name, force in zip(sol.contact_names, sol.contact_forces):
                body, off = contact_point(model, name)
                jt_lambda += dyn.points([body], off).jacobian[0].T @ force
            residual = sol.tau + jt_lambda - dyn.m @ sol.qdd - h
            assert np.abs(residual).max() <= 1e-6 * (1.0 + np.abs(h).max())
            # cone feasibility
            mu = QPSettings().friction_mu
            for force in sol.contact_forces:
                assert force[1] >= -1e-8
                assert abs(force[0]) <= mu * force[1] + 1e-7
                assert abs(force[2]) <= mu * force[1] + 1e-7
            assert np.array_equal(sol.tau[0:6], np.zeros(6))

    def test_no_drift_equality_when_active(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        qd = rng.normal(size=NV) * 0.3
        st = GeneralizedState(state.q.copy(), qd)
        sol = solve_frame_grounded(model, st, ref, flat_map, QPSettings())
        expected = root_supervision_accel(ref.root_future[1], ref.root_future[0], qd[0:3], 1.0 / 60.0)
        assert np.abs(sol.qdd[0:3] - expected).max() <= 1e-8

    def test_supervision_disabled_without_future(self, model, flat_map):
        state, ref = standing_setup(model)
        ref_no_future = ReferenceFrameInput(
            q_ref=ref.q_ref, ee_targets=ref.ee_targets, contacts=ref.contacts, root_future=None
        )
        sol = solve_frame_grounded(model, state, ref_no_future, flat_map, QPSettings())
        assert not sol.degraded  # still solvable, root free

    def test_position_pd_flag_bitwise_equivalence(self, model, flat_map, rng):
        # With the point term disabled the problem must not see the targets:
        # compare against a solve whose targets are moved away.
        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.2
        moved = ReferenceFrameInput(ref.q_ref, ref.ee_targets + 0.3, ref.contacts, ref.root_future)
        a = solve_frame_grounded(model, state, ref, flat_map, QPSettings(use_position_pd=False))
        b = solve_frame_grounded(model, state, moved, flat_map, QPSettings(use_position_pd=False))
        c = solve_frame_grounded(model, state, moved, flat_map, QPSettings())
        assert not np.array_equal(a.qdd, c.qdd)
        assert np.array_equal(a.qdd, b.qdd)
        assert np.array_equal(a.contact_forces, b.contact_forces)
        assert np.array_equal(a.tau, b.tau)

    def test_one_kinematics_and_dynamics_pass_per_frame(self, model, flat_map, monkeypatch, rng):
        import physmotion.humanoid as humanoid
        import physmotion.optimizer as opt

        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.5
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        fk = counted(humanoid.forward_kinematics)
        # frame_dynamics reaches forward kinematics through its own module
        monkeypatch.setattr(humanoid, "forward_kinematics", fk)
        monkeypatch.setattr(opt, "forward_kinematics", fk)
        monkeypatch.setattr(opt, "frame_dynamics", counted(humanoid.frame_dynamics))
        solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert sorted(calls) == ["forward_kinematics", "frame_dynamics"]

    def test_determinism(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.5
        a = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        b = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert np.array_equal(a.qdd, b.qdd)
        assert np.array_equal(a.contact_forces, b.contact_forces)

    def test_degraded_fallback_on_infeasible(self, model, flat_map, monkeypatch):
        import physmotion.optimizer as opt

        calls = []
        original = opt.solve_qp

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise QPInfeasibleError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_qp", flaky)
        state, ref = standing_setup(model)
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert sol.degraded and sol.level == "no-slide"
        assert sol.failures == (("full", "forced"),)
        assert len(calls) == 2

    def test_qp_failure_at_full_falls_through_the_chain(self, model, flat_map, monkeypatch, rng):
        import physmotion.qp as qp_module

        calls = []
        original = qp_module.lu_factor

        def fails_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return original(*args, **kwargs)

        monkeypatch.setattr(qp_module, "lu_factor", fails_first)
        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.5
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings(friction_mu=0.05))
        assert len(calls) >= 2
        assert sol.level == "no-slide" and sol.degraded
        assert [level for level, _ in sol.failures] == ["full"]
        assert "Singular matrix" in sol.failures[0][1]

    def test_chain_solves_every_level_at_the_solver_tolerance(self, model, flat_map, monkeypatch):
        import physmotion.optimizer as opt

        tols = []

        def failing(*args, tol, **kwargs):
            tols.append(tol)
            raise SolverError("forced")

        monkeypatch.setattr(opt, "solve_qp", failing)
        state, ref = standing_setup(model)
        settings = QPSettings(solver_tol=3e-9)
        with pytest.raises(SolverError) as info:
            solve_frame_grounded(model, state, ref, flat_map, settings)
        assert str(info.value) == "full: forced; no-slide: forced; no-cone: forced"
        assert len(FALLBACK_LEVELS) == 3
        assert tols == [settings.solver_tol] * len(FALLBACK_LEVELS)

    def test_free_flight_failure_solves_full_once(self, model, flat_map, monkeypatch):
        import physmotion.optimizer as opt

        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise SolverError("forced")

        monkeypatch.setattr(opt, "solve_qp", failing)
        q = np.zeros(NV)
        q[1] = 3.0
        state = GeneralizedState(q.copy(), np.zeros(NV))
        ref = ReferenceFrameInput(q.copy(), np.zeros((4, 3)), contacts=np.zeros(4, bool), root_future=None)
        with pytest.raises(SolverError) as info:
            solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        # without contacts every level is the same QP
        assert str(info.value) == "full: forced"
        assert len(calls) == 1

    def test_warm_start_needs_same_contacts_and_level(self, model, flat_map, monkeypatch, rng):
        import physmotion.optimizer as opt

        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.5
        settings = QPSettings(friction_mu=0.05)
        cold = solve_frame_grounded(model, state, ref, flat_map, settings)
        assert cold.active_set and not cold.degraded
        seeds = []
        original = opt.solve_qp

        def record(*args, **kwargs):
            seeds.append(kwargs.get("warm_start"))
            return original(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_qp", record)
        other_contacts = replace(cold, active=np.array([True, True, False, False]))
        other_level = replace(cold, level="no-slide")
        for previous, expected in ((cold, cold.active_set), (other_contacts, None), (other_level, None)):
            seeds.clear()
            warm = solve_frame_grounded(model, state, ref, flat_map, settings, previous=previous)
            assert seeds == [expected]
            assert np.abs(warm.qdd - cold.qdd).max() <= 1e-8 * (1.0 + np.abs(cold.qdd).max())

    def test_held_contacts_come_from_previous(self, model, flat_map):
        state, ref = standing_setup(model)
        state.q[1] += 0.05  # above the activation margin: only held contacts activate
        cold = solve_frame_grounded(model, state, ref, flat_map, QPSettings())
        assert ref.contacts.all() and not cold.active.any()
        held = np.array([True, False, True, True])
        sol = solve_frame_grounded(model, state, ref, flat_map, QPSettings(), previous=replace(cold, active=held))
        assert np.array_equal(sol.active, held)
        assert sol.contact_names == ("l_toe", "l_heel", "r_heel") and sol.contact_forces.shape == (3, 3)


def walk_frame(model, scene, t, contacts=None):
    bundle = generate_scenario(SyntheticScenario(scene, "walk", 0.02, 0.0, 1.5, 4), model)
    seq = bundle.ground_truth
    q = generalized_position(seq, t)
    qd = (generalized_position(seq, t + 1, previous=q) - q) * seq.frame_rate
    future = np.array([generalized_position(seq, t + k)[0:3] for k in (1, 2)])
    labels = bundle.contacts[t] if contacts is None else contacts
    ref = ReferenceFrameInput(q.copy(), contact_targets(model, q), labels, future)
    return GeneralizedState(q, qd), ref, build_height_map(bundle.mesh, (64, 64))


class TestGroundTargets:
    def test_per_sequence_heights_equal_the_per_frame_projection(self, model):
        """One height query for a whole sequence's labelled targets gives the
        bits of the per-frame projection it replaced: each frame's labelled
        targets queried together, the feet's surface query alongside."""
        for scene in ("ramp", "step"):
            bundle = generate_scenario(SyntheticScenario(scene, "walk", 0.02, 0.0, 1.5, 4), model)
            hm = build_height_map(bundle.mesh, (64, 64))
            targets = contact_positions(model, forward_kinematics(model, bundle.noisy.generalized_positions()))
            labels = bundle.contacts
            assert labels.any() and not labels.all()
            for settings in (QPSettings(), QPSettings(use_height_map=False)):
                setup = FrameSetup(model, hm, settings, flat_ground_height=-0.0123)
                got = setup.ground_targets(targets, labels)
                for t, (frame, on) in enumerate(zip(targets, labels)):
                    expected = frame.copy()
                    if settings.use_height_map:
                        feet = frame + 0.01  # the frame's foot points share the query
                        probes = np.concatenate([feet, frame[on]])
                        heights = query_surface(hm, probes[:, 0], probes[:, 2])[0][4:]
                    else:
                        heights = np.full(int(on.sum()), -0.0123)
                    expected[on, 1] = heights + CONTACT_REST_OFFSET
                    assert np.array_equal(got[t], expected), (scene, settings.use_height_map, t)
                assert np.array_equal(
                    targets, contact_positions(model, forward_kinematics(model, bundle.noisy.generalized_positions()))
                )


class TestContactAssembly:
    """The constraint blocks built once per frame against the per-contact,
    per-level construction they replaced, bit for bit at every level."""

    def assert_levels_match(self, model, state, ref, hm, settings, latched=None):
        latched = np.zeros(4, dtype=bool) if latched is None else latched
        dyn = frame_dynamics(model, state.q, state.qd)
        setup = FrameSetup(model, hm, settings)
        problem = frame_problem(setup, state, grounded(setup, ref), latched)
        for level, use_slide, use_cone in FALLBACK_LEVELS:
            got = problem.qp(use_slide, use_cone)
            expected = frame_qp_scalar(model, dyn, state, ref, hm, settings, level, 1.0 / 60.0, latched)
            for name, a, b in zip("PqAbGh", got, expected):
                if b is None:
                    assert a is None, (level, name)
                else:
                    assert a.shape == b.shape and np.array_equal(a, b), (level, name)

    def test_double_support_with_linked_toe_and_heel(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        for _ in range(3):
            state.qd = rng.normal(size=NV) * 0.5
            self.assert_levels_match(model, state, ref, flat_map, QPSettings())

    def test_walk_frames_on_ramp_and_step(self, model):
        for scene, t in (("ramp", 20), ("ramp", 47), ("step", 33)):
            state, ref, hm = walk_frame(model, scene, t)
            assert ref.contacts.any()
            self.assert_levels_match(model, state, ref, hm, QPSettings())

    def test_latched_labels_and_settings(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        state.q[1] += 0.05  # above the activation margin: only latched feet hold
        state.qd = rng.normal(size=NV) * 0.3
        ref = ReferenceFrameInput(ref.q_ref, ref.ee_targets, np.array([True, True, True, False]), ref.root_future)
        latched = np.array([True, False, True, True])
        for settings in (
            QPSettings(),
            QPSettings(use_angle_pd=False, cone_facets=5, friction_mu=0.3),
            QPSettings(use_position_pd=False, use_root_supervision=False),
            QPSettings(use_height_map=False),
        ):
            self.assert_levels_match(model, state, ref, flat_map, settings, latched)

    def test_no_contacts_and_coincident_points(self, model, flat_map, rng):
        state, ref = standing_setup(model)
        state.qd = rng.normal(size=NV) * 0.3
        flight = ReferenceFrameInput(ref.q_ref, ref.ee_targets, np.zeros(4, dtype=bool), ref.root_future)
        self.assert_levels_match(model, state, flight, flat_map, QPSettings())
        # a heel on its toe: the second point adds no no-sliding rows
        bodies = [Body(b.name, b.parent, b.offset.copy(), b.mass, b.inertia.copy(), dict(b.end_effectors))
                  for b in model.bodies]
        foot = next(b for b in bodies if b.name == "l_foot")
        foot.end_effectors["l_heel"] = foot.end_effectors["l_toe"].copy()
        twin = HumanoidModel(bodies, model.gravity)
        ref = ReferenceFrameInput(ref.q_ref, contact_targets(twin, state.q), np.ones(4, dtype=bool), ref.root_future)
        self.assert_levels_match(twin, state, ref, flat_map, QPSettings())


class TestRefineSequence:
    def test_standing_fixed_point(self, model):
        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=1.0, seed=1), model)
        hm = build_height_map(bundle.mesh, (64, 64))
        refined, sols = refine_sequence(model, bundle.ground_truth, hm, QPSettings())
        assert len(refined) == len(bundle.ground_truth)
        deviation = np.linalg.norm(refined.root_trans - bundle.ground_truth.root_trans, axis=1)
        assert deviation.max() < 0.005
        assert not any(s.degraded for s in sols)

    def test_penetrating_input_improves(self, model):
        bundle = generate_scenario(
            SyntheticScenario(scene="flat", motion="stand", noise_sigma=0.01, duration=1.0, seed=3), model
        )
        hm = build_height_map(bundle.mesh, (64, 64))
        q = np.array([generalized_position(bundle.noisy, t) for t in range(len(bundle.noisy))])
        q[:, 1] -= 0.05
        low = sequence_from_generalized(60.0, q, model, bundle.contacts)
        refined, _ = refine_sequence(model, low, hm, QPSettings())
        before = penetration_stats(low, hm, bundle.contacts)[0]
        after = penetration_stats(refined, hm, bundle.contacts)[0]
        assert after < before

    def test_needs_three_frames(self, model):
        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=1.0, seed=1), model)
        short = bundle.ground_truth.copy()
        short.root_trans = short.root_trans[:2]
        short.root_rot = short.root_rot[:2]
        short.joint_angles = short.joint_angles[:2]
        short.joint_positions = short.joint_positions[:2]
        short.contacts = None
        with pytest.raises(InvalidInputError):
            refine_sequence(model, short, None, QPSettings(use_height_map=False))

    def test_warm_started_sequence_is_deterministic(self, model, monkeypatch):
        import physmotion.optimizer as opt

        bundle = generate_scenario(SyntheticScenario(scene="ramp", motion="walk", duration=1.0, seed=7), model)
        hm = build_height_map(bundle.mesh, (64, 64))
        warm_calls = []
        original = opt.solve_qp

        def record(*args, **kwargs):
            warm_calls.append(bool(kwargs.get("warm_start")))
            return original(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_qp", record)
        runs = [refine_sequence(model, bundle.ground_truth, hm, QPSettings()) for _ in range(2)]
        assert any(warm_calls)
        (ref_a, sols_a), (ref_b, sols_b) = runs
        assert np.array_equal(ref_a.root_trans, ref_b.root_trans)
        assert np.array_equal(ref_a.joint_angles, ref_b.joint_angles)
        for a, b in zip(sols_a, sols_b):
            assert np.array_equal(a.qdd, b.qdd)
            assert np.array_equal(a.contact_forces, b.contact_forces)
            assert np.array_equal(a.tau, b.tau)
            assert (a.level, a.active_set, a.iterations) == (b.level, b.active_set, b.iterations)

    def test_forward_kinematics_once_per_frame_and_twice_per_sequence(self, model, monkeypatch, fk_calls):
        import physmotion.optimizer as opt

        bundle = generate_scenario(SyntheticScenario(scene="ramp", motion="walk", duration=0.5, seed=7), model)
        hm = build_height_map(bundle.mesh, (64, 64))
        frames = []
        original = opt.solve_frame

        def record(*args, **kwargs):
            frames.append(len(calls))
            return original(*args, **kwargs)

        calls = fk_calls
        calls.clear()  # the scenario generator's own calls
        monkeypatch.setattr(opt, "solve_frame", record)
        refined, sols = refine_sequence(model, bundle.noisy, hm, QPSettings())
        n = len(bundle.noisy)
        assert len(frames) == len(sols) == n
        # references before the first frame, output joints after the last;
        # every frame in between is one single-q call
        assert calls[0] == calls[-1] == (n, NV)
        assert calls[1:-1] == [(NV,)] * n

    def test_one_qp_call_per_attempt(self, model, monkeypatch):
        import physmotion.optimizer as opt

        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="walk", duration=0.5, seed=3), model)
        hm = build_height_map(bundle.mesh, (64, 64))
        calls = []
        original = opt.solve_qp

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) % 4 == 0:
                raise QPInfeasibleError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_qp", flaky)
        _, sols = refine_sequence(model, bundle.ground_truth, hm, QPSettings())
        assert sum(s.degraded for s in sols) >= 5
        assert len(calls) == sum(1 + len(s.failures) for s in sols)
        levels = [level for level, _, _ in FALLBACK_LEVELS]
        for s in sols:
            assert [level for level, _ in s.failures] + [s.level] == levels[: len(s.failures) + 1]

    def test_abort_names_the_frame_and_every_level(self, model, monkeypatch):
        import physmotion.optimizer as opt

        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="walk", duration=0.5, seed=3), model)
        hm = build_height_map(bundle.mesh, (64, 64))
        calls = []
        original = opt.solve_qp

        def fails_from_frame_7(*args, **kwargs):
            calls.append(1)
            if len(calls) > 7:
                raise SolverError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_qp", fails_from_frame_7)
        with pytest.raises(SolverError) as info:
            refine_sequence(model, bundle.ground_truth, hm, QPSettings())
        assert str(info.value) == "frame 7: full: forced; no-slide: forced; no-cone: forced"

    def test_solution_count_matches_frames(self, model):
        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=0.2, seed=1), model)
        hm = build_height_map(bundle.mesh, (32, 32))
        refined, sols = refine_sequence(model, bundle.ground_truth, hm, QPSettings())
        assert len(sols) == len(refined) == len(bundle.ground_truth)

    def test_refine_runs_at_default_dt_unless_the_rate_is_60_fps(self, model, flat_map, monkeypatch):
        # one test decides whether the rate is 60 fps: resample_motion's own, so
        # a rate 1e-10 off is resampled and every frame steps at DEFAULT_DT
        import physmotion.optimizer as opt

        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=0.2, seed=1), model)
        seq = replace(bundle.ground_truth, frame_rate=60.0 + 1e-10)
        steps, integrate = [], opt.integrate

        def spy(state, qdd, dt):
            steps.append(dt)
            return integrate(state, qdd, dt)

        monkeypatch.setattr(opt, "integrate", spy)
        refined, _ = refine_sequence(model, seq, flat_map, QPSettings())
        assert len(steps) == len(seq) - 1
        assert set(steps) == {DEFAULT_DT}
        assert refined.frame_rate == seq.frame_rate and len(refined) == len(seq)


def test_settings_validation():
    with pytest.raises(InvalidInputError):
        QPSettings(friction_mu=0.0)
    with pytest.raises(InvalidInputError):
        QPSettings(cone_facets=2)
    with pytest.raises(InvalidInputError):
        QPSettings(reg_weight=0.0)
    with pytest.raises(InvalidInputError):
        PDGains(angle_rate=-1.0)
    with pytest.raises(InvalidInputError):
        PDGains(root_orient_rate=float("nan"))


@pytest.mark.parametrize("field", ["q_ref", "ee_targets", "root_future"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reference_frame_rejects_non_finite_values(model, field, bad):
    _, ref = standing_setup(model)
    values = {name: getattr(ref, name).copy() for name in ("q_ref", "ee_targets", "contacts", "root_future")}
    values[field].reshape(-1)[4] = bad
    with pytest.raises(InvalidInputError, match=f"^{field} contains non-finite values$"):
        ReferenceFrameInput(**values)
