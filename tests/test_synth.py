import numpy as np
import pytest
from oracles import generalized_position

from physmotion.errors import InvalidInputError
from physmotion.humanoid import contact_positions, forward_kinematics
from physmotion.scene import CONTACT_NAMES, build_height_map, query_height
from physmotion.synth import (
    SCENE_KINDS,
    SyntheticScenario,
    generate_scenario,
    leg_ik,
    surface_height,
)

ALL_CASES = [
    ("flat", "stand"),
    ("flat", "walk"),
    ("flat", "squat"),
    ("ramp", "stand"),
    ("ramp", "walk"),
    ("step", "step-climb"),
]


@pytest.mark.parametrize("scene,motion", ALL_CASES)
def test_contact_markers_on_surface(model, scene, motion):
    bundle = generate_scenario(
        SyntheticScenario(scene=scene, motion=motion, duration=2.0, seed=1), model
    )
    gt = bundle.ground_truth
    worst = 0.0
    for t in range(len(gt)):
        fk = forward_kinematics(model, generalized_position(gt, t))
        points = contact_positions(model, fk)
        for k in range(len(CONTACT_NAMES)):
            if bundle.contacts[t, k]:
                p = points[k]
                worst = max(worst, abs(p[1] - surface_height(scene, p[2])))
    assert worst < 1e-3  # within 1 mm


def test_zero_noise_identity(model):
    bundle = generate_scenario(SyntheticScenario(scene="flat", motion="walk", duration=1.0, seed=9), model)
    assert np.array_equal(bundle.noisy.joint_angles, bundle.ground_truth.joint_angles)
    assert np.array_equal(bundle.noisy.root_trans, bundle.ground_truth.root_trans)


def test_stand_all_contacts(model):
    bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=1.0, seed=2), model)
    assert bundle.contacts.all()


def test_drift_arithmetic(model):
    duration = 10.0
    bundle = generate_scenario(
        SyntheticScenario(scene="flat", motion="stand", drift_rate=0.01, duration=duration, seed=4), model
    )
    n = len(bundle.noisy)
    t_final = (n - 1) / 60.0
    offset = np.linalg.norm(bundle.noisy.root_trans[-1] - bundle.ground_truth.root_trans[-1])
    assert abs(offset - 0.01 * t_final) < 1e-9


def test_deterministic_per_seed(model):
    sc = SyntheticScenario(scene="ramp", motion="walk", noise_sigma=0.05, drift_rate=0.02, duration=1.0, seed=33)
    b1 = generate_scenario(sc, model)
    b2 = generate_scenario(sc, model)
    assert np.array_equal(b1.noisy.joint_angles, b2.noisy.joint_angles)
    assert np.array_equal(b1.noisy.root_trans, b2.noisy.root_trans)
    b3 = generate_scenario(
        SyntheticScenario(scene="ramp", motion="walk", noise_sigma=0.05, drift_rate=0.02, duration=1.0, seed=34),
        model,
    )
    assert not np.array_equal(b1.noisy.joint_angles, b3.noisy.joint_angles)


def test_noisy_positions_consistent_with_fk(model):
    bundle = generate_scenario(
        SyntheticScenario(scene="flat", motion="stand", noise_sigma=0.05, duration=0.5, seed=6), model
    )
    t = 3
    fk = forward_kinematics(model, generalized_position(bundle.noisy, t))
    assert np.abs(bundle.noisy.joint_positions[t] - fk.positions).max() < 1e-12


def test_scene_meshes_match_analytic_height(model):
    for scene in SCENE_KINDS:
        bundle = generate_scenario(SyntheticScenario(scene=scene, motion="stand", duration=0.2, seed=1), model)
        hm = build_height_map(bundle.mesh, (128, 128))
        for z in (-0.5, 0.1, 0.6):
            got = query_height(hm, 0.0, z)
            assert abs(got - surface_height(scene, z)) < 5e-3


def test_leg_ik_exactness(model):
    fk0 = forward_kinematics(model, np.zeros(75))
    hip = fk0.positions[1]
    for dz in (-0.1, 0.0, 0.12):
        toe = np.array([hip[0], hip[1] - 0.85, hip[2] + 0.08 + dz])
        a1, a2, a4 = leg_ik(hip, toe, 0.0)
        q = np.zeros(75)
        q[1] = 0.97  # irrelevant for the relative check below
        q[3 + 3 * 1] = a1
        q[3 + 3 * 4] = a2
        q[3 + 3 * 10] = a4
        fk = forward_kinematics(model, q)
        got = contact_positions(model, fk)[CONTACT_NAMES.index("l_toe")] - fk.positions[1]
        want = toe - hip
        assert np.abs(got - want).max() < 1e-9


def test_leg_ik_out_of_reach():
    with pytest.raises(InvalidInputError):
        leg_ik(np.array([0.09, 1.0, 0.0]), np.array([0.09, -0.5, 0.0]), 0.0)


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        SyntheticScenario(scene="hill")
    with pytest.raises(InvalidInputError):
        SyntheticScenario(noise_sigma=-1.0)
    with pytest.raises(InvalidInputError):
        generate_scenario(SyntheticScenario(scene="flat", motion="step-climb"))
