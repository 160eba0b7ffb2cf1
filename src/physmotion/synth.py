"""Synthetic scenario generation: scenes, gaits, and seeded corruption.

Ground-truth motion is built so that contact-labeled foot markers sit on the
analytic scene surface (sub-millimeter), with legs posed by closed-form
planar two-link IK. The contact labels are one (T, 4) bool array in
scene.CONTACT_NAMES order: each foot's toe and heel carry that foot's
stance. The noisy twin adds per-joint Gaussian angle noise and a
linear root drift, standing in for a kinematic estimator's output.

All motions face +z; the ramp scene descends along +z so downhill walks
exercise the height map. The generator is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .errors import InvalidInputError, check_number
from .humanoid import NV, HumanoidModel, default_model
from .motion import MotionSequence, save_motion, sequence_from_generalized
from .rotations import exp_so3
from .scene import CONTACT_NAMES, TriangleMesh, make_box_mesh, merge_meshes, save_contacts_csv, save_obj

SCENE_KINDS = ("flat", "ramp", "step")
MOTION_KINDS = ("stand", "walk", "squat", "step-climb")

RAMP_SLOPE = -0.12  # descending along +z
STEP_EDGE_Z = 0.9
STEP_HEIGHT = 0.08

# gait constants: a deliberate, high-duty walk. Long double support keeps the
# center of mass over the two-foot support polygon, which the per-frame
# optimizer needs since a rigid reference cannot step to catch a fall; the
# stride keeps the leg IK comfortably within reach.
WALK_SPEED = 0.30  # m/s
CYCLE_TIME = 0.6  # s
DUTY_FACTOR = 0.8
SWING_LIFT = 0.04  # m
CROUCH = 0.08  # root lowered below the straight-leg stack
SQUAT_AMPLITUDE = 0.10
SQUAT_FREQ = 0.5  # Hz

HIP_X = 0.09
LEG_L1 = 0.40  # hip to knee
_FOOT_CHAIN = np.array([0.0, -0.49, 0.10])  # knee->ankle + ankle->foot offsets
LEG_LW = float(np.linalg.norm(_FOOT_CHAIN))
TOE_LOCAL = np.array([0.0, -0.02, 0.08])
ROOT_STACK = 0.97  # root height above the toe marker, legs straight

L_HIP, R_HIP = 1, 2
L_KNEE, R_KNEE = 4, 5
L_ANKLE, R_ANKLE = 7, 8
L_FOOT, R_FOOT = 10, 11


@dataclass
class SyntheticScenario:
    scene: str = "flat"
    motion: str = "stand"
    noise_sigma: float = 0.0  # rad, per joint-angle coordinate
    drift_rate: float = 0.0  # m/s root drift
    duration: float = 4.0  # s
    seed: int = 0
    frame_rate: float = 60.0

    def __post_init__(self):
        if self.scene not in SCENE_KINDS:
            raise InvalidInputError(f"scene must be one of {SCENE_KINDS}")
        if self.motion not in MOTION_KINDS:
            raise InvalidInputError(f"motion must be one of {MOTION_KINDS}")
        check_number("noise_sigma", self.noise_sigma, ">= 0")
        check_number("drift_rate", self.drift_rate)
        check_number("duration", self.duration, "> 0")
        check_number("frame_rate", self.frame_rate, "> 0")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, not {self.seed!r}")


@dataclass
class ScenarioBundle:
    noisy: MotionSequence
    ground_truth: MotionSequence
    mesh: TriangleMesh
    contacts: np.ndarray  # (T, 4) bool, CONTACT_NAMES order


def surface_height(scene: str, z: float) -> float:
    """Analytic scene elevation along the walk line (x-independent)."""
    if scene == "flat":
        return 0.0
    if scene == "ramp":
        return RAMP_SLOPE * z
    if scene == "step":
        return STEP_HEIGHT if z >= STEP_EDGE_Z else 0.0
    raise InvalidInputError(scene)


def surface_pitch(scene: str, z: float) -> float:
    """Foot pitch (rotation about x) matching the local surface tangent."""
    if scene == "ramp":
        return -math.atan(RAMP_SLOPE)
    return 0.0


def scene_mesh(scene: str, z_min: float, z_max: float) -> TriangleMesh:
    x0, x1 = -3.0, 3.0
    z0, z1 = z_min - 2.0, z_max + 2.0
    if scene == "flat":
        return make_box_mesh(x0, x1, z0, z1, 0.0)
    if scene == "ramp":
        verts = np.array(
            [
                [x0, RAMP_SLOPE * z0, z0],
                [x1, RAMP_SLOPE * z0, z0],
                [x1, RAMP_SLOPE * z1, z1],
                [x0, RAMP_SLOPE * z1, z1],
            ]
        )
        return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
    if scene == "step":
        base = make_box_mesh(x0, x1, z0, z1, 0.0)
        platform = make_box_mesh(x0, x1, STEP_EDGE_Z, z1, STEP_HEIGHT)
        return merge_meshes([base, platform])
    raise InvalidInputError(scene)


def leg_ik(hip_world: np.ndarray, toe_world: np.ndarray, foot_pitch: float) -> Tuple[float, float, float]:
    """Closed-form sagittal-plane leg IK.

    All leg joints rotate about the x axis; returns (hip_pitch, knee_pitch,
    foot_pitch_joint) such that the toe marker lands on toe_world with the
    foot body pitched by foot_pitch. The ankle joint stays neutral.
    """
    rot_foot = exp_so3(np.array([foot_pitch, 0.0, 0.0]))
    foot_joint = toe_world - rot_foot @ TOE_LOCAL
    d = foot_joint - hip_world
    if abs(d[0]) > 1e-9:
        raise InvalidInputError("leg IK target leaves the sagittal plane")
    dz, dy = d[2], d[1]
    dist = math.hypot(dz, dy)
    if dist > LEG_L1 + LEG_LW - 1e-6:
        raise InvalidInputError(
            f"leg IK target out of reach: {dist:.3f} m vs {LEG_L1 + LEG_LW:.3f} m"
        )
    gamma = math.atan2(_FOOT_CHAIN[2], _FOOT_CHAIN[1])
    theta_d = math.atan2(dz, dy)
    cos_beta = (dist**2 + LEG_L1**2 - LEG_LW**2) / (2.0 * dist * LEG_L1)
    beta = math.acos(min(1.0, max(-1.0, cos_beta)))
    best = None
    for sign in (+1.0, -1.0):
        theta1 = theta_d + sign * beta
        rem_z = dz - LEG_L1 * math.sin(theta1)
        rem_y = dy - LEG_L1 * math.cos(theta1)
        theta2 = math.atan2(rem_z, rem_y)
        alpha1 = theta1 - math.pi
        c = theta2 - gamma
        knee_z = hip_world[2] + (-LEG_L1) * math.sin(alpha1)
        # prefer the anatomical branch: knee forward of the hip-foot line
        line_z = hip_world[2] + (d[2]) * (LEG_L1 / dist)
        score = knee_z - line_z
        if best is None or score > best[0]:
            best = (score, alpha1, c)
    _, alpha1, c = best
    alpha2 = c - alpha1
    foot_joint_pitch = foot_pitch - c
    # principal branch: 2*pi-equivalent angles are the same rotation but make
    # the angle time series discontinuous
    wrap = lambda a: math.atan2(math.sin(a), math.cos(a))
    return wrap(alpha1), wrap(alpha2), wrap(foot_joint_pitch)


def _gait_phase(t: float, offset: float) -> Tuple[int, float]:
    raw = t / CYCLE_TIME + offset
    cycle = int(math.floor(raw))
    return cycle, raw - cycle


def _swing_interp(u: float) -> float:
    return 0.5 * (1.0 - math.cos(math.pi * u))


FOOT_SPAN = 0.21  # toe-to-heel footprint plus margin, for foothold adjustment
_EDGE_PULL = 0.10  # plants this close below the edge snap to it


def _adjust_plant(scene: str, toe_z: float) -> float:
    """Keep footholds clear of the step edge.

    A foothold that would straddle the edge moves fully onto the platform;
    the one just before the edge snaps up against it, so the straddle stride
    stays close to nominal and the support polygon keeps covering the root.
    """
    if scene != "step":
        return toe_z
    if STEP_EDGE_Z <= toe_z < STEP_EDGE_Z + FOOT_SPAN:
        return STEP_EDGE_Z + FOOT_SPAN
    if STEP_EDGE_Z - _EDGE_PULL <= toe_z < STEP_EDGE_Z:
        return STEP_EDGE_Z - 0.005
    return toe_z


class _GaitPlan:
    """Per-foot toe-marker targets and stance flags over time.

    Footholds lead the root so the foot's support span stays centered under
    the advancing body through its stance window; planting the toe under the
    root at touchdown would leave the center of mass beyond the toes for the
    whole stance.
    """

    def __init__(self, scenario: SyntheticScenario):
        self.scenario = scenario
        self.moving = scenario.motion in ("walk", "step-climb")
        self.speed = WALK_SPEED if self.moving else 0.0
        self.stride = self.speed * CYCLE_TIME
        self.plant_lead = DUTY_FACTOR * self.stride / 2.0 + 0.10
        self.z_start = 0.0

    def root_z(self, t: float) -> float:
        return self.z_start + self.speed * t

    def toe_target(self, side: int, t: float) -> Tuple[np.ndarray, float, bool]:
        """(toe world position, foot pitch, stance?) for side 0=left, 1=right."""
        scene = self.scenario.scene
        x = HIP_X if side == 0 else -HIP_X
        if not self.moving:
            z = self.z_start + TOE_LOCAL[2]
            pitch = surface_pitch(scene, z)
            return np.array([x, surface_height(scene, z), z]), pitch, True
        offset = 0.0 if side == 0 else 0.5
        cycle, phase = _gait_phase(t, offset)
        base = self.z_start + self.plant_lead
        plant_prev = _adjust_plant(scene, base + (cycle - offset) * self.stride)
        plant_next = _adjust_plant(scene, base + (cycle - offset + 1) * self.stride)
        if phase < DUTY_FACTOR:
            z = plant_prev
            pitch = surface_pitch(scene, z)
            return np.array([x, surface_height(scene, z), z]), pitch, True
        u = (phase - DUTY_FACTOR) / (1.0 - DUTY_FACTOR)
        w = _swing_interp(u)
        z = plant_prev + w * (plant_next - plant_prev)
        base = (1.0 - w) * surface_height(scene, plant_prev) + w * surface_height(
            scene, plant_next
        )
        y = base + SWING_LIFT * math.sin(math.pi * u)
        pitch = surface_pitch(scene, z)
        return np.array([x, y, z]), pitch, False


def _root_height(plan: _GaitPlan, t: float) -> float:
    scenario = plan.scenario
    left, _, _ = plan.toe_target(0, t)
    right, _, _ = plan.toe_target(1, t)
    # follow the lower foot so the trailing leg stays within reach on steps
    base = min(
        surface_height(scenario.scene, left[2]), surface_height(scenario.scene, right[2])
    )
    height = base + ROOT_STACK - CROUCH
    if scenario.motion == "squat":
        height -= SQUAT_AMPLITUDE * 0.5 * (1.0 - math.cos(2.0 * math.pi * SQUAT_FREQ * t))
    return height


def generate_scenario(
    scenario: SyntheticScenario, model: HumanoidModel | None = None
) -> ScenarioBundle:
    """Build (noisy, ground-truth, mesh, contact labels) for a scenario.

    The ground truth keeps labeled-contact toe and heel markers on the scene
    surface; the noisy twin is ground truth plus seeded joint-angle noise and
    root drift, with joint positions recomputed by forward kinematics.
    """
    model = model or default_model()
    if scenario.motion == "step-climb" and scenario.scene != "step":
        raise InvalidInputError("step-climb motion requires the step scene")
    fps = scenario.frame_rate
    n = max(3, int(round(scenario.duration * fps)) + 1)
    plan = _GaitPlan(scenario)

    q_frames = np.zeros((n, NV))
    stance = np.zeros((n, 2), dtype=bool)
    root_y_raw = np.empty(n)
    for k in range(n):
        t = k / fps
        root_y_raw[k] = _root_height(plan, t)
    # short moving average keeps root velocity continuous across step edges
    win = max(1, int(0.2 * fps))
    kernel = np.ones(win) / win
    root_y = np.convolve(np.pad(root_y_raw, (win // 2, win - 1 - win // 2), mode="edge"), kernel, "valid")

    for k in range(n):
        t = k / fps
        q = q_frames[k]
        q[0] = 0.0
        q[1] = root_y[k]
        q[2] = plan.root_z(t)
        root = q[0:3]
        for side, (hip_idx, hip_cols, knee_cols, foot_cols) in enumerate(
            (
                (L_HIP, L_HIP, L_KNEE, L_FOOT),
                (R_HIP, R_HIP, R_KNEE, R_FOOT),
            )
        ):
            toe, pitch, on_ground = plan.toe_target(side, t)
            hip_world = root + model.bodies[hip_idx].offset
            a1, a2, a4 = leg_ik(hip_world, toe, pitch)
            q[3 + 3 * hip_cols] = a1
            q[3 + 3 * knee_cols] = a2
            q[3 + 3 * foot_cols] = a4
            stance[k, side] = on_ground

    # each contact point is labelled with its foot's stance
    contacts = stance[:, [0 if name.startswith("l_") else 1 for name in CONTACT_NAMES]]
    gt = sequence_from_generalized(fps, q_frames, model, contacts)

    rng = np.random.default_rng(scenario.seed)
    noisy_q = q_frames.copy()
    if scenario.noise_sigma > 0.0:
        noisy_q[:, 6:] += rng.normal(scale=scenario.noise_sigma, size=(n, NV - 6))
    if scenario.drift_rate != 0.0:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), 0.0, math.sin(angle)])
        times = np.arange(n) / fps
        noisy_q[:, 0:3] += direction[None, :] * (scenario.drift_rate * times)[:, None]
    noisy = sequence_from_generalized(fps, noisy_q, model, contacts.copy())
    mesh = scene_mesh(scenario.scene, min(0.0, plan.root_z(0.0)), plan.root_z((n - 1) / fps))
    return ScenarioBundle(noisy=noisy, ground_truth=gt, mesh=mesh, contacts=contacts)


def write_scenario(bundle: ScenarioBundle, directory: str | Path) -> Dict[str, Path]:
    """Write a bundle's four input files under directory (created if missing).

    Returns their paths keyed by the RunConfig field each one fills.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "motion_path": out / "noisy_motion.jsonl",
        "gt_motion_path": out / "gt_motion.jsonl",
        "mesh_path": out / "scene.obj",
        "contacts_path": out / "contacts.csv",
    }
    save_motion(bundle.noisy, paths["motion_path"])
    save_motion(bundle.ground_truth, paths["gt_motion_path"])
    save_obj(bundle.mesh, paths["mesh_path"])
    save_contacts_csv(bundle.contacts, paths["contacts_path"])
    return paths
