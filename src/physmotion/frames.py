"""Rigid transforms, camera-frame conversion, trajectory alignment, filtering.

All rotations are stored as 3x3 matrices internally; file formats use unit
quaternions (w, x, y, z). Y-axis is up throughout the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateBaselineError, InvalidInputError, InvalidTransformError, MotionFormatError
from .rotations import matrix_to_quat, quat_to_matrix

_ORTHO_TOL = 1e-9


def _check_rotation(rot: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise InvalidTransformError(f"rotation must be 3x3, got {rot.shape}")
    if not np.isfinite(rot).all():
        raise InvalidTransformError("rotation contains non-finite entries")
    err = np.max(np.abs(rot.T @ rot - np.eye(3)))
    det = np.linalg.det(rot)
    if err > tol or abs(det - 1.0) > tol:
        raise InvalidTransformError(
            f"rotation not orthonormal: |R^T R - I| = {err:.3e}, det = {det:.6f}"
        )
    return rot


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element: p_world = rotation @ p_local + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.isfinite(t).all():
            raise InvalidTransformError("translation contains non-finite entries")
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "RigidTransform":
        m = np.asarray(m, dtype=float)
        return RigidTransform(m[:3, :3], m[:3, 3])

    def almost_equal(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        return (
            np.max(np.abs(self.rotation - other.rotation)) <= tol
            and np.max(np.abs(self.translation - other.translation)) <= tol
        )


@dataclass(frozen=True)
class CameraFramePose:
    """Root orientation and translation expressed in the camera frame."""

    global_orientation: np.ndarray
    root_translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "global_orientation", _check_rotation(self.global_orientation))
        object.__setattr__(
            self, "root_translation", np.asarray(self.root_translation, dtype=float).reshape(3)
        )


@dataclass(frozen=True)
class WorldFramePose:
    """Root orientation and translation expressed in the world frame."""

    global_orientation: np.ndarray
    root_translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "global_orientation", _check_rotation(self.global_orientation))
        object.__setattr__(
            self, "root_translation", np.asarray(self.root_translation, dtype=float).reshape(3)
        )


@dataclass(frozen=True)
class FilterParams:
    """One-Euro filter parameters (derivative cutoff fixed at 1 Hz)."""

    min_cutoff: float = 0.004
    beta: float = 0.7
    sample_rate: float = 60.0

    def __post_init__(self):
        if self.min_cutoff <= 0.0:
            raise InvalidInputError("min_cutoff must be > 0")
        if self.sample_rate <= 0.0:
            raise InvalidInputError("sample_rate must be > 0")
        if self.beta < 0.0:
            raise InvalidInputError("beta must be >= 0")


@dataclass
class Trajectory:
    """Timed sequence of rigid transforms (camera or root poses)."""

    frames: np.ndarray  # (N,) int frame indices
    rotations: np.ndarray  # (N, 3, 3)
    translations: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=int).reshape(-1)
        self.rotations = np.asarray(self.rotations, dtype=float).reshape(-1, 3, 3)
        self.translations = np.asarray(self.translations, dtype=float).reshape(-1, 3)
        n = len(self.frames)
        if self.rotations.shape[0] != n or self.translations.shape[0] != n:
            raise InvalidInputError("trajectory field lengths differ")

    def __len__(self) -> int:
        return len(self.frames)

    def transform(self, i: int) -> RigidTransform:
        return RigidTransform(self.rotations[i], self.translations[i])


def hand_eye_calibrate(
    t_eh: RigidTransform, t_ef: RigidTransform, t_mf: RigidTransform
) -> RigidTransform:
    """Transform between a head-mounted marker and the moving camera.

    Composes the three measured transforms (external camera to head marker,
    external camera to floor marker, moving camera to floor marker) as
    t_eh^-1 * t_ef * t_mf^-1.
    """
    return t_eh.inverse().compose(t_ef).compose(t_mf.inverse())


def camera_to_world(
    pose: CameraFramePose, cam_rot: np.ndarray, cam_trans: np.ndarray
) -> WorldFramePose:
    """Re-express a camera-frame root pose in the world frame.

    world_orientation = R^-1 @ cam_orientation
    world_translation = R^-1 @ (cam_translation_of_root - T)
    where (R, T) is the estimated camera pose.
    """
    r = _check_rotation(cam_rot)
    t = np.asarray(cam_trans, dtype=float).reshape(3)
    r_inv = r.T
    return WorldFramePose(
        r_inv @ pose.global_orientation,
        r_inv @ (pose.root_translation - t),
    )


def align_slam_scale(pred: Trajectory, gt_first_two: Sequence[RigidTransform]) -> Trajectory:
    """Fix SLAM gauge freedom using the first two ground-truth camera frames.

    Applies the rigid transform that maps pred frame 0 onto gt frame 0, then a
    uniform scale |gt_t1 - gt_t0| / |pred_t1 - pred_t0| about the aligned
    frame-0 translation.
    """
    if len(pred) < 2:
        raise InvalidInputError("prediction needs at least two frames")
    gt0, gt1 = gt_first_two[0], gt_first_two[1]
    pred_t0 = pred.translations[0]
    pred_t1 = pred.translations[1]
    pred_baseline = np.linalg.norm(pred_t1 - pred_t0)
    if pred_baseline == 0.0:
        raise DegenerateBaselineError("prediction frames 0 and 1 have identical translations")
    gt_baseline = np.linalg.norm(gt1.translation - gt0.translation)
    if gt_baseline == 0.0:
        raise DegenerateBaselineError("ground-truth frames 0 and 1 have identical translations")

    scale = gt_baseline / pred_baseline
    r_off = gt0.rotation @ pred.rotations[0].T
    rotations = np.einsum("ij,njk->nik", r_off, pred.rotations)
    translations = scale * (pred.translations - pred_t0) @ r_off.T + gt0.translation
    return Trajectory(pred.frames.copy(), rotations, translations)


def _smoothing_alpha(cutoff: float | np.ndarray, rate: float) -> float | np.ndarray:
    return 1.0 / (1.0 + rate / (2.0 * np.pi * cutoff))


def one_euro_filter(signal: np.ndarray, params: FilterParams) -> np.ndarray:
    """One-Euro low-pass with speed-adaptive cutoff, applied per channel.

    signal is (T,) or (T, n), uniformly sampled at params.sample_rate. The
    first output sample equals the first input sample. The derivative channel
    is smoothed with a fixed 1 Hz cutoff; the signal cutoff adapts as
    min_cutoff + beta * |smoothed derivative|.
    """
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        return x.copy()
    if not np.isfinite(x).all():
        raise InvalidInputError("signal contains non-finite samples")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]

    rate = params.sample_rate
    alpha_d = _smoothing_alpha(1.0, rate)
    out = np.empty_like(x)
    out[0] = x[0]
    x_hat = x[0].copy()
    dx_hat = np.zeros(x.shape[1])
    for t in range(1, x.shape[0]):
        dx = (x[t] - x[t - 1]) * rate
        dx_hat = dx_hat + alpha_d * (dx - dx_hat)
        cutoff = params.min_cutoff + params.beta * np.abs(dx_hat)
        alpha = _smoothing_alpha(cutoff, rate)
        # incremental form: bit-exact on constant signals
        x_hat = x_hat + alpha * (x[t] - x_hat)
        out[t] = x_hat
    return out[:, 0] if squeeze else out


def save_trajectory(traj: Trajectory, path: str | Path) -> None:
    """Write one JSON record per line: {frame, quat_wxyz, trans_xyz}."""
    with open(path, "w") as fh:
        for i in range(len(traj)):
            rec = {
                "frame": int(traj.frames[i]),
                "quat_wxyz": [float(v) for v in matrix_to_quat(traj.rotations[i])],
                "trans_xyz": [float(v) for v in traj.translations[i]],
            }
            fh.write(json.dumps(rec) + "\n")


def load_trajectory(path: str | Path) -> Trajectory:
    frames = []
    rotations = []
    translations = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MotionFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                frames.append(int(rec["frame"]))
                quat = np.asarray(rec["quat_wxyz"], dtype=float)
                trans = np.asarray(rec["trans_xyz"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise MotionFormatError(f"{path}:{lineno}: missing or malformed field: {exc}") from exc
            if quat.shape != (4,) or trans.shape != (3,):
                raise MotionFormatError(f"{path}:{lineno}: quat_wxyz must be length 4, trans_xyz length 3")
            if not np.isfinite(quat).all() or not np.isfinite(trans).all():
                raise MotionFormatError(f"{path}:{lineno}: non-finite value")
            if not 0.0 < np.linalg.norm(quat) < np.inf:
                raise MotionFormatError(f"{path}:{lineno}: quat_wxyz has zero or non-finite norm")
            rotations.append(quat_to_matrix(quat))
            translations.append(trans)
    if not frames:
        raise MotionFormatError(f"{path}: empty trajectory file")
    return Trajectory(np.array(frames), np.array(rotations), np.array(translations))
