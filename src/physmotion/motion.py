"""Motion sequences and their line-delimited JSON file format.

A motion file is one header line followed by one record per frame:

    {"schema": "physmotion.motion/1", "fps": 60.0, "frames": 120}
    {"frame": 0, "root_trans_xyz": [...], "root_quat_wxyz": [...],
     "joint_angles": [[...] x 23], "joint_positions": [[...] x 24]?,
     "contacts": [bool x 4]?}

Record t carries "frame": t, its numeric fields hold JSON numbers
(frames.NumericField), and its contacts, when present, are four JSON
booleans; the header's "frames", when given, is a JSON integer. Rotations
are matrices in memory and quaternions (w, x, y, z) on disk, converted with
one stacked call per sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidInputError, MotionFormatError, check_number
from .frames import NumericField, check_quaternions, jsonl_records
from .humanoid import NV, HumanoidModel, forward_kinematics
from .rotations import exp_so3, log_so3, matrix_to_quat, quat_to_matrix, vector_norms

SCHEMA = "physmotion.motion/1"
NUM_JOINTS = 23  # articulated joints beside the root
# the numeric fields of a frame record and their shapes; all but joint_positions are required
_FIELDS = {"root_trans_xyz": (3,), "root_quat_wxyz": (4,), "joint_angles": (NUM_JOINTS, 3), "joint_positions": (24, 3)}


@dataclass
class MotionSequence:
    frame_rate: float
    root_trans: np.ndarray  # (T, 3)
    root_rot: np.ndarray  # (T, 3, 3)
    joint_angles: np.ndarray  # (T, 23, 3) exponential coordinates
    joint_positions: Optional[np.ndarray] = None  # (T, 24, 3) world
    contacts: Optional[np.ndarray] = None  # (T, 4) bool, scene.CONTACT_NAMES order

    def __post_init__(self):
        check_number("frame_rate", self.frame_rate, "> 0")
        self.root_trans = np.asarray(self.root_trans, dtype=float).reshape(-1, 3)
        t = len(self.root_trans)
        self.root_rot = np.asarray(self.root_rot, dtype=float).reshape(t, 3, 3)
        self.joint_angles = np.asarray(self.joint_angles, dtype=float).reshape(t, NUM_JOINTS, 3)
        if self.joint_positions is not None:
            self.joint_positions = np.asarray(self.joint_positions, dtype=float).reshape(t, 24, 3)
        if self.contacts is not None:
            self.contacts = np.asarray(self.contacts, dtype=bool).reshape(-1, 4)
            if len(self.contacts) != t:
                raise InvalidInputError("contacts length differs from frame count")
        for name in ("root_trans", "root_rot", "joint_angles"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"{name} contains non-finite values")
        if self.joint_positions is not None and not np.isfinite(self.joint_positions).all():
            raise InvalidInputError("joint_positions contains non-finite values")

    def __len__(self) -> int:
        return len(self.root_trans)

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    def copy(self) -> "MotionSequence":
        return MotionSequence(
            self.frame_rate,
            self.root_trans.copy(),
            self.root_rot.copy(),
            self.joint_angles.copy(),
            None if self.joint_positions is None else self.joint_positions.copy(),
            None if self.contacts is None else self.contacts.copy(),
        )

    def _stored_positions(self) -> np.ndarray:
        """(T, 75) q of every frame as stored: root translation, the log of
        the root rotation and the joint angles, none of them unwrapped."""
        q = np.empty((len(self), NV))
        q[:, 0:3] = self.root_trans
        q[:, 3:6] = log_so3(self.root_rot)
        q[:, 6:] = self.joint_angles.reshape(len(self), -1)
        return q

    def generalized_positions(self) -> np.ndarray:
        """(T, 75) q of every frame: the first frame as stored, and in every
        later frame each 3-vector of exponential coordinates (the root's and
        each joint's) moved to the 2*pi-equivalent representation nearest the
        same vector of the frame before, so no coordinate jumps a branch.

        One call checks every frame against its stored predecessor; frames
        up to the first one with a vector to move are kept as stored, and
        the frame-by-frame unwrap runs only from there on.
        """
        q = self._stored_positions()
        coords = q[:, 3:].reshape(len(q), -1, 3)  # a view of q
        moved = (_continuous_exp_coords(coords[1:], coords[:-1]) != coords[1:]).any(axis=(1, 2))
        first = 1 + int(np.argmax(moved)) if moved.any() else len(q)
        for t in range(first, len(q)):
            coords[t] = _continuous_exp_coords(coords[t], coords[t - 1])
        return q

    def with_joint_positions(self, model: HumanoidModel) -> "MotionSequence":
        """Fill joint_positions by one forward-kinematics pass over all frames,
        each from its q as stored, not unwrapped."""
        out = self.copy()
        out.joint_positions = forward_kinematics(model, self._stored_positions()).positions
        return out


def _continuous_exp_coords(v: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Pick, per row of v (k, 3), the 2*pi-equivalent representation closest
    to the same row of previous; a new array. Along the unit vector u of v,
    the representations are v (1 + 2 pi k / |v|) for integer k, and the
    nearest to previous has k = round((u . previous - |v|) / (2 pi))."""
    norm = vector_norms(v)
    unit = norm > 1e-12
    safe = np.where(unit, norm, 1.0)
    along = (v * previous).sum(axis=-1, keepdims=True) / safe
    k = np.where(unit, np.round((along - norm) / (2.0 * np.pi)), 0.0)
    return np.where(k != 0.0, v * (1.0 + k * 2.0 * np.pi / safe), v)


def save_motion(seq: MotionSequence, path: str | Path) -> None:
    quats = matrix_to_quat(seq.root_rot)
    with open(path, "w") as fh:
        header = {"schema": SCHEMA, "fps": float(seq.frame_rate), "frames": len(seq)}
        fh.write(json.dumps(header) + "\n")
        for t in range(len(seq)):
            rec = {
                "frame": t,
                "root_trans_xyz": seq.root_trans[t].tolist(),
                "root_quat_wxyz": quats[t].tolist(),
                "joint_angles": seq.joint_angles[t].tolist(),
            }
            if seq.joint_positions is not None:
                rec["joint_positions"] = seq.joint_positions[t].tolist()
            if seq.contacts is not None:
                rec["contacts"] = seq.contacts[t].tolist()
            fh.write(json.dumps(rec) + "\n")


def load_motion(path: str | Path) -> MotionSequence:
    with open(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
            raise MotionFormatError(f"{path}:1: invalid header: {exc}") from exc
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != SCHEMA:
            raise MotionFormatError(f"{path}:1: schema {schema!r} not supported (expected {SCHEMA!r})")
        fps = header.get("fps")
        if type(fps) not in (int, float) or not (math.isfinite(fps) and fps > 0.0):
            raise MotionFormatError(f"{path}:1: fps must be finite and > 0, not {fps!r}")

        fields = {key: NumericField(key, shape) for key, shape in _FIELDS.items()}
        contacts = []
        n = 0
        for place, rec in jsonl_records(fh, path, start=2):
            # row t is frame t, as in a contacts file
            if type(rec.get("frame")) is not int or rec["frame"] != n:
                raise MotionFormatError(f"{place}: frame {rec.get('frame')!r} in row {n}; row t must read frame t")
            for key, field in fields.items():
                if key in rec:
                    field.add(rec[key], place)
                elif key != "joint_positions":
                    raise MotionFormatError(f"{place}: missing field {key}")
            if "contacts" in rec:
                flags = rec["contacts"]
                if not (isinstance(flags, list) and len(flags) == 4 and all(isinstance(v, bool) for v in flags)):
                    raise MotionFormatError(f"{place}: contacts must be four JSON booleans, got {flags!r}")
                contacts += flags
            n += 1

    if not n:
        raise MotionFormatError(f"{path}: no frames")
    positions = fields["joint_positions"]
    for key, count in (("joint_positions", len(positions.places)), ("contacts", len(contacts) // 4)):
        if 0 < count < n:
            raise MotionFormatError(f"{path}: {key} present on only some frames")
    expected = header.get("frames", n)
    if type(expected) is not int or expected != n:
        raise MotionFormatError(f"{path}: header declares {expected!r} frames, found {n}")
    return MotionSequence(
        frame_rate=fps,
        root_trans=fields["root_trans_xyz"].array(),
        root_rot=quat_to_matrix(check_quaternions(fields["root_quat_wxyz"])),
        joint_angles=fields["joint_angles"].array(),
        joint_positions=positions.array() if positions.places else None,
        contacts=np.array(contacts, dtype=bool).reshape(n, 4) if contacts else None,
    )


def resample_motion(seq: MotionSequence, target_fps: float) -> MotionSequence:
    """Linear resampling onto a uniform grid at target_fps (same time span).

    Root rotations are interpolated through normalized quaternion lerp; other
    channels linearly. Returns the input unchanged when rates already match.
    """
    if abs(target_fps - seq.frame_rate) < 1e-12:
        return seq
    n = len(seq)
    duration = (n - 1) / seq.frame_rate
    m = max(2, int(round(duration * target_fps)) + 1)
    src_t = np.arange(n) / seq.frame_rate
    dst_t = np.minimum(np.arange(m) / target_fps, src_t[-1])

    def interp(arr: np.ndarray) -> np.ndarray:
        flat = arr.reshape(n, -1)
        out = np.empty((m, flat.shape[1]))
        for c in range(flat.shape[1]):
            out[:, c] = np.interp(dst_t, src_t, flat[:, c])
        return out.reshape((m,) + arr.shape[1:])

    quats = matrix_to_quat(seq.root_rot)
    # keep quaternion hemisphere consistent before lerping
    for i in range(1, n):
        if quats[i] @ quats[i - 1] < 0:
            quats[i] = -quats[i]
    q_new = interp(quats)
    q_new /= np.linalg.norm(q_new, axis=1, keepdims=True)

    contacts = None
    if seq.contacts is not None:
        idx = np.clip(np.round(dst_t * seq.frame_rate).astype(int), 0, n - 1)
        contacts = seq.contacts[idx]
    return MotionSequence(
        frame_rate=target_fps,
        root_trans=interp(seq.root_trans),
        root_rot=quat_to_matrix(q_new),
        joint_angles=interp(seq.joint_angles),
        joint_positions=None if seq.joint_positions is None else interp(seq.joint_positions),
        contacts=contacts,
    )


def sequence_from_generalized(
    frame_rate: float,
    q_frames: np.ndarray,
    model: HumanoidModel,
    contacts: Optional[np.ndarray] = None,
) -> MotionSequence:
    """Build a sequence (with joint positions) from per-frame q vectors."""
    q_frames = np.asarray(q_frames, dtype=float).reshape(-1, NV)
    n = len(q_frames)
    trans = q_frames[:, 0:3].copy()
    rots = exp_so3(q_frames[:, 3:6])
    angles = q_frames[:, 6:].reshape(n, NUM_JOINTS, 3).copy()
    positions = forward_kinematics(model, q_frames).positions
    return MotionSequence(frame_rate, trans, rots, angles, positions, contacts)
