"""Rigid transforms, camera-frame conversion, filtering and the trajectory reader.

All rotations are stored as 3x3 matrices internally; file formats use unit
quaternions (w, x, y, z). Y-axis is up throughout the package. The camera
conversion and the file readers and writers take whole stacks of frames.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from .errors import InvalidInputError, InvalidTransformError, MotionFormatError, check_number
from .rotations import matvec_rows, quat_to_matrix, vector_norms


def _check_rotations(rot: np.ndarray, name: str = "rotation", tol: float = 1e-7) -> np.ndarray:
    """rot as a float array, checked to be one rotation matrix (3, 3) or a
    stack (..., 3, 3) of them; the first bad matrix of a stack is named by
    its row."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape[-2:] != (3, 3):
        raise InvalidTransformError(f"{name} must be 3x3, got {rot.shape}")
    finite = np.isfinite(rot).all(axis=(-2, -1))
    checked = np.where(finite[..., None, None], rot, np.eye(3))
    err = np.abs(np.swapaxes(checked, -1, -2) @ checked - np.eye(3)).max(axis=(-2, -1))
    det = np.linalg.det(checked)
    bad = ~finite | (err > tol) | (np.abs(det - 1.0) > tol)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        where = f"{name} row {','.join(str(i) for i in first)}" if first else name
        if not finite[first]:
            raise InvalidTransformError(f"{where} contains non-finite entries")
        raise InvalidTransformError(
            f"{where} not orthonormal: |R^T R - I| = {err[first]:.3e}, det = {det[first]:.6f}"
        )
    return rot


_BATCH = 4096  # numbers NumericField converts at once


class NumericField:
    """One numeric field of a file's N >= 1 records as one (N, *shape) float
    array, shape (n,) or (rows, columns): the one decoder of the motion,
    trajectory, transform and model readers.

    A value must be JSON numbers (int or float, never bool or str) in lists
    of the shape, finite unless finite is false. add() takes the values in
    record order with their places (file:line, or a model's body), and it or
    array() raises error naming the first bad record and the field. add()
    keeps only a value's numbers, converted some thousands at a time, so a
    reader need not keep its parsed records, whose many small lists would
    cost the garbage collector more than the decoding.
    """

    def __init__(self, name: str, shape: tuple, error: type = MotionFormatError, finite: bool = True):
        self.name, self.shape, self.error, self.finite = name, shape, error, finite
        self.not_numbers = f"{name} must be {' x '.join(map(str, shape))} finite numbers"
        self.places: List[str] = []
        self.arrays: List[np.ndarray] = []
        self.numbers: list = []  # those of the last records, not yet in arrays

    def add(self, value, place: str) -> "NumericField":
        try:
            if type(value) is not list or len(value) != self.shape[0]:
                raise TypeError
            # the rows' lengths in one call; a string row of the length
            # passes, and its characters then fail the numbers' type check
            if len(self.shape) == 2:
                if set(map(len, value)) != {self.shape[1]}:
                    raise TypeError
                value = chain.from_iterable(value)
        except TypeError:  # not lists of the shape, or len() of a number, bool or null
            self._convert()  # an earlier record's fault comes first
            raise self.error(f"{place}: {self.not_numbers}") from None
        self.numbers += value
        self.places.append(place)
        if len(self.numbers) >= _BATCH:
            self._convert()
        return self

    def array(self) -> np.ndarray:
        self._convert()
        return np.concatenate(self.arrays).reshape(-1, *self.shape)

    def _convert(self) -> None:
        """Moves the numbers into arrays, or raises naming the first of their records at fault."""
        with suppress(OverflowError):  # from an integer past the float range
            if set(map(type, self.numbers)) <= {int, float}:  # a bool is not an int here, as float() takes it
                array = np.array(self.numbers, dtype=float)
                if not self.finite or np.isfinite(array).all():
                    self.arrays.append(array)
                    self.numbers = []
                    return
        size = math.prod(self.shape)
        for i, place in enumerate(self.places[len(self.places) - len(self.numbers) // size :]):
            numbers = self.numbers[i * size : (i + 1) * size]
            stray = [x for x in numbers if type(x) not in (int, float)]
            if stray:
                raise self.error(f"{place}: {self.name} must hold JSON numbers only, got {stray[0]!r}")
            with suppress(OverflowError):  # never finite
                if all(map(math.isfinite, numbers)) or not self.finite:
                    continue
            raise self.error(f"{place}: {self.not_numbers}")


def check_quaternions(field: NumericField) -> np.ndarray:
    """The array of a field of (w, x, y, z) quaternions, each of non-zero, finite norm."""
    quats = field.array()
    with np.errstate(over="ignore"):  # finite entries past 1e154 have no finite norm
        norms = vector_norms(quats)[:, 0]
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if len(bad):
        raise MotionFormatError(f"{field.places[bad[0]]}: {field.name} has a zero or non-finite norm")
    return quats


_DECODER = json.JSONDecoder()


def jsonl_records(fh, path: str | Path, start: int = 1) -> Iterator[Tuple[str, dict]]:
    """(place, record) for each non-blank line of a line-delimited JSON
    file, lines numbered from start and each place file:line; a line that
    is not JSON or not a JSON object raises MotionFormatError naming it."""
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            # json.loads(line) less its wrapper, whose cost is a few percent of a motion file's load
            rec, end = _DECODER.raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
            raise MotionFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise MotionFormatError(f"{path}:{lineno}: expected a JSON object")
        yield f"{path}:{lineno}", rec


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element: p_world = rotation @ p_local + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if np.shape(self.rotation) != (3, 3):
            raise InvalidTransformError(f"rotation must be 3x3, got {np.shape(self.rotation)}")
        object.__setattr__(self, "rotation", _check_rotations(self.rotation))
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.isfinite(t).all():
            raise InvalidTransformError("translation contains non-finite entries")
        object.__setattr__(self, "translation", t)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


@dataclass(frozen=True)
class FilterParams:
    """One-Euro filter parameters (derivative cutoff fixed at 1 Hz)."""

    min_cutoff: float = 0.004
    beta: float = 0.7

    def __post_init__(self):
        check_number("min_cutoff", self.min_cutoff, "> 0")
        check_number("beta", self.beta, ">= 0")


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
    root_rot: np.ndarray, root_trans: np.ndarray, cam_rot: np.ndarray, cam_trans: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-express camera-frame root poses in the world frame.

    world_orientation = R^-1 @ cam_orientation
    world_translation = R^-1 @ (cam_translation_of_root - T)
    where (R, T) is the estimated camera pose. Takes one pose or stacks
    (..., 3, 3) and (..., 3) of them, each row with the bits of a one-pose
    call, and names the first row that is not a rotation.
    """
    root_rot = _check_rotations(root_rot, "root rotation")
    r = _check_rotations(cam_rot, "camera rotation")
    root_trans = np.asarray(root_trans, dtype=float)
    t = np.asarray(cam_trans, dtype=float)
    if root_rot.shape != r.shape or not root_trans.shape == t.shape == r.shape[:-1]:
        raise InvalidInputError(
            f"pose shapes differ: root {root_rot.shape} and {root_trans.shape},"
            f" camera {r.shape} and {t.shape}"
        )
    r_inv = np.swapaxes(r, -1, -2)
    return r_inv @ root_rot, matvec_rows(r_inv, root_trans - t)


def _smoothing_alpha(cutoff: float | np.ndarray, rate: float) -> float | np.ndarray:
    return 1.0 / (1.0 + rate / (2.0 * np.pi * cutoff))


def one_euro_filter(signal: np.ndarray, params: FilterParams, rate: float) -> np.ndarray:
    """One-Euro low-pass with speed-adaptive cutoff, applied per channel.

    signal is (T,) or (T, n), uniformly sampled at rate (Hz). The
    first output sample equals the first input sample. The derivative channel
    is smoothed with a fixed 1 Hz cutoff; the signal cutoff adapts as
    min_cutoff + beta * |smoothed derivative|.
    """
    check_number("rate", rate, "> 0")
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        return x.copy()
    if not np.isfinite(x).all():
        raise InvalidInputError("signal contains non-finite samples")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]

    # Two recursions, each a pass of three in-place operations per sample,
    # in the incremental form y + a (u - y) (bit-exact on constant signals):
    # the smoothed derivative from the differences, then the signal from the
    # cutoffs its derivative sets. Everything else is one operation over the
    # whole signal. One buffer holds the differences, then in their place
    # the smoothed derivative, then the signal's smoothing factors.
    work = np.empty_like(x)
    work[0] = 0.0
    np.subtract(x[1:], x[:-1], out=work[1:])
    work[1:] *= rate
    _smooth(work, work[1:], _smoothing_alpha(1.0, rate))
    alpha = work[1:]
    np.abs(alpha, out=alpha)
    alpha *= params.beta
    alpha += params.min_cutoff
    # _smoothing_alpha in place: 1 / (1 + rate / (2 pi cutoff))
    alpha *= 2.0 * np.pi
    np.divide(rate, alpha, out=alpha)
    alpha += 1.0
    np.divide(1.0, alpha, out=alpha)
    out = np.empty_like(x)
    out[0] = x[0]
    _smooth(out, x[1:], alpha)
    return out[:, 0] if squeeze else out


def _smooth(y: np.ndarray, u: np.ndarray, alpha) -> None:
    """y[t] = y[t-1] + alpha[t-1] (u[t-1] - y[t-1]) for t >= 1, in place from
    y[0]; alpha is one factor or one row per step. u may be y[1:], each
    u[t-1] read before y[t] replaces it."""
    step = np.empty(y.shape[1:])
    scalar = np.ndim(alpha) == 0
    for t in range(1, len(y)):
        np.subtract(u[t - 1], y[t - 1], out=step)
        step *= alpha if scalar else alpha[t - 1]
        np.add(y[t - 1], step, out=y[t])


def load_trajectory(path: str | Path) -> Trajectory:
    frames = []
    quats, translations = NumericField("quat_wxyz", (4,)), NumericField("trans_xyz", (3,))
    with open(path) as fh:
        for place, rec in jsonl_records(fh, path):
            try:
                frame = rec["frame"]
                quats.add(rec["quat_wxyz"], place)
                translations.add(rec["trans_xyz"], place)
            except KeyError as exc:
                raise MotionFormatError(f"{place}: missing field {exc}") from exc
            # as written: int() would take 1.7, "2" or true, and overflow on 1e400
            if type(frame) is not int or not -(2**63) <= frame < 2**63:
                raise MotionFormatError(f"{place}: frame must be a 64-bit JSON integer, got {frame!r}")
            frames.append(frame)
    if not frames:
        raise MotionFormatError(f"{path}: empty trajectory file")
    return Trajectory(np.array(frames), quat_to_matrix(check_quaternions(quats)), translations.array())
