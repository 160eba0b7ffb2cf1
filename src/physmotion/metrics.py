"""Evaluation metrics: 3D reconstruction errors and physical plausibility.

Reconstruction metrics compare predicted and ground-truth joint positions
under different alignments:

    mpjpe      per-frame pelvis (root-translation) alignment
    pa_mpjpe   per-frame similarity (Procrustes) alignment
    w_mpjpe    one rigid transform fit to the first two root poses
    wa_mpjpe   one rigid transform fit to the whole root trajectory
    rte        root error after whole-trajectory alignment, % of path length

Physical plausibility is measured against the scene height map: percent of
frames with any foot below the surface, mean penetration depth, and mean
height of the lowest foot above the surface on contact-labeled frames. The
foot joints are the ankles and feet (SMPL indices 7, 8, 10, 11); the toe
columns used for foot sliding are the foot joints (10, 11).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .motion import MotionSequence
from .scene import ContactLabels, HeightMap, query_height

PELVIS = 0
FOOT_JOINTS = (7, 8, 10, 11)  # l_ankle, r_ankle, l_foot, r_foot
TOE_JOINTS = (10, 11)
TOE_CONTACT_COLUMNS = (0, 1)  # l_toe, r_toe in the contact-label order


@dataclass
class MetricReport:
    mpjpe: float  # mm
    pa_mpjpe: float  # mm
    w_mpjpe: float  # mm
    wa_mpjpe: float  # mm
    rte: float  # percent
    jitter: float  # mm/s
    foot_sliding: float  # mm
    penetration_pct: float  # percent of frames
    penetration_depth: float  # mm
    height_above: float  # mm

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = float(getattr(self, f.name))
            out[f.name] = v if np.isfinite(v) else None
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self) -> str:
        rows = [
            ("MPJPE (mm)", self.mpjpe),
            ("PA-MPJPE (mm)", self.pa_mpjpe),
            ("W-MPJPE (mm)", self.w_mpjpe),
            ("WA-MPJPE (mm)", self.wa_mpjpe),
            ("RTE (%)", self.rte),
            ("Jitter (mm/s)", self.jitter),
            ("Foot sliding (mm)", self.foot_sliding),
            ("Scene penetration (% frames)", self.penetration_pct),
            ("Penetration depth (mm)", self.penetration_depth),
            ("Height above scene (mm)", self.height_above),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value:12.4f}" for name, value in rows)


def _joints(seq: MotionSequence) -> np.ndarray:
    if seq.joint_positions is None:
        raise InvalidInputError("sequence has no joint positions; run FK first")
    return seq.joint_positions


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape:
        raise InvalidInputError(f"shape mismatch: {pred.shape} vs {gt.shape}")


def mpjpe(pred: MotionSequence, gt: MotionSequence) -> float:
    """Mean joint error after per-frame pelvis alignment, in mm."""
    p, g = _joints(pred), _joints(gt)
    _check_pair(p, g)
    p_rel = p - p[:, PELVIS : PELVIS + 1]
    g_rel = g - g[:, PELVIS : PELVIS + 1]
    return float(np.linalg.norm(p_rel - g_rel, axis=2).mean() * 1000.0)


def similarity_align(source: np.ndarray, target: np.ndarray, with_scale: bool = True):
    """Least-squares similarity (or rigid) alignment of two point sets.

    Returns (scale, rotation, translation) minimizing
    sum |s R source_i + t - target_i|^2, reflection excluded.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    src_c = src - mu_s
    tgt_c = tgt - mu_t
    cov = tgt_c.T @ src_c / len(src)
    u, svals, vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2, 2] = -1.0
    rot = u @ sign @ vt
    if with_scale:
        var = (src_c**2).sum() / len(src)
        if var == 0.0:
            raise UndefinedMetricError("degenerate frame: all points coincide")
        scale = float(np.trace(np.diag(svals) @ sign) / var)
    else:
        scale = 1.0
    trans = mu_t - scale * rot @ mu_s
    return scale, rot, trans


def pa_mpjpe(pred: MotionSequence, gt: MotionSequence) -> float:
    """Mean joint error after per-frame Procrustes alignment, in mm."""
    p, g = _joints(pred), _joints(gt)
    _check_pair(p, g)
    errs = []
    for t in range(len(p)):
        spread = float(((p[t] - p[t].mean(axis=0)) ** 2).sum())
        if spread == 0.0:
            warnings.warn(f"frame {t}: all joints coincide, skipped in pa_mpjpe")
            continue
        scale, rot, trans = similarity_align(p[t], g[t], with_scale=True)
        aligned = scale * p[t] @ rot.T + trans
        errs.append(np.linalg.norm(aligned - g[t], axis=1).mean())
    if not errs:
        raise UndefinedMetricError("no valid frames for pa_mpjpe")
    return float(np.mean(errs) * 1000.0)


def _first_two_frame_transform(pred: MotionSequence, gt: MotionSequence):
    """Rigid transform fitting pred's first two root poses to gt's."""
    if len(pred.root_trans) < 2:
        raise UndefinedMetricError("w_mpjpe needs at least 2 frames")
    wahba = gt.root_rot[0] @ pred.root_rot[0].T + gt.root_rot[1] @ pred.root_rot[1].T
    u, _, vt = np.linalg.svd(wahba)
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2, 2] = -1.0
    rot = u @ sign @ vt
    trans = (gt.root_trans[:2] - pred.root_trans[:2] @ rot.T).mean(axis=0)
    return rot, trans


def w_mpjpe(pred: MotionSequence, gt: MotionSequence) -> float:
    """World-frame joint error after aligning the first two frames, in mm."""
    p, g = _joints(pred), _joints(gt)
    _check_pair(p, g)
    rot, trans = _first_two_frame_transform(pred, gt)
    aligned = p @ rot.T + trans
    return float(np.linalg.norm(aligned - g, axis=2).mean() * 1000.0)


def _trajectory_alignment(pred_roots: np.ndarray, gt_roots: np.ndarray):
    """Rigid fit of the root trajectories; translation-only when the
    trajectory collapses to a point and the rotation is unidentifiable."""
    spread = float(np.linalg.norm(pred_roots - pred_roots.mean(axis=0), axis=1).max())
    if spread < 1e-3:
        return np.eye(3), gt_roots.mean(axis=0) - pred_roots.mean(axis=0)
    _, rot, trans = similarity_align(pred_roots, gt_roots, with_scale=False)
    return rot, trans


def wa_mpjpe(pred: MotionSequence, gt: MotionSequence) -> float:
    """World-frame joint error after whole-trajectory rigid alignment, in mm."""
    p, g = _joints(pred), _joints(gt)
    _check_pair(p, g)
    rot, trans = _trajectory_alignment(pred.root_trans, gt.root_trans)
    aligned = p @ rot.T + trans
    return float(np.linalg.norm(aligned - g, axis=2).mean() * 1000.0)


def rte(pred: MotionSequence, gt: MotionSequence) -> float:
    """Root translation error over the aligned trajectory, % of gt path length."""
    p = pred.root_trans
    g = gt.root_trans
    if p.shape != g.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {g.shape}")
    path = float(np.linalg.norm(np.diff(g, axis=0), axis=1).sum())
    if path <= 0.0:
        raise UndefinedMetricError("ground-truth displacement is zero")
    rot, trans = _trajectory_alignment(p, g)
    aligned = p @ rot.T + trans
    return float(100.0 * np.linalg.norm(aligned - g, axis=1).mean() / path)


def jitter(seq: MotionSequence) -> float:
    """Temporal smoothness error: frame-rate-scaled second difference, mm/s."""
    p = _joints(seq)
    if len(p) < 3:
        raise UndefinedMetricError("jitter needs at least 3 frames")
    second = p[2:] - 2.0 * p[1:-1] + p[:-2]
    return float(np.linalg.norm(second, axis=2).mean() * seq.frame_rate * 1000.0)


def foot_sliding(seq: MotionSequence, contacts: ContactLabels) -> float:
    """Mean horizontal toe displacement across consecutive in-contact frames, mm."""
    p = _joints(seq)
    if len(contacts) != len(p):
        raise InvalidInputError("contacts length differs from sequence length")
    disp = []
    for joint, col in zip(TOE_JOINTS, TOE_CONTACT_COLUMNS):
        on = contacts.data[:, col]
        both = on[1:] & on[:-1]
        if not both.any():
            continue
        delta = p[1:, joint][both] - p[:-1, joint][both]
        disp.extend(np.hypot(delta[:, 0], delta[:, 2]))
    if not disp:
        warnings.warn("no consecutive in-contact frame pairs; foot sliding is 0")
        return 0.0
    return float(np.mean(disp) * 1000.0)


def penetration_stats(
    seq: MotionSequence, hm: HeightMap, contacts: Optional[ContactLabels] = None
) -> Tuple[float, float, float]:
    """(percent of penetrating frames, mean max depth in mm, mean height above in mm).

    Depth averages over penetrating frames only; height above the surface
    averages the lowest foot joint over contact-labeled frames.
    """
    p = _joints(seq)[:, list(FOOT_JOINTS)]  # (T, F, 3)
    n = len(p)
    surf = query_height(hm, p[..., 0], p[..., 2])
    worst = (surf - p[..., 1]).max(axis=1, initial=0.0)
    depths = worst[worst > 0.0]
    penetrating = len(depths)
    heights = []
    if contacts is not None:
        if len(contacts) != n:
            raise InvalidInputError("contacts length differs from sequence length")
        frames = np.flatnonzero(contacts.data.any(axis=1))
        low = np.argmin(p[frames, :, 1], axis=1)
        heights = np.maximum(0.0, p[frames, low, 1] - surf[frames, low])
    pct = 100.0 * penetrating / n if n else 0.0
    depth_mm = float(np.mean(depths) * 1000.0) if len(depths) else 0.0
    height_mm = float(np.mean(heights) * 1000.0) if len(heights) else 0.0
    return pct, depth_mm, height_mm


def evaluate(
    pred: MotionSequence,
    gt: Optional[MotionSequence] = None,
    hm: Optional[HeightMap] = None,
    contacts: Optional[ContactLabels] = None,
) -> MetricReport:
    """Full metric suite; reconstruction metrics need gt, plausibility a map.

    Metrics that are undefined for the input (zero displacement, too few
    frames) are reported as NaN instead of aborting the report.
    """
    nan = float("nan")

    def guarded(fn, *args):
        try:
            return fn(*args)
        except UndefinedMetricError:
            return nan

    contacts = contacts if contacts is not None else pred.contacts
    pen = penetration_stats(pred, hm, contacts) if hm is not None else (nan, nan, nan)
    return MetricReport(
        mpjpe=guarded(mpjpe, pred, gt) if gt is not None else nan,
        pa_mpjpe=guarded(pa_mpjpe, pred, gt) if gt is not None else nan,
        w_mpjpe=guarded(w_mpjpe, pred, gt) if gt is not None else nan,
        wa_mpjpe=guarded(wa_mpjpe, pred, gt) if gt is not None else nan,
        rte=guarded(rte, pred, gt) if gt is not None else nan,
        jitter=guarded(jitter, pred),
        foot_sliding=guarded(foot_sliding, pred, contacts) if contacts is not None else nan,
        penetration_pct=pen[0],
        penetration_depth=pen[1],
        height_above=pen[2],
    )
