import numpy as np
import pytest

from physmotion.errors import InvalidInputError, UndefinedMetricError
from physmotion.metrics import (
    FOOT_JOINTS,
    TOE_JOINTS,
    MetricReport,
    foot_sliding,
    jitter,
    mpjpe,
    pa_mpjpe,
    penetration_stats,
    rte,
    w_mpjpe,
    wa_mpjpe,
)
from physmotion.motion import MotionSequence
from physmotion.rotations import random_rotation
from physmotion.scene import ContactLabels, HeightMap, build_height_map, make_box_mesh, query_height


def make_seq(rng, n=10, joints=None, walk=True):
    if joints is None:
        joints = rng.normal(size=(n, 24, 3))
    roots = joints[:, 0, :].copy()
    if walk:
        roots = roots + np.linspace(0, 3, n)[:, None] * np.array([0, 0, 1.0])
        joints = joints + (roots - joints[:, 0, :])[:, None, :]
    return MotionSequence(
        frame_rate=60.0,
        root_trans=roots,
        root_rot=np.array([random_rotation(rng) for _ in range(n)]),
        joint_angles=np.zeros((n, 23, 3)),
        joint_positions=joints,
    )


def transformed_copy(seq, rot, trans, scale=1.0):
    out = seq.copy()
    out.root_trans = scale * seq.root_trans @ rot.T + trans
    out.root_rot = np.einsum("ij,njk->nik", rot, seq.root_rot)
    out.joint_positions = scale * seq.joint_positions @ rot.T + trans
    return out


def mpjpe_bruteforce(pred, gt):
    total = 0.0
    count = 0
    for t in range(len(pred)):
        for j in range(pred.joint_positions.shape[1]):
            p = pred.joint_positions[t, j] - pred.joint_positions[t, 0]
            g = gt.joint_positions[t, j] - gt.joint_positions[t, 0]
            total += np.sqrt(((p - g) ** 2).sum())
            count += 1
    return 1000.0 * total / count


class TestMPJPE:
    def test_identical_is_zero(self, rng):
        seq = make_seq(rng)
        assert mpjpe(seq, seq) == 0.0

    def test_uniform_offset(self, rng):
        gt = make_seq(rng)
        pred = gt.copy()
        # +10 mm along x on every joint except the pelvis (pelvis-relative)
        pred.joint_positions = gt.joint_positions.copy()
        pred.joint_positions[:, 1:, 0] += 0.010
        got = mpjpe(pred, gt)
        assert abs(got - 10.0 * 23 / 24) < 1e-9

    def test_bruteforce_oracle(self, rng):
        for _ in range(5):
            pred, gt = make_seq(rng), make_seq(rng)
            assert abs(mpjpe(pred, gt) - mpjpe_bruteforce(pred, gt)) < 1e-9

    def test_scaling_linearity(self, rng):
        gt = make_seq(rng)
        delta = np.random.default_rng(5).normal(size=gt.joint_positions.shape) * 0.01
        delta[:, 0, :] = 0.0
        pred1, pred2 = gt.copy(), gt.copy()
        pred1.joint_positions = gt.joint_positions + delta
        pred2.joint_positions = gt.joint_positions + 2.0 * delta
        assert abs(mpjpe(pred2, gt) - 2.0 * mpjpe(pred1, gt)) < 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            mpjpe(make_seq(rng, n=5), make_seq(rng, n=6))


def umeyama_oracle(src, dst):
    """Closed-form similarity alignment, independent implementation."""
    mu_s, mu_d = src.mean(0), dst.mean(0)
    sc, dc = src - mu_s, dst - mu_d
    cov = dc.T @ sc / len(src)
    u, d, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1
    rot = u @ s @ vt
    var = (sc**2).sum() / len(src)
    scale = np.trace(np.diag(d) @ s) / var
    trans = mu_d - scale * rot @ mu_s
    return scale, rot, trans


class TestPAMPJPE:
    def test_similarity_invariance(self, rng):
        gt = make_seq(rng)
        pred = gt.copy()
        pred.joint_positions = gt.joint_positions.copy()
        for t in range(len(gt)):
            r = random_rotation(rng)
            s = rng.uniform(0.5, 2.0)
            tr = rng.normal(size=3)
            pred.joint_positions[t] = s * gt.joint_positions[t] @ r.T + tr
        assert pa_mpjpe(pred, gt) < 1e-9

    def test_identical_is_zero(self, rng):
        seq = make_seq(rng)
        assert pa_mpjpe(seq, seq) < 1e-9

    def test_against_svd_oracle(self, rng):
        pred, gt = make_seq(rng), make_seq(rng)
        errs = []
        for t in range(len(pred)):
            s, r, tr = umeyama_oracle(pred.joint_positions[t], gt.joint_positions[t])
            aligned = s * pred.joint_positions[t] @ r.T + tr
            errs.append(np.linalg.norm(aligned - gt.joint_positions[t], axis=1).mean())
        expected = float(np.mean(errs) * 1000)
        assert abs(pa_mpjpe(pred, gt) - expected) < 1e-9

    def test_never_above_mpjpe(self, rng):
        for _ in range(25):
            pred, gt = make_seq(rng), make_seq(rng)
            assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9


class TestWMPJPE:
    def test_identical_is_zero(self, rng):
        seq = make_seq(rng)
        assert w_mpjpe(seq, seq) < 1e-9

    def test_global_rigid_offset_removed(self, rng):
        gt = make_seq(rng)
        pred = transformed_copy(gt, random_rotation(rng), rng.normal(size=3))
        assert w_mpjpe(pred, gt) < 1e-9

    def test_linear_drift_oracle(self, rng):
        gt = make_seq(rng, n=100)
        pred = gt.copy()
        drift = np.zeros((100, 3))
        drift[:, 0] = np.arange(100) * 0.001  # 1 mm per frame along x
        pred.joint_positions = gt.joint_positions + drift[:, None, :]
        pred.root_trans = gt.root_trans + drift
        got = w_mpjpe(pred, gt)
        # independent recomputation: fit the first-two-frame transform directly
        wahba = gt.root_rot[0] @ pred.root_rot[0].T + gt.root_rot[1] @ pred.root_rot[1].T
        u, _, vt = np.linalg.svd(wahba)
        s = np.eye(3)
        if np.linalg.det(u) * np.linalg.det(vt) < 0:
            s[2, 2] = -1
        rot = u @ s @ vt
        trans = (gt.root_trans[:2] - pred.root_trans[:2] @ rot.T).mean(axis=0)
        aligned = pred.joint_positions @ rot.T + trans
        expected = float(np.linalg.norm(aligned - gt.joint_positions, axis=2).mean() * 1000)
        assert abs(got - expected) < 1e-9


class TestWAMPJPE:
    def test_identical_and_rigid(self, rng):
        gt = make_seq(rng)
        assert wa_mpjpe(gt, gt) < 1e-9
        pred = transformed_copy(gt, random_rotation(rng), rng.normal(size=3))
        assert wa_mpjpe(pred, gt) < 1e-9

    def test_drift_bounded_by_w_mpjpe(self, rng):
        for _ in range(10):
            gt = make_seq(rng, n=60)
            pred = gt.copy()
            drift = np.zeros((60, 3))
            drift[:, 0] = np.arange(60) * rng.uniform(0.001, 0.01)
            pred.joint_positions = gt.joint_positions + drift[:, None, :]
            pred.root_trans = gt.root_trans + drift
            assert wa_mpjpe(pred, gt) <= w_mpjpe(pred, gt) + 1e-9


class TestRTE:
    def test_identical_is_zero(self, rng):
        seq = make_seq(rng)
        assert rte(seq, seq) < 1e-12

    def test_rigid_transform_of_pred_removed(self, rng):
        gt = make_seq(rng)
        pred = transformed_copy(gt, random_rotation(rng), rng.normal(size=3))
        assert rte(pred, gt) < 1e-9

    def test_drift_oracle(self, rng):
        gt = make_seq(rng, n=80)
        pred = gt.copy()
        drift = np.zeros((80, 3))
        drift[:, 2] = np.arange(80) * 0.002
        pred.root_trans = gt.root_trans + drift
        pred.joint_positions = gt.joint_positions + drift[:, None, :]
        got = rte(pred, gt)
        # independent rigid (Kabsch) alignment of the root trajectories
        mu_p, mu_g = pred.root_trans.mean(0), gt.root_trans.mean(0)
        cov = (gt.root_trans - mu_g).T @ (pred.root_trans - mu_p)
        u, _, vt = np.linalg.svd(cov)
        s = np.eye(3)
        if np.linalg.det(u) * np.linalg.det(vt) < 0:
            s[2, 2] = -1
        rot = u @ s @ vt
        trans = mu_g - rot @ mu_p
        aligned = pred.root_trans @ rot.T + trans
        path = np.linalg.norm(np.diff(gt.root_trans, axis=0), axis=1).sum()
        expected = 100.0 * np.linalg.norm(aligned - gt.root_trans, axis=1).mean() / path
        assert abs(got - expected) < 1e-9

    def test_zero_displacement_rejected(self, rng):
        gt = make_seq(rng, walk=False)
        gt.root_trans = np.zeros_like(gt.root_trans)
        pred = gt.copy()
        with pytest.raises(UndefinedMetricError):
            rte(pred, gt)


class TestJitter:
    def test_constant_zero(self, rng):
        seq = make_seq(rng, n=10)
        seq.joint_positions = np.tile(seq.joint_positions[0], (10, 1, 1))
        assert jitter(seq) == 0.0

    def test_linear_motion_zero(self, rng):
        seq = make_seq(rng, n=10)
        base = seq.joint_positions[0]
        vel = rng.normal(size=(24, 3))
        seq.joint_positions = base[None] + np.arange(10)[:, None, None] * vel[None] / 60.0
        assert jitter(seq) < 1e-9

    def test_sinusoid_analytic(self):
        n, fps, amp, freq = 120, 60.0, 0.05, 2.0
        t = np.arange(n) / fps
        pos = np.zeros((n, 24, 3))
        pos[:, 5, 1] = amp * np.sin(2 * np.pi * freq * t)
        seq = MotionSequence(fps, np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 23, 3)), pos)
        got = jitter(seq)
        second = pos[2:] - 2 * pos[1:-1] + pos[:-2]
        expected = float(np.linalg.norm(second, axis=2).mean() * fps * 1000)
        assert abs(got - expected) < 1e-6

    def test_too_short(self, rng):
        with pytest.raises(UndefinedMetricError):
            jitter(make_seq(rng, n=2))


class TestFootSliding:
    def make_standing(self, n=12):
        pos = np.zeros((n, 24, 3))
        return MotionSequence(60.0, np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 23, 3)), pos)

    def test_stationary_is_zero(self):
        seq = self.make_standing()
        contacts = ContactLabels(np.ones((12, 4), dtype=bool))
        assert foot_sliding(seq, contacts) == 0.0

    def test_no_contacts_warns_and_returns_zero(self):
        seq = self.make_standing()
        contacts = ContactLabels(np.zeros((12, 4), dtype=bool))
        with pytest.warns(UserWarning):
            assert foot_sliding(seq, contacts) == 0.0

    def test_hand_computed_displacement(self):
        seq = self.make_standing(n=11)
        # left toe joint moves 2 mm per frame horizontally during contact
        for t in range(11):
            seq.joint_positions[t, TOE_JOINTS[0], 0] = 0.002 * t
        labels = np.zeros((11, 4), dtype=bool)
        labels[:, 0] = True
        assert abs(foot_sliding(seq, ContactLabels(labels)) - 2.0) < 1e-9


class TestPenetrationStats:
    def flat_map(self):
        return build_height_map(make_box_mesh(-5, 5, -5, 5, 0.0), (16, 16))

    def seq_at_height(self, y, n=10):
        pos = np.zeros((n, 24, 3))
        pos[:, :, 1] = 1.0
        for j in FOOT_JOINTS:
            pos[:, j, 1] = y
        return MotionSequence(60.0, np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 23, 3)), pos)

    def test_on_surface(self):
        seq = self.seq_at_height(0.0)
        pct, depth, above = penetration_stats(seq, self.flat_map(), ContactLabels(np.ones((10, 4), bool)))
        assert (pct, depth, above) == (0.0, 0.0, 0.0)

    def test_uniform_penetration(self):
        seq = self.seq_at_height(-0.010)
        pct, depth, above = penetration_stats(seq, self.flat_map(), ContactLabels(np.ones((10, 4), bool)))
        assert pct == 100.0
        assert abs(depth - 10.0) < 1e-9
        assert above == 0.0

    def test_height_above(self):
        seq = self.seq_at_height(0.025)
        pct, depth, above = penetration_stats(seq, self.flat_map(), ContactLabels(np.ones((10, 4), bool)))
        assert pct == 0.0 and depth == 0.0
        assert abs(above - 25.0) < 1e-9

    def assert_matches_loop(self, rng, hm):
        n = 20
        pos = rng.normal(size=(n, 24, 3)) * 0.05
        seq = MotionSequence(60.0, np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 23, 3)), pos)
        labels = ContactLabels(rng.uniform(size=(n, 4)) > 0.3)
        pct, depth, above = penetration_stats(seq, hm, labels)
        pen_frames, depths, heights = 0, [], []
        for t in range(n):
            worst = max(query_height(hm, *pos[t, j, [0, 2]]) - pos[t, j, 1] for j in FOOT_JOINTS)
            if worst > 0:
                pen_frames += 1
                depths.append(worst)
            if labels.data[t].any():
                jlow = min(FOOT_JOINTS, key=lambda j: pos[t, j, 1])
                heights.append(max(0.0, pos[t, jlow, 1] - query_height(hm, *pos[t, jlow, [0, 2]])))
        assert abs(pct - 100.0 * pen_frames / n) < 1e-9
        assert abs(depth - (np.mean(depths) * 1000 if depths else 0.0)) < 1e-9
        assert abs(above - (np.mean(heights) * 1000 if heights else 0.0)) < 1e-9

    def test_mixed_matches_bruteforce(self, rng):
        self.assert_matches_loop(rng, self.flat_map())

    def test_uneven_ground_matches_bruteforce(self, rng):
        # some foot joints fall off the grid onto the default height
        heights = rng.normal(size=(10, 10)) * 0.03
        self.assert_matches_loop(rng, HeightMap((-0.1, -0.1), 0.02, heights, default_height=-0.05))

    def test_contacts_length_must_match(self):
        with pytest.raises(InvalidInputError, match="contacts length"):
            penetration_stats(self.seq_at_height(0.0), self.flat_map(), ContactLabels(np.ones((9, 4), bool)))

    def test_strictly_above_is_zero_pct(self, rng):
        seq = self.seq_at_height(0.001)
        pct, _, _ = penetration_stats(seq, self.flat_map(), None)
        assert pct == 0.0


class TestInvariants:
    def test_rigid_symmetry_all_metrics(self, rng):
        pred, gt = make_seq(rng), make_seq(rng)
        rot, trans = random_rotation(rng), rng.normal(size=3)
        pred2 = transformed_copy(pred, rot, trans)
        gt2 = transformed_copy(gt, rot, trans)
        assert abs(mpjpe(pred, gt) - mpjpe(pred2, gt2)) < 1e-8
        assert abs(pa_mpjpe(pred, gt) - pa_mpjpe(pred2, gt2)) < 1e-8
        assert abs(w_mpjpe(pred, gt) - w_mpjpe(pred2, gt2)) < 1e-7
        assert abs(wa_mpjpe(pred, gt) - wa_mpjpe(pred2, gt2)) < 1e-7
        assert abs(rte(pred, gt) - rte(pred2, gt2)) < 1e-8


def test_report_serialization():
    rep = MetricReport(
        mpjpe=1.0,
        pa_mpjpe=float("nan"),
        w_mpjpe=2.0,
        wa_mpjpe=3.0,
        rte=0.5,
        jitter=4.0,
        foot_sliding=0.1,
        penetration_pct=10.0,
        penetration_depth=2.0,
        height_above=1.0,
    )
    doc = rep.to_dict()
    assert doc["pa_mpjpe"] is None
    assert "MPJPE" in rep.table()
    import json

    json.loads(rep.to_json())
