import numpy as np
import pytest
from oracles import one_euro_per_sample, random_rotation, save_trajectory, world_to_camera

from physmotion.errors import (
    InvalidInputError,
    InvalidTransformError,
    MotionFormatError,
)
from physmotion.frames import (
    FilterParams,
    RigidTransform,
    Trajectory,
    camera_to_world,
    hand_eye_calibrate,
    load_trajectory,
    one_euro_filter,
)


def random_transform(rng):
    return RigidTransform(random_rotation(rng), rng.normal(size=3))


def as_matrix(t):
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


class TestRigidTransform:
    def test_compose_inverse_identity(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            ident = t.compose(t.inverse())
            assert np.abs(ident.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(ident.translation).max() < 1e-9

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(InvalidTransformError):
            RigidTransform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidTransformError):
            RigidTransform(refl, np.zeros(3))


class TestHandEye:
    def test_identity_case(self):
        ident = RigidTransform(np.eye(3), np.zeros(3))
        out = hand_eye_calibrate(ident, ident, ident)
        assert np.abs(out.rotation - np.eye(3)).max() <= 1e-12 and np.abs(out.translation).max() <= 1e-12

    def test_cancellation(self, rng):
        t = random_transform(rng)
        out = hand_eye_calibrate(t, t, RigidTransform(np.eye(3), np.zeros(3)))
        assert np.abs(out.rotation - np.eye(3)).max() <= 1e-12 and np.abs(out.translation).max() <= 1e-12

    def test_homogeneous_matrix_oracle(self, rng):
        for _ in range(100):
            t_eh, t_ef, t_mf = (random_transform(rng) for _ in range(3))
            out = hand_eye_calibrate(t_eh, t_ef, t_mf)
            expected = (
                np.linalg.inv(as_matrix(t_eh)) @ as_matrix(t_ef) @ np.linalg.inv(as_matrix(t_mf))
            )
            assert np.abs(as_matrix(out) - expected).max() < 1e-12

    def test_composition_recovers_measurement(self, rng):
        # T_EH * result * T_MF == T_EF
        for _ in range(50):
            t_eh, t_ef, t_mf = (random_transform(rng) for _ in range(3))
            out = hand_eye_calibrate(t_eh, t_ef, t_mf)
            recomposed = t_eh.compose(out).compose(t_mf)
            assert np.abs(as_matrix(recomposed) - as_matrix(t_ef)).max() < 1e-10


def random_poses(rng, n):
    return np.array([random_rotation(rng) for _ in range(n)]), rng.normal(size=(n, 3))


class TestCameraToWorld:
    def test_identity_camera(self, rng):
        rot, trans = random_rotation(rng), rng.normal(size=3)
        out_rot, out_trans = camera_to_world(rot, trans, np.eye(3), np.zeros(3))
        assert np.allclose(out_rot, rot)
        assert np.allclose(out_trans, trans)

    def test_translation_cancellation(self, rng):
        t_s = rng.normal(size=3)
        _, out_trans = camera_to_world(np.eye(3), t_s, random_rotation(rng), t_s)
        assert np.abs(out_trans).max() < 1e-12

    def test_quarter_turn_case(self):
        # 90 degrees about y, camera at (1,0,0), root at (1,0,0) in camera frame
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        r_s = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        rot, trans = np.eye(3), np.array([1.0, 0.0, 0.0])
        out_rot, out_trans = camera_to_world(rot, trans, r_s, np.array([1.0, 0.0, 0.0]))
        assert np.abs(out_trans).max() < 1e-12
        assert np.allclose(out_rot, r_s.T, atol=1e-12)
        # independent homogeneous oracle: world = inv([R_S, T_S]) applied to camera pose
        cam = np.eye(4)
        cam[:3, :3] = rot
        cam[:3, 3] = trans
        world = np.eye(4)
        world[:3, :3] = r_s
        world[:3, 3] = np.array([1.0, 0.0, 0.0])
        expected = np.linalg.inv(world) @ cam
        assert np.allclose(out_rot, expected[:3, :3], atol=1e-12)
        assert np.allclose(out_trans, expected[:3, 3], atol=1e-12)

    def test_round_trip(self, rng):
        rot, trans = random_poses(rng, 200)
        r_s, t_s = random_poses(rng, 200)
        back_rot, back_trans = world_to_camera(*camera_to_world(rot, trans, r_s, t_s), r_s, t_s)
        assert np.abs(back_rot - rot).max() < 1e-10
        assert np.abs(back_trans - trans).max() < 1e-10

    def test_stack_equals_one_pose_per_call_bit_for_bit(self, rng):
        rot, trans = random_poses(rng, 500)
        r_s, t_s = random_poses(rng, 500)
        t_s *= 100.0
        world_rot, world_trans = camera_to_world(rot, trans, r_s, t_s)
        assert world_rot.shape == (500, 3, 3) and world_trans.shape == (500, 3)
        for k in range(500):
            one_rot, one_trans = camera_to_world(rot[k], trans[k], r_s[k], t_s[k])
            assert one_rot.shape == (3, 3) and one_trans.shape == (3,)
            assert np.array_equal(world_rot[k], one_rot) and np.array_equal(world_trans[k], one_trans)
            # the per-frame products the conversion stands for
            assert np.array_equal(one_rot, r_s[k].T @ rot[k])
            assert np.array_equal(one_trans, r_s[k].T @ (trans[k] - t_s[k]))

    @pytest.mark.parametrize("stack", ["root rotation", "camera rotation"])
    def test_first_bad_rotation_of_a_stack_is_named_by_row(self, rng, stack):
        rot, trans = random_poses(rng, 6)
        r_s, t_s = random_poses(rng, 6)
        bad = rot if stack == "root rotation" else r_s
        bad[4] *= 1.1
        bad[5, 0, 0] = np.nan
        with pytest.raises(InvalidTransformError, match=f"^{stack} row 4 not orthonormal"):
            camera_to_world(rot, trans, r_s, t_s)
        bad[2] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidTransformError, match=f"^{stack} row 2 not orthonormal"):
            camera_to_world(rot, trans, r_s, t_s)
        bad[1, 2, 1] = np.inf
        with pytest.raises(InvalidTransformError, match=f"^{stack} row 1 contains non-finite entries"):
            camera_to_world(rot, trans, r_s, t_s)
        with pytest.raises(InvalidInputError, match="pose shapes differ"):
            camera_to_world(*random_poses(rng, 2), *random_poses(rng, 3))


def make_trajectory(rng, n=10):
    return Trajectory(
        np.arange(n),
        np.array([random_rotation(rng) for _ in range(n)]),
        np.cumsum(rng.normal(size=(n, 3)), axis=0),
    )


def one_euro_reference(signal, min_cutoff, beta, rate, d_cutoff=1.0):
    """Direct scalar recursion, written independently of the implementation."""
    def alpha(fc):
        return 1.0 / (1.0 + rate / (2.0 * np.pi * fc))

    out = [signal[0]]
    x_hat = signal[0]
    dx_hat = 0.0
    for k in range(1, len(signal)):
        dx = (signal[k] - signal[k - 1]) * rate
        dx_hat = alpha(d_cutoff) * dx + (1 - alpha(d_cutoff)) * dx_hat
        fc = min_cutoff + beta * abs(dx_hat)
        x_hat = alpha(fc) * signal[k] + (1 - alpha(fc)) * x_hat
        out.append(x_hat)
    return np.array(out)


class TestOneEuro:
    def test_constant_signal_unchanged(self):
        sig = np.full(50, 3.25)
        out = one_euro_filter(sig, FilterParams(min_cutoff=0.5, beta=0.2), 60)
        assert np.array_equal(out, sig)

    def test_first_sample_unchanged(self, rng):
        sig = rng.normal(size=(30, 4))
        out = one_euro_filter(sig, FilterParams(), 60)
        assert np.array_equal(out[0], sig[0])

    def test_step_response_matches_direct_recursion(self):
        sig = np.concatenate([np.zeros(10), np.ones(30)])
        params = FilterParams(min_cutoff=1.0, beta=0.0)
        out = one_euro_filter(sig, params, 60)
        expected = one_euro_reference(sig, 1.0, 0.0, 60.0)
        assert np.abs(out - expected).max() < 1e-12

    def test_adaptive_cutoff_matches_direct_recursion(self, rng):
        sig = np.cumsum(rng.normal(size=80))
        params = FilterParams(min_cutoff=0.004, beta=0.7)
        out = one_euro_filter(sig, params, 60)
        expected = one_euro_reference(sig, 0.004, 0.7, 60.0)
        assert np.abs(out - expected).max() < 1e-12

    def test_two_passes_equal_the_per_sample_loop_bit_for_bit(self, rng):
        for shape, params, rate in (
            ((1201, 75), FilterParams(), 60.0),
            ((40, 3), FilterParams(min_cutoff=0.1, beta=0.5), 30.0),
            ((2, 1), FilterParams(min_cutoff=2.0, beta=0.0), 24.0),
            ((1, 4), FilterParams(), 60.0),
        ):
            sig = np.cumsum(rng.normal(size=shape), axis=0) * rng.uniform(0.01, 3.0)
            sig[:, 0] = 0.25  # a constant channel
            out = one_euro_filter(sig, params, rate)
            assert np.array_equal(out, one_euro_per_sample(sig, params, rate))
            assert np.array_equal(out[:, 0], sig[:, 0])

    def test_channelwise_independence(self, rng):
        sig = rng.normal(size=(40, 3))
        params = FilterParams(min_cutoff=0.1, beta=0.5)
        stacked = one_euro_filter(sig, params, 30)
        for c in range(3):
            single = one_euro_filter(sig[:, c], params, 30)
            assert np.abs(stacked[:, c] - single).max() < 1e-15

    def test_empty_signal(self):
        out = one_euro_filter(np.zeros((0, 3)), FilterParams(), 60)
        assert out.shape == (0, 3)

    def test_non_finite_rejected(self):
        sig = np.array([0.0, np.nan, 1.0])
        with pytest.raises(InvalidInputError):
            one_euro_filter(sig, FilterParams(), 60)

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            FilterParams(min_cutoff=0.0)
        for rate in (0.0, -60.0, float("nan")):
            with pytest.raises(InvalidInputError, match="rate must be finite and > 0"):
                one_euro_filter(np.zeros(3), FilterParams(), rate)
        with pytest.raises(InvalidInputError):
            FilterParams(beta=-0.1)


def test_trajectory_file_round_trip(rng, tmp_path):
    traj = make_trajectory(rng, n=7)
    path = tmp_path / "traj.jsonl"
    save_trajectory(traj, path)
    loaded = load_trajectory(path)
    assert np.array_equal(loaded.frames, traj.frames)
    assert np.abs(loaded.rotations - traj.rotations).max() < 1e-12
    assert np.abs(loaded.translations - traj.translations).max() < 1e-12
    # documented field names present
    import json

    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"frame", "quat_wxyz", "trans_xyz"}


@pytest.mark.parametrize(
    "frame", ["1.7", '"1"', "true", "1e400", str(10**30)], ids=["float", "string", "bool", "inf", "past-int64"]
)
def test_trajectory_frame_must_be_a_json_integer(rng, tmp_path, frame):
    # int() used to read 1.7, "1" and true as frame 1, and overflow on 1e400
    path = tmp_path / "traj.jsonl"
    save_trajectory(make_trajectory(rng, n=3), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"frame": 1', f'"frame": {frame}')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MotionFormatError, match=f"{path}:2: frame must be a 64-bit JSON integer"):
        load_trajectory(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"frame": 1, "quat_wxyz": ["1", 0, 0, 0], "trans_xyz": [0, 0, 0]}', "quat_wxyz must hold JSON numbers only, got '1'"),
        ('{"frame": 1, "quat_wxyz": [true, true, true, true], "trans_xyz": [0, 0, 0]}',
         "quat_wxyz must hold JSON numbers only, got True"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, false], "trans_xyz": [0, 0, 0]}', "quat_wxyz must hold JSON numbers only, got False"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, 0], "trans_xyz": ["1.5", 0, 0]}', "trans_xyz must hold JSON numbers only, got '1.5'"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, 0], "trans_xyz": [true, true, true]}', "trans_xyz must hold JSON numbers only, got True"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, 0], "trans_xyz": [0, 0, false]}', "trans_xyz must hold JSON numbers only, got False"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, 0], "trans_xyz": [0, 0]}', "trans_xyz must be 3 finite numbers"),
        ('{"frame": 1, "quat_wxyz": [1, 0, 0, 0]}', "missing field 'trans_xyz'"),
        ("[1, 0, 0, 0]", "expected a JSON object"),
    ],
    ids=["quat-string", "quat-bool", "quat-bool-among-numbers", "trans-string", "trans-bool", "trans-bool-among-numbers",
         "trans-short", "trans-missing", "not-an-object"],
)
def test_trajectory_record_rejected_with_line_and_field(rng, tmp_path, line, message):
    path = tmp_path / "traj.jsonl"
    save_trajectory(make_trajectory(rng, n=3), path)
    lines = path.read_text().splitlines()
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MotionFormatError) as err:
        load_trajectory(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_zero_quaternion_rejected_with_line(rng, tmp_path):
    path = tmp_path / "traj.jsonl"
    save_trajectory(make_trajectory(rng, n=3), path)
    lines = path.read_text().splitlines()
    lines[1] = '{"frame": 1, "quat_wxyz": [0, 0, 0, 0], "trans_xyz": [0, 0, 0]}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MotionFormatError) as err:
        load_trajectory(path)
    assert f"{path}:2: quat_wxyz" in str(err.value)
