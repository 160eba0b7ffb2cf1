import json

import numpy as np
import pytest
from oracles import fk_scalar, generalized_position, generalized_positions_per_frame, random_rotation

from physmotion.errors import InvalidInputError, MotionFormatError
from physmotion.humanoid import NV
from physmotion.motion import (
    SCHEMA,
    MotionSequence,
    load_motion,
    resample_motion,
    save_motion,
    sequence_from_generalized,
)
from physmotion.rotations import exp_so3, log_so3, matrix_to_quat
from physmotion.synth import SyntheticScenario, generate_scenario


def make_sequence(rng, n=5, with_positions=True, with_contacts=True):
    return MotionSequence(
        frame_rate=60.0,
        root_trans=rng.normal(size=(n, 3)),
        root_rot=np.array([random_rotation(rng) for _ in range(n)]),
        joint_angles=rng.normal(size=(n, 23, 3)) * 0.5,
        joint_positions=rng.normal(size=(n, 24, 3)) if with_positions else None,
        contacts=rng.uniform(size=(n, 4)) > 0.5 if with_contacts else None,
    )


# a numeric string, booleans only and a boolean among numbers, each put in a
# numeric field by numbers_edit, and the element its message quotes
NUMBERS_EDITS = {"string": "'1.5'", "bool": "True", "bool-among-numbers": "False"}


def numbers_edit(key, kind):
    """An edit of a motion record's numeric field: see NUMBERS_EDITS."""

    def edit(rec):
        rows = rec[key] if isinstance(rec[key][0], list) else [rec[key]]
        if kind == "string":
            rows[0][0] = "1.5"
        elif kind == "bool":
            for row in rows:
                row[:] = [True] * len(row)
        else:
            rows[-1][-1] = False
        return rec

    return edit


def save_motion_per_element(seq, path):
    """Writer with one float() or bool() per element: the byte oracle."""
    with open(path, "w") as fh:
        header = {"schema": SCHEMA, "fps": float(seq.frame_rate), "frames": len(seq)}
        fh.write(json.dumps(header) + "\n")
        for t in range(len(seq)):
            rec = {
                "frame": t,
                "root_trans_xyz": [float(v) for v in seq.root_trans[t]],
                "root_quat_wxyz": [float(v) for v in matrix_to_quat(seq.root_rot[t])],
                "joint_angles": [[float(v) for v in row] for row in seq.joint_angles[t]],
            }
            if seq.joint_positions is not None:
                rec["joint_positions"] = [[float(v) for v in row] for row in seq.joint_positions[t]]
            if seq.contacts is not None:
                rec["contacts"] = [bool(v) for v in seq.contacts[t]]
            fh.write(json.dumps(rec) + "\n")


def generalized_positions_loop(seq):
    """q of every frame, unwrapped frame by frame and vector by vector."""
    q = np.empty((len(seq), NV))
    for t in range(len(seq)):
        q[t] = generalized_position(seq, t, q[t - 1] if t else None)
    return q


def branch_flipping_sequence(rng, n=90):
    """Root and joints turning steadily past pi (up to 2.85 pi, within the
    one-branch reach of the unwrapping), stored as a log map stores them
    (|v| <= pi), so the stored vectors flip branch."""
    turn = np.linspace(0.0, 1.9 * np.pi, n)
    axes = rng.normal(size=(24, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    rates = rng.uniform(0.3, 1.5, size=24)
    stored = np.array([[log_so3(exp_so3(a * r * th)) for a, r in zip(axes, rates)] for th in turn])
    stored[:, 5:8] = rng.normal(size=(n, 3, 3)) * 0.4  # joints that stay near zero
    stored[::7, 9] = 0.0  # and a joint at exactly zero on some frames
    return MotionSequence(
        60.0, rng.normal(size=(n, 3)), exp_so3(stored[:, 0]), stored[:, 1:]
    )


class TestMotionFile:
    def test_writer_bytes_equal_the_per_element_writer(self, rng, model, tmp_path):
        odd = make_sequence(rng, n=4)
        odd.root_trans[0] = [-0.0, 1e-300, 1.0 / 3.0]
        odd.joint_angles[1, 2] = [5e-324, -1e16, np.pi]
        gait = generate_scenario(SyntheticScenario(scene="ramp", motion="walk", duration=0.3, seed=2), model)
        sequences = (
            odd,
            make_sequence(rng, n=6, with_positions=False, with_contacts=False),
            make_sequence(rng, n=3, with_positions=True, with_contacts=False),
            gait.ground_truth,
            gait.noisy,
        )
        for k, seq in enumerate(sequences):
            save_motion(seq, tmp_path / f"new{k}.jsonl")
            save_motion_per_element(seq, tmp_path / f"old{k}.jsonl")
            assert (tmp_path / f"new{k}.jsonl").read_bytes() == (tmp_path / f"old{k}.jsonl").read_bytes()

    def test_minimal_three_frame_file(self, rng, tmp_path):
        seq = make_sequence(rng, n=3)
        path = tmp_path / "motion.jsonl"
        save_motion(seq, path)
        loaded = load_motion(path)
        assert len(loaded) == 3

    def test_round_trip_bit_exact(self, model, tmp_path):
        bundle = generate_scenario(SyntheticScenario(scene="flat", motion="stand", duration=0.2, seed=5), model)
        path1 = tmp_path / "a.jsonl"
        path2 = tmp_path / "b.jsonl"
        save_motion(bundle.noisy, path1)
        save_motion(load_motion(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_nan_rejected_with_field_path(self, rng, tmp_path):
        seq = make_sequence(rng, n=3, with_positions=False, with_contacts=False)
        path = tmp_path / "motion.jsonl"
        save_motion(seq, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["root_trans_xyz"][1] = float("nan")
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert "root_trans_xyz" in str(err.value)
        assert ":3" in str(err.value)  # line number of the bad record

    def test_zero_quaternion_rejected_with_field_path(self, rng, tmp_path):
        seq = make_sequence(rng, n=3, with_positions=False, with_contacts=False)
        path = tmp_path / "motion.jsonl"
        save_motion(seq, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["root_quat_wxyz"] = [0.0, 0.0, 0.0, 0.0]
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert f"{path}:3: root_quat_wxyz" in str(err.value)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "motion.jsonl"
        for header in ('{"schema": "physmotion.motion/999", "fps": 60, "frames": 0}', "[1]"):
            path.write_text(header + "\n")
            with pytest.raises(MotionFormatError) as err:
                load_motion(path)
            assert "schema" in str(err.value)

    def test_header_count_mismatch(self, rng, tmp_path):
        seq = make_sequence(rng, n=3)
        path = tmp_path / "motion.jsonl"
        save_motion(seq, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop a frame
        with pytest.raises(MotionFormatError):
            load_motion(path)
        lines[0] = lines[0].replace('"frames": 3', '"frames": "three"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MotionFormatError, match="header declares 'three' frames, found 3"):
            load_motion(path)
        # the count must be a JSON integer: true and 1.0 equal 1 but are not one
        save_motion(make_sequence(rng, n=1), path)
        lines = path.read_text().splitlines()
        for count, shown in (("true", "True"), ("1.0", "1.0")):
            path.write_text("\n".join([lines[0].replace('"frames": 1', f'"frames": {count}')] + lines[1:]) + "\n")
            with pytest.raises(MotionFormatError, match=f"header declares {shown} frames, found 1"):
                load_motion(path)

    @pytest.mark.parametrize(
        "row, edit, message",
        [
            (0, lambda rec: {**rec, "frame": 99}, "frame 99 in row 0; row t must read frame t"),
            (1, lambda rec: {**rec, "frame": 0}, "frame 0 in row 1; row t must read frame t"),
            (1, lambda rec: {**rec, "frame": "1"}, "frame '1' in row 1; row t must read frame t"),
            (0, lambda rec: {k: v for k, v in rec.items() if k != "frame"}, "frame None in row 0"),
            (1, lambda rec: {**rec, "contacts": ["false"] * 4}, "contacts must be four JSON booleans"),
            (0, lambda rec: {**rec, "contacts": 5}, "contacts must be four JSON booleans, got 5"),
            (1, lambda rec: {**rec, "contacts": [True, False]}, "contacts must be four JSON booleans, got [True, False]"),
            (0, lambda rec: {**rec, "contacts": [1, 0, 1, 0]}, "contacts must be four JSON booleans"),
            (1, lambda rec: [rec], "expected a JSON object"),
            (1, lambda rec: {**rec, "root_trans_xyz": [0.0, 0.9]}, "root_trans_xyz must be 3 finite numbers"),
            (0, lambda rec: {**rec, "joint_angles": rec["joint_angles"][:22]}, "joint_angles must be 23 x 3 finite numbers"),
            (1, lambda rec: {**rec, "joint_angles": [[0.0] * 3] * 22 + [0.0]}, "joint_angles must be 23 x 3 finite numbers"),
            (2, lambda rec: {**rec, "root_trans_xyz": [10**400, 0, 0]}, "root_trans_xyz must be 3 finite numbers"),
            *[(1, numbers_edit(key, kind), f"{key} must hold JSON numbers only, got {got}")
              for key in ("root_trans_xyz", "root_quat_wxyz", "joint_angles", "joint_positions")
              for kind, got in NUMBERS_EDITS.items()],
        ],
        ids=["frame-99-first", "frame-repeated", "frame-string", "frame-missing", "contacts-strings",
             "contacts-number", "contacts-two", "contacts-integers", "record-list", "vector-short", "matrix-short",
             "matrix-row-number", "integer-past-float",
             *[f"{key}-{kind}" for key in ("root_trans_xyz", "root_quat_wxyz", "joint_angles", "joint_positions")
               for kind in NUMBERS_EDITS]],
    )
    def test_frame_and_contacts_fields_checked(self, rng, tmp_path, row, edit, message):
        path = tmp_path / "motion.jsonl"
        save_motion(make_sequence(rng, n=3), path)
        lines = path.read_text().splitlines()
        lines[1 + row] = json.dumps(edit(json.loads(lines[1 + row])))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert str(err.value).startswith(f"{path}:{2 + row}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edits, row",
        [
            # row -> (field, index, element); the numbers are converted some
            # thousands at a time, and rows 3 and 70 of joint_angles fall in
            # different batches
            ({3: ("joint_angles", (5, 0), float("nan")), 70: ("joint_angles", (0, 0), "0.1")}, 3),
            ({70: ("joint_angles", (1, 2), "0.1"), 71: ("joint_angles", (1, 2), float("inf"))}, 70),
            ({5: ("joint_angles", (22, 2), True), 9: ("joint_angles", (0, 1), None)}, 5),
            ({4: ("root_trans_xyz", (1,), False), 2: ("root_trans_xyz", (0,), float("nan"))}, 2),
            ({61: ("joint_angles", (3, 1), float("nan")), 62: ("joint_angles", (4,), 0.0)}, 61),
        ],
        ids=["nan-then-string", "string-then-inf", "bool-then-null", "nan-then-bool", "nan-then-misshapen"],
    )
    def test_first_of_two_bad_records_is_named(self, rng, tmp_path, edits, row):
        path = tmp_path / "motion.jsonl"
        save_motion(make_sequence(rng, n=80, with_positions=False, with_contacts=False), path)
        lines = path.read_text().splitlines()
        for t, (key, index, element) in edits.items():
            rec = json.loads(lines[1 + t])
            target = rec[key]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = element
            lines[1 + t] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert str(err.value).startswith(f"{path}:{2 + row}: {edits[row][0]} must ")

    @pytest.mark.parametrize("fps", ["NaN", "Infinity", "0", '"fast"', "true"])
    def test_fps_must_be_a_finite_positive_number(self, tmp_path, fps):
        path = tmp_path / "motion.jsonl"
        path.write_text(f'{{"schema": "physmotion.motion/1", "fps": {fps}, "frames": 0}}\n')
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert f"{path}:1: fps must be finite and > 0" in str(err.value)

    def test_missing_field_diagnostics(self, tmp_path):
        path = tmp_path / "motion.jsonl"
        path.write_text(
            '{"schema": "physmotion.motion/1", "fps": 60, "frames": 1}\n'
            '{"frame": 0, "root_trans_xyz": [0, 0, 0]}\n'
        )
        with pytest.raises(MotionFormatError) as err:
            load_motion(path)
        assert "root_quat_wxyz" in str(err.value)


class TestGeneralizedConversion:
    def test_round_trip_through_q(self, model, rng):
        seq = make_sequence(rng, n=4, with_positions=False, with_contacts=False)
        q = np.array([generalized_position(seq, t) for t in range(4)])
        rebuilt = sequence_from_generalized(60.0, q, model)
        assert np.abs(rebuilt.root_trans - seq.root_trans).max() < 1e-12
        assert np.abs(rebuilt.root_rot - seq.root_rot).max() < 1e-9
        assert np.abs(rebuilt.joint_angles - seq.joint_angles).max() < 1e-12

    def test_continuity_across_pi_boundary(self, model):
        # same rotation expressed on both sides of the 2*pi branch
        n = 3
        angles = np.zeros((n, 23, 3))
        angles[0, 4, 0] = np.pi - 0.05
        angles[1, 4, 0] = -(np.pi - 0.05)  # equivalent to pi + 0.05 going forward
        angles[2, 4, 0] = -(np.pi - 0.10)
        seq = MotionSequence(60.0, np.zeros((n, 3)), np.tile(np.eye(3), (n, 1, 1)), angles)
        q1 = seq.generalized_positions()[1]
        # the continuous branch stays near +pi rather than jumping to -pi
        assert abs(q1[6 + 12] - (np.pi + 0.05)) < 1e-9

    def test_generalized_positions_equal_the_per_frame_unwrapping(self, rng):
        seq = branch_flipping_sequence(rng)
        expected = generalized_positions_loop(seq)
        q = seq.generalized_positions()
        assert np.array_equal(q, expected)
        # the stored turning vectors flip branch; unwrapped, they do not jump
        turning = [c for c in range(24) if c not in (5, 6, 7, 9)]
        stored = np.array([generalized_position(seq, t) for t in range(len(seq))])
        step = np.abs(np.diff(stored[:, 3:].reshape(-1, 24, 3)[:, turning], axis=0)).max()
        assert step > np.pi
        assert np.abs(np.diff(q[:, 3:].reshape(-1, 24, 3)[:, turning], axis=0)).max() < 0.3

    def test_unwrapping_follows_a_five_pi_turn(self, rng):
        # one branch either way reaches 3 pi; the nearest branch has no limit
        n = 90
        turn = np.linspace(0.0, 5.0 * np.pi, n)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        stored = np.array([log_so3(exp_so3(axis * th)) for th in turn])
        joints = np.zeros((n, 23, 3))
        joints[:, 3] = stored
        seq = MotionSequence(60.0, np.zeros((n, 3)), exp_so3(stored), joints)
        q = seq.generalized_positions()
        for coords in (q[:, 3:6], q[:, 15:18]):
            assert np.abs(np.diff(coords, axis=0)).max() < 0.2
            assert np.abs(coords - turn[:, None] * axis).max() < 1e-9

    def test_generalized_positions_equal_the_plain_loop(self, rng):
        # the root spins past pi five times; joints cross a branch first
        # at different frames, and some never do
        n = 300
        spin = np.linspace(0.0, 9.7 * np.pi, n)
        root_axis = rng.normal(size=3)
        root_axis /= np.linalg.norm(root_axis)
        axes = rng.normal(size=(23, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        start = rng.uniform(0.0, 0.9 * np.pi, size=23)
        turn = start + np.linspace(0.0, 1.5 * np.pi, n)[:, None] * rng.uniform(0.2, 1.0, size=23)
        turn[:, :4] = 0.3 * rng.normal(size=(n, 4))  # joints that stay near zero
        joints = log_so3(exp_so3((axes * turn[..., None]).reshape(-1, 3))).reshape(n, 23, 3)
        seq = MotionSequence(60.0, rng.normal(size=(n, 3)), exp_so3(root_axis * spin[:, None]), joints)
        stored = np.array([generalized_position(seq, t) for t in range(n)])[:, 3:].reshape(n, 24, 3)
        jumps = np.abs(np.diff(stored, axis=0)).max(axis=2) > np.pi
        first = [int(np.argmax(jumps[:, c])) + 1 for c in range(24) if jumps[:, c].any()]
        assert jumps[:, 0].sum() == 5 and len(set(first)) > 10 and min(first) > 1
        q = seq.generalized_positions()
        assert q.tobytes() == generalized_positions_per_frame(seq).tobytes()
        assert np.abs(q[:, 3:6] - spin[:, None] * root_axis).max() < 1e-9

    @pytest.mark.parametrize("second", [0.2, -(np.pi - 0.05)])
    def test_generalized_positions_of_one_and_two_frames(self, second):
        angles = np.zeros((2, 23, 3))
        angles[:, 4, 0] = np.pi - 0.05, second
        rots = exp_so3(np.array([[0.0, np.pi - 0.01, 0.0], [0.0, -(np.pi - 0.01), 0.0]]))
        seq = MotionSequence(60.0, np.zeros((2, 3)), rots, angles)
        for part in (MotionSequence(60.0, seq.root_trans[:1], seq.root_rot[:1], seq.joint_angles[:1]), seq):
            q = part.generalized_positions()
            assert q.tobytes() == generalized_positions_per_frame(part).tobytes()
        # the root turns past pi into frame 1; joint 4 does too when second < 0
        moved = q[1] != seq._stored_positions()[1]
        assert moved[3:6].any() and moved[18] == (second < 0.0)

    def test_with_joint_positions_is_fk_of_each_stored_frame(self, model, rng):
        seq = branch_flipping_sequence(rng, n=40)
        filled = seq.with_joint_positions(model)
        for t in range(len(seq)):
            expected = fk_scalar(model, generalized_position(seq, t)).positions
            assert np.abs(filled.joint_positions[t] - expected).max() <= 1e-12

    def test_with_joint_positions_matches_fk(self, model, rng):
        seq = make_sequence(rng, n=3, with_positions=False, with_contacts=False)
        filled = seq.with_joint_positions(model)
        from physmotion.humanoid import forward_kinematics

        fk = forward_kinematics(model, generalized_position(seq, 1))
        assert np.abs(filled.joint_positions[1] - fk.positions).max() < 1e-12


class TestResample:
    def test_same_rate_is_identity(self, rng):
        seq = make_sequence(rng)
        assert resample_motion(seq, 60.0) is seq

    def test_downsample_preserves_endpoints(self, rng):
        seq = make_sequence(rng, n=9)
        out = resample_motion(seq, 30.0)
        assert out.frame_rate == 30.0
        assert np.abs(out.root_trans[0] - seq.root_trans[0]).max() < 1e-12
        assert np.abs(out.root_trans[-1] - seq.root_trans[-1]).max() < 1e-9


def test_validation_errors(rng):
    with pytest.raises(InvalidInputError):
        MotionSequence(0.0, np.zeros((2, 3)), np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 23, 3)))
    with pytest.raises(InvalidInputError):
        MotionSequence(
            60.0,
            np.full((2, 3), np.nan),
            np.tile(np.eye(3), (2, 1, 1)),
            np.zeros((2, 23, 3)),
        )
