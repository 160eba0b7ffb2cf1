import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from physmotion.cli import EXIT_CONFIG, main
from physmotion.errors import ConfigError, EmptySceneError, InvalidInputError, MotionFormatError
from physmotion.frames import FilterParams
from physmotion.motion import MotionSequence, load_motion, save_motion
from physmotion.optimizer import FrameSolution, QPSettings
from physmotion.pipeline import ABLATION_PRESETS, RunConfig, filter_motion, run_pipeline, save_forces
from physmotion.rotations import log_so3, vector_norms
from physmotion.scene import save_contacts_csv, save_obj
from physmotion.synth import SyntheticScenario, generate_scenario


# one digit past Python's default int-string limit of 4,300 digits
HUGE_INT = "1" * 4301


def write_scenario(tmp_path, model, **kwargs):
    scenario = SyntheticScenario(**{"scene": "flat", "motion": "stand", "duration": 1.0, "seed": 3, **kwargs})
    bundle = generate_scenario(scenario, model)
    save_motion(bundle.noisy, tmp_path / "noisy.jsonl")
    save_motion(bundle.ground_truth, tmp_path / "gt.jsonl")
    save_obj(bundle.mesh, tmp_path / "scene.obj")
    save_contacts_csv(bundle.contacts, tmp_path / "contacts.csv")
    return bundle


class TestRunConfig:
    def test_load_config_round_trip(self, tmp_path):
        from physmotion.pipeline import load_config

        doc = {
            "motion_path": "x.jsonl",
            "output_dir": "o",
            "grid_resolution": 77,
            "settings": {"friction_mu": 0.5, "use_root_supervision": False},
            "gains": {"angle_rate": 30.0},
            "filter": {"min_cutoff": 1.5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)
        assert config.grid_resolution == 77
        assert config.settings.friction_mu == 0.5
        assert not config.settings.use_root_supervision
        assert config.gains.angle_rate == 30.0
        assert config.filter_params.min_cutoff == 1.5

    @pytest.mark.parametrize(
        "doc, where, key",
        [
            ({"motionpath": "x.jsonl"}, "config", "motionpath"),
            ({"settings": {"bogus": 1}}, "settings", "bogus"),
            ({"settings": {"max_iter": 200}}, "settings", "max_iter"),
            ({"gains": {"angle_rate": 1.0, "kp": 1.0}}, "gains", "kp"),
            ({"filter": {"cutoff": 1.0}}, "filter", "cutoff"),
            ({"filter": {"beta": 0.5, "sample_rate": 30.0}}, "filter", "sample_rate"),
            ({"frame_rate": 30}, "config", "frame_rate"),
            ({"scenario": {"scene": "flat", "sed": 3}}, "scenario", "sed"),
            # a known top-level key with a value of the wrong type
            ({"grid_resolution": "64"}, "config", "grid_resolution"),
            ({"run_physics": "no"}, "config", "run_physics"),
            ({"grid_resolution": True}, "config", "grid_resolution"),
            ({"mesh_path": 3}, "config", "mesh_path"),
        ],
    )
    def test_unknown_key_is_named(self, doc, where, key):
        from physmotion.pipeline import config_from_dict

        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert f"in {where}: {key}" in str(err.value)

    @pytest.mark.parametrize("key", ["angle_kp", "angle_kd", "root_orient_kd"])
    def test_gain_key_of_the_kp_kd_form_names_the_rates(self, key):
        # each PD term is one critically damped rate, so a kp or kd is an
        # unknown key, and the message lists the keys the block accepts
        from physmotion.pipeline import config_from_dict

        with pytest.raises(ConfigError) as err:
            config_from_dict({"gains": {key: 2400.0}})
        assert str(err.value) == (
            f"unknown key(s) in gains: {key}; accepted: angle_rate, position_rate, root_orient_rate"
        )

    @pytest.mark.parametrize(
        "text",
        [
            None,  # no file
            "{not json",
            json.dumps({"settings": {"friction_mu": "high"}}),
            json.dumps({"scenario": {"duration": [1.0]}}),
            json.dumps({"gains": {"angle_rate": -1.0}}),
        ],
    )
    def test_load_config_malformed_is_a_config_error(self, tmp_path, text):
        from physmotion.pipeline import load_config

        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("settings", "solver_tol", float("nan")),
            ("settings", "friction_mu", float("nan")),
            ("settings", "reg_weight", float("nan")),
            ("settings", "point_weight", float("nan")),
            ("settings", "angle_weight", -1.0),
            ("settings", "cone_facets", 4.5),
            ("settings", "use_angle_pd", 0),
            ("gains", "angle_rate", float("nan")),
            ("gains", "position_rate", float("nan")),
            ("gains", "root_orient_rate", "soft"),
            ("filter", "min_cutoff", float("nan")),
            ("filter", "beta", float("nan")),
            ("scenario", "seed", 2.0),
        ],
    )
    def test_block_value_out_of_range_or_of_wrong_type_exits_2(self, tmp_path, block, key, value):
        # a NaN solver_tol would switch the KKT gate off (residual > NaN is
        # False), and a negative weight would make the QP indefinite
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("cfg.json").write_text(json.dumps({"motion_path": "x.jsonl", block: {key: value}}))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert "ConfigError: " in r.output
            assert f"{block}: {key} must be" in r.output

    @pytest.mark.parametrize(
        "key, value",
        [
            ("frame_rate", 0.0),
            ("frame_rate", float("inf")),
            ("seed", -1),
            ("duration", float("nan")),
            ("noise_sigma", float("nan")),
            ("drift_rate", float("inf")),
        ],
    )
    def test_invalid_scenario_value_exits_2(self, tmp_path, key, value):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            block = {"scene": "flat", "motion": "stand", "duration": 0.3, key: value}
            Path("cfg.json").write_text(json.dumps({"scenario": block, "output_dir": "out", "grid_resolution": 32}))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert f"ConfigError: scenario: {key} must be" in r.output

    def test_block_must_be_an_object(self):
        from physmotion.pipeline import config_from_dict

        with pytest.raises(ConfigError) as err:
            config_from_dict({"settings": [1, 2]})
        assert "settings must be an object" in str(err.value)

    def test_cli_reports_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"motion_path": "x.jsonl", "settings": {"max_iter": 200}}))
        result = CliRunner().invoke(main, ["pipeline", "--config", str(path)])
        assert result.exit_code == EXIT_CONFIG
        assert "unknown key(s) in settings: max_iter" in result.output

    def test_scenario_block_round_trip(self, tmp_path, model):
        from physmotion.pipeline import config_from_dict

        block = {"scene": "flat", "motion": "stand", "noise_sigma": 0.02, "duration": 0.5, "seed": 3}
        config = config_from_dict({"scenario": block, "output_dir": str(tmp_path / "lib"), "grid_resolution": 32})
        assert config.scenario == SyntheticScenario(**block)
        result = run_pipeline(config, model=model)
        assert (tmp_path / "lib" / "inputs" / "noisy_motion.jsonl").exists()
        # the same scenario written by hand and named by path gives the same run
        write_scenario(tmp_path, model, noise_sigma=0.02, duration=0.5)
        by_path = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            gt_motion_path=str(tmp_path / "gt.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "paths"),
            grid_resolution=32,
        )
        expected = run_pipeline(by_path, model=model)
        for key in ("refined_motion", "forces", "report"):
            assert Path(result.outputs[key]).read_bytes() == Path(expected.outputs[key]).read_bytes()

    def test_invalid_scenario_is_a_config_error(self, tmp_path, model):
        from physmotion.pipeline import config_from_dict

        block = {"scene": "flat", "motion": "step-climb"}
        config = config_from_dict({"scenario": block, "output_dir": str(tmp_path)})
        with pytest.raises(ConfigError):
            run_pipeline(config, model=model)

    def test_missing_motion_without_scenario(self):
        with pytest.raises(ConfigError) as err:
            RunConfig().validate_paths()
        assert "motion_path" in str(err.value)

    def test_missing_mesh_with_height_map_names_field(self, tmp_path, model):
        write_scenario(tmp_path, model)
        config = RunConfig(motion_path=str(tmp_path / "noisy.jsonl"), mesh_path=None)
        with pytest.raises(ConfigError) as err:
            config.validate_paths()
        assert "mesh_path" in str(err.value)

    def test_missing_file_reported(self, tmp_path):
        config = RunConfig(motion_path=str(tmp_path / "nope.jsonl"), mesh_path=None)
        config.settings.use_height_map = False
        with pytest.raises(ConfigError) as err:
            config.validate_paths()
        assert "nope.jsonl" in str(err.value)


class TestRunPipeline:
    def test_stand_scenario_low_sliding(self, tmp_path, model):
        write_scenario(tmp_path, model, noise_sigma=0.0)
        config = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            gt_motion_path=str(tmp_path / "gt.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "out"),
            grid_resolution=64,
        )
        result = run_pipeline(config, model=model)
        assert result.report is not None
        assert result.report.foot_sliding < 1.0
        assert not result.degraded_frames

    def test_penetrating_scenario_improves(self, tmp_path, model):
        bundle = write_scenario(tmp_path, model, noise_sigma=0.01, scene="flat")
        lowered = bundle.noisy.copy()
        lowered.root_trans = lowered.root_trans - np.array([0.0, 0.05, 0.0])
        lowered.joint_positions = None
        save_motion(lowered, tmp_path / "low.jsonl")
        from physmotion.metrics import penetration_stats
        from physmotion.scene import build_height_map

        hm = build_height_map(bundle.mesh, (64, 64))
        input_pct = penetration_stats(lowered.with_joint_positions(model), hm, bundle.contacts)[0]
        config = RunConfig(
            motion_path=str(tmp_path / "low.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "out"),
            grid_resolution=64,
        )
        result = run_pipeline(config, model=model)
        refined_pct = penetration_stats(result.refined, hm, bundle.contacts)[0]
        assert refined_pct < input_pct

    @pytest.mark.parametrize("run_physics", [True, False], ids=["physics", "no-physics"])
    def test_ground_truth_length_checked_before_refining(self, tmp_path, model, run_physics):
        # it used to be loaded after the outputs were written: a solver
        # failure with physics, and a shape mismatch naming no file without
        bundle = write_scenario(tmp_path, model)
        gt = bundle.ground_truth
        save_motion(MotionSequence(gt.frame_rate, gt.root_trans[:30], gt.root_rot[:30], gt.joint_angles[:30]),
                    tmp_path / "short_gt.jsonl")
        config = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            gt_motion_path=str(tmp_path / "short_gt.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "out"),
            run_physics=run_physics,
            grid_resolution=64,
        )
        with pytest.raises(ConfigError, match=f"^ground truth has 30 frames, motion has {len(bundle.noisy)}$"):
            run_pipeline(config, model=model)
        assert not (tmp_path / "out").exists()

    def test_stage_isolation_without_physics(self, tmp_path, model):
        write_scenario(tmp_path, model, noise_sigma=0.02)
        config = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            output_dir=str(tmp_path / "out"),
            run_physics=False,
            grid_resolution=64,
        )
        result = run_pipeline(config, model=model)
        # output equals the filtered kinematic input exactly
        loaded = load_motion(tmp_path / "noisy.jsonl")
        expected = filter_motion(loaded, config.filter_params)
        assert np.abs(result.refined.root_trans - expected.root_trans).max() < 1e-12
        assert np.abs(result.refined.joint_angles - expected.joint_angles).max() < 1e-12

    def test_outputs_self_loadable(self, tmp_path, model):
        write_scenario(tmp_path, model)
        config = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "out"),
            grid_resolution=64,
        )
        result = run_pipeline(config, model=model)
        reloaded = load_motion(result.outputs["refined_motion"])
        assert len(reloaded) == len(result.refined)
        forces_lines = Path(result.outputs["forces"]).read_text().splitlines()
        header = json.loads(forces_lines[0])
        assert header["fps"] == 60.0 and header["frames"] == len(result.refined)
        rec = json.loads(forces_lines[1])
        assert set(rec) == {"frame", "contacts", "tau", "degraded"}

    def test_forces_header_gives_the_refinement_rate(self, tmp_path, model):
        # a 30 fps input is refined at 60 fps: the forces count physics frames
        write_scenario(tmp_path, model, frame_rate=30.0)
        config = RunConfig(
            motion_path=str(tmp_path / "noisy.jsonl"),
            mesh_path=str(tmp_path / "scene.obj"),
            contacts_path=str(tmp_path / "contacts.csv"),
            output_dir=str(tmp_path / "out"),
            grid_resolution=64,
        )
        result = run_pipeline(config, model=model)
        assert len(result.refined) == 31 and len(result.solutions) == 61
        header = json.loads(Path(result.outputs["forces"]).read_text().splitlines()[0])
        assert header == {"schema": "physmotion.forces/1", "fps": 60.0, "frames": len(result.solutions)}

    def test_determinism_byte_identical(self, tmp_path, model):
        write_scenario(tmp_path, model, noise_sigma=0.02)
        outs = []
        for run in ("run1", "run2"):
            config = RunConfig(
                motion_path=str(tmp_path / "noisy.jsonl"),
                gt_motion_path=str(tmp_path / "gt.jsonl"),
                mesh_path=str(tmp_path / "scene.obj"),
                contacts_path=str(tmp_path / "contacts.csv"),
                output_dir=str(tmp_path / run),
                grid_resolution=64,
            )
            result = run_pipeline(config, model=model)
            outs.append(result.outputs)
        for key in ("refined_motion", "forces", "report"):
            h = [hashlib.sha256(Path(o[key]).read_bytes()).hexdigest() for o in outs]
            assert h[0] == h[1]


class TestCameraConversion:
    def test_camera_frame_round_trip_through_pipeline_stage(self, tmp_path, model, rng):
        from oracles import random_rotation, world_to_camera

        from physmotion.frames import Trajectory
        from physmotion.pipeline import convert_camera_frame

        bundle = write_scenario(tmp_path, model, noise_sigma=0.0)
        world = bundle.ground_truth
        n = len(world)
        cam = Trajectory(
            np.arange(n),
            np.array([random_rotation(rng) for _ in range(n)]),
            rng.normal(size=(n, 3)),
        )
        # express each world-frame root pose in the camera frame
        cam_seq = world.copy()
        cam_seq.root_rot, cam_seq.root_trans = world_to_camera(
            world.root_rot, world.root_trans, cam.rotations, cam.translations
        )
        recovered = convert_camera_frame(cam_seq, cam)
        assert np.abs(recovered.root_rot - world.root_rot).max() < 1e-10
        assert np.abs(recovered.root_trans - world.root_trans).max() < 1e-10

    @pytest.mark.parametrize("frames, row", [([10, 11, 12], 0), ([2, 0, 1], 0), ([0, 2, 1], 1)])
    def test_camera_rows_must_be_the_motion_frames(self, tmp_path, model, frames, row):
        from physmotion.frames import Trajectory
        from physmotion.pipeline import convert_camera_frame

        seq = write_scenario(tmp_path, model, duration=0.1).ground_truth
        n = len(seq)

        def camera(frame_ids):
            return Trajectory(frame_ids, np.tile(np.eye(3), (len(frame_ids), 1, 1)), np.zeros((len(frame_ids), 3)))

        with pytest.raises(ConfigError) as err:
            convert_camera_frame(seq, camera(frames + list(range(3, n))))
        assert f"row {row} has frame {frames[row]}, expected {row}" in str(err.value)
        # a longer trajectory is fine as long as its first rows are the frames
        recovered = convert_camera_frame(seq, camera(list(range(n + 2))))
        assert np.array_equal(recovered.root_trans, seq.root_trans)

    def test_short_camera_trajectory_rejected(self, tmp_path, model, rng):
        from physmotion.frames import Trajectory
        from physmotion.pipeline import convert_camera_frame

        bundle = write_scenario(tmp_path, model)
        cam = Trajectory(np.arange(2), np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            convert_camera_frame(bundle.ground_truth, cam)


class TestCLI:
    def test_synth_and_pipeline_commands(self, tmp_path):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = runner.invoke(main, ["synth", "--scene", "flat", "--motion", "stand",
                                     "--duration", "0.5", "--seed", "3", "--out", "scen"])
            assert r.exit_code == 0, r.output
            cfg = {
                "motion_path": "scen/noisy_motion.jsonl",
                "gt_motion_path": "scen/gt_motion.jsonl",
                "mesh_path": "scen/scene.obj",
                "contacts_path": "scen/contacts.csv",
                "output_dir": "out",
                "grid_resolution": 64,
            }
            Path("cfg.json").write_text(json.dumps(cfg))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"])
            assert r.exit_code == 0, r.output
            assert Path("out/refined_motion.jsonl").exists()
            assert Path("out/report.json").exists()

    def test_pipeline_scenario_seed_override(self, tmp_path, model):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            block = {"scene": "flat", "motion": "stand", "noise_sigma": 0.02, "duration": 0.3, "seed": 3}
            cfg = {"scenario": block, "output_dir": "out", "grid_resolution": 32}
            Path("cfg.json").write_text(json.dumps(cfg))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json", "--seed", "5"])
            assert r.exit_code == 0, r.output
            bundle = generate_scenario(SyntheticScenario(**{**block, "seed": 5}), model)
            save_motion(bundle.noisy, "expected.jsonl")
            assert Path("out/inputs/noisy_motion.jsonl").read_bytes() == Path("expected.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (["--friction-mu", "nan", "--solver-tol", "-1"], "friction_mu"),
            (["--solver-tol", "-1"], "solver_tol"),
            (["--reg-weight", "0"], "reg_weight"),
        ],
    )
    def test_refine_overrides_are_checked(self, tmp_path, model, overrides, field):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model)
            r = runner.invoke(main, ["refine", "--motion", "noisy.jsonl", "--out", "out"] + overrides)
            assert r.exit_code == EXIT_CONFIG, r.output
            assert f"{field} must be finite and > 0" in r.output
            assert not Path("out").exists()

    def test_overflowing_camera_frame_is_an_input_error(self, tmp_path, model):
        # "frame": 1e400 used to escape as an OverflowError, exit 1
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model, duration=0.1)
            record = {"frame": 0, "quat_wxyz": [1.0, 0.0, 0.0, 0.0], "trans_xyz": [0.0, 0.0, 0.0]}
            Path("camera.jsonl").write_text(json.dumps(record).replace('"frame": 0', '"frame": 1e400') + "\n")
            r = runner.invoke(main, ["refine", "--motion", "noisy.jsonl", "--camera", "camera.jsonl", "--out", "out"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert "camera.jsonl:1: frame must be a 64-bit JSON integer, got inf" in r.output

    def test_camera_integer_past_the_int_string_limit_is_an_input_error(self, tmp_path, model):
        # Python's int-string limit raises a ValueError that is no JSONDecodeError
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model, duration=0.1)
            Path("camera.jsonl").write_text('{"frame": ' + HUGE_INT + "}\n")
            r = runner.invoke(main, ["refine", "--motion", "noisy.jsonl", "--camera", "camera.jsonl", "--out", "out"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert "MotionFormatError: camera.jsonl:1: invalid JSON: " in r.output

    def test_lenient_contact_label_is_an_input_error(self, tmp_path, model):
        # int() takes "0_1" as the label 1; the reader takes 0 or 1 as written
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model, duration=0.1)
            lines = Path("contacts.csv").read_text().splitlines()
            lines[1] = "0,0_1,0_1,0_1,0_1"
            Path("contacts.csv").write_text("\n".join(lines) + "\n")
            r = runner.invoke(main, ["refine", "--motion", "noisy.jsonl", "--contacts", "contacts.csv", "--out", "out"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert "MotionFormatError: contacts.csv:2: expected an integer frame and four 0/1 labels" in r.output

    def test_pipeline_config_error_exit_code(self, tmp_path):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("cfg.json").write_text(json.dumps({"motion_path": "missing.jsonl"}))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"])
            assert r.exit_code == 2

    @pytest.mark.parametrize(
        "command, error",
        [
            (["refine", "--motion", "bad.jsonl", "--out", "out"], MotionFormatError),
            (["pipeline", "--config", "bad_motion.json"], MotionFormatError),
            (["evaluate", "--pred", "bad.jsonl", "--gt", "bad.jsonl"], MotionFormatError),
            (["heightmap", "bad.obj", "-o", "scene.hmap"], EmptySceneError),
        ],
    )
    def test_malformed_input_exit_code(self, tmp_path, command, error):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("bad.jsonl").write_text("this is not JSON\n")
            Path("bad.obj").write_text("# no vertices or faces\n")
            Path("bad_motion.json").write_text(json.dumps({"motion_path": "bad.jsonl", "settings": {"use_height_map": False}}))
            r = runner.invoke(main, command)
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert f"{error.__name__}: " in r.output

    def test_ablation_choices_are_the_presets(self):
        for name in ("refine", "pipeline"):
            (option,) = [p for p in main.commands[name].params if p.name == "ablation"]
            assert list(option.type.choices) == sorted(ABLATION_PRESETS)

    def test_heightmap_command(self, tmp_path, model):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model)
            r = runner.invoke(main, ["heightmap", "scene.obj", "-o", "scene.hmap", "--resolution", "32"])
            assert r.exit_code == 0, r.output
            from physmotion.scene import load_height_map

            hm = load_height_map("scene.hmap")
            assert hm.heights.shape == (32, 32)

    def test_calibrate_command(self, tmp_path, rng):
        from oracles import random_rotation

        from physmotion.rotations import matrix_to_quat

        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            for name in ("eh", "ef", "mf"):
                doc = {
                    "rotation_quat_wxyz": [float(v) for v in matrix_to_quat(random_rotation(rng))],
                    "translation_xyz": [float(v) for v in rng.normal(size=3)],
                }
                Path(f"{name}.json").write_text(json.dumps(doc))
            r = runner.invoke(main, ["calibrate", "--t-eh", "eh.json", "--t-ef", "ef.json",
                                     "--t-mf", "mf.json", "-o", "he.json"])
            assert r.exit_code == 0, r.output
            doc = json.loads(Path("he.json").read_text())
            assert set(doc) == {"rotation_quat_wxyz", "translation_xyz"}

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{not json", "invalid JSON"),
            (json.dumps([1.0, 0.0, 0.0, 0.0]), "rotation_quat_wxyz"),
            (json.dumps({"translation_xyz": [0.0, 0.0, 0.0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [1.0, 0.0, 0.0, 0.0]}), "translation_xyz"),
            (json.dumps({"rotation_quat_wxyz": [1.0, 0.0, 0.0], "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [0, 0, 0, 0], "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [float("nan"), 0, 0, 1], "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, 0, 0], "translation_xyz": [0, 0]}), "translation_xyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, 0, 0], "translation_xyz": [0, "x", 0]}), "translation_xyz"),
            (json.dumps({"rotation_quat_wxyz": ["1", 0, 0, 0], "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [True] * 4, "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, False, 0], "translation_xyz": [0, 0, 0]}), "rotation_quat_wxyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, 0, 0], "translation_xyz": [0, "1.5", 0]}), "translation_xyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, 0, 0], "translation_xyz": [True] * 3}), "translation_xyz"),
            (json.dumps({"rotation_quat_wxyz": [1, 0, 0, 0], "translation_xyz": [0, 0, True]}), "translation_xyz"),
        ],
    )
    def test_calibrate_rejects_a_bad_transform_file(self, tmp_path, text, field):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            good = {"rotation_quat_wxyz": [1.0, 0.0, 0.0, 0.0], "translation_xyz": [0.0, 0.0, 0.0]}
            Path("eh.json").write_text(json.dumps(good))
            Path("ef.json").write_text(json.dumps(good))
            Path("mf.json").write_text(text)
            r = runner.invoke(main, ["calibrate", "--t-eh", "eh.json", "--t-ef", "ef.json", "--t-mf", "mf.json"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert "MotionFormatError: mf.json: " in r.output and field in r.output
            assert not Path("hand_eye.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: "{not json", "invalid JSON"),
            (lambda doc: doc.pop("bodies"), "model: missing field 'bodies'"),
            (lambda doc: doc["bodies"][3].pop("mass"), "bodies[3]: missing field 'mass'"),
            (lambda doc: doc["bodies"][5].update(offset_xyz=[0.0, 1.0]), "bodies[5]: malformed field"),
            (lambda doc: doc["bodies"][2].update(parent="left"), "bodies[2]: malformed field"),
            (lambda doc: doc["bodies"].append(7), "bodies[24]: malformed field"),
            (
                lambda doc: [b["end_effectors"].pop() for b in doc["bodies"] if b["name"] == "r_foot"],
                "model has no end effector for contact point(s) r_heel",
            ),
            (lambda doc: doc["bodies"][3].update(mass=float("nan")), "body spine1: mass must be finite and positive"),
        ],
    )
    def test_bad_model_file_exits_2_at_load(self, tmp_path, edit, message):
        from importlib import resources

        doc = json.loads(resources.files("physmotion").joinpath("data/default_model.json").read_text())
        text = edit(doc)
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("model.json").write_text(text if isinstance(text, str) else json.dumps(doc))
            Path("motion.jsonl").write_text("not read: the model fails first\n")
            Path("cfg.json").write_text(json.dumps({"motion_path": "motion.jsonl", "model_path": "model.json",
                                                    "settings": {"use_height_map": False}}))
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"])
            assert r.exit_code == EXIT_CONFIG, r.output
            assert isinstance(r.exception, SystemExit)  # no traceback
            assert f"InvalidInputError: model.json: {message}" in r.output

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)])
    def test_degraded_line_names_the_first_frame_and_its_reason(self, tmp_path, monkeypatch, strict, code):
        import physmotion.optimizer as opt
        from physmotion.errors import QPInfeasibleError

        calls = []
        original = opt.solve_qp

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise QPInfeasibleError("forced")
            return original(*args, **kwargs)

        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            block = {"scene": "flat", "motion": "stand", "duration": 0.2, "seed": 3}
            Path("cfg.json").write_text(json.dumps({"scenario": block, "output_dir": "out", "grid_resolution": 32}))
            monkeypatch.setattr(opt, "solve_qp", fails_once)
            r = runner.invoke(main, ["pipeline", "--config", "cfg.json"] + ["--strict"] * strict)
            assert r.exit_code == code, r.output
            assert "degraded frames: 1; first frame 3 at no-slide, full failed: forced\n" in r.output
            records = [json.loads(line) for line in Path("out/forces.jsonl").read_text().splitlines()[1:]]
            assert [rec["frame"] for rec in records if rec["degraded"]] == [3]

    def test_evaluate_command(self, tmp_path, model):
        runner = CliRunner()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            write_scenario(Path("."), model, noise_sigma=0.02)
            r = runner.invoke(main, ["evaluate", "--pred", "noisy.jsonl", "--gt", "gt.jsonl",
                                     "--mesh", "scene.obj", "--resolution", "32", "-o", "rep.json"])
            assert r.exit_code == 0, r.output
            doc = json.loads(Path("rep.json").read_text())
            assert "mpjpe" in doc

    def test_evaluate_writes_the_pipelines_report(self, tmp_path, model):
        # one default grid resolution: evaluate's used to be 256 against the
        # pipeline's 1024, and this clip's penetration read 16.60 % against 17.43 %
        scenario = SyntheticScenario(scene="step", motion="step-climb", noise_sigma=0.03, seed=1)
        run_pipeline(RunConfig(output_dir=str(tmp_path), run_physics=False, scenario=scenario), model=model)
        inputs = tmp_path / "inputs"
        r = CliRunner().invoke(main, ["evaluate", "--pred", str(tmp_path / "refined_motion.jsonl"),
                                      "--gt", str(inputs / "gt_motion.jsonl"), "--mesh", str(inputs / "scene.obj"),
                                      "-o", str(tmp_path / "evaluate.json")])
        assert r.exit_code == 0, r.output
        assert (tmp_path / "evaluate.json").read_text() == (tmp_path / "report.json").read_text()


@pytest.mark.parametrize(
    "reader, error, lines, place",
    [
        ("trajectory", MotionFormatError, ['{"frame": HUGE}'], ":1: invalid JSON: "),
        ("motion", MotionFormatError, ['{"schema": HUGE}'], ":1: invalid header: "),
        ("motion", MotionFormatError, ["HEADER", '{"frame": HUGE}'], ":2: invalid JSON: "),
        ("model", InvalidInputError, ['{"bodies": HUGE}'], ": invalid JSON: "),
        ("config", ConfigError, ['{"grid_resolution": HUGE}'], ": "),
        ("transform", MotionFormatError, ['{"translation_xyz": [HUGE, 0, 0]}'], ": invalid JSON: "),
    ],
    ids=["trajectory", "motion-header", "motion-record", "model", "config", "transform"],
)
def test_an_integer_past_the_int_string_limit_is_the_readers_error(tmp_path, reader, error, lines, place):
    from physmotion.cli import _load_transform
    from physmotion.frames import load_trajectory
    from physmotion.humanoid import load_model
    from physmotion.motion import SCHEMA
    from physmotion.pipeline import load_config

    readers = {"trajectory": load_trajectory, "motion": load_motion, "model": load_model,
               "config": load_config, "transform": _load_transform}
    header = json.dumps({"schema": SCHEMA, "fps": 60.0, "frames": 1})
    path = tmp_path / "file.json"
    path.write_text("".join(line.replace("HEADER", header).replace("HUGE", HUGE_INT) + "\n" for line in lines))
    with pytest.raises(error) as info:
        readers[reader](str(path))
    assert str(info.value).startswith(f"{path}{place}")
    assert "integer string conversion" in str(info.value)


def save_forces_per_element(solutions, path):
    """Writer with one float() per element: the byte oracle for save_forces."""
    with open(path, "w") as fh:
        header = {"schema": "physmotion.forces/1", "fps": 60.0, "frames": len(solutions)}
        fh.write(json.dumps(header) + "\n")
        for t, sol in enumerate(solutions):
            rec = {
                "frame": t,
                "contacts": [
                    {"name": name, "force_xyz": [float(v) for v in force]}
                    for name, force in zip(sol.contact_names, sol.contact_forces)
                ],
                "tau": [float(v) for v in sol.tau],
                "degraded": bool(sol.degraded),
            }
            fh.write(json.dumps(rec) + "\n")


def test_forces_bytes_equal_the_per_element_writer(tmp_path, rng):
    solutions = []
    for k in range(6):
        tau = rng.normal(size=75) * 10.0 ** rng.integers(-5, 5)
        tau[:6] = [0.0, -0.0, 0.0, 0.0, 5e-324, 0.0]
        forces = rng.normal(size=(k % 5, 3)) * 300.0
        level = ("full", "no-slide", "no-cone")[k % 3]
        solutions.append(
            FrameSolution(np.zeros(75), np.arange(4) < k % 5, forces, tau, level=level)
        )
    save_forces(solutions, tmp_path / "new.jsonl")
    save_forces_per_element(solutions, tmp_path / "old.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


def test_sequence_stages_make_no_per_frame_forward_kinematics(model, fk_calls):
    bundle = generate_scenario(SyntheticScenario(scene="flat", motion="walk", duration=0.5, seed=3), model)
    fk_calls.clear()  # the scenario generator's own calls
    filter_motion(bundle.noisy, FilterParams())
    assert fk_calls == []
    bundle.noisy.with_joint_positions(model)
    assert fk_calls == [(len(bundle.noisy), 75)]


# gait cells that must stay sound: (scene, drift m/s, seed), each run as
# the benchmark's gait workload runs it (sigma 0.03, 4 s walk, root
# supervision off); a completion is sound when its refined root orientation
# stays within this angle of the filtered input's on every frame
GAIT_SENTINELS = [("flat", 0.01, 1), ("flat", 0.01, 7), ("ramp", 0.0, 1)]
SOUND_ROOT_ANGLE = 0.3


@pytest.mark.parametrize(
    "scene, drift, seed", GAIT_SENTINELS, ids=["flat-walk/no-root/s1", "flat-walk/no-root/s7", "ramp-walk/no-root/s1"]
)
def test_gait_sentinel_completes_sound_without_degrading(tmp_path, model, scene, drift, seed):
    scenario = SyntheticScenario(scene=scene, motion="walk", noise_sigma=0.03, drift_rate=drift, duration=4.0, seed=seed)
    config = RunConfig(output_dir=str(tmp_path), scenario=scenario, settings=QPSettings(use_root_supervision=False))
    run_pipeline(config, model=model)

    # judged from the written files alone
    noisy = load_motion(tmp_path / "inputs" / "noisy_motion.jsonl")
    refined = load_motion(tmp_path / "refined_motion.jsonl")
    records = [json.loads(line) for line in (tmp_path / "forces.jsonl").read_text().splitlines()[1:]]
    assert len(refined) == len(noisy) == len(records)
    assert [r["frame"] for r in records if r["degraded"]] == []
    filtered = filter_motion(noisy, FilterParams())
    relative = np.swapaxes(filtered.root_rot, 1, 2) @ refined.root_rot
    angles = vector_norms(log_so3(relative))[:, 0]
    assert angles.max() < SOUND_ROOT_ANGLE, (int(angles.argmax()), float(angles.max()))
