"""End-to-end run configuration and orchestration.

Stage order: camera-frame conversion (when a camera trajectory is given),
One-Euro filtering of pose and translation, height-map construction, physics
refinement, metrics. Outputs: refined motion file, per-frame forces file,
metric report (JSON + table). Runs are deterministic for a fixed config.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, get_type_hints

import numpy as np

from .errors import ConfigError, InvalidInputError
from .frames import FilterParams, Trajectory, camera_to_world, load_trajectory, one_euro_filter
from .humanoid import DEFAULT_DT, HumanoidModel, default_model, load_model
from .metrics import MetricReport, evaluate
from .motion import MotionSequence, load_motion, save_motion
from .optimizer import FrameSolution, PDGains, QPSettings, refine_sequence
from .rotations import exp_so3
from .scene import DEFAULT_GRID_RESOLUTION, HeightMap, build_height_map, load_contacts_csv, load_obj, save_height_map
from .synth import SyntheticScenario, generate_scenario, write_scenario

log = logging.getLogger("physmotion")

ABLATION_PRESETS = {
    "only-etheta": {"use_position_pd": False},
    "only-er": {"use_angle_pd": False},
    "flat-no-root": {"use_height_map": False, "use_root_supervision": False},
}


@dataclass
class RunConfig:
    """One pipeline run.

    With `scenario` set, its inputs are generated under `output_dir/inputs`
    when the run starts and fill every input path left unset, so a run is
    reproducible from the scenario seed alone.
    """

    motion_path: Optional[str] = None
    mesh_path: Optional[str] = None
    gt_motion_path: Optional[str] = None
    camera_trajectory_path: Optional[str] = None
    contacts_path: Optional[str] = None
    model_path: Optional[str] = None
    output_dir: str = "out"
    grid_resolution: int = DEFAULT_GRID_RESOLUTION
    apply_filter: bool = True
    run_physics: bool = True
    strict: bool = False
    settings: QPSettings = field(default_factory=QPSettings)
    gains: PDGains = field(default_factory=PDGains)
    filter_params: FilterParams = field(default_factory=FilterParams)
    scenario: Optional[SyntheticScenario] = None

    def validate_paths(self) -> None:
        if self.motion_path is None:
            raise ConfigError("motion_path is required unless a scenario block is given")
        for name in ("motion_path", "mesh_path", "gt_motion_path", "camera_trajectory_path",
                     "contacts_path", "model_path"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{name}: file not found: {value}")
        if self.settings.use_height_map and self.mesh_path is None:
            raise ConfigError("mesh_path is required when settings.use_height_map is true")


# the config document's nested blocks: document key -> (RunConfig field, type)
_CONFIG_BLOCKS = {
    "settings": ("settings", QPSettings),
    "gains": ("gains", PDGains),
    "filter": ("filter_params", FilterParams),
    "scenario": ("scenario", SyntheticScenario),
}


def _check_keys(where: str, block, known: set) -> None:
    """Raise ConfigError unless block is a mapping whose keys are all in
    known; the message names the unknown keys and then the accepted ones."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {type(block).__name__}")
    unknown = sorted(str(key) for key in set(block) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}; accepted: {', '.join(sorted(known))}")


def _check_types(where: str, values: dict, cls) -> None:
    """Raise ConfigError unless each value has the type its field of cls
    declares: a bool is not a number, and an int serves for a float."""
    hints = get_type_hints(cls)
    for key, value in values.items():
        declared = getattr(hints[key], "__args__", (hints[key],))  # Optional[X] is Union[X, None]
        allowed = declared + (int,) if float in declared else declared
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in declared):
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in declared)
            raise ConfigError(f"wrong type in {where}: {key} must be {expected}, got {value!r}")


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a config document; a key that names no field,
    at the top level or inside a block, raises ConfigError naming it, and so
    does a value of the wrong type or out of its field's range."""
    plain = {f.name for f in fields(RunConfig)} - {name for name, _ in _CONFIG_BLOCKS.values()}
    _check_keys("config", doc, plain | set(_CONFIG_BLOCKS))
    kwargs = {k: v for k, v in doc.items() if k in plain}
    _check_types("config", kwargs, RunConfig)
    for key, (name, cls) in _CONFIG_BLOCKS.items():
        if key in doc:
            _check_keys(key, doc[key], {f.name for f in fields(cls)})
            _check_types(key, doc[key], cls)
            try:
                kwargs[name] = cls(**doc[key])
            except (InvalidInputError, TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """config_from_dict of a JSON file; an unreadable or malformed file
    raises ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: JSONDecodeError, or an integer past the int-string limit
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(doc)


def apply_ablation(settings: QPSettings, name: Optional[str]) -> QPSettings:
    if not name:
        return settings
    if name not in ABLATION_PRESETS:
        raise ConfigError(f"unknown ablation {name!r}; expected one of {sorted(ABLATION_PRESETS)}")
    return replace(settings, **ABLATION_PRESETS[name])


def _scenario_inputs(config: RunConfig, model: Optional[HumanoidModel]) -> RunConfig:
    """Generate the scenario's input files; returns the config with its unset paths filled."""
    try:
        bundle = generate_scenario(config.scenario, model)
    except InvalidInputError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    files = write_scenario(bundle, Path(config.output_dir) / "inputs")
    unset = {name: str(path) for name, path in files.items() if getattr(config, name) is None}
    return replace(config, **unset)


def convert_camera_frame(seq: MotionSequence, camera: Trajectory) -> MotionSequence:
    """Re-express per-frame root poses from camera frame to world frame.

    Row t of the camera trajectory is the camera pose of motion frame t, so
    its first len(seq) rows must carry the frame indices 0 .. len(seq) - 1.
    """
    if len(camera) < len(seq):
        raise ConfigError(
            f"camera trajectory has {len(camera)} frames, motion has {len(seq)}"
        )
    mismatched = np.flatnonzero(camera.frames[: len(seq)] != np.arange(len(seq)))
    if len(mismatched):
        row = int(mismatched[0])
        raise ConfigError(
            f"camera trajectory row {row} has frame {camera.frames[row]}, expected {row}"
        )
    out = seq.copy()
    out.root_rot, out.root_trans = camera_to_world(
        seq.root_rot, seq.root_trans, camera.rotations[: len(seq)], camera.translations[: len(seq)]
    )
    out.joint_positions = None
    return out


def filter_motion(seq: MotionSequence, params: FilterParams) -> MotionSequence:
    """One-Euro filter over root pose and joint angles, channel-wise, at the
    sequence's frame rate.

    The rotation channels are unwrapped to a continuous exponential-coordinate
    series first; filtering raw per-frame logs would smear 2-pi branch flips
    into large transients.
    """
    smoothed = one_euro_filter(seq.generalized_positions(), params, seq.frame_rate)
    return MotionSequence(
        frame_rate=seq.frame_rate,
        root_trans=smoothed[:, 0:3],
        root_rot=exp_so3(smoothed[:, 3:6]),
        joint_angles=smoothed[:, 6:].reshape(len(seq), 23, 3),
        joint_positions=None,
        contacts=seq.contacts,
    )


def save_forces(solutions: List[FrameSolution], path: str | Path) -> None:
    """Line-delimited JSON: per frame contact ids, force vectors, torques.
    The frames are refinement frames, at the header's fps (1 / DEFAULT_DT)
    whatever the motion's rate."""
    with open(path, "w") as fh:
        header = {"schema": "physmotion.forces/1", "fps": 1.0 / DEFAULT_DT, "frames": len(solutions)}
        fh.write(json.dumps(header) + "\n")
        for t, sol in enumerate(solutions):
            rec = {
                "frame": t,
                "contacts": [
                    {"name": name, "force_xyz": force}
                    for name, force in zip(sol.contact_names, sol.contact_forces.tolist())
                ],
                "tau": sol.tau.tolist(),
                "degraded": bool(sol.degraded),
            }
            fh.write(json.dumps(rec) + "\n")


@dataclass
class PipelineResult:
    refined: MotionSequence
    solutions: List[FrameSolution]
    report: Optional[MetricReport]
    degraded_frames: List[int]
    outputs: Dict[str, str]


def run_pipeline(
    config: RunConfig,
    ablation: Optional[str] = None,
    model: Optional[HumanoidModel] = None,
) -> PipelineResult:
    """Execute the full pipeline and write outputs under config.output_dir."""
    if config.scenario is not None:
        config = _scenario_inputs(config, model)
    config.validate_paths()
    settings = apply_ablation(config.settings, ablation)
    model = model or (load_model(config.model_path) if config.model_path else default_model())

    log.info("loading motion from %s", config.motion_path)
    seq = load_motion(config.motion_path)

    if config.contacts_path:
        seq.contacts = load_contacts_csv(config.contacts_path)
        if len(seq.contacts) != len(seq):
            raise ConfigError("contact labels length differs from motion length")
    gt = load_motion(config.gt_motion_path) if config.gt_motion_path else None
    if gt is not None and len(gt) != len(seq):
        raise ConfigError(f"ground truth has {len(gt)} frames, motion has {len(seq)}")

    if config.camera_trajectory_path:
        log.info("converting camera-frame poses to world frame")
        camera = load_trajectory(config.camera_trajectory_path)
        seq = convert_camera_frame(seq, camera)

    if config.apply_filter:
        log.info(
            "filtering (min_cutoff=%g, beta=%g)",
            config.filter_params.min_cutoff,
            config.filter_params.beta,
        )
        seq = filter_motion(seq, config.filter_params)

    hmap: Optional[HeightMap] = None
    if config.mesh_path:
        log.info("building height map from %s", config.mesh_path)
        mesh = load_obj(config.mesh_path)
        hmap = build_height_map(mesh, (config.grid_resolution, config.grid_resolution))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: Dict[str, str] = {}

    if config.run_physics:
        log.info("refining %d frames", len(seq))
        refined, solutions = refine_sequence(model, seq, hmap, settings, gains=config.gains)
    else:
        refined = seq.with_joint_positions(model)
        solutions = []

    degraded = [t for t, s in enumerate(solutions) if s.degraded]
    if degraded:
        log.warning("%d degraded frames: %s", len(degraded), degraded[:10])

    refined_path = out_dir / "refined_motion.jsonl"
    save_motion(refined, refined_path)
    outputs["refined_motion"] = str(refined_path)

    if solutions:
        forces_path = out_dir / "forces.jsonl"
        save_forces(solutions, forces_path)
        outputs["forces"] = str(forces_path)

    if hmap is not None:
        hm_path = out_dir / "height_map.hmap"
        save_height_map(hmap, hm_path)
        outputs["height_map"] = str(hm_path)

    report: Optional[MetricReport] = None
    if gt is not None and gt.joint_positions is None:
        gt = gt.with_joint_positions(model)
    if gt is not None or hmap is not None:
        report = evaluate(refined, gt, hmap)
        report_path = out_dir / "report.json"
        with open(report_path, "w") as fh:
            fh.write(report.to_json() + "\n")
        outputs["report"] = str(report_path)

    return PipelineResult(
        refined=refined,
        solutions=solutions,
        report=report,
        degraded_frames=degraded,
        outputs=outputs,
    )
