"""Command-line interface.

Subcommands: calibrate, heightmap, refine, evaluate, synth, pipeline.
Exit codes: 0 success, 1 degraded frames under --strict, 2 configuration
or input error, 3 solver failure. Log level comes from PHYSMOTION_LOG
(default INFO).
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import replace

import click

from .errors import MotionFormatError, PhysmotionError, SolverError
from .frames import NumericField, RigidTransform, check_quaternions, hand_eye_calibrate
from .humanoid import default_model
from .metrics import evaluate
from .motion import load_motion
from .optimizer import QPSettings
from .pipeline import ABLATION_PRESETS, RunConfig, load_config, run_pipeline
from .rotations import matrix_to_quat, quat_to_matrix
from .scene import DEFAULT_GRID_RESOLUTION, build_height_map, load_obj, save_height_map
from .synth import SyntheticScenario, generate_scenario, write_scenario

EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_ablation_option = click.option("--ablation", type=click.Choice(sorted(ABLATION_PRESETS)))


def _setup_logging() -> None:
    level = os.environ.get("PHYSMOTION_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(message)s")


def _load_transform(path: str) -> RigidTransform:
    """A transform file; a malformed one raises MotionFormatError naming the file and field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
        raise MotionFormatError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("rotation_quat_wxyz", "translation_xyz"):
        if not isinstance(doc, dict) or key not in doc:
            raise MotionFormatError(f"{path}: missing field {key}")
    quat = check_quaternions(NumericField("rotation_quat_wxyz", (4,)).add(doc["rotation_quat_wxyz"], path))[0]
    trans = NumericField("translation_xyz", (3,)).add(doc["translation_xyz"], path).array()[0]
    return RigidTransform(quat_to_matrix(quat), trans)


def _dump_transform(t: RigidTransform, path: str) -> None:
    doc = {
        "rotation_quat_wxyz": [float(v) for v in matrix_to_quat(t.rotation)],
        "translation_xyz": [float(v) for v in t.translation],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class _ExitCodes(click.Group):
    """Maps the package's errors from every subcommand to an exit code: a
    solver failure to 3, any other error (configuration or input) to 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SolverError as exc:
            click.echo(f"solver failure: {exc}", err=True)
            sys.exit(EXIT_SOLVER)
        except PhysmotionError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_ExitCodes)
def main() -> None:
    """Scene-aware physics-based refinement of human motion estimates."""
    _setup_logging()


@main.command()
@click.option("--t-eh", "t_eh", required=True, type=click.Path(exists=True), help="external camera -> head marker transform (JSON)")
@click.option("--t-ef", "t_ef", required=True, type=click.Path(exists=True), help="external camera -> floor marker transform (JSON)")
@click.option("--t-mf", "t_mf", required=True, type=click.Path(exists=True), help="moving camera -> floor marker transform (JSON)")
@click.option("--out", "-o", default="hand_eye.json", type=click.Path(), show_default=True)
def calibrate(t_eh: str, t_ef: str, t_mf: str, out: str) -> None:
    """Head-marker to moving-camera transform from three measured transforms."""
    result = hand_eye_calibrate(_load_transform(t_eh), _load_transform(t_ef), _load_transform(t_mf))
    _dump_transform(result, out)
    click.echo(f"wrote {out}")


@main.command()
@click.argument("mesh", type=click.Path(exists=True))
@click.option("--out", "-o", default="scene.hmap", type=click.Path(), show_default=True)
@click.option("--resolution", default=DEFAULT_GRID_RESOLUTION, show_default=True, help="grid cells per axis")
def heightmap(mesh: str, out: str, resolution: int) -> None:
    """Build a height map from a Wavefront OBJ scene mesh."""
    hm = build_height_map(load_obj(mesh), (resolution, resolution))
    save_height_map(hm, out)
    click.echo(f"wrote {out} ({resolution}x{resolution}, cell {hm.cell_size:.4f} m)")


@main.command()
@click.option("--motion", required=True, type=click.Path(exists=True))
@click.option("--mesh", type=click.Path(exists=True))
@click.option("--contacts", type=click.Path(exists=True))
@click.option("--camera", type=click.Path(exists=True), help="camera trajectory for world-frame conversion")
@click.option("--out", "-o", "out_dir", default="out", type=click.Path(), show_default=True)
@click.option("--no-filter", is_flag=True, help="skip the One-Euro filtering stage")
@click.option("--friction-mu", type=float, default=None, help="override the friction coefficient")
@click.option("--reg-weight", type=float, default=None, help="override the force/torque regularizer weight")
@click.option("--solver-tol", type=float, default=None, help="override the QP tolerance")
@_ablation_option
@click.option("--strict", is_flag=True, help="exit 1 if any frame was solved degraded")
def refine(motion: str, mesh: str, contacts: str, camera: str, out_dir: str, no_filter: bool,
           friction_mu: float, reg_weight: float, solver_tol: float, ablation: str, strict: bool) -> None:
    """Physics-refine a motion file against a scene mesh."""
    overrides = {"friction_mu": friction_mu, "reg_weight": reg_weight, "solver_tol": solver_tol}
    # built, not assigned field by field, so QPSettings checks the overrides
    settings = QPSettings(use_height_map=mesh is not None, **{k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(
        motion_path=motion,
        mesh_path=mesh,
        contacts_path=contacts,
        camera_trajectory_path=camera,
        output_dir=out_dir,
        apply_filter=not no_filter,
        strict=strict,
        settings=settings,
    )
    _run(config, ablation)


@main.command(name="evaluate")
@click.option("--pred", required=True, type=click.Path(exists=True), help="predicted motion file")
@click.option("--gt", required=True, type=click.Path(exists=True), help="ground-truth motion file")
@click.option("--mesh", type=click.Path(exists=True), help="scene mesh for plausibility metrics")
@click.option("--resolution", default=DEFAULT_GRID_RESOLUTION, show_default=True, help="grid cells per axis")
@click.option("--out", "-o", type=click.Path(), help="also write the report as JSON")
def evaluate_cmd(pred: str, gt: str, mesh: str, resolution: int, out: str) -> None:
    """Metric report for a prediction against ground truth."""
    model = default_model()
    pred_seq = load_motion(pred)
    gt_seq = load_motion(gt)
    if pred_seq.joint_positions is None:
        pred_seq = pred_seq.with_joint_positions(model)
    if gt_seq.joint_positions is None:
        gt_seq = gt_seq.with_joint_positions(model)
    hm = build_height_map(load_obj(mesh), (resolution, resolution)) if mesh else None
    report = evaluate(pred_seq, gt_seq, hm)
    click.echo(report.table())
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json() + "\n")
        click.echo(f"wrote {out}")


@main.command()
@click.option("--scene", default="flat", type=click.Choice(["flat", "ramp", "step"]), show_default=True)
@click.option("--motion", default="walk", type=click.Choice(["stand", "walk", "squat", "step-climb"]), show_default=True)
@click.option("--noise-sigma", default=0.0, show_default=True, help="per-joint angle noise (rad)")
@click.option("--drift-rate", default=0.0, show_default=True, help="root drift (m/s)")
@click.option("--duration", default=4.0, show_default=True, help="seconds")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "-o", "out_dir", default="scenario", type=click.Path(), show_default=True)
def synth(scene: str, motion: str, noise_sigma: float, drift_rate: float, duration: float, seed: int, out_dir: str) -> None:
    """Generate a synthetic scenario: noisy and ground-truth motion, mesh, labels."""
    scenario = SyntheticScenario(
        scene=scene,
        motion=motion,
        noise_sigma=noise_sigma,
        drift_rate=drift_rate,
        duration=duration,
        seed=seed,
    )
    bundle = generate_scenario(scenario)
    write_scenario(bundle, out_dir)
    click.echo(f"wrote scenario to {out_dir} ({len(bundle.noisy)} frames)")


@main.command(name="pipeline")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@_ablation_option
@click.option("--seed", default=None, type=int, help="seed override for configs with a scenario block")
@click.option("--strict", is_flag=True)
@click.option("--out", "out_dir", default=None, type=click.Path(), help="output directory override")
def pipeline_cmd(config_path: str, ablation: str, seed: int, strict: bool, out_dir: str) -> None:
    """Run the full pipeline from a JSON config file.

    A config may carry a "scenario" block instead of input paths; the
    scenario is generated first (deterministic in the seed) and its files are
    placed under the output directory.
    """
    config = load_config(config_path)
    if seed is not None and config.scenario is not None:
        config.scenario = replace(config.scenario, seed=seed)
    if out_dir:
        config.output_dir = out_dir
    config.strict = strict or config.strict
    _run(config, ablation)


def _run(config: RunConfig, ablation: str | None) -> None:
    result = run_pipeline(config, ablation=ablation)
    for name, path in result.outputs.items():
        click.echo(f"{name}: {path}")
    if result.report is not None:
        click.echo(result.report.table())
    if result.degraded_frames:
        first = result.degraded_frames[0]
        sol = result.solutions[first]
        level, reason = sol.failures[0]
        click.echo(
            f"degraded frames: {len(result.degraded_frames)}; "
            f"first frame {first} at {sol.level}, {level} failed: {reason}"
        )
        if config.strict:
            sys.exit(EXIT_DEGRADED)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
