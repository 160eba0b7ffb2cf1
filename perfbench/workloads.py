"""Workload definitions and their seeded inputs.

One op is one `run_pipeline` call. Every workload runs its ops one at a time
from one process (a closed loop with one client).

- balance: flat stand (sigma 0.03) and flat squat (sigma 0.02), 4 s each,
  default config. Most frames take the QP's equality-only path, so the
  floating-base dynamics dominate; the main workload for dynamics work and
  the no-change prediction for QP-solver work. It is not listed in
  BENCHMARK.json: the gated runs must fit a fixed time budget, and two
  workloads at 50 s per run are steadier on a shared 2-core machine than
  three at 30 s. Run it by name (or with --all) when a change targets the
  dynamics or the QP.
- gait: ramp walk (sigma 0.03), noisy flat walk (sigma 0.03, 0.01 m/s drift)
  and step-climb (sigma 0), 4 s each, each run with the default config and
  with root supervision off. Most no-root frames take the interior-point
  path, and the default-config runs abort today, so QP-solver and
  robustness work both show here. Clips are never shortened or re-seeded to
  avoid an abort; aborts are counted.
- terrain-eval: a 20 s flat walk (sigma 0.03) over a seeded 44,402-triangle
  terrain at the default 1024^2 grid with physics off, so the scene
  rasteriser, metrics, motion I/O and the filter carry the load; the
  no-change prediction for every refine optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

from terrain import Terrain


@dataclass(frozen=True)
class Clip:
    name: str
    scene: str
    motion: str
    noise_sigma: float
    drift_rate: float = 0.0
    duration: float = 4.0
    terrain: bool = False  # replace the synthetic scene mesh with the seeded terrain


@dataclass(frozen=True)
class Op:
    key: str
    clip: str
    config: dict = field(default_factory=dict)  # RunConfig overrides
    quality: bool = True  # counts toward the workload's quality averages


@dataclass(frozen=True)
class Workload:
    name: str
    clips: Tuple[Clip, ...]
    ops: Tuple[Op, ...]


NO_ROOT = {"settings": {"use_root_supervision": False}}

_GAIT_CLIPS = (
    Clip("ramp-walk", "ramp", "walk", 0.03),
    Clip("flat-walk", "flat", "walk", 0.03, drift_rate=0.01),
    Clip("step-climb", "step", "step-climb", 0.0),
)

WORKLOADS: Dict[str, Workload] = {
    "balance": Workload(
        "balance",
        (Clip("stand", "flat", "stand", 0.03), Clip("squat", "flat", "squat", 0.02)),
        (Op("stand", "stand"), Op("squat", "squat")),
    ),
    "gait": Workload(
        "gait",
        _GAIT_CLIPS,
        tuple(
            op
            for clip in _GAIT_CLIPS
            for op in (
                # averages of the quality metrics cover the no-root runs only,
                # so completing a default run does not change what is averaged
                Op(f"{clip.name}/default", clip.name, quality=False),
                Op(f"{clip.name}/no-root", clip.name, NO_ROOT),
            )
        ),
    ),
    "terrain-eval": Workload(
        "terrain-eval",
        (Clip("terrain-walk", "flat", "walk", 0.03, duration=20.0, terrain=True),),
        (Op("terrain-walk", "terrain-walk", {"run_physics": False}),),
    ),
}


def prepare(workload: Workload, seed: int, root: Path) -> Dict[str, dict]:
    """Write each clip's inputs under `root`; returns per-op run specs.

    A spec holds the RunConfig document for the op, its input frame count
    and whether it counts toward the quality averages.
    """
    from physmotion import SyntheticScenario, default_model, generate_scenario, save_motion
    from physmotion.scene import save_contacts_csv, save_obj

    model = default_model()
    inputs: Dict[str, dict] = {}
    for clip in workload.clips:
        d = root / "inputs" / clip.name
        d.mkdir(parents=True, exist_ok=True)
        scenario = SyntheticScenario(
            scene=clip.scene,
            motion=clip.motion,
            noise_sigma=clip.noise_sigma,
            drift_rate=clip.drift_rate,
            duration=clip.duration,
            seed=seed,
        )
        bundle = generate_scenario(scenario, model)
        save_motion(bundle.noisy, d / "noisy_motion.jsonl")
        save_motion(bundle.ground_truth, d / "gt_motion.jsonl")
        save_contacts_csv(bundle.contacts, d / "contacts.csv")
        if clip.terrain:
            Terrain.from_seed(seed).write_obj(d / "scene.obj")
        else:
            save_obj(bundle.mesh, d / "scene.obj")
        inputs[clip.name] = {
            "motion_path": str(d / "noisy_motion.jsonl"),
            "gt_motion_path": str(d / "gt_motion.jsonl"),
            "contacts_path": str(d / "contacts.csv"),
            "mesh_path": str(d / "scene.obj"),
            "frames": len(bundle.noisy),
        }

    specs: Dict[str, dict] = {}
    for op in workload.ops:
        clip_in = dict(inputs[op.clip])
        frames = clip_in.pop("frames")
        doc = {**clip_in, **op.config, "output_dir": str(root / "outputs" / op.key.replace("/", "_"))}
        specs[op.key] = {"config": doc, "frames": frames, "quality": op.quality,
                         "terrain": next(c.terrain for c in workload.clips if c.name == op.clip)}
    return specs

