"""Runs one workload's ops in a fresh process and writes what it measured.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the source tree, the op run specs, the
mode and where to write the result. The worker loads the model once, runs
one untimed warm-up op, then either

- plain: runs ops round-robin for `seconds` (every op at least once), timing
  each `run_pipeline` call, and reports the process's peak RSS; or
- traced: runs a fixed number of passes, each op once untraced and then once
  with every layer wrapped by `tracing.Tracer`, and derives per-layer
  metrics from the spans. Fixed passes make the traced counts repeat
  exactly.

Every completed op's outputs are checked, and every op's outcome must repeat;
a failed check counts the op as failed. An error the program raises aborts
the op, which is measured with its reason; any other exception stops the
worker with a traceback.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

# A traced run covers at least this many frames so that the solve_frame p99
# has ten samples beyond it.
MIN_TRACED_FRAMES = 1000
QUALITY_FIELDS = ("w_mpjpe", "jitter", "foot_sliding", "penetration_pct")
FRAME_RE = re.compile(r"^frame (\d+):")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _frames_before(exc: BaseException, first_line: str) -> int:
    """Frames solved before an abort.

    A SolverError names its frame ("frame 149: ..."); an error without a frame
    number (the LinAlgError the QP lets escape) is placed by the refinement
    loop's list of frame solutions, found among the locals of the traceback.
    """
    m = FRAME_RE.match(first_line)
    if m:
        return int(m.group(1))
    solved = 0
    tb = exc.__traceback__
    while tb is not None:
        solutions = tb.tb_frame.f_locals.get("solutions")
        if isinstance(solutions, list):
            solved = len(solutions)
        tb = tb.tb_next
    return solved


class Runner:
    def __init__(self, spec: dict):
        import physmotion
        from physmotion import pipeline, scene
        from physmotion.errors import PhysmotionError

        # PhysmotionError is the program's declared failure. LinAlgError is
        # not, but the QP lets it escape on some inputs (a singular Schur
        # system in the interior point); that is a program defect, so it is
        # counted as an abort and named, not treated as a harness bug.
        self.program_errors = (PhysmotionError, np.linalg.LinAlgError)
        self.pipeline, self.scene = pipeline, scene
        self.model = physmotion.default_model()
        self.seed = spec["seed"]
        self.ops = spec["ops"]
        self.configs = {key: pipeline.config_from_dict(dict(op["config"])) for key, op in self.ops.items()}
        self.digests: dict = {}
        self.outcomes: dict = {}  # op key -> "completed" or its abort reason
        self.terrain_ratio = None
        self.check_failures: list = []

    def run_op(self, key: str) -> dict:
        """Run one op; returns its wall time, outcome and what it produced.

        An op whose `run_pipeline` raises a program error is aborted: the
        abort is the program's answer for that input, so it is measured (its
        time, the frames before it and its reason), not a failed op. The op
        fails only when a check fails: its outputs are wrong, or its outcome
        (completed, or aborted with a given message) differs from an earlier
        repeat of the same op.
        """
        op = self.ops[key]
        t0 = time.perf_counter()
        try:
            # looked up at call time so that a traced run sees the wrapper
            result = self.pipeline.run_pipeline(self.configs[key], model=self.model)
        except self.program_errors as exc:
            seconds = time.perf_counter() - t0
            first = (str(exc).splitlines() or [""])[0]
            out = {"key": key, "seconds": seconds, "aborted": True,
                   "abort": f"{type(exc).__name__}: {first}", "solved_frames": _frames_before(exc, first)}
            return self.finish(out, self.same_outcome(key, out["abort"]))
        seconds = time.perf_counter() - t0
        problems = self.same_outcome(key, "completed") + self.check(key, op, result)
        out = {"key": key, "seconds": seconds, "aborted": False,
               "solved_frames": op["frames"], "degraded": len(result.degraded_frames)}
        if result.report is not None:
            out["report"] = result.report.to_dict()
        return self.finish(out, problems)

    def same_outcome(self, key: str, outcome: str) -> list:
        first = self.outcomes.setdefault(key, outcome)
        if outcome != first:
            return [f"outcome '{outcome}' differs from an earlier repeat's '{first}'"]
        return []

    def finish(self, out: dict, problems: list) -> dict:
        out["ok"] = not problems
        if problems:
            out["reason"] = "check: " + "; ".join(problems)
            self.check_failures.append({"key": out["key"], "problems": problems})
        return out

    def check(self, key: str, op: dict, result) -> list:
        frames = op["frames"]
        physics = self.configs[key].run_physics
        problems = []
        refined = result.refined
        if len(refined) != frames:
            problems.append(f"refined motion has {len(refined)} frames, input has {frames}")
        arrays = [refined.root_trans, refined.root_rot, refined.joint_angles]
        if refined.joint_positions is not None:
            arrays.append(refined.joint_positions)
        if not all(np.isfinite(a).all() for a in arrays):
            problems.append("refined motion has non-finite values")
        files = {"refined_motion": result.outputs.get("refined_motion")}
        if physics:
            if len(result.solutions) != frames:
                problems.append(f"{len(result.solutions)} frame solutions for {frames} frames")
            for t, sol in enumerate(result.solutions):
                if not (np.isfinite(sol.qdd).all() and np.isfinite(sol.tau).all()
                        and np.isfinite(sol.contact_forces).all()):
                    problems.append(f"frame {t}: non-finite accelerations, torques or forces")
                    break
            files["forces"] = result.outputs.get("forces")
        for name, path in files.items():
            if path is None:
                problems.append(f"no {name} output")
                continue
            lines = _line_count(path)
            if lines != frames + 1:
                problems.append(f"{name} has {lines - 1} frame records for {frames} frames")
            digest = _digest(path)
            first = self.digests.setdefault((key, name), digest)
            if digest != first:
                problems.append(f"{name} differs from an earlier repeat of the same op")
        report = result.report
        if report is None:
            problems.append("no metric report")
        else:
            for field, value in vars(report).items():
                if math.isinf(value):
                    problems.append(f"report {field} is infinite")
            for field in QUALITY_FIELDS:
                if not math.isfinite(getattr(report, field)):
                    problems.append(f"report {field} is undefined")
        if op["terrain"] and self.terrain_ratio is None:
            problems += self.check_terrain(result.outputs.get("height_map"))
        return problems

    def check_terrain(self, path) -> list:
        """The built map must match the analytic terrain within the cell-size tolerance."""
        from terrain import Terrain

        if path is None:
            self.terrain_ratio = math.inf
            return ["no height map output"]
        hmap = self.scene.load_height_map(path)
        self.terrain_ratio = Terrain.from_seed(self.seed).check_height_map(self.scene.query_height, hmap, self.seed)
        if not self.terrain_ratio <= 1.0:
            return [f"height map off the analytic terrain by {self.terrain_ratio:.3g} tolerances"]
        return []


def run_plain(runner: Runner, seconds: float) -> dict:
    order = list(runner.ops)
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < len(order):
        records.append(runner.run_op(order[len(records) % len(order)]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": records, "peak_rss_mb": peak}


def run_traced(runner: Runner, out_dir: Path) -> dict:
    from tracing import Tracer, layer_metrics, namespace_snapshot

    order = list(runner.ops)
    passes = max(1, math.ceil(MIN_TRACED_FRAMES / sum(runner.ops[k]["frames"] for k in order)))
    before = namespace_snapshot()
    tracer = Tracer()
    untraced, traced, input_frames = [], [], {}
    # each op runs untraced and then traced, so drifts in machine speed fall
    # on both sides of the overhead estimate alike
    for _ in range(passes):
        for key in order:
            untraced.append(runner.run_op(key))
            tracer.op = len(traced)
            input_frames[tracer.op] = runner.ops[key]["frames"]
            tracer.install()
            try:
                traced.append(runner.run_op(key))
            finally:
                tracer.restore()
            if namespace_snapshot() != before:
                raise RuntimeError("tracing left wrapped functions behind")

    with open(out_dir / "spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "info"], "spans": tracer.spans}, fh)
    layers = layer_metrics(tracer.spans, input_frames, passes)
    untraced_s = sum(r["seconds"] for r in untraced)
    traced_s = sum(r["seconds"] for r in traced)
    # equal work on both sides, so the ratio of times is the inverse ratio of frames_per_s
    layers["trace_overhead_frac"] = {"value": traced_s / untraced_s - 1.0, "unit": "frac", "n": len(traced)}
    return {"records": untraced + traced, "passes": passes, "spans": len(tracer.spans), "layers": layers}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    out_dir = Path(spec["out_dir"])
    runner = Runner(spec)
    warmup = runner.run_op(next(iter(runner.ops)))
    if spec["mode"] == "plain":
        result = run_plain(runner, spec["seconds"])
    else:
        result = run_traced(runner, out_dir)
    result.update(warmup=warmup, check_failures=runner.check_failures, terrain_ratio=runner.terrain_ratio)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
