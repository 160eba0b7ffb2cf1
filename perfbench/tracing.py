"""Span tracing of the physmotion layers from outside the package.

`Tracer.install` replaces every public function that each layer module
defines with a timing wrapper, in every `physmotion` namespace that holds a
reference to it (callers look names up at call time, so a function imported
into another module must be replaced there too). It also wraps `lu_factor` as
`physmotion.qp` sees it, to count factorisations. `Tracer.restore` puts every
original back.

Wrapping by module rather than by a fixed list of names keeps each layer
measured when its functions are renamed or replaced. `rotations` is left out:
it is called once per joint, so wrapping it would cost more than it measures.
`synth` only makes inputs.

Spans live in memory as (name, start, end, parent, op, info) rows; the
benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from stats import tail_percentile

PACKAGE = "physmotion"
LAYERS = ("pipeline", "optimizer", "humanoid", "qp", "scene", "metrics", "motion", "frames")
LU_SPAN = "qp.lu_factor"

NAME, START, END, PARENT, OP, INFO = range(6)
RAISED = "raised"


def _info_solve_qp(args, kwargs, result) -> dict:
    # the equality-only path returns after one KKT solve with no active set
    return {"eq_path": result.iterations == 1 and not result.active_set, "iters": result.iterations}


def _info_solve_frame(args, kwargs, result) -> dict:
    return {"degraded": bool(result.degraded)}


def _info_lu(args, kwargs, result) -> dict:
    return {"dim": int(result[0].shape[0])}


def _info_height_map(args, kwargs, result) -> dict:
    mesh = args[0] if args else kwargs["mesh"]
    return {"triangles": int(len(mesh.triangles))}


INFO_HOOKS: Dict[str, Callable] = {
    "qp.solve_qp": _info_solve_qp,
    "optimizer.solve_frame": _info_solve_frame,
    LU_SPAN: _info_lu,
    "scene.build_height_map": _info_height_map,
}


def public_functions(module) -> Dict[str, Callable]:
    """Functions a module defines itself whose names do not start with '_'."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = -1
        self._patched: List[Tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = INFO_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[INFO] = RAISED
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever the package refers to it."""
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(module, attr, value, wrapper)
        qp = sys.modules[f"{PACKAGE}.qp"]
        self._patch(qp, "lu_factor", qp.lu_factor, self.wrap(LU_SPAN, qp.lu_factor))

    def _patch(self, module, attr: str, original: Callable, wrapper: Callable) -> None:
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> int:
        """Put every original function back; returns how many attributes were restored."""
        count = len(self._patched)
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return count


def _namespaces() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def namespace_snapshot() -> Dict[Tuple[str, str], int]:
    """Identity of every callable each package namespace holds, to verify a restore."""
    return {
        (module.__name__, attr): id(value)
        for module in _namespaces()
        for attr, value in vars(module).items()
        if callable(value)
    }


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            start, end = max(spans[c][START], reach), min(spans[c][END], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


# Pipeline stages in the order run_pipeline runs them, and which direct
# children of run_pipeline may belong to each. A child takes the earliest
# listed stage that is not before the current one, so the second
# load_motion (ground truth, after the outputs are written) and the forward
# kinematics of a run without physics land in the right stage; a child not
# listed stays in the current stage.
STAGES = ("load", "filter", "heightmap", "refine", "write", "metrics")
STAGE_OF = {
    "motion.load_motion": ("load", "metrics"),
    "scene.load_contacts_csv": ("load",),
    "frames.load_trajectory": ("load",),
    "pipeline.convert_camera_frame": ("load",),
    "pipeline.filter_motion": ("filter",),
    "scene.load_obj": ("heightmap",),
    "scene.build_height_map": ("heightmap",),
    "optimizer.refine_sequence": ("refine",),
    "humanoid.forward_kinematics": ("refine", "metrics"),
    "motion.save_motion": ("write",),
    "pipeline.save_forces": ("write",),
    "scene.save_height_map": ("write",),
    "metrics.evaluate": ("metrics",),
}


def stage_times(spans: Sequence[Sequence], op_span: int, child_ids: Sequence[int]) -> Dict[str, float]:
    """Wall time of each pipeline stage inside one run_pipeline span."""
    out = {stage: 0.0 for stage in STAGES}
    current = 0
    covered = 0.0
    for c in child_ids:
        name = spans[c][NAME]
        allowed = [STAGES.index(s) for s in STAGE_OF.get(name, ())]
        later = [k for k in allowed if k >= current]
        if later:
            current = min(later)
        duration = spans[c][END] - spans[c][START]
        out[STAGES[current]] += duration
        covered += duration
    out["other"] = (spans[op_span][END] - spans[op_span][START]) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: Sequence[Sequence], input_frames: Dict[int, int], passes: int) -> Dict[str, dict]:
    """Per-layer metrics from the spans of `passes` traced passes of a workload.

    `input_frames` maps each op id to its input frame count. A frame is one
    solve_frame call; a workload that does not refine counts its input
    frames instead. Returns name -> {"value", "unit", "n"} where n is the
    sample count behind the value.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)

    def spans_of(name: str) -> List[int]:
        return by_name.get(name, [])

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def layer_self(layer: str) -> float:
        return sum(selfs[i] for i, s in enumerate(spans) if layer_of(s[NAME]) == layer)

    ops = [i for i in spans_of("pipeline.run_pipeline") if spans[i][PARENT] < 0]
    n_ops = len(ops)
    frame_spans = spans_of("optimizer.solve_frame")
    frames = len(frame_spans) or sum(input_frames[spans[i][OP]] for i in ops)
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str, n: int) -> None:
        out[name] = {"value": float(value), "unit": unit, "n": int(n)}

    stage_sum = {stage: 0.0 for stage in STAGES + ("other",)}
    for i in ops:
        for stage, t in stage_times(spans, i, children.get(i, [])).items():
            stage_sum[stage] += t
    for stage, total in stage_sum.items():
        put(f"pipeline.{stage}_s", total / n_ops, "s", n_ops)

    humanoid = [i for i, s in enumerate(spans) if layer_of(s[NAME]) == "humanoid"]
    put("humanoid.ms_per_frame", 1e3 * layer_self("humanoid") / frames, "ms", frames)
    put("humanoid.calls_per_frame", len(humanoid) / frames, "count", frames)
    put("humanoid.fk_calls_per_frame", len(spans_of("humanoid.forward_kinematics")) / frames, "count", frames)

    qp_calls = spans_of("qp.solve_qp")
    returned = [spans[i][INFO] for i in qp_calls if spans[i][INFO] != RAISED]
    lu_dims = [spans[i][INFO]["dim"] for i in spans_of(LU_SPAN) if spans[i][INFO] != RAISED]
    put("qp.ms_per_frame", 1e3 * layer_self("qp") / frames, "ms", frames)
    put("qp.eq_path_frac", sum(r["eq_path"] for r in returned) / len(returned) if returned else 0.0,
        "frac", len(returned))
    put("qp.iters_mean", sum(r["iters"] for r in returned) / len(returned) if returned else 0.0,
        "count", len(returned))
    put("qp.lu_per_frame", len(lu_dims) / frames, "count", frames)
    put("qp.kkt_dim_mean", sum(lu_dims) / len(lu_dims) if lu_dims else 0.0, "count", len(lu_dims))
    put("qp.lu_gflop_per_frame", sum(2.0 / 3.0 * d**3 for d in lu_dims) / 1e9 / frames,
        "GFLOP_computed", len(lu_dims))
    put("qp.errors_per_frame", (len(qp_calls) - len(returned)) / frames, "count", frames)

    frame_ms = [1e3 * duration(i) for i in frame_spans]
    level, p99 = tail_percentile(frame_ms, 0.99)
    degraded = sum(1 for i in frame_spans if spans[i][INFO] not in (None, RAISED) and spans[i][INFO]["degraded"])
    put("optimizer.qp_attempts_per_frame", len(qp_calls) / frames, "count", frames)
    put("optimizer.degraded_frames", degraded / passes, "count", len(frame_spans))
    put("optimizer.frame_ms_p50", statistics.median(frame_ms) if frame_ms else 0.0, "ms", len(frame_ms))
    put("optimizer.frame_ms_p99", p99 if level else 0.0, "ms", len(frame_ms))
    out["optimizer.frame_ms_p99"]["level"] = level
    put("optimizer.frame_self_ms", 1e3 * sum(selfs[i] for i in frame_spans) / len(frame_spans)
        if frame_spans else 0.0, "ms", len(frame_spans))
    refine = spans_of("optimizer.refine_sequence")
    put("optimizer.refine_self_ms_per_frame", 1e3 * sum(selfs[i] for i in refine) / frames, "ms", frames)

    builds = [i for i in spans_of("scene.build_height_map") if spans[i][INFO] != RAISED]
    build_s = sum(duration(i) for i in builds)
    triangles = sum(spans[i][INFO]["triangles"] for i in builds)
    queries = spans_of("scene.query_height")
    put("scene.heightmap_s", build_s / n_ops, "s", len(builds))
    put("scene.triangles_per_s", triangles / build_s if build_s else 0.0, "1/s", len(builds))
    put("scene.query_us", 1e6 * sum(duration(i) for i in queries) / len(queries) if queries else 0.0,
        "us", len(queries))
    put("scene.queries_per_frame", len(queries) / frames, "count", frames)

    def per_op(names: Sequence[str]) -> float:
        # outermost calls only, so a layer calling itself is not counted twice
        ids = [i for n in names for i in spans_of(n)
               if spans[i][PARENT] < 0 or layer_of(spans[spans[i][PARENT]][NAME]) != layer_of(n)]
        return sum(duration(i) for i in ids) / n_ops

    put("metrics.evaluate_s", per_op(["metrics.evaluate"]), "s", n_ops)
    put("motion.io_s", per_op(["motion.load_motion", "motion.save_motion"]), "s", n_ops)
    put("frames.filter_s", per_op(["frames.one_euro_filter"]), "s", n_ops)
    return out
