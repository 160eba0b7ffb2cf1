"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracing
import worker
from workloads import NO_ROOT, Clip, Op, Workload, prepare

run.import_program()


def _span(name, start, end, parent=-1, op=0, info=None):
    return [name, start, end, parent, op, info]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        _span("c", 7.0, 9.0, parent=0),
        _span("d", 7.5, 8.0, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.5, 0.5])


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1000))
    assert stats.tail_percentile(samples, 0.99) == (pytest.approx(0.99), 989.0)
    level, value = stats.tail_percentile(list(range(500)), 0.99)
    assert level == pytest.approx(0.98) and value == 489.0
    assert sum(s > value for s in range(500)) == 10
    level, value = stats.tail_percentile(list(range(10)), 0.99)
    assert level == 0.0 and math.isnan(value)


def test_goodput_counts_failed_ops_time_but_not_their_frames():
    kinds = {
        "ok": {"times": [2.0, 4.0, 3.0], "frames": 240, "ok_share": 1.0},
        "aborts": {"times": [1.0], "frames": 240, "ok_share": 0.0},
        "flaky": {"times": [2.0, 2.0], "frames": 100, "ok_share": 0.5},
    }
    assert stats.goodput(kinds) == pytest.approx((240 + 50) / (3.0 + 1.0 + 2.0))


def test_equality_only_path_is_classified_from_the_solution():
    from physmotion import qp

    tracer = tracing.Tracer()
    tracer.install()
    try:
        p, q = np.eye(2), np.zeros(2)
        qp.solve_qp(p, q, np.array([[1.0, 1.0]]), np.array([1.0]))  # equality only
        qp.solve_qp(p, np.array([-4.0, 0.0]), g_mat=np.array([[1.0, 0.0]]), h_vec=np.array([1.0]))
    finally:
        tracer.restore()
    infos = [s[tracing.INFO] for s in tracer.spans if s[tracing.NAME] == "qp.solve_qp"]
    assert [i["eq_path"] for i in infos] == [True, False]
    assert infos[1]["iters"] > 1
    assert any(s[tracing.NAME] == tracing.LU_SPAN for s in tracer.spans)


def test_restore_puts_every_original_back():
    import physmotion
    from physmotion import humanoid, optimizer, qp

    before = tracing.namespace_snapshot()
    originals = (optimizer.solve_qp, humanoid.forward_kinematics, qp.lu_factor, physmotion.run_pipeline)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = (optimizer.solve_qp, humanoid.forward_kinematics, qp.lu_factor, physmotion.run_pipeline)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        # the same function is wrapped once, whichever namespace it is reached from
        assert optimizer.solve_qp is qp.solve_qp
        assert optimizer.forward_kinematics is humanoid.forward_kinematics
    finally:
        assert tracer.restore() > 100
    assert tracing.namespace_snapshot() == before
    assert (optimizer.solve_qp, humanoid.forward_kinematics, qp.lu_factor, physmotion.run_pipeline) == originals


def test_stage_times_place_ground_truth_load_in_metrics():
    spans = [
        _span("pipeline.run_pipeline", 0.0, 10.0),
        _span("motion.load_motion", 0.0, 1.0, parent=0),
        _span("pipeline.filter_motion", 1.0, 2.0, parent=0),
        _span("humanoid.forward_kinematics", 2.0, 4.0, parent=0),
        _span("motion.save_motion", 4.0, 5.0, parent=0),
        _span("motion.load_motion", 5.0, 6.5, parent=0),
        _span("metrics.evaluate", 6.5, 9.0, parent=0),
    ]
    got = tracing.stage_times(spans, 0, range(1, len(spans)))
    assert got == pytest.approx({"load": 1.0, "filter": 1.0, "heightmap": 0.0, "refine": 2.0,
                                 "write": 1.0, "metrics": 4.0, "other": 1.0})


def test_smoke_run_covers_every_declared_metric(tmp_path, monkeypatch):
    """A tiny workload through the plain and traced runs, with the real checks."""
    clip = Clip("stand", "flat", "stand", 0.03, duration=0.5)
    tiny = Workload("smoke", (clip,), (Op("stand", "stand"), Op("stand/no-root", "stand", NO_ROOT)))
    ops = prepare(tiny, 3, tmp_path)
    runner = worker.Runner({"seed": 3, "ops": ops})
    runner.run_op("stand")
    plain = worker.run_plain(runner, 0.0)
    monkeypatch.setattr(worker, "MIN_TRACED_FRAMES", 1)
    traced = worker.run_traced(runner, tmp_path)

    assert [run.completed(r) for r in plain["records"] + traced["records"]] == [True] * 6
    assert not runner.check_failures
    declared = run.declared()
    e2e = run.end_to_end(plain, ops, [0.5])
    assert set(declared[0]) <= set(e2e)
    assert set(declared[1]) <= set(traced["layers"])
    assert all(e2e[name]["value"] > 0 for name in declared[0])
    layers = traced["layers"]
    assert layers["optimizer.qp_attempts_per_frame"]["value"] >= 1.0
    assert layers["humanoid.fk_calls_per_frame"]["value"] >= 3.0
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_check_counts_a_changed_output_as_failed(tmp_path):
    clip = Clip("stand", "flat", "stand", 0.0, duration=0.5)
    ops = prepare(Workload("smoke", (clip,), (Op("stand", "stand"),)), 0, tmp_path)
    runner = worker.Runner({"seed": 0, "ops": ops})
    assert runner.run_op("stand")["ok"]
    runner.digests[("stand", "forces")] = "0" * 64
    record = runner.run_op("stand")
    assert not record["ok"] and "forces differs" in record["reason"]


def test_program_errors_abort_the_op_and_must_repeat(tmp_path):
    clip = Clip("stand", "flat", "stand", 0.0, duration=0.5)
    ops = prepare(Workload("smoke", (clip,), (Op("stand", "stand"),)), 0, tmp_path)
    runner = worker.Runner({"seed": 0, "ops": ops})
    motion = Path(ops["stand"]["config"]["motion_path"])
    good = motion.read_text()
    motion.write_text("not json\n")
    record = runner.run_op("stand")
    assert record["ok"] and record["aborted"] and record["abort"].startswith("MotionFormatError")
    assert record["solved_frames"] == 0 and not runner.check_failures
    assert runner.run_op("stand")["ok"]
    motion.write_text(good)  # the same op now completes: its outcome did not repeat
    record = runner.run_op("stand")
    assert not record["ok"] and not record["aborted"] and "differs from an earlier repeat" in record["reason"]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "balance", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_an_abort_without_a_frame_number_is_placed_by_the_solutions_so_far():
    def refine():
        solutions = []
        for t in range(5):
            if t == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            solutions.append(t)

    with pytest.raises(np.linalg.LinAlgError) as info:
        refine()
    assert worker._frames_before(info.value, "Singular matrix") == 3
    assert worker._frames_before(info.value, "frame 149: KKT residual above tolerance") == 149
