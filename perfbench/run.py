"""physmotion benchmark: seeded workloads through the real `run_pipeline`.

    python3 perfbench/run.py --workload gait --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --all                 # every workload, untraced and traced

Run it from a checkout of the repository; the program is imported from
`src/` of that checkout and nowhere else. For one workload it

1. generates the inputs from the seed (`physmotion.synth`, plus the seeded
   terrain of `terrain.py`) under `perfbench/out/`;
2. with `--trace 0`, times `setup_s` over fresh interpreters, then runs the
   workload untimed once and timed for `--seconds` in a fresh worker
   process, tracing off; with `--trace 1`, runs it in a worker that wraps
   every layer and reports the per-layer metrics;
3. checks every completed op's outputs and that every op's outcome repeats,
   prints the machine block, the metrics with units and sample counts and
   the reason of each abort and each failed check, writes
   everything to `perfbench/out/<run>/result.json`, and prints as its last
   line `{"correct", "attempted", "failed", "metrics"}` with the metrics
   BENCHMARK.json lists for that mode.

An op that the program aborts (it raises a PhysmotionError, or the
LinAlgError the QP lets escape) is measured, not failed: aborts count in
`op_fail_frac` and cost `frames_per_s` their time, and each reason is
printed. `failed` counts the ops that fail a check: wrong or non-finite
outputs, or an outcome that differs from an earlier repeat of the op.

BLAS thread variables are left as found and recorded, so a change that sets
the thread count inside the program shows its effect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import goodput, pass_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY = {  # end-to-end name -> MetricReport field, unit
    "w_mpjpe_mm": ("w_mpjpe", "mm"),
    "jitter_mm_s": ("jitter", "mm/s"),
    "foot_sliding_mm": ("foot_sliding", "mm"),
    "penetration_pct": ("penetration_pct", "%"),
}
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import physmotion\n"
    "physmotion.default_model()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import physmotion from this checkout's src/ and nowhere else."""
    if not (SRC / "physmotion" / "__init__.py").is_file():
        raise BenchError(f"no physmotion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import physmotion

    if Path(physmotion.__file__).resolve().parent != (SRC / "physmotion").resolve():
        raise BenchError(f"physmotion imported from {physmotion.__file__}, not {SRC}")
    return physmotion


def machine() -> dict:
    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_max_threads": int(threads.group(1)) if threads else None,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(repeats: int, warm: bool) -> list:
    """Seconds from starting a fresh interpreter until import and default_model() return.

    With `warm`, one untimed start first compiles the bytecode caches.
    """
    samples = []
    for k in range(repeats + warm):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        if k or not warm:
            samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_worker(spec: dict, work: Path) -> dict:
    spec_path, log_path = work / "spec.json", work / "worker.log"
    spec_path.write_text(json.dumps(spec, indent=1))
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s; see {log_path}") from None
    if proc.returncode != 0:
        tail = "".join(log_path.read_text().splitlines(keepends=True)[-30:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text())


def completed(record: dict) -> bool:
    """The op ran to the end and passed every check."""
    return record["ok"] and not record["aborted"]


def kinds_of(records: list, ops: dict) -> dict:
    """Group op records by op key, in workload order."""
    kinds = {}
    for key, op in ops.items():
        mine = [r for r in records if r["key"] == key]
        ok = [r for r in mine if completed(r)]
        kinds[key] = {
            "times": [r["seconds"] for r in mine],
            "frames": op["frames"],
            "ok_share": len(ok) / len(mine),
            "solved_frames": statistics.mean(r["solved_frames"] for r in mine),
            "degraded": ok[-1]["degraded"] if ok else 0,
            "report": ok[-1].get("report") if ok else None,
            "quality": op["quality"],
        }
    return kinds


def end_to_end(result: dict, ops: dict, setup: list) -> dict:
    """Every end-to-end metric: name -> {"value", "unit", "n"}."""
    records = result["records"]
    kinds = kinds_of(records, ops)
    n = len(records)
    completed_frames = sum(k["frames"] * k["ok_share"] for k in kinds.values())
    out = {
        "frames_per_s": {"value": goodput(kinds), "unit": "1/s", "n": n},
        "solved_frames_per_s": {"value": sum(k["solved_frames"] for k in kinds.values()) / pass_seconds(kinds),
                                "unit": "1/s", "n": n},
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB", "n": 1},
        # aborted by a program error, or failed a check
        "op_fail_frac": {"value": sum(not completed(r) for r in records) / n, "unit": "frac", "n": n},
        "degraded_frac": {"value": sum(k["degraded"] * k["ok_share"] for k in kinds.values()) / completed_frames
                          if completed_frames else 0.0, "unit": "frac", "n": n},
    }
    reports = [k["report"] for k in kinds.values() if k["quality"] and k["report"]]
    for name, (field, unit) in QUALITY.items():
        values = [r[field] for r in reports]
        out[name] = {"value": statistics.mean(values) if values else float("nan"), "unit": unit,
                     "n": len(values)}
    return out


def declared() -> dict:
    """BENCHMARK.json: the metrics each mode reports, and the default run length."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: [m["name"] for m in doc["end_to_end"]], 1: [m["name"] for m in doc["per_layer"]],
            "run_seconds": doc["run_seconds"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS, prepare

    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = prepare(WORKLOADS[name], seed, work)
    spec = {"src": str(SRC), "seed": seed, "seconds": seconds, "ops": ops,
            "mode": "traced" if trace else "plain", "out_dir": str(work), "result": str(work / "worker.json")}
    # half the set-up probes before the workload and half after, so that
    # their median spans the run's changes in machine speed
    setup = [] if trace else measure_setup(SETUP_REPEATS // 2, warm=True)
    result = run_worker(spec, work)
    if not trace:
        setup += measure_setup(SETUP_REPEATS - len(setup), warm=False)
    metrics = result["layers"] if trace else end_to_end(result, ops, setup)
    records = result["records"]
    everything = records + [result["warmup"]]
    aborts = sorted({(r["key"], r["abort"]) for r in everything if r["aborted"]})
    failures = sorted({(r["key"], r["reason"]) for r in everything if not r["ok"]})
    # a terrain mismatch is one of the check failures
    correct = not result["check_failures"]
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine(),
        "correct": correct, "attempted": len(records), "failed": sum(not r["ok"] for r in records),
        "aborted": sum(r["aborted"] for r in records),
        "aborts": [{"op": k, "reason": r} for k, r in aborts],
        "failures": [{"op": k, "reason": r} for k, r in failures], "metrics": metrics,
        "terrain_ratio": result["terrain_ratio"], "records": records, "warmup": result["warmup"],
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def print_summary(s: dict, gated: list) -> None:
    m = s["machine"]
    print(f"== {s['workload']}  seed {s['seed']}  trace {s['trace']}  ({s['attempted']} ops timed, "
          f"{s['aborted']} aborted, {s['failed']} failed, correct={s['correct']})")
    print(f"   machine: nproc {m['nproc']} (affinity {m['affinity_cpus']}), python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']} MAX_THREADS={m['blas_max_threads']}, "
          + ", ".join(f"{k}={v}" for k, v in m["env"].items()))
    if s["terrain_ratio"] is not None:
        print(f"   terrain check: worst height-map error {s['terrain_ratio']:.3f} of tolerance")
    for a in s["aborts"]:
        print(f"   aborted op {a['op']}: {a['reason']}")
    for f in s["failures"]:
        print(f"   failed op {f['op']}: {f['reason']}")
    for name, v in s["metrics"].items():
        tag = "*" if name in gated else " "
        extra = f"  at p{100 * v['level']:.1f}" if v.get("level") else ""
        print(f"  {tag} {name:<38} {v['value']:>14.6g} {v['unit']:<14} n={v['n']}{extra}")
    print("   (* gated in BENCHMARK.json)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        bench = declared()
        seconds = args.seconds or bench["run_seconds"]
        from workloads import WORKLOADS

        if args.all:
            for name in WORKLOADS:
                for trace in (0, 1):
                    print_summary(run_workload(name, args.seed, seconds, trace), bench[trace])
            return 0
        if args.workload not in WORKLOADS:
            raise BenchError(f"--workload must be one of {sorted(WORKLOADS)}")
        s = run_workload(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_summary(s, bench[args.trace])
    metrics = {name: {"value": s["metrics"][name]["value"], "unit": s["metrics"][name]["unit"]}
               for name in bench[args.trace]}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
