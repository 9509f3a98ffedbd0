"""Benchmark entry point: repeated passes of one workload, one JSON result line.

    python3 bench/run.py --workload euler_sum_law --seed 1 --seconds 30 --trace 0

Each pass runs in its own fresh interpreter (``bench/worker.py``) with BLAS
and OpenMP pinned to one thread; passes run one at a time until the next one
would overrun ``--seconds``.  Pass ``i`` draws its inputs from
``(seed, i)``, so a seed fixes every input of the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes on the same inputs and reports the
per-layer metrics, including the tracing overhead; its spans are written to
``.bench_out/`` once the run ends.  The last stdout line is the result
object; the line before it is a report with provenance, every pass and
every oracle check's statistic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class PassFailed(RuntimeError):
    pass


def run_pass(args, pass_index: int, traced: bool, budget: float) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{pass_index}-{int(traced)}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index),
           "--size", args.size, "--trace", str(int(traced)), "--workdir", str(workdir)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_THREADS},
                              stdout=subprocess.PIPE, text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} exceeded {budget:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def run_passes(args) -> list[dict]:
    """Alternate untraced/traced passes (trace runs) until --seconds is spent."""
    needed = 2 if args.trace else 1
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_index = len(passes) // 2 if args.trace else len(passes)
        budget = RUN_LIMIT_S - (time.monotonic() - start)
        passes.append(run_pass(args, pass_index, traced, budget))
        elapsed = time.monotonic() - start
        longest = max(p["elapsed_s"] for p in passes)
        if elapsed + longest > RUN_LIMIT_S:
            if len(passes) < needed:
                raise PassFailed("no time left for a traced pass")
            return passes
        if len(passes) >= needed and elapsed + longest > args.seconds:
            return passes


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    """Medians over passes; rates are mean work per pass over the median wall time."""
    wall = statistics.median(p["wall_s"] for p in untraced)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "wall_s": wall,
        "path_steps_per_s": statistics.fmean(p["path_steps"] for p in untraced) / wall,
        "mh_ess_per_s": statistics.fmean(p["ess"] for p in untraced) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(passes: list[dict], names) -> dict[str, float]:
    """Per-pass means of the traced passes' counters, and the tracing overhead."""
    import tracing

    traced = [p for p in passes if p["traced"]]
    summed: dict[str, float] = {}
    for p in traced:
        for key, value in p["layers"].items():
            summed[key] = summed.get(key, 0.0) + value / len(traced)
    values = tracing.per_layer(summed, [n for n in names if n != "trace.overhead_frac"])
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def provenance(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": PINNED_THREADS, **versions}


def write_trace(args, passes: list[dict]) -> Path:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    runs = [{"run_id": p["run_id"], "fields": ["span_id", "parent_id", "name", "start", "end"],
             "spans": p["spans"]} for p in passes if p["traced"]]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "runs": runs}))
    return path


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("bench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "cir_particles" / "__init__.py").is_file():
        print(f"bench: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        passes = run_passes(args)
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(passes, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(passes)
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c["passed"] for c in checks)
    paths = sum(p["paths"] for p in passes)
    failed_paths = sum(p["failed_paths"] for p in passes)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "provenance": provenance(passes[0]["versions"]),
        "check_fail_frac": failed / len(checks),
        "path_fail_frac": failed_paths / paths if paths else 0.0,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "versions")}
                   for p in passes],
    }
    if args.trace:
        report["trace_file"] = str(write_trace(args, passes).relative_to(ROOT))
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
