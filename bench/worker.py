"""One benchmark pass in a fresh interpreter; prints one JSON line.

Set-up time runs from this script's first statement through ``import
cir_particles`` (which loads numpy and scipy) and input generation.  Wall
time runs from the first call into the package to the last oracle check.
With ``--trace 1`` the package's layer boundaries carry spans, installed
after set-up is timed.

    python3 bench/worker.py --workload NAME --seed N --pass-index I \
        --size full|tiny --trace 0|1 --workdir DIR
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cir_particles  # noqa: F401

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.pass_index,
                            workload.sizes[args.size], args.workdir)
    setup_s = time.perf_counter() - _T0

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(f"{args.workload}/{args.seed}/{args.pass_index}")
        tracing.instrument(recorder)
        span_id, parent = recorder.open(tracing.ROOT_SPAN)
    start = time.perf_counter()
    outcome = workload.run(inputs)
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.close(span_id, parent, tracing.ROOT_SPAN, start)

    import numpy
    import scipy

    result = {
        "pass_index": args.pass_index,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paths": outcome.paths,
        "failed_paths": outcome.failed_paths,
        "path_steps": outcome.path_steps,
        "ess": outcome.ess,
        "checks": outcome.checks,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "cir_particles": cir_particles.__version__},
    }
    if recorder is not None:
        result["layers"] = tracing.layer_metrics(recorder)
        result["run_id"] = recorder.run_id
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
