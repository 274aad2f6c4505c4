"""One workload in a fresh interpreter; started by run.py, never by hand.

Protocol on stdout, one JSON object per line:
- ``{"ready": ..., "import_ms": ...}`` once imports and set-up are done
  (run.py times the interval from process start to this line);
- ``{"result": ...}`` after the timed loop and its checks, unless
  ``--setup-only`` was given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

T0 = time.perf_counter()
import karpelevic.cli  # noqa: E402,F401  -- the package's whole import graph

IMPORT_MS = (time.perf_counter() - T0) * 1e3

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workload = workloads.WORKLOADS[args.workload](tracer, args.seed, args.smoke)
    emit({"ready": True, "import_ms": IMPORT_MS})
    if args.setup_only:
        return 0

    run = workloads.measure(
        workload.ops, args.seconds, tracer, workload.op_budget_s, workload.op_span
    )
    p50, p90, p99 = np.percentile(np.frombuffer(run["latencies_ns"], dtype=np.int64), [50, 90, 99]) / 1e6
    wall_s = (run["timed_end_ns"] - run["timed_start_ns"]) / 1e9
    result = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "correct": run["correct"],
        "failures": run["failures"],
        "pass_ops": len(workload.ops),
        "wall_s": wall_s,
        "cpu_s": run["cpu_s"],
        "ops_per_s": (run["attempted"] - run["failed"]) / wall_s,
        "ms_p50": float(p50),
        "ms_p90": float(p90),
        "ms_p99": float(p99),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    if args.trace:
        result["layers"] = tracer.layer_totals(run["timed_start_ns"], run["timed_end_ns"])
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write(args.spans, json.dumps({"workload": args.workload, "seed": args.seed}))
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
