"""Benchmark of the karpelevic package: three workloads, checked outputs.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload trace --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and perfbench/README.md for why each exists):
``trace`` (the float tracer, writing), ``membership`` (the float tracer,
read through Region.contains) and ``catalogue`` (the exact layers).

Each run starts SETUP_REPEATS fresh interpreters that import the package
and set the workload up; ``setup_s`` is the median time from process
start to the first timed operation.  The last of them goes on to run the
timed loop: whole passes over the workload's operations, one after
another, until ``--seconds`` have elapsed (at least one pass).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics from spans the benchmark keeps around every call
into karpelevic, written to perfbench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Lines
before it are a readable report under the metric names of the issue
that defined the benchmark, and one ``report {...}`` JSON line with the
same numbers and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0

# Bounded end-to-end metrics.  Latency percentiles are reported under the
# workloads' own names and as per-layer numbers, but not bounded: on a box
# whose speed drifts by 20-40% over tens of seconds they spread across
# seeds by up to 0.25 of their median, where throughput spreads by 0.08-0.14.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The workload-specific names each run also reports: (name, unit, worker
# field, scale).  failed_share, setup_s and peak_rss_mb are common.
REPORT_NAMES = {
    "trace": [
        ("trace_arcs_per_s", "1/s", "ops_per_s", 1),
        ("trace_ms_p50", "ms", "ms_p50", 1),
        ("trace_ms_p90", "ms", "ms_p90", 1),
    ],
    "membership": [
        ("contains_per_s", "1/s", "ops_per_s", 1),
        ("contains_us_p50", "us", "ms_p50", 1000),
        ("contains_us_p99", "us", "ms_p99", 1000),
    ],
    "catalogue": [
        ("catalogue_arcs_per_s", "1/s", "ops_per_s", 1),
        ("catalogue_ms_p50", "ms", "ms_p50", 1),
        ("catalogue_ms_p90", "ms", "ms_p90", 1),
    ],
}

TIMED_LAYERS = [
    "boundary.trace_arc",
    "boundary.point_at",
    "boundary.Region",
    "boundary.Region.contains",
    "realize.enumerate_sparsest",
    "realize.build_sparsest",
    "algebra.charpoly_exact",
    "algebra.StochMatrix.permuted",
    "itopoly.reduced_ito",
    "digraph.from_matrix",
    "digraph.cycle_structure_check",
    "digraph.find_similarity_permutation",
    "digraph.charpoly_coates",
    "farey.arcs_of_order",
    "farey.arc_params",
]
CALLED_LAYERS = [
    "boundary.trace_arc",
    "boundary.point_at",
    "boundary.Region.contains",
    "realize.enumerate_sparsest",
    "realize.build_sparsest",
    "algebra.charpoly_exact",
    "itopoly.reduced_ito",
    "digraph.cycle_structure_check",
    "digraph.find_similarity_permutation",
    "digraph.charpoly_coates",
]
COUNTERS = [
    "boundary.trace_arc.failed",
    "boundary.trace_arc.samples",
    "realize.enumerate_sparsest.classes",
]
ARC_TYPES = ["0", "I", "II", "III"]


def per_layer_units() -> dict:
    units = {f"{name}.ms": "ms" for name in TIMED_LAYERS}
    units.update({f"boundary.trace_arc.type-{t}.ms": "ms" for t in ARC_TYPES})
    units.update({f"{name}.calls": "count" for name in CALLED_LAYERS})
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "cli.import_ms": "ms",
        "bench.timed_s": "s",
        "bench.ops_per_s": "1/s",
        "bench.op_ms_p50": "ms",
        "bench.op_ms_p90": "ms",
        "bench.layer_coverage": "ratio",
        "bench.glue_ms": "ms",
        "bench.spans": "count",
    })
    return units


def run_meta(root: Path, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for dist in ("numpy", "networkx", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
    }


class WorkerError(RuntimeError):
    pass


def start_worker(cmd, env, root, deadline):
    """Start one worker and wait for its ready line.

    Returns (process, seconds from start to the ready line, ready message,
    the timer that kills the process at ``deadline``).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line:
            raise WorkerError(f"worker exited during set-up (code {proc.wait()})")
        return proc, setup_s, json.loads(line), killer
    except BaseException:
        killer.cancel()
        proc.kill()
        proc.wait()
        raise


def finish_worker(proc, killer) -> list[str]:
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerError(f"worker exited with code {code}")
    return lines


def run_workload(root: Path, args) -> tuple[list[float], list[float], dict]:
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    base = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    deadline = time.monotonic() + DEADLINE_S
    setups, imports = [], []
    result = None
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        extra = ["--setup-only"] if not last else []
        if last and args.trace:
            extra = ["--spans", str(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv")]
        proc, setup_s, ready, killer = start_worker(base + extra, env, root, deadline)
        setups.append(setup_s)
        imports.append(ready["import_ms"])
        lines = finish_worker(proc, killer)
        if last:
            if not lines:
                raise WorkerError("worker printed no result")
            result = json.loads(lines[-1])["result"]
    return setups, imports, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPORT_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "karpelevic" / "__init__.py").is_file():
        print("perfbench: run from the root of a karpelevic checkout (no src/karpelevic here)",
              file=sys.stderr)
        return 2
    meta = run_meta(root, args)
    try:
        setups, imports, res = run_workload(root, args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median(setups)
    named = {
        "setup_s": (setup_s, "s"),
        "failed_share": (res["failed"] / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    for name, unit, field, scale in REPORT_NAMES[args.workload]:
        named[name] = (res[field] * scale, unit)

    if args.trace:
        layers, counts = res["layers"], res["counts"]
        values = {}
        for name, unit in per_layer_units().items():
            if name.endswith(".ms") and not name.startswith("cli."):
                values[name] = layers["ms"].get(name[:-3], 0.0)
            elif name.endswith(".calls"):
                values[name] = layers["calls"].get(name[:-6], 0)
            else:
                values[name] = counts.get(name, 0)
        values.update({
            "cli.import_ms": statistics.median(imports),
            "bench.timed_s": res["wall_s"],
            "bench.ops_per_s": res["ops_per_s"],
            "bench.op_ms_p50": res["ms_p50"],
            "bench.op_ms_p90": res["ms_p90"],
            "bench.layer_coverage": layers["coverage"],
            "bench.glue_ms": layers["glue_ms"],
            "bench.spans": res["spans"],
        })
        metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        contract = {
            "setup_s": setup_s,
            "ops_per_s": res["ops_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": contract[k], "unit": u} for k, u in END_TO_END.items()}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  {res['attempted']} operations in {res['wall_s']:.3f} s timed "
          f"({res['pass_ops']} per pass), {res['failed']} failed, outputs "
          + ("correct" if res["correct"] else "WRONG"))
    for failure in res["failures"]:
        print(f"  failed: {failure}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    report = {
        "meta": meta,
        "setup_samples_s": setups,
        "import_samples_ms": imports,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": res["failures"],
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
