"""Run every workload untraced and traced, print the tables, record a baseline.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seed 1 [--out perfbench/baseline.json]

Prints, for each workload, the end-to-end metrics under the names the
workload reports them by (one row per name, "-" where a metric belongs
to another workload), the per-layer metrics of the traced run, the share
of timed wall time the layers' self time covers, and the tracing
overhead: how much longer an operation takes traced than untraced.
The numbers, the run metadata and the raw reports go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[len("report "):]) for ln in lines if ln.startswith("report "))
    return {"report": report, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    names = [w["name"] for w in SPEC["workloads"]]
    runs = {
        name: {
            "untraced": run_once(name, args.seed, args.seconds, 0),
            "traced": run_once(name, args.seed, args.seconds, 1),
        }
        for name in names
    }

    rows: dict[str, dict] = {}
    for name in names:
        for metric, m in runs[name]["untraced"]["report"]["named"].items():
            rows.setdefault(metric, {"unit": m["unit"]})[name] = m["value"]
    print(f"{'metric':<24} {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for metric, row in rows.items():
        cells = "".join(f"{row[n]:>16.6g}" if n in row else f"{'-':>16}" for n in names)
        print(f"{metric:<24} {row['unit']:<6}{cells}")

    summary = {}
    print()
    print(f"{'per-layer (traced run)':<44}" + "".join(f"{n:>16}" for n in names))
    for spec in SPEC["per_layer"]:
        vals = [runs[n]["traced"]["result"]["metrics"][spec["name"]]["value"] for n in names]
        print(f"{spec['name']:<38} {spec['unit']:<5}" + "".join(f"{v:>16.6g}" for v in vals))
    print()
    for name in names:
        untraced = runs[name]["untraced"]["result"]["metrics"]["ops_per_s"]["value"]
        traced = runs[name]["traced"]["result"]["metrics"]["bench.ops_per_s"]["value"]
        coverage = runs[name]["traced"]["result"]["metrics"]["bench.layer_coverage"]["value"]
        summary[name] = {
            "failed": runs[name]["untraced"]["result"]["failed"],
            "attempted": runs[name]["untraced"]["result"]["attempted"],
            "tracing_overhead": untraced / traced - 1,
            "layer_coverage": coverage,
        }
        print(f"{name}: {summary[name]['failed']}/{summary[name]['attempted']} failed, "
              f"layer self time covers {coverage:.1%} of timed wall time, "
              f"tracing overhead {summary[name]['tracing_overhead']:+.1%} per operation")

    meta = dict(runs[names[0]]["untraced"]["report"]["meta"])
    for key in ("workload", "trace", "smoke"):
        meta.pop(key, None)
    args.out.write_text(json.dumps({"meta": meta, "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
