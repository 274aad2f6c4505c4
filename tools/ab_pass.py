"""Alternating A/B timer of single catalogue passes in two source trees.

One interpreter is started per tree, with that tree's ``src`` and
``perfbench`` first on its path; each sets up one ``CatalogueWorkload``
and then runs one whole pass of it each time it is asked, the way
``perfbench/run.py`` times its loop (``workloads.measure`` with the
operation budget), reporting the pass's process time and failures.  The
two interpreters take turns, the first of each pair alternating between
them, so a drift in the machine's speed falls on both sides alike.
Standard library only; the workload itself needs what ``perfbench``
needs.  From the repository root:

    python tools/ab_pass.py --base ../parent --change . --seed 41 --passes 10

prints one line per pair and then one JSON object: each side's median
and quartiles of process time per pass, the pairs the change won (took
less process time), and the median ratio base/change.  It exits 1 when
an operation failed on either side.  ``--base . --change .`` is an A/A
run, which shows the noise of the box.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def serve(tree: str, seed: int, smoke: bool) -> None:
    """The per-tree interpreter: set up, say ready, then one pass per input line."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import karpelevic
    import tracing
    import workloads

    tracer = tracing.NullTracer()
    workload = workloads.CatalogueWorkload(tracer, seed, smoke)
    print(json.dumps({"ready": karpelevic.__file__, "ops": len(workload.ops)}), flush=True)
    for _ in sys.stdin:
        run = workloads.measure(workload.ops, 0, tracer, workload.op_budget_s, workload.op_span)
        wall_s = (run["timed_end_ns"] - run["timed_start_ns"]) / 1e9
        print(json.dumps({"cpu_s": run["cpu_s"], "wall_s": wall_s, "attempted": run["attempted"],
                          "failed": run["failed"], "failures": run["failures"]}), flush=True)


class Side:
    """One tree's interpreter and the passes it has run."""

    def __init__(self, name: str, tree: str, seed: int, smoke: bool):
        self.name, self.tree = name, os.path.realpath(tree)
        argv = [sys.executable, os.path.abspath(__file__), "--serve", self.tree, "--seed", str(seed)]
        self.proc = subprocess.Popen(argv + (["--smoke"] if smoke else []), cwd=self.tree, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = json.loads(self.proc.stdout.readline())
        if not os.path.realpath(ready["ready"]).startswith(os.path.join(self.tree, "src")):
            raise SystemExit(f"{name}: imported karpelevic from {ready['ready']}, not from {self.tree}")
        self.passes: list[dict] = []

    def one_pass(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.name}: the interpreter exited")
        self.passes.append(json.loads(line))
        return self.passes[-1]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def summary(self) -> dict:
        cpu = [p["cpu_s"] for p in self.passes]
        q1, median, q3 = statistics.quantiles(cpu, n=4) if len(cpu) > 1 else cpu * 3
        return {"tree": self.tree, "cpu_s_median": median, "cpu_s_q1": q1, "cpu_s_q3": q3,
                "wall_s_median": statistics.median(p["wall_s"] for p in self.passes),
                "attempted": sum(p["attempted"] for p in self.passes),
                "failed": sum(p["failed"] for p in self.passes),
                "failures": [f for p in self.passes for f in p["failures"]][:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the tree to compare against")
    parser.add_argument("--change", help="the tree with the change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=10, help="pairs of passes to run")
    parser.add_argument("--smoke", action="store_true", help="the workload's smallest pool")
    parser.add_argument("--serve", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve, args.seed, args.smoke)
        return 0
    if not (args.base and args.change) or args.passes < 1:
        parser.error("need --base, --change and at least one pass")

    base = Side("base", args.base, args.seed, args.smoke)
    change = Side("change", args.change, args.seed, args.smoke)
    won = 0
    try:
        for k in range(args.passes):
            first, second = (base, change) if k % 2 == 0 else (change, base)
            first.one_pass()
            second.one_pass()
            b, c = base.passes[-1]["cpu_s"], change.passes[-1]["cpu_s"]
            won += c < b
            print(f"pair {k + 1}: base {b:.4f} s, change {c:.4f} s, ratio {b / c:.3f}", flush=True)
    finally:
        base.close()
        change.close()
    ratios = [b["cpu_s"] / c["cpu_s"] for b, c in zip(base.passes, change.passes)]
    report = {"seed": args.seed, "smoke": args.smoke, "pairs": args.passes, "change_won": won,
              "ratio_median": statistics.median(ratios), "ratio_min": min(ratios),
              "ratio_max": max(ratios), "base": base.summary(), "change": change.summary()}
    print(json.dumps(report, indent=1))
    return 1 if report["base"]["failed"] or report["change"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
