"""Self-test of the benchmark.

Run from the root of a checkout, either way:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It smoke-runs every workload at its smallest size, traced and untraced,
and checks that each metric BENCHMARK.json names appears with its unit,
and that the readable report names every metric of its workload.  It
then shows that the output checks catch bad outputs: a corrupted
realization and a point outside the region each count as a failed
operation.  Finally it checks that the benchmark refuses to run, with a
non-zero exit and no result, where there is no source to build.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from karpelevic.boundary import Region  # noqa: E402
from karpelevic.farey import ArcType, arc_params  # noqa: E402
from karpelevic.realize import build_sparsest, enumerate_sparsest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[len("report "):]) for ln in lines if ln.startswith("report "))
    return json.loads(lines[-1]), report


def check_smoke(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, report = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, (workload, section, set(got) ^ set(expected))
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        names = ["setup_s", "failed_share", "peak_rss_mb"] + [
            name for name, *_ in run.REPORT_NAMES[workload]
        ]
        assert list(report["named"]) == names
        assert all(report["named"][n]["unit"] for n in names)


def test_smoke_trace():
    check_smoke("trace")


def test_smoke_membership():
    check_smoke("membership")


def test_smoke_catalogue():
    check_smoke("catalogue")


def corrupted(m):
    """Swap two unequal entries of one row: still stochastic, another spectrum."""
    rows = [list(r) for r in m.entries]
    for row in rows:
        nonzero = [j for j, e in enumerate(row) if e != 0]
        zero = [j for j, e in enumerate(row) if e == 0]
        if nonzero and zero:
            row[nonzero[0]], row[zero[0]] = row[zero[0]], row[nonzero[0]]
            return type(m)(rows)
    raise AssertionError("no row to corrupt")


def test_corrupted_realization_counts_as_failed():
    t = tracing.NullTracer()
    arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
    alpha = Fraction(1, 3)
    good = [build_sparsest(arc, alpha, c) for c in enumerate_sparsest(arc)]
    perm = list(reversed(range(arc.n)))
    assert workloads.check_catalogue(t, arc, alpha, good, perm) == []
    bad = [corrupted(good[0])] + good[1:]
    ops = [("corrupted", lambda: (workloads.check_catalogue(t, arc, alpha, bad, perm), None))]
    run_ = workloads.measure(ops, 0, t)
    assert (run_["attempted"], run_["failed"], run_["correct"]) == (1, 1, False)


def test_point_outside_counts_as_failed():
    t = tracing.NullTracer()
    region = Region(4, 64)
    ops = [
        ("inside", workloads.MembershipWorkload.query_op(region, 0.5j, 1e-9, True)),
        ("outside", workloads.MembershipWorkload.query_op(region, 1.5 + 0j, 1e-9, True)),
    ]
    run_ = workloads.measure(ops, 0, t)
    assert (run_["attempted"], run_["failed"], run_["correct"]) == (2, 1, False)
    assert run_["failures"][0].startswith("outside")


def test_refuses_without_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"PASS {name}")
    print(f"selftest: {len(tests)} passed")
