"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload is built from (tracer, seed, smoke) and holds ``ops``, one
pass of (label, op) pairs run in order by :func:`measure`.  An op returns
``(problems, later)``: the output problems it found while timed, and
either None or a callable returning the problems of checks that must run
outside the timed region.  Every call into karpelevic goes through
``tracer.call`` under the name ``module.function``, so a traced run can
attribute self time to each layer.

- ``trace``: the float tracer, written.  Every arc that region_boundary
  traces for orders 2..12 (the closed upper half plane, 111 arcs), each
  traced with 128 steps and then queried at three seeded parameters, one
  in each of [0.001, 0.01), [0.01, 0.1) and [0.1, 1), so that every seed
  puts the same number of queries in the tracer's costly near-zero tail.
- ``membership``: the float tracer, read.  Regions of orders 4 and 7 are
  traced in set-up; each operation is one ``Region.contains`` query on a
  generated point whose answer is known.
- ``catalogue``: the exact layers.  Every Type II/III arc with q <= 9,
  d <= 7 and q^d <= 5e6 (324 arcs); each operation enumerates the arc's
  sparsest classes, builds up to four seeded classes and verifies them
  two ways, then checks dissimilarity and one seeded relabelling.
"""

from __future__ import annotations

import cmath
import math
import random
import resource
import signal
from array import array
from fractions import Fraction
from functools import partial
from math import gcd
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

from karpelevic.algebra import charpoly_exact
from karpelevic.boundary import Region, point_at, trace_arc
from karpelevic.digraph import (
    WeightedDigraph,
    charpoly_coates,
    cycle_structure_check,
    find_similarity_permutation,
)
from karpelevic.farey import ArcType, arc_params, arcs_of_order
from karpelevic.itopoly import reduced_ito
from karpelevic.realize import build_sparsest, enumerate_sparsest
from tracing import OP

# The tracer's own acceptance tolerances (boundary.ENDPOINT_TOL and the
# residual target DEFAULT_RESIDUAL_SCALE * degree * max|coeff|), restated
# so that the checks do not move when the program's internals do.
ENDPOINT_TOL = 1e-9
RESIDUAL_SCALE = 1e-10
MAX_REPORTED_FAILURES = 20
NO_PROBLEMS = ((), None)


def arc_label(arc) -> str:
    return f"n={arc.n} {arc.p}/{arc.q}-{arc.r}/{arc.s} type {arc.type_tag.value}"


class OpTimeout(Exception):
    """An operation ran past its workload's time budget."""


def _raise_timeout(signum, frame):
    raise OpTimeout("operation exceeded its time budget")


def _within(budget_s: float, op):
    """Call op() under an alarm that interrupts it after ``budget_s`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        return op()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(ops, seconds: float, tracer, budget_s: float | None = None, op_span: str = OP) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    Each op is one closed-loop operation: the next starts when the last
    ends.  An op fails when it raises or reports a problem, in the timed
    region or in its deferred checks.  ``correct`` is false when any
    output was wrong; an operation that raised produced no output.  With
    ``budget_s``, an op still running after that many seconds is
    interrupted and fails.  Each op runs in a span named ``op_span``.
    """
    if budget_s:
        ops = [(label, partial(_within, budget_s, op)) for label, op in ops]
    latencies = array("q")
    record, run = latencies.append, tracer.op
    outcomes: list = []  # (label, problems, later, error)
    previous = signal.signal(signal.SIGALRM, _raise_timeout) if budget_s else None
    cpu0 = process_time()
    start = perf_counter_ns()
    deadline = perf_counter() + seconds
    try:
        while True:
            for label, op in ops:
                result, error, elapsed_ns = run(op_span, op)
                record(elapsed_ns)
                if error is not None:
                    outcomes.append((label, (), None, f"{type(error).__name__}: {error}"))
                elif result[0] or result[1] is not None:
                    outcomes.append((label, result[0], result[1], None))
            if perf_counter() >= deadline:
                break
    finally:
        if budget_s:
            signal.signal(signal.SIGALRM, previous)
    end = perf_counter_ns()
    cpu_s = process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    wrong = 0
    for label, problems, later, error in outcomes:
        if later is not None:
            problems = list(problems) + later()
        if problems:
            wrong += 1
            failures.append(f"{label}: {'; '.join(problems)}")
        elif error is not None:
            failures.append(f"{label}: {error}")
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "correct": wrong == 0,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "latencies_ns": latencies,
        "timed_start_ns": start,
        "timed_end_ns": end,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
    }


# -- trace ---------------------------------------------------------------


TRACE_ORDERS = range(2, 13)
TRACE_STEPS = 128


def upper_half_arcs(t, orders) -> list:
    """The arcs region_boundary traces: those with both ends in [0, 1/2]."""
    half = Fraction(1, 2)
    return [
        arc
        for n in orders
        for arc in t.call("farey.arcs_of_order", arcs_of_order, n)
        if max(Fraction(arc.p, arc.q), Fraction(arc.r, arc.s)) <= half
    ]


def residual_problems(arc, points) -> list[str]:
    """Each (alpha, z) must meet the residual target in the exact reduced polynomial."""
    problems = []
    for alpha, z in points:
        coeffs = [float(c) for c in reduced_ito(arc, alpha).poly.coeffs]
        value = 0j
        for c in reversed(coeffs):
            value = value * z + c
        target = RESIDUAL_SCALE * (len(coeffs) - 1) * max(abs(c) for c in coeffs)
        if not abs(value) <= target:
            problems.append(f"point_at({alpha}) residual {abs(value):.2e} > {target:.2e}")
    return problems


class TraceWorkload:
    op_budget_s = None
    op_span = OP

    def __init__(self, t, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        orders = range(2, 5) if smoke else TRACE_ORDERS
        self.ops = []
        for arc in upper_half_arcs(t, orders):
            alphas = [Fraction(rng.randint(10, 99), 10 ** e) for e in (4, 3)]
            alphas.append(Fraction(rng.randint(100, 999), 1000))
            self.ops.append((arc_label(arc), self._op(t, arc, alphas)))
        # Arcs grow costlier with the order; a shuffled pass spreads every
        # latency percentile over the whole run instead of one stretch of it.
        rng.shuffle(self.ops)

    @staticmethod
    def _op(t, arc, alphas):
        start = cmath.exp(2j * math.pi * arc.p / arc.q)
        goal = cmath.exp(2j * math.pi * arc.r / arc.s)

        def op():
            try:
                trace = t.call(
                    "boundary.trace_arc", trace_arc, arc, TRACE_STEPS, tag=arc.type_tag.value
                )
            except Exception:
                t.count("boundary.trace_arc.failed")
                raise
            t.count("boundary.trace_arc.samples", len(trace.samples))
            problems = []
            if not abs(trace.start_point - start) <= ENDPOINT_TOL:
                problems.append(f"start point {trace.start_point} is off e^(2 pi i p/q)")
            if not abs(trace.end_point - goal) <= ENDPOINT_TOL:
                problems.append(f"end point {trace.end_point} is off e^(2 pi i r/s)")
            points = [(a, t.call("boundary.point_at", point_at, trace, a)) for a in alphas]
            return problems, lambda: residual_problems(arc, points)

        return op


# -- membership ----------------------------------------------------------


MEMBERSHIP_ORDERS = (4, 7)
REGION_SAMPLES = 512
MATRICES_PER_ORDER = 150
VERTICES_PER_ORDER = 1000
EIGEN_TOL = 1e-7
VERTEX_TOL = 1e-9
VERTEX_SCALE = 1e-3


def random_stochastic_eigenvalues(gen: np.random.Generator, n: int, count: int) -> list[complex]:
    """Eigenvalues of ``count`` random order-n stochastic matrices (numpy)."""
    out = []
    for _ in range(count):
        a = gen.random((n, n)) ** 2
        a /= a.sum(axis=1, keepdims=True)
        out.extend(complex(z) for z in np.linalg.eigvals(a))
    return out


class MembershipWorkload:
    op_budget_s = None
    # An operation is one Region.contains call, so its span is that layer's.
    op_span = "boundary.Region.contains"

    def __init__(self, t, seed: int, smoke: bool = False):
        gen = np.random.default_rng(seed)
        orders = (4,) if smoke else MEMBERSHIP_ORDERS
        samples = 64 if smoke else REGION_SAMPLES
        queries = []  # (label, region, z, tol, expected)
        for n in orders:
            region = t.call("boundary.Region", Region, n, samples)
            for z in random_stochastic_eigenvalues(gen, n, MATRICES_PER_ORDER):
                queries.append((f"order {n} eigenvalue {z:.6g}", region, z, EIGEN_TOL, True))
            vertices = [z for trace in region.traces for _, z in trace.samples]
            size = min(VERTICES_PER_ORDER, len(vertices))
            for i in gen.choice(len(vertices), size=size, replace=False):
                v = vertices[int(i)]
                label = f"order {n} vertex {v:.6g}"
                queries.append((f"{label} x(1-1e-3)", region, v * (1 - VERTEX_SCALE), VERTEX_TOL, True))
                queries.append((f"{label} x(1+1e-3)", region, v * (1 + VERTEX_SCALE), VERTEX_TOL, False))
        order = gen.permutation(len(queries))
        self.ops = [(queries[i][0], self.query_op(*queries[i][1:])) for i in order]

    @staticmethod
    def query_op(region, z, tol, expected):
        """One membership query whose right answer is ``expected``."""

        def op():
            inside = region.contains(z, tol)
            if inside != expected:
                return ["reported " + ("inside" if inside else "outside")], None
            return NO_PROBLEMS

        return op


# -- catalogue -----------------------------------------------------------


CATALOGUE_MAX_Q = 9
CATALOGUE_MAX_D = 7
CATALOGUE_MAX_PRODUCT = 5_000_000
CLASSES_PER_ARC = 4
COATES_MAX_ORDER = 16
# find_similarity_permutation can backtrack for seconds to minutes, by
# the relabelling drawn, on the realization of a constant composition at
# n >= 45 (e.g. Type III q=8, d=7, y=7, class (1,...,1): over 140 s once);
# every other operation ends within about 1.5 s.  About one seed in seven
# draws such a class as the one to relabel; its operation is cut at this
# budget and counted as failed rather than stalling the run.
CATALOGUE_OP_BUDGET_S = 4.0


def catalogue_pool(t, max_q: int, max_d: int, max_product: int) -> list:
    """Every Type II/III arc from arc_params with q <= max_q, d <= max_d, q^d <= max_product."""
    pool = []
    for q in range(2, max_q + 1):
        for d in range(2, max_d + 1):
            if q ** d > max_product:
                continue
            for x in range(1, q):
                if gcd(q, x) != 1:
                    continue
                for kind, key in ((ArcType.TYPE_II, "z"), (ArcType.TYPE_III, "y")):
                    params = {"q": q, "d": d, key: x}
                    pool.append(t.call("farey.arc_params", lambda: arc_params(kind, **params)))
    return pool


def check_catalogue(t, arc, alpha, matrices, perm) -> list[str]:
    """Verify each realization from its parts, then their dissimilarity and one relabelling."""
    problems = []
    n = arc.n

    def similarity(a, b):
        return t.call(
            "digraph.find_similarity_permutation", find_similarity_permutation, a, b, n
        )

    def relabel(m, order):
        return t.call("algebra.StochMatrix.permuted", m.permuted, order)

    expected = t.call("itopoly.reduced_ito", reduced_ito, arc, alpha).poly
    for k, m in enumerate(matrices):
        exact = t.call("algebra.charpoly_exact", charpoly_exact, m)
        if exact != expected:
            problems.append(f"class {k}: charpoly_exact differs from reduced_ito")
        g = t.call("digraph.from_matrix", WeightedDigraph.from_matrix, m)
        if not t.call("digraph.cycle_structure_check", cycle_structure_check, g, arc).ok:
            problems.append(f"class {k}: cycle structure check failed")
        if n <= COATES_MAX_ORDER and t.call(
            "digraph.charpoly_coates", charpoly_coates, g
        ) != exact:
            problems.append(f"class {k}: charpoly_coates differs from charpoly_exact")
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if similarity(matrices[i], matrices[j]) is not None:
                problems.append(f"classes {i} and {j} are similar")
    if matrices:
        relabelled = relabel(matrices[0], perm)
        sigma = similarity(matrices[0], relabelled)
        if sigma is None:
            problems.append("seeded relabelling not found")
        elif relabel(matrices[0], sigma).entries != relabelled.entries:
            problems.append("found relabelling does not map class 0 onto its relabelled copy")
    return problems


class CatalogueWorkload:
    op_budget_s = CATALOGUE_OP_BUDGET_S
    op_span = OP

    def __init__(self, t, seed: int, smoke: bool = False):
        if smoke:
            limits = (3, 3, 100)
        else:
            limits = (CATALOGUE_MAX_Q, CATALOGUE_MAX_D, CATALOGUE_MAX_PRODUCT)
        self.ops = [
            (arc_label(arc), self._op(t, arc, (seed, idx)))
            for idx, arc in enumerate(catalogue_pool(t, *limits))
        ]
        random.Random(seed).shuffle(self.ops)  # as in TraceWorkload

    @staticmethod
    def _op(t, arc, arc_seed):
        def op():
            rng = random.Random(f"{arc_seed[0]}:{arc_seed[1]}")
            classes = t.call("realize.enumerate_sparsest", enumerate_sparsest, arc)
            t.count("realize.enumerate_sparsest.classes", len(classes))
            picked = rng.sample(classes, min(CLASSES_PER_ARC, len(classes)))
            # A prime denominator gives every seed rationals of one size.
            alpha = Fraction(rng.randint(1, 100), 101)
            matrices = [
                t.call("realize.build_sparsest", build_sparsest, arc, alpha, c) for c in picked
            ]
            perm = list(range(arc.n))
            rng.shuffle(perm)
            return check_catalogue(t, arc, alpha, matrices, perm), None

        return op


WORKLOADS = {
    "trace": TraceWorkload,
    "membership": MembershipWorkload,
    "catalogue": CatalogueWorkload,
}
