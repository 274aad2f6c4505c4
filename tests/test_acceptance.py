"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import cmath
import math
import inspect
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    alarm,
    back_edge_subset_valid,
    fits_anchored_window,
    order12_augmented,
    order12_sparsest,
    poly_roots,
    random_sparsest_parts,
    random_stochastic,
    single_edge_cycle_lengths,
)
from karpelevic.algebra import charpoly_exact
from karpelevic.boundary import Region, point_at, trace_arc
from karpelevic.digraph import (
    WeightedDigraph,
    charpoly_coates,
    cycle_structure_check,
    find_similarity_permutation,
)
from karpelevic.farey import ArcType, arc_params, arcs_of_order
from karpelevic.itopoly import coefficient_identity_check, reduced_ito
from karpelevic.realize import (
    TypeIIRealization,
    build_sparsest,
    enumerate_sparsest,
    verify_realization,
)

F = Fraction

ALPHAS = [F(1, 7), F(1, 3), F(1, 2), F(9, 10)]


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number}: FAIL - {title} ({elapsed:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    note = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s budget]" if budget else "]")
    print(f"\nACCEPTANCE {number}: PASS - {title}{note}", flush=True)
    if budget is not None:
        assert elapsed < budget


def _grid_arcs():
    """The criterion-3 parameter grid: every type, q <= 5, d <= 4, valid z/y.

    Type 0 instances range over n = d in {3, 4}: the type taxonomy (and
    its coefficient identities) is framed for orders where 0 lies off the
    boundary, which needs n >= 3.
    """
    arcs = []
    for n in (3, 4):
        arcs.append(arc_params(ArcType.TYPE_0, n=n))
    for q, n in [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (5, 9)]:
        arcs.append(arc_params(ArcType.TYPE_I, n=n, q=q))
    for q in range(2, 6):
        for d in range(2, 5):
            for z in range(1, q):
                if gcd(q, z) == 1:
                    arcs.append(arc_params(ArcType.TYPE_II, q=q, d=d, z=z))
            for y in range(1, q):
                if gcd(q, y) == 1:
                    arcs.append(arc_params(ArcType.TYPE_III, q=q, d=d, y=y))
    return arcs


def test_criterion_1_type2_enumeration():
    with criterion(1, "Type II enumeration (n=12): 4 classes matching the worked examples", 5.0):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        comps = enumerate_sparsest(arc)
        assert comps == [(0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 2, 2)]
        alpha = F(1, 3)
        built = [build_sparsest(arc, alpha, c) for c in comps]
        for i in range(4):
            assert bool(verify_realization(built[i], arc, alpha))
            for j in range(i + 1, 4):
                assert find_similarity_permutation(built[i], built[j]) is None
        fixtures = order12_sparsest(alpha)
        for m in built:
            matches = [name for name, fx in fixtures.items() if find_similarity_permutation(m, fx) is not None]
            assert len(matches) == 1


def test_criterion_2_type3_enumeration():
    with criterion(2, "Type III enumeration (n=15): 4 classes, split rows per the position formula", 5.0):
        arc = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)
        comps = enumerate_sparsest(arc)
        assert comps == [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 1, 1)]
        alpha = F(1, 2)
        # Split-row positions (k*q + partial sums of the parts), 1-based.
        expected_rows = {
            (0, 0, 3): [4, 8, 15],
            (0, 1, 2): [4, 9, 15],
            (0, 2, 1): [4, 10, 15],
            (1, 1, 1): [5, 10, 15],
        }
        built = []
        for c in comps:
            m = build_sparsest(arc, alpha, c)
            built.append(m)
            rows = sorted(i + 1 for i in range(15) if m.entries[i][(i + 1) % 15] == alpha)
            assert rows == expected_rows[c]
            assert bool(verify_realization(m, arc, alpha))
        for i in range(4):
            for j in range(i + 1, 4):
                assert find_similarity_permutation(built[i], built[j]) is None


def test_criterion_3_exact_polynomial_identities():
    with criterion(3, "exact charpoly = closed form across the full parameter grid", 60.0):
        checked = 0
        for arc in _grid_arcs():
            for comp in enumerate_sparsest(arc):
                for alpha in ALPHAS:
                    m = build_sparsest(arc, alpha, comp)
                    result = verify_realization(m, arc, alpha)
                    assert result.charpoly_ok and result.cycle_report.ok, (arc, comp, alpha)
                    checked += 1
        assert checked >= 500


def test_criterion_4_oracle_equivalence():
    with criterion(4, "digraph-expansion charpoly = elimination charpoly on 200 random matrices per order", 30.0):
        rng = random.Random(20260811)
        for n in range(2, 7):
            for _ in range(200):
                m = random_stochastic(rng, n, density=0.5)
                g = WeightedDigraph.from_matrix(m)
                assert charpoly_coates(g) == charpoly_exact(m)


def test_criterion_5_coefficient_identity():
    with criterion(5, "coefficient identity 2*d*k_2q = (d-1)*k_q^2 across the criterion-3 grid"):
        for arc in _grid_arcs():
            for alpha in ALPHAS:
                assert coefficient_identity_check(reduced_ito(arc, alpha)), (arc, alpha)


def test_criterion_6_only_qn_cycle_digraphs():
    with criterion(6, "exhaustive {q,n}-cycle digraph characterization at (5,3), (5,4), (7,4)", 120.0):
        for n, q in [(5, 3), (5, 4), (7, 4)]:
            # Any single extra edge on the standard n-cycle creates a cycle
            # of length (i-j) mod n + 1; only the back-edge class survives,
            # and cycles persist under edge addition, so the remaining
            # search space is the 2^n - 1 nonempty back-edge subsets.
            for (i, j), lengths in single_edge_cycle_lengths(n, q).items():
                assert (lengths <= {q, n}) == (j == (i + 1 - q) % n), (n, q, i, j)
            for bits in range(1, 2 ** n):
                sources = frozenset(v for v in range(n) if bits >> v & 1)
                assert back_edge_subset_valid(n, q, sources) == fits_anchored_window(
                    n, q, sources
                ), (n, q, sources)


def test_criterion_7_boundary_endpoints():
    with criterion(7, "traced endpoints of every arc, n <= 10, within 1e-9 of the circle points", 5.0):
        for n in range(2, 11):
            for arc in arcs_of_order(n):
                trace = trace_arc(arc, 128)
                start = cmath.exp(2j * math.pi * arc.p / arc.q)
                end = cmath.exp(2j * math.pi * arc.r / arc.s)
                assert abs(trace.samples[0][1] - start) <= 1e-9
                assert abs(trace.samples[-1][1] - end) <= 1e-9


def test_criterion_8_eigenvalue_on_boundary():
    with criterion(8, "constructed-matrix eigenvalue within 1e-8 of the traced arc, 21 samples"):
        arcs = [
            arc_params(ArcType.TYPE_0, n=4),
            arc_params(ArcType.TYPE_I, n=5, q=4),
            arc_params(ArcType.TYPE_I, n=7, q=4),
            arc_params(ArcType.TYPE_II, q=2, d=2, z=1),
            arc_params(ArcType.TYPE_II, q=4, d=3, z=3),
            arc_params(ArcType.TYPE_III, q=3, d=2, y=1),
            arc_params(ArcType.TYPE_III, q=4, d=3, y=3),
        ]
        samples = 0
        for arc in arcs:
            trace = trace_arc(arc, 256)
            comp = enumerate_sparsest(arc)[0]
            for alpha in (F(1, 7), F(1, 3), F(9, 10)):
                m = build_sparsest(arc, alpha, comp)
                assert bool(verify_realization(m, arc, alpha))
                eigs = poly_roots([float(c) for c in charpoly_exact(m).coeffs])
                target = point_at(trace, alpha)
                assert min(abs(e - target) for e in eigs) <= 1e-8, (arc, alpha)
                samples += 1
        assert samples == 21


def test_criterion_9_region_soundness():
    with criterion(9, "1000 random spectra inside the order-4 region; regions nested, orders 2..7"):
        regions = {n: Region(n, 512) for n in range(2, 8)}
        rng = random.Random(99)
        for _ in range(1000):
            m = random_stochastic(rng, 4)
            for eig in poly_roots([float(c) for c in charpoly_exact(m).coeffs]):
                assert regions[4].contains(eig, 1e-7), (m, eig)
        for n in range(2, 7):
            outer = regions[n + 1]
            for trace in regions[n].traces:
                for _, z in trace.samples:
                    assert outer.contains(z, 1e-7), (n, z)


def test_criterion_10_augmentation_fidelity():
    with criterion(10, "augmented order-12 fixtures reachable; middle-pair edges all rejected", 10.0):
        alpha, free = F(1, 2), F(9, 10)
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        base = TypeIIRealization.sparsest(arc, (0, 3, 3))
        fixtures = order12_augmented(alpha, free)

        plans = {
            "A11": ([(1, 5), (2, 6), (3, 7)], {"alpha_1": free, "alpha_2": free, "alpha_3": free}),
            "A12": ([(8, 2), (9, 3), (11, 1)], {"alpha_9": free, "alpha_10": free, "alpha_11": free}),
            "A13": ([(1, 5), (8, 2), (9, 3)], {"alpha_1": free, "alpha_9": free, "alpha_10": free}),
        }
        for name, (edges, params) in plans.items():
            real = base
            for edge in edges:
                real = real.augmented(edge)
            m = real.instantiate(alpha, params)
            assert m == fixtures[name], name
            assert bool(verify_realization(m, arc, alpha)), name

        # No edge can ever be added between the middle pair of blocks.
        for edge in [(4, 8), (5, 9), (6, 10)]:
            with pytest.raises(ValueError, match="rejected"):
                base.augmented(edge)
        # ... not even after other pairs have been filled.
        filled = base
        for edge in [(1, 5), (2, 6), (3, 7)]:
            filled = filled.augmented(edge)
        for edge in [(4, 8), (5, 9), (6, 10)]:
            with pytest.raises(ValueError, match="rejected"):
                filled.augmented(edge)


# (arc, alpha) pairs of orders 199-400 that every exact layer here takes on.
SCALE_ARCS = [
    (arc_params(ArcType.TYPE_II, q=4, d=50, z=3), F(1, 3)),
    (arc_params(ArcType.TYPE_II, q=5, d=40, z=4), F(2, 7)),
    (arc_params(ArcType.TYPE_II, q=2, d=100, z=1), F(1, 2)),
    (arc_params(ArcType.TYPE_III, q=3, d=66, y=2), F(1, 3)),
    (arc_params(ArcType.TYPE_III, q=9, d=33, y=4), F(3, 5)),
    (arc_params(ArcType.TYPE_0, n=400), F(1, 3)),
    (arc_params(ArcType.TYPE_I, n=399, q=200), F(1, 4)),
]
# Orders 600 and 1,000, past any recursion of one call per vertex: Coates only.
COATES_SCALE_ARCS = [
    (arc_params(ArcType.TYPE_0, n=1000), F(2, 5)),
    (arc_params(ArcType.TYPE_II, q=4, d=150, z=3), F(1, 3)),
]
# Compositions of 1,000 parts, past any recursion of one call per part:
# the enumerator and the build.
LONG_COMPOSITION_ARCS = [
    (arc_params(ArcType.TYPE_II, q=2, d=1000, z=1), F(1, 3)),
    (arc_params(ArcType.TYPE_III, q=2, d=1000, y=1), F(1, 3)),
]


@contextmanager
def shallow_recursion():
    """A recursion limit of the current stack depth plus 100 inside, so a
    recursion as deep as the order fails there on any Python."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def check_sparsest_classes(arc, parts):
    """enumerate_sparsest(arc) is sorted, holds only minimal rotations, and
    holds the minimal rotation of ``parts``."""
    classes = enumerate_sparsest(arc)
    def least_rotation(c):
        return min((c[k:] + c[:k] for k in range(len(c))), default=c)

    assert classes == sorted(classes), arc
    assert all(c == least_rotation(c) for c in classes), arc
    assert least_rotation(parts) in classes, (arc, parts)


def test_criterion_11_exact_layers_at_scale():
    """Each arc's random.Random(11) draws one sparsest composition and
    three relabellings of its realization.  Orders 500 and up run Coates,
    and compositions of 1,000 parts the enumerator and the build, under
    :func:`shallow_recursion`."""
    title = "enumerator, build, Coates, cycle check and similarity search at n = 199-2,001"
    rng = random.Random(11)
    with criterion(11, title, 20.0), alarm(20.0, "exact layers took too long at scale"):
        for arc, alpha in SCALE_ARCS + COATES_SCALE_ARCS:
            parts = random_sparsest_parts(rng, arc)
            m = build_sparsest(arc, alpha, parts)
            expected = reduced_ito(arc, alpha).poly
            if arc.n < 500:
                check_sparsest_classes(arc, parts)
            for _ in range(3):
                perm = list(range(arc.n))
                rng.shuffle(perm)
                relabelled = m.permuted(perm)
                g = WeightedDigraph.from_matrix(relabelled)
                if arc.n < 500:
                    assert charpoly_coates(g) == expected, (arc, parts, perm)
                    report = cycle_structure_check(g, arc)
                    assert report.ok, (arc, parts, report.problems)
                    if arc.type_tag is not ArcType.TYPE_I:
                        assert report.exactly_d_disjoint_equal, (arc, parts)
                    sigma = find_similarity_permutation(m, relabelled, max_order=arc.n)
                    assert sigma is not None and m.permuted(sigma) == relabelled, (arc, perm)
                    continue
                with shallow_recursion():
                    poly = charpoly_coates(g)
                assert poly == expected, (arc, parts, perm)
        for arc, alpha in LONG_COMPOSITION_ARCS:
            parts = random_sparsest_parts(rng, arc)
            with shallow_recursion():
                check_sparsest_classes(arc, parts)
                m = build_sparsest(arc, alpha, parts)
            assert m.n == arc.n and m.nnz() == arc.n + arc.d, arc
