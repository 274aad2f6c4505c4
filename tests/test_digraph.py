import itertools
import math
import random
import textwrap
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    back_edge_subset_valid,
    catalogue_arcs,
    cyclic_distance,
    fits_anchored_window,
    order12_sparsest,
    random_stochastic,
    run_script,
    single_edge_cycle_lengths,
)
from karpelevic.algebra import StochMatrix, charpoly_exact, cyclic_shift_matrix
from karpelevic.digraph import (
    CycleReport,
    WeightedDigraph,
    charpoly_coates,
    cycle_structure_check,
    find_similarity_permutation,
    simple_cycles,
    to_dot,
)
from karpelevic.digraph import _similarity_index
from karpelevic.farey import arc_params, ArcType
from karpelevic.realize import (
    Composition,
    build_sparsest,
    enumerate_sparsest,
    type0,
    type1,
)

F = Fraction

ARC12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)


def brute_force_similar(a, b):
    n = a.n
    for p in itertools.permutations(range(n)):
        if all(a[p[i], p[j]] == b[i, j] for i in range(n) for j in range(n)):
            return True
    return False


class TestWeightedDigraph:
    def test_zero_weight_edges_absent(self):
        m = type0(3, F(1, 2))
        g = WeightedDigraph.from_matrix(m)
        assert len(g.edges) == 6
        assert all(w > 0 for w in g.edges.values())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightedDigraph(2, {(0, 1): F(0)})


class TestSimpleCycles:
    def test_pure_cycle(self):
        report = simple_cycles(WeightedDigraph.from_matrix(cyclic_shift_matrix(5)))
        assert report.by_length == {5: [((0, 1, 2, 3, 4), F(1))]}

    def test_type1_order5(self):
        m = type1(5, 4, [F(1, 2), F(1, 2)])
        report = simple_cycles(WeightedDigraph.from_matrix(m))
        assert sorted(report.lengths()) == [4, 5]
        assert len(report.cycles_of_length(4)) == 2
        assert len(report.cycles_of_length(5)) == 1

    def test_order12_first_fixture(self):
        a1 = order12_sparsest(F(1, 3))["A1"]
        report = simple_cycles(WeightedDigraph.from_matrix(a1))
        assert len(report.cycles_of_length(4)) == 3
        assert len(report.cycles_of_length(9)) == 1
        assert len(report.all_cycles()) == 4

    def test_weights_exact(self):
        m = type0(4, F(1, 3))
        report = simple_cycles(WeightedDigraph.from_matrix(m))
        loops = report.cycles_of_length(1)
        assert [w for _, w in loops] == [F(2, 3)] * 4
        assert report.cycles_of_length(4)[0][1] == F(1, 81)

    def test_no_short_cycles_in_realizations(self):
        # Realization digraphs never contain cycles shorter than q.
        cases = [
            type1(5, 4, [F(1, 6), F(1)]),
            build_sparsest(ARC12, F(1, 3), Composition((0, 3, 3))),
        ]
        for m, q in zip(cases, (4, 4)):
            lengths = simple_cycles(WeightedDigraph.from_matrix(m)).lengths()
            assert min(lengths) >= q


@st.composite
def small_digraphs(draw):
    """Digraphs on at most 6 vertices with weights k/9: complete ones,
    self-loops included, or a drawn subset of the ordered pairs."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    if not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    return WeightedDigraph(n, {e: F(draw(st.integers(1, 9)), 9) for e in pairs})


def brute_force_cycles(g):
    """Every sequence of distinct vertices that starts at its least vertex
    and whose consecutive edges, the closing edge included, exist, with
    the product of those edge weights."""
    by_length = {}
    for length in range(1, g.n + 1):
        for seq in itertools.permutations(range(g.n), length):
            edges = list(zip(seq, seq[1:] + seq[:1]))
            if seq[0] == min(seq) and all(e in g.edges for e in edges):
                w = F(1)
                for e in edges:
                    w *= g.edges[e]
                by_length.setdefault(length, []).append((seq, w))
    return by_length


class TestSimpleCyclesAgainstBruteForce:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_digraphs())
    @example(WeightedDigraph(1, {(0, 0): F(1, 2)}))
    @example(WeightedDigraph(2, {(0, 1): F(1, 3), (1, 0): F(2, 3), (1, 1): F(1, 3)}))
    @example(WeightedDigraph.from_edge_list(6, itertools.product(range(6), repeat=2), F(1, 2)))
    def test_cycles_and_weights(self, g):
        report = simple_cycles(g).by_length
        expected = brute_force_cycles(g)
        assert report == expected
        assert list(report) == sorted(expected)


class TestSkippedStarts:
    """A start with no successor or no predecessor above it opens no
    search; what it closes, its loop at most, is still reported."""

    @staticmethod
    def check(g):
        report = simple_cycles(g).by_length
        assert report == brute_force_cycles(g)
        assert list(report) == sorted(report)
        return report

    def test_loop_on_vertex_without_larger_neighbour(self):
        # Vertex 2 has a loop and neighbours 0 both ways, none above it.
        g = WeightedDigraph(3, {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 0): F(1),
                                (2, 0): F(2, 3), (2, 2): F(1, 3)})
        assert self.check(g) == {1: [((2,), F(1, 3))], 2: [((0, 1), F(1, 2)), ((0, 2), F(1, 3))]}

    def test_in_edges_from_below_on_a_cycle_led_elsewhere(self):
        # Vertex 1 is entered from 0 only; its cycles are found from 0.
        g = WeightedDigraph(4, {(0, 1): F(1), (1, 2): F(1, 4), (1, 3): F(3, 4),
                                (2, 0): F(1), (3, 0): F(1), (3, 3): F(1, 2)})
        report = self.check(g)
        assert [c for c, _ in report[3]] == [(0, 1, 2), (0, 1, 3)]
        assert report[1] == [((3,), F(1, 2))]

    @pytest.mark.parametrize("edges", [{}, {(0, 0): F(1)}], ids=["no-loop", "loop"])
    def test_one_vertex(self, edges):
        assert self.check(WeightedDigraph(1, edges)) == ({1: [((0,), F(1))]} if edges else {})


def tiernan_cycles(g):
    """Reference: the unpruned Tiernan search.  From each start it grows
    paths through every larger vertex not on the path, dead ends included,
    and multiplies the edge weights as Fractions."""
    succ = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
    by_length = {}
    for start in range(g.n):
        path = [start]
        stack = [iter(succ[start])]
        while stack:
            for v in stack[-1]:
                if v == start:
                    w = math.prod(g.edges[e] for e in zip(path, path[1:] + [start]))
                    by_length.setdefault(len(path), []).append((tuple(path), w))
                elif v > start and v not in path:
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                path.pop()
    return CycleReport(by_length=dict(sorted(by_length.items())))


def assert_same_report(report, expected):
    """Equal cycles and weights, with lengths and cycles in the same order."""
    assert report == expected
    assert list(report.by_length.items()) == list(expected.by_length.items())


@st.composite
def sparse_digraphs(draw, max_n=12):
    """Digraphs on n <= 12 vertices from at most 3n drawn pairs; loops
    and 2-cycles come from the pairs and from closing up to n of them in
    both directions."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = set(draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))
    if pairs:
        pairs |= {(v, u) for u, v in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=n))}
    return WeightedDigraph(n, {e: F(draw(st.integers(1, 9)), 9) for e in pairs})


class TestPrunedSearchAgainstTiernan:
    """The reachability-pruned search reports exactly what the unpruned
    search does: the same cycles, weights and order."""

    def test_realization_digraphs(self):
        alpha = F(37, 101)
        for arc in catalogue_arcs():
            classes = enumerate_sparsest(arc)
            for composition in {classes[0], classes[-1]}:
                g = WeightedDigraph.from_matrix(build_sparsest(arc, alpha, composition))
                assert_same_report(simple_cycles(g), tiernan_cycles(g))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sparse_digraphs())
    @example(WeightedDigraph(3, {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 0): F(1, 3), (2, 2): F(1)}))
    @example(WeightedDigraph.from_edge_list(12, [(v, (v + 1) % 12) for v in range(12)]
                                            + [(v, v) for v in range(0, 12, 3)]
                                            + [(v + 1, v) for v in range(0, 11, 2)]))
    def test_drawn_digraphs(self, g):
        assert_same_report(simple_cycles(g), tiernan_cycles(g))

    def test_complete_order_8(self):
        # sum over k of C(8, k) (k - 1)! cycles, the 8 loops included
        g = WeightedDigraph.from_edge_list(8, itertools.product(range(8), repeat=2), F(1, 8))
        report = simple_cycles(g)
        assert len(report.all_cycles()) == 16072
        assert_same_report(report, tiernan_cycles(g))


class TestWithoutNetworkx:
    """Cycle enumeration is the package's own: every consumer of simple
    cycles runs in an interpreter where importing networkx fails."""

    SCRIPT = textwrap.dedent(
        """
        import json, sys
        sys.modules["networkx"] = None  # any import of networkx now raises
        from fractions import Fraction as F
        from karpelevic.algebra import charpoly_exact
        from karpelevic.cli import main
        from karpelevic.digraph import WeightedDigraph, charpoly_coates
        from karpelevic.farey import ArcType, arc_params
        from karpelevic.realize import (
            Composition, build_sparsest, conjecture_probe, verify_realization,
        )

        arc12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        m12 = build_sparsest(arc12, F(1, 3), Composition((0, 3, 3)))
        assert verify_realization(m12, arc12, F(1, 3))
        assert charpoly_coates(WeightedDigraph.from_matrix(m12)) == charpoly_exact(m12)
        arc15 = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)
        m15 = build_sparsest(arc15, F(1, 2), Composition((0, 0, 3)))
        assert conjecture_probe(m15, arc15, F(1, 2)) is not None
        with open(sys.argv[1], "w") as f:
            json.dump(m12.to_json(), f)
        sys.exit(main(["verify", "--matrix", sys.argv[1], "--arc", json.dumps(arc12.to_json()),
                       "--alpha", "1/3"]))
        """
    )

    def test_cycle_consumers_and_cli_verify(self, tmp_path):
        result = run_script(self.SCRIPT, str(tmp_path / "m12.json"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK")


class TestCoates:
    def test_single_loop(self):
        g = WeightedDigraph(1, {(0, 0): F(1, 3)})
        assert charpoly_coates(g).to_json() == ["-1/3", "1"]

    def test_two_cycle_with_loop(self):
        a, b, c = F(1, 2), F(1, 4), F(1, 5)
        g = WeightedDigraph(2, {(0, 1): a, (1, 0): b, (0, 0): c})
        p = charpoly_coates(g)
        assert p.coeff(2) == 1 and p.coeff(1) == -c and p.coeff(0) == -a * b
        assert p == charpoly_exact([[c, a], [b, 0]])

    def test_lazy_triangle(self):
        m = StochMatrix(
            [[F(1, 2) if j in (i, (i + 1) % 3) else 0 for j in range(3)] for i in range(3)]
        )
        assert charpoly_coates(WeightedDigraph.from_matrix(m)) == charpoly_exact(m)

    def test_random_agreement(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for _ in range(20):
                m = random_stochastic(rng, n)
                g = WeightedDigraph.from_matrix(m)
                assert charpoly_coates(g) == charpoly_exact(m)

    def test_bound(self):
        g = WeightedDigraph.from_matrix(cyclic_shift_matrix(17))
        with pytest.raises(ValueError):
            charpoly_coates(g)
        assert charpoly_coates(g, bound=17).degree == 17


class TestPermSimilar:
    def test_reflexive(self):
        m = random_stochastic(random.Random(2), 6)
        assert find_similarity_permutation(m, m) is not None

    def test_cycle_vs_reversed(self):
        c4 = cyclic_shift_matrix(4)
        assert find_similarity_permutation(c4, cyclic_shift_matrix(4, 3)) is not None

    def test_paper_rotation_equivalence(self):
        a = build_sparsest(ARC12, F(1, 3), Composition((1, 2, 3)))
        b = build_sparsest(ARC12, F(1, 3), Composition((2, 3, 1)))
        assert find_similarity_permutation(a, b) is not None

    def test_agrees_with_brute_force(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            for _ in range(10):
                a = random_stochastic(rng, n, density=0.4)
                if rng.random() < 0.5:
                    perm = list(range(n))
                    rng.shuffle(perm)
                    b = a.permuted(perm)
                else:
                    b = random_stochastic(rng, n, density=0.4)
                found = find_similarity_permutation(a, b) is not None
                assert found == brute_force_similar(a, b)

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(9)
        base = random_stochastic(rng, 6, density=0.5)
        p1, p2 = list(range(6)), list(range(6))
        rng.shuffle(p1)
        rng.shuffle(p2)
        m1, m2 = base.permuted(p1), base.permuted(p2)
        assert find_similarity_permutation(m1, base) is not None  # symmetric
        assert find_similarity_permutation(base, m1) is not None
        assert find_similarity_permutation(m1, m2) is not None  # transitive through base

    def test_returns_witness(self):
        a = random_stochastic(random.Random(4), 5, density=0.5)
        perm = [3, 0, 4, 1, 2]
        b = a.permuted(perm)
        sigma = find_similarity_permutation(a, b)
        assert sigma is not None
        assert a.permuted(sigma) == b

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            find_similarity_permutation(cyclic_shift_matrix(3), cyclic_shift_matrix(4))

    def test_size_bound(self):
        big = cyclic_shift_matrix(24)
        with pytest.raises(ValueError, match="bound"):
            find_similarity_permutation(big, big)


class TestSimilarityOnRealizations:
    """Realization digraphs are sparse cycles with chords; the search must
    settle them by propagation along edges, whatever the relabelling."""

    BUDGET_S = 2.0

    @staticmethod
    def _type3_q8_d7_y7(parts):
        # n = 63; the constant class (1,...,1) has a rotation group of order 7.
        arc = arc_params(ArcType.TYPE_III, q=8, d=7, y=7)
        return build_sparsest(arc, F(1, 3), Composition(parts))

    def test_relabelled_constant_composition(self):
        m = self._type3_q8_d7_y7((1,) * 7)
        start = time.perf_counter()
        for seed in range(3):
            p = list(range(m.n))
            random.Random(seed).shuffle(p)
            sigma = find_similarity_permutation(m, m.permuted(p), max_order=m.n)
            assert sigma is not None and m.permuted(sigma) == m.permuted(p)
        assert time.perf_counter() - start < self.BUDGET_S

    def test_dissimilar_class_of_same_arc(self):
        m = self._type3_q8_d7_y7((1,) * 7)
        other = self._type3_q8_d7_y7((0, 1, 1, 1, 1, 1, 2))
        p = list(range(m.n))
        random.Random(0).shuffle(p)
        start = time.perf_counter()
        assert find_similarity_permutation(m, other.permuted(p), max_order=m.n) is None
        assert time.perf_counter() - start < self.BUDGET_S

    SMALL_ARCS = [
        arc_params(kind, q=q, d=d, **{key: x})
        for q in range(2, 6)
        for d in (2, 3)
        for x in range(1, q)
        if gcd(q, x) == 1
        for kind, key in ((ArcType.TYPE_II, "z"), (ArcType.TYPE_III, "y"))
    ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_relabelling_found_and_classes_kept_apart(self, data):
        arc = data.draw(st.sampled_from(self.SMALL_ARCS))
        classes = enumerate_sparsest(arc)
        first = data.draw(st.sampled_from(classes))
        second = data.draw(st.sampled_from(classes))
        den = data.draw(st.integers(2, 60))
        alpha = F(data.draw(st.integers(1, den - 1)), den)
        perm = data.draw(st.permutations(range(arc.n)))
        m = build_sparsest(arc, alpha, first)
        b = build_sparsest(arc, alpha, second).permuted(perm)
        sigma = find_similarity_permutation(m, b, max_order=arc.n)
        if first == second:
            assert sigma is not None and m.permuted(sigma) == b
        else:
            assert sigma is None


class TestSignatureBuckets:
    """Candidates come from a dict keyed by vertex signature."""

    def test_equal_signatures_but_not_similar(self):
        # A 6-cycle and two 3-cycles: every vertex has one in- and one
        # out-edge of weight 1 and no loop.
        six = cyclic_shift_matrix(6)
        two_threes = StochMatrix(
            [[1 if j == 3 * (i // 3) + (i + 1) % 3 else 0 for j in range(6)] for i in range(6)]
        )
        ia, ib = _similarity_index(six), _similarity_index(two_threes)
        assert ia.scale == ib.scale == 1
        assert sorted(ia.signatures) == sorted(ib.signatures) and ia.counts == ib.counts
        assert find_similarity_permutation(six, two_threes) is None
        assert find_similarity_permutation(two_threes, six) is None

    def test_int_and_fraction_zero_share_a_bucket(self):
        # A vertex without a loop has loop weight int 0, which equals and
        # hashes as F(0), so a key with either zero finds its bucket.
        ints = StochMatrix([[0, 1, 0], [0, 0, 1], [F(1, 2), 0, F(1, 2)]])
        fractions = StochMatrix([[F(1, 2), F(1, 2), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]])
        ia, ib = _similarity_index(ints), _similarity_index(fractions)
        out_weights, in_weights, loop = ia.signatures[0]
        assert type(loop) is int and loop == 0 == F(0) and hash(loop) == hash(F(0))
        assert ia.buckets[(out_weights, in_weights, F(0))] == [0]
        assert ia.scale == ib.scale == 2
        assert sorted(ia.signatures) == sorted(ib.signatures)
        sigma = find_similarity_permutation(ints, fractions)
        assert sigma is not None and ints.permuted(sigma) == fractions

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(0, 10 ** 6), st.booleans(), st.data())
    def test_every_witness_maps_a_onto_b(self, n, seed, relabel, data):
        rng = random.Random(seed)
        a = random_stochastic(rng, n, density=0.4)
        if relabel:
            b = a.permuted(data.draw(st.permutations(range(n))))
        else:
            b = random_stochastic(rng, n, density=0.4)
        sigma = find_similarity_permutation(a, b)
        if relabel:
            assert sigma is not None
        if sigma is not None:
            assert a.permuted(sigma) == b


def reference_bfs_order(g, rank):
    """Reference: g's vertices breadth-first over neighbour sets, each
    component from its vertex of least ``rank``, neighbours in increasing
    order."""
    neighbours = [set() for _ in range(g.n)]
    for i, j in g.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    order, seen = [], set()
    for root in sorted(range(g.n), key=rank):
        if root not in seen:
            head = len(order)
            seen.add(root)
            order.append(root)
            while head < len(order):
                for u in sorted(neighbours[order[head]] - seen):
                    seen.add(u)
                    order.append(u)
                head += 1
    return order


def reference_edge_maps(m):
    """Out- and in-neighbour maps of m with its Fraction entries as weights."""
    out = [{j: m[i, j] for j in range(m.n) if m[i, j]} for i in range(m.n)]
    inc = [{i: m[i, j] for i in range(m.n) if m[i, j]} for j in range(m.n)]
    return out, inc


def reference_signatures(out, inc):
    """Sorted out-weights, sorted in-weights and self-loop weight (0 for
    none) of each vertex, as Fractions."""
    return [
        (tuple(sorted(out[v].values())), tuple(sorted(inc[v].values())), out[v].get(v, 0))
        for v in range(len(out))
    ]


def bucket_similarity(a, b):
    """Reference: the search that scans signature buckets.  Each call reads
    both matrices' Fraction entries again into edge maps and signatures,
    and every vertex tries each vertex of a with its signature, in
    increasing order."""
    out_a, in_a = reference_edge_maps(a)
    out_b, in_b = reference_edge_maps(b)
    gb = WeightedDigraph.from_matrix(b)
    sig_a = reference_signatures(out_a, in_a)
    sig_b = reference_signatures(out_b, in_b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    candidates = [[u for u in range(a.n) if sig_a[u] == sig] for sig in sig_b]
    order = reference_bfs_order(gb, lambda v: (len(candidates[v]), v))
    sigma, inverse = {}, {}

    def consistent(v, u):
        for edges_b, edges_a in ((out_b, out_a), (in_b, in_a)):
            for vv, w in edges_b[v].items():
                if vv in sigma and edges_a[u].get(sigma[vv]) != w:
                    return False
            for uu, w in edges_a[u].items():
                if uu in inverse and edges_b[v].get(inverse[uu]) != w:
                    return False
        return True

    def assign(pos):
        if pos == len(order):
            return True
        v = order[pos]
        for u in candidates[v]:
            if u in inverse or not consistent(v, u):
                continue
            sigma[v], inverse[u] = u, v
            if assign(pos + 1):
                return True
            del sigma[v], inverse[u]
        return False

    return [sigma[v] for v in range(b.n)] if assign(0) else None


@st.composite
def repeated_weight_matrices(draw, n):
    """Order-n stochastic matrices whose rows hold one to three nonzeros of
    relative size 1 or 2, so weights and vertex signatures repeat."""
    rows = []
    for _ in range(n):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        sizes = [draw(st.integers(1, 2)) for _ in cols]
        row = [F(0)] * n
        for j, k in zip(cols, sizes):
            row[j] = F(k, sum(sizes))
        rows.append(row)
    return StochMatrix(rows)


@st.composite
def similarity_pairs(draw, max_n=8):
    """(a, b) of one order: b is a relabelling of a, a relabelling of a
    with one row drawn again, or drawn on its own."""
    n = draw(st.integers(1, max_n))
    a = draw(repeated_weight_matrices(n))
    kind = draw(st.sampled_from(["relabelled", "edited", "drawn"]))
    if kind == "drawn":
        return a, draw(repeated_weight_matrices(n))
    b = a
    if kind == "edited":
        rows = list(a.entries)
        rows[draw(st.integers(0, n - 1))] = draw(repeated_weight_matrices(n)).entries[0]
        b = StochMatrix(rows)
    return a, b.permuted(draw(st.permutations(range(n))))


class TestDenominatorInvariant:
    """L, the lcm of the entry denominators, is kept by relabelling, so
    matrices whose L differ are told apart before any search."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(similarity_pairs(max_n=5))
    @example((StochMatrix([[F(1, 2), F(1, 2)], [1, 0]]), StochMatrix([[F(1, 3), F(2, 3)], [1, 0]])))
    def test_different_denominators_never_similar(self, pair):
        a, b = pair
        similar = brute_force_similar(a, b)
        assert (find_similarity_permutation(a, b) is not None) == similar
        if a._int_view[0] != b._int_view[0]:
            assert not similar


def fresh_copy(m):
    """An equal matrix that has never been searched."""
    return StochMatrix(m.entries)


class TestNeighbourDrawnSearch:
    """Candidates drawn from the placed neighbour give the bucket search's
    answers, witnesses included."""

    def test_realization_pairs(self):
        alpha = F(37, 101)
        for idx, arc in enumerate(catalogue_arcs()):
            classes = enumerate_sparsest(arc)
            ms = [build_sparsest(arc, alpha, c) for c in (classes[0], classes[-1])]
            perm = list(range(arc.n))
            random.Random(idx).shuffle(perm)
            ms.append(ms[0].permuted(perm))
            for a, b in itertools.product(ms, repeat=2):
                assert find_similarity_permutation(a, b, max_order=arc.n) == bucket_similarity(a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(similarity_pairs())
    def test_drawn_pairs(self, pair):
        a, b = pair
        assert find_similarity_permutation(a, b) == bucket_similarity(a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(similarity_pairs())
    def test_order_and_candidates_follow_their_definitions(self, pair):
        a, b = pair
        ia, ib = _similarity_index(a), _similarity_index(b)
        order, anchors = ib.tree
        gb = WeightedDigraph.from_matrix(b)
        sig_b = reference_signatures(*reference_edge_maps(b))
        assert order == reference_bfs_order(gb, lambda v: (sig_b.count(sig_b[v]), v))
        position = {v: k for k, v in enumerate(order)}
        for v in range(b.n):
            earlier = [w for w in range(b.n) if (b[v, w] or b[w, v]) and position[w] < position[v]]
            w = anchors[v]
            if not earlier:
                assert w == -1
                continue
            assert w in earlier
            # v's signature and its edges to w as weights over a's L.
            ratio = F(ia.scale, ib.scale)
            outs, ins, loop = ib.signatures[v]
            sig = (tuple(x * ratio for x in outs), tuple(x * ratio for x in ins), loop * ratio)
            edges = [None if x is None else x * ratio for x in (ib.out[v].get(w), ib.inc[v].get(w))]
            bucket = ia.buckets.get(sig, [])
            for image in range(a.n):
                expected = [u for u in bucket if (a[u, image], a[image, u]) == (b[v, w], b[w, v])]
                assert ia.candidates(sig, image, *edges) == expected


class TestCachedIndex:
    """The index kept on a matrix changes nothing but the time taken."""

    @staticmethod
    def _pair(seed=0):
        arc = arc_params(ArcType.TYPE_III, q=5, d=3, y=2)
        classes = enumerate_sparsest(arc)
        m = build_sparsest(arc, F(2, 7), classes[0])
        other = build_sparsest(arc, F(2, 7), classes[-1])
        perm = list(range(arc.n))
        random.Random(seed).shuffle(perm)
        return m, other, perm

    def test_equality_hash_json_and_repr_unchanged(self):
        m, other, perm = self._pair()
        before = (m.to_json(), repr(m), hash(m))
        assert find_similarity_permutation(m, m.permuted(perm)) is not None
        assert find_similarity_permutation(other, m) is None
        assert _similarity_index(m) is _similarity_index(m)
        fresh = fresh_copy(m)
        assert m == fresh and fresh == m and hash(m) == hash(fresh)
        assert (m.to_json(), repr(m), hash(m)) == before
        assert StochMatrix.from_json(m.to_json()) == m
        assert m != other

    @pytest.mark.parametrize("matrix_first", [True, False])
    @pytest.mark.parametrize("searched_before_permuting", [True, False])
    def test_matrix_and_permuted_copy_in_either_order(self, matrix_first, searched_before_permuting):
        m, other, perm = self._pair(seed=3)
        if searched_before_permuting:
            assert find_similarity_permutation(m, other) is None
        p = m.permuted(perm)
        calls = [(m, p), (p, m)] if matrix_first else [(p, m), (m, p)]
        for a, b in calls:
            sigma = find_similarity_permutation(a, b)
            assert sigma is not None and a.permuted(sigma) == b
        assert find_similarity_permutation(p, other) is None
        assert find_similarity_permutation(other, p) is None

    def test_reused_matrices_answer_as_fresh_copies(self):
        # Distinct classes are dissimilar, so two matrices are similar iff
        # they come from the same class.
        alpha = F(37, 101)
        for idx, arc in enumerate(catalogue_arcs(max_q=5, max_d=3)):
            classes = enumerate_sparsest(arc)[:3]
            ms = [build_sparsest(arc, alpha, c) for c in classes]
            for a, b in itertools.product(ms, repeat=2):
                assert (find_similarity_permutation(a, b) is not None) == (a is b)
            rng = random.Random(idx)
            for m in ms[: len(classes)]:
                perm = list(range(arc.n))
                rng.shuffle(perm)
                ms.append(m.permuted(perm))
            labelled = [(k % len(classes), m) for k, m in enumerate(ms)]
            for (i, a), (j, b) in itertools.product(labelled, repeat=2):
                reused = find_similarity_permutation(a, b)
                assert reused == find_similarity_permutation(fresh_copy(a), fresh_copy(b))
                assert (reused is not None) == (i == j)


class TestCycleStructure:
    def test_type0_ok(self):
        arc = arc_params(ArcType.TYPE_0, n=4)
        report = cycle_structure_check(WeightedDigraph.from_matrix(type0(4, F(1, 2))), arc)
        assert report.ok
        assert report.lengths == (1, 4)
        assert report.q_cycle_count == 4
        assert report.at_least_d_q_cycles is True

    def test_order12_fixture_ok(self):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        a2 = order12_sparsest(F(1, 3))["A2"]
        report = cycle_structure_check(WeightedDigraph.from_matrix(a2), arc)
        assert report.ok
        assert report.exactly_d_disjoint_equal is True

    def test_forbidden_chord(self):
        arc = arc_params(ArcType.TYPE_I, n=5, q=4)
        g = WeightedDigraph(
            5,
            {(i, (i + 1) % 5): F(1) for i in range(5)} | {(1, 0): F(1, 2)},
        )
        report = cycle_structure_check(g, arc)
        assert not report
        assert any("forbidden" in p for p in report.problems)


class TestOnlyQNCycleDigraphs:
    """Exhaustive confirmation of the {q, n}-cycle characterization at (5, 3)."""

    def test_single_extra_edges(self):
        for (i, j), lengths in single_edge_cycle_lengths(5, 3).items():
            expected_ok = (j == (i + 1 - 3) % 5)
            assert (lengths <= {3, 5}) == expected_ok

    def test_subsets_match_window_rule(self):
        n, q = 5, 3
        for bits in range(1, 2 ** n):
            sources = frozenset(i for i in range(n) if bits >> i & 1)
            assert back_edge_subset_valid(n, q, sources) == fits_anchored_window(n, q, sources)


class TestDot:
    def test_labels_and_weights(self):
        m = type0(3, F(1, 2))
        dot = to_dot(WeightedDigraph.from_matrix(m))
        assert "1 -> 2" in dot and '[label="1/2"]' in dot
        assert dot.startswith("digraph")


def test_cyclic_distance():
    assert cyclic_distance(15, 4, 8) == 4
    assert cyclic_distance(15, 14, 0) == 1
    assert cyclic_distance(15, 0, 0) == 0
