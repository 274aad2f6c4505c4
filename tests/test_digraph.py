import itertools
import math
import random
import textwrap
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    alarm,
    back_edge_subset_valid,
    catalogue_arcs,
    cyclic_distance,
    fits_anchored_window,
    order12_sparsest,
    random_sparsest_parts,
    random_stochastic,
    run_script,
    single_edge_cycle_lengths,
)
from karpelevic.algebra import StochMatrix, charpoly_exact, cyclic_shift_matrix
from karpelevic.digraph import (
    SEARCH_ORDER_BOUND,
    WeightedDigraph,
    charpoly_coates,
    cycle_structure_check,
    dd_support_check,
    find_similarity_permutation,
    simple_cycles,
    to_dot,
)
from karpelevic import digraph
from karpelevic.digraph import _relabel as relabel, _similarity_index
from karpelevic.farey import arc_params, ArcType
from karpelevic.itopoly import reduced_ito
from karpelevic.realize import (
    build_sparsest,
    enumerate_sparsest,
    type0,
    type1,
)

F = Fraction

ARC12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)


def edge_dict(g):
    """g's edges as a {(u, v): weight} dict, read off its rows."""
    return {(u, v): w for u, row in enumerate(g.sparse_rows) for v, w in row}


def brute_force_similar(a, b):
    n = a.n
    for p in itertools.permutations(range(n)):
        if all(a.entries[p[i]][p[j]] == b.entries[i][j] for i in range(n) for j in range(n)):
            return True
    return False


class TestWeightedDigraph:
    def test_zero_weight_edges_absent(self):
        m = type0(3, F(1, 2))
        g = WeightedDigraph.from_matrix(m)
        assert len(edge_dict(g)) == 6
        assert all(w > 0 for w in edge_dict(g).values())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightedDigraph(2, {(0, 1): F(0)})

    def test_rejects_no_vertices_and_edges_out_of_range(self):
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            WeightedDigraph(0, {})
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            WeightedDigraph.from_matrix(StochMatrix([]))
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range for n=2$"):
            WeightedDigraph(2, {(0, 1): 1, (0, 2): 1})
        with pytest.raises(ValueError, match=r"^edge \(-1, 0\) out of range for n=2$"):
            WeightedDigraph(2, {(-1, 0): 1})
        with pytest.raises(ValueError, match=r"^edge \(2, 0\) out of range for n=2$"):
            WeightedDigraph(2, {(0, 1): 1, (2, 0): 1})
        with pytest.raises(ValueError, match=r"^edge \(0, -1\) out of range for n=2$"):
            WeightedDigraph(2, {(0, 1): 1, (0, -1): 1})

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (True, {}, "order must be an integer, got True"),
            (2.0, {}, "order must be an integer, got 2.0"),
            (2, {(True, 0): 1, (0, 1): 1}, "edge (True, 0) vertex must be an integer, got True"),
            (2, {(0, 1): 1, (1, 0.0): 1}, "edge (1, 0.0) vertex must be an integer, got 0.0"),
        ],
        ids=["bool-order", "float-order", "bool-vertex", "float-vertex"],
    )
    def test_rejects_non_integer_order_and_vertices(self, n, edges, message):
        with pytest.raises(ValueError) as exc:
            WeightedDigraph(n, edges)
        assert str(exc.value) == message

    def test_rows_sorted_with_fraction_weights(self):
        g = WeightedDigraph(3, {(2, 0): F(1, 2), (0, 2): 1, (0, 0): "1/3"})
        assert g.sparse_rows == (((0, F(1, 3)), (2, F(1))), (), ((0, F(1, 2)),))
        assert all(type(w) is F for row in g.sparse_rows for _, w in row)
        assert g.n == 3 and WeightedDigraph(2, {}).sparse_rows == ((), ())

    def test_from_matrix_shares_the_rows(self):
        m = type0(3, F(1, 2))
        g = WeightedDigraph.from_matrix(m)
        assert g.sparse_rows is m.sparse_rows and g.n == 3
        assert g != m and m != g

    def test_equality_follows_order_and_weighted_edges(self):
        g = WeightedDigraph.from_matrix(type0(3, F(1, 2)))
        same = WeightedDigraph(3, {(i, j): F(1, 2) for i in range(3) for j in (i, (i + 1) % 3)})
        assert g == same and same == g
        assert g != WeightedDigraph.from_matrix(type0(3, F(1, 3)))
        edges = edge_dict(g)
        assert g != WeightedDigraph(4, edges)
        assert g != WeightedDigraph(3, {e: w for e, w in edges.items() if e != (0, 0)})
        assert g.__eq__(edges) is NotImplemented and g != edges

    def test_support_search_bound(self):
        n = SEARCH_ORDER_BOUND + 1
        message = f"^order {n} exceeds the support search bound {SEARCH_ORDER_BOUND}$"
        with pytest.raises(ValueError, match=message):
            dd_support_check(type0(n, F(1, 2)), 0)
        assert dd_support_check(type0(SEARCH_ORDER_BOUND, F(1, 2)), 0) is not None

    @pytest.mark.parametrize("k", [0.5, 1.0, True])
    def test_support_band_must_be_an_integer(self, k):
        with pytest.raises(ValueError) as exc:
            dd_support_check(type0(4, F(1, 2)), k)
        assert str(exc.value) == f"k must be an integer, got {k!r}"


class TestSimpleCycles:
    def test_pure_cycle(self):
        report = simple_cycles(WeightedDigraph.from_matrix(cyclic_shift_matrix(5)))
        assert report == {5: [((0, 1, 2, 3, 4), F(1))]}

    def test_type1_order5(self):
        m = type1(5, 4, [F(1, 2), F(1, 2)])
        report = simple_cycles(WeightedDigraph.from_matrix(m))
        assert sorted(report) == [4, 5]
        assert len(report[4]) == 2
        assert len(report[5]) == 1

    def test_order12_first_fixture(self):
        a1 = order12_sparsest(F(1, 3))["A1"]
        report = simple_cycles(WeightedDigraph.from_matrix(a1))
        assert len(report[4]) == 3
        assert len(report[9]) == 1
        assert sum(map(len, report.values())) == 4

    def test_weights_exact(self):
        m = type0(4, F(1, 3))
        report = simple_cycles(WeightedDigraph.from_matrix(m))
        loops = report[1]
        assert [w for _, w in loops] == [F(2, 3)] * 4
        assert report[4][0][1] == F(1, 81)

    def test_no_short_cycles_in_realizations(self):
        # Realization digraphs never contain cycles shorter than q.
        cases = [
            type1(5, 4, [F(1, 6), F(1)]),
            build_sparsest(ARC12, F(1, 3), (0, 3, 3)),
        ]
        for m, q in zip(cases, (4, 4)):
            lengths = set(simple_cycles(WeightedDigraph.from_matrix(m)))
            assert min(lengths) >= q

    def test_dead_end_ladder_is_pruned(self):
        """The 2-cycle 0 <-> 1 under a ladder of k layers of two vertices
        entered from 1, each layer joined to the next and none back: 2^k
        paths from 0 into the ladder, none of which returns.  The reverse
        reachability marks keep the search from 0 out of the ladder; a
        search that enters it runs for far longer than the alarm."""
        k = 24
        edges = {(0, 1): F(1, 3), (1, 0): F(1, 2)}
        for layer in range(k):
            for u in (1,) if layer == 0 else (2 * layer, 2 * layer + 1):
                edges[(u, 2 * layer + 2)] = edges[(u, 2 * layer + 3)] = F(1, 2)
        g = WeightedDigraph(2 * k + 2, edges)
        with alarm(2.0, "simple_cycles searched the dead-end ladder"):
            report = simple_cycles(g)
        assert report == {2: [((0, 1), F(1, 6))]}


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
    weights = edge_dict(g)
    by_length = {}
    for length in range(1, g.n + 1):
        for seq in itertools.permutations(range(g.n), length):
            edges = list(zip(seq, seq[1:] + seq[:1]))
            if seq[0] == min(seq) and all(e in weights for e in edges):
                w = F(1)
                for e in edges:
                    w *= weights[e]
                by_length.setdefault(length, []).append((seq, w))
    return by_length


class TestSimpleCyclesAgainstBruteForce:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_digraphs())
    @example(WeightedDigraph(1, {(0, 0): F(1, 2)}))
    @example(WeightedDigraph(2, {(0, 1): F(1, 3), (1, 0): F(2, 3), (1, 1): F(1, 3)}))
    @example(WeightedDigraph(6, dict.fromkeys(itertools.product(range(6), repeat=2), F(1, 2))))
    def test_cycles_and_weights(self, g):
        report = simple_cycles(g)
        expected = brute_force_cycles(g)
        assert report == expected
        assert list(report) == sorted(expected)


class TestSkippedStarts:
    """A start with no successor or no predecessor above it opens no
    search; what it closes, its loop at most, is still reported."""

    @staticmethod
    def check(g):
        report = simple_cycles(g)
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
    weights = edge_dict(g)
    succ = [[] for _ in range(g.n)]
    for u, v in weights:
        succ[u].append(v)
    by_length = {}
    for start in range(g.n):
        path = [start]
        stack = [iter(succ[start])]
        while stack:
            for v in stack[-1]:
                if v == start:
                    w = math.prod(weights[e] for e in zip(path, path[1:] + [start]))
                    by_length.setdefault(len(path), []).append((tuple(path), w))
                elif v > start and v not in path:
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                path.pop()
    return dict(sorted(by_length.items()))


def assert_same_report(report, expected):
    """Equal cycles and weights, with lengths and cycles in the same order."""
    assert report == expected
    assert list(report.items()) == list(expected.items())


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
    @example(WeightedDigraph(12, dict.fromkeys([(v, (v + 1) % 12) for v in range(12)]
                                               + [(v, v) for v in range(0, 12, 3)]
                                               + [(v + 1, v) for v in range(0, 11, 2)], 1)))
    def test_drawn_digraphs(self, g):
        assert_same_report(simple_cycles(g), tiernan_cycles(g))

    def test_complete_order_8(self):
        # sum over k of C(8, k) (k - 1)! cycles, the 8 loops included
        g = WeightedDigraph(8, dict.fromkeys(itertools.product(range(8), repeat=2), F(1, 8)))
        report = simple_cycles(g)
        assert sum(map(len, report.values())) == 16072
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
            build_sparsest, conjecture_probe, verify_realization,
        )

        arc12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        m12 = build_sparsest(arc12, F(1, 3), (0, 3, 3))
        assert verify_realization(m12, arc12, F(1, 3))
        assert charpoly_coates(WeightedDigraph.from_matrix(m12)) == charpoly_exact(m12)
        arc15 = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)
        m15 = build_sparsest(arc15, F(1, 2), (0, 0, 3))
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
        assert charpoly_coates(g).coeffs == (F(-1, 3), 1)

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

    def test_dense_agreement(self):
        """25 digraphs of orders 7-9 at density 0.8, with hundreds to tens
        of thousands of cycles each.  A sum over every set of disjoint
        cycles runs far past the alarm on them; the least-vertex recurrence
        visits each vertex set once."""
        rng = random.Random(7)
        with alarm(20.0, "charpoly_coates took too long on dense digraphs"):
            for n, count in ((7, 10), (8, 10), (9, 5)):
                for _ in range(count):
                    m = random_stochastic(rng, n, density=0.8)
                    assert charpoly_coates(WeightedDigraph.from_matrix(m)) == charpoly_exact(m)

    def test_cyclic_shifts_past_order_16(self):
        """No order bound: the n-cycle is one cycle through every vertex."""
        for n in (16, 17, 64):
            m = cyclic_shift_matrix(n)
            assert charpoly_coates(WeightedDigraph.from_matrix(m)) == charpoly_exact(m)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_digraphs())
    def test_drawn_digraphs(self, g):
        """Weights k/9 in rows that need not sum to 1, loops, vertices on no
        cycle and the empty digraph, against elimination on the dense grid."""
        grid = [[F(0)] * g.n for _ in range(g.n)]
        for (u, v), w in edge_dict(g).items():
            grid[u][v] = w
        assert charpoly_coates(g) == charpoly_exact(grid)

    # (arc, alpha) pairs of orders 199-400; Types 0 and I take the empty composition.
    LARGE_SPARSEST = [
        (arc_params(ArcType.TYPE_II, q=4, d=50, z=3), F(1, 3)),
        (arc_params(ArcType.TYPE_II, q=5, d=40, z=4), F(2, 7)),
        (arc_params(ArcType.TYPE_II, q=4, d=100, z=3), F(1, 3)),
        (arc_params(ArcType.TYPE_II, q=2, d=200, z=1), F(1, 2)),
        (arc_params(ArcType.TYPE_III, q=3, d=66, y=2), F(1, 3)),
        (arc_params(ArcType.TYPE_III, q=9, d=33, y=4), F(3, 5)),
        (arc_params(ArcType.TYPE_0, n=400), F(1, 3)),
        (arc_params(ArcType.TYPE_I, n=399, q=200), F(1, 4)),
    ]

    def test_relabelled_sparsest_at_orders_199_to_400(self):
        """Coates against the arc's reduced polynomial on relabelled sparsest
        realizations: for each arc, random.Random(2) draws one composition
        (parts below q, added one unit at a time to a random part with room)
        and three relabellings.  The bits follow the shortest cycles, so each
        block leaves the pass in one step and a level holds a few vertex
        sets; numbered by their labels, a level grows to about 2^d sets and
        the first Type II arc alone runs past the alarm.
        charpoly_exact is no reference at these orders: its elimination
        takes seconds on a relabelled Type II matrix at n = 200."""
        rng = random.Random(2)
        with alarm(20.0, "charpoly_coates took too long on relabelled realizations"):
            for arc, alpha in self.LARGE_SPARSEST:
                parts = random_sparsest_parts(rng, arc)
                m = build_sparsest(arc, alpha, parts)
                expected = reduced_ito(arc, alpha).poly
                for _ in range(3):
                    perm = list(range(arc.n))
                    rng.shuffle(perm)
                    g = WeightedDigraph.from_matrix(m.permuted(perm))
                    assert charpoly_coates(g) == expected, (arc, parts, perm)


class TestPermSimilar:
    def test_reflexive(self):
        m = random_stochastic(random.Random(2), 6)
        assert find_similarity_permutation(m, m) is not None

    def test_cycle_vs_reversed(self):
        c4 = cyclic_shift_matrix(4)
        assert find_similarity_permutation(c4, cyclic_shift_matrix(4, 3)) is not None

    def test_paper_rotation_equivalence(self):
        a = build_sparsest(ARC12, F(1, 3), (1, 2, 3))
        b = build_sparsest(ARC12, F(1, 3), (2, 3, 1))
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
        """One past the default bound raises with its message, and the same
        pair is searched once max_order admits it."""
        a = cyclic_shift_matrix(21)
        perm = list(range(21))
        random.Random(21).shuffle(perm)
        b = a.permuted(perm)
        with pytest.raises(ValueError) as exc:
            find_similarity_permutation(a, b)
        assert str(exc.value) == "order 21 exceeds the similarity search bound 20"
        sigma = find_similarity_permutation(a, b, max_order=21)
        assert sigma is not None and a.permuted(sigma) == b

    @pytest.mark.parametrize("bound", [True, 2.5, 3.0, "3", None])
    def test_max_order_must_be_an_integer(self, bound):
        # True and 2.5 were once compared with the order, and "3" and None
        # raised a bare TypeError there.
        c3 = cyclic_shift_matrix(3)
        with pytest.raises(ValueError) as exc:
            find_similarity_permutation(c3, c3, bound)
        assert str(exc.value) == f"max_order must be an integer, got {bound!r}"
        assert find_similarity_permutation(c3, c3, 3) == [0, 1, 2]


def band_offsets(n, k):
    return {k % n, (k + 1) % n}


def shuffled_band_matrix(rng, n, k):
    """A random stochastic matrix supported on the cyclic diagonals k and
    k + 1, relabelled by a random permutation."""
    rows = []
    for i in range(n):
        weights = [0] * n
        for j in band_offsets(n, k):
            weights[(i + j) % n] = rng.randint(1, 9) if rng.random() < 0.7 else 0
        if not any(weights):
            weights[(i + k) % n] = 1
        rows.append([F(w, sum(weights)) for w in weights])
    perm = list(range(n))
    rng.shuffle(perm)
    return StochMatrix(rows).permuted(perm)


class TestSupportAgainstBruteForce:
    def test_band_found_exactly_when_one_exists(self):
        """dd_support_check finds a relabelling exactly when one of the n!
        puts every edge (u, v) at offset k or k + 1, and the one it returns
        does; shuffled band matrices give the positive cases, sparse random
        ones (with loops, which need offset 0) mostly negative ones."""
        rng = random.Random(13)
        for n in (3, 4, 5, 6):
            # The identity and the square of the cyclic shift split into n
            # and gcd(n, 2) components, each rooted anew in the search.
            cases = [cyclic_shift_matrix(n, 0), cyclic_shift_matrix(n, 2)]
            for _ in range(20):
                cases.append(shuffled_band_matrix(rng, n, rng.randrange(n)))
                cases.append(random_stochastic(rng, n, density=0.3))
            for m in cases:
                edges = [(u, v) for u, row in enumerate(m.sparse_rows) for v, _ in row]
                for k in range(n):
                    offsets = band_offsets(n, k)
                    fits = any(
                        all((slot[v] - slot[u]) % n in offsets for u, v in edges)
                        for slot in itertools.permutations(range(n))
                    )
                    sigma = dd_support_check(m, k)
                    assert (sigma is not None) == fits, (m, k)
                    if sigma is not None:
                        relabelled = m.permuted(sigma).sparse_rows
                        assert all((j - i) % n in offsets
                                   for i, row in enumerate(relabelled) for j, _ in row)


class TestSimilarityOnRealizations:
    """Realization digraphs are sparse cycles with chords; the search must
    settle them by propagation along edges, whatever the relabelling."""

    BUDGET_S = 2.0

    @staticmethod
    def _type3_q8_d7_y7(parts):
        # n = 63; the constant class (1,...,1) has a rotation group of order 7.
        arc = arc_params(ArcType.TYPE_III, q=8, d=7, y=7)
        return build_sparsest(arc, F(1, 3), parts)

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
        assert six._int_view[0] == two_threes._int_view[0] == 1
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
        assert ints._int_view[0] == fractions._int_view[0] == 2
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
    for i, j in edge_dict(g):
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
    grid = m.entries
    out = [{j: grid[i][j] for j in range(m.n) if grid[i][j]} for i in range(m.n)]
    inc = [{i: grid[i][j] for i in range(m.n) if grid[i][j]} for j in range(m.n)]
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
        order, anchors = _similarity_index(b).tree
        gb = WeightedDigraph.from_matrix(b)
        sig_a = reference_signatures(*reference_edge_maps(a))
        sig_b = reference_signatures(*reference_edge_maps(b))
        assert order == reference_bfs_order(gb, lambda v: (sig_b.count(sig_b[v]), v))
        position = {v: k for k, v in enumerate(order)}
        grid_a, grid_b = a.entries, b.entries
        for v in range(b.n):
            earlier = [w for w in range(b.n) if (grid_b[v][w] or grid_b[w][v]) and position[w] < position[v]]
            assert anchors[v] in earlier if earlier else anchors[v] == -1
        # Every list of images the search draws: a root's is the vertices of
        # a with its signature, and any other v's is those of them on an
        # edge to or from its anchor's image x, the way b has v -> w or not.
        drawn = []

        def recording(order, anchors, candidates, consistent):
            def listed(v, w, x):
                images = list(candidates(v, w, x))
                drawn.append((v, w, x, images))
                return images
            return relabel(order, anchors, listed, consistent)

        with mock.patch.object(digraph, "_relabel", recording):
            find_similarity_permutation(a, b)
        for v, w, x, images in drawn:
            same = [u for u in range(a.n) if sig_a[u] == sig_b[v]]
            if w >= 0:
                same = [u for u in same if (grid_a[u][x] if grid_b[v][w] else grid_a[x][u])]
            assert images == same


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


ARC_II_12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
BARE_Q_CYCLES_12 = {(v, v - v % 4 + (v + 1) % 4): F(1) for v in range(12)}


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

    def test_three_bare_q_cycles_lack_the_s_cycle(self):
        # The order-12 arc's three 4-cycles with nothing joining them.
        report = cycle_structure_check(WeightedDigraph(12, BARE_Q_CYCLES_12), ARC_II_12)
        assert not report and report.lengths == (4,) and report.q_cycle_count == 3
        assert report.exactly_d_disjoint_equal is True
        assert report.problems == ("no cycle of length s=9",)

    def test_lone_s_cycle_lacks_the_q_cycle(self):
        edges = {(v, (v + 1) % 9): F(1) for v in range(9)}
        report = cycle_structure_check(WeightedDigraph(12, edges), ARC_II_12)
        assert not report and report.lengths == (9,)
        assert report.problems == ("no cycle of length q=4",)

    def test_q_cycle_counts_other_than_d(self):
        # Two of the three bare 4-cycles: fewer than d, so not "exactly d".
        two = {e: w for e, w in BARE_Q_CYCLES_12.items() if e[0] < 8}
        report = cycle_structure_check(WeightedDigraph(12, two), ARC_II_12)
        assert report.q_cycle_count == 2 and report.at_least_d_q_cycles is False
        assert report.exactly_d_disjoint_equal is None
        # d = 1 asks neither question.
        arc = arc_params(ArcType.TYPE_I, n=5, q=4)
        report = cycle_structure_check(WeightedDigraph.from_matrix(type1(5, 4, [F(1, 2), F(1, 2)])), arc)
        assert report.ok and report.at_least_d_q_cycles is None and report.exactly_d_disjoint_equal is None

    def test_d_q_cycles_of_equal_weight_sharing_a_vertex(self):
        # 2-cycles 0-1 and 1-2, each of weight 1/2, meet at vertex 1.
        arc = arc_params(ArcType.TYPE_III, q=2, d=2, y=1)
        edges = {(0, 1): 1, (1, 0): F(1, 2), (1, 2): F(1, 2), (2, 1): 1}
        report = cycle_structure_check(WeightedDigraph(5, edges), arc)
        assert report.q_cycle_count == 2 and report.exactly_d_disjoint_equal is False

    def test_disjoint_q_cycles_of_unequal_weight(self):
        # Exactly d = 2 disjoint 2-cycles, 0-1 of weight 1/2 and 2-3 of
        # weight 1/3, and the 5-cycle: allowed lengths, unequal weights.
        arc = arc_params(ArcType.TYPE_III, q=2, d=2, y=1)
        edges = {(0, 1): 1, (1, 0): F(1, 2), (1, 2): F(1, 2), (2, 3): 1, (3, 2): F(1, 3),
                 (3, 4): F(2, 3), (4, 0): 1}
        report = cycle_structure_check(WeightedDigraph(5, edges), arc)
        assert report.ok and report.lengths == (2, 5)
        assert report.q_cycle_count == 2 and report.at_least_d_q_cycles is True
        assert report.exactly_d_disjoint_equal is False


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

    def test_exact_text(self):
        # 1-based vertices, then the edges row by row, a loop and an empty
        # row included, each with its exact weight.
        g = WeightedDigraph(4, {(2, 1): 1, (0, 1): F(1, 2), (0, 0): F(1, 2), (1, 2): F(2, 3),
                                (1, 3): F(1, 3)})
        assert to_dot(g) == (
            "digraph gamma {\n  rankdir=LR;\n  1;\n  2;\n  3;\n  4;\n"
            '  1 -> 1 [label="1/2"];\n  1 -> 2 [label="1/2"];\n  2 -> 3 [label="2/3"];\n'
            '  2 -> 4 [label="1/3"];\n  3 -> 2 [label="1"];\n}\n'
        )


def test_cyclic_distance():
    assert cyclic_distance(15, 4, 8) == 4
    assert cyclic_distance(15, 14, 0) == 1
    assert cyclic_distance(15, 0, 0) == 0
