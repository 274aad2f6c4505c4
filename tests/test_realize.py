import random
import re
from dataclasses import fields, replace
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alarm, catalogue_arcs, cyclic_distance, order12_augmented, order12_sparsest
from karpelevic import digraph as digraph_module
from karpelevic import realize as realize_module
from karpelevic.algebra import RatPoly, StochMatrix, charpoly_exact, cyclic_shift_matrix
from karpelevic.digraph import (
    WeightedDigraph,
    cycle_structure_check,
    dd_support_check,
    find_similarity_permutation,
    simple_cycles,
)
from karpelevic.farey import ArcParams, ArcType, arc_params, arcs_of_order
from karpelevic.realize import (
    TypeIIIFamilySpec,
    TypeIIRealization,
    VerificationResult,
    build_sparsest,
    conjecture_probe,
    dd_band_index,
    enumerate_sparsest,
    type0,
    type1,
    type3_family,
    verify_realization,
)
from karpelevic.realize import _allowed_connectors, _clusters, _family_spec_of, _necklace_classes

F = Fraction

ARC_II = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
ARC_III = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)


class TestType0:
    def test_structure(self):
        m = type0(3, F(1, 2))
        assert m.entries[0][0] == F(1, 2) and m.entries[0][1] == F(1, 2)
        assert m.nnz() == 6

    def test_order_one(self):
        assert type0(1, F(1, 2)).entries == ((F(1),),)

    def test_charpoly(self):
        expected = RatPoly([F(-2, 3), 1]) ** 4 - RatPoly([F(1, 81)])
        assert charpoly_exact(type0(4, F(1, 3))) == expected

    def test_rejects_closed_interval(self):
        with pytest.raises(ValueError):
            type0(3, F(1))
        with pytest.raises(ValueError):
            type0(3, F(0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_order_below_one(self, n):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            type0(n, F(1, 2))

    @pytest.mark.parametrize("n", [4.0, True])
    def test_rejects_an_order_that_is_not_an_int(self, n):
        # 4.0 was a TypeError from range; True built the order-1 matrix.
        with pytest.raises(ValueError, match=f"^order must be an integer, got {n!r}$"):
            type0(n, F(1, 2))


class TestType1:
    def test_unit_weight_row_has_no_back_edge(self):
        m = type1(5, 4, [F(1, 3), F(1)])
        assert m.entries[1] == (0, 0, 1, 0, 0)
        assert m.nnz() == 6

    def test_example_shape(self):
        a1, a2 = F(1, 2), F(1, 3)
        m = type1(5, 4, [a1, a2])
        assert m.entries[0][1] == a1 and m.entries[0][2] == 1 - a1
        assert m.entries[1][2] == a2 and m.entries[1][3] == 1 - a2
        assert m.entries[2][3] == 1 and m.entries[3][4] == 1 and m.entries[4][0] == 1

    def test_sparsest_charpoly(self):
        m = type1(5, 4, [F(1, 6), F(1)])
        assert charpoly_exact(m) == RatPoly([F(-1, 6), F(-5, 6), 0, 0, 0, 1])
        assert m.nnz() == 6  # n + 1: an n-cycle plus the single back edge

    def test_small_case(self):
        m = type1(3, 2, [F(1, 2), F(1, 2)])
        assert charpoly_exact(m) == RatPoly([F(-1, 4), F(-3, 4), 0, 1])

    def test_polynomial_identity_in_alpha(self):
        # Sampling at n+1 distinct parameter values proves the coefficient
        # identity as polynomials in the parameter (degree at most n).
        n, q = 7, 4
        for k in range(n + 1):
            a = F(1, k + 2)
            m = type1(n, q, [a] + [F(1)] * (n - q))
            assert charpoly_exact(m) == RatPoly(
                [-a] + [0] * (n - q - 1) + [-(1 - a)] + [0] * (q - 1) + [1]
            )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            type1(6, 3, [F(1, 2)] * 4)  # 2q = n
        with pytest.raises(ValueError):
            type1(6, 4, [F(1, 2)] * 3)  # gcd(q, n) = 2
        with pytest.raises(ValueError):
            type1(5, 4, [F(1, 2)])  # wrong weight count
        with pytest.raises(ValueError):
            type1(5, 4, [F(1, 2), F(0)])  # zero weight


class TestType2:
    def test_paper_connector_positions(self):
        # (0,3,3): connectors (1,5), (8,12), (11,1) in 1-based labels.
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        assert base.connectors == (((0, 4),), ((7, 11),), ((10, 0),))
        base = TypeIIRealization.sparsest(ARC_II, (2, 2, 2))
        assert base.connectors == (((0, 4),), ((6, 10),), ((8, 2),))

    def test_matches_transcribed_fixtures(self):
        fixtures = order12_sparsest(F(1, 3))
        by_comp = {
            "A1": (0, 3, 3),
            "A2": (2, 2, 2),
            "A3": (1, 2, 3),
            "A4": (1, 3, 2),
        }
        for name, comp in by_comp.items():
            built = build_sparsest(ARC_II, F(1, 3), comp)
            assert find_similarity_permutation(built, fixtures[name]) is not None, name

    def test_small_case_charpoly(self):
        # n=4 arc between 1/3 and 1/2: (t^2 - b)^2 - a^2 t.
        for comp in ((1, 0), (0, 1)):
            m = build_sparsest(arc_params(ArcType.TYPE_II, q=2, d=2, z=1), F(1, 3), comp)
            expected = (RatPoly.monomial(2) - RatPoly([F(2, 3)])) ** 2 - RatPoly.monomial(1, F(1, 9))
            assert charpoly_exact(m) == expected

    def test_sparsest_entry_count(self):
        for q, d, z in [(3, 2, 1), (4, 3, 3), (5, 4, 2)]:
            arc = arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
            for comp in enumerate_sparsest(arc):
                m = build_sparsest(arc, F(1, 3), comp)
                assert m.nnz() == arc.n + d

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            TypeIIRealization.sparsest(ARC_II, (0, 3, 2))  # sums to 5
        with pytest.raises(ValueError, match=r"^parts must lie in 0\.\.3$"):
            TypeIIRealization.sparsest(ARC_II, (0, 4, 2))

    @pytest.mark.parametrize("arc, composition", [
        (ARC_III, (0, 0, 3)),
        (ARC_III, (0, 3, 3)),  # the type is checked before the composition
        (arc_params(ArcType.TYPE_0, n=5), ()),
        (arc_params(ArcType.TYPE_I, n=5, q=3), ()),
    ])
    def test_sparsest_rejects_other_types(self, arc, composition):
        with pytest.raises(ValueError, match=f"^the arc is {arc.type_tag}, not TypeII$"):
            TypeIIRealization.sparsest(arc, composition)

    def test_holds_its_arc_and_connectors(self):
        real = TypeIIRealization.sparsest(ARC_II, (0, 3, 3)).augmented((1, 5))
        assert [f.name for f in fields(TypeIIRealization)] == ["arc", "connectors"]
        assert real.arc == ARC_II
        assert real.connectors == (((0, 4), (1, 5)), ((7, 11),), ((10, 0),))
        assert [real.block_of(v) for v in (0, 3, 4, 11)] == [0, 0, 1, 2]


class TestType3:
    def test_alpha_row_positions(self):
        rows = {
            (0, 0, 3): [4, 8, 15],
            (0, 1, 2): [4, 9, 15],
            (0, 2, 1): [4, 10, 15],
            (1, 1, 1): [5, 10, 15],
        }
        for parts, expected in rows.items():
            m = build_sparsest(ARC_III, F(1, 2), parts)
            split = sorted(i + 1 for i in range(15) if m.entries[i][(i + 1) % 15] == F(1, 2))
            assert split == expected

    def test_charpoly(self):
        m = build_sparsest(ARC_III, F(1, 3), (0, 1, 2))
        expected = (RatPoly.monomial(4) - RatPoly([F(2, 3)])) ** 3
        expected = expected.shift(3) - RatPoly([F(1, 27)])
        assert charpoly_exact(m) == expected

    def test_sparsest_entry_count(self):
        for q, d, y in [(3, 2, 1), (4, 3, 3), (5, 4, 4)]:
            arc = arc_params(ArcType.TYPE_III, q=q, d=d, y=y)
            for comp in enumerate_sparsest(arc):
                m = build_sparsest(arc, F(1, 2), comp)
                assert m.nnz() == arc.n + d

    def test_family_degenerate_blocks_match_sparsest(self):
        # Singleton blocks at the sparsest positions reproduce the sparsest matrix.
        parts = (0, 1, 2)
        sparse = build_sparsest(ARC_III, F(1, 2), parts)
        positions = [i for i in range(15) if sparse.entries[i][(i + 1) % 15] == F(1, 2)]
        spec = TypeIIIFamilySpec(n=15, q=4, weights={p: F(1, 2) for p in positions})
        assert set(spec.blocks) == {frozenset({p}) for p in positions}
        assert type3_family(spec) == sparse

    def test_family_paper_examples(self):
        # First order-15 family example: paired blocks {4,5}, {9,10}, {14,15}.
        a, a1 = F(1, 2), F(9, 10)
        spec = TypeIIIFamilySpec(
            n=15, q=4, weights={3: a1, 4: a / a1, 8: a1, 9: a / a1, 13: a1, 14: a / a1}
        )
        assert (spec.d, spec.y) == (3, 3)
        assert spec.blocks == (frozenset({3, 4}), frozenset({8, 9}), frozenset({13, 14}))
        m = type3_family(spec)
        assert bool(verify_realization(m, ARC_III, a))
        # Second example: one long block {4,5,6,7} plus singletons {11}, {15}.
        spec2 = TypeIIIFamilySpec(
            n=15, q=4, weights={3: a1, 4: a1, 5: a1, 6: a / a1 ** 3, 10: a, 14: a}
        )
        assert spec2.blocks == (frozenset({3, 4, 5, 6}), frozenset({10}), frozenset({14}))
        assert bool(verify_realization(type3_family(spec2), ARC_III, a))

    def test_family_validation(self):
        half = F(1, 2)
        with pytest.raises(ValueError):  # rows 3 and 5 closer than q: two blocks, not d = 3
            TypeIIIFamilySpec(n=15, q=4, weights={3: half, 5: half, 10: half})
        with pytest.raises(ValueError):  # block products differ
            TypeIIIFamilySpec(n=15, q=4, weights={3: half, 4: half, 8: half, 13: half})
        with pytest.raises(ValueError):  # rows 8, 11 and 14 chain into one block: two blocks
            TypeIIIFamilySpec(n=15, q=4, weights={3: half, 8: half, 11: half, 14: half})

    @pytest.mark.parametrize("n, q, weights, message", [
        (15, 1, {3: F(1, 2)}, r"need q >= 2"),
        (15, 0, {3: F(1, 2)}, r"need q >= 2"),
        (12, 4, {3: F(1, 2)}, r"need n = q\*d \+ y with d >= 2 and y in 1\.\.q-1"),  # y = 0
        (7, 4, {3: F(1, 2)}, r"need n = q\*d \+ y with d >= 2 and y in 1\.\.q-1"),  # d = 1
        (15, 4, {3: F(1, 2), 8: F(1, 2), 15: F(1, 2)}, r"block vertices out of range"),
        (15, 4, {-1: F(1, 2), 3: F(1, 2), 8: F(1, 2)}, r"block vertices out of range"),
    ])
    def test_family_shape_checks(self, n, q, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TypeIIIFamilySpec(n=n, q=q, weights=weights)

    @pytest.mark.parametrize("n, q, weights, message", [
        # 15.0 once gave a spec with d = 3.0; 3.5 was read as vertex 3.
        (15.0, 4, {3: F(1, 2), 8: F(1, 2), 13: F(1, 2)}, "order must be an integer, got 15.0"),
        (15, 4.0, {3: F(1, 2), 8: F(1, 2), 13: F(1, 2)}, "q must be an integer, got 4.0"),
        (15, 4, {3.5: F(1, 2), 8: F(1, 2), 13: F(1, 2)}, "block vertex must be an integer, got 3.5"),
    ])
    def test_family_integers_are_ints(self, n, q, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TypeIIIFamilySpec(n=n, q=q, weights=weights)

    @pytest.mark.parametrize("arc, parts", [
        (ARC_III, (0.0, 1, 2)),  # was a TypeError from list indexing
        (ARC_II, (0, 3.0, 3)),
    ], ids=["III", "II"])
    def test_composition_parts_are_ints(self, arc, parts):
        with pytest.raises(ValueError, match="^composition part must be an integer, got "):
            build_sparsest(arc, F(1, 2), parts)


class TestEnumerate:
    def test_order12(self):
        comps = enumerate_sparsest(ARC_II)
        assert comps == [(0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 2, 2)]

    def test_order15(self):
        comps = enumerate_sparsest(ARC_III)
        assert comps == [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 1, 1)]

    def test_small_type3(self):
        arc = arc_params(ArcType.TYPE_III, q=3, d=2, y=1)
        comps = enumerate_sparsest(arc)
        assert comps == [(0, 1)]

    def test_type0_and_type1_single_class(self):
        assert len(enumerate_sparsest(arc_params(ArcType.TYPE_0, n=5))) == 1
        assert len(enumerate_sparsest(arc_params(ArcType.TYPE_I, n=5, q=4))) == 1

    def test_empty_placeholder_is_canonical(self):
        # The one class of a Type 0/I arc is the empty composition, which
        # has no rotation to take the minimum of.
        for arc in (arc_params(ArcType.TYPE_0, n=4), arc_params(ArcType.TYPE_I, n=5, q=4)):
            (placeholder,) = enumerate_sparsest(arc)
            assert placeholder == ()
            assert canonical(placeholder) == placeholder

    def test_dedup_consistent_with_similarity_order12(self):
        # Rotation classes coincide with permutation-similarity classes.
        arc = ARC_II
        comps = _compositions(arc.n - arc.z - arc.d, arc.d, arc.q)
        mats = {c: build_sparsest(ARC_II, F(1, 3), c) for c in comps}
        for c1 in comps:
            for c2 in comps:
                same_class = canonical(c1) == canonical(c2)
                similar = find_similarity_permutation(mats[c1], mats[c2]) is not None
                assert similar == same_class

    def test_dedup_consistent_with_similarity_order15(self):
        arc = ARC_III
        comps = _compositions(arc.y, arc.d, arc.q)
        mats = {c: build_sparsest(ARC_III, F(1, 3), c) for c in comps}
        for c1 in comps:
            for c2 in comps:
                same_class = canonical(c1) == canonical(c2)
                similar = find_similarity_permutation(mats[c1], mats[c2]) is not None
                assert similar == same_class

    def test_requires_full_degree(self):
        # An order-13 arc with q=4, s=11 reduces to degree 12 < 13.
        arc = ArcParams(13, 1, 4, 3, 11)  # 1/4-3/11
        assert arc.type_tag is ArcType.TYPE_II and arc.reduced_degree == 12
        with pytest.raises(ValueError):
            enumerate_sparsest(arc)

    def test_build_requires_full_degree(self):
        """On every arc of orders 2..16 whose reduced degree falls short of
        n, build_sparsest refuses each class of the same arc at full degree,
        as enumerate_sparsest refuses the arc."""
        short = [arc for n in range(2, 17) for arc in arcs_of_order(n) if arc.reduced_degree != arc.n]
        assert {arc.type_tag for arc in short} == {ArcType.TYPE_I, ArcType.TYPE_II, ArcType.TYPE_III}
        for arc in short:
            with pytest.raises(ValueError):
                enumerate_sparsest(arc)
            for composition in enumerate_sparsest(replace(arc, n=arc.reduced_degree)):
                with pytest.raises(ValueError):
                    build_sparsest(arc, F(1, 3), composition)


def _compositions(total, length, bound):
    import itertools

    return [
        parts
        for parts in itertools.product(range(bound), repeat=length)
        if sum(parts) == total
    ]


def canonical(parts):
    """The lexicographically minimal cyclic rotation; () is its own."""
    return min((parts[k:] + parts[:k] for k in range(len(parts))), default=parts)


def _bounded_count(total, length, bound):
    """Compositions of total into length parts in 0..bound-1, by dynamic programming."""
    ways = [1] + [0] * total
    for _ in range(length):
        ways = [sum(ways[t - k] for k in range(min(bound - 1, t) + 1)) for t in range(total + 1)]
    return ways[total]


def _burnside(total, length, bound):
    """Necklace classes as the average over rotations k of the compositions k fixes.

    Rotation by k fixes exactly the compositions of period g = gcd(k, length),
    which repeat a g-part composition of total*g/length.
    """
    fixed = 0
    for k in range(length):
        g = gcd(k, length)
        if total * g % length == 0:
            fixed += _bounded_count(total * g // length, g, bound)
    assert fixed % length == 0
    return fixed // length


class TestBuildSparsestAlpha:
    def test_alpha_outside_the_open_interval(self):
        # One arc of each type; the check is build_sparsest's own, not a
        # builder's weight check.
        arcs = [arc_params(ArcType.TYPE_0, n=4), arc_params(ArcType.TYPE_I, n=5, q=4), ARC_II, ARC_III]
        for arc in arcs:
            composition = enumerate_sparsest(arc)[0]
            for alpha in (F(0), F(1), F(3, 2)):
                with pytest.raises(ValueError) as info:
                    build_sparsest(arc, alpha, composition)
                assert str(info.value) == f"parameter must lie strictly between 0 and 1, got {alpha}"


class TestNecklaceClasses:
    @pytest.mark.parametrize("bound", range(1, 7))
    @pytest.mark.parametrize("length", range(1, 7))
    def test_against_brute_force_and_burnside(self, bound, length):
        for total in range(length * (bound - 1) + 1):
            brute = sorted({min(p[k:] + p[:k] for k in range(length))
                            for p in _compositions(total, length, bound)})
            classes = _necklace_classes(total, length, bound)
            assert classes == brute
            assert len(classes) == _burnside(total, length, bound)

    def test_totals_out_of_reach(self):
        # Types 0 and I take the one empty composition; no parts sum to any
        # other total, and parts below the bound to none past length * (bound - 1).
        assert _necklace_classes(0, 0, 3) == [()]
        assert _necklace_classes(2, 0, 3) == []
        # With no part values at all, only the empty word is left.
        assert _necklace_classes(0, 0, 0) == [()]
        assert _necklace_classes(0, 3, 0) == []
        for length in (1, 2, 5):
            assert _necklace_classes(-1, length, 3) == []
            assert _necklace_classes(2 * length + 1, length, 3) == []

    def test_long_compositions_with_small_totals(self):
        # Every part but the last leaves at least 1 for it, so no zero tail
        # is walked; walking one part by part took about a minute here.
        with alarm(5.0, "necklace walk over a zero tail took too long"):
            classes = enumerate_sparsest(arc_params(ArcType.TYPE_III, q=3, d=1000, y=2))
            single = enumerate_sparsest(arc_params(ArcType.TYPE_III, q=2, d=5000, y=1))
        assert len(classes) == 501 and classes == sorted(classes)
        # Parts are 0..2, so each class compares as bytes: a slice of the
        # doubled word is a rotation, without building 1,000-part tuples.
        words = [bytes(c) for c in classes]
        assert all(min((b + b)[k:k + len(b)] for k in range(len(b))) == b for b in words)
        assert single == [(0,) * 4999 + (1,)]

    def test_reversal_is_another_class(self):
        # (0,1,2) reversed is (2,1,0), whose necklace is (0,2,1): a reflection
        # is not a rotation, and the two realizations are not similar.
        comps = enumerate_sparsest(ARC_III)
        assert (0, 1, 2) in comps and (0, 2, 1) in comps
        m = build_sparsest(ARC_III, F(1, 3), (0, 1, 2))
        reflected = build_sparsest(ARC_III, F(1, 3), (2, 1, 0))
        assert find_similarity_permutation(m, reflected) is None


class TestSparsestCycleWeights:
    def test_d_disjoint_q_cycles_of_weight_beta(self):
        cases = [
            (ARC_II, build_sparsest(ARC_II, F(1, 3), (1, 2, 3))),
            (ARC_III, build_sparsest(ARC_III, F(1, 7), (0, 2, 1))),
            (
                arc_params(ArcType.TYPE_III, q=3, d=2, y=1),
                build_sparsest(
                    arc_params(ArcType.TYPE_III, q=3, d=2, y=1), F(1, 2), (0, 1)
                ),
            ),
        ]
        for arc, (alpha, m) in zip(
            [c[0] for c in cases],
            [(F(1, 3), cases[0][1]), (F(1, 7), cases[1][1]), (F(1, 2), cases[2][1])],
        ):
            report = simple_cycles(WeightedDigraph.from_matrix(m))
            q_cycles = report[arc.q]
            assert len(q_cycles) == arc.d
            seen = set()
            for cyc, w in q_cycles:
                assert w == 1 - alpha
                assert not (seen & set(cyc))
                seen |= set(cyc)


class TestVerify:
    def test_constructors_verify(self):
        assert bool(verify_realization(type0(5, F(1, 4)), arc_params(ArcType.TYPE_0, n=5), F(1, 4)))
        a1 = order12_sparsest(F(1, 3))["A1"]
        assert bool(verify_realization(a1, ARC_II, F(1, 3)))

    def test_tampered_matrix_fails(self):
        a1 = order12_sparsest(F(1, 3))["A1"]
        rows = [list(r) for r in a1.entries]
        # halve the connector weight, roll the difference into the cycle edge
        rows[0][4] = F(1, 6)
        rows[0][1] = F(5, 6)
        bad = StochMatrix(rows)
        result = verify_realization(bad, ARC_II, F(1, 3))
        assert not result
        assert "MISMATCH" in result.describe()

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            verify_realization(type0(4, F(1, 2)), ARC_II, F(1, 2))

    def test_mismatch_skips_the_cycle_report(self):
        """The uniform order-12 matrix's digraph is complete, with loops:
        enumerating its simple cycles runs far past the alarm, and its
        polynomial t^11 (t - 1) is not the arc's, so none is made.  A
        matching matrix gets the full report."""
        uniform = StochMatrix([[F(1, 12)] * 12 for _ in range(12)])
        with alarm(5.0, "verify_realization enumerated the cycles of a dense matrix"):
            result = verify_realization(uniform, ARC_II, F(1, 3))
        assert not result and result.cycle_report is None
        assert result.describe() == "charpoly MISMATCH; cycle structure not checked"
        a1 = order12_sparsest(F(1, 3))["A1"]
        result = verify_realization(a1, ARC_II, F(1, 3))
        assert result.cycle_report == cycle_structure_check(WeightedDigraph.from_matrix(a1), ARC_II)
        assert result.describe() == "charpoly exact match; cycle structure ok (lengths [4, 9], 3 q-cycles)"

    def test_describe_names_a_bad_cycle_structure(self):
        # The order-12 arc's three 4-cycles with nothing joining them.
        g = WeightedDigraph(12, {(v, v - v % 4 + (v + 1) % 4): F(1) for v in range(12)})
        result = VerificationResult(True, cycle_structure_check(g, ARC_II))
        assert result.describe() == "charpoly exact match; cycle structure BAD: no cycle of length s=9"


class TestVerifyProperty:
    SMALL_ARCS = [
        arc_params(kind, q=q, d=d, **{key: x})
        for q in range(2, 7)
        for d in range(2, 5)
        for x in range(1, q)
        if gcd(q, x) == 1
        for kind, key in ((ArcType.TYPE_II, "z"), (ArcType.TYPE_III, "y"))
    ]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_class_passes_both_checks(self, data):
        arc = data.draw(st.sampled_from(self.SMALL_ARCS))
        composition = data.draw(st.sampled_from(enumerate_sparsest(arc)))
        den = data.draw(st.integers(2, 200))
        alpha = F(data.draw(st.integers(1, den - 1)), den)
        result = verify_realization(build_sparsest(arc, alpha, composition), arc, alpha)
        assert result.charpoly_ok and result.cycle_report.ok, result.describe()


class TestDDSupport:
    def test_type0_band(self):
        m = type0(4, F(1, 3))
        assert dd_band_index(arc_params(ArcType.TYPE_0, n=4)) == 0
        sigma = dd_support_check(m, 0)
        assert sigma is not None

    def test_order12_band(self):
        # The (2/9, 1/4) arc sits in the angular window [2/12, 3/12], so
        # the band index is 2 (p*d - 1 here: 1/4 is the arc's upper
        # endpoint).  A 9-cycle cannot fit offsets {3, 4} at all: nine
        # steps of 3 or 4 cannot sum to a multiple of 12 without repeats.
        arc = ArcParams(12, 1, 4, 2, 9)  # 2/9-1/4
        k = dd_band_index(arc)
        assert k == 2
        a1 = order12_sparsest(F(1, 3))["A1"]
        sigma = dd_support_check(a1, k)
        assert sigma is not None
        relabelled = a1.permuted(sigma)
        for i in range(12):
            for j in range(12):
                if relabelled.entries[i][j] != 0:
                    assert (j - i) % 12 in (k, k + 1)
        assert dd_support_check(a1, 3) is None

    def test_band_index_orientations(self):
        # Synthesized arc with the same (q, s): p/q = 3/4 is the lower
        # endpoint, so the index is p*d = 9.
        assert dd_band_index(ARC_II) == 9
        m = build_sparsest(ARC_II, F(1, 3), (0, 3, 3))
        sigma = dd_support_check(m, 9)
        assert sigma is not None

    def test_wrong_band_rejected(self):
        # A self loop forces offset 0 into the band, so the lazy cycle
        # walk cannot sit on offsets {2, 3}.  (A bare 4-cycle fits ANY
        # band with a unit: relabelling by reversal puts it on offset 3,
        # which is the same fact as C4 being similar to its transpose.)
        assert dd_support_check(type0(4, F(1, 3)), 2) is None
        assert dd_support_check(cyclic_shift_matrix(4), 2) is not None


class TestAugment:
    def test_full_block_pair_fill(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        r = base
        for e in [(1, 5), (2, 6), (3, 7)]:
            r = r.augmented(e)
        assert r.free_parameters() == ["alpha_1", "alpha_2", "alpha_3"]
        m = r.instantiate(F(1, 2), {f"alpha_{i}": F(9, 10) for i in (1, 2, 3)})
        assert m.entries[3][0] == F(500, 729)
        assert bool(verify_realization(m, ARC_II, F(1, 2)))
        assert m == order12_augmented(F(1, 2), F(9, 10))["A11"]

    @pytest.mark.parametrize("edge", [(True, 5), (1.0, 5), (1, 5.0)], ids=["bool", "float", "float-dst"])
    def test_non_integer_vertex_rejected(self, edge):
        # (1, 5) is a candidate connector of block 0, and True, 1.0 and 5.0
        # hash and compare as 1 and 5 in the candidate set.
        bad = next(v for v in edge if type(v) is not int)
        with pytest.raises(ValueError) as exc:
            TypeIIRealization.sparsest(ARC_II, (0, 3, 3)).augmented(edge)
        assert str(exc.value) == f"edge {edge} vertex must be an integer, got {bad!r}"

    def test_list_edge_is_the_pair(self):
        # A list once compared unequal to every candidate tuple: [1, 5] was
        # "not a candidate connector" though (1, 5) is one.
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        assert base.augmented([1, 5]) == base.augmented((1, 5))
        with pytest.raises(ValueError) as exc:
            base.augmented([0, 9])
        assert str(exc.value) == "edge (0, 9) is not a candidate connector from block 0 to block 1"

    @pytest.mark.parametrize("edge", [(1, 5, 6), (1,), [], 5, "15", {1: 5}],
                             ids=["triple", "single", "empty", "int", "str", "dict"])
    def test_edge_must_be_a_pair(self, edge):
        # A triple or a single once failed in unpacking, with no edge named.
        with pytest.raises(ValueError) as exc:
            TypeIIRealization.sparsest(ARC_II, (0, 3, 3)).augmented(edge)
        assert str(exc.value) == f"edge must be a (source, target) pair of vertices, got {edge!r}"

    def test_middle_pair_always_rejected(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        for edge in [(4, 8), (5, 9), (6, 10)]:
            with pytest.raises(ValueError, match="rejected"):
                base.augmented(edge)

    def test_last_pair_fill(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        r = base
        for e in [(8, 2), (9, 3), (11, 1)]:
            r = r.augmented(e)
        m = r.instantiate(F(1, 2), {f"alpha_{i}": F(9, 10) for i in (9, 10, 11)})
        assert bool(verify_realization(m, ARC_II, F(1, 2)))
        assert m == order12_augmented(F(1, 2), F(9, 10))["A12"]

    def test_mixed_fill(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        r = base
        for e in [(1, 5), (8, 2), (9, 3)]:
            r = r.augmented(e)
        m = r.instantiate(
            F(1, 2), {"alpha_1": F(9, 10), "alpha_9": F(9, 10), "alpha_10": F(9, 10)}
        )
        assert bool(verify_realization(m, ARC_II, F(1, 2)))
        assert m == order12_augmented(F(1, 2), F(9, 10))["A13"]

    def test_augment_preserves_charpoly_generally(self):
        arc = arc_params(ArcType.TYPE_II, q=3, d=2, z=2)
        base = TypeIIRealization.sparsest(arc, (1, 1))
        allowed = []
        for i in range(3):
            for edge in [(i, 3 + i)]:
                if edge not in base.connectors[0]:
                    allowed.append(edge)
        r = base
        accepted = 0
        for edge in allowed:
            try:
                r = r.augmented(edge)
                accepted += 1
            except ValueError:
                continue
        for a in (F(1, 3), F(1, 2)):
            if not r.free_parameters():
                m = r.instantiate(a)
            else:
                m = r.instantiate(a, {name: F(9, 10) for name in r.free_parameters()})
            assert bool(verify_realization(m, arc, a))

    def test_infeasible_instantiation(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        r = base.augmented((1, 5))
        with pytest.raises(ValueError, match="infeasible"):
            r.instantiate(F(1, 2), {"alpha_1": F(1, 10)})

    def test_dependent_weight_of_1_is_infeasible(self):
        # alpha_1 = 1 - alpha leaves vertex 2 the weight (1 - alpha)/alpha_1
        # = 1, the closed end of (0, 1).
        r = TypeIIRealization.sparsest(ARC_II, (0, 3, 3)).augmented((1, 5))
        with pytest.raises(ValueError) as info:
            r.instantiate(F(1, 2), {"alpha_1": F(1, 2)})
        assert str(info.value) == "infeasible: the dependent weight at vertex 2 is 1, outside (0, 1)"

    def test_duplicate_and_foreign_edges(self):
        base = TypeIIRealization.sparsest(ARC_II, (0, 3, 3))
        with pytest.raises(ValueError, match="already present"):
            base.augmented((0, 4))
        with pytest.raises(ValueError, match="not a candidate"):
            base.augmented((0, 9))


class TestSparsestCycleLengths:
    def test_every_sparsest_class_has_only_q_and_n_minus_z_cycles(self):
        """Each sparsest Type II build is d q-cycles and long cycles of
        length n - z only, over every class with q <= 7 and d <= 5."""
        for q in range(2, 8):
            for d in range(2, 6):
                for z in range(1, q):
                    if gcd(q, z) != 1:
                        continue
                    arc = arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
                    for comp in enumerate_sparsest(arc):
                        m = build_sparsest(arc, F(1, 3), comp)
                        report = simple_cycles(WeightedDigraph.from_matrix(m))
                        assert set(report) == {q, q * d - z}, (arc, comp)


class TestSparsestConnectors:
    def test_each_connector_is_a_candidate(self):
        """Block t's sparsest connector lies in _allowed_connectors(q, d, z, t),
        and the wrap-around one ends at (q - parts[0]) mod q, over every
        class with q <= 7 and d <= 5."""
        for q in range(2, 8):
            for d in range(2, 6):
                for z in range(1, q):
                    if gcd(q, z) != 1:
                        continue
                    arc = arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
                    for comp in enumerate_sparsest(arc):
                        conns = TypeIIRealization.sparsest(arc, comp).connectors
                        for t, (edge,) in enumerate(conns):
                            assert edge in _allowed_connectors(q, d, z, t), (q, d, z, comp, t)
                        assert conns[-1][0][1] == (q - comp[0]) % q


class TestAugmentProperty:
    """TypeIIRealization.augmented reads the length law off the cycles of the unweighted
    skeleton; checked here against the cycles of the instantiated weighted
    digraph, long cycles counted too."""

    ARCS = [
        arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
        for q in range(2, 7)
        for d in range(2, 5)
        for z in range(1, q)
        if gcd(q, z) == 1
    ]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_accepted_connectors_keep_long_cycles_at_n_minus_z(self, data):
        arc = data.draw(st.sampled_from(self.ARCS))
        q, d, z = arc.q, arc.d, arc.z
        real = TypeIIRealization.sparsest(arc, data.draw(st.sampled_from(enumerate_sparsest(arc))))
        candidates = [e for t in range(d) for e in _allowed_connectors(q, d, z, t)]
        for edge in data.draw(st.lists(st.sampled_from(candidates), max_size=2 * q * d)):
            try:
                real = real.augmented(edge)
            except ValueError:
                pass  # rejected by the length law, or already present
        # At most q - 1 free weights per block, each >= 9/10, multiply to more
        # than 1 - alpha <= 1/2, so every dependent weight lies in (0, 1).
        alpha = F(data.draw(st.integers(50, 99)), 100)
        free = {name: F(data.draw(st.integers(90, 99)), 100) for name in real.free_parameters()}
        report = simple_cycles(WeightedDigraph.from_matrix(real.instantiate(alpha, free)))
        n = q * d
        assert set(report) <= {q, n - z}
        assert len(report.get(n - z, [])) == prod(len(c) for c in real.connectors)


class TestProbe:
    def test_sparsest_found(self):
        m = build_sparsest(ARC_III, F(1, 2), (0, 0, 3))
        found = conjecture_probe(m, ARC_III, F(1, 2))
        assert found is not None
        spec, permutation = found
        assert len(spec.blocks) == 3
        assert permutation == tuple(range(15))

    def test_family_found_after_relabelling(self):
        a, a1 = F(1, 2), F(9, 10)
        spec = TypeIIIFamilySpec(
            n=15, q=4, weights={3: a1, 4: a1, 5: a1, 6: a / a1 ** 3, 10: a, 14: a}
        )
        m = type3_family(spec)
        rng = random.Random(13)
        perm = list(range(15))
        rng.shuffle(perm)
        found = conjecture_probe(m.permuted(perm), ARC_III, a)
        assert found is not None
        assert found[0].alpha == a

    def test_gate_on_bad_matrix(self):
        bad = build_sparsest(ARC_III, F(1, 3), (0, 0, 3))
        with pytest.raises(ValueError):
            conjecture_probe(bad, ARC_III, F(1, 2))  # wrong parameter

    def test_refuses_other_arc_types(self):
        m = build_sparsest(ARC_II, F(1, 3), (0, 3, 3))
        with pytest.raises(ValueError, match="^the probe applies to Type III arcs only$"):
            conjecture_probe(m, ARC_II, F(1, 3))

    @pytest.mark.parametrize("weights", [
        {3: F(1, 2), 4: F(1, 2), 8: F(1, 2), 13: F(1, 2)},  # block products differ
        {3: F(1, 2), 5: F(1, 2), 10: F(1, 2)},  # two blocks, not d = 3
    ])
    def test_reader_gives_none_on_weights_outside_the_family(self, weights):
        m = realize_module._cycle_with_back_edges(15, 4, weights)
        assert _family_spec_of(m, 15, 4) is None

    def test_small_probe(self):
        arc = arc_params(ArcType.TYPE_III, q=3, d=2, y=1)
        m = build_sparsest(arc, F(1, 3), (0, 1))
        assert conjecture_probe(m, arc, F(1, 3)) is not None

    def test_cycles_never_enumerated(self, monkeypatch):
        def refuse(g):
            raise AssertionError("the probe enumerated cycles")

        monkeypatch.setattr(digraph_module, "simple_cycles", refuse)
        monkeypatch.setattr(realize_module, "simple_cycles", refuse)
        m = build_sparsest(ARC_III, F(1, 2), (0, 0, 3))
        perm = list(range(15))
        random.Random(5).shuffle(perm)
        for matrix in (m, m.permuted(perm)):
            assert conjecture_probe(matrix, ARC_III, F(1, 2)) is not None

    def test_not_found_when_no_spec_is_read(self, monkeypatch):
        # No matrix known to pass the gate lies outside family form (the
        # open question of a non-family realization), so a fake reader
        # stands in for one: the probe reports no relabelling.
        monkeypatch.setattr(realize_module, "_family_spec_of", lambda m, n, q: None)
        m = build_sparsest(ARC_III, F(1, 2), (0, 0, 3))
        assert conjecture_probe(m, ARC_III, F(1, 2)) is None


TYPE3_ARCS_TO_20 = [
    arc_params(ArcType.TYPE_III, q=q, d=d, y=y)
    for q in range(2, 10)
    for d in range(2, 10)
    for y in range(1, q)
    if gcd(q, y) == 1 and q * d + y <= 20
]


def probe_matrices(seed=7, members=6):
    """(arc, alpha, matrix): the sparsest classes of every Type III arc with
    n <= 20 and family members grown from them, each relabelled at random."""
    rng = random.Random(seed)
    a, w = F(1, 3), F(9, 10)
    for arc in TYPE3_ARCS_TO_20:
        n, q = arc.n, arc.q
        for comp in enumerate_sparsest(arc):
            m = build_sparsest(arc, a, comp)
            found = [m]
            rows = [i for i, row in enumerate(m.sparse_rows) if len(row) == 2]
            for _ in range(members):
                # Grow each block back from its row; every step weight is
                # 9/10 but the row's own, which restores the product a.
                blocks = [[(r - k) % n for k in range(1 + rng.randrange(q))] for r in rows]
                weights = {v: w for block in blocks for v in block}
                weights.update({block[0]: a / w ** (len(block) - 1) for block in blocks})
                try:
                    spec = TypeIIIFamilySpec(n=n, q=q, weights=weights)
                except ValueError:
                    continue  # blocks grown too close together
                found.append(type3_family(spec))
            for m in found:
                perm = list(range(n))
                rng.shuffle(perm)
                yield arc, a, m.permuted(perm)


def probe_by_rotations(m, arc):
    """A search over every (n-cycle, rotation) pair: the first hit, as
    (spec, ordering), or None."""
    n = arc.n
    for cyc, _ in simple_cycles(WeightedDigraph.from_matrix(m)).get(n, []):
        for rot in range(n):
            ordering = cyc[rot:] + cyc[:rot]
            spec = _family_spec_of(m.permuted(list(ordering)), n, arc.q)
            if spec is not None:
                return spec, ordering
    return None


@pytest.fixture(scope="module")
def probe_cases():
    return list(probe_matrices())


class TestProbeRotations:
    def test_cases_include_grown_families(self, probe_cases):
        grown = [m for arc, _, m in probe_cases if sum(len(row) == 2 for row in m.sparse_rows) > arc.d]
        assert len(grown) >= 40

    def test_family_form_is_rotation_invariant(self, probe_cases):
        """Rotating the labels along an n-cycle by r moves every block vertex
        from slot v to v - r, or keeps the matrix out of family form."""
        for arc, _, m in probe_cases:
            n = arc.n
            for cyc, _ in simple_cycles(WeightedDigraph.from_matrix(m)).get(n, []):
                spec0 = _family_spec_of(m.permuted(list(cyc)), n, arc.q)
                for rot in range(1, n):
                    ordering = cyc[rot:] + cyc[:rot]
                    spec = _family_spec_of(m.permuted(list(ordering)), n, arc.q)
                    assert (spec is None) == (spec0 is None), (arc, cyc, rot)
                    if spec is not None:
                        shifted = {frozenset((v - rot) % n for v in b) for b in spec0.blocks}
                        assert set(spec.blocks) == shifted
                        assert spec.weights == {(v - rot) % n: x for v, x in spec0.weights.items()}

    def test_probe_matches_the_rotation_search(self, probe_cases):
        for arc, a, m in probe_cases:
            assert conjecture_probe(m, arc, a) == probe_by_rotations(m, arc)


def reference_spec_check(n, q, d, y, blocks, weights):
    """Test-only reference: the family rule checked pair by pair, within
    each block (distance below q) and across every two blocks (distance at
    least q).  Raises ValueError where TypeIIIFamilySpec must."""
    blocks = [frozenset(b) for b in blocks]
    weights = {v: F(w) for v, w in weights.items()}
    if n != q * d + y or not (1 <= y <= q - 1) or d < 2 or len(blocks) != d:
        raise ValueError("bad shape")
    members = [v for block in blocks for v in block]
    if len(members) != len(set(members)) or not all(blocks):
        raise ValueError("blocks must be nonempty and pairwise disjoint")
    if any(not 0 <= v < n for v in members):
        raise ValueError("block vertices out of range")
    for block in blocks:
        if any(cyclic_distance(n, i, j) >= q for i in block for j in block):
            raise ValueError("in-block distance >= q")
    for t, bt in enumerate(blocks):
        for bu in blocks[t + 1:]:
            if any(cyclic_distance(n, i, j) < q for i in bt for j in bu):
                raise ValueError("cross-block distance < q")
    if set(weights) != set(members) or not all(0 < w < 1 for w in weights.values()):
        raise ValueError("bad weights")
    if len({prod(weights[v] for v in block) for block in blocks}) != 1:
        raise ValueError("block weight products differ")


def reference_blocks(n, q, sources):
    """Test-only reference: the components of "circular distance < q" on
    the sources, by breadth-first search over the adjacency set, each seeded
    at its least vertex."""
    adjacency = {(i, j) for i in sources for j in sources if i != j and cyclic_distance(n, i, j) < q}
    blocks = []
    remaining = set(sources)
    while remaining:
        seed = min(remaining)
        block, frontier = {seed}, [seed]
        while frontier:
            v = frontier.pop()
            for u in list(remaining - block):
                if (v, u) in adjacency:
                    block.add(u)
                    frontier.append(u)
        blocks.append(frozenset(block))
        remaining -= block
    return blocks


def reference_family_spec_of(m, n, q, d, y):
    """Test-only reference: the family spec of a matrix aligned to the
    standard n-cycle, read row by row, or None."""
    weights = {}
    for i, row in enumerate(m.sparse_rows):
        step, back = (i + 1) % n, (i + 1 - q) % n
        if len(row) == 1 and row[0] == (step, 1):
            continue
        entries = dict(row)
        if len(row) != 2 or set(entries) != {step, back} or not 0 < entries[step] < 1:
            return None
        weights[i] = entries[step]
    blocks = reference_blocks(n, q, list(weights))
    if not weights or len(blocks) != d:
        return None
    try:
        spec = TypeIIIFamilySpec(n=n, q=q, weights=weights)
    except ValueError:
        return None
    assert (spec.d, spec.y, set(spec.blocks)) == (d, y, set(blocks))
    return spec


@st.composite
def family_block_sets(draw):
    """(n, q, d, y, blocks, weights): d blocks, each one spanning at most
    y vertices or, one time in eight, q or more, laid out round the circle
    at gaps near q, so that both verdicts and every kind of rejection are
    common; every block's weights multiply to 1/3."""
    q = draw(st.integers(2, 7))
    d = draw(st.integers(2, 4))
    y = draw(st.integers(1, q - 1))
    n = q * d + y
    start, blocks = draw(st.integers(0, n - 1)), []
    for _ in range(d):
        wide = draw(st.integers(0, 7)) == 0
        span = draw(st.integers(q, 2 * q - 1) if wide else st.integers(0, y))
        inner = draw(st.sets(st.integers(1, span - 1))) if span > 1 else set()
        blocks.append([(start + k) % n for k in sorted({0, span} | inner)])
        start += span + draw(st.sampled_from([q - 1, q, q, q + 1]))
    a, w = F(1, 3), F(9, 10)
    weights = {v: w for block in blocks for v in block}
    weights.update({block[0]: a / w ** (len(block) - 1) for block in blocks})
    return n, q, d, y, blocks, weights


def accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


class TestFamilyBlockRule:
    """The cluster rule against the pairwise rules it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(family_block_sets())
    def test_spec_accepts_as_the_pairwise_rule(self, case):
        """The drawn blocks pass the pairwise rule exactly when the spec on
        their weights is accepted and its derived blocks are the ones drawn."""
        n, q, _, _, blocks, weights = case
        try:
            spec = TypeIIIFamilySpec(n, q, weights)
        except ValueError:
            derived = False
        else:
            derived = set(spec.blocks) == {frozenset(b) for b in blocks}
        assert derived == accepts(reference_spec_check, *case)

    def test_generated_sets_are_mixed(self):
        # The property above sees both verdicts, each often.
        verdicts = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(family_block_sets())
        def collect(case):
            verdicts.append(accepts(reference_spec_check, *case))

        collect()
        assert 0.05 < sum(verdicts) / len(verdicts) < 0.95

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_clusters_are_the_components(self, data):
        n = data.draw(st.integers(1, 40))
        q = data.draw(st.integers(1, n))
        vertices = data.draw(st.sets(st.integers(0, n - 1)))
        assert _clusters(n, q, vertices) == reference_blocks(n, q, vertices)

    def test_reader_matches_the_reference(self, probe_cases):
        rng = random.Random(5)
        found = 0
        for arc, _, m in probe_cases:
            n, q, d, y = arc.n, arc.q, arc.d, arc.y
            orderings = [list(c) for c, _ in simple_cycles(WeightedDigraph.from_matrix(m)).get(n, [])]
            orderings += [list(range(n))] + [rng.sample(range(n), n) for _ in range(3)]
            for ordering in orderings:
                aligned = m.permuted(ordering)
                spec = _family_spec_of(aligned, n, q)
                assert spec == reference_family_spec_of(aligned, n, q, d, y), (arc, ordering)
                found += spec is not None
        assert found >= len(probe_cases)


class TestGridVerification:
    def test_all_constructors_verify_on_small_grid(self):
        alphas = [F(1, 7), F(1, 3), F(1, 2), F(9, 10)]
        from math import gcd

        for n in range(2, 5):
            arc = arc_params(ArcType.TYPE_0, n=n)
            for a in alphas:
                assert bool(verify_realization(type0(n, a), arc, a))
        for q, n in [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6)]:
            arc = arc_params(ArcType.TYPE_I, n=n, q=q)
            for a in alphas:
                m = type1(n, q, [a] + [F(1)] * (n - q))
                assert bool(verify_realization(m, arc, a))
        for q, d, z in [(2, 2, 1), (3, 2, 2), (4, 2, 1), (3, 3, 1)]:
            if gcd(q, q * d - z) != 1:
                continue
            arc = arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
            for comp in enumerate_sparsest(arc):
                for a in alphas:
                    assert bool(verify_realization(build_sparsest(arc, a, comp), arc, a))
        for q, d, y in [(2, 2, 1), (3, 2, 1), (4, 2, 3), (3, 3, 2)]:
            if gcd(q, q * d + y) != 1:
                continue
            arc = arc_params(ArcType.TYPE_III, q=q, d=d, y=y)
            for comp in enumerate_sparsest(arc):
                for a in alphas:
                    assert bool(verify_realization(build_sparsest(arc, a, comp), arc, a))


def dict_cycle_with_back_edges(n, q, split):
    """Test-only reference: the cycle with back edges written row by row as
    {column: entry} dicts, handed to the public constructor as dense rows.
    Each row i of ``split`` keeps split[i] on i -> i+1 and adds 1 - split[i]
    on i -> i+1-q (mod n); entries at one column add up."""
    rows = []
    for i in range(n):
        w = split.get(i)
        if w is None:
            rows.append({(i + 1) % n: F(1)})
            continue
        row = {(i + 1) % n: w}
        back = (i + 1 - q) % n
        row[back] = row.get(back, 0) + (1 - w)
        rows.append(row)
    return StochMatrix([[row.get(j, 0) for j in range(n)] for row in rows])


def dict_instantiate(real, alpha, params):
    """Test-only reference: a Type II digraph instantiated through dict rows,
    handed to the public constructor as dense rows.
    Each connector source but the last of a block takes its named weight,
    the last takes (1 - alpha) over their product; a source keeps its
    weight on the block cycle and puts the rest on its connector."""
    q = real.arc.q
    forward = {}
    for conns in real.connectors:
        sources = sorted(v for v, _ in conns)
        for v in sources[:-1]:
            forward[v] = params[f"alpha_{v + 1}"]
        forward[sources[-1]] = (1 - alpha) / prod(forward[v] for v in sources[:-1])
    rows = [{v - v % q + (v + 1) % q: forward.get(v, F(1))} for v in range(real.arc.n)]
    for conns in real.connectors:
        for src, dst in conns:
            rows[src][dst] = 1 - forward[src]
    return StochMatrix([[row.get(j, 0) for j in range(real.arc.n)] for row in rows])


def assert_same_matrix(m, reference):
    assert m == reference and hash(m) == hash(reference)
    assert m.sparse_rows == reference.sparse_rows
    assert all(type(e) is F and e for row in m.sparse_rows for _, e in row)


class TestPairBuilders:
    """The builders write sorted (column, entry) pairs; each must give the
    matrix the dense-built reference gives."""

    ALPHAS = (F(1, 101), F(1, 3), F(37, 101), F(100, 101))

    def test_type0(self):
        for n in range(1, 10):  # n = 1 is the self-loop, where the entries add up
            for a in self.ALPHAS:
                reference = dict_cycle_with_back_edges(n, 1, dict.fromkeys(range(n), a))
                assert_same_matrix(type0(n, a), reference)
                if n >= 2:
                    arc = arc_params(ArcType.TYPE_0, n=n)
                    assert_same_matrix(build_sparsest(arc, a, ()), reference)
        assert type0(1, F(1, 3)).sparse_rows == (((0, F(1)),),)

    def test_type1(self):
        rng = random.Random(5)
        for n in range(3, 14):
            for q in range(2, n):
                if 2 * q <= n or gcd(q, n) != 1:
                    continue
                for a in self.ALPHAS:
                    # Unit weights have no back edge: a zero entry is dropped.
                    unit = [a] + [F(1)] * (n - q)
                    mixed = [F(rng.randint(1, 3), 3) for _ in range(n - q)] + [a]
                    for weights in (unit, mixed):
                        m = type1(n, q, weights)
                        assert_same_matrix(m, dict_cycle_with_back_edges(n, q, dict(enumerate(weights))))
                    assert type1(n, q, unit).nnz() == n + 1
                    arc = arc_params(ArcType.TYPE_I, n=n, q=q)
                    assert_same_matrix(build_sparsest(arc, a, ()), type1(n, q, unit))

    def test_type2_sparsest(self):
        for arc in catalogue_arcs(6, 4):
            if arc.type_tag is not ArcType.TYPE_II:
                continue
            for composition in enumerate_sparsest(arc):
                real = TypeIIRealization.sparsest(arc, composition)
                for a in self.ALPHAS:
                    assert_same_matrix(build_sparsest(arc, a, composition), dict_instantiate(real, a, {}))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_type2_augmented(self, data):
        arc = data.draw(st.sampled_from(TestAugmentProperty.ARCS))
        q, d, z = arc.q, arc.d, arc.z
        real = TypeIIRealization.sparsest(arc, data.draw(st.sampled_from(enumerate_sparsest(arc))))
        candidates = [e for t in range(d) for e in _allowed_connectors(q, d, z, t)]
        for edge in data.draw(st.lists(st.sampled_from(candidates), max_size=2 * q * d)):
            try:
                real = real.augmented(edge)
            except ValueError:
                pass
        alpha = F(data.draw(st.integers(50, 99)), 100)
        free = {name: F(data.draw(st.integers(90, 99)), 100) for name in real.free_parameters()}
        assert_same_matrix(real.instantiate(alpha, free), dict_instantiate(real, alpha, free))

    def test_type3(self):
        for arc in catalogue_arcs(6, 4):
            if arc.type_tag is not ArcType.TYPE_III:
                continue
            n, q = arc.n, arc.q
            for composition in enumerate_sparsest(arc):
                # split row k sits at k*q + parts[0] + ... + parts[k-1] - 1
                split = [(k * q + sum(composition[:k]) - 1) % n for k in range(1, arc.d + 1)]
                for a in self.ALPHAS:
                    reference = dict_cycle_with_back_edges(n, q, dict.fromkeys(split, a))
                    assert_same_matrix(build_sparsest(arc, a, composition), reference)
        a, a1 = F(1, 2), F(9, 10)
        weights = {3: a1, 4: a1, 5: a1, 6: a / a1 ** 3, 10: a, 14: a}
        spec = TypeIIIFamilySpec(n=15, q=4, weights=weights)
        assert_same_matrix(type3_family(spec), dict_cycle_with_back_edges(15, 4, weights))
