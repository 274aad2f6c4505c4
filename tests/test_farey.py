from fractions import Fraction
from math import gcd

import pytest

from karpelevic.farey import (
    ArcParams,
    ArcType,
    FareyPair,
    arc_params,
    arcs_of_order,
    classify_arc,
    farey_pairs,
    farey_sequence,
)

F = Fraction


def brute_force_sequence(n):
    return sorted({F(p, q) for q in range(1, n + 1) for p in range(q) if gcd(p, q) == 1})


def totient(k):
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


class TestSequence:
    def test_small_orders(self):
        assert farey_sequence(1) == [F(0)]
        assert farey_sequence(3) == [F(0), F(1, 3), F(1, 2), F(2, 3)]
        assert farey_sequence(4) == [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]

    def test_matches_brute_force(self):
        for n in range(1, 40):
            assert farey_sequence(n) == brute_force_sequence(n)

    def test_size_is_totient_sum(self):
        for n in range(2, 60):
            assert len(farey_sequence(n)) == 1 + sum(totient(k) for k in range(2, n + 1))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            farey_sequence(0)


class TestPairs:
    def test_adjacency_determinant_everywhere(self):
        for n in range(2, 101):
            for pair in farey_pairs(n):
                det = (
                    pair.hi.numerator * pair.lo.denominator
                    - pair.lo.numerator * pair.hi.denominator
                )
                assert det == 1

    def test_n3_pairs(self):
        pairs = [(p.lo, p.hi) for p in farey_pairs(3)]
        assert pairs == [
            (F(0), F(1, 3)),
            (F(1, 3), F(1, 2)),
            (F(1, 2), F(2, 3)),
            (F(2, 3), F(1)),
        ]
        assert farey_pairs(3)[-1].is_wraparound

    def test_membership_examples(self):
        assert (F(1, 3), F(1, 2)) in [(p.lo, p.hi) for p in farey_pairs(4)]
        assert (F(2, 9), F(1, 4)) in [(p.lo, p.hi) for p in farey_pairs(12)]

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            FareyPair(F(1, 3), F(1, 4), 4)  # not ascending
        with pytest.raises(ValueError):
            FareyPair(F(1, 4), F(1, 2), 4)  # determinant 2
        with pytest.raises(ValueError):
            FareyPair(F(1, 4), F(1, 3), 12)  # mediant 2/7 lies inside F_12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            farey_pairs(1)

    def test_pairs_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            FareyPair(F(5, 2), F(3), 2)  # adjacent, but above 1
        with pytest.raises(ValueError):
            FareyPair(F(-1, 2), F(0), 2)  # adjacent, but below 0


class TestClassification:
    def test_type0_example(self):
        arc = classify_arc(4, FareyPair(F(0), F(1, 4), 4))
        assert arc.type_tag is ArcType.TYPE_0
        assert (arc.q, arc.d, arc.s) == (1, 4, 4)

    def test_type1_example(self):
        arc = classify_arc(5, FareyPair(F(1, 5), F(1, 4), 5))
        assert arc.type_tag is ArcType.TYPE_I
        assert (arc.q, arc.s, arc.d) == (4, 5, 1)
        assert arc.reduced_degree == 5

    def test_type2_example(self):
        arc = classify_arc(12, FareyPair(F(2, 9), F(1, 4), 12))
        assert arc.type_tag is ArcType.TYPE_II
        assert (arc.q, arc.s, arc.d, arc.z) == (4, 9, 3, 3)
        assert arc.reduced_degree == 12

    def test_type3_example(self):
        arc = classify_arc(15, FareyPair(F(1, 4), F(4, 15), 15))
        assert arc.type_tag is ArcType.TYPE_III
        assert (arc.q, arc.s, arc.d, arc.y) == (4, 15, 3, 3)
        assert arc.reduced_degree == 15

    def test_every_arc_gets_exactly_one_type(self):
        for n in range(2, 40):
            for arc in arcs_of_order(n):
                assert arc.type_tag in ArcType
                if arc.type_tag is ArcType.TYPE_II:
                    assert arc.z in range(1, arc.q)
                    assert arc.y is None
                elif arc.type_tag is ArcType.TYPE_III:
                    assert arc.y in range(1, arc.q)
                    assert arc.z is None
                else:
                    assert arc.z is None and arc.y is None

    def test_wraparound_classifies_type0(self):
        arc = classify_arc(5, farey_pairs(5)[-1])
        assert arc.type_tag is ArcType.TYPE_0
        assert (arc.p, arc.q, arc.r, arc.s) == (1, 1, 4, 5)

    def test_json_roundtrip(self):
        for n in (4, 12, 15):
            for arc in arcs_of_order(n):
                assert ArcParams.from_json(arc.to_json()) == arc

    def test_json_roundtrip_every_arc_to_order_12(self):
        for n in range(2, 13):
            for arc in arcs_of_order(n):
                assert ArcParams.from_json(arc.to_json()) == arc

    @pytest.mark.parametrize(
        "change",
        [
            {"type": "I"},  # 2/5-1/2 is Type III
            {"type": "II", "y": None, "z": 1},
            {"n": 6, "d": 3},  # 2/5-1/2 are not neighbours in F_6
            {"n": 2, "p": 3, "q": 1, "r": 5, "s": 2, "d": 2, "type": "0", "y": None},  # 5/2-3
        ],
        ids=["type", "type-and-z", "order", "outside-unit-interval"],
    )
    def test_from_json_rejects_arc_that_disagrees_with_endpoints(self, change):
        data = {**classify_arc(5, FareyPair(F(2, 5), F(1, 2), 5)).to_json(), **change}
        with pytest.raises(ValueError):
            ArcParams.from_json(data)


class TestSynthesizedArcs:
    def test_matches_spec_examples(self):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        assert (arc.n, arc.q, arc.s, arc.d, arc.z) == (12, 4, 9, 3, 3)
        arc = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)
        assert (arc.n, arc.p, arc.q, arc.r, arc.s) == (15, 1, 4, 4, 15)

    def test_synthesized_pairs_are_genuine(self):
        for q in range(2, 6):
            for d in range(2, 5):
                for z in range(1, q):
                    if gcd(q, q * d - z) != 1:
                        continue
                    arc = arc_params(ArcType.TYPE_II, q=q, d=d, z=z)
                    assert classify_arc(arc.n, FareyPair(
                        min(F(arc.p, arc.q), F(arc.r, arc.s)),
                        max(F(arc.p, arc.q), F(arc.r, arc.s)),
                        arc.n,
                    )) == arc

    def test_incoherent_parameters_rejected(self):
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=3, z=4)
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_I, n=9, q=4)  # 2q <= n
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=2, z=2)  # s = 6 shares gcd with q
