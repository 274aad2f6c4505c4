from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karpelevic.farey import (
    ArcParams,
    ArcType,
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


def farey_pair_checks(n, lo, hi):
    """Whether (lo, hi) is an arc of order n, by a statement of Farey
    adjacency independent of ArcParams: ascending in [0, 1], determinant
    1, denominators at most n, a mediant outside the order-n sequence,
    and denominators that differ (only 0/1-1/1, of order 1, fails that
    last check alone)."""
    det = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return (
        0 <= lo < hi <= 1
        and det == 1
        and max(lo.denominator, hi.denominator) <= n
        and lo.denominator + hi.denominator > n
        and lo.denominator != hi.denominator
    )


@st.composite
def orders_and_pairs(draw):
    """An order n in 1..40 and reduced fractions lo < hi in [0, 1] with
    denominators at most 40.  Half the draws are neighbours in the Farey
    sequence of an order within one of n, so accepted pairs are not rare."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        seq = brute_force_sequence(draw(st.integers(max(n - 1, 1), min(n + 1, 40)))) + [F(1)]
        i = draw(st.integers(0, len(seq) - 2))
        return n, seq[i], seq[i + 1]
    fractions = st.integers(1, 40).flatmap(lambda q: st.builds(F, st.integers(0, q), st.just(q)))
    lo, hi = sorted(draw(st.lists(fractions, min_size=2, max_size=2, unique=True)))
    return n, lo, hi


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
            for lo, hi in farey_pairs(n):
                assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1

    def test_n3_pairs(self):
        assert farey_pairs(3) == [
            (F(0), F(1, 3)),
            (F(1, 3), F(1, 2)),
            (F(1, 2), F(2, 3)),
            (F(2, 3), F(1)),
        ]

    def test_membership_examples(self):
        assert (F(1, 3), F(1, 2)) in farey_pairs(4)
        assert (F(2, 9), F(1, 4)) in farey_pairs(12)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            classify_arc(4, (F(1, 3), F(1, 4)))  # not ascending
        with pytest.raises(ValueError):
            classify_arc(4, (F(1, 4), F(1, 2)))  # determinant 2
        with pytest.raises(ValueError):
            classify_arc(12, (F(1, 4), F(1, 3)))  # mediant 2/7 lies inside F_12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            farey_pairs(1)

    def test_pairs_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            classify_arc(2, (F(5, 2), F(3)))  # adjacent, but above 1
        with pytest.raises(ValueError):
            classify_arc(2, (F(-1, 2), F(0)))  # adjacent, but below 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(orders_and_pairs())
    def test_classify_arc_rejects_exactly_the_non_arcs(self, drawn):
        n, lo, hi = drawn
        try:
            classify_arc(n, (lo, hi))
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == farey_pair_checks(n, lo, hi)


class TestClassification:
    def test_type0_example(self):
        arc = classify_arc(4, (F(0), F(1, 4)))
        assert arc.type_tag is ArcType.TYPE_0
        assert (arc.q, arc.d, arc.s) == (1, 4, 4)

    def test_type1_example(self):
        arc = classify_arc(5, (F(1, 5), F(1, 4)))
        assert arc.type_tag is ArcType.TYPE_I
        assert (arc.q, arc.s, arc.d) == (4, 5, 1)
        assert arc.reduced_degree == 5

    def test_type2_example(self):
        arc = classify_arc(12, (F(2, 9), F(1, 4)))
        assert arc.type_tag is ArcType.TYPE_II
        assert (arc.q, arc.s, arc.d, arc.z) == (4, 9, 3, 3)
        assert arc.reduced_degree == 12

    def test_type3_example(self):
        arc = classify_arc(15, (F(1, 4), F(4, 15)))
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
        data = {**classify_arc(5, (F(2, 5), F(1, 2))).to_json(), **change}
        with pytest.raises(ValueError):
            ArcParams.from_json(data)


class TestArcParamsChecks:
    def test_misclassified_arc_rejected(self):
        # 2/5-1/2 of order 5 is Type III with y = 1; read as Type I it once
        # reached an AssertionError in reduced_ito.
        arc = ArcParams(n=5, p=1, q=2, r=2, s=5)
        assert (arc.d, arc.type_tag, arc.z, arc.y) == (2, ArcType.TYPE_III, None, 1)
        with pytest.raises(ValueError, match=r"^the order-5 arc 1/2-2/5 is TypeIII with z=None, y=1$"):
            ArcParams.from_json({**arc.to_json(), "type": "I"})

    def test_from_json_rejects_every_other_type_z_or_y_to_order_40(self):
        """JSON that states any type, z or y but the arc's (each with the other
        two right), or any d but floor(n / q), is rejected; the arc's own JSON
        reads back to the arc."""
        accepted = []
        for n in range(2, 41):
            for arc in arcs_of_order(n):
                data = arc.to_json()
                assert ArcParams.from_json(data) == arc
                plausible = (None, *range(1, arc.q))
                stated = [{"type": tag.value} for tag in ArcType if tag is not arc.type_tag]
                stated += [{"z": z} for z in plausible if z != arc.z]
                stated += [{"y": y} for y in plausible if y != arc.y]
                stated += [{"d": arc.d - 1}, {"d": arc.d + 1}]
                for change in stated:
                    try:
                        accepted.append(ArcParams.from_json({**data, **change}))
                    except ValueError:
                        pass
        assert accepted == []

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n=4, p=3, q=2, r=5, s=3),  # 3/2-5/3
            dict(n=4, p=-1, q=2, r=-1, s=3),  # -1/2 - -1/3
            dict(n=7, p=1, q=2, r=2, s=5),  # 3/7 between
            dict(n=4, p=1, q=2, r=2, s=5),  # s above n
            dict(n=5, p=1, q=3, r=3, s=5),  # |q*r - p*s| = 4
        ],
        ids=["above-1", "below-0", "not-neighbours", "s-above-order", "determinant"],
    )
    def test_endpoints_must_be_neighbours_of_order_n(self, fields):
        with pytest.raises(ValueError):
            ArcParams(**fields)


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
                    pair = tuple(sorted([F(arc.p, arc.q), F(arc.r, arc.s)]))
                    assert classify_arc(arc.n, pair) == arc

    def test_incoherent_parameters_rejected(self):
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=3, z=4)
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_I, n=9, q=4)  # 2q <= n
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=2, z=2)  # s = 6 shares gcd with q


# One complete parameter set per type; arc_params needs every key.
REQUIRED = {
    ArcType.TYPE_0: {"n": 5},
    ArcType.TYPE_I: {"n": 5, "q": 3},
    ArcType.TYPE_II: {"q": 4, "d": 3, "z": 3},
    ArcType.TYPE_III: {"q": 4, "d": 3, "y": 3},
}


class TestRequiredParameters:
    @pytest.mark.parametrize(
        "tag, name", [(tag, name) for tag, params in REQUIRED.items() for name in params]
    )
    def test_each_missing_parameter_is_named(self, tag, name):
        params = {key: value for key, value in REQUIRED[tag].items() if key != name}
        with pytest.raises(ValueError, match=f"^Type {tag.value} needs {name}$"):
            arc_params(tag, **params)

    def test_every_missing_parameter_is_named(self):
        with pytest.raises(ValueError, match="^Type II needs q, d and z$"):
            arc_params(ArcType.TYPE_II)
        with pytest.raises(ValueError, match="^Type I needs n and q$"):
            arc_params(ArcType.TYPE_I, d=2, y=1)

    @pytest.mark.parametrize(
        "tag, name", [(tag, name) for tag in REQUIRED for name in "nqdzy" if name not in REQUIRED[tag]]
    )
    def test_each_unused_parameter_is_named(self, tag, name):
        with pytest.raises(ValueError, match=f"^Type {tag.value} does not take {name}$"):
            arc_params(tag, **REQUIRED[tag], **{name: 2})

    def test_every_unused_parameter_is_named(self):
        with pytest.raises(ValueError, match="^Type II does not take n and y$"):
            arc_params(ArcType.TYPE_II, q=4, d=3, z=3, n=99, y=1)
        with pytest.raises(ValueError, match="^Type 0 does not take q, d, z and y$"):
            arc_params(ArcType.TYPE_0, n=5, q=3, d=2, z=1, y=1)

    def test_missing_before_range(self):
        with pytest.raises(ValueError, match="^Type III needs y$"):
            arc_params(ArcType.TYPE_III, q=1, d=0)

    @pytest.mark.parametrize("tag", list(REQUIRED))
    def test_complete_parameters_build(self, tag):
        assert arc_params(tag, **REQUIRED[tag]).type_tag is tag

    def test_reduced_degree_per_type(self):
        """max(s, q d) is n for Type 0, s for Types I and III, q d for Type II."""
        for n in range(2, 31):
            for arc in arcs_of_order(n):
                expected = {
                    ArcType.TYPE_0: n,
                    ArcType.TYPE_I: arc.s,
                    ArcType.TYPE_II: arc.q * arc.d,
                    ArcType.TYPE_III: arc.s,
                }[arc.type_tag]
                assert arc.reduced_degree == expected, arc
