import re
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
)

F = Fraction


def brute_force_sequence(n):
    return sorted({F(p, q) for q in range(1, n + 1) for p in range(q) if gcd(p, q) == 1})


def totient(k):
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


def circular_endpoints(n):
    """The endpoints of arcs_of_order(n) in circular order: each arc's lower
    one, then the last arc's upper one.  Consecutive arcs must share an
    endpoint."""
    ends = [sorted((F(arc.p, arc.q), F(arc.r, arc.s))) for arc in arcs_of_order(n)]
    assert all(hi == lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
    return [lo for lo, _ in ends] + [ends[-1][1]]


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
        assert circular_endpoints(2) == [F(0), F(1, 2), F(1)]
        assert circular_endpoints(3) == [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
        assert circular_endpoints(4) == [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]

    def test_matches_brute_force(self):
        for n in range(2, 40):
            assert circular_endpoints(n) == brute_force_sequence(n) + [F(1)]

    def test_size_is_totient_sum(self):
        for n in range(2, 60):
            assert len(arcs_of_order(n)) == 1 + sum(totient(k) for k in range(2, n + 1))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="^order must be at least 2$"):
            arcs_of_order(0)


class TestPairs:
    def test_adjacency_determinant_everywhere(self):
        for n in range(2, 101):
            for arc in arcs_of_order(n):
                assert abs(arc.q * arc.r - arc.p * arc.s) == 1

    def test_n3_pairs(self):
        assert arcs_of_order(3) == [
            ArcParams(3, 0, 1, 1, 3),
            ArcParams(3, 1, 2, 1, 3),
            ArcParams(3, 1, 2, 2, 3),
            ArcParams(3, 1, 1, 2, 3),
        ]

    def test_membership_examples(self):
        assert ArcParams(4, 1, 2, 1, 3) in arcs_of_order(4)  # 1/3-1/2
        assert ArcParams(12, 1, 4, 2, 9) in arcs_of_order(12)  # 2/9-1/4

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            ArcParams(4, 1, 2, 1, 4)  # 1/4-1/2, determinant 2
        with pytest.raises(ValueError):
            ArcParams(12, 1, 3, 1, 4)  # mediant 2/7 of 1/4-1/3 lies inside F_12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="^order must be at least 2$"):
            arcs_of_order(1)

    @pytest.mark.parametrize("n, got", [
        (5.0, "5.0"),
        (True, "True"),
        ("5", "'5'"),  # checked before the order is compared
    ], ids=["arcs", "arcs-bool", "arcs-str"])
    def test_rejects_an_order_that_is_not_an_int(self, n, got):
        with pytest.raises(ValueError, match=f"^order must be an integer, got {re.escape(got)}$"):
            arcs_of_order(n)

    def test_pairs_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ArcParams(2, 3, 1, 5, 2)  # 5/2-3/1: adjacent, but above 1
        with pytest.raises(ValueError):
            ArcParams(2, 0, 1, -1, 2)  # -1/2-0/1: adjacent, but below 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(orders_and_pairs())
    def test_arc_params_rejects_exactly_the_non_arcs(self, drawn):
        n, lo, hi = drawn
        if lo.denominator > hi.denominator:
            lo, hi = hi, lo
        try:
            ArcParams(n, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == farey_pair_checks(n, *sorted((lo, hi)))


class TestClassification:
    def test_type0_example(self):
        arc = ArcParams(4, 0, 1, 1, 4)
        assert arc.type_tag is ArcType.TYPE_0
        assert (arc.q, arc.d, arc.s) == (1, 4, 4)

    def test_type1_example(self):
        arc = ArcParams(5, 1, 4, 1, 5)
        assert arc.type_tag is ArcType.TYPE_I
        assert (arc.q, arc.s, arc.d) == (4, 5, 1)
        assert arc.reduced_degree == 5

    def test_type2_example(self):
        arc = ArcParams(12, 1, 4, 2, 9)
        assert arc.type_tag is ArcType.TYPE_II
        assert (arc.q, arc.s, arc.d, arc.z) == (4, 9, 3, 3)
        assert arc.reduced_degree == 12

    def test_type3_example(self):
        arc = ArcParams(15, 1, 4, 4, 15)
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
        arc = arcs_of_order(5)[-1]
        assert arc.type_tag is ArcType.TYPE_0
        assert (arc.p, arc.q, arc.r, arc.s) == (1, 1, 4, 5)

    def test_json_roundtrip(self):
        for n in (4, 12, 15):
            for arc in arcs_of_order(n):
                assert ArcParams.from_json(arc.to_json()) == arc

    @pytest.mark.parametrize("data", [
        {"n": 4, "p": 0, "q": 1, "r": 1, "s": 4, "d": 4, "type": "0"},
        {"n": 5, "p": 1, "q": 4, "r": 1, "s": 5, "d": 1, "type": "I"},
        {"n": 12, "p": 1, "q": 4, "r": 2, "s": 9, "d": 3, "type": "II", "z": 3},
        {"n": 15, "p": 1, "q": 4, "r": 4, "s": 15, "d": 3, "type": "III", "y": 3},
    ], ids=["0", "I", "II", "III"])
    def test_json_states_z_and_y_only_for_their_types(self, data):
        assert ArcParams(*(data[key] for key in "npqrs")).to_json() == data

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
        data = {**ArcParams(5, 1, 2, 2, 5).to_json(), **change}
        with pytest.raises(ValueError):
            ArcParams.from_json(data)


class TestArcParamsChecks:
    @pytest.mark.parametrize("data, got", [([5, 1, 2, 2, 5], "list"), ("{}", "str")])
    def test_from_json_needs_an_object(self, data, got):
        with pytest.raises(ValueError, match=f"^arc parameters must be a JSON object, got {got}$"):
            ArcParams.from_json(data)

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

    @pytest.mark.parametrize("fields, message", [
        (dict(n=1, p=0, q=0, r=1, s=1), r"need 0 < q < s"),  # q = 0
        (dict(n=1, p=0, q=1, r=1, s=1), r"need 0 < q < s"),  # 0/1-1/1 of order 1
        (dict(n=3, p=0, q=1, r=-1, s=3), r"endpoints must lie in \[0, 1\]"),  # 0/1 - -1/3
    ], ids=["q-zero", "q-equals-s", "r-below-0"])
    def test_endpoint_messages(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ArcParams(**fields)

    @pytest.mark.parametrize("name, value", [
        ("n", 5.0), ("p", 1.0), ("q", 2.0), ("r", True), ("s", 5.0), ("n", "5"),
    ])
    def test_fields_must_be_ints(self, name, value):
        # 1/2-2/5 of order 5; each value equals the field's, so only the
        # type check tells them apart.
        fields = {"n": 5, "p": 1, "q": 2, "r": 2, "s": 5, name: value}
        message = f"arc field {name!r} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ArcParams(**fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ArcParams.from_json({**ArcParams(5, 1, 2, 2, 5).to_json(), name: value})

    def test_arc_params_rejects_a_float_order(self):
        # It once returned ArcParams(n=4.5, p=0, q=1, r=1, s=4.5, d=4.0, ...).
        with pytest.raises(ValueError, match=r"^arc field 'n' must be an integer, got 4\.5$"):
            arc_params(ArcType.TYPE_0, n=4.5)

    @pytest.mark.parametrize("change, message", [
        ({"d": 2.0}, "arc field 'd' must be an integer, got 2.0"),
        ({"d": None}, "arc field 'd' must be an integer, got None"),
        ({"y": 1.0}, "arc field 'y' must be an integer, got 1.0"),
        ({"z": "1"}, "arc field 'z' must be an integer, got '1'"),
    ])
    def test_from_json_checks_d_z_and_y(self, change, message):
        data = {**ArcParams(5, 1, 2, 2, 5).to_json(), **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
                    assert arc in arcs_of_order(arc.n)

    def test_incoherent_parameters_rejected(self):
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=3, z=4)
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_I, n=9, q=4)  # 2q <= n
        with pytest.raises(ValueError):
            arc_params(ArcType.TYPE_II, q=4, d=2, z=2)  # s = 6 shares gcd with q

    @pytest.mark.parametrize("tag, params, s", [
        (ArcType.TYPE_I, {"n": 6, "q": 4}, 6),
        (ArcType.TYPE_II, {"q": 4, "d": 2, "z": 2}, 6),
        (ArcType.TYPE_III, {"q": 4, "d": 2, "y": 2}, 10),
    ])
    def test_no_arc_when_q_and_s_share_a_factor(self, tag, params, s):
        # Without this check pow(q, -1, s) raised its own ValueError.
        message = f"^q = 4 and s = {s} are not coprime; no such arc$"
        with pytest.raises(ValueError, match=message):
            arc_params(tag, **params)


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

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_type0_needs_order_two(self, n):
        with pytest.raises(ValueError, match=r"^arcs exist for orders n >= 2 only$"):
            arc_params(ArcType.TYPE_0, n=n)

    def test_type0_at_order_two(self):
        assert arc_params(ArcType.TYPE_0, n=2) == ArcParams(2, 0, 1, 1, 2)

    @pytest.mark.parametrize("tag, params, message", [
        (ArcType.TYPE_I, {"n": 4, "q": 4}, "Type I requires q < n < 2q"),
        (ArcType.TYPE_I, {"n": 8, "q": 4}, "Type I requires q < n < 2q"),
        (ArcType.TYPE_II, {"q": 4, "d": 1, "z": 1}, "Type II requires d >= 2 and z in 1..q-1"),
        (ArcType.TYPE_II, {"q": 4, "d": 3, "z": 0}, "Type II requires d >= 2 and z in 1..q-1"),
        (ArcType.TYPE_II, {"q": 4, "d": 3, "z": 4}, "Type II requires d >= 2 and z in 1..q-1"),
        (ArcType.TYPE_II, {"q": 4, "d": 3, "z": 5}, "Type II requires d >= 2 and z in 1..q-1"),
        (ArcType.TYPE_III, {"q": 4, "d": 1, "y": 1}, "Type III requires d >= 2 and y in 1..q-1"),
        (ArcType.TYPE_III, {"q": 4, "d": 3, "y": 0}, "Type III requires d >= 2 and y in 1..q-1"),
        (ArcType.TYPE_III, {"q": 4, "d": 3, "y": 4}, "Type III requires d >= 2 and y in 1..q-1"),
        # Unchecked, y = q + 1 gave the order-17 arc 3/4-13/17, Type III
        # with y = 1, and d = 1 the Type I arc 3/4-4/5.
        (ArcType.TYPE_III, {"q": 4, "d": 3, "y": 5}, "Type III requires d >= 2 and y in 1..q-1"),
    ])
    def test_range_messages(self, tag, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            arc_params(tag, **params)

    @pytest.mark.parametrize("tag", [ArcType.TYPE_I, ArcType.TYPE_II, ArcType.TYPE_III])
    @pytest.mark.parametrize("q", [1, 0])
    def test_q_at_least_two(self, tag, q):
        with pytest.raises(ValueError, match=r"^need q >= 2$"):
            arc_params(tag, **{**REQUIRED[tag], "q": q})

    @pytest.mark.parametrize(
        "tag, name", [(tag, name) for tag, params in REQUIRED.items() for name in params]
    )
    def test_each_parameter_must_be_an_int(self, tag, name):
        # An equal float once failed in gcd or pow with a TypeError.
        value = float(REQUIRED[tag][name])
        message = f"arc field {name!r} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            arc_params(tag, **{**REQUIRED[tag], name: value})

    def test_a_bool_parameter_is_not_an_int(self):
        # It once returned the arc with y = 1.
        with pytest.raises(ValueError, match="^arc field 'y' must be an integer, got True$"):
            arc_params(ArcType.TYPE_III, q=3, d=2, y=True)

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
