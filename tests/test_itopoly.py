import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karpelevic.algebra import RatPoly, poly_eval
from karpelevic.farey import ArcParams, ArcType, arc_params, arcs_of_order
from karpelevic.itopoly import (
    ItoInstance,
    _binomial_power,
    coefficient_identity_check,
    full_arc_poly,
    reduced_ito,
    reduced_shifts,
)

F = Fraction

ALPHA_GRID = [F(0), F(1, 7), F(1, 3), F(1, 2), F(9, 10), F(1)]


def _arc(tag, **kw):
    return arc_params(tag, **kw)


class TestFullPoly:
    def test_beta_zero(self):
        arc = ArcParams(n=4, p=1, q=2, r=2, s=3)
        assert full_arc_poly(arc, 1) == RatPoly([0, 0, 0, 0, -1, 0, 0, 1])

    def test_alpha_zero(self):
        arc = _arc(ArcType.TYPE_II, q=4, d=3, z=3)
        expected = (RatPoly.monomial(4) - RatPoly([1])) ** 3
        assert full_arc_poly(arc, 0) == expected.shift(9)

    def test_type3_expansion(self):
        arc = _arc(ArcType.TYPE_III, q=4, d=3, y=3)
        a = F(1, 2)
        shift = arc.s + arc.q * arc.d - arc.reduced_degree
        assert shift == 12
        assert full_arc_poly(arc, a) == reduced_ito(arc, a).poly.shift(shift)


class TestReduce:
    def test_strip_powers(self):
        assert RatPoly([0, 0, 0, 0, -1, 0, 0, 1]) == RatPoly([-1, 0, 0, 1]).shift(4)
        p = (RatPoly.monomial(4) - RatPoly([1])) ** 3
        assert p.shift(9) == RatPoly([0] * 9 + list(p.coeffs))

    def test_type2_closed_form(self):
        arc = _arc(ArcType.TYPE_II, q=4, d=3, z=3)
        a = F(1, 3)
        expected = (RatPoly.monomial(4) - RatPoly([F(2, 3)])) ** 3 - RatPoly.monomial(3, F(1, 27))
        assert full_arc_poly(arc, a) == expected.shift(arc.s + arc.q * arc.d - arc.reduced_degree)


class TestReducedIto:
    def test_type0_binomial(self):
        inst = reduced_ito(_arc(ArcType.TYPE_0, n=3), F(1, 2))
        assert inst.poly == RatPoly([F(-1, 4), F(3, 4), F(-3, 2), 1])

    def test_type1_order5(self):
        inst = reduced_ito(_arc(ArcType.TYPE_I, n=5, q=4), F(1, 6))
        assert inst.poly == RatPoly([F(-1, 6), F(-5, 6), 0, 0, 0, 1])

    def test_type2_top_coefficients(self):
        for a in (F(1, 5), F(2, 7)):
            inst = reduced_ito(_arc(ArcType.TYPE_II, q=4, d=3, z=3), a)
            b = 1 - a
            assert inst.poly.coeff(8) == -3 * b      # k_q, degree 12
            assert inst.poly.coeff(4) == 3 * b ** 2  # k_{2q}
            assert inst.k(4) == -3 * b and inst.k(8) == 3 * b ** 2

    @pytest.mark.parametrize("j", [True, 4.0])
    def test_k_index_must_be_an_integer(self, j):
        # k(True) once read the coefficient of t^(deg - 1) as k_1.
        inst = reduced_ito(_arc(ArcType.TYPE_II, q=4, d=3, z=3), F(1, 5))
        with pytest.raises(ValueError) as exc:
            inst.k(j)
        assert str(exc.value) == f"index must be an integer, got {j!r}"

    def test_degree_matches_arc(self):
        for n in range(2, 13):
            for arc in arcs_of_order(n):
                for a in ALPHA_GRID:
                    inst = reduced_ito(arc, a)
                    assert inst.poly.degree == arc.reduced_degree

    def test_closed_form_equals_reduction_everywhere(self):
        for n in range(2, 13):
            for arc in arcs_of_order(n):
                expected_shift = arc.s + arc.q * arc.d - arc.reduced_degree
                for a in ALPHA_GRID:
                    inst = reduced_ito(arc, a)
                    full = full_arc_poly(arc, a)
                    assert inst.poly.shift(expected_shift) == full

    ARCS_TO_30 = [arc for n in range(2, 31) for arc in arcs_of_order(n)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from(ARCS_TO_30),
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4),
    )
    def test_closed_form_times_extraneous_roots_is_full_poly(self, arc, a):
        extraneous = arc.s + arc.q * arc.d - arc.reduced_degree
        assert reduced_ito(arc, a).poly.shift(extraneous) == full_arc_poly(arc, a)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            reduced_ito(_arc(ArcType.TYPE_0, n=3), F(3, 2))


class TestReducedShifts:
    def test_each_type(self):
        """(y, z) read off each type: Type 0 (0, 0), Type I (s - q, 0),
        Type II (0, z), Type III (y, 0); the degree is y + q d."""
        for n in range(2, 31):
            for arc in arcs_of_order(n):
                expected = {
                    ArcType.TYPE_0: (0, 0),
                    ArcType.TYPE_I: (arc.s - arc.q, 0),
                    ArcType.TYPE_II: (0, arc.z),
                    ArcType.TYPE_III: (arc.y, 0),
                }[arc.type_tag]
                assert reduced_shifts(arc) == expected, arc
                assert expected[0] + arc.q * arc.d == arc.reduced_degree


def closed_form_by_powers(arc, a):
    """Reference: each type's reduced polynomial with (t^q - b)^d raised
    as a RatPoly power."""
    b = 1 - a
    if arc.type_tag is ArcType.TYPE_0:
        return RatPoly([-b, 1]) ** arc.d - RatPoly([a ** arc.d])
    if arc.type_tag is ArcType.TYPE_I:
        return RatPoly.monomial(arc.s) - RatPoly.monomial(arc.s - arc.q, b) - RatPoly([a])
    binomial = (RatPoly.monomial(arc.q) - RatPoly([b])) ** arc.d
    if arc.type_tag is ArcType.TYPE_II:
        return binomial - RatPoly.monomial(arc.z, a ** arc.d)
    return binomial.shift(arc.y) - RatPoly([a ** arc.d])


class TestBinomialExpansion:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.fractions(min_value=-2, max_value=2, max_denominator=1000))
    def test_equals_ratpoly_power(self, b):
        for q in range(1, 10):
            for d in range(8):
                expected = (RatPoly.monomial(q) - RatPoly([b])) ** d
                assert _binomial_power(q, b, d) == expected

    def test_reduced_ito_against_powers(self):
        for n in range(2, 21):
            for arc in arcs_of_order(n):
                for a in (F(0), F(1, 3), F(37, 101), F(1)):
                    assert reduced_ito(arc, a).poly == closed_form_by_powers(arc, a)


class TestEndpointRoots:
    """At the parameter endpoints the reduced polynomial vanishes at the
    arc's circle endpoints."""

    def test_alpha0_rational_points(self):
        # q in {1, 2, 4}: the relevant roots of unity are exact Gaussian rationals.
        checks = [
            (_arc(ArcType.TYPE_0, n=4), 1),
            (_arc(ArcType.TYPE_II, q=2, d=2, z=1), -1),
        ]
        for arc, root in checks:
            inst = reduced_ito(arc, 0)
            assert poly_eval(inst.poly, root) == 0

    def test_alpha0_gaussian_i(self):
        arc = _arc(ArcType.TYPE_II, q=4, d=3, z=3)
        inst = reduced_ito(arc, 0)
        value = complex(0, 0)
        for k, c in enumerate(inst.poly.coeffs):
            value += float(c) * (1j) ** k
        assert abs(value) < 1e-12

    def test_alpha0_numeric(self):
        for n in range(2, 10):
            for arc in arcs_of_order(n):
                inst = reduced_ito(arc, 0)
                z = cmath.exp(2j * math.pi * arc.p / arc.q)
                value = sum(float(c) * z ** k for k, c in enumerate(inst.poly.coeffs))
                assert abs(value) < 1e-12

    def test_alpha1_numeric(self):
        for n in range(2, 10):
            for arc in arcs_of_order(n):
                inst = reduced_ito(arc, 1)
                z = cmath.exp(2j * math.pi * arc.r / arc.s)
                value = sum(float(c) * z ** k for k, c in enumerate(inst.poly.coeffs))
                assert abs(value) < 1e-12


class TestCoefficientIdentity:
    def test_holds_on_grid(self):
        # Every type with q <= 6, d <= 4 (valid z, y), a selection of parameters.
        arcs = []
        for n in range(3, 5):
            arcs.append(_arc(ArcType.TYPE_0, n=n))
        for q in range(2, 7):
            for n in range(q + 1, 2 * q):
                if math.gcd(q, n) == 1 and n > q:
                    arcs.append(_arc(ArcType.TYPE_I, n=n, q=q))
        for q in range(2, 7):
            for d in range(2, 5):
                for z in range(1, q):
                    if math.gcd(q, q * d - z) == 1:
                        arcs.append(_arc(ArcType.TYPE_II, q=q, d=d, z=z))
                for y in range(1, q):
                    if math.gcd(q, q * d + y) == 1:
                        arcs.append(_arc(ArcType.TYPE_III, q=q, d=d, y=y))
        for arc in arcs:
            for a in (F(1, 7), F(1, 2), F(9, 10)):
                assert coefficient_identity_check(reduced_ito(arc, a))

    def test_perturbed_poly_fails(self):
        arc = _arc(ArcType.TYPE_II, q=4, d=3, z=3)
        inst = reduced_ito(arc, F(1, 2))
        bad = inst.poly + RatPoly.monomial(8, F(1, 100))
        assert not coefficient_identity_check(ItoInstance(arc=arc, alpha=F(1, 2), poly=bad))

    def test_known_failure_order2(self):
        # The one degenerate corner: for the order-2 arc the subtracted
        # constant lands exactly on the t^(deg-2q) coefficient, and the
        # identity is false for every interior parameter.  The reduction
        # framework targets n >= 3 (0 sits inside the order-2 region), so
        # the corner is excluded from the guarantee; see decisions ledger.
        arc = _arc(ArcType.TYPE_0, n=2)
        inst = reduced_ito(arc, F(1, 2))
        assert not coefficient_identity_check(inst)
        # residual is exactly -4*alpha^2 on the left minus right
        lhs = 2 * 2 * inst.k(2)
        rhs = (2 - 1) * inst.k(1) ** 2
        assert lhs - rhs == -4 * F(1, 2) ** 2

    def test_type1_vacuous(self):
        inst = reduced_ito(_arc(ArcType.TYPE_I, n=5, q=4), F(1, 3))
        assert coefficient_identity_check(inst)
