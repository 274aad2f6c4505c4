"""Boundary-arc polynomials: the unreduced parametric form and its reduction.

Every boundary arc of the order-n region is cut out by the one-parameter
family

    t^s (t^q - b)^d  =  a^d t^(q d),      a in [0, 1],  b = 1 - a,

where (p/q, r/s) are the arc endpoints and d = floor(n/q).  The polynomial
has extraneous zero roots; dividing out the maximal power of t leaves the
reduced polynomial, whose closed form depends only on the arc type:

    Type 0:   (t - b)^d - a^d                (q = 1, d = n = s)
    Type I:   t^s - b t^(s-q) - a            (d = 1)
    Type II:  (t^q - b)^d - a^d t^z          (z = q d - s)
    Type III: t^y (t^q - b)^d - a^d          (y = s - q d)

Every form is built from (t^q - b)^d expanded by the binomial theorem:
its d + 1 nonzero terms are C(d, k) (-b)^k t^(q (d - k)), so no
polynomial is ever raised to a power.

Coefficient bookkeeping follows the monic convention: k_j is the
coefficient of t^(deg - j), so that k_q = -b*d and
k_(2q) = d(d-1) b^2 / 2 for every reduced polynomial with 2q < deg.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from karpelevic.algebra import _ZERO, RatLike, RatPoly, rat
from karpelevic.farey import ArcParams, ArcType

__all__ = [
    "ItoInstance",
    "full_arc_poly",
    "reduce_poly",
    "reduced_ito",
    "coefficient_identity_check",
]


def _check_alpha(alpha: Fraction) -> None:
    if not (0 <= alpha <= 1):
        raise ValueError(f"parameter must lie in [0, 1], got {alpha}")


def _binomial_terms(q: int, b: Fraction, d: int) -> list[tuple[int, Fraction]]:
    """The d + 1 terms of (t^q - b)^d by the binomial theorem, as
    (exponent, coefficient) pairs: C(d, k) (-b)^k at t^(q (d - k))."""
    return [(q * (d - k), comb(d, k) * (-b) ** k) for k in range(d + 1)]


def _binomial_power(q: int, b: Fraction, d: int) -> RatPoly:
    """(t^q - b)^d, expanded."""
    coeffs = [_ZERO] * (q * d + 1)
    for e, c in _binomial_terms(q, b, d):
        coeffs[e] = c
    return RatPoly(coeffs)


def full_arc_poly(arc: ArcParams, alpha: RatLike) -> RatPoly:
    """The unreduced arc polynomial t^s (t^q - b)^d - a^d t^(q d), expanded."""
    a = rat(alpha)
    _check_alpha(a)
    lhs = _binomial_power(arc.q, 1 - a, arc.d).shift(arc.s)
    rhs = RatPoly.monomial(arc.q * arc.d, a ** arc.d)
    return lhs - rhs


def reduce_poly(full: RatPoly) -> RatPoly:
    """Divide out the maximal power of t, leaving a nonzero constant term."""
    reduced, _ = full.strip_zero_roots()
    return reduced


@dataclass(frozen=True)
class ItoInstance:
    """A reduced arc polynomial at a specific rational parameter value."""

    arc: ArcParams
    alpha: Fraction
    poly: RatPoly

    def k(self, j: int) -> Fraction:
        """Coefficient k_j of t^(deg - j) in the monic expansion."""
        return self.poly.coeff_from_top(j)


def _closed_form(arc: ArcParams, a: Fraction) -> RatPoly:
    """Types 0, I and III are t^y (t^q - b)^d - a^d with y = s - q d >= 0
    (0 for Type 0, s - q for Type I); Type II is (t^q - b)^d - a^d t^z
    with z = q d - s.  The d + 2 terms are written into one list of the
    shared zero; they meet only in the constant term of Type 0."""
    q, d = arc.q, arc.d
    if arc.type_tag is ArcType.TYPE_II:
        y, z = 0, q * d - arc.s
    else:
        y, z = arc.s - q * d, 0
    coeffs = [_ZERO] * (y + q * d + 1)
    for e, c in _binomial_terms(q, 1 - a, d):
        coeffs[y + e] = c
    coeffs[z] -= a ** d
    return RatPoly(coeffs)


def reduced_ito(arc: ArcParams, alpha: RatLike) -> ItoInstance:
    """Build the reduced polynomial for the arc's type at the given parameter.

    The closed form is returned as it stands: ``ArcParams`` proves the
    arc's type, d, z and y in integers, and the tests check that the
    closed form times t^(s + q d - deg) equals the unreduced polynomial.
    """
    a = rat(alpha)
    _check_alpha(a)
    return ItoInstance(arc=arc, alpha=a, poly=_closed_form(arc, a))


def coefficient_identity_check(inst: ItoInstance) -> bool:
    """Exact test of 2*d*k_(2q) = (d-1)*k_q**2.

    k_(2q) is taken as 0 when 2q exceeds the degree (the Type I case,
    where the identity holds vacuously).
    """
    d = inst.arc.d
    q = inst.arc.q
    k_q = inst.k(q)
    k_2q = inst.k(2 * q) if 2 * q <= inst.poly.degree else Fraction(0)
    return 2 * d * k_2q == (d - 1) * k_q ** 2
