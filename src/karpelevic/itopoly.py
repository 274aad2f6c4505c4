"""Boundary-arc polynomials: the unreduced parametric form and its reduction.

Every boundary arc of the order-n region is cut out by the one-parameter
family

    t^s (t^q - b)^d  =  a^d t^(q d),      a in [0, 1],  b = 1 - a,

where (p/q, r/s) are the arc endpoints and d = floor(n/q).  The polynomial
has extraneous zero roots; dividing out the maximal power of t leaves the
reduced polynomial, which has one shape for all four arc types:

    t^y (t^q - b)^d - a^d t^z,    y = max(s - q d, 0),  z = max(q d - s, 0).

Type II (s < q d) has y = 0 and its z; Type III (s > q d) has its y and
z = 0; Type I (d = 1) has y = s - q and Type 0 (q = 1, d = n = s) has
y = z = 0.  ``reduced_shifts`` gives the pair, and the degree is
max(s, q d).

Both forms come from one writer, ``_closed_form``, given their shifts:
(y, z) for the reduced form and (s, q d) for the unreduced one.  It writes
(t^q - b)^d expanded by the binomial theorem, whose d + 1 nonzero terms
are C(d, k) (-b)^k t^(q (d - k)), so no polynomial is ever raised to a
power.

Coefficient bookkeeping follows the monic convention: k_j is the
coefficient of t^(deg - j), so that k_q = -b*d and
k_(2q) = d(d-1) b^2 / 2 for every reduced polynomial with 2q < deg.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from karpelevic.algebra import _ZERO, RatLike, RatPoly, _check_integer, rat
from karpelevic.farey import ArcParams

__all__ = [
    "ItoInstance",
    "full_arc_poly",
    "reduced_ito",
    "reduced_shifts",
    "coefficient_identity_check",
]


def _check_alpha(alpha: Fraction | float) -> None:
    if not (0 <= alpha <= 1):
        raise ValueError(f"parameter must lie in [0, 1], got {alpha}")


def _binomial_terms(q: int, b: Fraction, d: int) -> list[tuple[int, Fraction]]:
    """The d + 1 terms of (t^q - b)^d by the binomial theorem, as
    (exponent, coefficient) pairs: C(d, k) (-b)^k at t^(q (d - k))."""
    return [(q * (d - k), comb(d, k) * (-b) ** k) for k in range(d + 1)]


def full_arc_poly(arc: ArcParams, alpha: RatLike) -> RatPoly:
    """The unreduced arc polynomial t^s (t^q - b)^d - a^d t^(q d), expanded."""
    a = rat(alpha)
    _check_alpha(a)
    return _closed_form(arc.q, arc.d, a, arc.s, arc.q * arc.d)


@dataclass(frozen=True)
class ItoInstance:
    """A reduced arc polynomial at a specific rational parameter value."""

    arc: ArcParams
    alpha: Fraction
    poly: RatPoly

    def k(self, j: int) -> Fraction:
        """Coefficient k_j of t^(deg - j) in the monic expansion."""
        _check_integer("index", j)
        return self.poly.coeff(self.poly.degree - j)


def reduced_shifts(arc: ArcParams) -> tuple[int, int]:
    """The shifts (y, z) of the reduced form t^y (t^q - b)^d - a^d t^z:
    y = max(s - q d, 0) and z = max(q d - s, 0)."""
    gap = arc.s - arc.q * arc.d
    return max(gap, 0), max(-gap, 0)


def _closed_form(q: int, d: int, a: Fraction, y: int, z: int) -> RatPoly:
    """t^y (t^q - b)^d - a^d t^z, its d + 2 terms written into one list of
    the shared zero; they meet, at t^z, only on Type 0 (q = 1).  Every
    term is a Fraction and the leading one is 1 at t^(y + q d), above z,
    so the list is taken as the polynomial's coefficients as it stands."""
    coeffs = [_ZERO] * (y + q * d + 1)
    for e, c in _binomial_terms(q, 1 - a, d):
        coeffs[y + e] = c
    coeffs[z] -= a ** d
    return RatPoly._of(tuple(coeffs))


def reduced_ito(arc: ArcParams, alpha: RatLike) -> ItoInstance:
    """Build the reduced polynomial for the arc's type at the given parameter.

    The closed form is returned as it stands: ``ArcParams`` proves the
    arc's type, d, z and y in integers, and the tests check that the
    closed form times t^(s + q d - deg) equals the unreduced polynomial.
    """
    a = rat(alpha)
    _check_alpha(a)
    return ItoInstance(arc=arc, alpha=a, poly=_closed_form(arc.q, arc.d, a, *reduced_shifts(arc)))


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
