"""Farey fractions, Farey pairs, and boundary-arc classification.

The fractions p/q with 0 <= p < q <= n and gcd(p, q) = 1 mark the points
e^(2*pi*i*p/q) where the eigenvalue region of order-n stochastic matrices
meets the unit circle.  Consecutive fractions (plus a wraparound pair back
to angle 2*pi) bound the curvilinear arcs of the region's boundary; each
arc is classified here into one of four types by the denominators of its
endpoints.

Fractions are plain ``fractions.Fraction`` values.  The wraparound arc is
represented with upper endpoint 1/1, which keeps the adjacency determinant
identity hi.p * lo.q - lo.p * hi.q = 1 uniform across all pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

__all__ = [
    "ArcType",
    "FareyPair",
    "ArcParams",
    "farey_sequence",
    "farey_pairs",
    "classify_arc",
    "arc_params",
    "arcs_of_order",
]


class ArcType(enum.Enum):
    """Reduced-polynomial type of a boundary arc."""

    TYPE_0 = "0"
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"

    def __str__(self) -> str:
        return f"Type{self.value}"


def farey_sequence(n: int) -> list[Fraction]:
    """All reduced fractions p/q with 0 <= p < q <= n, ascending.

    Note the strict p < q: the sequence lives in [0, 1), with 1/1 appearing
    only implicitly as the wraparound endpoint of the last boundary arc.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    # Standard two-term recurrence walking the sequence left to right.
    seq = [Fraction(0, 1)]
    a, b, c, d = 0, 1, 1, n
    while c < d:
        seq.append(Fraction(c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return seq


@dataclass(frozen=True)
class FareyPair:
    """Two consecutive Farey fractions of order n.

    ``hi`` may be 1/1, encoding the wraparound arc from the last sequence
    element back to angle 2*pi.
    """

    lo: Fraction
    hi: Fraction
    order: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi <= 1:
            raise ValueError("pair must be ascending within [0, 1]")
        det = self.hi.numerator * self.lo.denominator - self.lo.numerator * self.hi.denominator
        if det != 1:
            raise ValueError(f"not Farey-adjacent: determinant {det}, expected 1")
        if self.lo.denominator > self.order or self.hi.denominator > self.order:
            raise ValueError("denominator exceeds the order")
        # Adjacency in F_n also needs the mediant to fall outside F_n.
        if self.lo.denominator + self.hi.denominator <= self.order:
            raise ValueError("mediant lies within the sequence; not adjacent")

    @property
    def is_wraparound(self) -> bool:
        return self.hi == 1


def farey_pairs(n: int) -> list[FareyPair]:
    """All boundary-arc endpoint pairs of order n, in circular order.

    Consecutive members of ``farey_sequence(n)`` plus the wraparound pair
    (last element, 1/1), so the pairs cover the whole circle.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    seq = farey_sequence(n)
    pairs = [FareyPair(a, b, n) for a, b in zip(seq, seq[1:])]
    pairs.append(FareyPair(seq[-1], Fraction(1, 1), n))
    return pairs


@dataclass(frozen=True)
class ArcParams:
    """A classified boundary arc.

    (p, q) is the endpoint with the smaller denominator, (r, s) the one
    with the larger; d = floor(n / q).  ``z`` (Type II) and ``y``
    (Type III) measure how far s falls short of / exceeds q*d.
    """

    n: int
    p: int
    q: int
    r: int
    s: int
    d: int
    type_tag: ArcType
    z: Optional[int] = None
    y: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0 < self.q < self.s):
            raise ValueError("need 0 < q < s")
        if gcd(self.p, self.q) != 1 or gcd(self.r, self.s) != 1:
            raise ValueError("endpoints must be reduced fractions")
        if self.d != self.n // self.q:
            raise ValueError("d must equal floor(n / q)")
        if self.type_tag is ArcType.TYPE_II and self.z not in range(1, self.q):
            raise ValueError("Type II requires z in 1..q-1")
        if self.type_tag is ArcType.TYPE_III and self.y not in range(1, self.q):
            raise ValueError("Type III requires y in 1..q-1")

    @property
    def reduced_degree(self) -> int:
        """Degree of the arc polynomial after extraneous zero roots go.

        Type 0: d (= n, since q = 1).  Type I: s.  Type II: q*d.
        Type III: s.  Equals the matrix order n exactly when s = n
        (Type II: when q*d = n), which is what realization constructors
        require.
        """
        if self.type_tag is ArcType.TYPE_0:
            return self.d
        if self.type_tag is ArcType.TYPE_I:
            return self.s
        if self.type_tag is ArcType.TYPE_II:
            return self.q * self.d
        return self.s

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "d": self.d,
            "type": self.type_tag.value,
        }
        if self.z is not None:
            data["z"] = self.z
        if self.y is not None:
            data["y"] = self.y
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ArcParams":
        """Inverse of :meth:`to_json`; any other shape raises ValueError.

        So does an arc whose type, d, z or y disagree with its endpoints:
        the arc is classified again from p/q and r/s and must come out equal.
        """
        if not isinstance(data, dict):
            raise ValueError(f"arc parameters must be a JSON object, got {type(data).__name__}")
        fields = {key: data.get(key) for key in ("n", "p", "q", "r", "s", "d", "z", "y")}
        for key, value in fields.items():
            if type(value) is not int and not (key in ("z", "y") and value is None):
                raise ValueError(f"arc field {key!r} must be an integer, got {value!r}")
        arc = cls(type_tag=ArcType(data.get("type")), **fields)
        lo, hi = sorted((Fraction(arc.p, arc.q), Fraction(arc.r, arc.s)))
        if classify_arc(arc.n, FareyPair(lo, hi, arc.n)) != arc:
            raise ValueError(f"arc parameters do not match the order-{arc.n} arc {lo}-{hi}")
        return arc


def classify_arc(n: int, pair: FareyPair) -> ArcParams:
    """Classify a boundary arc of order n into its reduced-polynomial type.

    The endpoint with the smaller denominator supplies (p, q), the other
    (r, s).  Consecutive Farey fractions never share a denominator for
    n >= 2, and s = q*d cannot occur for coprime endpoints with q >= 2
    (both are asserted, never silently accepted).
    """
    if pair.order != n:
        raise ValueError("pair order does not match n")
    lo, hi = pair.lo, pair.hi
    if lo.denominator == hi.denominator:
        raise ValueError("endpoints share a denominator; not a valid pair for n >= 2")
    if lo.denominator < hi.denominator:
        p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    else:
        p, q, r, s = hi.numerator, hi.denominator, lo.numerator, lo.denominator
    d = n // q
    if q == 1:
        return ArcParams(n=n, p=p, q=q, r=r, s=s, d=d, type_tag=ArcType.TYPE_0)
    if d == 1:
        return ArcParams(n=n, p=p, q=q, r=r, s=s, d=d, type_tag=ArcType.TYPE_I)
    if s == q * d:
        # Farey adjacency gives q*r - p*s = +-1; q | s would force q | 1.
        raise ValueError(f"impossible arc: s = q*d = {s} with q = {q} >= 2")
    if s < q * d:
        return ArcParams(n=n, p=p, q=q, r=r, s=s, d=d, type_tag=ArcType.TYPE_II, z=q * d - s)
    return ArcParams(n=n, p=p, q=q, r=r, s=s, d=d, type_tag=ArcType.TYPE_III, y=s - q * d)


def arcs_of_order(n: int) -> list[ArcParams]:
    """Classified arcs for every Farey pair of order n, in circular order."""
    return [classify_arc(n, pair) for pair in farey_pairs(n)]


def arc_params(
    type_tag: ArcType,
    *,
    n: Optional[int] = None,
    q: Optional[int] = None,
    d: Optional[int] = None,
    z: Optional[int] = None,
    y: Optional[int] = None,
) -> ArcParams:
    """Build the ArcParams for a realization family from its parameters alone.

    Finds the canonical Farey pair carrying the requested type: endpoints
    p/q < r/s with r*q - p*s = 1 and r minimal.  The matrix order n equals
    the reduced-polynomial degree, which is the setting every realization
    constructor works in.
    """
    if type_tag is ArcType.TYPE_0:
        if n is None:
            raise ValueError("Type 0 needs n")
        if n < 2:
            raise ValueError("arcs exist for orders n >= 2 only")
        return ArcParams(n=n, p=0, q=1, r=1, s=n, d=n, type_tag=ArcType.TYPE_0)

    if q is None or q < 2:
        raise ValueError("need q >= 2")
    if type_tag is ArcType.TYPE_I:
        if n is None:
            raise ValueError("Type I needs n")
        if not (q < n < 2 * q):
            raise ValueError("Type I requires q < n < 2q")
        s = n
    elif type_tag is ArcType.TYPE_II:
        if d is None or z is None:
            raise ValueError("Type II needs d and z")
        if d < 2 or not (1 <= z <= q - 1):
            raise ValueError("Type II requires d >= 2 and z in 1..q-1")
        s = q * d - z
        n = q * d
    else:
        if d is None or y is None:
            raise ValueError("Type III needs d and y")
        if d < 2 or not (1 <= y <= q - 1):
            raise ValueError("Type III requires d >= 2 and y in 1..q-1")
        s = q * d + y
        n = q * d + y
    if gcd(q, s) != 1:
        raise ValueError(f"q = {q} and s = {s} are not coprime; no such arc")
    r = pow(q, -1, s)
    p = (r * q - 1) // s
    pair = FareyPair(Fraction(p, q), Fraction(r, s), n)
    arc = classify_arc(n, pair)
    if arc.type_tag is not type_tag:
        raise ValueError(f"parameters classify as {arc.type_tag}, not {type_tag}")
    return arc
