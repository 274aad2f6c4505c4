"""Farey fractions and boundary-arc classification.

The reduced fractions p/q with 0 <= p <= q <= n, the order-n Farey
sequence from 0/1 to 1/1, mark the points e^(2*pi*i*p/q) where the
eigenvalue region of order-n stochastic matrices meets the unit circle.
Each boundary arc joins two consecutive fractions and is held as five
integers, ``ArcParams(n, p, q, r, s)``: p/q the endpoint with the smaller
denominator, r/s the other.  ``ArcParams`` is the one place that checks
adjacency, and it derives d, the type, z and y from the order and the
endpoints, so only ``ArcParams.from_json``, where outside JSON states
them, compares them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from karpelevic.algebra import _check_integer, _check_order

__all__ = [
    "ArcType",
    "ArcParams",
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


@dataclass(frozen=True)
class ArcParams:
    """A classified boundary arc.

    (p, q) is the endpoint with the smaller denominator, (r, s) the one
    with the larger.  The constructor checks that n, p, q, r and s are
    ints and that p/q and r/s are neighbours in the order-n Farey
    sequence, raising ValueError otherwise, and derives d = floor(n / q),
    the type, and ``z`` (Type II) and ``y`` (Type III), how far s falls
    short of / exceeds q*d.
    """

    n: int
    p: int
    q: int
    r: int
    s: int
    d: int = field(init=False)
    type_tag: ArcType = field(init=False)
    z: Optional[int] = field(init=False)
    y: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        for name in ("n", "p", "q", "r", "s"):
            _check_integer(f"arc field {name!r}", getattr(self, name))
        if not (0 < self.q < self.s):
            raise ValueError("need 0 < q < s")
        if not (0 <= self.p <= self.q and 0 <= self.r <= self.s):
            raise ValueError("endpoints must lie in [0, 1]")
        if abs(self.q * self.r - self.p * self.s) != 1:
            raise ValueError("endpoints must be Farey neighbours: |q*r - p*s| = 1")
        if not (self.s <= self.n < self.q + self.s):
            raise ValueError(f"endpoints are not neighbours in the order-{self.n} sequence")
        d = self.n // self.q
        tag, z, y = _arc_type(self.q, self.s, d)
        for name, value in (("d", d), ("type_tag", tag), ("z", z), ("y", y)):
            object.__setattr__(self, name, value)

    @property
    def reduced_degree(self) -> int:
        """Degree of the arc polynomial after extraneous zero roots go:
        max(s, q*d), which is n for Type 0, s for Types I and III and q*d
        for Type II.  Equals the matrix order n exactly when s = n (Type II:
        when q*d = n), which is what realization constructors require.
        """
        return max(self.s, self.q * self.d)

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

        So does an arc whose d, type, z or y disagree with the ones its
        endpoints determine.
        """
        if not isinstance(data, dict):
            raise ValueError(f"arc parameters must be a JSON object, got {type(data).__name__}")
        fields = {key: data.get(key) for key in ("n", "p", "q", "r", "s", "d", "z", "y")}
        for key in ("d", "z", "y"):
            if key == "d" or fields[key] is not None:
                _check_integer(f"arc field {key!r}", fields[key])
        tag = ArcType(data.get("type"))
        arc = cls(*(fields[key] for key in ("n", "p", "q", "r", "s")))
        if fields["d"] != arc.d:
            raise ValueError("d must equal floor(n / q)")
        if (tag, fields["z"], fields["y"]) != (arc.type_tag, arc.z, arc.y):
            ends = f"{arc.p}/{arc.q}-{arc.r}/{arc.s}"
            raise ValueError(f"the order-{arc.n} arc {ends} is {arc.type_tag} with z={arc.z}, y={arc.y}")
        return arc


def _arc_type(q: int, s: int, d: int) -> tuple[ArcType, Optional[int], Optional[int]]:
    """Type, z and y of an arc from its denominators q < s and d = floor(n / q).

    s = q*d cannot occur for q >= 2: Farey adjacency gives q*r - p*s = +-1,
    and q | s would force q | 1.
    """
    if q == 1:
        return ArcType.TYPE_0, None, None
    if d == 1:
        return ArcType.TYPE_I, None, None
    if s < q * d:
        return ArcType.TYPE_II, q * d - s, None
    return ArcType.TYPE_III, None, s - q * d


def arcs_of_order(n: int) -> list[ArcParams]:
    """Every arc of order n in circular order, from 0/1 to 1/1.

    Walks the Farey sequence by its two-term recurrence: neighbours
    a/b < c/d are followed by c/d and (k*c - a)/(k*d - b), k = (n + b) // d.
    """
    _check_order(n, 2)
    arcs = []
    a, b, c, d = 0, 1, 1, n
    while a < b:
        arcs.append(ArcParams(n, a, b, c, d) if b < d else ArcParams(n, c, d, a, b))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return arcs


_REQUIRED = {
    ArcType.TYPE_0: ("n",),
    ArcType.TYPE_I: ("n", "q"),
    ArcType.TYPE_II: ("q", "d", "z"),
    ArcType.TYPE_III: ("q", "d", "y"),
}


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

    Finds the canonical arc carrying the requested type: endpoints
    p/q < r/s with r*q - p*s = 1 and r minimal.  The matrix order n equals
    the reduced-polynomial degree, which is the setting every realization
    constructor works in.  Each type's parameters (``_REQUIRED``) are
    checked first: every missing one is named, then every one given that
    the type does not take, then any that is not an int.
    """
    given = {"n": n, "q": q, "d": d, "z": z, "y": y}
    required = _REQUIRED[type_tag]
    missing = [name for name in required if given[name] is None]
    unused = [name for name, value in given.items() if value is not None and name not in required]
    for names, verb in ((missing, "needs"), (unused, "does not take")):
        if names:
            *rest, last = names
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ValueError(f"Type {type_tag.value} {verb} {listed}")
    for name in required:
        _check_integer(f"arc field {name!r}", given[name])

    if type_tag is ArcType.TYPE_0:
        if n < 2:
            raise ValueError("arcs exist for orders n >= 2 only")
        return ArcParams(n, 0, 1, 1, n)

    if q < 2:
        raise ValueError("need q >= 2")
    if type_tag is ArcType.TYPE_I:
        if not (q < n < 2 * q):
            raise ValueError("Type I requires q < n < 2q")
        s = n
    elif type_tag is ArcType.TYPE_II:
        if d < 2 or not (1 <= z <= q - 1):
            raise ValueError("Type II requires d >= 2 and z in 1..q-1")
        s, n = q * d - z, q * d
    else:
        if d < 2 or not (1 <= y <= q - 1):
            raise ValueError("Type III requires d >= 2 and y in 1..q-1")
        s = n = q * d + y
    if gcd(q, s) != 1:
        raise ValueError(f"q = {q} and s = {s} are not coprime; no such arc")
    r = pow(q, -1, s)
    p = (r * q - 1) // s
    return ArcParams(n, p, q, r, s)
