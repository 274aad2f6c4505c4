"""Exact rational scalars, dense rational polynomials, and stochastic matrices.

Everything in this module is exact: scalars are ``fractions.Fraction``
(arbitrary-precision, always in lowest terms), polynomials are dense
coefficient lists over Fraction, and matrices are immutable and stored as
their nonzero entries row by row, as sorted ``(column, entry)`` pairs.
A matrix is given as dense rows, its JSON wire form; their nonzero pairs,
or the pairs a realization builder writes itself, pass one validator.
Building, relabelling and reducing the sparse realization matrices follows
those pairs; the dense grid of a matrix is derived from them only when it
is read.  A matrix also keeps one integer view, made when first read: L,
the lcm of its entry denominators, and its rows as ``(column, int
numerator over L)`` pairs, which the characteristic polynomial and the
similarity search read instead of the Fractions.  The characteristic
polynomial is reduced on the nonzeros and finishes in Python ints after
scaling by a common denominator.
No floating point enters anywhere; the float world lives in
:mod:`karpelevic.boundary` only.

Indexing convention: matrices and vertices are 0-based throughout the
package.  The cyclic shift ``C(n)`` maps index i to i+1 (mod n), i.e. it has
ones in positions (i, (i+1) % n).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Union

RatLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

__all__ = [
    "RatPoly",
    "StochMatrix",
    "rat",
    "rat_str",
    "poly_eval",
    "charpoly_exact",
    "cyclic_shift_matrix",
]


# An integer literal: an optional sign, then ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """The integer literal ``text`` once stripped, as :func:`rat` reads each
    side of its "/"; underscores and other digits, which ``int()`` takes,
    raise ValueError."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


# argparse names a flag's type in its usage errors: "invalid int value: 'x'".
_integer.__name__ = "int"


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Rationals cross the API boundary as "p/q" (or plain integer) strings
    only: once the string is stripped, p and q are each an optional sign
    then ASCII digits.  Decimals, exponents, underscores and other digits
    are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        if not (_INTEGER.fullmatch(num) and _INTEGER.fullmatch(den if slash else "1")):
            raise ValueError(f"not an exact rational literal: {value!r}")
        num, den = int(num), int(den or 1)
        if den == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _check_integer(what: str, value: object) -> None:
    """Raise ValueError naming ``what`` unless value is an int; a bool or
    a float of integral value is not."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_order(n: int, least: int) -> None:
    _check_integer("order", n)
    if n < least:
        raise ValueError(f"order must be at least {least}")


class RatPoly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored ascending: ``coeffs[i]`` multiplies t**i.
    Trailing zeros are trimmed, so the leading coefficient of a nonzero
    polynomial is nonzero; the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coeff: RatLike = 1) -> "RatPoly":
        _check_integer("degree", degree)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (rat(coeff),))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of t**i (0 beyond the stored degree)."""
        _check_integer("index", i)
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: Union["RatPoly", RatLike]) -> "RatPoly":
        if not isinstance(other, RatPoly):
            s = rat(other)
            return RatPoly(tuple(c * s for c in self.coeffs))
        if not (self.coeffs and other.coeffs):
            return RatPoly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        left = [(i, a) for i, a in enumerate(self.coeffs) if a]
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in left:
            for j, b in right:
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        _check_integer("power", k)
        if k < 0:
            raise ValueError("negative power")
        result = RatPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, k: int) -> "RatPoly":
        """Multiply by t**k."""
        _check_integer("shift", k)
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self.coeffs:
            return self
        return RatPoly((Fraction(0),) * k + self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RatPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if not mono:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        return "RatPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


def poly_eval(p: RatPoly, x: RatLike) -> Fraction:
    """Exact Horner evaluation of p at x."""
    xv = rat(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * xv + c
    return acc


def _dense_pairs(entries: Iterable[Iterable[RatLike]]) -> list[tuple[tuple[int, Fraction], ...]]:
    """Dense rows, coerced by :func:`rat`, as each row's nonzero ``(column,
    entry)`` pairs; a row whose length is not the number of rows raises
    ValueError."""
    rows = [tuple(map(rat, row)) for row in entries]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"row {i} has length {len(row)}, expected {len(rows)}")
    return [tuple((j, e) for j, e in enumerate(row) if e) for row in rows]


@dataclass(frozen=True)
class StochMatrix:
    """Square matrix of exact rationals with unit row sums.

    The matrix is stored as ``sparse_rows``: row i as the ``(column,
    entry)`` pairs of its nonzero entries, in column order.  The constructor
    takes the dense rows, n rationals each, as the JSON wire form holds
    them, and hands their nonzero pairs to :meth:`_from_pairs`, the one
    validator; the realization builders write the sorted pairs themselves
    and call it directly, and :meth:`permuted` relabels the pairs, so on
    matrices with O(n) nonzeros building, validation and :meth:`nnz` take
    O(n) steps rather than O(n^2); ``WeightedDigraph.from_matrix`` shares
    the pairs without copying them.
    The dense grid ``entries`` is filled in from the pairs the first time
    it is read (indexing, JSON, repr).

    Entries are validated at construction: each in [0, 1], each row summing
    to exactly 1.  Two matrices are equal when their entries are.
    Instances are immutable; all operations return new matrices.
    """

    sparse_rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __init__(self, entries: Iterable[Iterable[RatLike]]):
        object.__setattr__(self, "sparse_rows", self._from_pairs(_dense_pairs(entries)).sparse_rows)

    @classmethod
    def _of(cls, rows: tuple[tuple[tuple[int, Fraction], ...], ...]) -> "StochMatrix":
        """The matrix whose ``sparse_rows`` are ``rows``, taken as they are."""
        out = cls.__new__(cls)
        object.__setattr__(out, "sparse_rows", rows)
        return out

    @classmethod
    def _from_pairs(cls, rows: Iterable[tuple[tuple[int, Fraction], ...]]) -> "StochMatrix":
        """The matrix with row i given as its ``(column, Fraction)`` pairs in
        increasing column order, as the realization builders write them.

        A zero entry is dropped; a column outside 0..n-1, an entry outside
        [0, 1] or a row sum other than 1 raises ValueError."""
        rows = list(rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) == 1:
                # Most rows of a realization hold a single 1, which passes.
                j, e = row[0]
                if (e is _ONE or e == 1) and 0 <= j < n:
                    continue
            else:
                row = rows[i] = tuple(p for p in row if p[1])
            if row and not (0 <= row[0][0] and row[-1][0] < n):
                raise ValueError(f"row {i} has a column outside 0..{n - 1}")
            if any(not 0 <= e.numerator <= e.denominator for _, e in row):
                raise ValueError(f"row {i} has an entry outside [0, 1]")
            # The entries sum to one when their numerators over the lcm L of
            # their denominators add up to L.
            den = lcm(*(e.denominator for _, e in row))
            total = sum(e.numerator * (den // e.denominator) for _, e in row)
            if total != den:
                raise ValueError(f"row {i} sums to {Fraction(total, den)}, not 1")
        return cls._of(tuple(rows))

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense grid of Fractions, zeros included."""
        grid = []
        for row in self.sparse_rows:
            dense = [_ZERO] * len(self.sparse_rows)
            for j, e in row:
                dense[j] = e
            grid.append(tuple(dense))
        return tuple(grid)

    @cached_property
    def _int_view(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(L, rows): L the lcm of the entry denominators, and each row as
        ``(column, int numerator over L)`` pairs.  Kept in the instance dict,
        like ``entries``, so ``==``, ``hash``, JSON and ``repr`` never see it."""
        # A row with one nonzero holds a 1, which is L over L.
        d = lcm(*(e.denominator for row in self.sparse_rows if len(row) > 1 for _, e in row))
        return d, tuple(
            ((row[0][0], d),) if len(row) == 1
            else tuple((j, e.numerator * (d // e.denominator)) for j, e in row)
            for row in self.sparse_rows
        )

    @property
    def n(self) -> int:
        return len(self.sparse_rows)

    def permuted(self, perm: Sequence[int]) -> "StochMatrix":
        """Relabel by perm: entry (i, j) of the result is entry (perm[i], perm[j]) of self.

        Equivalent to P A P^T where P has ones at (i, perm[i]).
        """
        n = self.n
        for v in perm:
            _check_integer("permutation entry", v)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
        slot = [0] * n
        for i, v in enumerate(perm):
            slot[v] = i
        # A relabelling of valid sparse rows is valid sparse rows: only the
        # columns change, and they are distinct, so sorting compares ints.
        return StochMatrix._of(
            tuple(tuple(sorted((slot[j], e) for j, e in self.sparse_rows[v])) for v in perm)
        )

    def nnz(self) -> int:
        return sum(map(len, self.sparse_rows))

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """Shared wire format: {"n": int, "entries": [["p/q", ...], ...]}."""
        return {
            "n": self.n,
            "entries": [[rat_str(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StochMatrix":
        """Inverse of :meth:`to_json`; any other shape raises ValueError."""
        rows = data.get("entries") if isinstance(data, dict) else None
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                and type(data.get("n")) is int):
            raise ValueError('a matrix must be a JSON object {"n": int, "entries": [[...], ...]}')
        if len(rows) != data["n"]:
            raise ValueError("matrix order does not match 'n'")
        try:
            return cls(rows)
        except TypeError as exc:
            raise ValueError(f'matrix entries must be "p/q" strings or integers: {exc}')

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(e) for e in row) for row in self.entries)
        return f"StochMatrix[{self.n}]({body})"


def cyclic_shift_matrix(n: int, power: int = 1) -> StochMatrix:
    """C(n)**power, where C(n) has ones in positions (i, (i+1) % n)."""
    _check_order(n, 1)
    _check_integer("power", power)
    k = power % n
    return StochMatrix._of(tuple((((i + k) % n, _ONE),) for i in range(n)))


def _hessenberg_columns(matrix) -> list[list[tuple[int, Fraction]]]:
    """The nonzeros of each column of an upper Hessenberg matrix similar to
    ``matrix``, as ``(row, entry)`` pairs, by exact elimination in Fractions.

    The elimination keeps each row and each column as a dict of its
    nonzeros keyed by vertex.  ``at[p]`` is the vertex at position p and
    ``pos`` its inverse, so a pivot swap, of two rows and the same two
    columns, swaps two positions and moves no entry."""
    pairs = matrix.sparse_rows if isinstance(matrix, StochMatrix) else _dense_pairs(matrix)
    rows = [dict(row) for row in pairs]
    n = len(rows)
    cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, e in row.items():
            cols[j][i] = e

    def add(r: int, c: int, x: Fraction) -> None:
        # Entry (r, c) += x, dropping it from both dicts when it cancels.
        x += rows[r].get(c, 0)
        if x:
            rows[r][c] = cols[c][r] = x
        else:
            del rows[r][c], cols[c][r]

    at = list(range(n))
    pos = list(range(n))
    for j in range(n - 2):
        c = at[j]
        below = sorted(pos[r] for r in cols[c] if pos[r] > j)
        if not below:
            continue
        p = at[below[0]]
        if below[0] != j + 1:
            v = at[j + 1]
            at[j + 1], at[below[0]] = p, v
            pos[p], pos[v] = j + 1, below[0]
        # Row p, now at position j + 1, is zero left of column j, so
        # subtracting a multiple of it from a row below clears that row's
        # entry in column j and changes no column left of it.
        row_p = rows[p]
        pivot = row_p[c]
        for i in below[1:]:
            v = at[i]
            m = rows[v][c] / pivot
            del rows[v][c], cols[c][v]
            for k, e in row_p.items():
                if k != c:
                    add(v, k, -m * e)
            for r, e in cols[v].items():
                add(r, p, m * e)
    return [sorted((pos[r], e) for r, e in cols[at[k]].items()) for k in range(n)]


def _hessenberg_order(rows) -> Optional[list[int]]:
    """An order of the vertices making the matrix with these sparse rows
    lower Hessenberg (every nonzero at j <= i + 1), or None.

    The identity if the rows already are; else a forced walk.  In such an
    order only v_i's edges can reach v_(i+1), so a walk starts at a vertex
    with one non-loop successor and steps to the unique unplaced successor,
    failing on none or on two or more, with no backtracking.  A walk from
    any vertex of a walk that met two would meet two again, so none starts.
    On a strongly connected digraph an order is found whenever one exists.
    """
    n = len(rows)
    if all(row[-1][0] <= i + 1 for i, row in enumerate(rows) if row):
        return list(range(n))
    succ = [[j for j, _ in row] for row in rows]
    dead: set[int] = set()
    for start in range(n):
        if start in dead or len(succ[start]) - (start in succ[start]) != 1:
            continue
        order, placed = [start], {start}
        while len(order) < n:
            ahead = [j for j in succ[order[-1]] if j not in placed]
            if len(ahead) != 1:
                break
            placed.add(ahead[0])
            order.append(ahead[0])
        else:
            return order
        if ahead:
            dead.update(order)
    return None


def charpoly_exact(matrix) -> RatPoly:
    """Monic characteristic polynomial det(tI - M) over exact rationals.

    Works on a StochMatrix or any square grid of rationals.  The matrix is
    brought to upper Hessenberg form H, then the characteristic polynomial
    is assembled by the leading-principal-minor recurrence in Python ints:
    with D the lcm of the denominators of H, det(tI - H) = D^-n det(sI - DH)
    at s = Dt, so the recurrence runs on the integer matrix DH and the
    coefficient c_i of s^i becomes c_i / D^(n-i) at t^i; a zero c_i, the
    common case on a realization, is the shared zero.  Nothing is rounded
    anywhere.

    A StochMatrix that some relabelling makes lower Hessenberg, as every
    Type 0, I and III realization and many Type II ones are, is relabelled
    by :func:`_hessenberg_order` and loaded transposed: the transpose is
    upper Hessenberg with the same characteristic polynomial, so there is
    no elimination, and D and DH are read from the matrix's integer view
    (L and its rows over L), made once per matrix.

    Any other matrix is reduced to H by exact similarity transforms in
    Fractions, on a dict of the nonzeros of each row and of each column; a
    grid is loaded into the same dicts, and no dense working grid is made.
    A pivot swap relabels two positions.  A column with nothing below its
    subdiagonal needs no elimination, an elimination touches only the
    nonzero entries of the pivot row and of the eliminated column, and the
    recurrence reads only the nonzeros of each column and multiplies
    subdiagonal entries only down to the lowest nonzero entry above the
    diagonal.  On the sparse realization matrices the Fraction arithmetic
    therefore follows the nonzeros and their fill-in.
    """
    order = _hessenberg_order(matrix.sparse_rows) if isinstance(matrix, StochMatrix) else None
    if order is not None:
        d, rows = matrix._int_view
        slot = {v: k for k, v in enumerate(order)}
        g = [sorted((slot[j], x) for j, x in rows[v]) for v in order]
    else:
        cols = _hessenberg_columns(matrix)
        # The nonzeros of column k lie in rows 0..k+1; scaled by D they are ints.
        d = lcm(*(e.denominator for col in cols for _, e in col))
        g = [[(i, e.numerator * (d // e.denominator)) for i, e in col] for col in cols]
    n = len(g)
    sub = [0] * n  # sub[m] = (DH)[m][m-1]
    for k, col in enumerate(g):
        if col and col[-1][0] == k + 1:
            sub[k + 1] = col.pop()[1]

    # p_k(s) = (s - g[k-1][k-1]) p_{k-1}(s)
    #          - sum_{i<k-1} g[i][k-1] * (prod of subdiagonal g[m][m-1], m=i+1..k-1) * p_i(s)
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        cur = [0] + polys[k - 1]
        # running = prod of g[m][m-1] for m = low..k-1, extended downwards
        # only when a nonzero g[i][k-1] needs it.
        running, low = 1, k
        for i, top in reversed(g[k - 1]):
            while low > i + 1 and running:
                low -= 1
                running *= sub[low]
            if not running:
                break
            scale = top * running
            for idx, c in enumerate(polys[i]):
                cur[idx] -= scale * c
        polys.append(cur)
    return RatPoly(Fraction(c, d ** (n - i)) if c else _ZERO for i, c in enumerate(polys[n]))
