"""Stochastic matrices realising each boundary-arc polynomial type.

All constructions work at matrix order n equal to the reduced-polynomial
degree (Type II: n = q*d, Type III: n = q*d + y), with the family
parameter held as an exact rational in (0, 1).  The one entry to a
sparsest realization is ``build_sparsest(arc, alpha, composition)`` on a
validated :class:`ArcParams`; ``enumerate_sparsest(arc)`` lists one
composition per class.  A composition is a plain tuple of parts, which
the build checks against the arc: parts below q, then the arc's sum and
length.  A :class:`TypeIIIFamilySpec` takes n, q and the step weights of
the split rows; d, y and the blocks follow from them.
``conjecture_probe`` finds a relabelling into that form, if one exists,
by one forced walk (each step to the one successor not yet placed), which
in family form runs along the n-cycle; it enumerates no cycles.
``dd_band_index(arc)`` is the band of the two-diagonal support check,
which lives in :mod:`karpelevic.digraph` with the other relabelling
search.

Construction catalogue, 0-based throughout; all four types write their
rows through the one row writer ``_split_rows``:

- Type 0:   b*I + a*C, the unique realization up to relabelling.
- Type I:   an n-cycle with the first n+1-q rows split between the step
            edge i -> i+1 (weight a_i) and the back edge i -> i+1-q.
- Type II:  d disjoint q-cycles joined into a single long cycle by d
            connector edges whose offsets a composition indexes; a
            :class:`TypeIIRealization` holds its arc and connectors.  Extra
            connectors can be grafted on as long as every resulting long
            cycle keeps length s = n - z.
- Type III: an n-cycle plus d back edges i -> i+1-q whose positions a
            composition indexes; more generally, d blocks of back-edge
            rows, the clusters of such rows closer than q, with per-block
            weight products all equal.

Compositions are deduplicated up to cyclic rotation (necklace classes);
rotating a composition relabels the realization, so necklace classes
index realizations up to permutation similarity.  The classes are
enumerated by one loop over the parts, not by recursion, so a composition
of any length is listed.  Reflections are NOT
identified: reversed compositions generally give genuinely dissimilar
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from karpelevic.algebra import (
    _ONE,
    RatLike,
    StochMatrix,
    _check_integer,
    _check_order,
    _hessenberg_order,
    charpoly_exact,
    rat,
)
from karpelevic.digraph import (
    CycleStructureReport,
    WeightedDigraph,
    cycle_structure_check,
    simple_cycles,
)
from karpelevic.farey import ArcParams, ArcType, arc_params
from karpelevic.itopoly import reduced_ito

__all__ = [
    "TypeIIRealization",
    "TypeIIIFamilySpec",
    "VerificationResult",
    "type0",
    "type1",
    "type3_family",
    "enumerate_sparsest",
    "build_sparsest",
    "verify_realization",
    "conjecture_probe",
]


def _check_open_unit(a: Fraction, what: str = "parameter") -> None:
    if not (0 < a < 1):
        raise ValueError(f"{what} must lie strictly between 0 and 1, got {a}")


# -- compositions -------------------------------------------------------


def _composition_str(parts: Sequence[int]) -> str:
    """The composition as written in listings and errors: "(0,3,3)"."""
    return "(" + ",".join(map(str, parts)) + ")"


def _necklace_classes(total: int, length: int, bound: int) -> list[tuple[int, ...]]:
    """The compositions of ``total`` into ``length`` parts in 0..bound-1
    that are their own minimal rotation, as tuples of parts in
    lexicographic order.

    Grows prenecklaces by the Fredricksen-Kessler-Maiorana rule: with p the
    period of the prefix a[1..t-1], part a[t] may be any value >= a[t-p];
    equal keeps the period, larger makes it t.  A full-length prenecklace
    is a necklace iff length % p == 0.  Prefixes are visited in
    lexicographic order, and a part is only tried if the later parts,
    each at most bound-1, can still bring the sum to ``total``, so no
    composition is built that is then thrown away; the last part is the
    sum left.  A least rotation that ends in 0 is all 0s (moving that 0 to
    the front gives a smaller rotation), so for a positive total every
    part but the last leaves at least 1 for it: a zero tail is never
    walked.  The walk is one loop: one iterator over the values left per
    placed part but the last, and a part out of values hands back to the
    part before it, as in ``digraph._relabel``.
    """
    if total == 0:
        return [(0,) * length] if bound > 0 or not length else []
    if not length:
        return []
    out: list[tuple[int, ...]] = []
    a = [0] * (length + 1)  # a[0] = 0 stands in front of the parts a[1..]
    # Per placed part: the values left to try, and the period and sum left before it.
    tried: list[tuple[Iterator[int], int, int]] = []
    p, left = 1, total
    while True:
        t = len(tried) + 1
        if t < length:
            room = (length - t) * (bound - 1)  # the most parts t+1.. can add
            values = iter(range(max(a[t - p], left - room), min(bound, left)))
            tried.append((values, p, left))
        elif a[t - p] <= left < bound:
            a[t] = left
            if length % (p if left == a[t - p] else t) == 0:
                out.append(tuple(a[1:]))
        while tried:
            values, p, left = tried[-1]
            t = len(tried)
            v = next(values, None)
            if v is not None:
                a[t] = v
                p, left = (p if v == a[t - p] else t), left - v
                break
            tried.pop()
        else:
            return out


# -- the row writer (all four types) --------------------------------------


def _split_rows(steps: Sequence[int], split: Mapping[int, tuple[Fraction, int]]) -> StochMatrix:
    """The matrix in which row i steps to steps[i] with weight 1, except
    that a row of ``split`` holding (w, j) keeps weight w on its step and
    puts 1 - w on the edge i -> j.  A zero weight on that edge is dropped,
    and where j is the step itself the two entries add up."""
    rows = []
    for i, step in enumerate(steps):
        pair = split.get(i)
        if pair is None:
            rows.append(((step, _ONE),))
            continue
        w, j = pair
        if j == step:
            rows.append(((step, w + (1 - w)),))
        elif j < step:
            rows.append(((j, 1 - w), (step, w)))
        else:
            rows.append(((step, w), (j, 1 - w)))
    return StochMatrix._from_pairs(rows)


def _cycle_with_back_edges(n: int, q: int, split: Mapping[int, Fraction]) -> StochMatrix:
    """The n-cycle i -> i+1 (mod n) in which each row i of ``split`` keeps
    weight split[i] on its step edge and puts 1 - split[i] on the back edge
    i -> (i+1-q) mod n: the shape of Types 0, I and III."""
    steps = [(i + 1) % n for i in range(n)]
    return _split_rows(steps, {i: (w, (i + 1 - q) % n) for i, w in split.items()})


# -- Type 0 --------------------------------------------------------------


def type0(n: int, alpha: RatLike) -> StochMatrix:
    """b*I_n + a*C_n: the unique order-n realization of (t - b)^n - a^n."""
    _check_order(n, 1)
    a = rat(alpha)
    _check_open_unit(a)
    return _cycle_with_back_edges(n, 1, dict.fromkeys(range(n), a))


# -- Type I --------------------------------------------------------------


def type1(n: int, q: int, alphas: Sequence[RatLike]) -> StochMatrix:
    """The general Type I realization of t^n - b*t^(n-q) - a.

    Rows 0..n-q carry weight alphas[i] on the step edge i -> i+1 and
    1 - alphas[i] on the back edge i -> (i+1-q) mod n; the remaining q-1
    rows step forward with weight 1.  Each alphas[i] lies in (0, 1] and
    a is their product.
    """
    arc_params(ArcType.TYPE_I, n=n, q=q)
    weights = [rat(a) for a in alphas]
    if len(weights) != n + 1 - q:
        raise ValueError(f"need exactly n+1-q = {n + 1 - q} weights, got {len(weights)}")
    for w in weights:
        if not (0 < w <= 1):
            raise ValueError(f"weights must lie in (0, 1], got {w}")
    _check_open_unit(prod(weights), "the product of the weights")
    return _cycle_with_back_edges(n, q, dict(enumerate(weights)))


# -- Type II -------------------------------------------------------------


def _block_steps(q: int, n: int) -> list[int]:
    """Each vertex's step round its block's q-cycle t*q -> ... -> t*q+q-1."""
    return [v - v % q + (v + 1) % q for v in range(n)]


def _type2_connectors(q: int, d: int, z: int, parts: Sequence[int]) -> list[tuple[int, int]]:
    """Base connector edges, 0-based, one per consecutive block pair: block
    t's is its candidate at offset parts[1] + ... + parts[t] (mod q)."""
    offsets = [sum(parts[1 : t + 1]) % q for t in range(d)]
    return [_allowed_connectors(q, d, z, t)[i] for t, i in enumerate(offsets)]


def _allowed_connectors(q: int, d: int, z: int, t: int) -> list[tuple[int, int]]:
    """The full candidate connector set between block t and block (t+1) mod d."""
    if t < d - 1:
        return [(t * q + i, (t + 1) * q + i) for i in range(q)]
    return [((d - 1) * q + i, (z + d + i) % q) for i in range(q)]


@dataclass(frozen=True)
class TypeIIRealization:
    """A Type II digraph: d disjoint q-cycles plus connector edges.

    It holds its arc, which fixes q, d, z and n = q*d.  ``connectors[t]``
    lists the edges from block t (vertices t*q .. t*q+q-1) into block
    (t+1) mod d.  The sparsest realization has one connector per pair;
    augmentation adds more, subject to every induced long cycle keeping
    length s = n - z.  Weights enter only at instantiation, which writes
    the rows with the row writer of the other types: each row steps round
    its block, and a connector source splits onto its connector.
    """

    arc: ArcParams
    connectors: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def sparsest(cls, arc: ArcParams, composition: Sequence[int]) -> "TypeIIRealization":
        """The sparsest digraph of a Type II arc for one composition, a
        tuple of parts."""
        if arc.type_tag is not ArcType.TYPE_II:
            raise ValueError(f"the arc is {arc.type_tag}, not {ArcType.TYPE_II}")
        _check_composition(arc, composition)
        conns = _type2_connectors(arc.q, arc.d, arc.z, composition)
        return cls(arc, tuple((c,) for c in conns))

    def block_of(self, v: int) -> int:
        return v // self.arc.q

    def augmented(self, edge: tuple[int, int]) -> "TypeIIRealization":
        """Add one connector edge, or raise if it breaks the length law.

        The edge must belong to the candidate set between some block t and
        its successor; it is accepted only if every cycle of the enlarged
        digraph but the d block q-cycles has length s = n - z.  The cycles
        are enumerated, not summed over one connector per block pair: once
        every block pair has two connectors, a simple cycle can run round
        the blocks more than once.  ``edge`` is a (source, target) pair of
        vertices, a tuple or a list.
        """
        arc = self.arc
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            raise ValueError(f"edge must be a (source, target) pair of vertices, got {edge!r}")
        src, dst = edge
        edge = (src, dst)
        for v in edge:
            _check_integer(f"edge {edge} vertex", v)
        t = self.block_of(src)
        if not (0 <= src < arc.n and 0 <= dst < arc.n):
            raise ValueError(f"edge {edge} out of range")
        if edge not in _allowed_connectors(arc.q, arc.d, arc.z, t):
            raise ValueError(
                f"edge {edge} is not a candidate connector from block {t} "
                f"to block {(t + 1) % arc.d}"
            )
        if edge in self.connectors[t]:
            raise ValueError(f"edge {edge} is already present")
        new_connectors = list(self.connectors)
        new_connectors[t] = tuple(sorted(new_connectors[t] + (edge,)))
        candidate = replace(self, connectors=tuple(new_connectors))
        # A cycle running k times round the blocks has length -k*z (mod q):
        # never q, and s only for k = 1.  So the blocks are the only
        # q-cycles, and any length but q and s is a broken long cycle.
        steps = list(enumerate(_block_steps(arc.q, arc.n)))
        links = [e for conns in new_connectors for e in conns]
        allowed = {arc.q, arc.s}
        lengths = set(simple_cycles(WeightedDigraph(arc.n, dict.fromkeys(steps + links, 1))))
        if lengths != allowed:
            raise ValueError(
                f"edge {edge} rejected: it would create a long cycle of length "
                f"{sorted(lengths - allowed)} instead of {arc.s}"
            )
        return candidate

    def free_parameters(self) -> list[str]:
        """Names of the free cycle weights, one per connector source except
        the last source of each block (whose weight is determined)."""
        return [f"alpha_{v + 1}" for conns in self.connectors for v, _ in sorted(conns)[:-1]]

    def instantiate(
        self, alpha: RatLike, params: Optional[Mapping[str, RatLike]] = None
    ) -> StochMatrix:
        """Assign weights and return the stochastic matrix.

        ``params`` supplies the free cycle weights by name (see
        :meth:`free_parameters`); the last connector source of each block
        gets the dependent weight that makes the q-cycle product equal
        1 - alpha.  Any weight falling outside the open unit interval
        makes the instantiation infeasible and raises.
        """
        a = rat(alpha)
        _check_open_unit(a)
        b = 1 - a
        given = {k: rat(v) for k, v in (params or {}).items()}
        expected = set(self.free_parameters())
        unknown = set(given) - expected
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}; expected {sorted(expected)}")
        missing = expected - set(given)
        if missing:
            raise ValueError(f"missing parameters {sorted(missing)}")

        split: dict[int, tuple[Fraction, int]] = {}
        for conns in self.connectors:
            *free, (last, last_dst) = sorted(conns)
            prod = Fraction(1)
            for v, dst in free:
                w = given[f"alpha_{v + 1}"]
                _check_open_unit(w, f"alpha_{v + 1}")
                split[v] = (w, dst)
                prod *= w
            dependent = b / prod if free else b
            if not (0 < dependent < 1):
                raise ValueError(
                    f"infeasible: the dependent weight at vertex {last + 1} "
                    f"is {dependent}, outside (0, 1)"
                )
            split[last] = (dependent, last_dst)
        return _split_rows(_block_steps(self.arc.q, self.arc.n), split)


# -- Type III ------------------------------------------------------------


def _clusters(n: int, q: int, vertices: Iterable[int]) -> list[frozenset[int]]:
    """The components of the relation "circular distance < q" on distinct
    ``vertices`` of 0..n-1, ordered by least vertex.  On the circle they are
    the maximal cyclic runs of the sorted vertices whose consecutive gaps
    stay below q: a run starts after each gap of q or more, the gap from
    the last vertex round to the first included."""
    vs = sorted(vertices)
    starts = [k for k in range(len(vs)) if (vs[k] - vs[k - 1]) % n >= q]
    if not starts:
        return [frozenset(vs)] if vs else []
    runs = [frozenset(vs[a:b]) for a, b in zip(starts, starts[1:])]
    runs.append(frozenset(vs[starts[-1]:] + vs[: starts[0]]))
    return sorted(runs, key=min)


@dataclass(frozen=True)
class TypeIIIFamilySpec:
    """The Type III family member on the n-cycle whose rows i in ``weights``
    keep weight weights[i] on the step edge and put the rest on the back
    edge i -> (i+1-q) mod n.

    d and y are derived from n = q*d + y, and ``blocks`` are the
    :func:`_clusters` of the split rows: within a block the back edges'
    q-cycles share vertices, across blocks they are vertex-disjoint.  There
    must be d blocks, every weight must lie in (0, 1), and each block's
    weights must multiply to the family parameter.  With d blocks at least
    q apart, the blocks span at most n - q*d = y < q rows between them, so
    no two rows of one block are q or more apart.
    """

    n: int
    q: int
    d: int = field(init=False)
    y: int = field(init=False)
    blocks: tuple[frozenset[int], ...] = field(init=False)
    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        _check_integer("order", self.n)
        _check_integer("q", self.q)
        for v in self.weights:
            _check_integer("block vertex", v)
        object.__setattr__(self, "weights", {v: rat(w) for v, w in self.weights.items()})
        if self.q < 2:
            raise ValueError("need q >= 2")
        d, y = divmod(self.n, self.q)
        if d < 2 or y == 0:
            raise ValueError("need n = q*d + y with d >= 2 and y in 1..q-1")
        if any(not 0 <= v < self.n for v in self.weights):
            raise ValueError("block vertices out of range")
        blocks = tuple(_clusters(self.n, self.q, self.weights))
        for name, value in (("d", d), ("y", y), ("blocks", blocks)):
            object.__setattr__(self, name, value)
        if len(blocks) != d:
            clusters = [sorted(b) for b in blocks]
            raise ValueError(f"need d = {d} blocks, the clusters of rows closer than q; got {clusters}")
        for v, w in self.weights.items():
            _check_open_unit(w, f"weight at vertex {v}")
        products = {t: prod(self.weights[v] for v in block) for t, block in enumerate(blocks)}
        if len(set(products.values())) != 1:
            raise ValueError(f"block weight products differ: {products}")

    @property
    def alpha(self) -> Fraction:
        return prod(self.weights[v] for v in self.blocks[0])


def type3_family(spec: TypeIIIFamilySpec) -> StochMatrix:
    """The family matrix: step edges weighted per spec, back edges filling
    each split row to a unit sum."""
    return _cycle_with_back_edges(spec.n, spec.q, spec.weights)


# -- enumeration ---------------------------------------------------------


def _sparsest_shape(arc: ArcParams) -> tuple[int, int]:
    """(total, length) of the arc's sparsest compositions, whose parts lie
    below q; Types 0 and I take the empty one.  Sparsest realizations have
    order n = reduced degree, so any other arc raises."""
    if arc.reduced_degree != arc.n:
        raise ValueError(
            "sparsest realizations require matrix order = reduced degree "
            f"(got n = {arc.n}, degree = {arc.reduced_degree})"
        )
    if arc.type_tag is ArcType.TYPE_II:
        assert arc.z is not None
        return arc.n - arc.z - arc.d, arc.d
    if arc.type_tag is ArcType.TYPE_III:
        assert arc.y is not None
        return arc.y, arc.d
    return 0, 0


def _check_composition(arc: ArcParams, parts: Sequence[int]) -> None:
    """Raise unless the parts lie below q and have the arc's sparsest
    shape."""
    for p in parts:
        _check_integer("composition part", p)
    if any(not 0 <= p < arc.q for p in parts):
        raise ValueError(f"parts must lie in 0..{arc.q - 1}")
    total, length = _sparsest_shape(arc)
    if (len(parts), sum(parts)) != (length, total):
        raise ValueError(
            f"the arc takes a composition of {total} into {length} parts below {arc.q}, "
            f"got {_composition_str(parts)}"
        )


def enumerate_sparsest(arc: ArcParams) -> list[tuple[int, ...]]:
    """All sparsest-realization classes of the arc, one tuple of parts each.

    Type II/III arcs yield the necklace classes (lexicographically minimal
    cyclic rotations) of the compositions of the arc's shape.  Type 0 and
    Type I have a single sparsest class, reported as one empty tuple.
    """
    total, length = _sparsest_shape(arc)
    return _necklace_classes(total, length, arc.q)


def build_sparsest(arc: ArcParams, alpha: RatLike, composition: Sequence[int]) -> StochMatrix:
    """Materialise one sparsest realization class at a parameter value.

    The composition is a tuple of parts of the shape
    :func:`enumerate_sparsest` lists, in any rotation.  Types 0, I and III are n-cycles in which some rows split
    between the step edge (weight a) and the back edge i -> (i+1-q) mod n
    (weight 1 - a): every row for Type 0 (q = 1), row 0 for Type I, and
    for Type III d rows, split row k (1-based) at 0-based position
    k*q + parts[0] + ... + parts[k-1] - 1, so the d q-cycles are
    vertex-disjoint and the last one ends on the last vertex.
    """
    if arc.type_tag is ArcType.TYPE_II:
        return TypeIIRealization.sparsest(arc, composition).instantiate(alpha)
    _check_composition(arc, composition)
    a = rat(alpha)
    _check_open_unit(a)
    if arc.type_tag is ArcType.TYPE_0:
        split: Iterable[int] = range(arc.n)
    elif arc.type_tag is ArcType.TYPE_I:
        split = [0]
    else:
        split = [k * arc.q + acc - 1 for k, acc in enumerate(accumulate(composition), 1)]
    return _cycle_with_back_edges(arc.n, arc.q, dict.fromkeys(split, a))


# -- verification --------------------------------------------------------


@dataclass(frozen=True)
class VerificationResult:
    """Joint verdict of the polynomial and cycle-structure checks.

    Truthiness follows the polynomial check alone, which is the defining
    property; the cycle report carries the structural diagnostics, and is
    None when the polynomial did not match, since then it was not made.
    """

    charpoly_ok: bool
    cycle_report: Optional[CycleStructureReport]

    def __bool__(self) -> bool:
        return self.charpoly_ok

    def describe(self) -> str:
        poly = "charpoly exact match" if self.charpoly_ok else "charpoly MISMATCH"
        if self.cycle_report is None:
            cyc = "cycle structure not checked"
        elif self.cycle_report.ok:
            cyc = (
                f"cycle structure ok (lengths {list(self.cycle_report.lengths)}, "
                f"{self.cycle_report.q_cycle_count} q-cycles)"
            )
        else:
            cyc = "cycle structure BAD: " + "; ".join(self.cycle_report.problems)
        return f"{poly}; {cyc}"


def verify_realization(m: StochMatrix, arc: ArcParams, alpha: RatLike) -> VerificationResult:
    """Compare charpoly_exact(m) with the arc's reduced polynomial, exactly,
    and when they match report the digraph cycle structure alongside.  A
    mismatch skips the cycle enumeration, which grows about tenfold per
    order on a dense matrix."""
    if m.n != arc.reduced_degree:
        raise ValueError(
            f"matrix order {m.n} does not match the reduced degree {arc.reduced_degree}"
        )
    charpoly_ok = reduced_ito(arc, alpha).poly == charpoly_exact(m)
    report = cycle_structure_check(WeightedDigraph.from_matrix(m), arc) if charpoly_ok else None
    return VerificationResult(charpoly_ok, report)


# -- two-diagonal support (Dmitriev--Dynkin shape) ------------------------


def dd_band_index(arc: ArcParams) -> int:
    """The two-diagonal window index k for the arc's angular interval.

    Matrices with an eigenvalue on the arc can be relabelled so the
    support sits on offsets {k, k+1} (mod n), where the arc's angular
    interval lies within [k/n, (k+1)/n] turns; that is the band
    :func:`karpelevic.digraph.dd_support_check` checks.  Equals p*d when
    p/q is the arc's lower endpoint and p*d - 1 when it is the upper one.
    """
    lo = min(Fraction(arc.p, arc.q), Fraction(arc.r, arc.s))
    return (arc.n * lo.numerator) // lo.denominator


# -- conjecture probe ------------------------------------------------------


def conjecture_probe(
    m: StochMatrix, arc: ArcParams, alpha: RatLike
) -> Optional[tuple[TypeIIIFamilySpec, tuple[int, ...]]]:
    """Search for a relabelling putting a Type III realization in family form.

    Returns (spec, permutation), vertex permutation[k] going to slot k, or
    None.  Refuses m unless its characteristic polynomial is the arc's
    reduced polynomial, the check that makes verify_realization true.

    A family-form digraph is strongly connected with one n-cycle, and a
    forced walk of :func:`_hessenberg_order` on it follows that cycle:
    until the walk first leaves a row i by its back edge it has placed a
    stretch s, ..., i of the cycle, so i+1 is unplaced too.  A walk started
    just after a block has q - 1 unsplit rows ahead and succeeds.  So the
    first walk that succeeds decides: m is aligned by it, rotated to start
    at vertex 0, and its spec read; family form is read at cyclic offsets,
    so the rotation keeps it.
    """
    if arc.type_tag is not ArcType.TYPE_III:
        raise ValueError("the probe applies to Type III arcs only")
    if reduced_ito(arc, alpha).poly != charpoly_exact(m):
        raise ValueError("matrix does not realise the arc polynomial; probe refused")
    order = _hessenberg_order(m.sparse_rows)
    if order is None:
        return None
    k = order.index(0)
    permutation = tuple(order[k:] + order[:k])
    spec = _family_spec_of(m.permuted(permutation), arc.n, arc.q)
    return None if spec is None else (spec, permutation)


def _family_spec_of(m: StochMatrix, n: int, q: int) -> Optional[TypeIIIFamilySpec]:
    """Read a family spec off a matrix already aligned to the standard
    n-cycle, or None if it is not in family form.  The weights are the step
    entries of the rows with two nonzeros: None if there are none, if one
    such row has no step entry, or if the matrix is not the one
    :func:`_cycle_with_back_edges` writes from them."""
    weights = {
        i: dict(row).get((i + 1) % n) for i, row in enumerate(m.sparse_rows) if len(row) == 2
    }
    if not weights or None in weights.values() or _cycle_with_back_edges(n, q, weights) != m:
        return None
    try:
        return TypeIIIFamilySpec(n, q, weights)
    except ValueError:
        return None
