"""Weighted digraphs of stochastic matrices and their cycle combinatorics.

A matrix and its digraph are two views of the same object: vertices are
row indices, an edge (i, j) with weight w > 0 records entry w in position
(i, j).  Zero entries are absent edges, never stored.

Two independent characteristic-polynomial routes meet here: the digraph
route assembles each coefficient k_i as a signed sum of weight products
over linear digraphs (sets of vertex-disjoint simple cycles) on i
vertices, which is checked elsewhere against exact elimination.  Simple
cycles are enumerated by a depth-first search (Tiernan's): from each
vertex in turn, paths grow only through larger vertices, so every cycle
is found once, from its least vertex, already in canonical rotation.
Before each search one reverse search marks the vertices that can still
get back to the start through larger vertices, and the path enters only
those (the reachability pruning of Johnson's algorithm), so no path runs
into a dead end that cannot close.

Permutation similarity is decided exactly by a backtracking search that
matches vertex weight signatures and grows the map breadth-first along
edges, so each new vertex is pinned by an already-mapped neighbour.  What
the search reads of a matrix (neighbour maps, signatures and their counts,
breadth-first order) is indexed once per matrix and kept on it, so a
matrix compared many times is read, not rebuilt; and a vertex past a root
takes its candidates from the neighbours of its placed neighbour's image,
not from every vertex with its signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Optional

from karpelevic.algebra import RatLike, RatPoly, StochMatrix, rat, rat_str
from karpelevic.farey import ArcParams

__all__ = [
    "WeightedDigraph",
    "CycleReport",
    "CycleStructureReport",
    "simple_cycles",
    "charpoly_coates",
    "find_similarity_permutation",
    "cycle_structure_check",
    "to_dot",
    "cyclic_distance",
]

COATES_DEFAULT_BOUND = 16
# Largest order the backtracking relabelling searches take on by default.
SEARCH_ORDER_BOUND = 20


def cyclic_distance(n: int, i: int, j: int) -> int:
    """min((i-j) mod n, (j-i) mod n), the circular distance on 0..n-1."""
    a = (i - j) % n
    return min(a, n - a)


class WeightedDigraph:
    """Digraph on vertices 0..n-1 with positive rational edge weights.

    At most one edge per ordered pair; self-loops allowed.  Immutable
    after construction.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Mapping[tuple[int, int], RatLike]):
        if n < 1:
            raise ValueError("need at least one vertex")
        ed: dict[tuple[int, int], Fraction] = {}
        for (u, v), w in edges.items():
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            wv = rat(w)
            if wv.numerator <= 0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {wv}")
            ed[(u, v)] = wv
        self.n = n
        self.edges = dict(sorted(ed.items()))

    @classmethod
    def from_matrix(cls, m: StochMatrix) -> "WeightedDigraph":
        """The digraph of m's nonzero entries.  Its sparse rows already hold
        positive Fractions in (i, j) order, so they are taken as they are."""
        if m.n < 1:
            raise ValueError("need at least one vertex")
        g = cls.__new__(cls)
        g.n = m.n
        g.edges = {(i, j): e for i, row in enumerate(m.sparse_rows) for j, e in row}
        return g

    @classmethod
    def from_edge_list(
        cls, n: int, edges: Iterable[tuple[int, int]], weight: RatLike = 1
    ) -> "WeightedDigraph":
        w = rat(weight)
        return cls(n, {e: w for e in edges})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class CycleReport:
    """All simple cycles of a digraph, keyed by length.

    Each cycle is a vertex tuple rotated so its minimum vertex comes
    first, paired with the exact product of its edge weights; lists are
    sorted, so reports are canonical.
    """

    by_length: dict[int, list[tuple[tuple[int, ...], Fraction]]]

    def lengths(self) -> set[int]:
        return set(self.by_length)

    def cycles_of_length(self, length: int) -> list[tuple[tuple[int, ...], Fraction]]:
        return self.by_length.get(length, [])

    def all_cycles(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [c for length in sorted(self.by_length) for c in self.by_length[length]]

    def count(self) -> int:
        return sum(len(v) for v in self.by_length.values())


def simple_cycles(g: WeightedDigraph) -> CycleReport:
    """Enumerate every simple cycle once, up to rotation, with its weight.

    Depth-first from each vertex ``start`` through larger vertices only;
    a path closes when its last vertex has an edge back to ``start``.
    A reverse search over predecessor lists first marks the vertices
    above ``start`` that reach it through vertices above ``start``, and
    the path enters only marked vertices that are not on it already.
    Successors are visited in increasing order, so cycles come out in
    lexicographic order and each length's list is already sorted.  A
    cycle's weight is formed as one Fraction from the products of the
    numerators and of the denominators of its edge weights.
    """
    succ: list[list[int]] = [[] for _ in range(g.n)]
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
        pred[v].append(u)
    by_length: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    reaches = [-1] * g.n  # reaches[v] == start: v gets back to start above it
    on_path = [False] * g.n
    for start in range(g.n):
        frontier = [start]
        while frontier:
            for u in pred[frontier.pop()]:
                if u > start and reaches[u] != start:
                    reaches[u] = start
                    frontier.append(u)
        path = [start]
        stack = [iter(succ[start])]
        while stack:
            for v in stack[-1]:
                if v == start:
                    ws = [g.edges[e] for e in zip(path, path[1:] + [start])]
                    w = Fraction(prod(x.numerator for x in ws), prod(x.denominator for x in ws))
                    by_length.setdefault(len(path), []).append((tuple(path), w))
                elif reaches[v] == start and not on_path[v]:
                    on_path[v] = True
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return CycleReport(by_length=dict(sorted(by_length.items())))


def charpoly_coates(g: WeightedDigraph, bound: int = COATES_DEFAULT_BOUND) -> RatPoly:
    """Characteristic polynomial from the linear-digraph expansion.

    k_i = sum over all sets L of vertex-disjoint simple cycles covering i
    vertices of (-1)^(number of cycles) * (product of edge weights), and
    det(tI - A) = t^n + k_1 t^(n-1) + ... + k_n.  Exponential in general,
    hence the order bound; this is the independent oracle for
    :func:`karpelevic.algebra.charpoly_exact`, not a production path.
    """
    if g.n > bound:
        raise ValueError(f"order {g.n} exceeds the Coates enumeration bound {bound}")
    cycles = [
        (frozenset(cyc), w, len(cyc))
        for cyc, w in simple_cycles(g).all_cycles()
    ]
    coeffs = [Fraction(0)] * (g.n + 1)  # coeffs[i] = k_i

    def extend(start: int, used: frozenset, nverts: int, ncyc: int, prod: Fraction) -> None:
        for idx in range(start, len(cycles)):
            verts, w, length = cycles[idx]
            if used & verts:
                continue
            total = nverts + length
            contrib = prod * w
            coeffs[total] += -contrib if (ncyc + 1) % 2 else contrib
            if total < g.n:
                extend(idx + 1, used | verts, total, ncyc + 1, contrib)

    extend(0, frozenset(), 0, 0, Fraction(1))
    poly = [Fraction(0)] * (g.n + 1)
    poly[g.n] = Fraction(1)
    for i in range(1, g.n + 1):
        poly[g.n - i] = coeffs[i]
    return RatPoly(poly)


# -- permutation similarity -------------------------------------------


_WeightKey = tuple[int, int]


def _weight_key(w: Fraction | int) -> _WeightKey:
    """(numerator, denominator): equal exactly for equal rationals, int or
    Fraction, and hashed, compared and sorted as plain ints."""
    return w.numerator, w.denominator


_NO_LOOP = _weight_key(0)


def _edge_maps(g: WeightedDigraph):
    """Out- and in-neighbour maps of g, each weight kept as its _weight_key.
    Both are filled in the order of g.edges, which is sorted, so the keys
    of every map come in increasing order."""
    out: list[dict[int, _WeightKey]] = [dict() for _ in range(g.n)]
    inc: list[dict[int, _WeightKey]] = [dict() for _ in range(g.n)]
    for (u, v), w in g.edges.items():
        out[u][v] = inc[v][u] = _weight_key(w)
    return out, inc


def _signature(out: list[dict[int, _WeightKey]], inc: list[dict[int, _WeightKey]], v: int) -> tuple:
    """Sorted out-weights, sorted in-weights and self-loop weight of v: a
    hashable key that every relabelling preserves."""
    return (
        tuple(sorted(out[v].values())),
        tuple(sorted(inc[v].values())),
        out[v].get(v, _NO_LOOP),
    )


def _bfs_tree(neighbours: list[list[int]], roots: Iterable[int]) -> tuple[list[int], list[int]]:
    """Breadth-first order of the vertices and the parent of each (-1 for a
    root): each component starts at its first vertex in ``roots`` and the
    ``neighbours`` of a vertex are visited in increasing order.  A list may
    name a neighbour twice; each list is sorted in place."""
    parent = [-1] * len(neighbours)
    placed = [False] * len(neighbours)
    order: list[int] = []
    for root in roots:
        if placed[root]:
            continue
        placed[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            w = order[head]
            head += 1
            near = neighbours[w]
            near.sort()
            for u in near:
                if not placed[u]:
                    placed[u] = True
                    parent[u] = w
                    order.append(u)
    return order, parent


class _SimilarityIndex:
    """What the similarity search reads of one matrix: its out- and
    in-neighbour maps with _weight_key weights, the vertex signatures, the
    vertices of each signature in increasing order (``buckets``) and the
    number of them (``counts``, a plain dict, so that comparing two is one
    C-level dict comparison).  The breadth-first ``tree``, read only when
    the matrix is searched for, is filled in when first read."""

    def __init__(self, m: StochMatrix):
        self.out, self.inc = _edge_maps(WeightedDigraph.from_matrix(m))
        self.signatures = [_signature(self.out, self.inc, v) for v in range(m.n)]
        self.buckets: dict[tuple, list[int]] = {}
        for v, sig in enumerate(self.signatures):
            self.buckets.setdefault(sig, []).append(v)
        self.counts = {sig: len(vs) for sig, vs in self.buckets.items()}

    @cached_property
    def tree(self) -> tuple[list[int], list[int]]:
        """The breadth-first order of the vertices and the placed neighbour
        each one hangs on (-1 for a root).  Roots go by their number of
        candidates, which is the same in any matrix with the same signature
        counts, so the order is fixed by the matrix alone; the sort is
        stable, so ties go to the least vertex."""
        rank = [self.counts[sig] for sig in self.signatures]
        neighbours = [[*o, *i] for o, i in zip(self.out, self.inc)]
        return _bfs_tree(neighbours, sorted(range(len(rank)), key=rank.__getitem__))


def _similarity_index(m: StochMatrix) -> _SimilarityIndex:
    """m's index, built on the first call and kept in m's instance dict, as
    ``cached_property`` keeps ``entries``: outside the dataclass fields, so
    ``==``, ``hash``, JSON and ``repr`` never see it."""
    index = m.__dict__.get("_similarity_index")
    if index is None:
        index = m.__dict__["_similarity_index"] = _SimilarityIndex(m)
    return index


def _candidates(a: _SimilarityIndex, b: _SimilarityIndex, v: int, image: int) -> list[int]:
    """The vertices of a, in increasing order, with v's signature and with
    the edges, both ways and of equal weights, to ``image`` that v has to
    w, the neighbour it hangs on in b's tree; ``image`` is where w was
    placed.  They are drawn from the neighbours of ``image`` along one edge
    between v and w, so the search never scans v's whole signature bucket."""
    w, sig = b.tree[1][v], b.signatures[v]
    edges = b.out[v].get(w), b.inc[v].get(w)
    out, inc = a.out, a.inc
    near = inc[image] if edges[0] is not None else out[image]
    # The keys of a's maps increase (see _edge_maps), and so does the list.
    return [
        u for u in near
        if (out[u].get(image), inc[u].get(image)) == edges and a.signatures[u] == sig
    ]


def find_similarity_permutation(
    a: StochMatrix, b: StochMatrix, max_order: Optional[int] = None
) -> Optional[list[int]]:
    """A permutation sigma with a[sigma[i], sigma[j]] == b[i, j], or None.

    A vertex v of b may go only to a vertex of a with the same signature:
    sorted out-weights, sorted in-weights and self-loop weight, kept as
    integer (numerator, denominator) pairs.  Each matrix is indexed once,
    on its first call, and the index is kept on the matrix (see
    :class:`_SimilarityIndex`), so later calls on it only read its
    neighbour maps, signatures and order.  Matrices whose signature counts
    differ are told apart there.  Vertices are assigned
    breadth-first over b's support, each component rooted at its vertex
    with the fewest candidates; a root takes its candidates from the
    vertices of a with its signature.  Every other vertex v hangs on an
    assigned neighbour w, and takes as candidates only the neighbours of
    sigma[w] in a with v's signature and v's edges to w, in increasing
    order: any other vertex would fail on that edge.  An assignment v -> u
    is kept only if the edges of v and of u to assigned vertices correspond
    with equal weights.  On the sparse, nearly rigid realization digraphs
    the edges propagate the map with little or no backtracking.
    """
    if a.n != b.n:
        raise ValueError("order mismatch")
    limit = max_order if max_order is not None else SEARCH_ORDER_BOUND
    if a.n > limit:
        raise ValueError(f"order {a.n} exceeds the similarity search bound {limit}")
    ia, ib = _similarity_index(a), _similarity_index(b)
    if ia.counts != ib.counts:
        return None
    out_a, in_a, out_b, in_b = ia.out, ia.inc, ib.out, ib.inc
    order, anchors = ib.tree
    sigma: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def consistent(v: int, u: int) -> bool:
        for edges_b, edges_a in ((out_b[v], out_a[u]), (in_b[v], in_a[u])):
            for vv, w in edges_b.items():
                if vv in sigma and edges_a.get(sigma[vv]) != w:
                    return False
            for uu, w in edges_a.items():
                if uu in inverse and edges_b.get(inverse[uu]) != w:
                    return False
        return True

    def assign(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        if anchors[v] < 0:
            candidates = ia.buckets[ib.signatures[v]]
        else:
            candidates = _candidates(ia, ib, v, sigma[anchors[v]])
        for u in candidates:
            if u in inverse or not consistent(v, u):
                continue
            sigma[v], inverse[u] = u, v
            if assign(pos + 1):
                return True
            del sigma[v], inverse[u]
        return False

    if assign(0):
        return [sigma[v] for v in range(b.n)]
    return None


# -- cycle structure against an arc ------------------------------------


@dataclass(frozen=True)
class CycleStructureReport:
    """Outcome of checking a digraph's cycles against its arc's constraints.

    ``ok`` is the headline verdict: all lengths allowed, and both an
    s-cycle and a q-cycle present.  The remaining fields report the
    q-cycle count facts that sparsest realizations must additionally
    satisfy.
    """

    ok: bool
    lengths: tuple[int, ...]
    q_cycle_count: int
    at_least_d_q_cycles: Optional[bool] = None
    exactly_d_disjoint_equal: Optional[bool] = None
    problems: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def cycle_structure_check(g: WeightedDigraph, arc: ArcParams) -> CycleStructureReport:
    """Check that every cycle length lies in {s} | {k*q : 1 <= k <= d},
    with at least one s-cycle and one q-cycle present.

    For d >= 2 the report also says whether there are at least d q-cycles
    and, when there are exactly d, whether they are vertex-disjoint with
    equal weights (what any realization must satisfy).
    """
    report = simple_cycles(g)
    q, s, d = arc.q, arc.s, arc.d
    allowed = sorted({s} | {k * q for k in range(1, d + 1)})
    lengths = sorted(report.lengths())
    problems = []
    bad = [length for length in lengths if length not in allowed]
    if bad:
        problems.append(f"forbidden cycle lengths {bad}")
    if s not in lengths:
        problems.append(f"no cycle of length s={s}")
    if q not in lengths:
        problems.append(f"no cycle of length q={q}")
    q_cycles = report.cycles_of_length(q)
    at_least = None
    exactly = None
    if d >= 2:
        at_least = len(q_cycles) >= d
        if len(q_cycles) == d:
            seen: set[int] = set()
            disjoint = True
            for cyc, _ in q_cycles:
                if seen & set(cyc):
                    disjoint = False
                seen |= set(cyc)
            weights = {w for _, w in q_cycles}
            exactly = disjoint and len(weights) == 1
    return CycleStructureReport(
        ok=not problems,
        lengths=tuple(lengths),
        q_cycle_count=len(q_cycles),
        at_least_d_q_cycles=at_least,
        exactly_d_disjoint_equal=exactly,
        problems=tuple(problems),
    )


def to_dot(g: WeightedDigraph, name: str = "gamma") -> str:
    """DOT source with vertices labelled 1..n and rational edge labels."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in range(g.n):
        lines.append(f"  {v + 1};")
    for (u, v), w in g.edges.items():
        lines.append(f'  {u + 1} -> {v + 1} [label="{rat_str(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
