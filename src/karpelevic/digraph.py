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
Loops are read off the edges, and a start with no neighbour above it, in
or out, opens no search.  Before each other search one reverse search
marks the vertices that can still get back to the start through larger
vertices, and the path enters only those (the reachability pruning of
Johnson's algorithm), so no path runs into a dead end that cannot close.

Permutation similarity is decided exactly by an iterative backtracking
search that matches vertex weight signatures and grows the map
breadth-first along edges, so each new vertex is pinned by an
already-mapped neighbour.  What the search reads of a matrix (L and the
int neighbour maps of its integer view, signatures and their counts,
breadth-first order) is indexed once per matrix and kept on it, so a
matrix compared many times is read, not rebuilt, and no Fraction is read;
and a vertex past a root takes its candidates from the neighbours of its
placed neighbour's image, not from every vertex with its signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Mapping, Optional

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
]

COATES_DEFAULT_BOUND = 16
# Largest order the backtracking relabelling searches take on by default.
SEARCH_ORDER_BOUND = 20


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


def simple_cycles(g: WeightedDigraph) -> CycleReport:
    """Enumerate every simple cycle once, up to rotation, with its weight.

    Self-loops are read off the edges.  Longer cycles are found
    depth-first from each vertex ``start`` through larger vertices only; a
    path closes when its last vertex has an edge back to ``start``.  A
    start with no successor or no predecessor above it is the least vertex
    of no such cycle, so no search runs from it (the least-vertex pruning
    of Johnson's algorithm).  From any other start, a reverse search over
    predecessor lists first marks the vertices above ``start`` that reach
    it through vertices above ``start``, and the path enters only marked
    vertices that are not on it already.
    Successors are visited in increasing order, so cycles come out in
    lexicographic order and each length's list is already sorted.  A
    longer cycle's weight is formed as one Fraction from the products of
    the numerators and of the denominators of its edge weights.
    """
    succ: list[list[int]] = [[] for _ in range(g.n)]
    pred: list[list[int]] = [[] for _ in range(g.n)]
    loops = []
    for (u, v), w in g.edges.items():
        if u == v:
            loops.append(((u,), w))
        else:
            succ[u].append(v)
            pred[v].append(u)
    by_length: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {1: loops} if loops else {}
    reaches = [-1] * g.n  # reaches[v] == start: v gets back to start above it
    on_path = [False] * g.n
    for start in range(g.n):
        # Both lists increase; without a neighbour above it both ways, start
        # is the least vertex of no cycle longer than a loop.
        if not (succ[start] and pred[start] and succ[start][-1] > start < pred[start][-1]):
            continue
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
    """What the similarity search reads of one matrix, built from its integer
    view (L, rows over L): ``scale`` L, the out- and in-neighbour maps with
    int weights over L, the vertex signatures (sorted out-weights, sorted
    in-weights and self-loop weight, 0 for none), the vertices of each
    signature in increasing order (``buckets``) and the number of them
    (``counts``, a plain dict, so that comparing two is one C-level dict
    comparison).  :meth:`candidates` reads off the vertices a placed
    neighbour's image allows.  The breadth-first ``tree``, read only when
    the matrix is searched for, is filled in when first read."""

    def __init__(self, m: StochMatrix):
        self.scale, rows = m._int_view
        # Both maps are filled in increasing order of their keys.
        self.out = [dict(row) for row in rows]
        self.inc: list[dict[int, int]] = [{} for _ in rows]
        for u, row in enumerate(rows):
            for v, w in row:
                self.inc[v][u] = w
        self.signatures = [
            (tuple(sorted(o.values())), tuple(sorted(i.values())), o.get(v, 0))
            for v, (o, i) in enumerate(zip(self.out, self.inc))
        ]
        self.buckets: dict[tuple, list[int]] = {}
        for v, sig in enumerate(self.signatures):
            self.buckets.setdefault(sig, []).append(v)
        self.counts = {sig: len(vs) for sig, vs in self.buckets.items()}

    def candidates(self, sig: tuple, image: int, to_image: Optional[int],
                   from_image: Optional[int]) -> list[int]:
        """The vertices u with signature ``sig`` whose edges u -> image and
        image -> u have the int weights ``to_image`` and ``from_image`` (None
        for no edge), in increasing order.  They are drawn from the
        neighbours of ``image`` along one of those edges, not from the whole
        signature bucket."""
        out, inc = self.out, self.inc
        near = inc[image] if to_image is not None else out[image]
        return [
            u for u in near
            if out[u].get(image) == to_image and inc[u].get(image) == from_image
            and self.signatures[u] == sig
        ]

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


def find_similarity_permutation(
    a: StochMatrix, b: StochMatrix, max_order: Optional[int] = None
) -> Optional[list[int]]:
    """A permutation sigma with a[sigma[i], sigma[j]] == b[i, j], or None.

    Each matrix is indexed once, on its first call, from its integer view
    (its entries as int numerators over L, the lcm of their denominators),
    and the index is kept on the matrix (see :class:`_SimilarityIndex`).
    L is a relabelling invariant, and over one L equal ints are equal
    entries, so matrices whose L or signature counts differ are told apart
    there.  A vertex v of b may go only to a vertex of a with the same
    signature: sorted out-weights, sorted in-weights and self-loop weight.
    Vertices are assigned breadth-first over b's support, each component
    rooted at its vertex with the fewest candidates; a root takes its
    candidates from the vertices of a with its signature.  Every other
    vertex v hangs on an assigned neighbour w, and takes as candidates only
    the neighbours of sigma[w] in a with v's signature and v's edges to w,
    in increasing order: any other vertex would fail on that edge.  An
    assignment v -> u is kept only if the edges of v and of u to assigned
    vertices correspond with equal weights.  The search is iterative: one
    iterator over the candidates left per placed position, and ``sigma``
    and ``inverse`` as lists (-1 for unassigned).  On the sparse, nearly
    rigid realization digraphs the edges propagate the map with little or
    no backtracking.
    """
    if a.n != b.n:
        raise ValueError("order mismatch")
    limit = max_order if max_order is not None else SEARCH_ORDER_BOUND
    if a.n > limit:
        raise ValueError(f"order {a.n} exceeds the similarity search bound {limit}")
    ia, ib = _similarity_index(a), _similarity_index(b)
    if ia.scale != ib.scale or ia.counts != ib.counts:
        return None
    out_a, in_a, out_b, in_b = ia.out, ia.inc, ib.out, ib.inc
    order, anchors = ib.tree
    sigma = [-1] * b.n
    inverse = [-1] * b.n

    def consistent(v: int, u: int) -> bool:
        for edges_b, edges_a in ((out_b[v], out_a[u]), (in_b[v], in_a[u])):
            for vv, w in edges_b.items():
                x = sigma[vv]
                if x >= 0 and edges_a.get(x) != w:
                    return False
            for uu, w in edges_a.items():
                y = inverse[uu]
                if y >= 0 and edges_b.get(y) != w:
                    return False
        return True

    pending: list[Iterator[int]] = []  # the candidates left at each position
    pos = 0
    while pos < b.n:
        v = order[pos]
        if pos == len(pending):
            w = anchors[v]
            if w < 0:
                pending.append(iter(ia.buckets[ib.signatures[v]]))
            else:
                edges = out_b[v].get(w), in_b[v].get(w)
                pending.append(iter(ia.candidates(ib.signatures[v], sigma[w], *edges)))
        else:  # back from a dead end: free v's image
            u = sigma[v]
            sigma[v] = inverse[u] = -1
        for u in pending[pos]:
            if inverse[u] < 0 and consistent(v, u):
                sigma[v], inverse[u] = u, v
                pos += 1
                break
        else:
            if not pos:
                return None
            pending.pop()
            pos -= 1
    return sigma


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
