"""Weighted digraphs of stochastic matrices and their cycle combinatorics.

A matrix and its digraph are two views of the same object: vertices are
row indices, an edge (i, j) with weight w > 0 records entry w in position
(i, j).  Zero entries are absent edges, never stored.  Both are held as
sparse rows, row i the ``(j, w)`` pairs of i's out-edges in increasing j.

Two independent characteristic-polynomial routes meet here: the digraph
route sums over linear digraphs (sets of vertex-disjoint simple cycles)
in one forward pass over the vertices, each either left uncovered or
covered by one cycle whose least vertex it is; it is checked elsewhere
against exact elimination.  The pass keeps, per set of later vertices
already covered, the sums by power of t, each list as long as the
vertices left uncovered so far allow.  "Least" and
"later" are in the order the vertices first appear in the cycles,
shortest first, so each block of a realization is covered within its
own bits and the pass holds a few sets under any labelling; nothing
recurses, so no recursion limit bounds the order.
Simple cycles are enumerated by a depth-first search (Tiernan's): from
each vertex in turn, paths grow only through larger vertices, so every
cycle is found once, from its least vertex, already in canonical
rotation.  Loops are read off the rows, and a start with no neighbour
above it, in or out, opens no search.  Before each other search one
reverse search marks the vertices that can still get back to the start
through larger vertices, and the path enters only those (the
reachability pruning of Johnson's algorithm), so no path runs into a
dead end that cannot close.

Permutation similarity is decided exactly by an iterative backtracking
search that matches vertex weight signatures and grows the map
breadth-first along edges, so each new vertex is pinned by an
already-mapped neighbour.  What the search reads of a matrix (the int
neighbour maps of its integer view, signatures and their counts,
breadth-first order) is indexed once per matrix and kept on it, so a
matrix compared many times is read, not rebuilt, and no Fraction is read;
and a vertex past a root takes its candidates from the neighbours of its
placed neighbour's image, not from every vertex with its signature.
Edges are checked from the second matrix only: equal signature counts give
equal edge counts, so a complete map that keeps every edge of the second
matrix is onto the first's edges as well.
The two-diagonal support check of Dmitriev and Dynkin runs on the same
loop (``_relabel``) and reads the same index, placing vertices on slots
instead of on vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional

from karpelevic.algebra import RatLike, RatPoly, StochMatrix, _check_integer, rat, rat_str
from karpelevic.farey import ArcParams

__all__ = [
    "WeightedDigraph",
    "CycleStructureReport",
    "simple_cycles",
    "charpoly_coates",
    "find_similarity_permutation",
    "dd_support_check",
    "cycle_structure_check",
    "to_dot",
]

# Largest order the backtracking relabelling searches take on by default.
SEARCH_ORDER_BOUND = 20


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph on vertices 0..n-1 with positive rational edge weights, held
    as a StochMatrix is, without the unit row sums: row u of ``sparse_rows``
    is the ``(v, w)`` pairs of u's out-edges in increasing v, each w a
    positive Fraction.  The constructor checks a ``{(u, v): weight}``
    mapping and writes the rows; :meth:`from_matrix` shares a matrix's."""

    sparse_rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __init__(self, n: int, edges: Mapping[tuple[int, int], RatLike]):
        _check_integer("order", n)
        if n < 1:
            raise ValueError("need at least one vertex")
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (u, v), w in edges.items():
            for x in (u, v):
                _check_integer(f"edge ({u}, {v}) vertex", x)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            wv = rat(w)
            if wv.numerator <= 0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {wv}")
            rows[u].append((v, wv))
        object.__setattr__(self, "sparse_rows", tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def from_matrix(cls, m: StochMatrix) -> "WeightedDigraph":
        """The digraph of m's nonzero entries: m's sparse rows, shared."""
        if m.n < 1:
            raise ValueError("need at least one vertex")
        g = cls.__new__(cls)
        object.__setattr__(g, "sparse_rows", m.sparse_rows)
        return g

    @property
    def n(self) -> int:
        return len(self.sparse_rows)


def simple_cycles(g: WeightedDigraph) -> dict[int, list[tuple[tuple[int, ...], Fraction]]]:
    """Enumerate every simple cycle once, up to rotation, with its weight.

    Returns a dict from cycle length to the sorted list of ``(cycle,
    weight)`` pairs of that length, its keys ascending.  Each cycle is a
    vertex tuple rotated so its minimum vertex comes first, paired with the
    exact product of its edge weights.

    Self-loops are read off the rows.  Longer cycles are found
    depth-first from each vertex ``start`` through larger vertices only; a
    path closes when its last vertex has an edge back to ``start``.  A
    start with no successor or no predecessor above it is the least vertex
    of no such cycle, so no search runs from it (the least-vertex pruning
    of Johnson's algorithm).  From any other start, a reverse search over
    predecessor lists first marks the vertices above ``start`` that reach
    it through vertices above ``start``, and the path enters only marked
    vertices that are not on it already.
    Successors are visited in increasing order, so cycles come out in
    lexicographic order and each length's list is already sorted.  The
    path carries the products of the numerators and of the denominators
    of its edge weights, so a closing edge makes the cycle's weight as
    one Fraction and looks nothing up.
    """
    rows = g.sparse_rows
    loops = [((u,), w) for u, row in enumerate(rows) for v, w in row if v == u]
    succ = [[(v, w) for v, w in row if v != u] for u, row in enumerate(rows)]
    pred: list[list[int]] = [[] for _ in rows]
    for u, row in enumerate(succ):
        for v, _ in row:
            pred[v].append(u)
    by_length: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {1: loops} if loops else {}
    reaches = [-1] * g.n  # reaches[v] == start: v gets back to start above it
    on_path = [False] * g.n
    for start in range(g.n):
        # Both lists increase; without a neighbour above it both ways, start
        # is the least vertex of no cycle longer than a loop.
        if not (succ[start] and pred[start] and succ[start][-1][0] > start < pred[start][-1]):
            continue
        frontier = [start]
        while frontier:
            for u in pred[frontier.pop()]:
                if u > start and reaches[u] != start:
                    reaches[u] = start
                    frontier.append(u)
        path = [start]
        carried = [(1, 1)]  # the path's weight up to each vertex: numerator, denominator
        stack = [iter(succ[start])]
        while stack:
            num, den = carried[-1]
            for v, w in stack[-1]:
                if v == start:
                    cycle_weight = Fraction(num * w.numerator, den * w.denominator)
                    by_length.setdefault(len(path), []).append((tuple(path), cycle_weight))
                elif reaches[v] == start and not on_path[v]:
                    on_path[v] = True
                    path.append(v)
                    carried.append((num * w.numerator, den * w.denominator))
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
                carried.pop()
    return dict(sorted(by_length.items()))


def charpoly_coates(g: WeightedDigraph) -> RatPoly:
    """Characteristic polynomial from the linear-digraph expansion.

    det(tI - A) sums, over the linear digraphs D (vertex-disjoint simple
    cycles, loops included), t^(n - |D|) times the product of -w(c) over
    the cycles c of D.  One forward pass over the bits b = 0..n-1 builds
    every D: b is covered already, or left uncovered (one more factor t),
    or covered by a cycle c with least bit b that misses the bits covered
    (a factor -w(c), no t).  Before bit b, ``level`` maps each set of bits
    from b up that is covered to the sums C_j over those partial D by j,
    the power of t; a list holds one more entry than the bits below b left
    uncovered, lists of unequal length add by :func:`itertools.zip_longest`,
    and no list is written in place.  After the last bit the empty set
    holds C_j.  Bits follow :func:`simple_cycles`:
    a vertex takes the next bit when it first appears, shortest cycles
    first and lexicographic within a length; vertices on no cycle take the
    top bits.  A realization's shortest cycles are its loops or its
    q-cycles, so each block holds consecutive bits and a level holds a few
    sets under any labelling, where label order gives about 2^d.  Sums are
    ints: over the lcm L of the weights' denominators c weighs w(c)*L^|c|,
    and C_j / L^(n-j) is the coefficient of t^j.  Nothing recurses, so no
    recursion limit bounds n; dense digraphs take exponential time.  The
    independent oracle for :func:`karpelevic.algebra.charpoly_exact`, not
    a production path.
    """
    scale = lcm(*(w.denominator for row in g.sparse_rows for _, w in row))
    bit: dict[int, int] = {}  # each vertex's bit, shortest cycles first
    by_least: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for size, same in simple_cycles(g).items():
        for cyc, w in same:
            c = sum(bit.setdefault(v, 1 << len(bit)) for v in cyc)
            by_least[(c & -c).bit_length() - 1].append((c, int(w * scale ** size)))
    level = {0: [1]}  # bits from b up covered -> sums by power of t
    for b, cycles in enumerate(by_least):
        low, nxt = 1 << b, {}
        for covered, p in level.items():
            # b moves on covered, or is left uncovered: one more t.  A cycle
            # keeps the power; each runs through b, so none is free if b is covered.
            moves = [(covered ^ low, p)] if covered & low else [(covered, [0] + p)]
            moves += [((covered | c) ^ low, [-w * x for x in p]) for c, w in cycles if not c & covered]
            for key, q in moves:
                nxt[key] = [x + y for x, y in zip_longest(nxt[key], q, fillvalue=0)] if key in nxt else q
        level = nxt
    return RatPoly(Fraction(k, scale ** (g.n - j)) for j, k in enumerate(level[0]))


# -- permutation similarity -------------------------------------------


class _SimilarityIndex:
    """What the similarity search reads of one matrix, built from its integer
    view (L, rows over L): the out- and in-neighbour maps with int weights
    over L, the vertex signatures (sorted out-weights, sorted in-weights and
    self-loop weight, 0 for none), the vertices of each signature in
    increasing order (``buckets``) and the number of them (``counts``, a
    plain dict, so that comparing two is one C-level dict comparison).  A
    row's out-weights sum to L, so equal counts give equal L.  The
    breadth-first ``tree``, read only when the matrix is searched for, is
    filled in when first read."""

    def __init__(self, m: StochMatrix):
        rows = m._int_view[1]
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

    @cached_property
    def tree(self) -> tuple[list[int], list[int]]:
        """The breadth-first order of the vertices and the placed neighbour
        each one hangs on (-1 for a root).  Roots go by their number of
        candidates, which is the same in any matrix with the same signature
        counts, so the order is fixed by the matrix alone; the sort is
        stable, so ties go to the least vertex.  Each component starts at
        its first root, and a vertex's out- and in-neighbours are visited
        together, in increasing order."""
        rank = [self.counts[sig] for sig in self.signatures]
        parent = [-1] * len(rank)
        placed = [False] * len(rank)
        order: list[int] = []
        for root in sorted(range(len(rank)), key=rank.__getitem__):
            if placed[root]:
                continue
            placed[root] = True
            head = len(order)
            order.append(root)
            while head < len(order):
                w = order[head]
                head += 1
                for u in sorted([*self.out[w], *self.inc[w]]):
                    if not placed[u]:
                        placed[u] = True
                        parent[u] = w
                        order.append(u)
        return order, parent


def _similarity_index(m: StochMatrix) -> _SimilarityIndex:
    """m's index, built on the first call and kept in m's instance dict, as
    ``cached_property`` keeps ``entries``: outside the dataclass fields, so
    ``==``, ``hash``, JSON and ``repr`` never see it."""
    index = m.__dict__.get("_similarity_index")
    if index is None:
        index = m.__dict__["_similarity_index"] = _SimilarityIndex(m)
    return index


def _relabel(
    order: list[int],
    anchors: list[int],
    candidates: Callable[[int, int, int], Iterable[int]],
    consistent: Callable[[int, int, list[int]], bool],
) -> Optional[list[int]]:
    """The backtracking search of both relabelling searches: a map sigma of
    the vertices one-to-one onto 0..n-1, or None.  Vertices are placed in
    ``order``, breadth first, so each vertex v but a root hangs on its
    anchor w = anchors[v] (-1 for a root), placed before it.  v takes its
    images from ``candidates(v, w, sigma[w])`` (-1, -1 for a root), in the
    order given, and keeps the first free image u for which
    ``consistent(v, u, sigma)`` holds; -1 marks the unplaced in sigma and in
    the inverse map, which tells a free image.  The search is
    iterative: one iterator over the images left per placed position, and a
    dead end frees the position before it and resumes its iterator."""
    sigma = [-1] * len(order)
    inverse = [-1] * len(order)
    pending: list[Iterator[int]] = []  # the candidates left at each position
    pos = 0
    while pos < len(order):
        v = order[pos]
        if pos == len(pending):
            w = anchors[v]
            pending.append(iter(candidates(v, w, sigma[w] if w >= 0 else -1)))
        else:  # back from a dead end: free v's image
            u = sigma[v]
            sigma[v] = inverse[u] = -1
        for u in pending[pos]:
            if inverse[u] < 0 and consistent(v, u, sigma):
                sigma[v], inverse[u] = u, v
                pos += 1
                break
        else:
            if not pos:
                return None
            pending.pop()
            pos -= 1
    return sigma


def find_similarity_permutation(
    a: StochMatrix, b: StochMatrix, max_order: int = SEARCH_ORDER_BOUND
) -> Optional[list[int]]:
    """A permutation sigma with a.entries[sigma[i]][sigma[j]] == b.entries[i][j], or None.

    Each matrix is indexed once, on its first call, from its integer view
    (its entries as int numerators over L, the lcm of their denominators),
    and the index is kept on the matrix (see :class:`_SimilarityIndex`).
    Signature counts are a relabelling invariant, and they fix L, over which
    equal ints are equal entries; matrices whose counts differ are told
    apart there.  A vertex v of b may go only to a vertex of a with the same
    signature: sorted out-weights, sorted in-weights and self-loop weight.
    Vertices are assigned by :func:`_relabel`, breadth-first over b's
    support, each component rooted at its vertex with the fewest
    candidates; a root takes its candidates from the vertices of a with its
    signature.  Every other vertex v hangs on an assigned neighbour w, and
    takes as candidates the neighbours of sigma[w] in a with v's signature,
    in increasing order: its in-neighbours when b has v -> w, and its
    out-neighbours otherwise.  An assignment v -> u is kept only if every
    edge of v to or from an assigned vertex has an edge of equal weight
    between their images, the edge to w among them.  Equal counts give both
    matrices the same number of edges, so a complete map that keeps every
    edge of b is onto the edges of a.  On the sparse, nearly rigid
    realization digraphs the edges propagate the map with little or no
    backtracking.
    """
    _check_integer("max_order", max_order)
    if a.n != b.n:
        raise ValueError("order mismatch")
    if a.n > max_order:
        raise ValueError(f"order {a.n} exceeds the similarity search bound {max_order}")
    ia, ib = _similarity_index(a), _similarity_index(b)
    if ia.counts != ib.counts:
        return None
    out_a, in_a, out_b, in_b = ia.out, ia.inc, ib.out, ib.inc

    def candidates(v: int, w: int, x: int) -> list[int]:
        if w < 0:
            return ia.buckets[ib.signatures[v]]
        near = in_a[x] if w in out_b[v] else out_a[x]
        return [u for u in near if ia.signatures[u] == ib.signatures[v]]

    def consistent(v: int, u: int, sigma: list[int]) -> bool:
        for edges_b, edges_a in ((out_b[v], out_a[u]), (in_b[v], in_a[u])):
            for vv, w in edges_b.items():
                x = sigma[vv]
                if x >= 0 and edges_a.get(x) != w:
                    return False
        return True

    return _relabel(*ib.tree, candidates, consistent)


def dd_support_check(m: StochMatrix, k: int) -> Optional[list[int]]:
    """A relabelling confining the support to two cyclic diagonals, or None.

    Searches for a permutation sigma such that every nonzero entry of the
    relabelled matrix sits at (i, j) with j - i = k or k + 1 (mod n), the
    two-diagonal shape of Dmitriev and Dynkin.  The search is
    :func:`_relabel`, reading m's neighbour maps and breadth-first tree
    from the index the similarity search keeps on m (see
    :class:`_SimilarityIndex`), placing the vertices on slots.  The band is
    unchanged when every slot turns by one, so the first root takes slot 0
    alone and every later root may take any slot; a vertex hanging on a
    placed neighbour w takes the two slots at offset k or k + 1 from w's,
    after it along an edge w -> v and before it otherwise.  A slot is kept only if v's edges to
    placed vertices, and a self-loop (offset 0), fall in the band.  Returns
    sigma with relabelled[i][j] = m[sigma[i]][sigma[j]], or None when no
    relabelling exists.
    """
    _check_integer("k", k)
    n = m.n
    if n > SEARCH_ORDER_BOUND:
        raise ValueError(f"order {n} exceeds the support search bound {SEARCH_ORDER_BOUND}")
    offsets = {k % n, (k + 1) % n}
    index = _similarity_index(m)
    out, inc = index.out, index.inc
    first = index.tree[0][0]

    def slots(v: int, w: int, x: int) -> Iterable[int]:
        if w < 0:
            return range(1 if v == first else n)
        sign = 1 if v in out[w] else -1
        return [(x + sign * o) % n for o in offsets]

    def consistent(v: int, slot: int, position: list[int]) -> bool:
        # v is not placed yet, so its self-loop reads its slot here.
        for u in out[v]:
            s = slot if u == v else position[u]
            if s >= 0 and (s - slot) % n not in offsets:
                return False
        for u in inc[v]:
            s = position[u]
            if s >= 0 and (slot - s) % n not in offsets:
                return False
        return True

    position = _relabel(*index.tree, slots, consistent)
    return None if position is None else sorted(range(n), key=position.__getitem__)


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
    lengths = list(report)
    problems = []
    bad = [length for length in lengths if length not in allowed]
    if bad:
        problems.append(f"forbidden cycle lengths {bad}")
    if s not in lengths:
        problems.append(f"no cycle of length s={s}")
    if q not in lengths:
        problems.append(f"no cycle of length q={q}")
    q_cycles = report.get(q, [])
    at_least = None
    exactly = None
    if d >= 2:
        at_least = len(q_cycles) >= d
        if len(q_cycles) == d:
            # Each q-cycle has q distinct vertices, so the d of them are
            # disjoint exactly when their union has q*d.
            disjoint = len({v for cyc, _ in q_cycles for v in cyc}) == q * d
            exactly = disjoint and len({w for _, w in q_cycles}) == 1
    return CycleStructureReport(
        ok=not problems,
        lengths=tuple(lengths),
        q_cycle_count=len(q_cycles),
        at_least_d_q_cycles=at_least,
        exactly_d_disjoint_equal=exactly,
        problems=tuple(problems),
    )


def to_dot(g: WeightedDigraph) -> str:
    """DOT source of the digraph gamma, vertices labelled 1..n, with rational
    edge labels."""
    lines = ["digraph gamma {", "  rankdir=LR;"]
    for v in range(g.n):
        lines.append(f"  {v + 1};")
    for u, row in enumerate(g.sparse_rows):
        for v, w in row:
            lines.append(f'  {u + 1} -> {v + 1} [label="{rat_str(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
