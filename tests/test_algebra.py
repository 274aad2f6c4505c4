import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import catalogue_arcs, matmul, random_stochastic
from karpelevic import algebra as algebra_module
from karpelevic.algebra import (
    _hessenberg_columns,
    _hessenberg_order,
    RatPoly,
    StochMatrix,
    charpoly_exact,
    cyclic_shift_matrix,
    poly_eval,
    rat,
    rat_str,
)
from karpelevic.digraph import WeightedDigraph, charpoly_coates
from karpelevic.farey import ArcType, arc_params
from karpelevic.itopoly import reduced_ito
from karpelevic.realize import (
    TypeIIIFamilySpec,
    TypeIIRealization,
    build_sparsest,
    enumerate_sparsest,
    type0,
    type1,
    type3_family,
)

F = Fraction


def charpoly_cofactor(grid):
    """Independent oracle: Laplace expansion of det(tI - M), tiny n only."""
    n = len(grid)
    entries = [
        [(RatPoly((0, 1)) if i == j else RatPoly.zero()) - RatPoly((grid[i][j],)) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if not cols:
            return RatPoly.one()
        i = rows[0]
        total = RatPoly.zero()
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[i][j] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(tuple(range(n)), tuple(range(n)))


class TestRat:
    def test_parse(self):
        assert rat("3/4") == F(3, 4)
        assert rat("7") == 7
        assert rat(F(1, 2)) == F(1, 2)

    def test_rejects_decimals(self):
        with pytest.raises(ValueError):
            rat("0.5")
        with pytest.raises(ValueError):
            rat("1e-3")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rat("1/0")

    def test_str_roundtrip(self):
        for v in [F(1, 3), F(-7, 2), F(5), F(0)]:
            assert rat(rat_str(v)) == v

    def test_rejects_booleans(self):
        for value in (True, False):
            with pytest.raises(TypeError):
                rat(value)


class TestRatPoly:
    def test_eval_examples(self):
        p = RatPoly([0, -1, 1])  # t^2 - t
        assert poly_eval(p, 1) == 0
        shifted = (RatPoly.x() - RatPoly([F(1, 2)])) ** 2 - RatPoly([F(1, 4)])
        assert poly_eval(shifted, 0) == 0
        assert poly_eval(RatPoly([-1, 0, 0, 1]), 2) == 7

    def test_mul_eval_compatible(self):
        rng = random.Random(42)
        for _ in range(50):
            p = RatPoly([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))])
            q = RatPoly([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))])
            x = F(rng.randint(-9, 9), rng.randint(1, 9))
            assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)

    def test_strip_zero_roots(self):
        p = RatPoly([0, 0, 3, 1])
        stripped, mult = p.strip_zero_roots()
        assert mult == 2 and stripped == RatPoly([3, 1])
        with pytest.raises(ValueError):
            RatPoly.zero().strip_zero_roots()

    def test_pow_and_degree(self):
        p = (RatPoly.x() - RatPoly.one()) ** 3
        assert p == RatPoly([-1, 3, -3, 1])
        assert RatPoly.zero().degree == -1

    def test_json_roundtrip(self):
        p = RatPoly([F(1, 3), 0, F(-2, 7)])
        assert RatPoly.from_json(p.to_json()) == p


class TestStochMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            StochMatrix([[F(1, 2), F(1, 3)], [0, 1]])
        with pytest.raises(ValueError):
            StochMatrix([[F(3, 2), F(-1, 2)], [0, 1]])

    def test_cyclic_shift(self):
        c3 = cyclic_shift_matrix(3)
        assert c3.support() == {(0, 1), (1, 2), (2, 0)}
        assert cyclic_shift_matrix(5, 5) == cyclic_shift_matrix(5, 0)
        assert cyclic_shift_matrix(5, 2) == c_power(5, 2)
        with pytest.raises(ValueError):
            cyclic_shift_matrix(0)

    def test_json_roundtrip(self):
        m = cyclic_shift_matrix(4, 1)
        assert StochMatrix.from_json(json.loads(json.dumps(m.to_json()))) == m
        payload = m.to_json()
        assert payload["n"] == 4 and payload["entries"][0][1] == "1"

    @pytest.mark.parametrize("data", [
        {"n": 2, "entries": ["10", "01"]},
        {"n": 2, "entries": [{"0": "1", "1": "0"}, {"0": "0", "1": "1"}]},
        {"n": True, "entries": [["1"]]},
        {"n": "2", "entries": [["1", "0"], ["0", "1"]]},
        {"n": 2.0, "entries": [["1", "0"], ["0", "1"]]},
        {"entries": [["1"]]},
    ], ids=["string-rows", "object-rows", "n-true", "n-string", "n-float", "n-missing"])
    def test_from_json_rejects_malformed_shape(self, data):
        with pytest.raises(ValueError, match="a matrix must be a JSON object"):
            StochMatrix.from_json(data)

    def test_permuted_is_relabelling(self):
        m = StochMatrix([[F(1, 2), F(1, 2), 0], [0, F(1, 3), F(2, 3)], [1, 0, 0]])
        perm = [2, 0, 1]
        p = m.permuted(perm)
        for i, j in itertools.product(range(3), repeat=2):
            assert p[i, j] == m[perm[i], perm[j]]


def dense_rejection(grid):
    """Reference validation on the dense grid: the message StochMatrix must
    raise, or None when the grid is a stochastic matrix."""
    for i, row in enumerate(grid):
        if any(e < 0 or e > 1 for e in row):
            return f"row {i} has an entry outside [0, 1]"
        if sum(row) != 1:
            return f"row {i} sums to {sum(row)}, not 1"
    return None


@st.composite
def near_stochastic_grids(draw, max_n=5):
    """Small stochastic grids with random zeros, one row possibly spoiled by
    a negative entry, an entry above 1, mass moved across 0 or 1 (the sum
    stays 1), or a sum off by a small rational; zeros and ones are
    sometimes plain ints."""
    n = draw(st.integers(1, max_n))
    grid = []
    for _ in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        row = [F(0)] * n
        for j, w in zip(support, weights):
            row[j] = F(w, sum(weights))
        grid.append(row)
    row = grid[draw(st.integers(0, n - 1))]
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    small = F(draw(st.sampled_from([-1, 1])), draw(st.integers(2, 1000)))
    fault = draw(st.sampled_from(["none", "negative", "above", "moved", "off"]))
    if fault == "negative":
        row[j] = -row[j] - abs(small)
    elif fault == "above":
        row[j] = 1 + abs(small)
    elif fault == "moved":
        shift = row[j] + abs(small)
        row[j] -= shift
        row[k] += shift
    elif fault == "off":
        row[j] += small
    if draw(st.booleans()):
        grid = [[int(e) if e in (0, 1) else e for e in row] for row in grid]
    return grid


class TestSparseView:
    """Validation and every view of the sparse rows against a dense scan."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_stochastic_grids(), st.data())
    @example([[F(3, 2), F(-1, 2)], [0, 1]], None)
    @example([[0, 0], [0, 1]], None)
    def test_validation_and_views_match_dense_scan(self, grid, data):
        expected = dense_rejection(grid)
        if expected is not None:
            with pytest.raises(ValueError) as exc:
                StochMatrix(grid)
            assert str(exc.value) == expected
            return
        m = StochMatrix(grid)
        n = m.n
        dense = {(i, j): F(e) for i, row in enumerate(grid) for j, e in enumerate(row) if e != 0}
        assert m.entries == tuple(tuple(F(e) for e in row) for row in grid)
        assert m.sparse_rows == tuple(
            tuple((j, e) for (i, j), e in dense.items() if i == r) for r in range(n)
        )
        assert m.support() == set(dense)
        assert m.nnz() == len(dense)
        assert WeightedDigraph.from_matrix(m).edges == dense
        perm = data.draw(st.permutations(range(n))) if data is not None else list(range(n))
        relabelled = tuple(tuple(F(grid[perm[i]][perm[j]]) for j in range(n)) for i in range(n))
        assert m.permuted(perm).entries == relabelled
        assert m.permuted(perm).support() == {
            (i, j) for i in range(n) for j in range(n) if relabelled[i][j] != 0
        }

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(0, 10 ** 6), st.data())
    def test_permuted_equals_the_relabelled_grid_built_anew(self, n, seed, data):
        # permuted writes the sparse rows itself; they must be the ones the
        # constructor would make from the relabelled grid, column order included.
        m = random_stochastic(random.Random(seed), n, density=0.5)
        perm = data.draw(st.permutations(range(n)))
        p = m.permuted(perm)
        fresh = StochMatrix([[m[perm[i], perm[j]] for j in range(n)] for i in range(n)])
        assert p.sparse_rows == fresh.sparse_rows
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert p.permuted([perm.index(k) for k in range(n)]) == m

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1 sums to 0, not 1"):
            StochMatrix([[1, 0], [0, 0]])

    def test_ragged_rows_rejected(self):
        for grid in ([[1, 0], [1]], [[1], [1]], [[0, 1, 0], [1, 0]]):
            with pytest.raises(ValueError, match=r"row \d has length \d, expected \d"):
                StochMatrix(grid)


def dense_realization(arc, alpha, composition):
    """The sparsest realization written into a dense grid of zeros, weight
    by weight from its description, as a reference for build_sparsest."""
    n, q, d, b = arc.n, arc.q, arc.d, 1 - alpha
    grid = [[F(0)] * n for _ in range(n)]
    if arc.type_tag is ArcType.TYPE_II:
        # d q-cycles; each connector source keeps b on its cycle edge.
        for v in range(n):
            grid[v][v - v % q + (v + 1) % q] = F(1)
        for ((src, dst),) in TypeIIRealization.sparsest(arc, composition).connectors:
            grid[src][src - src % q + (src + 1) % q] = b
            grid[src][dst] = alpha
        return grid
    # The n-cycle; split row k sits at k*q + parts[0] + ... + parts[k-1] - 1.
    for i in range(n):
        grid[i][(i + 1) % n] = F(1)
    for k in range(1, d + 1):
        i = (k * q + sum(composition.parts[:k]) - 1) % n
        grid[i][(i + 1) % n] = alpha
        grid[i][(i + 1 - q) % n] = b
    return grid


class TestSparseConstruction:
    """Dense rows and the builders' ``(column, entry)`` pairs build the same
    matrix through the one validator."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_stochastic_grids(), st.booleans())
    @example([[F(3, 2), F(-1, 2)], [0, 1]], False)
    @example([[0, 0], [0, 1]], False)
    def test_sparse_and_dense_rows_agree(self, grid, keep_zeros):
        # Some pair rows also list zero entries, which must be dropped.
        pairs = [tuple((j, F(e)) for j, e in enumerate(row) if e != 0 or keep_zeros) for row in grid]
        expected = dense_rejection(grid)
        if expected is not None:
            for build, given_rows in ((StochMatrix, grid), (StochMatrix._from_pairs, pairs)):
                with pytest.raises(ValueError) as exc:
                    build(given_rows)
                assert str(exc.value) == expected
            return
        dense, sparse = StochMatrix(grid), StochMatrix._from_pairs(pairs)
        assert sparse.entries == dense.entries
        assert sparse.sparse_rows == dense.sparse_rows
        assert sparse == dense and hash(sparse) == hash(dense)
        assert sparse.support() == dense.support()
        assert sparse.nnz() == dense.nnz()
        assert sparse.to_json() == dense.to_json()

    def test_equality_follows_entries(self):
        m = StochMatrix([[F(1, 2), F(1, 2)], [0, 1]])
        assert m != StochMatrix([[F(1, 2), F(1, 2)], [1, 0]])
        assert m != cyclic_shift_matrix(2, 0)
        assert len({m, StochMatrix([["1/2", F(1, 2)], [0, "1"]])}) == 1

    @pytest.mark.parametrize("rows, message", [
        ([((0, F(1)),), ((0, F(1, 2)), (1, F(1, 3)))], "row 1 sums to 5/6, not 1"),
        ([((0, F(1)),), ((1, F(1, 2)),)], "row 1 sums to 1/2, not 1"),
        ([((0, F(1)),), ()], "row 1 sums to 0, not 1"),
        ([((0, F(1)),), ((0, F(3, 2)), (1, F(-1, 2)))], "row 1 has an entry outside [0, 1]"),
        ([((0, F(1)),), ((2, F(1)),)], "row 1 has a column outside 0..1"),
        ([((0, F(1)),), ((-1, F(1)),)], "row 1 has a column outside 0..1"),
        ([((0, F(1)),), ((0, F(1, 2)), (2, F(1, 2)))], "row 1 has a column outside 0..1"),
    ])
    def test_pairs_checked_as_rows_are(self, rows, message):
        with pytest.raises(ValueError) as exc:
            StochMatrix._from_pairs(rows)
        assert str(exc.value) == message

    def test_pairs_drop_zeros(self):
        m = StochMatrix._from_pairs([((0, F(0)), (1, F(1))), ((0, F(1, 3)), (1, F(2, 3)))])
        assert m.sparse_rows == (((1, F(1)),), ((0, F(1, 3)), (1, F(2, 3))))
        assert m == StochMatrix([[0, 1], [F(1, 3), F(2, 3)]])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(catalogue_arcs()), st.integers(1, 100), st.data())
    def test_build_sparsest_matches_dense_reference(self, arc, k, data):
        alpha = F(k, 101)
        composition = data.draw(st.sampled_from(enumerate_sparsest(arc)))
        m = build_sparsest(arc, alpha, composition)
        reference = StochMatrix(dense_realization(arc, alpha, composition))
        assert m == reference
        assert m.entries == reference.entries
        assert m.sparse_rows == reference.sparse_rows
        assert m.nnz() == arc.n + arc.d


@st.composite
def sparse_stochastic(draw, max_n=8):
    """Stochastic matrices of order <= 8 with one to three nonzeros a row."""
    n = draw(st.integers(1, max_n))
    grid = []
    for _ in range(n):
        support = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)
        )
        weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
        row = [F(0)] * n
        for j, w in zip(support, weights):
            row[j] = F(w, sum(weights))
        grid.append(row)
    return StochMatrix(grid)


TYPE_III_7 = arc_params(ArcType.TYPE_III, q=3, d=2, y=1)


@st.composite
def lower_hessenberg_stochastic(draw, max_n=8):
    """Stochastic matrices of order <= 8 with nonzeros only at j <= i + 1,
    one to three a row, so most rows hold zeros."""
    n = draw(st.integers(1, max_n))
    rows = []
    for i in range(n):
        top = min(i + 1, n - 1)
        support = draw(st.lists(st.integers(0, top), min_size=1, max_size=min(3, top + 1), unique=True))
        weights = draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
        row = [F(0)] * n
        for j, w in zip(support, weights):
            row[j] = F(w, sum(weights))
        rows.append(row)
    return StochMatrix(rows)


def c_power(n, k):
    m = cyclic_shift_matrix(n)
    out = cyclic_shift_matrix(n, 0)
    for _ in range(k):
        out = matmul(out, m)
    return out


# Denominators of the integer-scaling tests: small primes, 101 and a
# Mersenne prime, so the lcm of a grid's denominators is a product of
# several coprime factors and D**(n-i) runs to hundreds of digits.
PRIME_DENOMINATORS = (2, 3, 7, 101, 2**61 - 1)


@st.composite
def mixed_denominator_stochastic(draw, max_n=7):
    """Stochastic matrices whose rows mix the coprime denominators above."""
    n = draw(st.integers(1, max_n))
    rows = []
    for _ in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True))
        row = [F(0)] * n
        for j in support[1:]:
            den = draw(st.sampled_from(PRIME_DENOMINATORS))
            row[j] = F(draw(st.integers(1, den - 1)), den) / len(support)
        row[support[0]] = 1 - sum(row)
        rows.append(row)
    return StochMatrix(rows)


class TestIntegerView:
    """The cached integer view: L, the lcm of the entry denominators, and
    every nonzero as an int numerator over L, in the order of its row."""

    SMALL_ARCS = [arc for arc in catalogue_arcs(max_q=5, max_d=3) if arc.n <= 17]

    @staticmethod
    def check(m):
        scale, rows = m._int_view
        assert scale == math.lcm(*(e.denominator for row in m.entries for e in row))
        assert len(rows) == m.n
        for pairs, sparse in zip(rows, m.sparse_rows):
            assert [j for j, _ in pairs] == [j for j, _ in sparse]
            for (_, num), (_, entry) in zip(pairs, sparse):
                assert type(num) is int and Fraction(num, scale) == entry
        return scale

    def check_relabellings(self, m, data):
        scale = self.check(m)
        p = m.permuted(data.draw(st.permutations(range(m.n))))
        assert self.check(p) == scale
        assert self.check(p.permuted(data.draw(st.permutations(range(m.n))))) == scale

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(mixed_denominator_stochastic(), sparse_stochastic()), st.data())
    def test_rational_rows(self, m, data):
        self.check_relabellings(m, data)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(["0", "I", "II", "III"]), st.data())
    def test_builders(self, kind, data):
        den = data.draw(st.integers(2, 60))
        alpha = F(data.draw(st.integers(1, den - 1)), den)
        if kind == "0":
            m = type0(data.draw(st.integers(1, 9)), alpha)
        elif kind == "I":
            n, q = data.draw(st.sampled_from(
                [(n, q) for n in range(3, 10) for q in range(n // 2 + 1, n) if math.gcd(n, q) == 1]))
            m = type1(n, q, [alpha] + [F(data.draw(st.integers(1, 9)), 9) for _ in range(n - q)])
        else:
            tag = ArcType.TYPE_II if kind == "II" else ArcType.TYPE_III
            arc = data.draw(st.sampled_from([a for a in self.SMALL_ARCS if a.type_tag is tag]))
            m = build_sparsest(arc, alpha, data.draw(st.sampled_from(enumerate_sparsest(arc))))
        self.check_relabellings(m, data)

    def test_kept_outside_equality_hash_json_and_repr(self):
        m = StochMatrix([[F(1, 2), F(1, 2), 0], [0, F(1, 3), F(2, 3)], [1, 0, 0]])
        before = (m.to_json(), repr(m), hash(m))
        assert m._int_view == (6, (((0, 3), (1, 3)), ((1, 2), (2, 4)), ((0, 6),)))
        assert m._int_view is m._int_view
        assert m == StochMatrix(m.entries) and (m.to_json(), repr(m), hash(m)) == before


@st.composite
def rational_grids(draw, max_n=6):
    """Square grids that are not stochastic: zeros, negative entries and
    entries above 1, over the coprime denominators above."""
    n = draw(st.integers(1, max_n))
    den = st.sampled_from((1,) + PRIME_DENOMINATORS)
    entry = st.one_of(st.just(0), st.builds(F, st.integers(-300, 300), den))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def charpoly_faddeev_leverrier(grid):
    """Independent oracle in plain Fractions: M_0 = 0, and for k = 1..n
    M_k = A M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(A M_k) / k."""
    n = len(grid)
    a = [[F(e) for e in row] for row in grid]
    coeffs = [F(0)] * n + [F(1)]
    m = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        m = [[am[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n)) / k
    return RatPoly(coeffs)


def dense_hessenberg_columns(matrix):
    """Test-only reference: the Hessenberg reduction on a dense working grid,
    with the pivots, swaps and similarity transforms _hessenberg_columns
    makes on its dicts of the nonzeros, so it must give the same H."""
    if isinstance(matrix, StochMatrix):
        n = matrix.n
        h = [[0] * n for _ in range(n)]
        for row, pairs in zip(h, matrix.sparse_rows):
            for j, e in pairs:
                row[j] = e
    else:
        h = [[rat(e) or 0 for e in row] for row in matrix]
        n = len(h)
        for i, row in enumerate(h):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
    for j in range(n - 2):
        below = [i for i in range(j + 1, n) if h[i][j]]
        if not below:
            continue
        pivot_row = below[0]
        if pivot_row != j + 1:
            h[j + 1], h[pivot_row] = h[pivot_row], h[j + 1]
            for row in h:
                row[j + 1], row[pivot_row] = row[pivot_row], row[j + 1]
        row_p = h[j + 1]
        pivot = row_p[j]
        for i in below[1:]:
            m = h[i][j] / pivot
            row_i = h[i]
            for k in range(j, n):
                if row_p[k]:
                    row_i[k] -= m * row_p[k]
            for row in h:
                if row[i]:
                    row[j + 1] += m * row[i]
    return [[(i, e) for i, e in enumerate(col[: k + 2]) if e] for k, col in enumerate(zip(*h))]


@st.composite
def sparse_rational_grids(draw, max_n=8):
    """Square grids of order <= 8 that are not stochastic and hold mostly
    zeros: up to 3n nonzero cells, negative or above 1, small values (so
    fill-in often cancels) mixed with the coprime denominators above."""
    n = draw(st.integers(1, max_n))
    small = st.sampled_from([1, -1, 2, -2, F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)])
    wide = st.builds(F, st.integers(-300, 300).filter(bool), st.sampled_from(PRIME_DENOMINATORS))
    grid = [[0] * n for _ in range(n)]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cells, max_size=3 * n)):
        grid[i][j] = draw(st.one_of(small, wide))
    return grid


class TestSparseElimination:
    """The elimination on dicts of the nonzeros against the dense-grid
    reference: identical columns, entries and their order included."""

    def test_every_type2_class(self):
        alpha = F(37, 101)
        count = 0
        for arc in catalogue_arcs(6, 4):
            if arc.type_tag is not ArcType.TYPE_II:
                continue
            for composition in enumerate_sparsest(arc):
                m = build_sparsest(arc, alpha, composition)
                cols = _hessenberg_columns(m)
                assert cols == dense_hessenberg_columns(m), (arc, composition)
                assert all(type(e) is F and e for col in cols for _, e in col)
                count += 1
        assert count == 93  # the classes of the 33 Type II arcs

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sparse_rational_grids())
    # the pivot of column 0 comes from a swap, and fill-in at (2, 1) cancels
    @example([[0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]])
    @example([[0] * 5 for _ in range(5)])
    def test_grids_with_zeros(self, grid):
        cols = _hessenberg_columns(grid)
        assert cols == dense_hessenberg_columns(grid)
        assert all(type(e) is F and e for col in cols for _, e in col)

    def test_row_length_checked_at_load(self):
        with pytest.raises(ValueError, match="row 1 has length 1, expected 2"):
            _hessenberg_columns([[0, 1], [1]])


class TestCharpoly:
    def test_cyclic(self):
        for n in range(1, 13):
            expected = RatPoly([-1] + [0] * (n - 1) + [1])
            assert charpoly_exact(cyclic_shift_matrix(n)) == expected

    def test_lazy_walk_on_triangle(self):
        m = StochMatrix(
            [[F(1, 2) if j in (i, (i + 1) % 3) else 0 for j in range(3)] for i in range(3)]
        )
        expected = (RatPoly.x() - RatPoly([F(1, 2)])) ** 3 - RatPoly([F(1, 8)])
        assert charpoly_exact(m) == expected

    def test_five_cycle_with_two_back_edges(self):
        a1, a2 = F(1, 2), F(1, 3)
        rows = {0: {1: a1, 2: 1 - a1}, 1: {2: a2, 3: 1 - a2}, 2: {3: 1}, 3: {4: 1}, 4: {0: 1}}
        grid = [[F(0)] * 5 for _ in range(5)]
        for i, cols in rows.items():
            for j, w in cols.items():
                grid[i][j] = w
        m = StochMatrix(grid)
        alpha = a1 * a2
        expected = RatPoly([-alpha, -(1 - alpha), 0, 0, 0, 1])
        assert charpoly_exact(m) == expected

    def test_permutation_similarity_invariance(self):
        rng = random.Random(7)
        for n in range(2, 9):
            for _ in range(5):
                m = random_stochastic(rng, n)
                perm = list(range(n))
                rng.shuffle(perm)
                assert charpoly_exact(m.permuted(perm)) == charpoly_exact(m)

    def test_against_cofactor_expansion(self):
        rng = random.Random(3)
        for n in range(1, 5):
            for _ in range(8):
                m = random_stochastic(rng, n)
                assert charpoly_exact(m) == charpoly_cofactor([list(r) for r in m.entries])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_stochastic())
    # nothing below the diagonal in column 0, and a zero subdiagonal
    # under a nonzero entry of the last column
    @example(StochMatrix([[F(1, 2), 0, F(1, 2)], [0, 1, 0], [0, 0, 1]]))
    # the pivot of column 0 comes from a row swap
    @example(cyclic_shift_matrix(4))
    # two nonzeros below the pivot, and nonzero diagonals
    @example(StochMatrix([[F(1, 2), F(1, 2), 0, 0], [F(1, 3), 0, F(2, 3), 0],
                          [F(1, 4), 0, 0, F(3, 4)], [F(1, 5), 0, 0, F(4, 5)]]))
    def test_sparse_against_coates(self, m):
        assert charpoly_exact(m) == charpoly_coates(WeightedDigraph.from_matrix(m))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_denominator_stochastic())
    def test_mixed_denominators_against_coates(self, m):
        assert charpoly_exact(m) == charpoly_coates(WeightedDigraph.from_matrix(m))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rational_grids())
    @example([[0] * 4 for _ in range(4)])
    @example([[F(-3, 2), F(7, 3)], [F(2**61 - 1, 101), 0]])
    def test_rational_grids_against_faddeev_leverrier(self, grid):
        assert charpoly_exact(grid) == charpoly_faddeev_leverrier(grid)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lower_hessenberg_stochastic())
    # a Type III realization: a 7-cycle with back edges
    @example(build_sparsest(TYPE_III_7, F(37, 101), enumerate_sparsest(TYPE_III_7)[0]))
    def test_lower_hessenberg_loaded_transposed(self, m):
        assert all(j <= i + 1 for i, j in m.support())
        exact = charpoly_exact(m)
        assert exact == charpoly_coates(WeightedDigraph.from_matrix(m))
        assert exact == charpoly_faddeev_leverrier(m.entries)

    def test_monic_and_degree(self):
        m = random_stochastic(random.Random(0), 6)
        p = charpoly_exact(m)
        assert p.degree == 6 and p.coeffs[-1] == 1
        assert poly_eval(p, 1) == 0  # row sums 1 force the eigenvalue 1


def lower_hessenberg_under(succ, order):
    """Whether every edge i -> j of ``succ`` has slot(j) <= slot(i) + 1."""
    slot = {v: k for k, v in enumerate(order)}
    return all(slot[j] <= slot[i] + 1 for i, js in enumerate(succ) for j in js)


def strongly_connected(succ):
    n = len(succ)
    pred = [[i for i in range(n) if j in succ[i]] for j in range(n)]
    for edges in (succ, pred):
        seen, frontier = {0}, [0]
        while frontier:
            for v in edges[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) < n:
            return False
    return True


@st.composite
def digraphs(draw, max_n=6):
    """Successor sets of a digraph on at most 6 vertices, each vertex with
    at least one.  Half are a relabelled lower-Hessenberg pattern, whose
    step edges i -> i+1 are kept with probability one half each, so that
    many are strongly connected."""
    n = draw(st.integers(1, max_n))
    hessenberg = draw(st.booleans())
    succ = []
    for i in range(n):
        cols = range(min(i + 2, n)) if hessenberg else range(n)
        out = draw(st.sets(st.sampled_from(cols), min_size=1))
        if hessenberg and i + 1 < n and draw(st.booleans()):
            out.add(i + 1)
        succ.append(out)
    perm = draw(st.permutations(range(n)))  # vertex i becomes perm[i]
    relabelled = [set() for _ in range(n)]
    for i, out in enumerate(succ):
        relabelled[perm[i]] = {perm[j] for j in out}
    return relabelled


TYPE_I_SHAPES = [(n, q) for n in range(3, 13) for q in range(n // 2 + 1, n) if math.gcd(n, q) == 1]
TYPE_III_ARCS = [arc for arc in catalogue_arcs(max_q=6, max_d=4) if arc.type_tag is ArcType.TYPE_III]


@st.composite
def relabelled_cycle_realizations(draw):
    """(matrix, its reduced polynomial): a Type 0, Type I or sparsest Type
    III realization, or a Type III family member grown from one, under a
    random relabelling.  Each is an n-cycle with back edges."""
    kind = draw(st.sampled_from(["0", "I", "III", "family"]))
    alpha = F(draw(st.integers(1, 50)), 101)
    if kind == "0":
        n = draw(st.integers(2, 12))
        m, arc = type0(n, alpha), arc_params(ArcType.TYPE_0, n=n)
    elif kind == "I":
        n, q = draw(st.sampled_from(TYPE_I_SHAPES))
        weights = [alpha] + [F(draw(st.integers(1, 9)), 9) for _ in range(n - q)]
        m, arc, alpha = type1(n, q, weights), arc_params(ArcType.TYPE_I, n=n, q=q), math.prod(weights)
    else:
        arc = draw(st.sampled_from(TYPE_III_ARCS))
        m = build_sparsest(arc, alpha, draw(st.sampled_from(enumerate_sparsest(arc))))
        if kind == "family":
            # Grow each block back from its split row; the row's own step
            # weight restores the block's product alpha.
            n, q, w = arc.n, arc.q, F(19, 20)
            weights = {}
            for r in (i for i, row in enumerate(m.sparse_rows) if len(row) == 2):
                block = [(r - k) % n for k in range(draw(st.integers(1, q)))]
                weights.update(dict.fromkeys(block, w))
                weights[r] = alpha / w ** (len(block) - 1)
            try:
                m = type3_family(TypeIIIFamilySpec(n=n, q=q, weights=weights))
            except ValueError:
                assume(False)  # blocks grown too close together
    return m.permuted(draw(st.permutations(range(m.n)))), reduced_ito(arc, alpha).poly


class TestHessenbergOrder:
    """_hessenberg_order against a brute force over every order, and on the
    n-cycle realizations, where it must always find one."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(digraphs())
    # the walk from 0 meets two unplaced successors at 1, so neither 0 nor 1
    # starts a walk again; the walk from 2 succeeds: 2, 0, 1, 3
    @example([{1}, {2, 3}, {0}, {0}])
    # not strongly connected: every walk fails on no unplaced successor,
    # though the order 1, 0, 2 exists
    @example([{2}, {1}, {0}])
    def test_against_every_order(self, succ):
        n = len(succ)
        order = _hessenberg_order([tuple((j, 1) for j in sorted(out)) for out in succ])
        if order is not None:
            assert sorted(order) == list(range(n))
            assert lower_hessenberg_under(succ, order)
        if strongly_connected(succ):
            exists = any(lower_hessenberg_under(succ, p) for p in itertools.permutations(range(n)))
            assert (order is not None) == exists

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(relabelled_cycle_realizations())
    def test_cycle_realizations_always_ordered(self, case):
        m, _ = case
        order = _hessenberg_order(m.sparse_rows)
        assert order is not None
        assert lower_hessenberg_under([[j for j, _ in row] for row in m.sparse_rows], order)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(relabelled_cycle_realizations())
    def test_charpoly_takes_the_integer_path(self, case):
        m, expected = case

        def refuse(matrix):
            raise AssertionError("charpoly_exact eliminated")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra_module, "_hessenberg_columns", refuse)
            exact = charpoly_exact(m)
        assert exact == expected
        if m.n <= 16:
            assert exact == charpoly_coates(WeightedDigraph.from_matrix(m))
