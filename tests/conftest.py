"""Shared fixtures and oracles for the test suite.

Holds the matrices transcribed from the worked order-12 and order-15
examples, a seeded random-stochastic-matrix generator, the exact matrix
product that the cyclic-shift power oracle uses, a runner for
scripts in a fresh interpreter, the companion-matrix root finder the
tests take as their reference, the exhaustive search used to confirm the characterization of digraphs whose
cycle lengths are exactly {q, n}, the circular distance on 0..n-1 that
the block and window references read, and the list of small Type II/III
arcs that several modules check their realizations on.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import karpelevic
from karpelevic.algebra import StochMatrix
from karpelevic.digraph import WeightedDigraph, simple_cycles
from karpelevic.farey import ArcType, arc_params


def grid_matrix(rows: dict[int, dict[int, Fraction]], n: int) -> StochMatrix:
    """Build a matrix from 1-based {row: {col: weight}} sparse data."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i, cols in rows.items():
        for j, w in cols.items():
            grid[i - 1][j - 1] = Fraction(w)
    return StochMatrix(grid)


def matmul(a: StochMatrix, b: StochMatrix) -> StochMatrix:
    """The product a b, row by row over the nonzeros."""
    if a.n != b.n:
        raise ValueError("order mismatch")
    prod = []
    for row in a.sparse_rows:
        acc: dict[int, Fraction] = {}
        for k, x in row:
            for j, y in b.sparse_rows[k]:
                acc[j] = acc.get(j, Fraction(0)) + x * y
        prod.append(tuple(sorted(acc.items())))
    return StochMatrix._from_pairs(prod)


def order12_sparsest(alpha: Fraction) -> dict[str, StochMatrix]:
    """The four sparsest order-12 fixtures (q=4, d=3, z=3), keyed A1..A4."""
    b = 1 - alpha
    a = alpha
    common = {2: {3: 1}, 3: {4: 1}, 4: {1: 1}, 5: {6: 1}, 6: {7: 1}}
    return {
        "A1": grid_matrix(
            {**common, 1: {2: b, 5: a}, 7: {8: 1}, 8: {5: b, 12: a},
             9: {10: 1}, 10: {11: 1}, 11: {1: a, 12: b}, 12: {9: 1}}, 12),
        "A2": grid_matrix(
            {**common, 1: {2: b, 5: a}, 7: {8: b, 11: a}, 8: {5: 1},
             9: {3: a, 10: b}, 10: {11: 1}, 11: {12: 1}, 12: {9: 1}}, 12),
        "A3": grid_matrix(
            {**common, 1: {2: b, 5: a}, 7: {8: b, 11: a}, 8: {5: 1},
             9: {10: 1}, 10: {4: a, 11: b}, 11: {12: 1}, 12: {9: 1}}, 12),
        "A4": grid_matrix(
            {**common, 1: {2: b, 5: a}, 7: {8: 1}, 8: {5: b, 12: a},
             9: {10: 1}, 10: {4: a, 11: b}, 11: {12: 1}, 12: {9: 1}}, 12),
    }


def order12_augmented(alpha: Fraction, free: Fraction) -> dict[str, StochMatrix]:
    """The three augmented order-12 fixtures A11/A12/A13 with every free
    weight set to the same value ``free``."""
    a, b, f = alpha, 1 - alpha, free
    dep3 = b / f ** 3   # dependent weight when a block has three free sources
    dep2 = b / f ** 2
    dep1 = b / f
    a11 = grid_matrix(
        {1: {2: f, 5: 1 - f}, 2: {3: f, 6: 1 - f}, 3: {4: f, 7: 1 - f},
         4: {1: dep3, 8: 1 - dep3},
         5: {6: 1}, 6: {7: 1}, 7: {8: 1}, 8: {5: b, 12: a},
         9: {10: 1}, 10: {11: 1}, 11: {1: a, 12: b}, 12: {9: 1}}, 12)
    a12 = grid_matrix(
        {1: {2: b, 5: a}, 2: {3: 1}, 3: {4: 1}, 4: {1: 1},
         5: {6: 1}, 6: {7: 1}, 7: {8: 1}, 8: {5: b, 12: a},
         9: {3: 1 - f, 10: f}, 10: {4: 1 - f, 11: f}, 11: {1: 1 - f, 12: f},
         12: {2: 1 - dep3, 9: dep3}}, 12)
    a13 = grid_matrix(
        {1: {2: f, 5: 1 - f}, 2: {3: dep1, 6: 1 - dep1}, 3: {4: 1}, 4: {1: 1},
         5: {6: 1}, 6: {7: 1}, 7: {8: 1}, 8: {5: b, 12: a},
         9: {3: 1 - f, 10: f}, 10: {4: 1 - f, 11: f},
         11: {1: 1 - dep2, 12: dep2}, 12: {9: 1}}, 12)
    return {"A11": a11, "A12": a12, "A13": a13}


@pytest.fixture
def paper_order12(request):
    return order12_sparsest(Fraction(1, 3))


def random_stochastic(rng, n: int, density: float = 0.6) -> StochMatrix:
    """Random rational stochastic matrix with random support (seeded rng)."""
    rows = []
    for _ in range(n):
        weights = [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return StochMatrix(rows)


def package_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = Path(karpelevic.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_script(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports this
    checkout's package, so it may block imports without touching ours."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


# -- reference root finder ----------------------------------------------
#
# The package traces and decides each arc through its branch equation and
# never needs every root of a polynomial; the tests still compare against
# all roots of a characteristic or reduced polynomial, found here.

DEFAULT_RESIDUAL_SCALE = 1e-10


class RootFindingError(RuntimeError):
    """Polishing failed to reach the residual target."""


def _as_float_coeffs(coeffs: Sequence) -> np.ndarray:
    arr = np.asarray([float(c) for c in coeffs], dtype=float)
    if arr.size == 0 or arr[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return arr


def _eval_with_derivative(coeffs: np.ndarray, z: complex) -> tuple[complex, complex]:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: np.ndarray, z: complex, target: float, iters: int = 60) -> complex:
    best = z
    best_res = abs(_eval_with_derivative(coeffs, z)[0])
    for _ in range(iters):
        p, dp = _eval_with_derivative(coeffs, z)
        if abs(p) < best_res:
            best, best_res = z, abs(p)
        if abs(p) <= target:
            return z
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
    p = _eval_with_derivative(coeffs, z)[0]
    if abs(p) < best_res:
        best, best_res = z, abs(p)
    if best_res <= target:
        return best
    raise RootFindingError(
        f"Newton polish stalled at residual {best_res:.3e} (target {target:.3e})"
    )


def _residual_target(coeffs: np.ndarray, scale: float) -> float:
    degree = len(coeffs) - 1
    return scale * degree * float(np.max(np.abs(coeffs)))


def poly_roots(coeffs: Sequence, residual_scale: float = DEFAULT_RESIDUAL_SCALE) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients.

    Companion-matrix start (numpy.roots) followed by a Newton polish to
    residual |p(root)| <= residual_scale * degree * max|coeff|.  Roots are
    returned sorted by (argument in [0, 2*pi), modulus), so the ordering
    is deterministic.

    This is a test reference, and it is residual-stable only: the residual
    bound is not a bound on a root's error, which is far larger near
    clustered roots.  The roots of (t - 15/16)^10 - (1/16)^10 (Type 0,
    n = 10) come out 3.8e-4 from the true ones.  On Type II with q = 2,
    d = 6 at a = 39/2500, the nearest root lies 1.3e-6 from the traced
    point, which agrees with a 60-digit solve to 1e-16.
    """
    arr = _as_float_coeffs(coeffs)
    if len(arr) < 2:
        raise ValueError("degree must be at least 1")
    target = _residual_target(arr, residual_scale)
    raw = np.roots(arr[::-1])
    polished = []
    for z in raw:
        try:
            polished.append(_newton_polish(arr, complex(z), target))
        except RootFindingError:
            # Multiple roots converge slowly; accept the companion value if
            # it already meets a relaxed residual, else re-raise.
            res = abs(_eval_with_derivative(arr, complex(z))[0])
            if res <= 100 * target:
                polished.append(complex(z))
            else:
                raise

    def key(z: complex):
        angle = cmath.phase(z) % (2 * math.pi)
        if angle > 2 * math.pi - 1e-12:
            angle = 0.0
        return (round(angle, 12), round(abs(z), 12))

    return sorted(polished, key=key)



# -- exhaustive {q, n}-cycle digraph search -----------------------------
#
# Any digraph with an n-cycle is isomorphic to one containing the standard
# cycle 0 -> 1 -> ... -> n-1 -> 0, so the search space is the 2^(n^2 - n)
# supersets of that cycle.  Two exact reductions shrink it to 2^n:
# adding a single edge (i, j) to the standard cycle creates a cycle of
# length (i - j) mod n + 1 using cycle edges only, and a subgraph's cycles
# persist in every supergraph.  Hence any admissible extra edge must
# individually create a q-cycle, i.e. lie in the back-edge rotation class,
# and it suffices to enumerate all subsets of those n back edges.


def standard_cycle_edges(n: int) -> set[tuple[int, int]]:
    return {(i, (i + 1) % n) for i in range(n)}


def single_edge_cycle_lengths(n: int, q: int) -> dict[tuple[int, int], set[int]]:
    """Cycle lengths of (standard n-cycle + one extra edge), for every
    possible extra edge including self-loops."""
    out = {}
    cycle = standard_cycle_edges(n)
    for i in range(n):
        for j in range(n):
            if (i, j) in cycle:
                continue
            g = WeightedDigraph.from_edge_list(n, cycle | {(i, j)})
            out[(i, j)] = simple_cycles(g).lengths()
    return out


def back_edge_subset_valid(n: int, q: int, sources: frozenset) -> bool:
    """True iff the n-cycle plus back edges i -> (i+1-q) mod n from the
    given sources has cycle lengths exactly {q, n}."""
    edges = standard_cycle_edges(n) | {(i, (i + 1 - q) % n) for i in sources}
    g = WeightedDigraph.from_edge_list(n, edges)
    return simple_cycles(g).lengths() == {q, n}


def fits_anchored_window(n: int, q: int, sources: frozenset) -> bool:
    """True iff some rotation maps the sources into {0, ..., n-q} with a
    source landing on 0 (the anchored normal form)."""
    for r in sources:
        shifted = {(s - r) % n for s in sources}
        if all(v <= n - q for v in shifted):
            return True
    return False


def cyclic_distance(n: int, i: int, j: int) -> int:
    """min((i-j) mod n, (j-i) mod n), the circular distance on 0..n-1."""
    a = (i - j) % n
    return min(a, n - a)


def catalogue_arcs(max_q=6, max_d=4):
    """Every Type II/III arc with q <= max_q and d <= max_d."""
    arcs = []
    for q, d, x in itertools.product(range(2, max_q + 1), range(2, max_d + 1), range(1, max_q)):
        for kind, key in ((ArcType.TYPE_II, "z"), (ArcType.TYPE_III, "y")):
            try:
                arcs.append(arc_params(kind, q=q, d=d, **{key: x}))
            except ValueError:  # x >= q, or q and s not coprime
                pass
    return arcs
