"""Karpelevic region boundary arcs and the stochastic matrices realising them.

Subpackages:

- :mod:`karpelevic.algebra`   exact rationals, polynomials, stochastic matrices
- :mod:`karpelevic.farey`     Farey fractions and boundary-arc classification
- :mod:`karpelevic.itopoly`   unreduced and reduced boundary-arc polynomials
- :mod:`karpelevic.digraph`   weighted digraphs, cycle enumeration, Coates expansion
- :mod:`karpelevic.realize`   constructions of matrices realising each arc type
- :mod:`karpelevic.boundary`  floating-point boundary tracing and membership
- :mod:`karpelevic.cli`       command-line interface
"""

from karpelevic.algebra import (
    RatPoly,
    StochMatrix,
    charpoly_exact,
    cyclic_shift_matrix,
    poly_eval,
    rat,
    rat_str,
)
from karpelevic.farey import ArcParams, ArcType

__version__ = "0.1.0"

__all__ = [
    "RatPoly",
    "StochMatrix",
    "charpoly_exact",
    "cyclic_shift_matrix",
    "poly_eval",
    "rat",
    "rat_str",
    "ArcParams",
    "ArcType",
    "__version__",
]
