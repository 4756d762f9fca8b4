"""Lattice-index multiplicity of a matched curve.

The count weights every solution by the index of the evaluation map on
the lattice of the type's moduli (the root and the integer bounded
lengths), read off matching.incidence_rows, the edge_rows that the
search was built from and the match solves, and corrected by
per-marking lattice indices and bounded edge weights.  It equals the
index of the map on vertex positions with a block of edge-class rows
per bounded edge, as those rows map the positions onto Z^((n-1)*nb)
with kernel exactly the root plus integer lengths.  In the
plane the product is the classical vertex-determinant multiplicity,
which is checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import edge_dir, edge_weight
# quotient_map is unused here, but perfbench's tracer patches it by name
from .lattice import bareiss_det, quotient_map, rank_int, saturation_index
from .matching import incidence_rows


@dataclass(frozen=True)
class Multiplicity:
    """Breakdown of the multiplicity of one solution.

    weight is the product of bounded edge weights, d_index the index of
    the combined edge-direction and evaluation map, deltas the per
    marking correction indices.  total = weight * d_index * prod(deltas).
    """

    weight: int
    d_index: int
    deltas: tuple
    total: int


def d_index(t, constraints):
    """Index of the evaluation map of a type with vertices: |det| of its
    incidence rows over the root and the bounded lengths.  Zero
    dimensionality of the count makes the rows square.  Returns |det|;
    0 marks a non-general configuration.
    """
    if t.degenerate:
        raise ValueError("d_index needs a type with at least one vertex")
    rows = incidence_rows(t, constraints)[0]
    if len(rows) != t.n + len(t.bounded):
        raise ValueError("index map is not square; dimensions are off")
    return abs(bareiss_det(rows))


def _line_index(t, constraints):
    """Two-ended analogue of d_index: the index of the line's incidence
    rows in their saturation, or 0 when they are dependent."""
    rows = incidence_rows(t, constraints)[0]
    return saturation_index(rows) if rank_int(rows) == len(rows) else 0


def delta_index(t, i, constraint):
    """Per-marking correction: weight times the index of Z(dir)+span in
    its saturation."""
    eid = t.markings[i]
    u = edge_dir(t, eid)
    w = edge_weight(t, eid)
    basis = [tuple(u)] + [tuple(b) for b in constraint.basis]
    if rank_int(basis) != len(basis):
        raise ValueError("marked edge direction lies in the constraint span")
    return w * saturation_index(basis)


def total_multiplicity(t, constraints):
    """Assembled multiplicity of one solution of the type."""
    wprod = 1
    for b in t.bounded:
        wprod *= b[2]
    if t.degenerate:
        d = _line_index(t, constraints)
    else:
        d = d_index(t, constraints)
    deltas = tuple(delta_index(t, i, c) for i, c in enumerate(constraints))
    total = wprod * d
    for dl in deltas:
        total *= dl
    return Multiplicity(wprod, d, deltas, total)
