"""Lattice-index multiplicity of a matched curve.

The count weights every solution by the index of the evaluation map on
the lattice of the type's moduli (the root and the integer bounded
lengths), corrected by per-marking lattice indices and bounded edge
weights.  The index is read off matching.incidence_rows, the edge_rows
that the search was built from and the match solves, as the index of
those rows in their saturation, the same way for every type.  On a type
with vertices the rows are square, so the index is |det|; it equals the
index of the map on vertex positions with a block of edge-class rows
per bounded edge, as those rows map the positions onto Z^((n-1)*nb)
with kernel exactly the root plus integer lengths.  On a two-ended line
the rows vanish on its direction and number one fewer than the root's
coordinates.  In the plane the product is the classical
vertex-determinant multiplicity, which is checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import edge_dir, edge_weight
# quotient_map is unused here, but perfbench's tracer patches it by name
from .lattice import quotient_map, saturation_index
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
    """Index of the evaluation map of a marked type: the index of its
    incidence rows over the root and the bounded lengths in their
    saturation, or 0 when they are dependent (a non-general
    configuration).  Zero dimensionality of the count gives e + n - 3
    rows: square on a type with vertices, where the index is |det|, and
    one fewer than the unknowns on a two-ended line, whose rows all
    vanish on its direction.  Any other row count raises ValueError.
    """
    rows = incidence_rows(t, constraints)[0]
    if len(rows) != len(t.ends) + t.n - 3:
        raise ValueError("index map has %d rows, not e + n - 3; dimensions "
                         "are off" % len(rows))
    return saturation_index(rows)


def delta_index(t, i, constraint):
    """Per-marking correction: weight times the index of Z(dir)+span in
    its saturation."""
    eid = t.markings[i]
    u = edge_dir(t, eid)
    w = edge_weight(t, eid)
    basis = [tuple(u)] + [tuple(b) for b in constraint.basis]
    index = saturation_index(basis)
    if index == 0:
        raise ValueError("marked edge direction lies in the constraint span")
    return w * index


def total_multiplicity(t, constraints):
    """Assembled multiplicity of one solution of the type."""
    wprod = 1
    for b in t.bounded:
        wprod *= b[2]
    d = d_index(t, constraints)
    deltas = tuple(delta_index(t, i, c) for i, c in enumerate(constraints))
    total = wprod * d
    for dl in deltas:
        total *= dl
    return Multiplicity(wprod, d, deltas, total)
