"""Lattice-index multiplicity of a matched curve.

The count weights every solution by the absolute determinant of the
evaluation-and-edge map on vertex positions, corrected by per-marking
lattice indices and the bounded edge weights.  In the plane this product
reduces to the classical vertex-determinant multiplicity, which is
checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import edge_base_vertex, edge_dir, edge_weight
from .lattice import (bareiss_det, cached_quotient_map, int_matrix_inverse,
                      quotient_map, rank_int, saturation_index,
                      smith_normal_form)


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
    """Index of the map sending vertex positions to edge classes.

    Domain: one copy of Z^n per vertex.  Rows: for each bounded edge the
    difference of its endpoints in Z^n / Z(dir); for each marking the
    base vertex in Z^n / saturation(Z(dir) + span(basis)).  Zero
    dimensionality of the count makes the matrix square of size
    n * vertices.  Returns |det|; 0 marks a non-general configuration.
    """
    if t.degenerate:
        raise ValueError("d_index needs a type with at least one vertex")
    n = t.n
    nv = t.vertices
    cols = n * nv
    rows = []
    for tail, head, w, u in t.bounded:
        wq = cached_quotient_map([u], n, quotient_map)
        ncols = len(wq[0]) if wq and len(wq) else 0
        for col in range(ncols):
            row = [0] * cols
            for j in range(n):
                row[head * n + j] += wq[j][col]
                row[tail * n + j] -= wq[j][col]
            rows.append(row)
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        u = edge_dir(t, eid)
        v = edge_base_vertex(t, eid)
        wq = cached_quotient_map([u, *c.basis], n, quotient_map)
        ncols = len(wq[0]) if wq and len(wq) else 0
        for col in range(ncols):
            row = [0] * cols
            for j in range(n):
                row[v * n + j] += wq[j][col]
            rows.append(row)
    if len(rows) != cols:
        raise ValueError("index map is not square; dimensions are off")
    return abs(bareiss_det(rows))


def _line_index(t, constraints):
    """Degenerate analogue of d_index: the translation classes of the
    line modulo its own direction, evaluated against each constraint."""
    n = t.n
    u = t.ends[0][2]
    _, _, right = smith_normal_form([list(u)])
    rinv = int_matrix_inverse(right)
    complement = [tuple(rinv[i]) for i in range(1, n)]
    rows = []
    for i, c in enumerate(constraints):
        wq = cached_quotient_map([u, *c.basis], n, quotient_map)
        ncols = len(wq[0]) if wq and len(wq) else 0
        for col in range(ncols):
            rows.append([sum(cv[j] * wq[j][col] for j in range(n))
                         for cv in complement])
    if len(rows) != n - 1:
        raise ValueError("index map is not square; dimensions are off")
    return abs(bareiss_det(rows))


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


def mikhalkin_multiplicity(t):
    """Classical plane multiplicity: product over vertices of the
    absolute determinant of two of the three weighted flag directions."""
    if t.n != 2:
        raise ValueError("the vertex determinant form only exists in rank 2")
    if t.degenerate:
        raise ValueError("degenerate types have no vertex multiplicity")
    out = 1
    for v in range(t.vertices):
        vecs = []
        for tail, head, w, u in t.bounded:
            if tail == v:
                vecs.append((w * u[0], w * u[1]))
            if head == v:
                vecs.append((-w * u[0], -w * u[1]))
        for vv, w, u in t.ends:
            if vv == v:
                vecs.append((w * u[0], w * u[1]))
        if len(vecs) != 3:
            raise ValueError("vertex %d is not trivalent" % v)
        a, b = vecs[0], vecs[1]
        out *= abs(a[0] * b[1] - a[1] * b[0])
    return out
