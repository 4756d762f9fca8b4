"""Matching a combinatorial type against affine incidence constraints.

The unknowns of a type are the position of vertex 0 and one length per
bounded edge, lengths measured in units of the primitive edge direction.
Each marked point contributes the condition that its edge meets an
affine subspace; projecting along the edge direction and the subspace
span turns that into linear rows over Q, solved exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .curves import edge_base_vertex, edge_dir, is_bounded, path_signs
from .lattice import (cached_quotient_map, quotient_map, rank_int,
                      saturation_index, solve_rational)

NONE = "none"
UNIQUE = "unique"
NON_GENERAL = "non-general"


def check_basis(n, basis):
    """Raise ValueError unless basis is an independent, saturated set of
    length-n vectors whose span leaves a condition on a curve in R^n."""
    for v in basis:
        if len(v) != n:
            raise ValueError("constraint basis rank mismatch")
    if basis:
        if rank_int(basis) != len(basis):
            raise ValueError("constraint basis must be independent")
        if saturation_index(basis) != 1:
            raise ValueError("constraint basis must be saturated")
    if n - 1 - len(basis) < 1:
        raise ValueError("constraint imposes no condition on a curve")


@dataclass(frozen=True)
class AffineConstraint:
    """Affine subspace offset + span(basis) in Q^n.

    The basis must be independent and saturated, so the integer points
    of the direction space are exactly its integer span.  An empty basis
    is a point constraint.
    """

    offset: tuple
    basis: tuple = ()

    def __post_init__(self):
        check_basis(len(self.offset), self.basis)

    @property
    def n(self):
        return len(self.offset)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        """Codimension of the incidence condition on a 1-dimensional curve."""
        return len(self.offset) - 1 - len(self.basis)


@dataclass(frozen=True)
class Solution:
    """Exact position data for a matched curve.

    root is the position of vertex 0 (base point of the line for a
    degenerate type), lengths are the bounded edge lengths, params the
    position of each marked point along its edge, all in units of the
    primitive edge direction.
    """

    root: tuple
    lengths: tuple
    params: tuple


@dataclass(frozen=True)
class MatchOutcome:
    status: str
    solution: Solution | None = None


def _span_contains(basis, v):
    if not basis:
        return False
    return rank_int(list(basis) + [tuple(v)]) == len(basis)


def _point_on_edge(t, sol, i):
    """Position of marked point i in Q^n."""
    eid = t.markings[i]
    u = edge_dir(t, eid)
    tp = sol.params[i]
    if t.degenerate:
        return tuple(Fraction(x) + tp * d for x, d in zip(sol.root, u))
    sign = path_signs(t)
    v = edge_base_vertex(t, eid)
    pos = [Fraction(x) for x in sol.root]
    for b, s in enumerate(sign[v]):
        if s:
            ub = t.bounded[b][3]
            for j in range(t.n):
                pos[j] += s * sol.lengths[b] * ub[j]
    return tuple(pos[j] + tp * u[j] for j in range(t.n))


def _recover_param(u, basis, rhs):
    """Write rhs as t*u + span(basis); unique t or None when ambiguous."""
    n = len(u)
    cols = [tuple(u)] + [tuple(b) for b in basis]
    a = [[c[j] for c in cols] for j in range(n)]
    res = solve_rational(a, rhs)
    if res.status != "unique":
        return None
    return res.particular[0]


def match_constraints(t, constraints):
    """Solve the incidence system of a type against the constraints.

    Returns a MatchOutcome: "unique" with a Solution when the system has
    exactly one answer lying strictly inside the type's cell, "none"
    when no curve of this type meets the constraints, and "non-general"
    when the configuration is degenerate for this type (a positive
    dimensional family, or a solution on the cell boundary) and the
    constraints should be re-sampled.
    """
    if len(constraints) != len(t.markings):
        raise ValueError("one constraint per marking is required")
    n = t.n
    e = len(t.ends)
    total = sum(c.codim for c in constraints)
    if total != e + n - 3:
        raise ValueError("constraint codimensions do not sum to e+n-3")

    if t.degenerate:
        return _match_degenerate(t, constraints)

    nb = len(t.bounded)
    sign = path_signs(t)

    rows = []
    rhs = []
    overdetermined = set()
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        u = edge_dir(t, eid)
        if _span_contains(c.basis, u):
            overdetermined.add(i)
        w = cached_quotient_map([u, *c.basis], n, quotient_map)
        ncols = len(w[0]) if w and len(w) else 0
        v = edge_base_vertex(t, eid)
        for col in range(ncols):
            row = [w[j][col] for j in range(n)] + [0] * nb
            for b in range(nb):
                if sign[v][b]:
                    ub = t.bounded[b][3]
                    row[n + b] = sign[v][b] * sum(
                        ub[j] * w[j][col] for j in range(n))
            rows.append(row)
            rhs.append(sum(c.offset[j] * w[j][col] for j in range(n)))

    res = solve_rational(rows, rhs)
    if res.status == "infeasible":
        return MatchOutcome(NONE)
    if res.status == "family":
        return MatchOutcome(NON_GENERAL)

    root = tuple(res.particular[:n])
    lengths = tuple(res.particular[n:])
    boundary = False
    for q in lengths:
        if q == 0:
            boundary = True
        elif q < 0:
            return MatchOutcome(NONE)

    params = []
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        if i in overdetermined:
            # the edge direction lies in the constraint span, so the
            # parameter is undetermined whenever the system is solvable
            return MatchOutcome(NON_GENERAL)
        u = edge_dir(t, eid)
        v = edge_base_vertex(t, eid)
        pos = list(root)
        for b in range(nb):
            if sign[v][b]:
                ub = t.bounded[b][3]
                for j in range(n):
                    pos[j] += sign[v][b] * lengths[b] * ub[j]
        diff = [Fraction(c.offset[j]) - pos[j] for j in range(n)]
        tp = _recover_param(u, c.basis, diff)
        if tp is None:
            return MatchOutcome(NON_GENERAL)
        if is_bounded(t, eid):
            top = lengths[eid]
            if tp == 0 or tp == top:
                boundary = True
            elif tp < 0 or tp > top:
                return MatchOutcome(NONE)
        else:
            if tp == 0:
                boundary = True
            elif tp < 0:
                return MatchOutcome(NONE)
        params.append(tp)

    if boundary:
        return MatchOutcome(NON_GENERAL)
    return MatchOutcome(UNIQUE, Solution(root, lengths, tuple(params)))


def _match_degenerate(t, constraints):
    """Line x + Q*u against the constraints; the line itself has no
    moduli beyond translation, so the system is solved modulo u."""
    n = t.n
    u = t.ends[0][2]
    rows = []
    rhs = []
    overdetermined = set()
    for i, c in enumerate(constraints):
        if _span_contains(c.basis, u):
            overdetermined.add(i)
        w = cached_quotient_map([u, *c.basis], n, quotient_map)
        ncols = len(w[0]) if w and len(w) else 0
        for col in range(ncols):
            rows.append([w[j][col] for j in range(n)])
            rhs.append(sum(c.offset[j] * w[j][col] for j in range(n)))
    res = solve_rational(rows, rhs)
    if res.status == "infeasible":
        return MatchOutcome(NONE)
    if res.status == "unique":
        # the translation along u should always stay free
        return MatchOutcome(NON_GENERAL)
    if len(res.kernel) != 1:
        return MatchOutcome(NON_GENERAL)
    kv = res.kernel[0]
    # kernel must be the line direction itself
    if rank_int([tuple(kv), tuple(u)]) != 1:
        return MatchOutcome(NON_GENERAL)
    root = tuple(res.particular)
    params = []
    for i, c in enumerate(constraints):
        if i in overdetermined:
            return MatchOutcome(NON_GENERAL)
        diff = [Fraction(c.offset[j]) - root[j] for j in range(n)]
        tp = _recover_param(u, c.basis, diff)
        if tp is None:
            return MatchOutcome(NON_GENERAL)
        params.append(tp)
    return MatchOutcome(UNIQUE, Solution(root, (), tuple(params)))


def verify_general(t, sol, constraints):
    """Independent check that a solution is strictly general.

    Returns (ok, problems) where problems lists every violated
    condition: marked points off their constraints, non-positive
    lengths, parameters at or beyond the ends of their edges.
    """
    problems = []
    for b, q in enumerate(sol.lengths):
        if q <= 0:
            problems.append("length of bounded edge %d is %s" % (b, q))
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        tp = sol.params[i]
        if not t.degenerate:
            if is_bounded(t, eid):
                if not 0 < tp < sol.lengths[eid]:
                    problems.append("marked point %d not interior" % i)
            elif tp <= 0:
                problems.append("marked point %d not interior" % i)
        pos = _point_on_edge(t, sol, i)
        diff = [pos[j] - Fraction(c.offset[j]) for j in range(len(pos))]
        if c.basis:
            a = [[b_[j] for b_ in c.basis] for j in range(len(pos))]
            res = solve_rational(a, diff)
            if res.status != "unique":
                problems.append("marked point %d off its constraint" % i)
        elif any(diff):
            problems.append("marked point %d off its constraint" % i)
    return (not problems, problems)


def generate_constraints(n, bases, seed, bound=1000, retry=0):
    """Sample integer offsets for the given constraint direction spans.

    Deterministic in (seed, retry): the stream is keyed by the string
    "seed:retry", so re-sampling after a non-general hit advances the
    stream without touching the caller's seed.
    """
    rng = random.Random("%s:%s" % (seed, retry))
    out = []
    for basis in bases:
        offset = tuple(rng.randint(-bound, bound) for _ in range(n))
        out.append(AffineConstraint(offset, tuple(tuple(v) for v in basis)))
    return out
