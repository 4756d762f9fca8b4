"""Matching a combinatorial type against affine incidence constraints.

The unknowns of a type are the position of vertex 0 and one length per
bounded edge, lengths measured in units of the primitive edge direction;
a two-ended type has only a point of its line.  Each marked point
contributes the condition that its edge meets an affine subspace;
projecting along the edge direction and the subspace span turns that
into integer rows, built in one place, edge_rows, together with the row
that reads the point's parameter along its edge.  The search inputs of
the engine, match_constraints (which solves the rows exactly over Q)
and multiplicity (which reads their lattice index) all take their rows
from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .curves import edge_base_vertex, edge_dir, is_bounded, path_signs
from .lattice import quotient_map, saturation_index, solve_rational

NONE = "none"
UNIQUE = "unique"
NON_GENERAL = "non-general"


def check_basis(n, basis):
    """Raise ValueError unless basis is an independent, saturated set of
    length-n vectors whose span leaves a condition on a curve in R^n."""
    for v in basis:
        if len(v) != n:
            raise ValueError("constraint basis rank mismatch")
    index = saturation_index(basis)
    if index == 0:
        raise ValueError("constraint basis must be independent")
    if index != 1:
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


_edge_quotients = {}


def _edge_quotient(u, basis):
    """(cols, param) of an edge direction u against a constraint basis,
    memoized on (u, basis), which holds no offsets: cols are the columns
    of quotient_map([u, *basis]), param is (u . col, col) for the first
    column col of quotient_map(basis) that u meets, or None when u lies
    in the span.  A miss calls quotient_map by this module's name, so a
    wrapper on that name (perfbench's tracer) sees only the lattice work.
    The columns of quotient_map(basis) are memoized under (n, basis).
    """
    out = _edge_quotients.get((u, basis))
    if out is None:
        n = len(u)
        cols = tuple(zip(*quotient_map([u, *basis], n)))
        param = None
        if len(cols) < n - len(basis):
            own = _edge_quotients.get((n, basis))
            if own is None:
                own = _edge_quotients[(n, basis)] = tuple(
                    zip(*quotient_map(basis, n)))
            for col in own:
                uj = sum(map(mul, u, col))
                if uj:
                    param = (uj, col)
                    break
        out = _edge_quotients[(u, basis)] = (cols, param)
    return out


def edge_rows(t, sign, eid, basis):
    """(rows, param) of edge eid of type t against a constraint basis,
    sign = path_signs(t): one row per quotient column of [u, *basis], u
    the edge's direction, over the root and the bounded lengths of the
    edge's base point.  A row starts with its column, so its right-hand
    side is offset . row.  param = (uj, hrow) gives the parameter along
    the edge as (offset . hrow - hrow . x) / uj, x the root and lengths;
    it is None when u lies in the span, which adds one row.
    """
    n = t.n
    cols, param = _edge_quotient(edge_dir(t, eid), basis)
    path = () if t.degenerate else [
        (n + b, s, t.bounded[b][3])
        for b, s in enumerate(sign[edge_base_vertex(t, eid)]) if s]
    pad = [0] * len(t.bounded)

    def row(col):
        out = list(col) + pad
        for i, s, ub in path:
            out[i] = s * sum(map(mul, ub, col))
        return tuple(out)

    if param is not None:
        param = (param[0], row(param[1]))
    return tuple([row(col) for col in cols]), param


def incidence_rows(t, constraints):
    """The incidence system of a marked type: (rows, rhs, params).

    The unknowns are the root and the bounded lengths (the root alone
    for a two-ended type, whose rows all vanish on its direction).
    Marking i gives the edge_rows of its edge against its constraint's
    basis, with right-hand sides from its offset, and params[i] is the
    param of that edge (None when the edge is parallel to the span).
    """
    sign = path_signs(t)
    rows, rhs, params = [], [], []
    for i, c in enumerate(constraints):
        r, param = edge_rows(t, sign, t.markings[i], c.basis)
        rows += r
        rhs += [sum(map(mul, c.offset, row)) for row in r]
        params.append(param)
    return rows, rhs, params


def match_constraints(t, constraints):
    """Solve the incidence system of a type against the constraints.

    Returns a MatchOutcome: "unique" with a Solution when the system has
    exactly one answer lying strictly inside the type's cell, "none"
    when no curve of this type meets the constraints, and "non-general"
    when the configuration is degenerate for this type (a positive
    dimensional family, or a solution on the cell boundary) and the
    constraints should be re-sampled.  A two-ended type is a line with
    no vertex, so its solution is unique up to translation along the
    line, and its parameters have no sign to check.
    """
    if len(constraints) != len(t.markings):
        raise ValueError("one constraint per marking is required")
    n = t.n
    e = len(t.ends)
    total = sum(c.codim for c in constraints)
    if total != e + n - 3:
        raise ValueError("constraint codimensions do not sum to e+n-3")

    rows, rhs, params = incidence_rows(t, constraints)
    res = solve_rational(rows, rhs)
    if res.status == "infeasible":
        return MatchOutcome(NONE)
    # the rows of a two-ended type always vanish on its direction
    if len(res.kernel) != (1 if t.degenerate else 0):
        return MatchOutcome(NON_GENERAL)

    x = res.particular
    lengths = tuple(x[n:])
    boundary = False
    for q in lengths:
        if q == 0:
            boundary = True
        elif q < 0:
            return MatchOutcome(NONE)

    tps = []
    for i, (c, param) in enumerate(zip(constraints, params)):
        if param is None:
            # the edge direction lies in the constraint span, so the
            # parameter is undetermined whenever the system is solvable
            return MatchOutcome(NON_GENERAL)
        uj, hrow = param
        tp = (sum(map(mul, c.offset, hrow)) - sum(map(mul, hrow, x))) / uj
        eid = t.markings[i]
        if is_bounded(t, eid):
            top = lengths[eid]
            if tp == 0 or tp == top:
                boundary = True
            elif tp < 0 or tp > top:
                return MatchOutcome(NONE)
        elif not t.degenerate:
            if tp == 0:
                boundary = True
            elif tp < 0:
                return MatchOutcome(NONE)
        tps.append(tp)

    if boundary:
        return MatchOutcome(NON_GENERAL)
    return MatchOutcome(UNIQUE, Solution(tuple(x[:n]), lengths, tuple(tps)))


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


def generate_constraints(n, bases, seed, bound, retry=0):
    """Sample integer offsets in [-bound, bound]^n for the given
    constraint direction spans (Problem.bound holds the default bound).

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
