"""Multiplicity breakdowns against hand-computed and classical values."""

import itertools
import random
from dataclasses import replace

import pytest

from tropcount import curves, degrees, engine, matching, multiplicity
from tropcount.lattice import (bareiss_det, int_matrix_inverse,
                               quotient_map, smith_normal_form)

LINE_DIRECTIONS = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))


def test_plane_line_multiplicity_breakdown():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    rep = engine.count_invariant(prob)
    (curve,) = rep.per_degree[0].curves
    m = curve.multiplicity
    assert (m.weight, m.d_index, m.deltas, m.total) == (1, 1, (1, 1), 1)
    assert multiplicity.mikhalkin_multiplicity(curve.type) == 1


def test_weighted_end_doubles_the_count():
    # one trivalent vertex with a weight 2 end; the only matching
    # assignment through (0,0) and (5,1) puts the first point on it
    deg = curves.make_degree([((-1, 0), 2), ((1, 1), 1), ((1, -1), 1)])
    prob = engine.Problem(n=2, degrees=(deg,), constraint_bases=((), ()),
                          offsets=((0, 0), (5, 1)))
    rep = engine.count_invariant(prob)
    assert rep.total == 2
    (curve,) = rep.per_degree[0].curves
    m = curve.multiplicity
    assert curves.edge_weight(curve.type, curve.type.markings[0]) == 2
    assert (m.weight, m.d_index, m.total) == (1, 1, 2)
    assert sorted(m.deltas) == [1, 2]
    assert multiplicity.mikhalkin_multiplicity(curve.type) == 2


def test_weighted_bounded_edge():
    # two vertices joined by a weight 2 edge; marked on both diagonal
    # ends and on the bounded edge itself
    deg = curves.make_degree([((1, 1), 1), ((1, -1), 1),
                              ((-1, 1), 1), ((-1, -1), 1)])
    types = [t for t, _ in curves.unmarked_types(deg)]
    assert len(types) == 2
    for t in types:
        assert len(t.bounded) == 1 and t.bounded[0][2] == 2
    (t,) = [t for t in types if t.bounded[0][3][0] != 0]
    end_ids = {t.ends[i][2]: 1 + i for i in range(4)}
    marked = replace(t, markings=(end_ids[(1, 1)], end_ids[(-1, -1)], 0))
    cons = [matching.AffineConstraint((2, 2)),
            matching.AffineConstraint((-4, -1)),
            matching.AffineConstraint((-1, 0))]
    out = matching.match_constraints(marked, cons)
    assert out.status == matching.UNIQUE
    assert out.solution.lengths == (3,)
    m = multiplicity.total_multiplicity(marked, cons)
    assert (m.weight, m.d_index, m.total) == (2, 1, 4)
    assert sorted(m.deltas) == [1, 1, 2]
    assert multiplicity.mikhalkin_multiplicity(marked) == 4


def test_plane_conic_totals_match_vertex_determinants():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(2),),
                          constraint_bases=((),) * 5)
    rep = engine.count_invariant(prob, seed=0)
    assert rep.total == 1
    for curve in rep.per_degree[0].curves:
        assert curve.multiplicity.total == \
            multiplicity.mikhalkin_multiplicity(curve.type)


def degenerate_line(entries, marks):
    deg = curves.make_degree(entries)
    ((t, _),) = curves.unmarked_types(deg)
    assert t.degenerate
    return replace(t, markings=marks)


def test_degenerate_line_multiplicity():
    t = degenerate_line([((1, 0, 0), 1), ((-1, 0, 0), 1)], (0, 0))
    cons = [matching.AffineConstraint((0, 0, 0), ((0, 1, 0),)),
            matching.AffineConstraint((2, 3, 5), ((0, 0, 1),))]
    m = multiplicity.total_multiplicity(t, cons)
    assert (m.weight, m.d_index, m.deltas, m.total) == (1, 1, (1, 1), 1)


def test_degenerate_weighted_line_multiplicity():
    t = degenerate_line([((1, 0, 0), 2), ((-1, 0, 0), 2)], (0, 0))
    cons = [matching.AffineConstraint((0, 0, 0), ((0, 1, 0),)),
            matching.AffineConstraint((2, 3, 5), ((0, 0, 1),))]
    m = multiplicity.total_multiplicity(t, cons)
    assert (m.weight, m.d_index, m.deltas, m.total) == (1, 1, (2, 2), 4)


def test_delta_index_sees_the_saturation():
    # span{(1,1,0), (1,-1,0)} has index 2 in its saturation
    t = degenerate_line([((1, 1, 0), 1), ((-1, -1, 0), 1)], (0,))
    c = matching.AffineConstraint((0, 0, 0), ((1, -1, 0),))
    assert multiplicity.delta_index(t, 0, c) == 2


def test_delta_index_rejects_direction_in_span():
    t = degenerate_line([((1, 1, 0), 1), ((-1, -1, 0), 1)], (0,))
    c = matching.AffineConstraint((0, 0, 0), ((1, 1, 0),))
    with pytest.raises(ValueError):
        multiplicity.delta_index(t, 0, c)


def test_d_index_error_paths():
    t = degenerate_line([((1, 0, 0), 1), ((-1, 0, 0), 1)], (0,))
    with pytest.raises(ValueError):
        multiplicity.d_index(t, [matching.AffineConstraint((0, 0, 0))])
    ((line, _),) = curves.unmarked_types(degrees.plane_degree(1))
    line = replace(line, markings=(0,))
    with pytest.raises(ValueError):
        # one point row against two position columns
        multiplicity.d_index(line, [matching.AffineConstraint((0, 0))])


def test_mikhalkin_error_paths():
    t = degenerate_line([((1, 0, 0), 1), ((-1, 0, 0), 1)], ())
    with pytest.raises(ValueError):
        multiplicity.mikhalkin_multiplicity(t)
    deg = curves.make_degree([((1, 0), 1), ((-1, 0), 1)])
    ((flat, _),) = curves.unmarked_types(deg)
    with pytest.raises(ValueError):
        multiplicity.mikhalkin_multiplicity(flat)


def vertex_position_index(t, constraints):
    """Oracle for d_index: |det| of the map on one copy of Z^n per
    vertex, with for each bounded edge the difference of its endpoints
    in Z^n / Z(dir), and for each marking its base vertex in
    Z^n / saturation(Z(dir) + span(basis))."""
    n = t.n
    cols = n * t.vertices
    rows = []
    for tail, head, _, u in t.bounded:
        wq = quotient_map([u], n)
        for col in range(n - 1):
            row = [0] * cols
            for j in range(n):
                row[head * n + j] += wq[j][col]
                row[tail * n + j] -= wq[j][col]
            rows.append(row)
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        v = curves.edge_base_vertex(t, eid)
        wq = quotient_map([curves.edge_dir(t, eid), *c.basis], n)
        for col in range(len(wq[0])):
            row = [0] * cols
            for j in range(n):
                row[v * n + j] += wq[j][col]
            rows.append(row)
    if len(rows) != cols:
        raise ValueError("index map is not square")
    return abs(bareiss_det(rows))


def complement_line_index(t, constraints):
    """Oracle for a two-ended type's index: |det| of the incidence rows
    on a complement of the line's direction, taken from the Smith form
    of that direction."""
    n = t.n
    u = t.ends[0][2]
    _, _, right = smith_normal_form([list(u)])
    complement = int_matrix_inverse(right)[1:]
    rows = []
    for c in constraints:
        wq = quotient_map([u, *c.basis], n)
        for col in range(len(wq[0])):
            rows.append([sum(cv[j] * wq[j][col] for j in range(n))
                         for cv in complement])
    if len(rows) != n - 1:
        raise ValueError("index map is not square")
    return abs(bareiss_det(rows))


def sampled_markings(rng):
    """(type, constraints) pairs: random types of plane d <= 2,
    octahedron a <= 2 and flag3 (1,1), (1,2), (2,1), with random
    markings and random point and line conditions of the right total
    codimension."""
    families = [(2, (degrees.plane_degree(1), degrees.plane_degree(2)))]
    for kind, cls in [("octahedron", (1,)), ("octahedron", (2,)),
                      ("flag3", (1, 1)), ("flag3", (1, 2)),
                      ("flag3", (2, 1))]:
        families.append((3, engine._preset_degrees(kind, cls, None)))
    while True:
        n, degs = rng.choice(families)
        deg = rng.choice(degs)
        t, _ = rng.choice(curves.unmarked_types(deg))
        # a point has codimension n - 1, a line (rank 3 only) 1
        need = deg.e + n - 3
        points = need if n == 2 else rng.randint(0, need // 2)
        bases = [()] * points + [(rng.choice(LINE_DIRECTIONS),)
                                 for _ in range(need - points * (n - 1))]
        cons = [matching.AffineConstraint(
            tuple(rng.randint(-50, 50) for _ in range(n)), b)
            for b in bases]
        marks = tuple(rng.randrange(curves.edge_count(t)) for _ in cons)
        yield replace(t, markings=marks), cons


def test_index_from_incidence_rows_matches_oracles():
    """d_index and the two-ended index read off the incidence rows equal
    the vertex-position and Smith-complement indices they replaced."""
    rng = random.Random(20)
    seen = {"vertex": 0, "nonzero": 0, "line": 0, "dependent": 0}
    for t, cons in itertools.islice(sampled_markings(rng), 2800):
        if t.degenerate:
            seen["line"] += 1
            new = multiplicity._line_index(t, cons)
            try:
                old = complement_line_index(t, cons)
            except ValueError:
                # a marking parallel to its span adds a row, and n rows
                # that vanish on the direction are dependent
                seen["dependent"] += 1
                assert new == 0
                continue
        else:
            try:
                old = vertex_position_index(t, cons)
            except ValueError:
                with pytest.raises(ValueError):
                    multiplicity.d_index(t, cons)
                continue
            seen["vertex"] += 1
            seen["nonzero"] += old != 0
            new = multiplicity.d_index(t, cons)
        assert new == old, (t, cons)
    assert min(seen.values()) >= 10, seen
    assert seen["vertex"] + seen["line"] >= 2000, seen


def test_two_ended_lines_in_parallel_planes_match_nothing():
    # both line directions lie in the xy-plane with the line's own
    # direction, and the offsets sit in the planes z = 0 and z = 5
    t = degenerate_line([((1, 0, 0), 1), ((-1, 0, 0), 1)], (0, 0))
    cons = [matching.AffineConstraint((0, 0, 0), ((0, 1, 0),)),
            matching.AffineConstraint((3, 1, 5), ((1, 1, 0),))]
    assert matching.match_constraints(t, cons).status == matching.NONE
