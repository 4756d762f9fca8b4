"""Incidence matching: statuses, exact positions, genericity checks."""

from dataclasses import replace
from fractions import Fraction

import pytest

from tropcount import curves, degrees, engine, lattice, matching


def line_type():
    ((t, _),) = curves.unmarked_types(degrees.plane_degree(1))
    return t


def test_plane_line_through_two_points():
    # ends (-1,0), (0,-1), (1,1); through (0,0) and (5,7) the vertex
    # sits at (0,2) with the first point on the downward ray
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    rep = engine.count_invariant(prob)
    assert rep.total == 1
    (curve,) = rep.per_degree[0].curves
    assert curve.solution.root == (Fraction(0), Fraction(2))
    assert sorted(curve.solution.params) == [Fraction(2), Fraction(5)]


def test_match_statuses_partition():
    t = line_type()
    cons = [matching.AffineConstraint((0, 0)),
            matching.AffineConstraint((5, 7))]
    statuses = []
    for m0 in range(3):
        for m1 in range(3):
            out = matching.match_constraints(
                replace(t, markings=(m0, m1)), cons)
            statuses.append(out.status)
            if out.status == matching.UNIQUE:
                ok, problems = matching.verify_general(
                    replace(t, markings=(m0, m1)), out.solution, cons)
                assert ok, problems
    assert statuses.count(matching.UNIQUE) == 1
    assert matching.NON_GENERAL not in statuses


def test_point_at_vertex_is_non_general():
    t = line_type()
    cons = [matching.AffineConstraint((0, 0)),
            matching.AffineConstraint((5, 5))]
    seen = set()
    for m0 in range(3):
        for m1 in range(3):
            out = matching.match_constraints(
                replace(t, markings=(m0, m1)), cons)
            seen.add(out.status)
    assert matching.NON_GENERAL in seen


def test_explicit_degenerate_offsets_raise():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 5)))
    with pytest.raises(RuntimeError):
        engine.count_invariant(prob)


def test_affine_constraint_validation():
    c = matching.AffineConstraint((1, 2, 3), ((1, 0, 0),))
    assert c.n == 3 and c.codim == 1
    assert matching.AffineConstraint((1, 2)).codim == 1
    with pytest.raises(ValueError):
        matching.AffineConstraint((0, 0, 0), ((2, 0, 0),))  # not saturated
    with pytest.raises(ValueError):
        matching.AffineConstraint((0, 0, 0), ((1, 0, 0), (2, 0, 0)))
    with pytest.raises(ValueError):
        matching.AffineConstraint((0, 0), ((1, 0),))  # codim 0 in rank 2
    with pytest.raises(ValueError):
        matching.AffineConstraint((0, 0, 0), ((1, 0),))  # rank mismatch


def test_check_basis_names_each_fault():
    matching.check_basis(3, ((1, 0, 0),))
    matching.check_basis(4, ((1, 1, 0, 0), (1, -1, 1, 0)))
    for n, basis, fault in [(3, ((2, 0, 0),), "saturated"),
                            (4, ((1, 1, 0, 0), (1, -1, 0, 0)), "saturated"),
                            (3, ((1, 0, 0), (2, 0, 0)), "independent"),
                            (3, ((1, 0),), "rank mismatch"),
                            (3, ((1, 0, 0), (0, 1, 0)), "no condition")]:
        with pytest.raises(ValueError, match=fault):
            matching.check_basis(n, basis)


def test_match_requires_one_constraint_per_marking():
    t = replace(line_type(), markings=(0,))
    with pytest.raises(ValueError):
        matching.match_constraints(t, [])


def test_match_checks_codim_sum():
    t = replace(line_type(), markings=(0, 1))
    cons = [matching.AffineConstraint((0, 0, 0)),
            matching.AffineConstraint((1, 1, 1))]
    with pytest.raises(ValueError):
        # rank-3 point constraints against a plane curve type
        matching.match_constraints(t, cons)


def test_degenerate_line_matching():
    deg = curves.make_degree([((1, 0, 0), 1), ((-1, 0, 0), 1)])
    ((t, _),) = curves.unmarked_types(deg)
    t = replace(t, markings=(0, 0))
    cons = [matching.AffineConstraint((0, 0, 0), ((0, 1, 0),)),
            matching.AffineConstraint((2, 3, 5), ((0, 0, 1),))]
    out = matching.match_constraints(t, cons)
    assert out.status == matching.UNIQUE
    # the first constraint pins z = 0, the second y = 3, so the curve
    # is the line x -> (x, 3, 0) and the root lies on it
    assert out.solution.root[1] == 3 and out.solution.root[2] == 0
    assert out.solution.lengths == ()


def test_degenerate_overdetermined_is_non_general():
    deg = curves.make_degree([((1, 0, 0), 1), ((-1, 0, 0), 1)])
    ((t, _),) = curves.unmarked_types(deg)
    t = replace(t, markings=(0, 0))
    cons = [matching.AffineConstraint((0, 0, 0), ((1, 0, 0),)),
            matching.AffineConstraint((2, 3, 5), ((0, 0, 1),))]
    out = matching.match_constraints(t, cons)
    assert out.status in (matching.NON_GENERAL, matching.NONE)


def test_verify_general_flags_problems():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    rep = engine.count_invariant(prob)
    (curve,) = rep.per_degree[0].curves
    cons = [matching.AffineConstraint((0, 0)),
            matching.AffineConstraint((5, 7))]
    ok, problems = matching.verify_general(curve.type, curve.solution, cons)
    assert ok and not problems
    bad = matching.Solution(
        root=(curve.solution.root[0] + 1, curve.solution.root[1]),
        lengths=curve.solution.lengths, params=curve.solution.params)
    ok, problems = matching.verify_general(curve.type, bad, cons)
    assert not ok
    assert any("off its constraint" in p for p in problems)


def test_generate_constraints_deterministic():
    bases = ((), ((1, 0, 0),))
    a = matching.generate_constraints(3, bases, seed=7, bound=50, retry=0)
    b = matching.generate_constraints(3, bases, seed=7, bound=50, retry=0)
    c = matching.generate_constraints(3, bases, seed=7, bound=50, retry=1)
    assert [x.offset for x in a] == [x.offset for x in b]
    assert [x.offset for x in a] != [x.offset for x in c]
    for con in a:
        assert all(-50 <= v <= 50 for v in con.offset)
    assert a[0].basis == () and a[1].basis == ((1, 0, 0),)


def test_edge_rows_computes_each_pair_once(monkeypatch):
    # the memo lives for the process: rank 6 keeps these keys apart from
    # every other test's
    calls = []

    def counted(vectors, n):
        calls.append(tuple(vectors))
        return lattice.quotient_map(vectors, n)

    monkeypatch.setattr(matching, "quotient_map", counted)
    u = ((0, 2, 1, 0, 0, 3), (1, 0, 0, 0, 5, 0), (0, 0, 0, 1, 0, 0))
    deg = curves.make_degree([(v, 1) for v in u]
                             + [(tuple(-sum(c) for c in zip(*u)), 1)])
    types = [t for t, _ in curves.unmarked_types(deg)]
    bases = [(), (u[0],)]
    edges = [(t, eid, basis) for t in types
             for eid in range(curves.edge_count(t)) for basis in bases]
    pairs = {(curves.edge_dir(t, eid), basis) for t, eid, basis in edges}

    def all_rows():
        return [matching.edge_rows(t, curves.path_signs(t), eid, basis)
                for t, eid, basis in edges]

    # a miss maps [u, *basis], and each basis alone once for the parameter
    first = all_rows()
    made = len(calls)
    assert {(v, *basis) for v, basis in pairs} <= set(calls)
    assert made <= len(pairs) + len(bases)
    assert all_rows() == first and len(calls) == made
    for (t, eid, basis), (rows, param) in zip(edges, first):
        v = curves.edge_dir(t, eid)
        assert isinstance(rows, tuple)
        assert all(isinstance(row, tuple) for row in rows)
        w = lattice.quotient_map([v, *basis], 6)
        assert [row[:6] for row in rows] == list(zip(*w))
        assert all(len(row) == 6 + len(t.bounded) for row in rows)
        assert (param is None) == (v in basis)
