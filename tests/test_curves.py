"""Combinatorial type enumeration and canonical form checks."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropcount import curves, degrees, toric
from tropcount.lattice import primitive


def labeled_trees(e):
    """All trivalent trees on e labeled leaves, by leaf insertion."""
    def rec(k, edges):
        if k == e:
            yield edges
            return
        m = e + k - 2
        for idx in range(len(edges)):
            a, b = edges[idx]
            rest = edges[:idx] + edges[idx + 1:]
            yield from rec(k + 1, rest + [(a, m), (m, b), (k, m)])
    yield from rec(3, [(0, e), (1, e), (2, e)])


def labeled_unmarked_types(deg):
    """Reference for unmarked_types: canonicalize every labeled tree."""
    found = {}
    for edges in labeled_trees(deg.e):
        item = curves._canonicalize(edges, deg.entries, deg.n)
        if item is None:
            continue
        key, comb, gens = item
        if key not in found:
            found[key] = (comb, gens)
    return tuple(found[k] for k in sorted(found))


def suite_degrees():
    """Every refined degree with 3 <= e <= 8 of the suite's classes."""
    sets = [degrees.class_degree_set(toric.GC3_FACETS, cls)
            for cls in ((1, 1), (1, 2), (2, 1), (1, 3))]
    sets += [degrees.class_degree_set(toric.OCTAHEDRON_FACETS, (a,))
             for a in (1, 2, 3)]
    degs = [degrees.plane_degree(d) for d in (1, 2)]
    for ds in sets:
        degs += degrees.degree_set_degrees(ds)
    found = {deg.entries: deg for deg in degs}
    return [found[k] for k in sorted(found) if 3 <= found[k].e <= 8]


def double_factorial_tree_count(e):
    out = 1
    for k in range(2 * e - 5, 0, -2):
        out *= k
    return out


def test_make_degree_sorts():
    d = curves.make_degree([((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
    assert d.entries == (((-1, 0), 1), ((0, -1), 1), ((1, 1), 1))
    assert d.n == 2 and d.e == 3


def test_make_degree_validation():
    with pytest.raises(ValueError):
        curves.make_degree([])
    with pytest.raises(ValueError):
        curves.make_degree([((1, 0), 1)])  # single end
    with pytest.raises(ValueError):
        curves.make_degree([((2, 0), 1), ((-2, 0), 1)])  # not primitive
    with pytest.raises(ValueError):
        curves.make_degree([((1, 0), 0), ((-1, 0), 0)])  # zero weight
    with pytest.raises(ValueError):
        curves.make_degree([((1, 0), 1), ((0, 1), 1)])  # unbalanced
    with pytest.raises(ValueError):
        curves.make_degree([((1, 0), 1), ((-1, 0, 0), 1)])  # mixed ranks


def test_labeled_tree_counts():
    for e in (3, 4, 5, 6):
        assert len(list(labeled_trees(e))) == double_factorial_tree_count(e)


def test_unmarked_types_match_labeled_oracle():
    degs = suite_degrees()
    assert len(degs) == 142 and max(d.e for d in degs) == 8
    for deg in degs:
        assert curves.unmarked_types(deg) == labeled_unmarked_types(deg), \
            deg.entries


@pytest.mark.long
def test_unmarked_types_match_labeled_oracle_plane_degree_three():
    deg = degrees.plane_degree(3)
    types = curves.unmarked_types(deg)
    assert len(types) == 791
    assert types == labeled_unmarked_types(deg)


DIRECTIONS = {
    2: ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 1),
        (1, 1, 1)),
}


@st.composite
def balanced_degrees(draw):
    """Balanced degrees drawn from few directions and weights, so entries
    repeat, with u/-u pairs whose sub-multisets sum to zero."""
    n = draw(st.sampled_from(sorted(DIRECTIONS)))
    entry = st.tuples(st.sampled_from(DIRECTIONS[n]), st.integers(1, 2))
    entries = draw(st.lists(entry, min_size=1, max_size=3))
    for u, w in draw(st.lists(entry, max_size=2)):
        entries += [(u, w), (tuple(-x for x in u), w)]
    total = [-sum(w * u[i] for u, w in entries) for i in range(n)]
    if any(total):
        entries.append(primitive(total))
    return curves.make_degree(entries)


@settings(max_examples=40, deadline=None)
@given(deg=balanced_degrees())
def test_unmarked_types_match_labeled_oracle_random(deg):
    assume(3 <= deg.e <= 7)
    assert curves.unmarked_types(deg) == labeled_unmarked_types(deg)


def test_unmarked_types_structure():
    deg = degrees.plane_degree(2)
    seen = set()
    for t, gens in curves.unmarked_types(deg):
        assert curves.validate_type(t)
        assert t.vertices == deg.e - 2
        assert len(t.bounded) == deg.e - 3
        assert sorted((u, w) for _, w, u in t.ends) == list(deg.entries)
        assert t not in seen
        seen.add(t)
        for g in gens:
            for eid in range(curves.edge_count(t)):
                assert curves.edge_weight(t, g[eid]) == curves.edge_weight(t, eid)
                assert curves.edge_dir(t, g[eid]) == curves.edge_dir(t, eid)


def test_degenerate_type():
    deg = curves.make_degree([((1, 0, 0), 2), ((-1, 0, 0), 2)])
    ((t, gens),) = curves.unmarked_types(deg)
    assert t.degenerate and t.vertices == 0 and gens == ()
    assert curves.edge_count(t) == 1
    assert curves.check_balanced(t)
    assert curves.validate_type(t)


def test_enumerate_types_markings():
    deg = curves.make_degree([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1),
                              ((0, -1), 1)])
    marked = curves.enumerate_types(deg, 2)
    assert marked
    seen = set()
    for t in marked:
        assert len(t.markings) == 2
        gens = curves.automorphisms(t)
        assert t.markings == curves.orbit_min(t.markings, gens)
        assert t not in seen
        seen.add(t)
    # orbit dedup never yields more than the raw assignment count
    shapes = curves.unmarked_types(deg)
    raw = sum(curves.edge_count(t) ** 2 for t, _ in shapes)
    assert len(marked) <= raw


def test_path_signs_relation():
    deg = degrees.plane_degree(2)
    for t, _ in curves.unmarked_types(deg):
        sign = curves.path_signs(t)
        for i, (tail, head, _, _) in enumerate(t.bounded):
            diff = [a - b for a, b in zip(sign[head], sign[tail])]
            expect = [0] * len(t.bounded)
            expect[i] = 1
            assert diff == expect


def test_check_balanced_detects_violation():
    deg = degrees.plane_degree(1)
    ((t, _),) = curves.unmarked_types(deg)
    assert curves.check_balanced(t)
    bad = curves.CombType(n=2, vertices=1, bounded=(),
                          ends=((0, 2, t.ends[0][2]), t.ends[1], t.ends[2]))
    assert not curves.check_balanced(bad)


def test_validate_type_rejects_nontrivalent():
    with pytest.raises(ValueError):
        curves.validate_type(curves.CombType(
            n=2, vertices=1, bounded=(),
            ends=((0, 1, (1, 0)), (0, 1, (-1, 0)))))


def test_orbit_min_is_canonical():
    gens = ((1, 0, 2, 3), (0, 1, 3, 2))
    for assign in itertools.product(range(4), repeat=2):
        rep = curves.orbit_min(assign, gens)
        assert rep <= tuple(assign)
        assert curves.orbit_min(rep, gens) == rep
    assert curves.orbit_min((1, 3), gens) == (0, 2)
    assert curves.orbit_min((2, 2), ()) == (2, 2)


def test_automorphisms_match_enumeration():
    deg = curves.make_degree([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1),
                              ((0, -1), 1)])
    for t, gens in curves.unmarked_types(deg):
        assert curves.automorphisms(t) == tuple(gens)
