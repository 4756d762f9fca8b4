"""Coarse degrees, class sets from facet tables, refinement."""

import itertools
import json
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from tropcount import curves, degrees, engine, toric
from tropcount.lattice import primitive, rank_int


def coarse_of(deg):
    """Collapse a degree to its coarse degree: total weight per direction."""
    totals = Counter()
    for u, w in deg.entries:
        totals[u] += w
    return degrees.make_coarse(deg.n, totals.items())


def test_make_coarse_sorts_and_drops_zeros():
    cd = degrees.make_coarse(2, [((1, 1), 2), ((-1, 0), 0), ((0, -1), 2),
                                 ((-1, -1), 0), ((-1, 0), 2)])
    assert cd.values == (((-1, 0), 2), ((0, -1), 2), ((1, 1), 2))
    assert cd.mass == 6


def test_coarse_validation():
    with pytest.raises(ValueError):
        degrees.make_coarse(2, [((1, 0), 1)])  # unbalanced
    with pytest.raises(ValueError):
        degrees.make_coarse(2, [((2, 0), 1), ((-2, 0), 1)])  # not primitive
    with pytest.raises(ValueError):
        degrees.make_coarse(2, [((1, 0), 1), ((-1, 0), -1)])  # negative
    with pytest.raises(ValueError):
        degrees.make_coarse(2, [((1, 0), 1), ((1, 0), 1), ((-1, 0), 2)])
    with pytest.raises(ValueError):
        # unsorted values rejected by the raw constructor
        degrees.CoarseDegree(2, (((1, 0), 1), ((-1, 0), 1)))


def test_degree_set_validation():
    a = degrees.make_coarse(2, [((1, 0), 1), ((-1, 0), 1)])
    b = degrees.make_coarse(2, [((0, 1), 1), ((0, -1), 1)])
    ds = degrees.make_degree_set([b, a, a])
    assert ds.coarse_degrees == tuple(sorted((a, b), key=lambda c: c.values))
    with pytest.raises(ValueError):
        degrees.DegreeSet((a, a))


def test_coarse_of_totals():
    deg = curves.make_degree([((1, 0), 2), ((1, 0), 1), ((-1, 0), 3)])
    cd = coarse_of(deg)
    assert cd.values == (((-1, 0), 3), ((1, 0), 3))


def test_refine_coarse_partitions():
    cd = degrees.make_coarse(2, [((1, 0), 2), ((-1, 0), 2)])
    refs = degrees.refine_coarse(cd)
    # each side splits as 2 or 1+1
    assert len(refs) == 4
    assert all(coarse_of(d) == cd for d in refs)
    capped = degrees.refine_coarse(cd, max_weight=1)
    assert len(capped) == 1
    assert capped[0].entries == (((-1, 0), 1), ((-1, 0), 1),
                                 ((1, 0), 1), ((1, 0), 1))


def test_refine_count_is_product_of_partition_counts():
    # partitions: p(3) = 3, p(2) = 2
    cd = degrees.make_coarse(2, [((1, 1), 3), ((-1, -1), 3), ((1, 0), 2),
                                 ((-1, 0), 2)])
    refs = degrees.refine_coarse(cd)
    assert len(refs) == 3 * 3 * 2 * 2


def test_plane_degree():
    deg = degrees.plane_degree(3)
    assert deg.e == 9
    assert coarse_of(deg).values == (((-1, 0), 3), ((0, -1), 3),
                                             ((1, 1), 3))
    with pytest.raises(ValueError):
        degrees.plane_degree(0)


FLAG3 = degrees.FACET_TABLES["flag3"]
OCTAHEDRON = degrees.FACET_TABLES["octahedron"]

# The closed form, the compositions and the offset rule that the flag3
# and octahedron degree sets were once written with, kept as oracles for
# the sets read off the facet tables.
FLAG3_RAYS = ((-1, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, -1), (0, -1, 0),
              (0, -1, 1))
OCTAHEDRON_PAIRS = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))
OCTAHEDRON_RAYS = tuple(r for u in OCTAHEDRON_PAIRS
                        for r in (u, tuple(-c for c in u)))


def flag3_closed_form(s, t):
    """Rays carry totals s, t, s - k, k, t - k, k for k = 0..min(s, t)."""
    r = FLAG3_RAYS
    return degrees.make_degree_set([
        degrees.make_coarse(3, [(r[0], s), (r[1], t), (r[2], s - k),
                                (r[3], k), (r[4], t - k), (r[5], k)])
        for k in range(min(s, t) + 1)])


def octahedron_compositions(a):
    """Each composition a1 + a2 + a3 + a4 = a on the four opposite-direction
    ray pairs."""
    members = []
    for parts in itertools.product(range(a + 1), repeat=4):
        if sum(parts) == a:
            members.append(degrees.make_coarse(3, [
                (r, ai) for ai, u in zip(parts, OCTAHEDRON_PAIRS)
                for r in (u, tuple(-c for c in u))]))
    return degrees.make_degree_set(members)


def capped_counts(k, cap):
    """Every k-tuple of nonnegative integers with sum at most cap."""
    if k == 0:
        yield ()
        return
    for c in range(cap + 1):
        for rest in capped_counts(k - 1, cap - c):
            yield (c,) + rest


def octahedron_offset_rule(a):
    """Balanced totals of mass at most 2a on the octahedron rays, with
    total a on the rays that have a negative coordinate."""
    offset = [1 if any(c < 0 for c in r) else 0 for r in OCTAHEDRON_RAYS]
    members = []
    for counts in capped_counts(len(OCTAHEDRON_RAYS), 2 * a):
        if sum(map(mul, offset, counts)) != a:
            continue
        if any(sum(map(mul, counts, col)) for col in zip(*OCTAHEDRON_RAYS)):
            continue
        members.append(degrees.make_coarse(3, zip(OCTAHEDRON_RAYS, counts)))
    return degrees.make_degree_set(members)


def flag3_set(s, t):
    return degrees.class_degree_set(FLAG3, (s, t))


def octahedron_set(a):
    return degrees.class_degree_set(OCTAHEDRON, (a,))


def test_flag3_sets_match_closed_form():
    for s, t in itertools.product(range(4), repeat=2):
        if (s, t) != (0, 0):
            assert flag3_set(s, t) == flag3_closed_form(s, t)


def test_preset_flag3_members():
    ds = flag3_set(1, 2)
    assert len(ds.coarse_degrees) == 2
    k1 = degrees.make_coarse(3, [((-1, 0, 0), 1), ((0, 1, 0), 2),
                                 ((1, 0, -1), 1), ((0, -1, 0), 1),
                                 ((0, -1, 1), 1)])
    assert k1 in ds.coarse_degrees
    assert len(flag3_set(2, 3).coarse_degrees) == 3
    assert len(flag3_set(1, 0).coarse_degrees) == 1


def test_preset_octahedron_compositions():
    assert len(octahedron_compositions(1).coarse_degrees) == 4
    assert len(octahedron_compositions(2).coarse_degrees) == 10
    for a in range(1, 5):
        assert set(octahedron_compositions(a).coarse_degrees) \
            <= set(octahedron_set(a).coarse_degrees)


def test_octahedron_sets_match_offset_rule():
    for a in range(1, 5):
        assert octahedron_set(a) == octahedron_offset_rule(a)


def test_octahedron_class_set_sizes():
    for a, size in ((1, 4), (2, 12), (3, 28), (4, 57)):
        ds = octahedron_set(a)
        assert len(ds.coarse_degrees) == size
        assert all(cd.mass == 2 * a for cd in ds.coarse_degrees)


def test_octahedron_class_set_extras_at_two():
    ds = set(octahedron_set(2).coarse_degrees)
    extras = ds - set(octahedron_compositions(2).coarse_degrees)
    want = {
        degrees.make_coarse(3, [((-1, 0, -1), 1), ((0, -1, 0), 1),
                                ((0, 1, 1), 1), ((1, 0, 0), 1)]),
        degrees.make_coarse(3, [((-1, 0, 0), 1), ((0, -1, -1), 1),
                                ((0, 1, 0), 1), ((1, 0, 1), 1)]),
    }
    assert extras == want
    # the extra members span all of Q^3, unlike the compositions
    for cd in extras:
        assert rank_int([v for v, _ in cd.values]) == 3


@pytest.mark.parametrize("kind", sorted(degrees.FACET_TABLES))
def test_table_rays_are_the_negated_normal_fan(kind):
    facets = degrees.FACET_TABLES[kind]
    outward = sorted(tuple(-x for x in a) for a, _ in facets)
    fan = toric.normal_fan(toric.table_polytope(facets, 1))
    assert outward == sorted(tuple(-x for x in r) for r in fan.rays)


def test_end_counts():
    for s, t in itertools.product(range(4), repeat=2):
        if (s, t) != (0, 0):
            assert degrees.end_count(FLAG3, (s, t)) == 2 * s + 2 * t
    for a in range(1, 5):
        assert degrees.end_count(OCTAHEDRON, (a,)) == 2 * a


@pytest.mark.parametrize("facets, cls", [
    (FLAG3, (-1, 0)),
    (FLAG3, (0, 0)),
    (FLAG3, (1,)),
    (FLAG3, (1, 1, 1)),
    (FLAG3, (1.0, 1)),
    (FLAG3, (True, 0)),
    (OCTAHEDRON, (0,)),
    (OCTAHEDRON, (-2,)),
])
def test_bad_class_is_rejected(facets, cls):
    with pytest.raises(ValueError, match="class must be"):
        degrees.class_degree_set(facets, cls)


def test_table_without_unique_anticanonical_solution_is_rejected():
    # two parameters that enter every facet alike
    doubled = tuple((a, coef * 2) for a, coef in OCTAHEDRON)
    with pytest.raises(ValueError, match="facet table"):
        degrees.end_count(doubled, (1, 1))


def test_enumerate_coarse_degrees_mass_constraint():
    # two ends balance only as one antipodal pair
    ds = degrees.enumerate_coarse_degrees(OCTAHEDRON_RAYS, [], 2)
    assert ds == octahedron_set(1)
    assert degrees.enumerate_coarse_degrees(OCTAHEDRON_RAYS, [], 3) \
        == degrees.make_degree_set([])
    with pytest.raises(ValueError):
        degrees.enumerate_coarse_degrees(((1, 0), (1, 0), (-1, 0)), [], 1)
    with pytest.raises(ValueError):
        degrees.enumerate_coarse_degrees(((2, 0), (-2, 0)), [], 1)


def test_degree_set_degrees_dedup():
    degs = degrees.degree_set_degrees(octahedron_compositions(1))
    assert len(degs) == 4
    assert all(d.e == 2 for d in degs)
    a2 = degrees.degree_set_degrees(octahedron_compositions(2))
    a2_light = degrees.degree_set_degrees(octahedron_compositions(2),
                                          max_weight=1)
    assert set(a2_light) < set(a2)


def coarse_problem(source):
    """problem_from_json of a rank-3 problem with this degree_source,
    after a trip through JSON text."""
    return engine.problem_from_json(json.loads(json.dumps({
        "rank": 3, "degree_source": source,
        "constraints": {"kind": "generate", "bases": [[]]}})))


def coarse_source(ds):
    """The coarse degree_source of a degree set."""
    return {"kind": "coarse",
            "coarse_degrees": [[{"ray": list(v), "count": c}
                                for v, c in cd.values]
                               for cd in ds.coarse_degrees]}


def test_coarse_json_round_trip():
    ds = degrees.make_degree_set([
        degrees.make_coarse(3, [((1, 0, 1), 2), ((-1, 0, -1), 2)])])
    assert coarse_problem(coarse_source(ds)).degrees == \
        degrees.degree_set_degrees(ds)
    with pytest.raises(ValueError, match=r"coarse_degrees\[0\] is empty"):
        coarse_problem({"kind": "coarse", "coarse_degrees": [[]]})


def test_degree_set_json_round_trip():
    ds = flag3_set(2, 1)
    assert coarse_problem(coarse_source(ds)).degrees == \
        degrees.degree_set_degrees(ds)


@st.composite
def balanced_coarse(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    dirs = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n).filter(any),
        min_size=k, max_size=k, unique=True))
    entries = {}
    for v in dirs:
        u = primitive(v)[0]
        w = draw(st.integers(1, 2))
        entries[u] = entries.get(u, 0) + w
        nu = tuple(-c for c in u)
        entries[nu] = entries.get(nu, 0) + w
    return degrees.make_coarse(n, entries.items())


@given(balanced_coarse())
@settings(max_examples=40, deadline=None)
def test_refine_inverts_coarse_of(cd):
    refs = degrees.refine_coarse(cd)
    assert refs
    for deg in refs:
        assert coarse_of(deg) == cd
    assert len(set(refs)) == len(refs)
