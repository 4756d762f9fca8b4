"""Polytopes, normal fans and unimodular refinement certificates."""

import json
from fractions import Fraction

import pytest

from tropcount import degrees, toric
from tropcount.lattice import bareiss_det


def table_polytope(kind, lam):
    return toric.table_polytope(degrees.FACET_TABLES[kind], lam)


def table_fan(kind, lam=1):
    """The normal fan of a registered facet table's polytope."""
    return toric.normal_fan(table_polytope(kind, lam))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def square():
    return toric.make_polytope([((1, 0), 0), ((-1, 0), 1),
                                ((0, 1), 0), ((0, -1), 1)])


def split_square_cones(fan, pick_first=True):
    """Certificate splitting each four-ray cone along a diagonal."""
    cones = []
    for cone in fan.cones:
        if len(cone) == 3:
            cones.append(cone)
            continue
        a, b, c, d = cone
        r = fan.rays
        pairings = []
        if vec_add(r[a], r[b]) == vec_add(r[c], r[d]):
            pairings.append(((a, b), (c, d)))
        if vec_add(r[a], r[c]) == vec_add(r[b], r[d]):
            pairings.append(((a, c), (b, d)))
        if vec_add(r[a], r[d]) == vec_add(r[b], r[c]):
            pairings.append(((a, d), (b, c)))
        assert pairings, "four-ray cone with no square relation"
        split = None
        for diag, other in pairings if pick_first else \
                [p[::-1] for p in pairings]:
            tris = [tuple(sorted(diag + (other[0],))),
                    tuple(sorted(diag + (other[1],)))]
            if all(abs(bareiss_det([list(r[i]) for i in tri])) == 1
                   for tri in tris):
                split = tris
                break
        assert split, "no unimodular diagonal split"
        cones.extend(split)
    return toric.make_certificate(cones)


def test_linprog_max():
    status, val, x = toric.linprog_max(
        [1, 1], [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 2, 0, 0])
    assert status == "optimal" and val == 3 and x == [1, 2]
    status, val, x = toric.linprog_max([1], [], [])
    assert status != "optimal" and val is None
    status, val, x = toric.linprog_max([1], [[1], [-1]], [-2, 1])
    assert status != "optimal" and val is None


def test_in_cone():
    quarter = ((1, 0), (0, 1))
    assert toric.in_cone(quarter, (2, 3))
    assert toric.in_cone(quarter, (0, 0))
    assert not toric.in_cone(quarter, (-1, 0))
    assert toric.in_cone((), (0, 0)) and not toric.in_cone((), (1,))
    assert toric.in_cone(((1, 0), (-1, 0), (0, 1)), (-5, 2))


def test_positive_functional():
    f = toric.positive_functional(((1, 0), (0, 1), (1, 1)))
    assert f is not None
    for r in ((1, 0), (0, 1), (1, 1)):
        assert sum(fi * ri for fi, ri in zip(f, r)) >= 1
    assert toric.positive_functional(((1, 0), (-1, 0))) is None


def test_square_polytope():
    p = square()
    assert p.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert p.facet_indices == (0, 1, 2, 3)
    assert p.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not p.contains((2, 0))


def test_redundant_inequality_is_not_a_facet():
    p = toric.make_polytope([((1, 0), 0), ((-1, 0), 1), ((0, 1), 0),
                             ((0, -1), 1), ((1, 1), 5)])
    assert p.facet_indices == (0, 1, 2, 3)
    assert len(p.vertices) == 4


def test_polytope_rejects_unbounded_and_flat():
    with pytest.raises(ValueError):
        toric.make_polytope([((1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
    with pytest.raises(ValueError):
        toric.make_polytope([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0),
                             ((0, -1), 1)])
    with pytest.raises(ValueError):
        toric.make_polytope([((0, 0), 1), ((1, 0), 1), ((-1, 0), 1),
                             ((0, 1), 1), ((0, -1), 1)])


def test_square_normal_fan():
    f = toric.normal_fan(square())
    assert set(f.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(f.cones) == 4
    assert all(len(c) == 2 for c in f.cones)


def test_fan_validation():
    with pytest.raises(ValueError):
        toric.Fan(((1, 0), (1, 0)), ((0, 1),))
    with pytest.raises(ValueError):
        toric.Fan(((2, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError):
        toric.Fan(((1, 0), (0, 1)), ((1, 0),))  # unsorted cone
    with pytest.raises(ValueError):
        toric.Fan(((1, 0), (0, 1)), ((0, 5),))
    with pytest.raises(ValueError):
        toric.Fan(((1, 0), (-1, 0)), ((0, 1),))  # unpointed


def test_builtin_gc3():
    p = table_polytope("flag3", 1)
    assert len(p.vertices) == 7
    assert (1, 1, 1) in p.vertices
    f = toric.normal_fan(p)
    assert len(f.rays) == 6
    assert sorted(len(c) for c in f.cones) == [3, 3, 3, 3, 3, 3, 4]
    with pytest.raises(ValueError):
        table_polytope("flag3", 0)


def test_builtin_octahedron():
    p = table_polytope("octahedron", 1)
    assert p.vertices == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                          (1, 1, -1), (1, 1, 0))
    f = toric.normal_fan(p)
    assert len(f.rays) == 8
    assert len(f.cones) == 6
    assert all(len(c) == 4 for c in f.cones)
    # every cone satisfies one square relation between opposite rays
    for cone in f.cones:
        a, b, c, d = [f.rays[i] for i in cone]
        assert vec_add(a, b) == vec_add(c, d) or \
            vec_add(a, c) == vec_add(b, d) or \
            vec_add(a, d) == vec_add(b, c)
    with pytest.raises(ValueError):
        table_polytope("octahedron", -1)


def test_accept_gc3_conifold_splits():
    fan = table_fan("flag3", 2)
    for pick_first in (True, False):
        cert = split_square_cones(fan, pick_first)
        ok, report = toric.verify_small_resolution(fan, cert)
        assert ok, report


def test_accept_octahedron_full_split():
    fan = table_fan("octahedron")
    cert = split_square_cones(fan)
    assert len(cert.simplicial_cones) == 12
    ok, report = toric.verify_small_resolution(fan, cert)
    assert ok, report


def test_reject_new_ray():
    fan = table_fan("octahedron")
    cones = list(split_square_cones(fan).simplicial_cones)
    cones[0] = (cones[0][0], cones[0][1], (1, 1, 7))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate(cones))
    assert not ok
    assert any(line.startswith("(a)") for line in report)
    cones[0] = (99, 1, 2)
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate(cones))
    assert not ok and any(line.startswith("(a)") for line in report)


def test_reject_non_unimodular():
    fan = toric.Fan(((1, 0), (1, 2)), ((0, 1),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 1)]))
    assert not ok
    assert any(line.startswith("(c)") for line in report)


def test_reject_outside_cone():
    fan = toric.Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 2)]))
    assert not ok
    assert any(line.startswith("(b)") for line in report)


def test_reject_partial_cover():
    fan = toric.Fan(((1, 0), (0, 1), (1, 1)), ((0, 1),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 2)]))
    assert not ok
    assert any(line.startswith("(d)") for line in report)


def test_accept_two_piece_cover():
    fan = toric.Fan(((1, 0), (0, 1), (1, 1)), ((0, 1),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 2), (1, 2)]))
    assert ok, report


def test_reject_overlapping_pieces():
    fan = toric.Fan(((1, 0), (0, 1), (1, 1), (2, 1)), ((0, 1),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 3), (1, 2)]))
    assert not ok
    assert any(line.startswith("(d)") for line in report)


def test_rank_four_single_cone_is_its_own_refinement():
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    fan = toric.Fan(rays, ((0, 1, 2, 3),))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 1, 2, 3)]))
    assert ok and report == []


def test_reject_gc3_double_cover():
    fan = table_fan("flag3")
    cert = split_square_cones(fan)
    first, second = [c for c in cert.simplicial_cones if c not in fan.cones]
    cones = [first if c == second else c for c in cert.simplicial_cones]
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate(cones))
    assert not ok
    assert "(d) cone %r is listed twice" % (first,) in report


def test_reject_fan_cone_without_piece():
    # the ray cone (2,) is a maximal cone of this fan that no piece fills
    fan = toric.Fan(((1, 0), (0, 1), (-1, 0)), ((0, 1), (2,)))
    ok, report = toric.verify_small_resolution(
        fan, toric.make_certificate([(0, 1)]))
    assert not ok
    assert report == ["(d) fan cone (2,) holds no piece"]


# Gelfand-Cetlin rows of Gr(2,4) at constant 1, coordinates
# (x12, x21, x22, x31) of 1 >= x21 >= x12 >= x22 >= 0, x21 >= x31 >= x22
GR24_FACETS = [((0, -1, 0, 0), 1), ((-1, 1, 0, 0), 0), ((1, 0, -1, 0), 0),
               ((0, 0, 1, 0), 0), ((0, 1, 0, -1), 0), ((0, 0, -1, 1), 0)]
# the two ways to split both 5-ray cones along their common 4-ray face
GR24_SPLIT_A = [(0, 1, 2, 4), (0, 1, 2, 5), (1, 2, 3, 4), (1, 2, 3, 5)]
GR24_SPLIT_B = [(0, 1, 4, 5), (0, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]


@pytest.fixture(scope="module")
def gr24_fan():
    fan = toric.normal_fan(toric.make_polytope(GR24_FACETS))
    assert fan.rays == ((0, -1, 0, 0), (-1, 1, 0, 0), (1, 0, -1, 0),
                        (0, 0, 1, 0), (0, 1, 0, -1), (0, 0, -1, 1))
    assert [c for c in fan.cones if len(c) == 5] == [(0, 1, 2, 4, 5),
                                                     (1, 2, 3, 4, 5)]
    return fan


def gr24_verdict(fan, pieces):
    simplicial = [c for c in fan.cones if len(c) == 4]
    assert len(simplicial) == 4
    return toric.verify_small_resolution(
        fan, toric.make_certificate(simplicial + pieces))


@pytest.mark.parametrize("pieces", [GR24_SPLIT_A, GR24_SPLIT_B])
def test_accept_gr24_triangulations(gr24_fan, pieces):
    ok, report = gr24_verdict(gr24_fan, pieces)
    assert ok and report == []


@pytest.mark.parametrize("pieces", [GR24_SPLIT_A[:2] + GR24_SPLIT_B[2:],
                                    GR24_SPLIT_B[:2] + GR24_SPLIT_A[2:]])
def test_reject_gr24_mixed_triangulations(gr24_fan, pieces):
    ok, report = gr24_verdict(gr24_fan, pieces)
    assert not ok
    lines = [line for line in report if line.startswith("(d) cones ")]
    assert lines and all(line.endswith("do not meet in a common face")
                         for line in lines)


def test_reject_gr24_partial_cover(gr24_fan):
    # half of the first 5-ray cone, nothing of the second
    ok, report = gr24_verdict(gr24_fan, GR24_SPLIT_A[:1])
    assert not ok
    assert "(d) fan cone (1, 2, 3, 4, 5) holds no piece" in report
    assert any(line.startswith("(d) facet ") and
               "inside fan cone (0, 1, 2, 4, 5)" in line for line in report)


def test_certificate_validation():
    with pytest.raises(ValueError):
        toric.RefinementCertificate(((),))
    with pytest.raises(ValueError):
        toric.RefinementCertificate((("x", 1),))
    cert = toric.make_certificate([(0, (1, 1, 7.0), 2)])
    assert cert.simplicial_cones == ((0, (1, 1, 7), 2),)


def test_json_round_trips():
    fan = table_fan("octahedron")
    fdata = json.loads(json.dumps({"rays": fan.rays, "cones": fan.cones}))
    assert toric.fan_from_json(fdata) == fan
    cert = toric.make_certificate([(0, 1, 2), ((1, 0, 0), 3, 4)])
    cdata = json.loads(json.dumps({"cones": cert.simplicial_cones}))
    assert toric.certificate_from_json(cdata) == cert
