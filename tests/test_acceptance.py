"""Acceptance suite: one test per numbered criterion.

Reports are cached by exact argument list so later criteria (seed
independence, multiplicity cross-checks, structural invariants) reuse
the earlier runs instead of recounting.
"""

import time
from functools import lru_cache

import pytest

from oracles import check_balanced, mikhalkin_multiplicity, validate_type
from test_toric import split_square_cones, table_fan
from tropcount import curves, degrees, engine, toric

WORKERS = 8

# common value of the mixed point and line octahedron counts, frozen
# after the first computation as the regression anchor
OCTA_MIXED_CONSTANT = 3

LINE_DIRECTIONS = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))


@lru_cache(maxsize=None)
def flag3_report(s, t, npts, seed, workers):
    prob = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "flag3", "class": [s, t]},
        "constraints": {"kind": "generate", "bases": [[]] * npts},
    })
    return engine.count_invariant(prob, seed=seed, workers=workers)


@lru_cache(maxsize=None)
def octahedron_report(a, bases, seed, workers):
    prob = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "octahedron", "class": a},
        "constraints": {"kind": "generate",
                        "bases": [[list(v) for v in basis]
                                  for basis in bases]},
    })
    return engine.count_invariant(prob, seed=seed, workers=workers)


@lru_cache(maxsize=None)
def plane_report(d, seed, workers):
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(d),),
                          constraint_bases=((),) * (3 * d - 1))
    return engine.count_invariant(prob, seed=seed, workers=workers)


def line_distributions():
    dirs = LINE_DIRECTIONS
    out = []
    for i in range(len(dirs)):
        for j in range(i, len(dirs)):
            out.append(((), (dirs[i],), (dirs[j],)))
    return out


def test_criterion_01_flag3_lines():
    t0 = time.perf_counter()
    assert flag3_report(1, 0, 1, 1, 1).total == 1
    assert flag3_report(0, 1, 1, 1, 1).total == 1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_flag3_one_one():
    rep = flag3_report(1, 1, 2, 1, 1)
    assert rep.total == 1
    assert rep.timing < 5.0


def test_criterion_03_flag3_one_two_vanishes():
    t0 = time.perf_counter()
    assert flag3_report(1, 2, 3, 1, WORKERS).total == 0
    assert flag3_report(2, 1, 3, 1, WORKERS).total == 0
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_flag3_one_three_vanishes():
    t0 = time.perf_counter()
    assert flag3_report(1, 3, 4, 1, WORKERS).total == 0
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_05_octahedron_lines_through_point():
    rep = octahedron_report(1, ((),), 1, 1)
    assert rep.total == 4
    active = [r for r in rep.per_degree if r.active]
    assert len(active) == 4
    for r in active:
        assert r.subtotal == 1 and len(r.curves) == 1
        assert r.curves[0].multiplicity.total == 1
    assert rep.timing < 5.0


def assert_subtotals_seed_independent(reports):
    """Each degree's subtotal, not just the total, is the same in every
    report: a fixed degree's weighted count does not depend on the
    offsets (Gathmann-Kerber-Markwig)."""
    subtotals = {tuple((r.degree, r.subtotal) for r in rep.per_degree)
                 for rep in reports}
    assert len(subtotals) == 1, subtotals


def test_criterion_06_octahedron_mixed_invariance():
    t0 = time.perf_counter()
    totals = set()
    for bases in line_distributions():
        reports = [octahedron_report(2, bases, seed, WORKERS)
                   for seed in (1, 2, 3)]
        totals.update(rep.total for rep in reports)
        assert_subtotals_seed_independent(reports)
    assert totals == {OCTA_MIXED_CONSTANT}
    assert time.perf_counter() - t0 < 600.0


def test_criterion_07_plane_oracle_small_degrees():
    for d in (1, 2):
        rep = plane_report(d, 1, WORKERS)
        assert rep.total == engine.kontsevich_oracle(d) == 1


@pytest.mark.long
def test_criterion_07_plane_oracle_degree_three():
    t0 = time.perf_counter()
    rep = plane_report(3, 1, WORKERS)
    assert rep.total == engine.kontsevich_oracle(3) == 12
    assert time.perf_counter() - t0 < 3600.0


def _check_mikhalkin(rep):
    checked = 0
    for r in rep.per_degree:
        for c in r.curves:
            assert c.multiplicity.total == \
                mikhalkin_multiplicity(c.type)
            checked += 1
    return checked


def test_criterion_08_mikhalkin_cross_check():
    assert _check_mikhalkin(plane_report(1, 1, WORKERS)) >= 1
    assert _check_mikhalkin(plane_report(2, 1, WORKERS)) >= 1


@pytest.mark.long
def test_criterion_08_mikhalkin_cross_check_degree_three():
    # 12 is a weighted count; seed 1 realises it as fewer curve records
    rep = plane_report(3, 1, WORKERS)
    assert _check_mikhalkin(rep) >= 1
    assert sum(c.multiplicity.total
               for r in rep.per_degree for c in r.curves) == 12


def test_criterion_09_seed_independence():
    cases = [
        (lambda seed: flag3_report(1, 0, 1, seed, 1), 1),
        (lambda seed: flag3_report(0, 1, 1, seed, 1), 1),
        (lambda seed: flag3_report(1, 1, 2, seed, 1), 1),
        (lambda seed: flag3_report(1, 2, 3, seed, WORKERS), 0),
        (lambda seed: flag3_report(2, 1, 3, seed, WORKERS), 0),
        (lambda seed: octahedron_report(1, ((),), seed, 1), 4),
    ]
    for run, want in cases:
        reports = [run(seed) for seed in (1, 2, 3)]
        assert {rep.total for rep in reports} == {want}
        assert_subtotals_seed_independent(reports)


def test_criterion_09_seed_independence_long():
    reports = [flag3_report(1, 3, 4, seed, WORKERS) for seed in (1, 2, 3)]
    assert {rep.total for rep in reports} == {0}
    assert_subtotals_seed_independent(reports)


def test_criterion_10_small_resolution_certificates():
    t0 = time.perf_counter()
    gc3_fan = table_fan("flag3")
    for pick_first in (True, False):
        cert = split_square_cones(gc3_fan, pick_first)
        square_pieces = [c for c in cert.simplicial_cones
                         if c not in gc3_fan.cones]
        assert len(square_pieces) == 2
        ok, report = toric.verify_small_resolution(gc3_fan, cert)
        assert ok, report

    octa_fan = table_fan("octahedron")
    cert = split_square_cones(octa_fan)
    assert len(cert.simplicial_cones) == 12
    ok, report = toric.verify_small_resolution(octa_fan, cert)
    assert ok, report

    bad = list(cert.simplicial_cones)
    bad[0] = (bad[0][0], bad[0][1], (1, 1, -1))
    ok, report = toric.verify_small_resolution(
        octa_fan, toric.make_certificate(bad))
    assert not ok
    assert any(line.startswith("(a)") for line in report)
    assert time.perf_counter() - t0 < 1.0


def apply_divisor_axiom(base, factors, balanced=True):
    """Multiply a base invariant by divisor pairings.

    factors is a list of (pairing, exponent).  The caller is responsible
    for the dimension balance; when it fails the product is zero.  The
    pairings come from the test: a divisor insertion is a codimension-0
    condition, which matching.check_basis rejects, so no count checks
    them.
    """
    if not balanced:
        return 0
    out = base
    for value, exp in factors:
        out *= value ** exp
    return out


def test_criterion_11_divisor_axiom():
    base2 = flag3_report(1, 1, 2, 1, 1).total
    # class (1, 1): every surface-class pairing is 1
    assert apply_divisor_axiom(base2, [(1, 2), (1, 3)]) == base2 == 1
    # class (1, 0): any insertion pairing with the second factor kills it
    base1 = flag3_report(1, 0, 1, 1, 1).total
    assert apply_divisor_axiom(base1, [(1, 2), (0, 1)]) == 0

    base5 = octahedron_report(1, ((),), 1, 1).total
    assert apply_divisor_axiom(base5, [(1, 1)]) == 4
    assert apply_divisor_axiom(base5, [(1, 1)], balanced=False) == 0


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_criterion_12_structural_invariants():
    reports = [
        flag3_report(1, 1, 2, 1, 1),
        octahedron_report(1, ((),), 1, 1),
        plane_report(2, 1, WORKERS),
    ]
    for rep in reports:
        for r in rep.per_degree:
            for t, _ in curves.unmarked_types(r.degree):
                validate_type(t)
                assert check_balanced(t)
            for c in r.curves:
                assert check_balanced(c.type)
                m = c.multiplicity
                for part in (m.weight, m.d_index, m.total) + m.deltas:
                    assert isinstance(part, int) and part > 0
                assert m.total == m.weight * m.d_index * \
                    _product(m.deltas)
            if r.active:
                assert r.subtotal == sum(
                    c.multiplicity.total for c in r.curves)
        assert rep.total == sum(r.subtotal for r in rep.per_degree)

    serial = octahedron_report(1, ((),), 1, 1)
    parallel = octahedron_report(1, ((),), 1, WORKERS)
    assert serial.total == parallel.total
    assert [r.subtotal for r in serial.per_degree] == \
        [r.subtotal for r in parallel.per_degree]
    fserial = flag3_report(1, 1, 2, 1, 1)
    fparallel = flag3_report(1, 1, 2, 1, WORKERS)
    assert fserial.total == fparallel.total
