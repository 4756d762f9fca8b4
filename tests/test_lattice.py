"""Exact integer and rational linear algebra checks.

The Fraction routines below are the Gaussian eliminations the library
used before its single fraction-free core; they stay here as oracles
for the core's rank, determinant and solve.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount import lattice

ints = st.integers(min_value=-30, max_value=30)


def square(k):
    return st.lists(st.lists(ints, min_size=k, max_size=k),
                    min_size=k, max_size=k)


def mat_mul(a, b):
    rb = len(b)
    cb = len(b[0]) if rb else 0
    return [
        [sum(row[t] * b[t][j] for t in range(rb)) for j in range(cb)]
        for row in a
    ]


def fraction_det(m):
    """Determinant of a square matrix of Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    k = len(a)
    det = Fraction(1)
    for t in range(k):
        piv = None
        for i in range(t, k):
            if a[i][t] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        inv = 1 / a[t][t]
        for i in range(t + 1, k):
            if a[i][t] != 0:
                f = a[i][t] * inv
                for j in range(t, k):
                    a[i][j] -= f * a[t][j]
    return det


def fraction_rank(vectors):
    """Rank over Q by Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    n = len(work[0]) if work else 0
    for c in range(n):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                for j in range(c, n):
                    work[i][j] -= f * work[r][j]
        r += 1
    return r


def fraction_solve(a, b):
    """a*x = b by Gauss-Jordan on Fractions, as a LinearSolution."""
    rows = len(a)
    n = len(a[0]) if rows else 0
    work = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, rows):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if work[i][n] != 0:
            return lattice.LinearSolution("infeasible")
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = work[i][n]
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return lattice.LinearSolution("unique", tuple(particular))
    kernel = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        kernel.append(tuple(vec))
    return lattice.LinearSolution("family", tuple(particular), tuple(kernel))


def test_vec_helpers():
    assert lattice.vec_neg((1, -2)) == (-1, 2)
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
    # zero pivots force row swaps, each of which flips the sign
    assert lattice.bareiss_det([[0, 1], [1, 0]]) == -1
    assert lattice.bareiss_det([[0, 0, 2], [0, 3, 1], [5, 1, 1]]) == -30


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4).flatmap(square))
def test_bareiss_matches_fraction_det(m):
    assert lattice.bareiss_det(m) == fraction_det(m)


def test_int_matrix_inverse():
    m = [[2, 1], [1, 1]]
    inv = lattice.int_matrix_inverse(m)
    assert mat_mul(m, inv) == lattice.identity_matrix(2)
    assert mat_mul(inv, m) == lattice.identity_matrix(2)
    with pytest.raises(ValueError):
        lattice.int_matrix_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        lattice.int_matrix_inverse([[1, 2], [2, 4]])


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=3).flatmap(square))
def test_smith_normal_form_properties(m):
    diag, left, right = lattice.smith_normal_form(m)
    assert abs(lattice.bareiss_det(left)) == 1
    assert abs(lattice.bareiss_det(right)) == 1
    prod = mat_mul(mat_mul(left, m), right)
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


def test_saturate_and_index():
    """The index of a lattice in its saturation."""
    assert lattice.saturation_index([(2, 0), (0, 3)]) == 6
    assert lattice.saturation_index([(1, 0), (0, 1)]) == 1
    assert lattice.saturation_index([(2, 4)]) == 2
    assert lattice.saturation_index([(1, 2)]) == 1
    assert lattice.saturation_index([(1, 1, 0), (1, -1, 0)]) == 2
    assert lattice.saturation_index([]) == 1


def test_lattice_index_errors():
    """The saturation index is defined only for independent vectors."""
    with pytest.raises(ValueError):
        lattice.saturation_index([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        lattice.saturation_index([(0, 0, 0)])
    with pytest.raises(ValueError):
        lattice.saturation_index([(1, 0), (0, 1), (1, 1)])


def test_quotient_map_cases():
    def image(w, x):
        return tuple(sum(xi * row[j] for xi, row in zip(x, w))
                     for j in range(len(w[0])))

    assert lattice.quotient_map([], 2) == lattice.identity_matrix(2)
    w = lattice.quotient_map([(1, 0), (0, 1)], 2)
    assert all(len(row) == 0 for row in w)
    w = lattice.quotient_map([(0, 2)], 2)
    assert len(w) == 2 and len(w[0]) == 1
    # kernel is exactly the saturation of the input span
    assert image(w, (0, 1)) == (0,)
    assert image(w, (0, 7)) == (0,)
    assert image(w, (1, 0)) != (0,)


@settings(max_examples=60)
@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=0,
                max_size=2))
def test_quotient_map_kernel(vectors):
    w = lattice.quotient_map(vectors, 3)
    for v in vectors:
        assert all(sum(x * row[j] for x, row in zip(v, w)) == 0
                   for j in range(len(w[0])))


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


def rational_system(rng, rows, cols, rank, feasible):
    """A rows x cols rational matrix of rank at most rank, as a product
    of two random rational factors, with a right-hand side in its
    column space when feasible, else drawn at random."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))

    left = [[q() for _ in range(rank)] for _ in range(rows)]
    right = [[q() for _ in range(cols)] for _ in range(rank)]
    a = mat_mul(left, right) if rank else [[Fraction(0)] * cols
                                           for _ in range(rows)]
    if feasible:
        x = [q() for _ in range(cols)]
        b = [sum(r * y for r, y in zip(row, x)) for row in a]
    else:
        b = [q() for _ in range(rows)]
    return a, b


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rows=st.integers(0, 6),
       cols=st.integers(0, 6), rank=st.integers(0, 6),
       feasible=st.booleans(), ints_only=st.booleans())
def test_core_matches_fraction_elimination(seed, rows, cols, rank,
                                           feasible, ints_only):
    """Rank and solve against the Fraction oracles on rational (or
    integer) rectangular systems: full rank, rank-deficient, infeasible
    and families alike."""
    rng = random.Random(seed)
    a, b = rational_system(rng, rows, cols, rank, feasible)
    if ints_only:
        # scale each equation to integers; the solutions stay the same
        scales = [lcm(*[x.denominator for x in row], y.denominator)
                  for row, y in zip(a, b)]
        a = [[int(x * s) for x in row] for row, s in zip(a, scales)]
        b = [int(y * s) for y, s in zip(b, scales)]
    assert lattice.rank_int(a) == fraction_rank(a)
    got, want = lattice.solve_rational(a, b), fraction_solve(a, b)
    assert got == want
    assert all(type(x) is Fraction for x in got.particular or ())
    assert all(type(x) is Fraction for v in got.kernel for x in v)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 6),
       rank=st.integers(0, 6))
def test_core_det_and_adjugate(seed, k, rank):
    """Determinant against the Fraction oracle, and M * adj(M) = det * I,
    on square integer matrices, singular ones included.  Half of them
    are mostly zeros, so that pivots are often zero and rows swap."""
    rng = random.Random(seed)
    if seed % 2:
        m = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(k)]
             for _ in range(k)]
    else:
        left = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(k)]
        right = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rank)]
        m = mat_mul(left, right) if rank else [[0] * k for _ in range(k)]
    det = lattice.bareiss_det(m)
    assert det == fraction_det(m)
    got, adj = lattice.adjugate(m)
    assert got == det
    if det:
        assert mat_mul(m, adj) == [[det * x for x in row]
                                   for row in lattice.identity_matrix(k)]
    else:
        assert adj is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 6))
def test_inverse_of_unimodular(seed, k):
    """M * inverse(M) = I on products of random elementary matrices."""
    rng = random.Random(seed)
    m = lattice.identity_matrix(k)
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i != j:
            q = rng.randint(-3, 3)
            for c in range(k):
                m[i][c] += q * m[j][c]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    inv = lattice.int_matrix_inverse(m)
    assert mat_mul(m, inv) == lattice.identity_matrix(k)
    assert mat_mul(inv, m) == lattice.identity_matrix(k)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5),
       k=st.integers(1, 5))
def test_saturation_index_is_gcd_of_maximal_minors(seed, n, k):
    """For k independent vectors in Z^n the index of their lattice in its
    saturation is the gcd of the k x k minors of the basis matrix.  Some
    vectors are multiplied by 2 or 3, so that the index is often not 1."""
    rng = random.Random(seed)
    basis = []
    for _ in range(k):
        f = rng.choice((1, 1, 2, 3))
        basis.append(tuple(f * rng.randint(-6, 6) for _ in range(n)))
    if fraction_rank(basis) < k:
        with pytest.raises(ValueError):
            lattice.saturation_index(basis)
        return
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, int(fraction_det([[v[c] for c in cols] for v in basis])))
    assert lattice.saturation_index(basis) == g
