"""Exact integer and rational linear algebra.

One routine, eliminate, does every exact elimination here: a
fraction-free Gauss-Jordan (Bareiss) reduction over Python integers,
after each rational row is scaled to integers by the lcm of its
denominators.  Rank, determinant, adjugate, inverse and linear solve
all read its result, and Fraction appears only in the values that
solve_rational returns.  Smith normal form gives quotient maps, which
matching memoizes per edge direction and constraint span, and
saturation indices.  No floating point is used anywhere; equality
decisions (membership, genericity, indices) must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index


def vec_neg(a):
    return tuple(-x for x in a)


def is_zero(a):
    return all(x == 0 for x in a)


def primitive(v):
    """Split a nonzero integer vector as weight * primitive direction.

    Returns (u, w) with v = w*u, w a positive integer and gcd(u) = 1.
    """
    if is_zero(v):
        raise ValueError("zero vector has no direction")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v), g


def identity_matrix(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def eliminate(rows, width=None):
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Each row is first scaled by the lcm of its denominators, which keeps
    its row space.  Pivots are sought left to right in the first width
    columns (all of them by default).  Returns (pivots, d, sign, a): the
    pivot columns, the common pivot value d (1 without pivots), the sign
    of the row permutation and the reduced integer rows.  Row i of a,
    for i < len(pivots), has d in column pivots[i] and 0 in every other
    pivot column; the later rows are zero in the first width columns.
    So a / d is the reduced row echelon form, and for a square integer
    matrix of full rank, sign * d is its determinant.
    """
    a = []
    for row in rows:
        try:
            a.append(list(map(index, row)))
        except TypeError:
            m = lcm(*[x.denominator for x in row])
            a.append([x.numerator * (m // x.denominator) for x in row])
    if width is None:
        width = len(a[0]) if a else 0
    pivots = []
    sign = prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(a):
            break
        for p in range(r, len(a)):
            if a[p][c]:
                break
        else:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        prow = a[r]
        piv = prow[c]
        # every entry stays a minor of the scaled input, so each
        # division by the previous pivot is exact
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[c]
            if f:
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                a[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
    return pivots, prev, sign, a


def rank_int(vectors):
    """Rank over Q of a list of integer (or Fraction) vectors."""
    return len(eliminate(vectors)[0])


def bareiss_det(m):
    """Determinant of a square integer matrix, fraction-free."""
    pivots, d, sign, _ = eliminate(m)
    return sign * d if len(pivots) == len(m) else 0


def adjugate(m):
    """(det, adjugate) of a square integer matrix; (0, None) if singular.

    Eliminating [M | I] leaves d * inverse(M) on the right, with
    d = sign * det(M), so the adjugate det(M) * inverse(M) is sign times
    the right half.
    """
    k = len(m)
    pivots, d, sign, a = eliminate(
        [list(row) + e for row, e in zip(m, identity_matrix(k))], k)
    if len(pivots) < k:
        return 0, None
    return sign * d, [[sign * x for x in row[k:]] for row in a]


def int_matrix_inverse(m):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    det, adj = adjugate(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[det * x for x in row] for row in adj]


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (diag, left, right) with left*m*right diagonal, the diagonal
    entries nonnegative with d_i | d_{i+1}, and left, right unimodular.
    Reduction picks the smallest nonzero entry as pivot to limit growth.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = identity_matrix(rows)
    right = identity_matrix(cols)

    def row_op(i, j, q):
        # row i -= q * row j
        for c in range(cols):
            a[i][c] -= q * a[j][c]
        for c in range(rows):
            left[i][c] -= q * left[j][c]

    def col_op(i, j, q):
        # col i -= q * col j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            right[r][i] -= q * right[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    t = 0
    while t < min(rows, cols):
        # locate smallest nonzero entry in the remaining block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)  # remainder is smaller, new pivot
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # enforce divisibility d_t | a[i][j]
                p = a[t][t]
                for i in range(t + 1, rows):
                    done = False
                    for j in range(t + 1, cols):
                        if a[i][j] % p != 0:
                            row_op(t, i, -1)  # fold row i into row t
                            dirty = True
                            done = True
                            break
                    if done:
                        break
        if a[t][t] < 0:
            for c in range(cols):
                a[t][c] = -a[t][c]
            for c in range(rows):
                left[t][c] = -left[t][c]
        t += 1

    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, left, right


def saturation_index(basis):
    """Index of the lattice spanned by independent integer vectors in its
    saturation (its Q-span intersected with Z^n): the product of the
    Smith invariant factors of the basis."""
    diag, _, _ = smith_normal_form(basis)
    if len(diag) < len(basis) or 0 in diag:
        raise ValueError("saturation_index requires linearly independent "
                         "vectors")
    return prod(diag)


def quotient_map(vectors, n):
    """Integer matrix W presenting N / saturation(span(vectors)).

    The quotient of Z^n by the saturated sublattice generated by the
    (possibly dependent or empty) vectors is free; x |-> x*W gives its
    coordinates.  W has n rows and n-k columns where k is the rank.
    The map is surjective onto Z^(n-k) with kernel exactly the saturation.
    """
    indep = []
    for v in vectors:
        if not is_zero(v) and rank_int(indep + [tuple(v)]) == len(indep) + 1:
            indep.append(tuple(v))
    k = len(indep)
    if k == 0:
        return identity_matrix(n)
    if k == n:
        return [[] for _ in range(n)]
    _, _, right = smith_normal_form(indep)
    return [[right[i][j] for j in range(k, n)] for i in range(n)]


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact linear solve: unique, family, or infeasible."""

    status: str
    particular: tuple | None = None
    kernel: tuple = ()


def solve_rational(a, b):
    """Solve a*x = b exactly over Q.

    Returns a LinearSolution: status "unique" carries the solution,
    "family" a particular solution plus a kernel basis, "infeasible" neither.
    The augmented rows are eliminated once; the reduced echelon form
    a / d gives the particular solution and one kernel vector per free
    column.
    """
    n = len(a[0]) if a else 0
    pivots, d, _, work = eliminate(
        [list(row) + [y] for row, y in zip(a, b)], n)
    if any(row[n] for row in work[len(pivots):]):
        return LinearSolution("infeasible")
    particular = [Fraction(0)] * n
    for row, c in zip(work, pivots):
        particular[c] = Fraction(row[n], d)
    free = sorted(set(range(n)) - set(pivots))
    if not free:
        return LinearSolution("unique", tuple(particular))
    kernel = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, c in zip(work, pivots):
            vec[c] = Fraction(-row[f], d)
        kernel.append(tuple(vec))
    return LinearSolution("family", tuple(particular), tuple(kernel))
