"""Exact integer and rational linear algebra.

Two reductions do every exact elimination here.  Over Q, eliminate is a
fraction-free Gauss-Jordan (Bareiss) reduction over Python integers,
after each rational row is scaled to integers by the lcm of its
denominators; rank, determinant, adjugate, inverse and linear solve all
read its result, and Fraction appears only in the values that
solve_rational returns.  Over Z, column_echelon reduces integer vectors
by unimodular column steps; the quotient maps (which matching memoizes
per edge direction and constraint span) and the saturation indices read
its transform.  No floating point is used anywhere; equality
decisions (membership, genericity, indices) must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index, mul


def vec_neg(a):
    return tuple(-x for x in a)


def as_int(x):
    """x as an int when it equals one (7, 7.0, Fraction(7)); any other
    value raises a ValueError that names it, instead of truncating."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%r is not an integer" % (x,))


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


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g, g a gcd of a and b (of either sign)."""
    x, y, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x, x1 = x1, x - q * x1
        y, y1 = y1, y - q * y1
    return a, x, y


def column_echelon(vectors, n):
    """Integer column echelon form of vectors in Z^n.

    Returns (indep, u): indep lists the indices of the vectors that are
    independent of those before them, and u is an n x n integer matrix
    of determinant 1.  With r = len(indep), every vector times u is zero
    past column r, and the rows indep of vectors*u form a lower
    triangular block with a nonzero diagonal in the first r columns.
    Each step combines pivot column c and a later column by
    [[x, -q], [y, p]], where x*a + y*b = g and (p, q) = (a/g, b/g) for
    the entries a, b of the vector in those columns: the pivot column
    takes g and the other one 0, and x*p + y*q = 1.
    """
    cols = identity_matrix(n)  # cols[j] is column j of u
    indep = []
    for i, v in enumerate(vectors):
        c = len(indep)
        a = [sum(map(mul, v, col)) for col in cols]
        if not any(a[c:]):
            continue
        for j in range(c + 1, n):
            if a[j]:
                g, x, y = _xgcd(a[c], a[j])
                p, q = a[c] // g, a[j] // g
                cc, cj = cols[c], cols[j]
                cols[c] = [x * s + y * t for s, t in zip(cc, cj)]
                cols[j] = [p * t - q * s for s, t in zip(cc, cj)]
                a[c] = g
        indep.append(i)
    return indep, [list(row) for row in zip(*cols)]


def saturation_index(basis):
    """Index of the lattice spanned by integer vectors in its saturation
    (its Q-span intersected with Z^n), the absolute product of the
    diagonal of their column echelon form; 0 when they are dependent."""
    n = len(basis[0]) if basis else 0
    indep, u = column_echelon(basis, n)
    if len(indep) < len(basis):
        return 0
    return abs(prod(sum(map(mul, v, col)) for v, col in zip(basis, zip(*u))))


def quotient_map(vectors, n):
    """Integer matrix W presenting N / saturation(span(vectors)).

    The quotient of Z^n by the saturated sublattice generated by the
    (possibly dependent or empty) vectors is free; x |-> x*W gives its
    coordinates.  W is the n x (n-k) block of the columns of the
    column echelon transform past the rank k, so the map is surjective
    onto Z^(n-k) with kernel exactly the saturation.
    """
    indep, u = column_echelon(vectors, n)
    return [row[len(indep):] for row in u]


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
