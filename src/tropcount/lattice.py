"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision integers and fractions.
No floating point is used anywhere; equality decisions (membership,
genericity, indices) must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_neg(a):
    return tuple(-x for x in a)


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def mat_mul(a, b):
    rb = len(b)
    cb = len(b[0]) if rb else 0
    return [
        [sum(row[t] * b[t][j] for t in range(rb)) for j in range(cb)]
        for row in a
    ]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def bareiss_det(m):
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(row) for row in m]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            for i in range(t + 1, k):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[t][t] * a[i][j] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[k - 1][k - 1]


def int_matrix_inverse(m):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    k = len(m)
    d = bareiss_det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = [
                [m[r][c] for c in range(k) if c != i]
                for r in range(k) if r != j
            ]
            cof = bareiss_det(minor) if k > 1 else 1
            if (i + j) % 2:
                cof = -cof
            row.append(cof * d)  # d = 1/d for d in {1,-1}
        out.append(row)
    return out


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


def rank_int(vectors):
    """Rank over Q of a list of integer (or Fraction) vectors."""
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


def saturate(basis):
    """Basis of the saturation (Q-span intersected with Z^n) of a sublattice.

    The input vectors must be linearly independent over Q.  The returned
    list spans a saturated sublattice containing the input lattice.
    """
    basis = [tuple(v) for v in basis]
    if not basis:
        return []
    k = len(basis)
    if rank_int(basis) != k:
        raise ValueError("saturate requires linearly independent vectors")
    _, _, right = smith_normal_form(basis)
    rinv = int_matrix_inverse(right)
    return [tuple(rinv[i]) for i in range(k)]


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


_quotient_maps = {}


def cached_quotient_map(vectors, n, compute):
    """compute(vectors, n), a quotient_map, memoized on (tuple of
    vectors, n).

    One result is shared by every caller, so its rows are tuples; the
    callers only read them.  A caller passes its own module's name for
    quotient_map as compute, so that a wrapper installed on that name,
    such as the layer tracer in perfbench, sees only the misses: the
    calls that do lattice work.
    """
    key = (tuple(map(tuple, vectors)), n)
    w = _quotient_maps.get(key)
    if w is None:
        w = _quotient_maps[key] = tuple(map(tuple, compute(vectors, n)))
    return w


def apply_quotient(w, x):
    """Apply a quotient presentation W to a row vector x."""
    cols = len(w[0]) if w and len(w) else 0
    return tuple(sum(x[i] * w[i][j] for i in range(len(x))) for j in range(cols))


def hermite_normal_form(vectors):
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns the nonzero rows, in echelon form with positive pivots.
    """
    work = [list(v) for v in vectors]
    n = len(work[0]) if work else 0
    out = []
    c = 0
    while work and c < n:
        piv = None
        for i, row in enumerate(work):
            if row[c] != 0 and (piv is None or abs(row[c]) < abs(work[piv][c])):
                piv = i
        if piv is None:
            c += 1
            continue
        stable = False
        while not stable:
            stable = True
            for i, row in enumerate(work):
                if i != piv and row[c] != 0:
                    q = row[c] // work[piv][c]
                    for j in range(n):
                        row[j] -= q * work[piv][j]
                    if row[c] != 0 and abs(row[c]) < abs(work[piv][c]):
                        piv = i
                        stable = False
        prow = work.pop(piv)
        if prow[c] < 0:
            prow = [-x for x in prow]
        out.append(prow)
        work = [row for row in work if any(row)]
        piv = None
        c += 1
    # reduce entries above pivots for a unique form
    for i in reversed(range(len(out))):
        lead = next(j for j in range(n) if out[i][j] != 0)
        for k in range(i):
            if out[k][lead] != 0:
                q = out[k][lead] // out[i][lead]
                for j in range(n):
                    out[k][j] -= q * out[i][j]
    return [tuple(r) for r in out]


def lattice_member(v, basis):
    """Exact membership of an integer vector in the lattice spanned by basis."""
    h = hermite_normal_form(basis)
    rem = list(v)
    for row in h:
        lead = next(j for j in range(len(row)) if row[j] != 0)
        if rem[lead] % row[lead] == 0:
            q = rem[lead] // row[lead]
            for j in range(len(rem)):
                rem[j] -= q * row[j]
    return all(x == 0 for x in rem)


def lattice_index(sub, sup):
    """Group index [sup : sub] for two bases of the same Q-vector space."""
    sub = [tuple(v) for v in sub]
    sup = [tuple(v) for v in sup]
    k = len(sup)
    if len(sub) != k:
        raise ValueError("lattice_index requires bases of equal length")
    if rank_int(sup) != k or rank_int(sub) != k:
        raise ValueError("lattice_index requires linearly independent bases")
    # express each sub vector in the sup basis; entries must be integers
    coeffs = []
    for v in sub:
        res = solve_rational([[Fraction(s[i]) for s in sup] for i in range(len(v))],
                             [Fraction(x) for x in v])
        if res.status != "unique":
            raise ValueError("vectors do not span the same space")
        row = []
        for c in res.particular:
            if c.denominator != 1:
                raise ValueError("sub is not contained in sup")
            row.append(int(c))
        coeffs.append(row)
    d = bareiss_det(coeffs)
    if d == 0:
        raise ValueError("sub basis is degenerate")
    return abs(d)


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
    """
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
            return LinearSolution("infeasible")
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = work[i][n]
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return LinearSolution("unique", tuple(particular))
    kernel = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        kernel.append(tuple(vec))
    return LinearSolution("family", tuple(particular), tuple(kernel))


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
