"""Pure Python search for point-constraint assignments on one type.

The system for a marked type against l point constraints stacks, per
marking, the quotient rows of its edge; choosing which edge carries each
marking is the expensive outer loop.  This search runs over unordered
edge multisets first, maintaining a fraction-free echelon of the stacked
coefficient blocks, so an edge subset whose blocks cannot reach full
rank is discarded once instead of once per assignment.  Dependent
subsets are only discarded after checking that no assignment of
constraints to the chosen edges makes the degenerate system consistent;
if one does, the whole run is flagged non-general and the caller
re-samples offsets.

All arithmetic is exact (Python integers).  The compiled twin mirrors
this module with machine integers plus overflow detection.
"""

OK = 0
NON_GENERAL = 1


def adjugate_det(m):
    """(det, adjugate) of a square integer matrix by fraction-free
    Gauss-Jordan elimination."""
    u = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(u)]
         for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for t in range(u):
        if a[t][t] == 0:
            for i in range(t + 1, u):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0, None
        piv = a[t][t]
        for i in range(u):
            if i != t:
                f = a[i][t]
                row = a[i]
                prow = a[t]
                for j in range(2 * u):
                    num = piv * row[j] - f * prow[j]
                    assert num % prev == 0
                    row[j] = num // prev
        prev = piv
    # row swaps hit the augmented identity too, so the right half ends
    # as det(PM) * inverse(M) for the original M; only the sign of the
    # permutation needs undoing
    det = sign * a[u - 1][u - 1]
    adj = [[sign * a[i][u + j] for j in range(u)] for i in range(u)]
    return det, adj


def _exists_zero_assignment(slot_values, nconstr):
    """Is there an injective map from slots to constraints with value
    sum zero?  slot_values[k] is a list of l integers."""
    k = len(slot_values)
    if k == 0:
        return True
    mins = [min(v) for v in slot_values]
    maxs = [max(v) for v in slot_values]
    suffix_min = [0] * (k + 1)
    suffix_max = [0] * (k + 1)
    for i in reversed(range(k)):
        suffix_min[i] = suffix_min[i + 1] + mins[i]
        suffix_max[i] = suffix_max[i + 1] + maxs[i]
    used = [False] * nconstr

    def rec(i, acc):
        if i == k:
            return acc == 0
        if acc + suffix_min[i] > 0 or acc + suffix_max[i] < 0:
            return False
        vals = slot_values[i]
        for c in range(nconstr):
            if not used[c]:
                used[c] = True
                if rec(i + 1, acc + vals[c]):
                    used[c] = False
                    return True
                used[c] = False
        return False

    return rec(0, 0)


def search_points(n, nb, blocks, rhs, lbounded, tdata, pj):
    """Find all candidate (edge multiset, assignment) pairs.

    blocks[e] is the r x U coefficient block of edge e, rhs[e][c] its
    right-hand side under constraint c, tdata[e] = (j, uj, hrow) the
    data recovering the parameter along e, pj[e][c] the j-th offset
    coordinate.  Returns (status, candidates) with candidates a list of
    (edges, sigma): sigma[k] is the constraint carried by edges[k].
    Status NON_GENERAL aborts the run: the offsets admit a degenerate
    configuration for this type.
    """
    u_n = n + nb
    r = len(blocks[0])
    l = len(rhs[0])
    ne = len(blocks)
    if l * r != u_n:
        raise ValueError("row count does not match unknown count")

    candidates = []
    # echelon rows: (vec, mult, pivot_col); pivots[i] = value of row i
    echelon = []
    pivots = []
    chosen = []

    def push_row(vec, mult):
        """Reduce against the echelon; append or return the dependence
        multipliers."""
        w = list(vec)
        m = list(mult)
        prev = 1
        for i, (evec, emult, c) in enumerate(echelon):
            p = pivots[i]
            f = w[c]
            for j in range(u_n):
                num = p * w[j] - f * evec[j]
                assert num % prev == 0
                w[j] = num // prev
            for j in range(len(m)):
                num = p * m[j] - f * emult[j]
                assert num % prev == 0
                m[j] = num // prev
            prev = p
        for c in range(u_n):
            if w[c] != 0:
                echelon.append((w, m, c))
                pivots.append(w[c])
                return None
        return m

    def dependence_is_consistent(mult, depth):
        """Check whether some assignment zeroes the dependent combination
        of right-hand sides.  mult indexes pushed rows: row k*r + ridx
        belongs to slot k."""
        slot_values = []
        for k in range(depth + 1):
            e = chosen[k]
            vals = None
            for ridx in range(r):
                idx = k * r + ridx
                if idx < len(mult) and mult[idx]:
                    if vals is None:
                        vals = [0] * l
                    for c in range(l):
                        vals[c] += mult[idx] * rhs[e][c][ridx]
            if vals is not None:
                slot_values.append(vals)
        return _exists_zero_assignment(slot_values, l)

    status = [OK]

    def assignments_for(edges):
        """Full-rank subset: solve by adjugate, branch over injective
        constraint assignments with sign pruning."""
        mat = []
        for e in edges:
            for row in blocks[e]:
                mat.append(list(row))
        det, adj = adjugate_det(mat)
        if det == 0:
            return
        # v[k][c] = contribution of slot k under constraint c to adj * b
        v = []
        for k, e in enumerate(edges):
            vk = []
            for c in range(l):
                vec = [0] * u_n
                for ridx in range(r):
                    q = rhs[e][c][ridx]
                    if q:
                        col = k * r + ridx
                        for i in range(u_n):
                            vec[i] += adj[i][col] * q
                vk.append(vec)
            v.append(vk)
        pos = det > 0
        vmin = [[min(v[k][c][i] for c in range(l)) for i in range(u_n)]
                for k in range(l)]
        vmax = [[max(v[k][c][i] for c in range(l)) for i in range(u_n)]
                for k in range(l)]
        sfx_min = [[0] * u_n for _ in range(l + 1)]
        sfx_max = [[0] * u_n for _ in range(l + 1)]
        for k in reversed(range(l)):
            for i in range(u_n):
                sfx_min[k][i] = sfx_min[k + 1][i] + vmin[k][i]
                sfx_max[k][i] = sfx_max[k + 1][i] + vmax[k][i]
        used = [False] * l
        sigma = [0] * l

        def leaf_checks(acc):
            for b in range(nb):
                q = acc[n + b]
                if q == 0:
                    status[0] = NON_GENERAL
                    return False
                if (q > 0) != pos:
                    return False
            for k, e in enumerate(edges):
                j, uj, hrow = tdata[e]
                tt = det * pj[e][sigma[k]]
                for i in range(u_n):
                    if hrow[i]:
                        tt -= hrow[i] * acc[i]
                du = uj if pos else -uj
                if tt == 0:
                    status[0] = NON_GENERAL
                    return False
                if (tt > 0) != (du > 0):
                    return False
                lb = lbounded[e]
                if lb >= 0:
                    qq = tt - acc[n + lb] * uj
                    if qq == 0:
                        status[0] = NON_GENERAL
                        return False
                    if (qq > 0) == (du > 0):
                        return False
            return True

        def rec(k, acc):
            if status[0] == NON_GENERAL:
                return
            # bound: every length coordinate must be able to reach the
            # correct strict sign; exact zero is kept so the boundary
            # case still reaches the leaf and raises the resample flag
            for i in range(n, u_n):
                lo = acc[i] + sfx_min[k][i]
                hi = acc[i] + sfx_max[k][i]
                if pos and hi < 0:
                    return
                if not pos and lo > 0:
                    return
            if k == l:
                if leaf_checks(acc):
                    candidates.append((tuple(edges), tuple(sigma)))
                return
            for c in range(l):
                if not used[c]:
                    used[c] = True
                    sigma[k] = c
                    rec(k + 1, [a + b for a, b in zip(acc, v[k][c])])
                    used[c] = False

        rec(0, [0] * u_n)

    def dfs(start, depth):
        if status[0] == NON_GENERAL:
            return
        if depth == l:
            assignments_for(chosen)
            return
        for e in range(start, ne):
            chosen.append(e)
            saved = len(echelon)
            dead = False
            for ridx in range(r):
                mult = [0] * (u_n)
                mult[depth * r + ridx] = 1
                dep = push_row(blocks[e][ridx], mult)
                if dep is not None:
                    if dependence_is_consistent(dep, depth):
                        status[0] = NON_GENERAL
                    dead = True
                    break
            if not dead:
                dfs(e, depth + 1)
            del echelon[saved:]
            del pivots[saved:]
            chosen.pop()
            if status[0] == NON_GENERAL:
                return

    dfs(0, 0)
    if status[0] == NON_GENERAL:
        return NON_GENERAL, []
    return OK, candidates
