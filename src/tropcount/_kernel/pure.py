"""Pure Python assignment search for the incidence conditions of one type.

The system for a marked type against l affine constraints stacks, per
marking, the quotient rows of its edge; choosing which edge carries each
marking is the expensive outer loop.  Constraints that share a direction
span form a group, and inside a group an edge's rows do not depend on
which constraint it carries.  So the search runs over unordered edge
multisets, one per group, maintaining a fraction-free echelon of the
stacked coefficient blocks, and an edge subset whose blocks cannot reach
full rank is discarded once instead of once per assignment.  Dependent
subsets are only discarded after checking that no assignment of
constraints to the chosen edges (injective inside each group) makes the
degenerate system consistent; if one does, the whole run is flagged
non-general and the caller re-samples offsets.  Point conditions alone
are the one-group case.

All arithmetic is exact (Python integers); the adjugate solve is the
fraction-free elimination of lattice.  The compiled twin mirrors this
module with machine integers plus overflow detection.
"""

from operator import mul

from ..lattice import adjugate

OK = 0
NON_GENERAL = 1


def _exists_zero_assignment(slot_values, nconstr):
    """Is there an assignment of constraints to slots, injective on
    constraints, with value sum zero?  slot_values[k] is a pair
    (constraints, values): the choices open to slot k, and the value
    each gives."""
    k = len(slot_values)
    if k == 0:
        return True
    suffix_min = [0] * (k + 1)
    suffix_max = [0] * (k + 1)
    for i in reversed(range(k)):
        vals = slot_values[i][1]
        suffix_min[i] = suffix_min[i + 1] + min(vals)
        suffix_max[i] = suffix_max[i + 1] + max(vals)
    used = [False] * nconstr

    def rec(i, acc):
        if i == k:
            return acc == 0
        if acc + suffix_min[i] > 0 or acc + suffix_max[i] < 0:
            return False
        for c, v in zip(*slot_values[i]):
            if not used[c]:
                used[c] = True
                if rec(i + 1, acc + v):
                    used[c] = False
                    return True
                used[c] = False
        return False

    return rec(0, 0)


def search_points(n, nb, groups):
    """Find all candidate (edge list, assignment) pairs.

    groups[g] = (members, rows, rhs, uj) describes the constraints that
    share one direction span, with one record per edge e:
      members      their indices among all constraints;
      rows[e]      r_g + 1 rows over the U = n + nb unknowns x: the
                   edge's r_g x U coefficient block, then a last row;
      rhs[e][c]    the r_g + 1 right-hand sides of those rows under the
                   group's c-th constraint;
      uj[e]        the coefficient of the parameter along e, or 0 for an
                   edge parallel to the span.
    The last row gives the parameter along e as (rhs[e][c][-1] - last .
    x) / uj[e].  An edge parallel to the span has no parameter: its last
    row is its one quotient row beyond the block, which x must satisfy
    too.  The edges e < nb are the bounded ones, of length x[n + e].
    The slots of group 0 come first, then those of group 1, and so on.

    Returns (status, candidates) with candidates a list of
    (edges, sigma): sigma[k] is the constraint carried by edges[k].
    Status NON_GENERAL aborts the run: the offsets admit a degenerate
    configuration for this type.
    """
    u_n = n + nb
    ne = len(groups[0][1])
    l = sum(len(g[0]) for g in groups)
    # per slot: its group, its block height and the offset of its rows
    slot_group = []
    slot_r = []
    row_off = []
    rows = 0
    for g, grp in enumerate(groups):
        r = len(grp[1][0]) - 1
        for _ in grp[0]:
            slot_group.append(g)
            slot_r.append(r)
            row_off.append(rows)
            rows += r
    if rows != u_n:
        raise ValueError("row count does not match unknown count")
    # slot choices as indices into the group-ordered constraint list
    first = []
    start = 0
    for grp in groups:
        first.append(start)
        start += len(grp[0])
    choices = [range(first[g], first[g] + len(groups[g][0]))
               for g in slot_group]

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
        of right-hand sides.  mult indexes pushed rows: row
        row_off[k] + ridx belongs to slot k."""
        slot_values = []
        for k in range(depth + 1):
            g = slot_group[k]
            rhs_e = groups[g][2][chosen[k]]
            lg = len(rhs_e)
            vals = None
            for ridx in range(slot_r[k]):
                mu = mult[row_off[k] + ridx]
                if mu:
                    if vals is None:
                        vals = [0] * lg
                    for c in range(lg):
                        vals[c] += mu * rhs_e[c][ridx]
            if vals is not None:
                slot_values.append((choices[k], vals))
        return _exists_zero_assignment(slot_values, l)

    status = [OK]

    def assignments_for(edges):
        """Full-rank subset: solve by adjugate, branch over constraint
        assignments, injective inside each group, with sign pruning."""
        mat = []
        for k, e in enumerate(edges):
            mat.extend(groups[slot_group[k]][1][e][:slot_r[k]])
        det, adj = adjugate(mat)
        if det == 0:
            return
        # v[k][c] = contribution of slot k under its group's c-th
        # constraint to adj * b
        v = []
        for k, e in enumerate(edges):
            rhs_e = groups[slot_group[k]][2][e]
            vk = []
            for qs in rhs_e:
                vec = [0] * u_n
                for ridx, q in enumerate(qs[:slot_r[k]]):
                    if q:
                        col = row_off[k] + ridx
                        for i in range(u_n):
                            vec[i] += adj[i][col] * q
                vk.append(vec)
            v.append(vk)
        pos = det > 0
        sfx_min = [[0] * u_n for _ in range(l + 1)]
        sfx_max = [[0] * u_n for _ in range(l + 1)]
        for k in reversed(range(l)):
            for i in range(u_n):
                col = [vec[i] for vec in v[k]]
                sfx_min[k][i] = sfx_min[k + 1][i] + min(col)
                sfx_max[k][i] = sfx_max[k + 1][i] + max(col)
        used = [False] * l
        sigma = [0] * l
        # per slot: (constraint, its index in the group, contribution)
        opts = [[(first[slot_group[k]] + c, c, vec)
                 for c, vec in enumerate(vk)] for k, vk in enumerate(v)]
        # per slot: its edge, the edge's last row, that row's right-hand
        # sides and uj
        last = []
        for k, e in enumerate(edges):
            _, rows_g, rhs_g, uj_g = groups[slot_group[k]]
            last.append((e, rows_g[e][-1], [qs[-1] for qs in rhs_g[e]],
                         uj_g[e]))

        def leaf_checks(acc):
            # per slot: det times the last row's residual at the solution
            # acc / det; where the edge has a parameter, that is the
            # parameter times det * uj
            vals = [det * xr[sigma[k]] - sum(map(mul, row, acc))
                    for k, (_, row, xr, _) in enumerate(last)]
            # an edge parallel to its span has one row more than the
            # search used: a nonzero residual means no solution at all
            if any(tt for tt, slot in zip(vals, last) if slot[3] == 0):
                return False
            for b in range(nb):
                q = acc[n + b]
                if q == 0:
                    status[0] = NON_GENERAL
                    return False
                if (q > 0) != pos:
                    return False
            for (e, _, _, uj), tt in zip(last, vals):
                if uj == 0:
                    # consistent although overdetermined: the marked
                    # point is free along its edge
                    status[0] = NON_GENERAL
                    return False
                du = uj if pos else -uj
                if tt == 0:
                    status[0] = NON_GENERAL
                    return False
                if (tt > 0) != (du > 0):
                    return False
                if e < nb:
                    qq = tt - acc[n + e] * uj
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
                    candidates.append((tuple(edges), tuple(
                        groups[slot_group[j]][0][sigma[j]]
                        for j in range(l))))
                return
            for c, loc, vec in opts[k]:
                if not used[c]:
                    used[c] = True
                    sigma[k] = loc
                    rec(k + 1, [a + b for a, b in zip(acc, vec)])
                    used[c] = False

        rec(0, [0] * u_n)

    def dfs(start, depth):
        if status[0] == NON_GENERAL:
            return
        if depth == l:
            assignments_for(chosen)
            return
        g = slot_group[depth]
        if depth == 0 or slot_group[depth - 1] != g:
            start = 0
        rows_g = groups[g][1]
        off = row_off[depth]
        for e in range(start, ne):
            chosen.append(e)
            saved = len(echelon)
            dead = False
            for ridx, row in enumerate(rows_g[e][:slot_r[depth]]):
                mult = [0] * u_n
                mult[off + ridx] = 1
                dep = push_row(row, mult)
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
