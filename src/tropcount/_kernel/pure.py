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


def search_points(n, nb, lbounded, groups):
    """Find all candidate (edge list, assignment) pairs.

    groups[g] = (members, blocks, rhs, tdata, pj, extra) describes the
    constraints that share one direction span:
      members      their indices among all constraints;
      blocks[e]    the r_g x U coefficient block of edge e;
      rhs[e][c]    its r_g right-hand sides under the group's c-th
                   constraint;
      tdata[e]     (uj, hrow), recovering the parameter along e as
                   (pj[e][c] - hrow . x) / uj, with pj[e][c] the same
                   coordinate of the constraint's offset;
      extra[e]     None, or (row, rhs) for an edge parallel to the span:
                   its one quotient row beyond the block, and that row's
                   right-hand side under each constraint.  Such an edge
                   has no parameter (tdata[e] and pj[e] are None).
    lbounded[e] is the bounded-edge index of e, or -1.  The slots of
    group 0 come first, then those of group 1, and so on.

    Returns (status, candidates) with candidates a list of
    (edges, sigma): sigma[k] is the constraint carried by edges[k].
    Status NON_GENERAL aborts the run: the offsets admit a degenerate
    configuration for this type.
    """
    u_n = n + nb
    ne = len(lbounded)
    l = sum(len(g[0]) for g in groups)
    # per slot: its group and the offset of its rows
    slot_group = []
    row_off = []
    rows = 0
    for g, grp in enumerate(groups):
        r = len(grp[1][0])
        for _ in grp[0]:
            slot_group.append(g)
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
            for ridx in range(len(rhs_e[0])):
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
            mat.extend(groups[slot_group[k]][1][e])
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
                for ridx, q in enumerate(qs):
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
        residuals = []
        params = []
        for k, e in enumerate(edges):
            _, _, _, tdata, pj, extra = groups[slot_group[k]]
            if extra[e] is not None:
                residuals.append((k,) + extra[e])
            params.append((k, tdata[e], pj[e], lbounded[e]))

        def leaf_checks(acc):
            # an edge parallel to its span has one row more than the
            # search used: a nonzero residual means no solution at all
            for k, row, xr in residuals:
                if det * xr[sigma[k]] != sum(map(mul, row, acc)):
                    return False
            for b in range(nb):
                q = acc[n + b]
                if q == 0:
                    status[0] = NON_GENERAL
                    return False
                if (q > 0) != pos:
                    return False
            for k, td, pjk, lb in params:
                if td is None:
                    # consistent although overdetermined: the marked
                    # point is free along its edge
                    status[0] = NON_GENERAL
                    return False
                uj, hrow = td
                tt = det * pjk[sigma[k]] - sum(map(mul, hrow, acc))
                du = uj if pos else -uj
                if tt == 0:
                    status[0] = NON_GENERAL
                    return False
                if (tt > 0) != (du > 0):
                    return False
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
        blocks = groups[g][1]
        off = row_off[depth]
        for e in range(start, ne):
            chosen.append(e)
            saved = len(echelon)
            dead = False
            for ridx, row in enumerate(blocks[e]):
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
