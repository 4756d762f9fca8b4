"""Combinatorial types of rational trivalent tropical curves.

A type is a trivalent tree with unbounded ends decorated by the entries
of a degree (primitive direction, weight).  Directions of the bounded
edges are forced by the balancing condition, so a type is determined by
the tree shape plus the assignment of degree entries to ends.  Types are
kept in a canonical form so isomorphic decorated trees compare equal.

The types of a degree are generated over its multiset of entries, not
over labeled trees: rooted at an end of the rarest entry, the rest of a
tree is an unordered binary tree whose leaves are the other entries, so
equal entries never yield copies of one tree, and subtrees whose
entries sum to zero (a vanishing bounded edge) are never built.  Each
generated tree is brought to canonical form and duplicates are merged.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import lru_cache

from .lattice import is_zero, primitive, vec_neg


@dataclass(frozen=True)
class Degree:
    """Multiset of (primitive direction, weight) pairs summing to zero."""

    n: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("a degree needs at least two ends")
        total = [0] * self.n
        for u, w in self.entries:
            if len(u) != self.n:
                raise ValueError("mixed ambient ranks in degree")
            if w < 1:
                raise ValueError("end weights must be positive")
            if is_zero(u):
                raise ValueError("end directions must be nonzero")
            if primitive(u)[0] != tuple(u):
                raise ValueError("end directions must be primitive")
            for i in range(self.n):
                total[i] += w * u[i]
        if any(total):
            raise ValueError("degree entries do not balance to zero")

    @property
    def e(self):
        return len(self.entries)


def make_degree(entries):
    """Build a Degree from (direction, weight) pairs, canonically sorted."""
    norm = tuple(sorted((tuple(u), int(w)) for u, w in entries))
    if not norm:
        raise ValueError("empty degree")
    return Degree(len(norm[0][0]), norm)


@dataclass(frozen=True)
class CombType:
    """Canonical combinatorial type.

    vertices are 0..vertices-1; bounded edges are (tail, head, weight, dir)
    with the convention h(head) = h(tail) + length * dir, length > 0
    measured in units of the primitive dir.  ends are (vertex, weight, dir).
    Edge ids: bounded edges first, then ends.  markings lists the edge id
    carrying each marked point.  A degenerate type is a straight line with
    no vertex; it has a single edge with id 0.
    """

    n: int
    vertices: int
    bounded: tuple
    ends: tuple
    markings: tuple = ()
    degenerate: bool = False


def edge_count(t):
    if t.degenerate:
        return 1
    return len(t.bounded) + len(t.ends)


def is_bounded(t, eid):
    return (not t.degenerate) and eid < len(t.bounded)


def edge_weight(t, eid):
    if t.degenerate:
        return t.ends[0][1]
    if eid < len(t.bounded):
        return t.bounded[eid][2]
    return t.ends[eid - len(t.bounded)][1]


def edge_dir(t, eid):
    if t.degenerate:
        return t.ends[0][2]
    if eid < len(t.bounded):
        return t.bounded[eid][3]
    return t.ends[eid - len(t.bounded)][2]


def edge_base_vertex(t, eid):
    """Vertex from which the edge's parameterization starts."""
    if t.degenerate:
        return -1
    if eid < len(t.bounded):
        return t.bounded[eid][0]
    return t.ends[eid - len(t.bounded)][0]


def check_balanced(t):
    """Verify the balancing condition at every vertex."""
    if t.degenerate:
        u0, u1 = t.ends[0][2], t.ends[1][2]
        w0, w1 = t.ends[0][1], t.ends[1][1]
        return all(w0 * a + w1 * b == 0 for a, b in zip(u0, u1))
    for v in range(t.vertices):
        total = [0] * t.n
        for tail, head, w, u in t.bounded:
            if tail == v:
                for i in range(t.n):
                    total[i] += w * u[i]
            if head == v:
                for i in range(t.n):
                    total[i] -= w * u[i]
        for vv, w, u in t.ends:
            if vv == v:
                for i in range(t.n):
                    total[i] += w * u[i]
        if any(total):
            return False
    return True


def validate_type(t):
    """Structural checks: trivalent, connected tree, balanced."""
    if t.degenerate:
        if t.vertices != 0 or t.bounded:
            raise ValueError("degenerate type must have no vertices")
        if len(t.ends) != 2:
            raise ValueError("degenerate type must have two ends")
        if not check_balanced(t):
            raise ValueError("degenerate type is not balanced")
        return True
    if len(t.bounded) != t.vertices - 1:
        raise ValueError("bounded edge count must be vertices - 1")
    deg_ct = [0] * t.vertices
    for tail, head, w, u in t.bounded:
        deg_ct[tail] += 1
        deg_ct[head] += 1
        if w < 1 or primitive(u)[0] != tuple(u):
            raise ValueError("bounded edge data not in primitive form")
    for v, w, u in t.ends:
        deg_ct[v] += 1
    if any(d != 3 for d in deg_ct):
        raise ValueError("every vertex must be trivalent")
    # connectivity over bounded edges
    if t.vertices:
        seen = {0}
        queue = deque([0])
        adj = defaultdict(list)
        for tail, head, _, _ in t.bounded:
            adj[tail].append(head)
            adj[head].append(tail)
        while queue:
            v = queue.popleft()
            for w_ in adj[v]:
                if w_ not in seen:
                    seen.add(w_)
                    queue.append(w_)
        if len(seen) != t.vertices:
            raise ValueError("type is not connected")
    if not check_balanced(t):
        raise ValueError("type is not balanced")
    for m in t.markings:
        if not 0 <= m < edge_count(t):
            raise ValueError("marking on a nonexistent edge")
    return True


def path_signs(t):
    """Coefficients expressing vertex positions through the root.

    Returns sign[v][b] in {-1, 0, 1} so that
    h(v) = h(vertex 0) + sum_b sign[v][b] * length_b * dir_b.
    """
    nb = len(t.bounded)
    sign = [None] * t.vertices
    if t.vertices == 0:
        return []
    sign[0] = [0] * nb
    adj = defaultdict(list)
    for i, (tail, head, _, _) in enumerate(t.bounded):
        adj[tail].append((head, i, 1))
        adj[head].append((tail, i, -1))
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w_, i, s in adj[v]:
            if sign[w_] is None:
                row = list(sign[v])
                row[i] += s
                sign[w_] = row
                queue.append(w_)
    return sign


def balance_propagate(edges, leaf_data):
    """Directions of internal edges of a leaf-decorated trivalent tree.

    edges is a list of node pairs; nodes < len(leaf_data) are leaves
    carrying (direction, weight).  Returns {(x, y): vector} with the sum
    of w*u over the leaves on the y side, for both orientations of every
    internal edge, or None when some internal edge direction vanishes.
    """
    e = len(leaf_data)
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    n = len(leaf_data[0][0])
    root = next(v for v in adj if v >= e)
    below = {}
    order = []
    stack = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for nb in adj[v]:
            if nb != parent:
                stack.append((nb, v))
    dirs = {}
    for v, parent in reversed(order):
        if v < e:
            u, w = leaf_data[v]
            below[v] = tuple(w * x for x in u)
        else:
            total = [0] * n
            for nb in adj[v]:
                if nb != parent:
                    for i in range(n):
                        total[i] += below[nb][i]
            below[v] = tuple(total)
        if parent >= e:
            dirs[(parent, v)] = below[v]
            dirs[(v, parent)] = vec_neg(below[v])
    for (x, y), vec in dirs.items():
        if x >= e and y >= e and is_zero(vec):
            return None
    return dirs


def _tree_center(adj, nodes):
    """Center nodes (one or two) by iterated leaf removal."""
    degree = {v: len(adj[v]) for v in nodes}
    layer = [v for v in nodes if degree[v] <= 1]
    remaining = len(nodes)
    removed = set()
    while remaining > 2:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for nb in adj[v]:
                if nb not in removed:
                    degree[nb] -= 1
                    if degree[nb] == 1:
                        nxt.append(nb)
        layer = nxt
    return [v for v in nodes if v not in removed]


def _canonicalize(edges, leaf_data, n):
    """Canonical CombType of a labeled tree, or None when rejected.

    Returns (key, comb, gens) where key is a hashable isomorphism
    invariant and gens generate the automorphism group as permutations
    of the edge ids of comb.
    """
    e = len(leaf_data)
    dirs = balance_propagate(edges, leaf_data)
    if dirs is None:
        return None
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nodes = list(adj)

    deco = {}
    for (x, y), vec in dirs.items():
        deco[(x, y)] = primitive(vec)  # (u, w) oriented x -> y
    for v in range(e):
        u, w = leaf_data[v]
        parent = adj[v][0]
        deco[(parent, v)] = (tuple(u), w)

    codes = {}

    def code(v, parent):
        if (v, parent) in codes:
            return codes[(v, parent)]
        if v < e:
            out = ("L",)
        else:
            entries = []
            for nb in adj[v]:
                if nb != parent:
                    u, w = deco[(v, nb)]
                    entries.append((w, u, code(nb, v)))
            entries.sort()
            out = ("V", tuple(entries))
        codes[(v, parent)] = out
        return out

    centers = _tree_center(adj, nodes)
    if len(centers) == 1:
        root = centers[0]
        key = ("1", code(root, -1))
    else:
        c1, c2 = centers
        s1, s2 = code(c1, c2), code(c2, c1)
        u12, w12 = deco[(c1, c2)]
        cand_a = (s1, s2, w12, u12)
        cand_b = (s2, s1, w12, vec_neg(u12))
        # cand_a == cand_b would force the center edge direction to
        # vanish (equal decorated sides have equal leaf sums), and such
        # trees were already rejected, so the minimum is strict
        if cand_a < cand_b:
            key = ("2", cand_a)
            root = c1
        else:
            key = ("2", cand_b)
            root = c2

    vert_id = {}
    bounded = []
    ends = []
    gens_raw = []

    def build(v, parent):
        vid = len(vert_id)
        vert_id[v] = vid
        entries = []
        for nb in adj[v]:
            if nb != parent:
                u, w = deco[(v, nb)]
                entries.append((w, u, code(nb, v), nb))
        entries.sort(key=lambda item: item[:3])
        seq = []
        child_seqs = []
        for w, u, cd, nb in entries:
            if nb < e:
                rec = ("e", len(ends))
                ends.append((vid, w, u))
                sub = [rec]
            else:
                rec = ("b", len(bounded))
                bounded.append([vid, None, w, u])
                bidx = len(bounded) - 1
                sub = [rec] + build(nb, v)
                bounded[bidx][1] = vert_id[nb]
            seq.extend(sub)
            child_seqs.append(((w, u, cd), sub))
        # identical sibling subtrees give automorphism generators
        for i in range(len(child_seqs) - 1):
            if child_seqs[i][0] == child_seqs[i + 1][0]:
                gens_raw.append(list(zip(child_seqs[i][1], child_seqs[i + 1][1])))
        return seq

    build(root, -1)
    nb_total = len(bounded)

    def rec_id(rec):
        return rec[1] if rec[0] == "b" else nb_total + rec[1]

    comb = CombType(
        n=n,
        vertices=len(vert_id),
        bounded=tuple((t_, h_, w_, u_) for t_, h_, w_, u_ in bounded),
        ends=tuple(ends),
        markings=(),
    )

    ecount = edge_count(comb)
    gens = []
    for pairs in gens_raw:
        perm = list(range(ecount))
        ok = True
        for ra, rb in pairs:
            ia, ib = rec_id(ra), rec_id(rb)
            perm[ia], perm[ib] = ib, ia
        for eid in range(ecount):
            if (edge_weight(comb, perm[eid]) != edge_weight(comb, eid)
                    or edge_dir(comb, perm[eid]) != edge_dir(comb, eid)):
                ok = False
        if ok and tuple(perm) != tuple(range(ecount)):
            gens.append(tuple(perm))
    return key, comb, gens


def orbit_min(assign, gens):
    """Lexicographic minimum of a marking tuple under the group the
    generators produce."""
    if not gens:
        return tuple(assign)
    best = tuple(assign)
    seen = {best}
    queue = deque([best])
    while queue:
        cur = queue.popleft()
        for g in gens:
            img = tuple(g[x] for x in cur)
            if img not in seen:
                seen.add(img)
                if img < best:
                    best = img
                queue.append(img)
    return best


def _rooted_trees(counts, sums):
    """Unordered rooted binary trees over a multiset of leaf values.

    counts[k] is how many leaves carry value k, and sums[k] is that
    value's weighted direction w*u.  A tree is a value index (a leaf)
    or a pair of trees.  Every part of size >= 2 hangs from a bounded
    edge whose direction is the part's weighted sum, so parts summing
    to zero are never built.  Yields the trees over counts, which must
    have at least two leaves; each tree comes once up to swapping the
    two sides of a pair.
    """
    memo = {}

    def vanishes(c):
        return sum(c) >= 2 and not any(
            sum(k * s[i] for k, s in zip(c, sums))
            for i in range(len(sums[0])))

    def pairs(c):
        for a in itertools.product(*(range(k + 1) for k in c)):
            b = tuple(x - y for x, y in zip(c, a))
            if not any(a) or a > b or vanishes(a) or vanishes(b):
                continue
            left = trees(a)
            if a == b:
                for i, x in enumerate(left):
                    for y in left[i:]:
                        yield x, y
            else:
                right = trees(b)
                for x in left:
                    for y in right:
                        yield x, y

    def trees(c):
        if c not in memo:
            memo[c] = [c.index(1)] if sum(c) == 1 else list(pairs(c))
        return memo[c]

    return pairs(counts)


def _labeled_edges(root, tree, first, e):
    """Edge list of the tree with the leaf of value root attached to the
    top pair.  Leaves of value k take labels first[k], first[k] + 1, ...
    and internal nodes take labels e, e + 1, ..."""
    leaves = [itertools.count(f) for f in first]
    internal = itertools.count(e)
    edges = []

    def place(t):
        if isinstance(t, int):
            return next(leaves[t])
        v = next(internal)
        for child in t:
            edges.append((v, place(child)))
        return v

    edges.append((place(root), place(tree)))
    return edges


@lru_cache(maxsize=None)
def _unmarked_types(deg):
    """Canonical types of a degree with e >= 3 ends, in key order.

    Every type has a leaf whose value is the degree's rarest entry (ties
    broken by value); rooting there leaves an unordered rooted binary
    tree over the other entries, so generating those trees over the
    multiset, not over labeled leaves, reaches every type while equal
    entries no longer repeat one tree.  Types still reached several
    times, from different leaves of the root value, are merged by their
    canonical key.
    """
    values, first, counts = [], [], []
    for i, entry in enumerate(deg.entries):
        if not values or values[-1] != entry:
            values.append(entry)
            first.append(i)
            counts.append(0)
        counts[-1] += 1
    root = min(range(len(values)), key=lambda k: (counts[k], values[k]))
    counts[root] -= 1
    sums = [tuple(w * x for x in u) for u, w in values]
    found = {}
    for tree in _rooted_trees(tuple(counts), sums):
        edges = _labeled_edges(root, tree, first, deg.e)
        # no bounded direction vanishes, so the tree is never rejected
        key, comb, gens = _canonicalize(edges, deg.entries, deg.n)
        if key not in found:
            found[key] = (comb, gens)
    return tuple(found[k] for k in sorted(found))


def unmarked_types(deg):
    """Canonical unmarked types with automorphism generators."""
    if deg.e == 2:
        (u1, w1), (u2, w2) = deg.entries
        t = CombType(n=deg.n, vertices=0, bounded=(),
                     ends=((-1, w1, u1), (-1, w2, u2)),
                     markings=(), degenerate=True)
        return ((t, ()),)
    return _unmarked_types(deg)


def enumerate_types(deg, marks):
    """All isomorphism classes of types of the degree with marked edges.

    Marked classes are represented by the lexicographically smallest
    marking tuple in each automorphism orbit.  The list is ordered by
    canonical form, markings lexicographic within a shape.
    """
    out = []
    for comb, gens in unmarked_types(deg):
        if marks == 0:
            out.append(comb)
            continue
        ecount = edge_count(comb)
        for assign in itertools.product(range(ecount), repeat=marks):
            if not gens or assign == orbit_min(assign, gens):
                out.append(replace(comb, markings=tuple(assign)))
    return out


def automorphisms(t):
    """Generators of Aut(t) as permutations of edge ids."""
    if t.degenerate:
        return ()
    e = len(t.ends)
    # reconstruct a labeled tree: leaves 0..e-1 are the ends in order,
    # internal node i maps to e + i
    edges = []
    leaf_data = []
    for i, (v, w, u) in enumerate(t.ends):
        edges.append((i, e + v))
        leaf_data.append((u, w))
    for tail, head, w, u in t.bounded:
        edges.append((e + tail, e + head))
    item = _canonicalize(edges, leaf_data, t.n)
    if item is None:
        raise ValueError("type has a degenerate bounded edge")
    _, comb, gens = item
    if comb != replace(t, markings=()):
        raise ValueError("type is not in canonical form")
    return tuple(gens)
