"""Oracles that the tests check the library against.

The structural check of a combinatorial type (acceptance criterion 12)
and the classical vertex-determinant multiplicity of a plane curve
(criterion 8's cross-check) are written here, independently of the
counting path, so no library code exists only for them.
"""

from collections import defaultdict, deque

from tropcount.curves import edge_count
from tropcount.lattice import primitive


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


def mikhalkin_multiplicity(t):
    """Classical plane multiplicity: product over vertices of the
    absolute determinant of two of the three weighted flag directions."""
    if t.n != 2:
        raise ValueError("the vertex determinant form only exists in rank 2")
    if t.degenerate:
        raise ValueError("degenerate types have no vertex multiplicity")
    out = 1
    for v in range(t.vertices):
        vecs = []
        for tail, head, w, u in t.bounded:
            if tail == v:
                vecs.append((w * u[0], w * u[1]))
            if head == v:
                vecs.append((-w * u[0], -w * u[1]))
        for vv, w, u in t.ends:
            if vv == v:
                vecs.append((w * u[0], w * u[1]))
        if len(vecs) != 3:
            raise ValueError("vertex %d is not trivalent" % v)
        a, b = vecs[0], vecs[1]
        out *= abs(a[0] * b[1] - a[1] * b[0])
    return out
