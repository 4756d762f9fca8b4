"""Moment polytopes, normal fans, and small-resolution certificates.

Polytopes are given by integer facet normals with rational constants,
inequalities reading <normal, u> + constant >= 0, so normals point
inward.  Vertices come from exhaustive facet-subset intersection, which
is plenty for the handful of facets used here; the intersections, affine
ranks and determinants come from the elimination core in lattice.  A
tiny exact simplex method (Bland's rule, Fraction arithmetic) supplies
the cone tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .engine import _field, _int, _ints, _list
from .lattice import (as_int, bareiss_det, int_matrix_inverse, is_zero,
                      primitive, rank_int, solve_rational)


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col]:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def _run_phase(tab, basis, ncols):
    # bottom row holds z_j - c_j; entering while any is negative
    m = len(tab) - 1
    while True:
        col = -1
        for j in range(ncols):
            if tab[m][j] < 0:
                col = j
                break
        if col < 0:
            return "optimal"
        row = -1
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row < 0:
            return "unbounded"
        _pivot(tab, basis, row, col)


def _eq_lp(aeq, beq, obj):
    """Maximize obj . x subject to aeq x = beq, x >= 0, exactly.

    Returns (status, value, x) with status optimal, unbounded, or
    infeasible.
    """
    m = len(aeq)
    nv = len(obj)
    rows = []
    rhs = []
    for a, b in zip(aeq, beq):
        a = [Fraction(x) for x in a]
        b = Fraction(b)
        if b < 0:
            a = [-x for x in a]
            b = -b
        rows.append(a)
        rhs.append(b)
    # phase 1: artificial basis, maximize minus their sum
    tab = [rows[i] + [Fraction(int(i == k)) for k in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [nv + i for i in range(m)]
    bottom = [-sum(tab[i][j] for i in range(m)) for j in range(nv)]
    bottom += [Fraction(0)] * m
    bottom.append(-sum(rhs))
    tab.append(bottom)
    if _run_phase(tab, basis, nv + m) != "optimal" or tab[m][-1] != 0:
        return "infeasible", None, None
    for i in range(m - 1, -1, -1):
        if basis[i] < nv:
            continue
        col = next((j for j in range(nv) if tab[i][j] != 0), -1)
        if col < 0:
            del tab[i]
            del basis[i]
            m -= 1
        else:
            _pivot(tab, basis, i, col)
    tab = [row[:nv] + [row[-1]] for row in tab[:m]]
    cb = [Fraction(obj[basis[i]]) for i in range(m)]
    bottom = [sum(cb[i] * tab[i][j] for i in range(m)) - Fraction(obj[j])
              for j in range(nv)]
    bottom.append(sum(cb[i] * tab[i][-1] for i in range(m)))
    tab.append(bottom)
    if _run_phase(tab, basis, nv) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * nv
    for i in range(m):
        x[basis[i]] = tab[i][-1]
    return "optimal", tab[m][-1], x


def linprog_max(obj, rows, rhs):
    """Maximize obj . x over rows . x <= rhs with x free."""
    d = len(obj)
    aeq = []
    for a in rows:
        aeq.append(list(a) + [-x for x in a])
    m = len(aeq)
    for i, a in enumerate(aeq):
        a.extend(Fraction(int(i == k)) for k in range(m))
    c = list(obj) + [-x for x in obj] + [0] * m
    status, val, x = _eq_lp(aeq, rhs, c)
    if status != "optimal":
        return status, None, None
    return status, val, [x[j] - x[d + j] for j in range(d)]


def in_cone(rays, v):
    """Whether v is a nonnegative combination of the given rays."""
    rays = [tuple(r) for r in rays]
    if not rays:
        return is_zero(v)
    n = len(rays[0])
    aeq = [[r[i] for r in rays] for i in range(n)]
    status, _, _ = _eq_lp(aeq, list(v), [0] * len(rays))
    return status == "optimal"


def positive_functional(rays):
    """An f with <f, r> >= 1 for all rays, or None if the cone is unpointed."""
    rays = [tuple(r) for r in rays]
    n = len(rays[0])
    rows = [[-x for x in r] for r in rays]
    status, _, f = linprog_max([0] * n, rows, [-1] * len(rays))
    return f if status == "optimal" else None


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional rational polytope, inward facet normals."""

    inequalities: tuple

    def __post_init__(self):
        for a, c in self.inequalities:
            if is_zero(a) or any(int(x) != x for x in a):
                raise ValueError("normals must be nonzero integer vectors")
        if len(set(len(a) for a, _ in self.inequalities)) != 1:
            raise ValueError("mixed ambient ranks in inequalities")
        # affine rank: the rank of the points lifted to (1, p), minus one
        if rank_int([(1, *v) for v in self.vertices]) != self.n + 1:
            raise ValueError("polytope is not full-dimensional")
        rows = [[-x for x in a] for a, _ in self.inequalities]
        n = self.n
        for j in range(n):
            for s in (1, -1):
                obj = [0] * n
                obj[j] = s
                status, val, _ = linprog_max(obj, rows + [obj], [0] * len(rows) + [1])
                if status != "optimal" or val > 0:
                    raise ValueError("polytope is unbounded")

    @property
    def n(self):
        return len(self.inequalities[0][0])

    def contains(self, u):
        return all(sum(a[i] * u[i] for i in range(self.n)) + c >= 0
                   for a, c in self.inequalities)

    @cached_property
    def vertices(self):
        """All vertices, from n-subsets of tight inequalities, sorted."""
        n = self.n
        seen = set()
        out = []
        for subset in combinations(range(len(self.inequalities)), n):
            a = [self.inequalities[i][0] for i in subset]
            b = [-self.inequalities[i][1] for i in subset]
            res = solve_rational(a, b)
            if res.status != "unique":
                continue
            u = res.particular
            if u not in seen and self.contains(u):
                seen.add(u)
                out.append(u)
        return tuple(sorted(out))

    @cached_property
    def facet_indices(self):
        """Indices of inequalities tight on a codimension-one face."""
        out = []
        for i, (a, c) in enumerate(self.inequalities):
            tight = [v for v in self.vertices
                     if sum(a[k] * v[k] for k in range(self.n)) + c == 0]
            # a facet's tight vertices have affine rank n - 1
            if rank_int([(1, *v) for v in tight]) == self.n:
                out.append(i)
        return tuple(out)


def make_polytope(ineqs):
    """Build a Polytope from (normal, constant) pairs."""
    norm = tuple((tuple(map(as_int, a)), Fraction(c)) for a, c in ineqs)
    return Polytope(norm)


@dataclass(frozen=True)
class Fan:
    """Fan given by primitive rays and maximal cones as ray-index sets."""

    rays: tuple
    cones: tuple

    def __post_init__(self):
        if not self.rays or len(set(map(len, self.rays))) != 1:
            raise ValueError("fan rays must be a nonempty list of vectors "
                             "of one length")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("fan rays must be distinct")
        for r in self.rays:
            if is_zero(r) or primitive(r)[0] != tuple(r):
                raise ValueError("fan rays must be primitive")
        for cone in self.cones:
            if tuple(sorted(set(cone))) != cone or not cone:
                raise ValueError("cones must be sorted nonempty index sets")
            if cone[-1] >= len(self.rays) or cone[0] < 0:
                raise ValueError("cone indexes a missing ray")
            if positive_functional([self.rays[i] for i in cone]) is None:
                raise ValueError("cone rays are not positively independent")

    @property
    def n(self):
        return len(self.rays[0])

    def cone_rays(self, cone):
        return tuple(self.rays[i] for i in cone)


def normal_fan(p):
    """Inward-normal fan of a polytope: one maximal cone per vertex."""
    rays = []
    ray_of = {}
    for i in p.facet_indices:
        u = primitive(p.inequalities[i][0])[0]
        if u not in ray_of:
            ray_of[u] = len(rays)
            rays.append(u)
    cones = []
    for v in p.vertices:
        tight = []
        for i in p.facet_indices:
            a, c = p.inequalities[i]
            if sum(a[k] * v[k] for k in range(p.n)) + c == 0:
                tight.append(ray_of[primitive(a)[0]])
        cones.append(tuple(sorted(set(tight))))
    return Fan(tuple(rays), tuple(sorted(set(cones))))


@dataclass(frozen=True)
class RefinementCertificate:
    """Claimed simplicial refinement, cones as ray indices or ray vectors."""

    simplicial_cones: tuple

    def __post_init__(self):
        for cone in self.simplicial_cones:
            if not cone:
                raise ValueError("certificate cones must be nonempty")
            for entry in cone:
                if not isinstance(entry, (int, tuple)):
                    raise ValueError("cone entries are indices or ray tuples")


def make_certificate(cones):
    """Build a RefinementCertificate from cones of ray indices and ray
    vectors; a non-integer entry raises ValueError."""
    return RefinementCertificate(tuple(
        tuple(tuple(map(as_int, entry)) if isinstance(entry, (tuple, list))
              else as_int(entry) for entry in cone)
        for cone in cones))


def _meet_in_common_face(fan, ca, cb, normals):
    """Whether pieces ca and cb meet in the face their shared rays span:
    by the separation lemma, whether some h is 0 on the shared rays, >= 1
    on the rays j only ca has and <= -1 on the rays only cb has; in ca's
    dual basis (normals) h is the sum of (1 + z_j) normals[j], z >= 0."""
    own = [w for i, w in zip(ca, normals) if i not in cb]
    rows = [[sum(map(mul, w, fan.rays[i])) for w in own]
            for i in cb if i not in ca]
    # row . (1 + z) <= -1 as row . z + slack = -1 - sum(row)
    aeq = [row + [int(k == m) for m in range(len(rows))]
           for k, row in enumerate(rows)]
    return _eq_lp(aeq, [-1 - sum(row) for row in rows],
                  [0] * len(aeq[0]))[0] == "optimal"


def verify_small_resolution(fan, cert):
    """Check a claimed unimodular refinement of a fan, in any rank.

    Returns (ok, report).  Verifies: (a) only existing rays are used,
    (b) every certificate cone sits inside some fan cone, (c) every
    certificate cone is simplicial and unimodular, and (d) the pieces
    tile the fan: no piece is listed twice, every two pieces meet in a
    common face, every fan cone holds a piece, and every facet of a
    piece either lies on the boundary of a fan cone holding the piece
    or is shared with exactly one other piece of that fan cone.
    """
    report = []
    n = fan.n
    resolved = []
    for cone in cert.simplicial_cones:
        idx = []
        ok = True
        for entry in cone:
            if isinstance(entry, int):
                if 0 <= entry < len(fan.rays):
                    idx.append(entry)
                else:
                    report.append("(a) cone %r indexes a missing ray" %
                                  (cone,))
                    ok = False
            elif entry in fan.rays:
                idx.append(fan.rays.index(entry))
            else:
                report.append("(a) cone %r introduces a new ray %r" %
                              (cone, entry))
                ok = False
        if ok:
            resolved.append(tuple(sorted(idx)))

    unimodular = []
    for cone in resolved:
        if len(cone) != n or len(set(cone)) != n:
            report.append("(c) cone %r is not a full-dimensional simplex" %
                          (cone,))
            continue
        det = bareiss_det([list(fan.rays[i]) for i in cone])
        if abs(det) != 1:
            report.append("(c) cone %r is not unimodular, |det| = %d" %
                          (cone, abs(det)))
            continue
        unimodular.append(cone)

    homes = {}
    for cone in resolved:
        homes[cone] = [big for big in fan.cones
                       if all(in_cone(fan.cone_rays(big), fan.rays[i])
                              for i in cone)]
        if not homes[cone]:
            report.append("(b) cone %r lies in no fan cone" % (cone,))

    if not len(unimodular) == len(resolved) == len(cert.simplicial_cones):
        report.append("note: tiling check skipped, earlier violations")
        return False, report
    # column j of a piece's inverse is the normal of its facet opposite ray j
    normals = {cone: list(zip(*int_matrix_inverse(
        [list(fan.rays[i]) for i in cone]))) for cone in resolved}
    pieces = list(normals)
    report += ["(d) cone %r is listed twice" % (cone,) for cone in pieces
               if resolved.count(cone) > 1]
    for ca, cb in combinations(pieces, 2):
        if not _meet_in_common_face(fan, ca, cb, normals[ca]):
            report.append("(d) cones %r and %r do not meet in a common "
                          "face" % (ca, cb))
    for big in fan.cones:
        inside = [c for c in pieces if big in homes[c]]
        if not inside:
            report.append("(d) fan cone %r holds no piece" % (big,))
        for cone in inside:
            # a facet whose normal is >= 0 on big lies on big's boundary
            for j, normal in enumerate(normals[cone]):
                if all(sum(map(mul, normal, r)) >= 0
                       for r in fan.cone_rays(big)):
                    continue
                facet = cone[:j] + cone[j + 1:]
                others = sum(set(facet) <= set(c) for c in inside) - 1
                if others != 1:
                    report.append("(d) facet %r of cone %r is inside fan "
                                  "cone %r and shared by %d other pieces"
                                  % (facet, cone, big, others))

    ok = not any(line.startswith("(") for line in report)
    return ok, report


def table_polytope(facets, lam):
    """The polytope of a facet table (see degrees.FACET_TABLES) with
    every class parameter equal to lam > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("need lam > 0")
    return make_polytope([(a, lam * sum(coef)) for a, coef in facets])


def fan_from_json(data):
    """The Fan of {"rays", "cones"}; a ValueError names a bad field."""
    rays = _list(_field(data, "rays", "fan"), "fan.rays")
    cones = _list(_field(data, "cones", "fan"), "fan.cones")
    return Fan(tuple(_ints(r, "fan.rays[%d]" % i) for i, r in enumerate(rays)),
               tuple(_ints(c, "fan.cones[%d]" % i)
                     for i, c in enumerate(cones)))


def certificate_from_json(data):
    """The certificate of {"cones"}, each cone entry a ray index or a ray
    vector; a ValueError names a bad field."""
    cones = []
    for i, cone in enumerate(_list(_field(data, "cones", "cert"),
                                   "cert.cones")):
        entries = []
        for j, entry in enumerate(_list(cone, "cert.cones[%d]" % i)):
            at = "cert.cones[%d][%d]" % (i, j)
            entries.append(_ints(entry, at) if isinstance(entry, list)
                           else _int(entry, at))
        cones.append(entries)
    return make_certificate(cones)
