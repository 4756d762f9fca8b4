"""Coarse degrees and their enumeration under linear constraints.

A coarse degree records, per primitive direction, the total weight of all
ends pointing that way.  Curve classes enter as integer linear constraints
on these ray totals.  A family with a toric degeneration enters as one
facet table of its moment polytope, registered in FACET_TABLES under the
degree_source kind that names it: class_degree_set reads the rays, the
class functionals and the number of ends off the table, and
toric.table_polytope builds the polytope from the same table.
"""

from dataclasses import dataclass
from operator import mul

from .curves import make_degree
from .lattice import as_int, is_zero, primitive, solve_rational

# The facet tables of the families, by the degree_source kind that
# names them: per facet, its inward normal and the coefficients of its
# constant in the class parameters.  The first is the degree-three
# Gelfand-Cetlin polytope of the flag threefold, the second the moment
# polytope of the X_{2,2} in P^5 degeneration.
FACET_TABLES = {
    "flag3": (
        ((0, -1, 0), (1, 1)),
        ((0, 1, 0), (-1, 0)),
        ((-1, 0, 0), (1, 0)),
        ((1, 0, 0), (0, 0)),
        ((0, 1, -1), (0, 0)),
        ((-1, 0, 1), (0, 0)),
    ),
    "octahedron": (
        ((0, 1, 1), (0,)),
        ((-1, 0, 0), (1,)),
        ((0, -1, 0), (1,)),
        ((1, 0, 1), (0,)),
        ((0, 1, 0), (0,)),
        ((-1, 0, -1), (1,)),
        ((0, -1, -1), (1,)),
        ((1, 0, 0), (0,)),
    ),
}


@dataclass(frozen=True)
class CoarseDegree:
    """Finite-support map from primitive directions to positive totals.

    values is canonically sorted ((direction, total), ...) with every
    total >= 1; the weighted direction sum must vanish.
    """

    n: int
    values: tuple

    def __post_init__(self):
        acc = [0] * self.n
        seen = set()
        for v, c in self.values:
            if len(v) != self.n:
                raise ValueError("mixed ambient ranks in coarse degree")
            if v in seen:
                raise ValueError("duplicate direction in coarse degree")
            seen.add(v)
            if is_zero(v) or primitive(v)[0] != tuple(v):
                raise ValueError("directions must be primitive")
            if c < 1:
                raise ValueError("support totals must be positive")
            for i in range(self.n):
                acc[i] += c * v[i]
        if any(acc):
            raise ValueError("coarse degree does not balance to zero")
        if self.values != tuple(sorted(self.values)):
            raise ValueError("coarse degree values must be sorted")

    @property
    def mass(self):
        return sum(c for _, c in self.values)


def make_coarse(n, entries):
    """Build a CoarseDegree from (direction, total) pairs, dropping zeros;
    a non-integer entry raises ValueError."""
    vals = tuple(sorted((tuple(map(as_int, v)), as_int(c))
                        for v, c in entries if c))
    return CoarseDegree(n, vals)


@dataclass(frozen=True)
class DegreeSet:
    """Deduplicated sorted set of coarse degrees of one ambient rank."""

    coarse_degrees: tuple

    def __post_init__(self):
        vals = tuple(cd.values for cd in self.coarse_degrees)
        if len(set(vals)) != len(vals):
            raise ValueError("degree set has duplicates")
        if vals != tuple(sorted(vals)):
            raise ValueError("degree set must be sorted")
        if len(set(cd.n for cd in self.coarse_degrees)) > 1:
            raise ValueError("mixed ambient ranks in degree set")


def make_degree_set(members):
    uniq = {cd.values: cd for cd in members}
    return DegreeSet(tuple(uniq[k] for k in sorted(uniq)))


def _partitions(total, max_part):
    # non-increasing positive parts
    if total == 0:
        yield ()
        return
    for head in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - head, head):
            yield (head,) + rest


def refine_coarse(coarse, max_weight=None):
    """All degrees whose coarse degree is the given one.

    Each ray total splits into end weights; parts are capped by
    max_weight (default: the full mass, so no effective cap).
    """
    if not coarse.values:
        return ()
    if max_weight is None:
        max_weight = coarse.mass
    per_ray = []
    for v, c in coarse.values:
        per_ray.append([(v, p) for p in _partitions(c, max_weight)])
    out = []

    def walk(i, acc):
        if i == len(per_ray):
            entries = []
            for v, parts in acc:
                entries.extend((v, w) for w in parts)
            out.append(make_degree(entries))
            return
        for v, parts in per_ray[i]:
            walk(i + 1, acc + [(v, parts)])

    walk(0, [])
    return tuple(sorted(out, key=lambda d: d.entries))


def enumerate_coarse_degrees(rays, linear_constraints, total):
    """Balanced nonneg ray totals of the given mass meeting every linear
    constraint, a list of (coefficients per ray, target).

    The search is exhaustive: every split of the mass among the rays,
    the last ray taking the remainder.
    """
    rays = [tuple(r) for r in rays]
    if len(set(rays)) != len(rays):
        raise ValueError("rays must be pairwise distinct")
    for r in rays:
        if is_zero(r) or primitive(r)[0] != r:
            raise ValueError("rays must be primitive")
    n = len(rays[0])
    # balancing: one constraint per coordinate, with target zero
    checks = [(col, 0) for col in zip(*rays)] + list(linear_constraints)
    found = []
    counts = [0] * len(rays)
    last = len(rays) - 1

    def walk(i, left):
        if i == last:
            counts[i] = left
            if all(sum(map(mul, counts, coeffs)) == target
                   for coeffs, target in checks):
                found.append(make_coarse(n, zip(rays, counts)))
            return
        for c in range(left + 1):
            counts[i] = c
            walk(i + 1, left - c)

    walk(0, total)
    return make_degree_set(found)


def check_class(facets, cls):
    """Raise ValueError unless cls is one nonnegative integer (not a
    bool or a float) per class parameter of the facet table, not all
    zero."""
    k = len(facets[0][1])
    if (len(cls) != k or any(type(c) is not int for c in cls)
            or min(cls) < 0 or not any(cls)):
        raise ValueError("class must be %d nonnegative integer%s, not all "
                         "zero, not %r" % (k, "s" * (k > 1), cls))


def end_count(facets, cls):
    """The number of ends -K.beta of class cls (see check_class) for a
    facet table.

    -K, the sum of the toric divisors, is alpha . (class divisors) plus
    the principal divisor of m: solve alpha . coef_rho + <a_rho, m> = 1
    over the facets rho; then -K.beta is alpha . cls.
    """
    check_class(facets, cls)
    res = solve_rational([coef + a for a, coef in facets], [1] * len(facets))
    if res.status != "unique":
        raise ValueError("facet table %r has no unique anticanonical "
                         "solution" % (facets,))
    return int(sum(map(mul, res.particular, cls)))


def class_degree_set(facets, cls):
    """Every coarse degree of class cls for a facet table, which lists
    (inward normal, coefficients of its constant in the class
    parameters) per facet (see FACET_TABLES).

    The rays are the outward normals.  Functional i takes a ray to
    coefficient i of its facet's constant; a member meets it at cls[i]
    and has end_count(facets, cls) ends.  The octahedron's sets hold,
    from class 2 on, members mixing rays of different opposite pairs;
    mixed point and line counts need them to be invariant.
    """
    ends = end_count(facets, cls)
    rays = [tuple(-x for x in a) for a, _ in facets]
    functionals = zip(zip(*(coef for _, coef in facets)), cls)
    return enumerate_coarse_degrees(rays, functionals, ends)


def plane_degree(d):
    """Plane curves of degree d: ends (-1,0), (0,-1), (1,1), d of each."""
    if d < 1:
        raise ValueError("need d >= 1")
    return make_degree([((-1, 0), 1)] * d + [((0, -1), 1)] * d +
                       [((1, 1), 1)] * d)


def degree_set_degrees(ds, max_weight=None):
    """All refined degrees of a degree set, deduplicated and sorted."""
    out = {}
    for cd in ds.coarse_degrees:
        for deg in refine_coarse(cd, max_weight):
            out[deg.entries] = deg
    return tuple(out[k] for k in sorted(out))
