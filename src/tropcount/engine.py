"""Counting engine.

Runs the full pipeline for a problem: enumerate combinatorial types per
degree, match them against sampled constraints, weight solutions by
their lattice multiplicity, and sum.  Offsets are re-sampled whenever
any type reports a non-general configuration, so the returned total is
the constraint-independent invariant.  Before any type is enumerated,
a dimension test on projections along spans of end directions
(_projection_note) marks the degrees whose curves cannot meet general
conditions; they count 0 and are never searched.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import _kernel
from . import degrees as degmod
from .curves import (CombType, Degree, edge_count, make_degree, orbit_min,
                     path_signs, unmarked_types)
# quotient_map is unused here, but perfbench's tracer patches it by name
from .lattice import quotient_map, rank_int
from .matching import (NON_GENERAL, UNIQUE, AffineConstraint, check_basis,
                       edge_rows, generate_constraints, match_constraints,
                       verify_general)
from .multiplicity import total_multiplicity

MAX_RETRIES = 32

log = logging.getLogger("tropcount")

ODD_VANISHING_NOTE = ("an insertion from odd cohomology forces the "
                      "invariant to vanish")
DIMENSION_NOTE = "constraint codimensions do not sum to e+n-3"
PROJECTION_NOTE = "no curve of this degree meets general conditions"


class GeneralPositionError(RuntimeError):
    """The offsets of a count never became general: the sampled ones
    within MAX_RETRIES attempts, or the fixed ones of the problem."""


@dataclass(frozen=True)
class Problem:
    """A counting problem: degrees of one class, constraint shapes.

    bound controls the offset sampling range.  It must be large compared
    with the number of dependence patterns a degree admits, or nearly
    every sample collides with some exact integer coincidence and the
    re-sampling loop starves; the default suits the degrees handled here.
    """

    n: int
    degrees: tuple
    constraint_bases: tuple
    offsets: tuple | None = None
    bound: int = 10 ** 6
    odd_insertions: bool = False


@dataclass(frozen=True)
class CurveRecord:
    type: CombType
    multiplicity: object
    solution: object


@dataclass(frozen=True)
class DegreeReport:
    degree: Degree
    active: bool
    subtotal: int
    curves: tuple
    note: str = ""


@dataclass(frozen=True)
class CountReport:
    total: int
    per_degree: tuple
    seeds_used: tuple
    genericity_retries: int
    timing: float
    kernel: str
    workers: int
    note: str = ""


def _groups(constraints):
    """(basis, constraint indices) pairs, in order of first use."""
    groups = {}
    for i, c in enumerate(constraints):
        groups.setdefault(c.basis, []).append(i)
    return list(groups.items())


def _constraints_for(problem, seed, retry):
    if problem.offsets is not None:
        return [AffineConstraint(tuple(off), tuple(tuple(v) for v in basis))
                for off, basis in zip(problem.offsets,
                                      problem.constraint_bases)]
    return generate_constraints(problem.n, problem.constraint_bases, seed,
                                problem.bound, retry)


def _kernel_inputs(comb, constraints):
    """Search inputs of one type (see _kernel.pure): per group of
    constraints sharing a basis, each edge's matching.edge_rows with its
    parameter row last, the rows' right-hand sides under each offset,
    and the parameter's coefficient uj.  An edge parallel to the span
    has no parameter: its last row is the one beyond the block, and its
    uj is 0."""
    ne = edge_count(comb)
    sign = path_signs(comb)
    groups = []
    for basis, members in _groups(constraints):
        offsets = [constraints[i].offset for i in members]
        rows, rhs, uj = [], [], []
        for eid in range(ne):
            edge, param = edge_rows(comb, sign, eid, basis)
            if param is not None:
                edge += (param[1],)
            rows.append(edge)
            rhs.append(tuple([tuple([sum(map(mul, off, row)) for row in edge])
                              for off in offsets]))
            uj.append(0 if param is None else param[0])
        groups.append((tuple(members), tuple(rows), tuple(rhs), tuple(uj)))
    return comb.n, len(comb.bounded), tuple(groups)


def _finish_candidate(t, solution, constraints):
    """The CurveRecord of a marked type's unique exact solution, after
    the independent check and the multiplicity."""
    ok, problems = verify_general(t, solution, constraints)
    if not ok:
        raise RuntimeError("internal: solution fails verification: %s"
                           % problems)
    mult = total_multiplicity(t, constraints)
    if mult.total <= 0:
        raise RuntimeError("internal: nonpositive multiplicity")
    return CurveRecord(t, mult, solution)


def _count_type(task):
    """Worker: the curves of one unmarked type through the constraints,
    or None when the offsets are not general for it.  The search
    proposes marking tuples; a two-ended type's one edge carries every
    marking, so its one tuple needs none.  The exact match decides each
    tuple, and curves come in the order of their marking tuples."""
    comb, gens, constraints = task
    if comb.degenerate:
        found = {(0,) * len(constraints)}
    else:
        status, cands = _kernel.search_points(
            *_kernel_inputs(comb, constraints))
        if status == _kernel.STATUS_NON_GENERAL:
            return None
        found = set()
        for edges, sigma in cands:
            markings = [0] * len(constraints)
            for e, c in zip(edges, sigma):
                markings[c] = e
            markings = tuple(markings)
            if not gens or orbit_min(markings, gens) == markings:
                found.add(markings)
    curves = []
    for markings in sorted(found):
        t = replace(comb, markings=markings)
        out = match_constraints(t, constraints)
        if out.status == NON_GENERAL:
            return None
        if out.status == UNIQUE:
            curves.append(_finish_candidate(t, out.solution, constraints))
        elif not comb.degenerate:
            # a line may miss its conditions; a search candidate may not
            raise RuntimeError("internal: search and exact solve disagree")
    return curves


@lru_cache(maxsize=None)
def _projection_note(deg, bases):
    """A note naming K, m and e' when some span K != R^n of the degree's
    end directions shows that its curves cannot meet general conditions
    of these bases; "" otherwise.

    A curve's image in R^n/K (m = n - dim K) moves in a family of
    dimension at most D: m when every end lies in K (e' = 0), else
    e' + m - 3 for the e' ends outside K.  Meeting condition i costs the
    image m - d_i dimensions, or max(0, m - 1 - d_i) when the point can
    slide along it (e' > 0), with d_i = dim(K + span B_i) - dim K.  If
    these costs exceed D, general offsets leave no curve, and a degree's
    count is the same for all general offsets.  K = 0 gives equality on
    every active degree.  Each K is visited once, keyed by the end
    directions it holds; the largest K that applies is named.
    """
    dirs = sorted({u for u, _ in deg.entries})
    flats, todo = {}, [()]
    for span in todo:
        inside = tuple(u for u in dirs if rank_int(span + (u,)) == len(span))
        if inside not in flats:
            flats[inside] = span
            if len(span) + 1 < deg.n:
                todo.extend(span + (u,) for u in dirs if u not in inside)
    # largest K first, so a degree in a plane is named by its plane
    for inside, span in reversed(flats.items()):
        r = len(span)
        m = deg.n - r
        ep = sum(u not in inside for u, _ in deg.entries)
        cost = sum(max(0, m - (ep > 0) - rank_int(span + b) + r)
                   for b in bases)
        if cost > (ep + m - 3 if ep else m):
            return "%s: along span{%s}, m=%d and e'=%d" % (
                PROJECTION_NOTE, ", ".join(map(str, span)), m, ep)
    return ""


def _attempt(degrees, fixed, types, constraints, pool, workers):
    """(degree reports, None) for one sample of offsets, or (None,
    (degree, type)) for the first unmarked type whose offsets are not
    general.

    fixed holds, per degree, its report when it is not searched (an
    inactive degree, or one _projection_note proves zero), else None;
    types holds, per degree, the unmarked types to search.  The types of
    every searched degree, a two-ended degree's one line among them, go
    out as one batch, degrees in order and types in unmarked_types
    order, so a count makes one pool round trip per attempt, or none
    when pool is None.  Results are read degree by degree, so a serial
    attempt stops after the first degree that is not general.
    """
    constraints = tuple(constraints)
    tasks = [(comb, gens, constraints) for ts in types for comb, gens in ts]
    if pool is None:
        results = map(_count_type, tasks)
    else:
        results = pool.map(_count_type, tasks,
                           chunksize=max(1, -(-len(tasks) // workers)))
    reports = []
    for deg, fix, ts in zip(degrees, fixed, types):
        if fix is not None:
            reports.append(fix)
            continue
        found, bad = [], None
        # zip asks ts first, so it takes exactly this degree's results
        for (comb, _), res in zip(ts, results):
            if res is None:
                if bad is None:
                    bad = comb
            elif bad is None:
                found.extend(res)
        if bad is not None:
            return None, (deg, bad)
        reports.append(DegreeReport(
            deg, True, sum(c.multiplicity.total for c in found),
            tuple(found)))
    return reports, None


def count_invariant(problem, seed=0, workers=1):
    """The constraint-independent count for a problem.

    Runs every degree of the problem against one shared sample of
    constraint offsets, re-sampling (seed stream "seed:retry") until no
    type reports a non-general configuration, and sums multiplicities.
    workers > 1 runs the per-type searches in a process pool started
    for this count, unless every searched type is a line, which needs
    no search.  An active degree that _projection_note proves zero is
    decided once, before the first sample: it reports subtotal 0, no
    curves and the note, and is never searched.  So offsets are checked
    for generality only on searched degrees, and fixed offsets that are
    special only for a skipped degree count instead of raising.  Raises
    ValueError for a workers that is not a positive integer, and
    GeneralPositionError when fixed offsets are not general or
    MAX_RETRIES samples all fail.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be a positive integer, not %r"
                         % (workers,))
    t0 = time.perf_counter()
    # selected before the pool starts, so workers inherit the lane
    kernel = _kernel.implementation()
    if problem.odd_insertions:
        return CountReport(
            total=0,
            per_degree=tuple(
                DegreeReport(deg, False, 0, (), ODD_VANISHING_NOTE)
                for deg in problem.degrees),
            seeds_used=(seed,), genericity_retries=0,
            timing=time.perf_counter() - t0,
            kernel=kernel, workers=workers,
            note=ODD_VANISHING_NOTE)

    bases = tuple(tuple(map(tuple, b)) for b in problem.constraint_bases)
    codim_total = sum(problem.n - 1 - len(b) for b in bases)
    fixed = []
    for deg in problem.degrees:
        if deg.n != problem.n:
            raise ValueError("degree rank differs from the problem rank")
        if codim_total != deg.e + problem.n - 3:
            fixed.append(DegreeReport(deg, False, 0, (), DIMENSION_NOTE))
        else:
            note = _projection_note(deg, bases)
            fixed.append(DegreeReport(deg, True, 0, (), note) if note
                         else None)

    types = [unmarked_types(deg) if fix is None else ()
             for deg, fix in zip(problem.degrees, fixed)]
    pool = None
    try:
        if workers > 1 and not all(comb.degenerate
                                   for ts in types for comb, _ in ts):
            pool = ProcessPoolExecutor(max_workers=workers)
        for retry in range(MAX_RETRIES):
            constraints = _constraints_for(problem, seed, retry)
            reports, bad = _attempt(problem.degrees, fixed, types,
                                    constraints, pool, workers)
            if bad is None:
                return CountReport(
                    total=sum(r.subtotal for r in reports),
                    per_degree=tuple(reports),
                    seeds_used=(seed,), genericity_retries=retry,
                    timing=time.perf_counter() - t0,
                    kernel=kernel, workers=workers)
            where = "degree %s at type %s" % (
                json.dumps(degree_to_json(bad[0])),
                json.dumps(comb_type_to_json(bad[1])))
            if problem.offsets is not None:
                raise GeneralPositionError(
                    "the fixed offsets are not in general position for "
                    + where)
            log.info("offsets of retry %d are not general for %s; "
                     "re-sampling", retry, where)
        raise GeneralPositionError(
            "could not reach general position in %d attempts with bound %d;"
            " the last was not general for %s; increase bound"
            % (MAX_RETRIES, problem.bound, where))
    finally:
        if pool is not None:
            pool.shutdown()


def kontsevich_oracle(d):
    """Rational plane curves of degree d through 3d-1 general points, by
    Kontsevich's recursion, built up from N_1 = 1 without recursing."""
    if d < 1:
        raise ValueError("degree must be positive, not %d" % d)
    n = [0, 1]
    for k in range(2, d + 1):
        m = 3 * k - 4
        total = 0
        # c = comb(m, j) for j = 3 * k1 - 2, stepped from its neighbours
        c = m
        for k1 in range(1, k):
            j = 3 * k1 - 2
            c1 = c * (m - j) // (j + 1)  # comb(m, j + 1)
            k2 = k - k1
            total += n[k1] * n[k2] * k1 * k1 * k2 * (k2 * c - k1 * c1)
            c = c1 * (m - j - 1) // (j + 2) * (m - j - 2) // (j + 3)
        n.append(total)
    return n[d]


def _frac_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def degree_to_json(deg):
    return {"entries": [[list(u), w] for u, w in deg.entries]}


def _field(obj, key, where):
    """obj[key] of a problem's JSON, or a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % where)
    if key not in obj:
        raise ValueError("%s is missing %r" % (where, key))
    return obj[key]


def _list(x, where):
    """x when it is a JSON list, or a ValueError naming the field."""
    if not isinstance(x, (list, tuple)):
        raise ValueError("%s must be a JSON list, not %r" % (where, x))
    return x


def _int(x, where, low=None):
    """x when it is a JSON integer (not a bool or a float) of at least
    low, or a ValueError naming the field."""
    if type(x) is not int or (low is not None and x < low):
        raise ValueError("%s must be an integer%s, not %r" % (
            where, "" if low is None else " >= %d" % low, x))
    return x


def _ints(x, where):
    """x as a tuple of JSON integers, or a ValueError naming the entry."""
    return tuple(_int(v, "%s[%d]" % (where, i))
                 for i, v in enumerate(_list(x, where)))


def degree_from_json(data, where="degree"):
    """The Degree of {"entries": [[direction, weight], ...]}; a
    ValueError names the field at fault, under the prefix where."""
    entries = []
    for i, entry in enumerate(_list(_field(data, "entries", where),
                                    where + ".entries")):
        at = "%s.entries[%d]" % (where, i)
        if len(_list(entry, at)) != 2:
            raise ValueError("%s must be a [direction, weight] pair" % at)
        entries.append((_ints(entry[0], at + "[0]"),
                        _int(entry[1], at + "[1]", 1)))
    try:
        return make_degree(entries)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def _coarse_from_json(data, where):
    """The DegreeSet of a coarse_degrees list, each member a list of
    {"ray", "count"} items; a ValueError names the field at fault, under
    the prefix where."""
    members = []
    for i, coarse in enumerate(_list(data, where)):
        at = "%s[%d]" % (where, i)
        entries = []
        for j, item in enumerate(_list(coarse, at)):
            item_at = "%s[%d]" % (at, j)
            entries.append((_ints(_field(item, "ray", item_at),
                                  item_at + ".ray"),
                            _int(_field(item, "count", item_at),
                                 item_at + ".count", 1)))
        if not entries:
            raise ValueError("%s is empty" % at)
        try:
            members.append(degmod.make_coarse(len(entries[0][0]), entries))
        except ValueError as exc:
            raise ValueError("%s: %s" % (at, exc)) from None
    try:
        return degmod.make_degree_set(members)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


@lru_cache(maxsize=None)
def _preset_degrees(kind, cls, max_weight):
    """The refined degrees of a preset class, expanded once per process.
    Callers check cls and max_weight first: True == 1 and 1.0 == 1 hash
    alike, so a lookup before the check would let a cached valid class
    answer a malformed one."""
    return degmod.degree_set_degrees(
        degmod.class_degree_set(degmod.FACET_TABLES[kind], cls), max_weight)


def _degrees_from_source(src):
    kind = _field(src, "kind", "degree_source")
    # compared, not hashed: a kind may be any JSON value
    if kind not in ("explicit", "coarse", *degmod.FACET_TABLES):
        raise ValueError("unknown degree_source kind %r" % (kind,))
    if kind == "explicit":
        degrees = _list(_field(src, "degrees", "degree_source"),
                        "degree_source.degrees")
        return tuple(degree_from_json(d, "degree_source.degrees[%d]" % i)
                     for i, d in enumerate(degrees))
    max_weight = src.get("max_weight")
    if max_weight is not None:
        _int(max_weight, "degree_source.max_weight", 1)
    if kind in degmod.FACET_TABLES:
        cls = _field(src, "class", "degree_source")
        cls = cls if isinstance(cls, list) else [cls]
        try:
            degmod.check_class(degmod.FACET_TABLES[kind], cls)
        except ValueError as exc:
            raise ValueError("degree_source.%s" % exc) from None
        return _preset_degrees(kind, tuple(cls), max_weight)
    return degmod.degree_set_degrees(_coarse_from_json(
        _field(src, "coarse_degrees", "degree_source"),
        "degree_source.coarse_degrees"), max_weight)


def _bases_from_json(obj, rank, where):
    """The constraint bases obj["bases"], each a saturated independent
    set of integer vectors of length rank; a ValueError names the field
    at fault, under the prefix where."""
    bases = []
    for i, basis in enumerate(_list(_field(obj, "bases", where),
                                    where + ".bases")):
        at = "%s.bases[%d]" % (where, i)
        bases.append(tuple(_ints(v, "%s[%d]" % (at, j))
                           for j, v in enumerate(_list(basis, at))))
        try:
            check_basis(rank, bases[-1])
        except ValueError as exc:
            raise ValueError("%s: %s" % (at, exc)) from None
    return tuple(bases)


def _bound_from_json(obj, where):
    """obj["bound"], or Problem.bound when it is absent or null."""
    if obj.get("bound") is None:
        return Problem.bound
    # 0 is legal: the offsets are all zero and the retries starve
    return _int(obj["bound"], where + ".bound", 0)


def constraint_spec_from_json(data):
    """(rank, bases, bound) of a constraint spec {rank, bases, bound},
    read as problem_from_json reads them; a ValueError names the field
    at fault under the prefix spec."""
    rank = _int(_field(data, "rank", "spec"), "spec.rank", 1)
    return rank, _bases_from_json(data, rank, "spec"), \
        _bound_from_json(data, "spec")


def problem_from_json(data):
    """Build a Problem from the schema {rank, degree_source, constraints}.

    degree_source kinds: explicit degree list, a coarse degree set, or
    a key of degrees.FACET_TABLES with a class of its table; preset and
    coarse sources expand through refinement.  constraints kinds:
    generate (offsets drawn from the seed) or explicit (fixed offsets,
    one per basis, each of length rank).  options odd_insertions and
    long (read by the command line) are JSON booleans.  A missing field,
    a malformed class, max_weight or option, explicit offsets of the
    wrong length, a constraint basis that is not a saturated independent
    set of rank-length vectors, a float or string where an integer
    belongs, or a degree of another rank raise ValueError naming the
    field.  A preset class is expanded once per process.
    """
    rank = _int(_field(data, "rank", "problem"), "rank", 1)
    source = _field(data, "degree_source", "problem")
    cons = _field(data, "constraints", "problem")
    bases = _bases_from_json(cons, rank, "constraints")
    kind = _field(cons, "kind", "constraints")
    offsets = None
    if kind == "explicit":
        offsets = _list(_field(cons, "offsets", "constraints"),
                        "constraints.offsets")
        offsets = tuple(_ints(off, "constraints.offsets[%d]" % i)
                        for i, off in enumerate(offsets))
        if len(offsets) != len(bases):
            raise ValueError("constraints.offsets has %d entries for %d bases"
                             % (len(offsets), len(bases)))
        for i, off in enumerate(offsets):
            if len(off) != rank:
                raise ValueError("constraints.offsets[%d] has %d coordinates,"
                                 " not rank %d" % (i, len(off), rank))
    elif kind != "generate":
        raise ValueError("unknown constraints kind %r" % (kind,))
    degrees = _degrees_from_source(source)
    for deg in degrees:
        if deg.n != rank:
            raise ValueError("degree_source gives a degree of rank %d, not"
                             " rank %d" % (deg.n, rank))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValueError("options must be a JSON object")
    for key in ("long", "odd_insertions"):
        if not isinstance(options.get(key, False), bool):
            raise ValueError("options.%s must be true or false, not %r"
                             % (key, options[key]))
    return Problem(n=rank, degrees=degrees, constraint_bases=bases,
                   offsets=offsets,
                   odd_insertions=options.get("odd_insertions", False),
                   bound=_bound_from_json(cons, "constraints"))


def comb_type_to_json(t):
    return {
        "vertices": t.vertices,
        "bounded": [[tail, head, w, list(u)] for tail, head, w, u in t.bounded],
        "ends": [[v, w, list(u)] for v, w, u in t.ends],
        "markings": list(t.markings),
        "degenerate": t.degenerate,
    }


def report_to_json(report):
    def curve_json(c):
        return {
            "type": comb_type_to_json(c.type),
            "multiplicity": {
                "weight": c.multiplicity.weight,
                "d_index": c.multiplicity.d_index,
                "deltas": list(c.multiplicity.deltas),
                "total": c.multiplicity.total,
            },
            "solution": {
                "root": [_frac_str(x) for x in c.solution.root],
                "lengths": [_frac_str(x) for x in c.solution.lengths],
                "params": [_frac_str(x) for x in c.solution.params],
            },
        }

    return {
        "total": report.total,
        "per_degree": [
            {
                "degree": degree_to_json(r.degree),
                "active": r.active,
                "subtotal": r.subtotal,
                "note": r.note,
                "curves": [curve_json(c) for c in r.curves],
            }
            for r in report.per_degree
        ],
        "seeds_used": list(report.seeds_used),
        "genericity_retries": report.genericity_retries,
        "timing": report.timing,
        "kernel": report.kernel,
        "workers": report.workers,
        "note": report.note,
    }
