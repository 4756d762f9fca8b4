"""Counting engine.

Runs the full pipeline for a problem: enumerate combinatorial types per
degree, match them against sampled constraints, weight solutions by
their lattice multiplicity, and sum.  Offsets are re-sampled whenever
any type reports a non-general configuration, so the returned total is
the constraint-independent invariant.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from . import _kernel
from . import degrees as degmod
from .curves import (CombType, Degree, edge_count, enumerate_types,
                     make_degree, orbit_min, path_signs, unmarked_types)
from .degrees import GC3_FACETS, OCTAHEDRON_FACETS
# quotient_map is unused here, but perfbench's tracer patches it by name
from .lattice import quotient_map
from .matching import (NON_GENERAL, UNIQUE, AffineConstraint, check_basis,
                       edge_rows, generate_constraints, match_constraints,
                       verify_general)
from .multiplicity import total_multiplicity

MAX_RETRIES = 32

log = logging.getLogger("tropcount")

ODD_VANISHING_NOTE = ("an insertion from odd cohomology forces the "
                      "invariant to vanish")
DIMENSION_NOTE = "constraint codimensions do not sum to e+n-3"


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
    constraints sharing a basis, each edge's matching.edge_rows split
    into its coefficient block, the block's right-hand sides under each
    offset, and either the data that recovers the parameter along the
    edge or, for an edge parallel to the span, the one row beyond the
    block."""
    n = comb.n
    nb = len(comb.bounded)
    ne = edge_count(comb)
    sign = path_signs(comb)
    groups = []
    for basis, members in _groups(constraints):
        offsets = [constraints[i].offset for i in members]
        r = n - 1 - len(basis)

        def values(row):
            # the right-hand side of row under each offset of the group
            return tuple([sum(map(mul, off, row)) for off in offsets])

        blocks, rhs, tdata, pj, extra = [], [], [], [], []
        for eid in range(ne):
            rows, param = edge_rows(comb, sign, eid, basis)
            blocks.append(rows[:r])
            rhs.append(tuple([tuple([sum(map(mul, off, row))
                                     for row in rows[:r]])
                              for off in offsets]))
            if param is None:
                # u lies in the span: one row more, and no parameter
                extra.append((rows[r], values(rows[r])))
                tdata.append(None)
                pj.append(None)
            else:
                tdata.append(param)
                pj.append(values(param[1]))
                extra.append(None)
        groups.append((tuple(members), tuple(blocks), tuple(rhs),
                       tuple(tdata), tuple(pj), tuple(extra)))
    lbounded = tuple([e if e < nb else -1 for e in range(ne)])
    return n, nb, lbounded, tuple(groups)


def _finish_candidate(comb, markings, constraints):
    """Exact re-verification and multiplicity of one kernel candidate."""
    t = replace(comb, markings=markings)
    out = match_constraints(t, constraints)
    if out.status == NON_GENERAL:
        return None
    if out.status != UNIQUE:
        raise RuntimeError("internal: search and exact solve disagree")
    ok, problems = verify_general(t, out.solution, constraints)
    if not ok:
        raise RuntimeError("internal: solution fails verification: %s"
                           % problems)
    mult = total_multiplicity(t, constraints)
    if mult.total <= 0:
        raise RuntimeError("internal: nonpositive multiplicity")
    return CurveRecord(t, mult, out.solution)


def _count_type(task):
    """Worker: the curves of one unmarked type through the constraints,
    or None when the offsets are not general for it.  Curves come in
    the order of their marking tuples."""
    comb, gens, constraints = task
    status, cands = _kernel.search_points(*_kernel_inputs(comb, constraints))
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
        rec = _finish_candidate(comb, markings, constraints)
        if rec is None:
            return None
        curves.append(rec)
    return curves


def _count_degenerate(t, constraints):
    """Curves of the one type of a two-ended degree, or None when the
    offsets are not general for it."""
    out = match_constraints(t, constraints)
    if out.status == NON_GENERAL:
        return None
    if out.status != UNIQUE:
        return []
    mult = total_multiplicity(t, constraints)
    if mult.d_index == 0:
        return None
    return [CurveRecord(t, mult, out.solution)]


def _attempt(degrees, active, constraints, pool, workers):
    """(degree reports, None) for one sample of offsets, or (None,
    (degree, type)) for the first type whose offsets are not general.

    The types of every active degree with more than two ends go out as
    one batch, degrees in order and types in unmarked_types order, so a
    count makes one pool round trip per attempt.  Results are read
    degree by degree, so a serial attempt stops after the first degree
    that is not general.
    """
    constraints = tuple(constraints)
    types = [unmarked_types(deg) if act and deg.e > 2 else ()
             for deg, act in zip(degrees, active)]
    tasks = [(comb, gens, constraints) for ts in types for comb, gens in ts]
    if pool is None:
        results = map(_count_type, tasks)
    else:
        results = pool.map(_count_type, tasks,
                           chunksize=max(1, -(-len(tasks) // workers)))
    reports = []
    for deg, act, ts in zip(degrees, active, types):
        if not act:
            reports.append(DegreeReport(deg, False, 0, (), DIMENSION_NOTE))
            continue
        if deg.e == 2:
            t = enumerate_types(deg, len(constraints))[0]
            found = _count_degenerate(t, constraints)
            if found is None:
                return None, (deg, t)
        else:
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
    for this count.  Raises ValueError for a workers that is not a
    positive integer, and GeneralPositionError when fixed offsets are
    not general or MAX_RETRIES samples all fail.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be a positive integer, not %r"
                         % (workers,))
    t0 = time.perf_counter()
    # selected before the pool starts, so workers inherit the lane
    kernel = _kernel.implementation()
    if problem.odd_insertions:
        return CountReport(
            total=odd_class_vanishing(),
            per_degree=tuple(
                DegreeReport(deg, False, 0, (), ODD_VANISHING_NOTE)
                for deg in problem.degrees),
            seeds_used=(seed,), genericity_retries=0,
            timing=time.perf_counter() - t0,
            kernel=kernel, workers=workers,
            note=ODD_VANISHING_NOTE)

    codim_total = sum(problem.n - 1 - len(b) for b in problem.constraint_bases)
    active = []
    for deg in problem.degrees:
        if deg.n != problem.n:
            raise ValueError("degree rank differs from the problem rank")
        active.append(codim_total == deg.e + problem.n - 3)

    pool = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
        for retry in range(MAX_RETRIES):
            constraints = _constraints_for(problem, seed, retry)
            reports, bad = _attempt(problem.degrees, active, constraints,
                                    pool, workers)
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


def apply_divisor_axiom(base, factors, balanced=True):
    """Multiply a base invariant by divisor pairings.

    factors is a list of (pairing, exponent).  The caller is responsible
    for the dimension balance; when it fails the product is zero.
    """
    if not balanced:
        return 0
    out = base
    for value, exp in factors:
        out *= value ** exp
    return out


def odd_class_vanishing():
    """Invariants with an odd-degree insertion vanish identically."""
    return 0


@lru_cache(maxsize=None)
def kontsevich_oracle(d):
    """Rational plane curves of degree d through 3d-1 general points."""
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += (kontsevich_oracle(d1) * kontsevich_oracle(d2)
                  * d1 * d1 * d2
                  * (d2 * comb(3 * d - 4, 3 * d1 - 2)
                     - d1 * comb(3 * d - 4, 3 * d1 - 1)))
    return total


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
    """The degree set of a coarse_degrees list, checked field by field."""
    for i, coarse in enumerate(_list(data, where)):
        for j, item in enumerate(_list(coarse, "%s[%d]" % (where, i))):
            at = "%s[%d][%d]" % (where, i, j)
            _ints(_field(item, "ray", at), at + ".ray")
            _int(_field(item, "count", at), at + ".count", 1)
    try:
        return degmod.degree_set_from_json(data)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


# preset degree_source kinds, by the facet table whose classes they name
PRESET_FACETS = {"flag3": GC3_FACETS, "octahedron": OCTAHEDRON_FACETS}


@lru_cache(maxsize=None)
def _preset_degrees(kind, cls, max_weight):
    """The refined degrees of a preset class, expanded once per process.
    Callers check cls and max_weight first: True == 1 and 1.0 == 1 hash
    alike, so a lookup before the check would let a cached valid class
    answer a malformed one."""
    return degmod.degree_set_degrees(
        degmod.class_degree_set(PRESET_FACETS[kind], cls), max_weight)


def _degrees_from_source(src):
    kind = _field(src, "kind", "degree_source")
    if kind == "explicit":
        degrees = _list(_field(src, "degrees", "degree_source"),
                        "degree_source.degrees")
        return tuple(degree_from_json(d, "degree_source.degrees[%d]" % i)
                     for i, d in enumerate(degrees))
    max_weight = src.get("max_weight")
    if max_weight is not None:
        _int(max_weight, "degree_source.max_weight", 1)
    if kind in PRESET_FACETS:
        cls = _field(src, "class", "degree_source")
        cls = cls if isinstance(cls, list) else [cls]
        try:
            degmod.check_class(PRESET_FACETS[kind], cls)
        except ValueError as exc:
            raise ValueError("degree_source.%s" % exc) from None
        return _preset_degrees(kind, tuple(cls), max_weight)
    if kind == "coarse":
        return degmod.degree_set_degrees(_coarse_from_json(
            _field(src, "coarse_degrees", "degree_source"),
            "degree_source.coarse_degrees"), max_weight)
    raise ValueError("unknown degree_source kind %r" % (kind,))


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

    degree_source kinds: explicit degree list, flag3 ([s, t]) or
    octahedron (a) preset classes, or a coarse degree set; preset and
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


def problem_to_json(problem):
    cons = {
        "kind": "explicit" if problem.offsets is not None else "generate",
        "bases": [[list(v) for v in basis]
                  for basis in problem.constraint_bases],
        "bound": problem.bound,
    }
    if problem.offsets is not None:
        cons["offsets"] = [list(o) for o in problem.offsets]
    out = {
        "rank": problem.n,
        "degree_source": {
            "kind": "explicit",
            "degrees": [degree_to_json(d) for d in problem.degrees],
        },
        "constraints": cons,
        "options": {},
    }
    if problem.odd_insertions:
        out["options"]["odd_insertions"] = True
    return out


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
