"""Counting engine.

Runs the full pipeline for a problem: enumerate combinatorial types per
degree, match them against sampled constraints, weight solutions by
their lattice multiplicity, and sum.  Offsets are re-sampled whenever
any type reports a non-general configuration, so the returned total is
the constraint-independent invariant.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import _kernel
from .curves import (CombType, Degree, edge_base_vertex, edge_count,
                     edge_dir, make_degree, orbit_min, path_signs,
                     unmarked_types)
from .lattice import cached_quotient_map, quotient_map
from .matching import (NON_GENERAL, UNIQUE, AffineConstraint, check_basis,
                       generate_constraints, match_constraints,
                       verify_general)
from .multiplicity import total_multiplicity

MAX_RETRIES = 32

ODD_VANISHING_NOTE = ("an insertion from odd cohomology forces the "
                      "invariant to vanish")
DIMENSION_NOTE = "constraint codimensions do not sum to e+n-3"


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


def _constraints_for(problem, seed, retry):
    if problem.offsets is not None:
        if retry > 0:
            raise RuntimeError(
                "could not reach general position; increase bound")
        return [AffineConstraint(tuple(off), tuple(tuple(v) for v in basis))
                for off, basis in zip(problem.offsets,
                                      problem.constraint_bases)]
    return generate_constraints(problem.n, problem.constraint_bases, seed,
                                problem.bound, retry)


def _kernel_inputs(comb, constraints):
    """Coefficient blocks, right-hand sides and parameter-recovery data
    for the uniform point-constraint search."""
    n = comb.n
    nb = len(comb.bounded)
    u_n = n + nb
    sign = path_signs(comb)
    ne = edge_count(comb)
    blocks = []
    rhs = []
    lbounded = []
    tdata = []
    pj = []
    for eid in range(ne):
        u = edge_dir(comb, eid)
        v = edge_base_vertex(comb, eid)
        w = cached_quotient_map([u], n, quotient_map)
        ncols = len(w[0]) if w and len(w) else 0
        rows = []
        for col in range(ncols):
            row = [0] * u_n
            for j in range(n):
                row[j] = w[j][col]
            for b in range(nb):
                if sign[v][b]:
                    ub = comb.bounded[b][3]
                    row[n + b] = sign[v][b] * sum(
                        ub[j] * w[j][col] for j in range(n))
            rows.append(tuple(row))
        blocks.append(tuple(rows))
        rhs.append(tuple(
            tuple(sum(c.offset[j] * w[j][col] for j in range(n))
                  for col in range(ncols))
            for c in constraints))
        j0 = next(j for j in range(n) if u[j])
        hrow = [0] * u_n
        hrow[j0] = 1
        for b in range(nb):
            if sign[v][b]:
                hrow[n + b] = sign[v][b] * comb.bounded[b][3][j0]
        tdata.append((j0, u[j0], tuple(hrow)))
        pj.append(tuple(c.offset[j0] for c in constraints))
        lbounded.append(eid if eid < nb else -1)
    return n, nb, tuple(blocks), tuple(rhs), tuple(lbounded), tuple(tdata), \
        tuple(pj)


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


def _count_type_points(task):
    """Worker: count one unmarked type against point constraints."""
    comb, gens, constraints = task
    inputs = _kernel_inputs(comb, constraints)
    status, cands = _kernel.search_points(*inputs)
    if status == _kernel.STATUS_NON_GENERAL:
        return None
    curves = []
    seen = set()
    l = len(constraints)
    for edges, sigma in cands:
        markings = [0] * l
        for k, e in enumerate(edges):
            markings[sigma[k]] = e
        markings = tuple(markings)
        if markings in seen:
            continue
        seen.add(markings)
        if gens and orbit_min(markings, gens) != markings:
            continue
        rec = _finish_candidate(comb, markings, constraints)
        if rec is None:
            return None
        curves.append(rec)
    return curves


def _count_type_mixed(task):
    """Worker: count one unmarked type by exhausting assignments."""
    comb, gens, constraints = task
    l = len(constraints)
    ecount = edge_count(comb)
    curves = []
    for assign in itertools.product(range(ecount), repeat=l):
        if gens and orbit_min(assign, gens) != assign:
            continue
        t = replace(comb, markings=tuple(assign))
        out = match_constraints(t, constraints)
        if out.status == NON_GENERAL:
            return None
        if out.status != UNIQUE:
            continue
        ok, problems = verify_general(t, out.solution, constraints)
        if not ok:
            raise RuntimeError("internal: solution fails verification: %s"
                               % problems)
        mult = total_multiplicity(t, constraints)
        curves.append(CurveRecord(t, mult, out.solution))
    return curves


def _search_lane(problem):
    """The search lane a count reports.  Only point constraints run the
    search, so no other count selects, or builds, the compiled lane."""
    if any(problem.constraint_bases):
        return "pure"
    return _kernel.implementation()


def _count_degenerate(deg, constraints):
    from .curves import enumerate_types
    t = enumerate_types(deg, len(constraints))[0]
    out = match_constraints(t, constraints)
    if out.status == NON_GENERAL:
        return None
    if out.status != UNIQUE:
        return []
    mult = total_multiplicity(t, constraints)
    if mult.d_index == 0:
        return None
    return [CurveRecord(t, mult, out.solution)]


def _count_one_degree(deg, constraints, pool, workers):
    """Curves of one degree, or None on a non-general hit."""
    if deg.e == 2:
        return _count_degenerate(deg, constraints)
    points_only = all(not c.basis for c in constraints)
    worker = _count_type_points if points_only else _count_type_mixed
    tasks = [(comb, gens, tuple(constraints))
             for comb, gens in unmarked_types(deg)]
    if pool is None:
        results = map(worker, tasks)
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        results = pool.map(worker, tasks, chunksize=chunk)
    curves = []
    failed = False
    for res in results:
        if res is None:
            failed = True
        elif not failed:
            curves.extend(res)
    if failed:
        return None
    return curves


def count_invariant(problem, seed=0, workers=1):
    """The constraint-independent count for a problem.

    Runs every degree of the problem against one shared sample of
    constraint offsets, re-sampling (seed stream "seed:retry") until no
    type reports a non-general configuration, and sums multiplicities.
    """
    t0 = time.perf_counter()
    # selected before the pool starts, so workers inherit the lane
    kernel = _search_lane(problem)
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
            reports = []
            hit_non_general = False
            for deg, act in zip(problem.degrees, active):
                if not act:
                    reports.append(DegreeReport(deg, False, 0, (),
                                                DIMENSION_NOTE))
                    continue
                curves = _count_one_degree(deg, constraints, pool, workers)
                if curves is None:
                    hit_non_general = True
                    break
                subtotal = sum(c.multiplicity.total for c in curves)
                reports.append(DegreeReport(deg, True, subtotal,
                                            tuple(curves)))
            if not hit_non_general:
                total = sum(r.subtotal for r in reports)
                return CountReport(
                    total=total, per_degree=tuple(reports),
                    seeds_used=(seed,), genericity_retries=retry,
                    timing=time.perf_counter() - t0,
                    kernel=kernel, workers=workers)
        raise RuntimeError("could not reach general position; increase bound")
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


def parse_frac(s):
    return Fraction(s)


def degree_to_json(deg):
    return {"entries": [[list(u), w] for u, w in deg.entries]}


def degree_from_json(data):
    return make_degree([(tuple(u), w) for u, w in data["entries"]])


def _field(obj, key, where):
    """obj[key] of a problem's JSON, or a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % where)
    if key not in obj:
        raise ValueError("%s is missing %r" % (where, key))
    return obj[key]


def _degrees_from_source(src):
    from . import degrees as degmod

    kind = _field(src, "kind", "degree_source")
    if kind == "explicit":
        return tuple(degree_from_json(d)
                     for d in _field(src, "degrees", "degree_source"))
    max_weight = src.get("max_weight")
    if kind == "flag3":
        s, t = _field(src, "class", "degree_source")
        ds = degmod.preset_flag3(s, t)
    elif kind == "octahedron":
        ds = degmod.octahedron_class_set(_field(src, "class", "degree_source"))
    elif kind == "coarse":
        ds = degmod.degree_set_from_json(
            _field(src, "coarse_degrees", "degree_source"))
    else:
        raise ValueError("unknown degree_source kind %r" % (kind,))
    return degmod.degree_set_degrees(ds, max_weight)


def problem_from_json(data):
    """Build a Problem from the schema {rank, degree_source, constraints}.

    degree_source kinds: explicit degree list, flag3 or octahedron
    preset classes, or a coarse degree set; preset and coarse sources
    expand through refinement.  constraints kinds: generate (offsets
    drawn from the seed) or explicit (fixed offsets, one per basis, each
    of length rank).  A missing field, explicit offsets of the wrong
    length, a constraint basis that is not a saturated independent set
    of rank-length vectors, or a degree of another rank raise ValueError
    naming the field.
    """
    rank = _field(data, "rank", "problem")
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError("rank must be a positive integer, not %r" % (rank,))
    source = _field(data, "degree_source", "problem")
    cons = _field(data, "constraints", "problem")
    bases = tuple(tuple(tuple(v) for v in basis)
                  for basis in _field(cons, "bases", "constraints"))
    for i, basis in enumerate(bases):
        try:
            check_basis(rank, basis)
        except ValueError as exc:
            raise ValueError("constraints.bases[%d]: %s" % (i, exc)) from None
    kind = _field(cons, "kind", "constraints")
    offsets = None
    if kind == "explicit":
        offsets = tuple(tuple(x) for x in _field(cons, "offsets",
                                                 "constraints"))
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
    kwargs = {}
    if cons.get("bound") is not None:
        kwargs["bound"] = cons["bound"]
    return Problem(n=rank, degrees=degrees, constraint_bases=bases,
                   offsets=offsets,
                   odd_insertions=options.get("odd_insertions", False),
                   **kwargs)


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


def dump_report(report, fp=None):
    data = report_to_json(report)
    text = json.dumps(data, sort_keys=True, indent=2)
    if fp is not None:
        fp.write(text + "\n")
    return text
