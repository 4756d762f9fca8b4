"""Counting engine: axioms, oracle, JSON schemas, lanes, regressions."""

import ast
import functools
import importlib.util
import inspect
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount import _kernel, curves, degrees, engine, matching
from tropcount._kernel import pure
from tropcount.lattice import bareiss_det, saturation_index, solve_rational
from tropcount.matching import (NON_GENERAL, NONE, UNIQUE, AffineConstraint,
                                match_constraints, verify_general)
from tropcount.multiplicity import Multiplicity


def octahedron_set(a):
    return degrees.class_degree_set(degrees.FACET_TABLES["octahedron"], (a,))


def octahedron_problem(a, bases, **kw):
    degs = degrees.degree_set_degrees(octahedron_set(a))
    return engine.Problem(n=3, degrees=degs, constraint_bases=bases, **kw)


def test_kontsevich_oracle():
    assert [engine.kontsevich_oracle(d) for d in range(1, 6)] == \
        [1, 1, 12, 620, 87304]
    with pytest.raises(ValueError):
        engine.kontsevich_oracle(0)


@functools.lru_cache(maxsize=None)
def recursive_oracle(d):
    """Kontsevich's recursion for N_d, as written."""
    return 1 if d == 1 else sum(
        recursive_oracle(d1) * recursive_oracle(d - d1) * d1 * d1 * (d - d1)
        * ((d - d1) * math.comb(3 * d - 4, 3 * d1 - 2)
           - d1 * math.comb(3 * d - 4, 3 * d1 - 1)) for d1 in range(1, d))


def test_kontsevich_oracle_does_not_recurse():
    """The oracle builds N_1 ... N_d bottom-up, so at a recursion limit
    that leaves 50 frames it answers degree 120, which the recursion as
    written (run first at the default limit) needs 120 frames for."""
    expected = recursive_oracle(120)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        assert engine.kontsevich_oracle(120) == expected
    finally:
        sys.setrecursionlimit(limit)


def test_odd_insertion_short_circuit():
    prob = octahedron_problem(1, ((),), odd_insertions=True)
    rep = engine.count_invariant(prob)
    assert rep.total == 0
    assert all(not r.active for r in rep.per_degree)
    assert rep.note == engine.ODD_VANISHING_NOTE


def test_dimension_gate_marks_inactive():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), (), ()))
    rep = engine.count_invariant(prob)
    assert rep.total == 0
    (r,) = rep.per_degree
    assert not r.active and r.note == engine.DIMENSION_NOTE


def test_rank_mismatch_raises():
    prob = engine.Problem(n=3, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()))
    with pytest.raises(ValueError):
        engine.count_invariant(prob)


def test_octahedron_line_against_two_lines():
    distinct = octahedron_problem(1, (((0, 0, 1),), ((0, 1, 0),)))
    assert engine.count_invariant(distinct, seed=1).total == 2
    repeated = octahedron_problem(1, (((0, 0, 1),), ((0, 0, 1),)))
    assert engine.count_invariant(repeated, seed=1).total == 0


def test_octahedron_conics_through_two_points():
    prob = octahedron_problem(2, ((), ()))
    rep = engine.count_invariant(prob, seed=1)
    assert rep.total == 2
    # only the mass-four refinements carry the right dimension
    for r in rep.per_degree:
        assert r.active == (r.degree.e == 4)


def skipped(r):
    """Whether the count proved the degree of report r zero unsearched."""
    return r.note.startswith(engine.PROJECTION_NOTE)


def report_without_run(rep):
    """report_to_json without the fields that differ between runs."""
    data = engine.report_to_json(rep)
    del data["timing"], data["workers"]
    return data


def test_workers_match_serial():
    """Whole reports, curve records included, for one point on class 1
    and for one point and two lines on class 2."""
    for prob, total in ((octahedron_problem(1, ((),)), 4),
                        (octahedron_problem(2, LINE_DISTRIBUTIONS[1]), 3)):
        serial = engine.count_invariant(prob, seed=2, workers=1)
        parallel = engine.count_invariant(prob, seed=2, workers=2)
        assert serial.total == parallel.total == total
        assert report_without_run(serial) == report_without_run(parallel)
        assert parallel.workers == 2


def recording_pool(calls):
    """A stand-in for ProcessPoolExecutor that runs map in process and
    records the task count of each map and each shutdown."""
    class RecordingPool:
        def __init__(self, max_workers):
            calls["workers"] = max_workers

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            calls["maps"].append(len(tasks))
            return map(fn, tasks)

        def shutdown(self):
            calls["shutdowns"] += 1

    return RecordingPool


def test_one_pool_map_per_attempt(monkeypatch):
    """Every type of every searched degree goes to the pool in one map
    per attempt, and the pool is shut once."""
    calls = {"maps": [], "shutdowns": 0}
    monkeypatch.setattr(engine, "ProcessPoolExecutor", recording_pool(calls))
    rep = engine.count_invariant(
        octahedron_problem(2, LINE_DISTRIBUTIONS[1]), seed=1, workers=2)
    assert rep.total == 3 and rep.genericity_retries == 0
    batched = [r.degree for r in rep.per_degree
               if r.active and not skipped(r)]
    types = sum(len(curves.unmarked_types(d)) for d in batched)
    assert types > len(batched) > 1
    assert calls == {"workers": 2, "maps": [types], "shutdowns": 1}

    calls.update(maps=[], shutdowns=0)
    rep = engine.count_invariant(
        engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                       constraint_bases=((), ()), bound=1),
        seed=2, workers=2)
    assert rep.genericity_retries == 2
    assert calls == {"workers": 2, "maps": [1, 1, 1], "shutdowns": 1}


def test_lines_are_counted_without_the_pool(monkeypatch):
    """The searched degrees of octahedron class 1 through a point are
    four lines: no search needs a pool, so none is made, and each curve
    passes the independent check."""
    calls = {"maps": [], "shutdowns": 0, "verified": 0}
    monkeypatch.setattr(engine, "ProcessPoolExecutor", recording_pool(calls))

    def counted(*args):
        calls["verified"] += 1
        return verify_general(*args)

    monkeypatch.setattr(engine, "verify_general", counted)
    serial = engine.count_invariant(octahedron_problem(1, ((),)), seed=1)
    assert serial.total == 4 and calls["verified"] == 4
    assert all(c.type.degenerate for r in serial.per_degree
               for c in r.curves)
    parallel = engine.count_invariant(octahedron_problem(1, ((),)), seed=1,
                                      workers=2)
    assert report_without_run(parallel) == report_without_run(serial)
    assert calls == {"maps": [], "shutdowns": 0, "verified": 8}


def test_a_count_that_searches_no_degree_makes_no_pool(monkeypatch):
    """Every active degree of flag3 (1,3) through 4 points is proved zero
    unsearched, so a count at workers 2 makes no pool."""
    calls = {"maps": [], "shutdowns": 0}
    monkeypatch.setattr(engine, "ProcessPoolExecutor", recording_pool(calls))
    rep = engine.count_invariant(flag3_problem(1, 3), seed=1, workers=2)
    assert rep.total == 0 and rep.workers == 2
    assert all(skipped(r) for r in rep.per_degree if r.active)
    assert calls == {"maps": [], "shutdowns": 0}


def test_fixed_offsets_special_for_a_line_name_its_unmarked_type():
    """Two parallel line conditions at one height leave a line of
    direction (1, 0, 0) a family of positions: the error names the
    line's type without markings, as it does for a type with vertices."""
    deg = curves.make_degree([((1, 0, 0), 1), ((-1, 0, 0), 1)])
    prob = engine.Problem(n=3, degrees=(deg,),
                          constraint_bases=(((0, 1, 0),), ((0, 1, 0),)),
                          offsets=((0, 0, 0), (5, 5, 0)))
    with pytest.raises(engine.GeneralPositionError) as info:
        engine.count_invariant(prob)
    ((line, _),) = curves.unmarked_types(deg)
    assert str(info.value).endswith(
        "at type %s" % json.dumps(engine.comb_type_to_json(line)))
    assert '"markings": []' in str(info.value)


def raise_in_worker(task):
    raise ArithmeticError("raised in a worker")


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_error_reaches_the_caller(monkeypatch, workers):
    monkeypatch.setattr(engine, "_count_type", raise_in_worker)
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()))
    with pytest.raises(ArithmeticError, match="raised in a worker"):
        engine.count_invariant(prob, seed=1, workers=workers)


@pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2"])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(ValueError, match="workers must be a positive"):
        engine.count_invariant(octahedron_problem(1, ((),)),
                               workers=workers)


def test_retry_starvation_names_bound_attempts_degree_and_type():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()), bound=0)
    with pytest.raises(engine.GeneralPositionError) as info:
        engine.count_invariant(prob, seed=1)
    msg = str(info.value)
    deg = json.dumps(engine.degree_to_json(degrees.plane_degree(1)))
    assert "in %d attempts with bound 0" % engine.MAX_RETRIES in msg
    assert "not general for degree %s at type {" % deg in msg
    assert "\n" not in msg

    fixed = replace(prob, offsets=((0, 0), (0, 0)))
    with pytest.raises(engine.GeneralPositionError,
                       match="fixed offsets are not in general position "
                             "for degree"):
        engine.count_invariant(fixed)


def loads_toric(module):
    """Whether importing tropcount.<module> in a fresh interpreter loads
    tropcount.toric."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tropcount.%s; "
         "print('tropcount.toric' in sys.modules)" % module],
        capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_engine_does_not_import_toric():
    """The count path reaches the facet tables without loading the
    simplex and fan code, so pool workers do not carry it."""
    assert not loads_toric("engine")


def test_cli_does_not_import_toric():
    """The command line loads toric only to verify a certificate, so a
    count started from it does not pay for the import."""
    assert not loads_toric("cli")


def test_every_trace_target_exists():
    """perfbench's layer tracer wraps package names, some of them (the
    quotient_map of engine and multiplicity) imported only for it: it
    must find every one, and put every original back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patched)
    finally:
        t.uninstall()
    names = {(module.__name__, name) for module, name, _ in patched}
    for module in ("engine", "matching", "multiplicity"):
        assert ("tropcount." + module, "quotient_map") in names
    assert all(getattr(module, name) is orig
               for module, name, orig in patched)


# Reached only from tests on purpose: the normal fan of a facet table's
# polytope, which ROADMAP item 4 may put on the count path.
TEST_ONLY_ON_PURPOSE = {"toric.normal_fan", "toric.Polytope.facet_indices"}


def _refs(tree, bare=True):
    """The identifiers a syntax tree uses: attribute names, strings
    (perfbench patches names given as strings) and, with bare, names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif bare and isinstance(node, ast.Name):
            yield node.id


def test_no_library_code_only_tests_reach():
    """Every top-level function and class of src/tropcount, and every
    method of a class, is reached by name from code that runs without
    the tests: the package's module-level code (the command line's main
    among it), perfbench/ and setup.py, or from README.md.  A function or
    class is reached by any use of its name in reached code, a method by
    an attribute of that name; an import reaches nothing."""
    root = Path(__file__).resolve().parents[1]
    units = {}  # label -> (label of its class or None, name, syntax trees)
    used = []
    for path in sorted((root / "src" / "tropcount").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src" / "tropcount")
                          .with_suffix("").parts)
        for stmt in ast.parse(path.read_text()).body:
            label = "%s.%s" % (module, getattr(stmt, "name", ""))
            if isinstance(stmt, ast.FunctionDef):
                units[label] = (None, stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                own = stmt.bases + stmt.decorator_list
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        units["%s.%s" % (label, item.name)] = (
                            label, item.name, [item])
                    else:
                        own.append(item)
                units[label] = (None, stmt.name, own)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                used.append(stmt)
    used += [ast.parse(path.read_text()) for path in
             [*sorted((root / "perfbench").glob("*.py")), root / "setup.py"]]
    names = set(re.findall(r"\w+", (root / "README.md").read_text()))
    attrs = set(names)
    reached = set()
    while used:
        for tree in used:
            names.update(_refs(tree))
            attrs.update(_refs(tree, bare=False))
        used = []
        for label, (cls, name, trees) in units.items():
            if label not in reached and (
                    name in names if cls is None
                    else cls in reached and name in attrs):
                reached.add(label)
                used += trees
    only_tests = set(units) - reached
    assert sorted(only_tests - TEST_ONLY_ON_PURPOSE) == []
    assert TEST_ONLY_ON_PURPOSE <= only_tests, "drop it from the allowlist"


def test_count_report_fields():
    prob = octahedron_problem(1, ((),))
    rep = engine.count_invariant(prob, seed=5)
    assert rep.seeds_used == (5,)
    assert rep.genericity_retries >= 0
    assert rep.kernel in ("compiled", "pure")
    assert rep.timing > 0


@pytest.mark.skipif(bool(os.environ.get("TROPCOUNT_PURE")),
                    reason="TROPCOUNT_PURE forces the pure lane")
def test_compiled_kernel_is_available():
    assert _kernel.implementation() == "compiled"


def test_pure_lane_subprocess_matches():
    script = (
        "import json\n"
        "from tropcount import _kernel, degrees, engine\n"
        "degs = degrees.degree_set_degrees(\n"
        "    degrees.class_degree_set(degrees.FACET_TABLES['octahedron'],\n"
        "                             (1,)))\n"
        "prob = engine.Problem(n=3, degrees=degs, constraint_bases=((),))\n"
        "rep = engine.count_invariant(prob, seed=3)\n"
        "print(json.dumps({'kernel': rep.kernel, 'total': rep.total}))\n")
    env = dict(os.environ, TROPCOUNT_PURE="1")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    data = json.loads(out.stdout)
    assert data["kernel"] == "pure"
    here = engine.count_invariant(
        engine.Problem(
            n=3,
            degrees=degrees.degree_set_degrees(octahedron_set(1)),
            constraint_bases=((),)), seed=3)
    assert data["total"] == here.total == 4


def test_fraction_strings():
    assert engine._frac_str(Fraction(3, 2)) == "3/2"
    assert engine._frac_str(Fraction(4, 2)) == "2"


def test_degree_json_round_trip():
    deg = degrees.plane_degree(2)
    data = json.loads(json.dumps(engine.degree_to_json(deg)))
    assert engine.degree_from_json(data) == deg


def test_problem_json_explicit_round_trip():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)), bound=77)
    data = json.loads(json.dumps({
        "rank": 2,
        "degree_source": {"kind": "explicit", "degrees": [
            engine.degree_to_json(degrees.plane_degree(1))]},
        "constraints": {"kind": "explicit", "bases": [[], []],
                        "offsets": [[0, 0], [5, 7]], "bound": 77},
    }))
    back = engine.problem_from_json(data)
    assert back == prob
    assert back.bound == 77


def test_problem_json_sources():
    flag = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "flag3", "class": [1, 1]},
        "constraints": {"kind": "generate", "bases": [[], []]},
    })
    ds = degrees.class_degree_set(degrees.FACET_TABLES["flag3"], (1, 1))
    assert flag.degrees == degrees.degree_set_degrees(ds)

    octa = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "octahedron", "class": 2},
        "constraints": {"kind": "generate", "bases": [[], []]},
    })
    assert octa.degrees == degrees.degree_set_degrees(octahedron_set(2))

    coarse = engine.problem_from_json({
        "rank": 3,
        "degree_source": {
            "kind": "coarse",
            "coarse_degrees": [[{"ray": list(v), "count": c}
                                for v, c in cd.values]
                               for cd in octahedron_set(1).coarse_degrees],
            "max_weight": 1,
        },
        "constraints": {"kind": "generate", "bases": [[]]},
    })
    assert coarse.degrees == degrees.degree_set_degrees(
        octahedron_set(1), max_weight=1)

    with pytest.raises(ValueError):
        engine.problem_from_json({
            "rank": 2,
            "degree_source": {"kind": "mystery"},
            "constraints": {"kind": "generate", "bases": []},
        })
    with pytest.raises(ValueError):
        engine.problem_from_json({
            "rank": 2,
            "degree_source": {"kind": "explicit", "degrees": []},
            "constraints": {"kind": "nope", "bases": []},
        })


def preset_problem(source):
    return {"rank": 3, "degree_source": source,
            "constraints": {"kind": "generate", "bases": [[], []]}}


def test_preset_class_is_expanded_once_and_checked_first():
    """A preset class expands once per process.  The class is checked
    before the lookup: True == 1 and 1.0 == 1 hash alike, so a cached
    [1, 1] must not answer [true, 1]."""
    prob = engine.problem_from_json(
        preset_problem({"kind": "flag3", "class": [1, 1]}))
    assert engine.count_invariant(prob, seed=1).total == 1
    again = engine.problem_from_json(
        preset_problem({"kind": "flag3", "class": [1, 1]}))
    assert again.degrees is prob.degrees
    for bad in ([True, 1], [1.0, 1]):
        with pytest.raises(ValueError, match=r"degree_source\.class"):
            engine.problem_from_json(
                preset_problem({"kind": "flag3", "class": bad}))

    capped = {"kind": "octahedron", "class": 2, "max_weight": 1}
    assert engine.problem_from_json(preset_problem(capped)).degrees
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError, match=r"degree_source\.max_weight"):
            engine.problem_from_json(
                preset_problem(dict(capped, max_weight=bad)))


PLANE_LINE = {
    "rank": 2,
    "degree_source": {"kind": "explicit", "degrees": [
        {"entries": [[[-1, 0], 1], [[0, -1], 1], [[1, 1], 1]]}]},
    "constraints": {"kind": "explicit", "bases": [[], []],
                    "offsets": [[0, 0], [5, 7]]},
}


def without(data, path):
    """A deep copy of data with the field at path (a dotted name) gone."""
    data = json.loads(json.dumps(data))
    *parents, last = path.split(".")
    obj = data
    for key in parents:
        obj = obj[key]
    del obj[last]
    return data


@pytest.mark.parametrize("path, named", [
    ("rank", "'rank'"),
    ("degree_source", "'degree_source'"),
    ("degree_source.kind", "'kind'"),
    ("constraints", "'constraints'"),
    ("constraints.bases", "'bases'"),
    ("constraints.offsets", "'offsets'"),
])
def test_problem_json_missing_field_is_named(path, named):
    assert engine.problem_from_json(PLANE_LINE).n == 2
    with pytest.raises(ValueError, match=named):
        engine.problem_from_json(without(PLANE_LINE, path))


def test_problem_json_offsets_must_fit():
    data = json.loads(json.dumps(PLANE_LINE))
    data["constraints"]["offsets"] = [[0, 0]]
    with pytest.raises(ValueError, match="offsets has 1 entries for 2"):
        engine.problem_from_json(data)
    data["constraints"]["offsets"] = [[0, 0], [5, 7, 1]]
    with pytest.raises(ValueError, match=r"offsets\[1\] has 3 coordinates"):
        engine.problem_from_json(data)


LINES = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))
# one point and two lines, over every distribution of the two line
# directions (acceptance criterion 6)
LINE_DISTRIBUTIONS = [((), (LINES[i],), (LINES[j],))
                      for i in range(len(LINES))
                      for j in range(i, len(LINES))]


def test_mixed_count_runs_the_search(monkeypatch):
    """A count with line conditions runs the selected lane's search on
    every type and solves exactly only the candidates it returns."""
    calls = {"search": 0, "match": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_kernel, "search_points",
                        counted("search", _kernel.search_points))
    monkeypatch.setattr(engine, "match_constraints",
                        counted("match", engine.match_constraints))
    rep = engine.count_invariant(octahedron_problem(2, LINE_DISTRIBUTIONS[1]),
                                 seed=1)
    assert rep.total == 3 and rep.genericity_retries == 0
    assert rep.kernel == _kernel.implementation()
    types = sum(len(curves.unmarked_types(r.degree))
                for r in rep.per_degree if r.active and not skipped(r))
    assert calls["search"] == types > 0
    assert calls["match"] == sum(len(r.curves) for r in rep.per_degree) > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_each_genericity_retry_is_logged(caplog, workers):
    """Offsets within +-1 collide, so this count re-samples twice."""
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()), bound=1)
    with caplog.at_level(logging.INFO, logger="tropcount"):
        rep = engine.count_invariant(prob, seed=2, workers=workers)
    assert rep.total == 1 and rep.genericity_retries == 2
    lines = [r.getMessage() for r in caplog.records
             if "not general" in r.getMessage()]
    assert len(lines) == 2
    deg = json.dumps(engine.degree_to_json(degrees.plane_degree(1)))
    for retry, line in enumerate(lines):
        assert line.startswith("offsets of retry %d are not general for "
                               "degree %s at type {" % (retry, deg))


def searched_directly(deg, constraints):
    """The curves of deg through constraints with every type searched
    through _count_type, or None when the offsets are not general."""
    found = []
    for comb, gens in curves.unmarked_types(deg):
        res = engine._count_type((comb, gens, constraints))
        if res is None:
            return None
        found.extend(res)
    return found


def assert_projection_sound(prob, seeds=(1, 2, 3)):
    """Each active degree of each count searched type by type with the
    count's constraints: a degree the count skips gives no curve, and a
    searched one gives the count's curves.  A skipped degree's offsets
    were never checked for generality, so where they are not general
    the next re-samples are searched.  Returns the skipped degrees."""
    skips = []
    for seed in seeds:
        rep = engine.count_invariant(prob, seed=seed)
        for r in rep.per_degree:
            if not r.active:
                continue
            for retry in range(rep.genericity_retries, engine.MAX_RETRIES):
                cons = tuple(engine._constraints_for(prob, seed, retry))
                found = searched_directly(r.degree, cons)
                if found is not None or not skipped(r):
                    break
            if skipped(r):
                assert found == [] and r.subtotal == 0, (seed, r.note)
                skips.append(r.degree)
            else:
                assert found == list(r.curves), (seed, r.degree)
    return skips


def flag3_problem(s, t):
    return engine.problem_from_json({
        "rank": 3, "degree_source": {"kind": "flag3", "class": [s, t]},
        "constraints": {"kind": "generate", "bases": [[]] * (s + t)}})


@pytest.mark.parametrize("make", [
    pytest.param(lambda: flag3_problem(1, 1), id="flag3-1-1"),
    pytest.param(lambda: flag3_problem(1, 2), id="flag3-1-2"),
    pytest.param(lambda: flag3_problem(2, 1), id="flag3-2-1"),
    pytest.param(lambda: flag3_problem(1, 3), id="flag3-1-3"),
    pytest.param(lambda: octahedron_problem(1, ((),)), id="octa1-points"),
    pytest.param(lambda: octahedron_problem(2, ((), ())), id="octa2-points"),
    *[pytest.param(lambda bases=bases: octahedron_problem(2, bases),
                   id="octa2-mixed%d" % i)
      for i, bases in enumerate(LINE_DISTRIBUTIONS)],
    pytest.param(lambda: octahedron_problem(3, ((),) * 3),
                 id="octa3-points", marks=pytest.mark.long),
    pytest.param(lambda: octahedron_problem(
        3, ((),) + tuple((LINES[i],) for i in (0, 0, 1, 2))),
                 id="octa3-point-lines", marks=pytest.mark.long),
    pytest.param(lambda: flag3_problem(2, 2), id="flag3-2-2",
                 marks=pytest.mark.long)])
def test_projection_skips_only_empty_degrees(make):
    assert_projection_sound(make())


def test_projection_skips_flag3_one_three():
    """Both active degrees of flag3 (1,3) through 4 points are zero: the
    planar one lies in a translate of its plane, which no general point
    meets; the other, seen along (0, 1, 0), is a tropical line with 3
    ends through 4 general points of R^2.  The oracle above still
    searches all of their types."""
    rep = engine.count_invariant(flag3_problem(1, 3), seed=1)
    notes = [r.note for r in rep.per_degree if r.active]
    assert notes == [
        engine.PROJECTION_NOTE + ": along span{(-1, 0, 0), (0, -1, 0)},"
        " m=1 and e'=0",
        engine.PROJECTION_NOTE + ": along span{(0, -1, 0)}, m=2 and e'=3"]
    assert rep.total == 0
    assert all(r.subtotal == 0 and r.curves == () for r in rep.per_degree)


def test_projection_skips_a_line_along_a_parallel_condition():
    """A line of direction u meets a line condition spanned by u only if
    its whole translate lies in that condition's plane through u: K is
    span{u}, and one more condition makes the count overdetermined."""
    u = (1, 0, 0)
    deg = curves.make_degree([(u, 1), ((-1, 0, 0), 1)])
    for other, want in ((u, True), ((0, 0, 1), False)):
        prob = engine.Problem(n=3, degrees=(deg,),
                              constraint_bases=((other,), ((0, 1, 0),)))
        rep = engine.count_invariant(prob, seed=1)
        (r,) = rep.per_degree
        assert r.active and skipped(r) == want
        assert rep.total == (0 if want else 1)
        assert len(assert_projection_sound(prob)) == (3 if want else 0)


def test_projection_never_skips_a_plane_degree():
    """In R^2 a proper K is a line, and m = 1 leaves no condition any
    cost once an end leaves K."""
    rep = engine.count_invariant(
        engine.Problem(n=2, degrees=(degrees.plane_degree(2),),
                       constraint_bases=((),) * 5), seed=1)
    assert rep.total == 1 and rep.per_degree[0].note == ""


def solve_in_positions(t, constraints):
    """(status, solution, multiplicity) of a marked type with vertices,
    solved apart from the incidence rows: the unknowns are the root, the
    bounded lengths, each marked point's parameter along its edge and
    the coefficients of its constraint's span, with one equation per
    coordinate per marking,
        root + sum_b sign_b * length_b * u_b + param * u = offset + span.
    The system is square when the codimensions sum to e + n - 3.  Its
    |det| is d_index times the index of each [u, *basis] in its
    saturation, so the multiplicity needs no incidence rows either."""
    n, nb, l = t.n, len(t.bounded), len(constraints)
    sign = curves.path_signs(t)
    width = n + nb + l + sum(len(c.basis) for c in constraints)
    a, b, col = [], [], n + nb + l
    for i, c in enumerate(constraints):
        eid = t.markings[i]
        u = curves.edge_dir(t, eid)
        s = sign[curves.edge_base_vertex(t, eid)]
        for j in range(n):
            row = [0] * width
            row[j] = 1
            for k, (_, _, _, uk) in enumerate(t.bounded):
                row[n + k] = s[k] * uk[j]
            row[n + nb + i] = u[j]
            for k, v in enumerate(c.basis):
                row[col + k] = -v[j]
            a.append(row)
            b.append(c.offset[j])
        col += len(c.basis)
    assert len(a) == width
    res = solve_rational(a, b)
    if res.status == "infeasible":
        return NONE, None, None
    if res.status != "unique":
        return NON_GENERAL, None, None
    x = res.particular
    lengths, params = x[n:n + nb], x[n + nb:n + nb + l]
    tops = [lengths[e] if curves.is_bounded(t, e) else None
            for e in t.markings]
    if min(lengths + params) < 0 or any(
            top is not None and p > top for p, top in zip(params, tops)):
        return NONE, None, None
    if 0 in lengths + params or any(p == top for p, top in zip(params, tops)):
        return NON_GENERAL, None, None
    sats = [saturation_index([curves.edge_dir(t, e), *c.basis])
            for e, c in zip(t.markings, constraints)]
    d, rem = divmod(abs(bareiss_det(a)), math.prod(sats))
    assert rem == 0
    deltas = tuple(curves.edge_weight(t, e) * sat
                   for e, sat in zip(t.markings, sats))
    weight = math.prod(w for _, _, w, _ in t.bounded)
    mult = Multiplicity(weight, d, deltas, weight * d * math.prod(deltas))
    return UNIQUE, matching.Solution(tuple(x[:n]), lengths, params), mult


def exhaustive_curves(task):
    """The curves of one unmarked type by solving every marking tuple
    in positions: the exhaustive path the assignment search replaced,
    kept as its oracle apart from the rows the search and the match
    share.  None when some tuple is not general."""
    comb, gens, constraints = task
    out = []
    for assign in itertools.product(range(curves.edge_count(comb)),
                                    repeat=len(constraints)):
        if gens and curves.orbit_min(assign, gens) != assign:
            continue
        t = replace(comb, markings=assign)
        status, sol, mult = solve_in_positions(t, constraints)
        if status == NON_GENERAL:
            return None
        if status != UNIQUE:
            continue
        ok, problems = verify_general(t, sol, constraints)
        assert ok, problems
        out.append(engine.CurveRecord(t, mult, sol))
    return out


def mixed_tasks(constraints):
    """Worker tasks of every type that one point and two lines cut."""
    degs = degrees.degree_set_degrees(octahedron_set(2))
    return [(comb, gens, tuple(constraints)) for deg in degs if deg.e == 4
            for comb, gens in curves.unmarked_types(deg)]


def assert_worker_matches_oracle(bases, seed):
    cons = matching.generate_constraints(3, bases, seed, 10 ** 6)
    for task in mixed_tasks(cons):
        assert engine._count_type(task) == exhaustive_curves(task)


@pytest.mark.parametrize("seed", [
    1, pytest.param(2, marks=pytest.mark.long),
    pytest.param(3, marks=pytest.mark.long)])
@pytest.mark.parametrize("bases", LINE_DISTRIBUTIONS)
def test_worker_matches_exhaustive_oracle(bases, seed):
    """Type by type: the same status, markings, multiplicities and
    exact solutions."""
    assert_worker_matches_oracle(bases, seed)


@settings(max_examples=3, deadline=None)
@given(bases=st.sampled_from(LINE_DISTRIBUTIONS),
       seed=st.integers(4, 2 ** 31))
def test_worker_matches_exhaustive_oracle_random(bases, seed):
    assert_worker_matches_oracle(bases, seed)


def test_curves_of_a_type_come_in_marking_order():
    """Four lines: seed 2 gives one type two curves."""
    rep = engine.count_invariant(octahedron_problem(2, tuple(
        (v,) for v in LINES)), seed=2)
    assert rep.total == 4
    by_type = {}
    for r in rep.per_degree:
        for c in r.curves:
            by_type.setdefault(replace(c.type, markings=()), []).append(
                c.type.markings)
    assert max(len(m) for m in by_type.values()) == 2
    for marks in by_type.values():
        assert marks == sorted(marks)


def curve_positions(rec):
    """Vertex positions of a matched curve; integral in the cases
    below."""
    t, sol = rec.type, rec.solution
    sign = curves.path_signs(t)
    out = []
    for v in range(t.vertices):
        pos = [sol.root[j] + sum(sign[v][b] * sol.lengths[b] * ub[j]
                                 for b, (_, _, _, ub) in enumerate(t.bounded))
               for j in range(t.n)]
        assert all(x.denominator == 1 for x in pos)
        out.append(tuple(int(x) for x in pos))
    return out


def moved_constraint_cases():
    """Constraint tuples, each a curve of criterion 6 (seed 1) with one
    offset moved onto the curve so that the configuration is not
    general: a line through a point of an end parallel to it, or the
    point condition at a vertex.  Yields (why, type, markings,
    constraints); under those markings the system is consistent but
    degenerate."""
    bases = LINE_DISTRIBUTIONS[1]
    cons = matching.generate_constraints(3, bases, 1, 10 ** 6)
    rep = engine.count_invariant(
        octahedron_problem(2, bases, offsets=[c.offset for c in cons]))
    for rec in (c for r in rep.per_degree for c in r.curves):
        t = rec.type
        pos = curve_positions(rec)
        for i, basis in enumerate(bases):
            for k, (v, _, u) in enumerate(t.ends):
                if basis and u in (basis[0], tuple(-x for x in basis[0])):
                    moved = list(cons)
                    moved[i] = AffineConstraint(
                        tuple(p + d for p, d in zip(pos[v], u)), basis)
                    marks = list(t.markings)
                    marks[i] = len(t.bounded) + k
                    yield "parallel end", t, tuple(marks), moved
        moved = list(cons)
        moved[0] = AffineConstraint(pos[0], ())
        edge = next(e for e in range(curves.edge_count(t))
                    if curves.edge_base_vertex(t, e) == 0)
        marks = (edge,) + t.markings[1:]
        yield "point at a vertex", t, marks, moved


def test_moved_offsets_are_flagged_by_both_paths():
    seen = set()
    for why, t, marks, cons in moved_constraint_cases():
        seen.add(why)
        assert match_constraints(replace(t, markings=marks),
                                 cons).status == NON_GENERAL
        comb = replace(t, markings=())
        (gens,) = [g for c, g, _ in mixed_tasks(cons) if c == comb]
        assert exhaustive_curves((comb, gens, cons)) is None
        assert engine._count_type((comb, gens, cons)) is None
        inputs = engine._kernel_inputs(comb, cons)
        assert _kernel.search_points(*inputs)[0] == \
            pure.search_points(*inputs)[0] == _kernel.STATUS_NON_GENERAL
        prob = octahedron_problem(2, LINE_DISTRIBUTIONS[1],
                                  offsets=[c.offset for c in cons])
        with pytest.raises(RuntimeError, match="general position"):
            engine.count_invariant(prob)
    assert seen == {"parallel end", "point at a vertex"}


def test_report_json_and_dump():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    rep = engine.count_invariant(prob)
    data = json.loads(json.dumps(engine.report_to_json(rep)))
    assert data["total"] == 1
    assert data["kernel"] in ("compiled", "pure")
    (drep,) = data["per_degree"]
    assert drep["active"] and drep["subtotal"] == 1
    (curve,) = drep["curves"]
    assert curve["multiplicity"]["total"] == 1
    assert curve["solution"]["root"] == ["0", "2"]
    t = curve["type"]
    assert t["vertices"] == 1 and t["bounded"] == [] and not t["degenerate"]
    assert sorted(w for _, w, _ in t["ends"]) == [1, 1, 1]
    assert len(t["markings"]) == 2


def test_comb_type_json_degenerate():
    deg = curves.make_degree([((1, 0, 0), 1), ((-1, 0, 0), 1)])
    ((t, _),) = curves.unmarked_types(deg)
    data = engine.comb_type_to_json(t)
    assert data["degenerate"] and data["vertices"] == 0
