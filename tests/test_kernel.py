"""Search kernel lanes: agreement, overflow fallback, build and selection."""

import functools
import logging
import os
import random
import shutil
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount import _kernel, curves, degrees, engine, lattice
from tropcount._kernel import build, pure
from tropcount.matching import AffineConstraint

PACKAGE = Path(_kernel.__file__).resolve().parents[1]

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="gcc not installed")
needs_compiled = pytest.mark.skipif(
    _kernel.implementation() != "compiled",
    reason="compiled lane unavailable (TROPCOUNT_PURE set, or the build "
           "failed: see the 'tropcount' log)")


@functools.cache
def small_degrees():
    """Types of the degrees whose point-constraint system is square,
    one list per degree."""
    degs = [degrees.plane_degree(2)]
    degs += degrees.degree_set_degrees(
        degrees.class_degree_set(degrees.FACET_TABLES["flag3"], (1, 2)))
    return [[(deg.n, comb) for comb, _ in curves.unmarked_types(deg)]
            for deg in degs
            if deg.e <= 6 and (deg.n + deg.e - 3) % (deg.n - 1) == 0]


def lanes(inputs):
    return _kernel.search_points(*inputs), pure.search_points(*inputs)


# offsets near 2^62 push the C search out of range, and beyond 2^63 out
# of int64 altogether; either way it must fall back to the pure lane
BOUNDS = st.sampled_from([2, 50, 10 ** 6, 2 ** 61, 2 ** 62 + 7, 2 ** 64])


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(data=st.data(), bound=BOUNDS)
def test_lanes_agree_on_real_types(data, bound):
    """Every type of one degree against one draw of point offsets, as a
    count runs them, so that candidates occur and not only empty or
    non-general searches."""
    types = data.draw(st.sampled_from(small_degrees()))
    n, comb = types[0]
    l = (n + len(comb.bounded)) // (n - 1)
    coord = st.integers(-bound, bound)
    cons = [AffineConstraint(tuple(data.draw(coord) for _ in range(n)))
            for _ in range(l)]
    for _, comb in types:
        compiled, reference = lanes(engine._kernel_inputs(comb, cons))
        assert compiled == reference


def synthetic_inputs(shape, draw_int, groups=None, parallel=None,
                     members=None):
    """Search inputs of a given shape with entries from draw_int().

    shape is (n, nb, edges, r) for point conditions alone.  Grouped
    inputs pass groups, a list of (r_g, l_g), instead of using r;
    parallel(e) says whether edge e of a group is parallel to its span
    (uj 0, so its last row is an extra row, not a parameter row), and
    members is the order of the constraints' indices."""
    n, nb, ne, r = shape
    u_n = n + nb
    if groups is None:
        groups = [(r, u_n // r)]
    if members is None:
        members = range(sum(lg for _, lg in groups))
    members = iter(members)

    def draw(*dims):
        if not dims:
            return draw_int()
        return tuple(draw(*dims[1:]) for _ in range(dims[0]))

    out = []
    for r, lg in groups:
        uj = tuple(0 if parallel is not None and parallel(e)
                   else draw() or 1 for e in range(ne))
        out.append((tuple(next(members) for _ in range(lg)),
                    draw(ne, r + 1, u_n), draw(ne, lg, r + 1), uj))
    return n, nb, tuple(out)


# (n, nb, edges, r): past the fixed limits of the old compiled kernel,
# 40 edges, 20 unknowns and 4 block rows (the fourth, 12 constraints,
# is below); the last is small enough to reach candidates.  Entries up
# to 1000 overflow the C search once there are 10 unknowns or more.
SHAPES = [(2, 2, 45, 2), (4, 6, 4, 5), (7, 14, 4, 7), (2, 1, 5, 1)]


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), shape=st.sampled_from(SHAPES),
       size=st.sampled_from([3, 10, 1000]))
def test_lanes_agree_beyond_old_limits(seed, shape, size):
    """Entries come from a seeded generator, as in the grouped-shape
    test below: drawing each one through hypothesis is slow."""
    rng = random.Random(seed)
    inputs = synthetic_inputs(shape, lambda: rng.randint(-size, size))
    compiled, reference = lanes(inputs)
    assert compiled == reference


@needs_compiled
def test_lanes_agree_past_twelve_constraints():
    """13 constraints.  The pure search is exponential in them, so this
    is one fixed input whose dependence check ends the run early."""
    rng = random.Random(2)
    inputs = synthetic_inputs((1, 12, 13, 1), lambda: rng.randint(-3, 3))
    compiled, reference = lanes(inputs)
    assert compiled == reference
    assert compiled[0] == _kernel.STATUS_NON_GENERAL


def near_limit_inputs():
    """A plane type whose offsets sit just past 2^62."""
    deg = degrees.plane_degree(1)
    ((comb, _),) = curves.unmarked_types(deg)
    cons = [AffineConstraint((2 ** 62 + 1, 3)), AffineConstraint((5, -7))]
    return engine._kernel_inputs(comb, cons)


@needs_compiled
def test_overflow_falls_back_and_is_logged(caplog):
    inputs = near_limit_inputs()
    assert _kernel._search_compiled(_kernel._library(), *inputs) is None
    with caplog.at_level(logging.INFO, logger="tropcount"):
        compiled, reference = lanes(inputs)
    assert compiled == reference
    assert compiled[1], "the near-limit case should have a candidate"
    assert "overflowed 2^62" in caplog.text


LINES = ((0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1))


@functools.cache
def mixed_types():
    """Types of octahedron class 2 whose system against one point and
    two lines is square."""
    degs = degrees.degree_set_degrees(
        degrees.class_degree_set(degrees.FACET_TABLES["octahedron"], (2,)))
    return [comb for deg in degs if deg.e == 4
            for comb, _ in curves.unmarked_types(deg)]


def mixed_constraints(offsets, bases):
    return [AffineConstraint(off, basis) for off, basis in zip(offsets, bases)]


@needs_compiled
@settings(max_examples=25, deadline=None)
@given(data=st.data(), bound=BOUNDS,
       lines=st.tuples(st.sampled_from(LINES), st.sampled_from(LINES)),
       order=st.permutations(range(3)))
def test_lanes_agree_on_mixed_types(data, bound, lines, order):
    """Every mixed type against one point and two lines, in any order
    and with both lines possibly sharing a direction (one group of
    two)."""
    bases = [(), (lines[0],), (lines[1],)]
    bases = [bases[i] for i in order]
    coord = st.integers(-bound, bound)
    offsets = [tuple(data.draw(coord) for _ in range(3)) for _ in range(3)]
    cons = mixed_constraints(offsets, bases)
    for comb in mixed_types():
        compiled, reference = lanes(engine._kernel_inputs(comb, cons))
        assert compiled == reference


def test_mixed_inputs_group_by_basis():
    """Two lines of one direction share a group; ends parallel to a
    line get an extra row as their last row and no parameter (uj 0)."""
    line = LINES[0]
    cons = mixed_constraints([(1, 2, 3), (4, 5, 6), (7, 8, 9)],
                             [(line,), (), (line,)])
    parallel = 0
    for comb in mixed_types():
        n, nb, groups = engine._kernel_inputs(comb, cons)
        ne = curves.edge_count(comb)
        assert [g[0] for g in groups] == [(0, 2), (1,)]
        lines_group, points_group = groups
        # the block rows, then the last row
        assert [len(rows) for rows in lines_group[1]] == [1 + 1] * ne
        assert [len(rows) for rows in points_group[1]] == [2 + 1] * ne
        assert 0 not in points_group[3]
        for e, uj in enumerate(lines_group[3]):
            u = curves.edge_dir(comb, e)
            parallel_to_line = u in (line, tuple(-x for x in line))
            assert (uj == 0) == parallel_to_line
            parallel += uj == 0
    assert parallel > 0


@functools.cache
def quotient_columns(vectors, n):
    return tuple(zip(*lattice.quotient_map(vectors, n)))


def reference_inputs(comb, constraints):
    """The search inputs as built before edge_rows: every edge's rows
    straight from its quotient maps, as the oracle of
    engine._kernel_inputs."""
    n = comb.n
    nb = len(comb.bounded)
    sign = curves.path_signs(comb)
    edges = []
    for eid in range(curves.edge_count(comb)):
        s = sign[curves.edge_base_vertex(comb, eid)]
        path = [(n + b, s[b], comb.bounded[b][3])
                for b in range(nb) if s[b]]
        edges.append((curves.edge_dir(comb, eid), path))
    pad = [0] * nb

    def unknowns(col, path):
        out = list(col) + pad
        for i, s, ub in path:
            out[i] = s * sum(map(mul, ub, col))
        return tuple(out)

    groups = {}
    for i, c in enumerate(constraints):
        groups.setdefault(c.basis, []).append(i)
    out = []
    for basis, members in groups.items():
        offsets = [constraints[i].offset for i in members]
        r = n - 1 - len(basis)
        span = quotient_columns(basis, n)
        rows, rhs, ujs = [], [], []
        for u, path in edges:
            cols = quotient_columns((u, *basis), n)
            if len(cols) > r:
                # parallel to the span: the column beyond the block
                uj = 0
            else:
                for col in span:
                    uj = sum(map(mul, u, col))
                    if uj:
                        break
                cols += (col,)
            rows.append(tuple([unknowns(col, path) for col in cols]))
            rhs.append(tuple([tuple([sum(map(mul, off, col))
                                     for col in cols])
                              for off in offsets]))
            ujs.append(uj)
        out.append((tuple(members), tuple(rows), tuple(rhs), tuple(ujs)))
    return n, nb, tuple(out)


def criterion_six_bases():
    return [((), (LINES[i],), (LINES[j],))
            for i in range(len(LINES)) for j in range(i, len(LINES))]


def test_inputs_match_the_reference_builder():
    """Every type of plane d=2 and flag3 (1,2) against points, and every
    criterion-6 type against each of its line distributions, in the
    order of the distribution and reversed."""
    rng = random.Random(11)
    degs = (degrees.plane_degree(2),) + degrees.degree_set_degrees(
        degrees.class_degree_set(degrees.FACET_TABLES["flag3"], (1, 2)))
    cases = [([(deg.n, comb) for comb, _ in curves.unmarked_types(deg)],
              [()] * ((deg.n + deg.e - 3) // (deg.n - 1)))
             for deg in degs]
    cases += [([(3, comb) for comb in mixed_types()], list(bases[::step]))
              for bases in criterion_six_bases() for step in (1, -1)]
    checked = 0
    for types, bases in cases:
        for n, comb in types:
            cons = mixed_constraints(
                [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n))
                 for _ in bases], bases)
            assert engine._kernel_inputs(comb, cons) == \
                reference_inputs(comb, cons)
            checked += 1
    assert checked > 500


# (n, nb, edges, groups as (r_g, l_g)); each sums l_g * r_g to n + nb
GROUPED = [(3, 1, 6, [(2, 1), (1, 2)]), (3, 2, 7, [(2, 1), (1, 1), (1, 2)]),
           (2, 4, 5, [(1, 2), (2, 2)]), (4, 2, 5, [(3, 1), (1, 1), (2, 1)])]


@needs_compiled
@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.sampled_from(GROUPED),
       size=st.sampled_from([2, 10, 1000]), seed=st.integers(0, 2 ** 32))
def test_lanes_agree_on_grouped_shapes(data, shape, size, seed):
    """Entries come from a seeded generator: drawing each one through
    hypothesis would cost more than both searches."""
    n, nb, ne, groups = shape
    l = sum(lg for _, lg in groups)
    parallel = data.draw(st.sets(st.integers(0, ne - 1), max_size=2))
    rng = random.Random(seed)
    inputs = synthetic_inputs(
        (n, nb, ne, None), lambda: rng.randint(-size, size),
        groups=groups, parallel=parallel.__contains__,
        members=data.draw(st.permutations(range(l))))
    compiled, reference = lanes(inputs)
    assert compiled == reference


def shifted_mixed_inputs(shift):
    """A mixed type that has a curve, with every offset moved by shift
    along the first axis: the curve moves along, so the candidates do
    not change."""
    bases = [(), (LINES[0],), (LINES[1],)]
    rng = random.Random(5)
    offsets = [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
               for _ in bases]
    for comb in mixed_types():
        inputs = engine._kernel_inputs(comb,
                                       mixed_constraints(offsets, bases))
        if pure.search_points(*inputs)[1]:
            moved = [(x + shift, y, z) for x, y, z in offsets]
            return inputs, engine._kernel_inputs(
                comb, mixed_constraints(moved, bases))
    raise AssertionError("no mixed type has a curve")


def with_parallel_edge(inputs, g, edge, residual):
    """inputs with one edge made parallel to the span of group g: uj is
    0, its last (extra) row is zero, and that row's right-hand sides all
    equal residual."""
    n, nb, groups = inputs
    members, rows, rhs, uj = groups[g]

    def put(seq, i, value):
        return seq[:i] + (value,) + seq[i + 1:]

    group = (members, put(rows, edge, rows[edge][:-1] + ((0,) * (n + nb),)),
             put(rhs, edge, tuple(qs[:-1] + (residual,) for qs in rhs[edge])),
             put(uj, edge, 0))
    return n, nb, put(groups, g, group)


@pytest.mark.parametrize("lane", ["compiled", "pure"])
def test_parallel_edge_leaf(lane):
    """A leaf through an edge parallel to its span is rejected when the
    extra row has a nonzero residual, and flags the run non-general
    when the residual is exactly zero."""
    if lane == "compiled" and _kernel.implementation() != "compiled":
        pytest.skip("compiled lane unavailable")
    search = _kernel.search_points if lane == "compiled" else \
        pure.search_points
    inputs, _ = shifted_mixed_inputs(0)
    status, cands = search(*inputs)
    assert status == _kernel.STATUS_OK and cands
    # slot 0 belongs to group 0
    edge = cands[0][0][0]
    status, rest = search(*with_parallel_edge(inputs, 0, edge, 1))
    assert status == _kernel.STATUS_OK and cands[0] not in rest
    assert search(*with_parallel_edge(inputs, 0, edge, 0)) == \
        (_kernel.STATUS_NON_GENERAL, [])


def test_dependence_across_groups_takes_one_constraint_from_each():
    """Two groups of one constraint each: edge 0 meets them where x is
    their first value, edge 1 where y is their second.  Equal x values
    are a consistent dependence, so the run is non-general; distinct
    ones leave candidates, whose parameters all pass."""
    def group(member, x, y):
        # per edge: its block row, then a zero parameter row of
        # right-hand side 1 and uj 1, so every parameter is positive
        return ((member,), (((1, 0), (0, 0)), ((0, 1), (0, 0))),
                (((x, 1),), ((y, 1),)), (1, 1))

    for search in (pure.search_points, _kernel.search_points):
        status, cands = search(2, 0, (group(0, 5, 3), group(1, 6, 4)))
        assert status == _kernel.STATUS_OK and cands
        assert search(2, 0, (group(0, 5, 3), group(1, 5, 4))) \
            == (_kernel.STATUS_NON_GENERAL, [])


@needs_compiled
def test_overflow_falls_back_on_a_mixed_input(caplog):
    small, inputs = shifted_mixed_inputs(2 ** 62)
    assert _kernel._search_compiled(_kernel._library(), *inputs) is None
    with caplog.at_level(logging.INFO, logger="tropcount"):
        compiled, reference = lanes(inputs)
    assert compiled == reference == lanes(small)[0]
    assert compiled[1], "the shifted case should keep its candidate"
    assert "overflowed 2^62" in caplog.text


class NoSearch:
    """A library stand-in whose search must never be reached."""

    def tc_search(self, *args):
        raise AssertionError("tc_search was called")


def test_compiled_wrapper_rejects_bad_shapes_before_the_search():
    """A ragged row, a group with a different edge count and row counts
    that do not sum to n + nb each stop with a ValueError naming its
    cause, before the C search reads an array."""
    (n, nb, groups), _ = shifted_mixed_inputs(0)
    members, rows, rhs, uj = groups[0]
    ragged = (members, ((rows[0][0][:-1],) + rows[0][1:],) + rows[1:],
              rhs, uj)
    members, rows, rhs, uj = groups[-1]
    fewer = (members, rows[:-1], rhs[:-1], uj[:-1])
    cases = [((n, nb, (ragged,) + groups[1:]), "not rectangular"),
             ((n, nb, groups[:-1] + (fewer,)), "not rectangular"),
             ((n + 1, nb, groups), "row count does not match")]
    for args, cause in cases:
        with pytest.raises(ValueError, match=cause):
            _kernel._search_compiled(NoSearch(), *args)


@needs_compiled
def test_compiled_bad_input_is_a_value_error():
    """A group without constraints passes the wrapper's shape checks;
    the C search refuses it, and the wrapper says so."""
    (n, nb, groups), _ = shifted_mixed_inputs(0)
    rows = groups[0][1]
    empty = ((), rows, tuple(() for _ in rows), groups[0][3])
    with pytest.raises(ValueError, match="out of range"):
        _kernel._search_compiled(_kernel._library(), n, nb,
                                 groups + (empty,))


@needs_gcc
def test_search_source_compiles_cleanly(tmp_path):
    proc = subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic",
         "-fPIC", "-shared", "-o", str(tmp_path / "search.so"),
         str(build.SOURCE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def copy_package(tmp_path):
    """The package sources alone, with no built library beside them."""
    dest = tmp_path / "tropcount"
    shutil.copytree(PACKAGE, dest, ignore=shutil.ignore_patterns(
        "__pycache__", "_search-*"))
    return dest


SELECT = ("import logging, sys\n"
          "logging.basicConfig(level=logging.INFO, stream=sys.stdout)\n"
          "from tropcount import _kernel\n"
          "print(_kernel.implementation())\n")


def select_lane(root, **env):
    environ = dict(os.environ, PYTHONPATH=str(root), **env)
    environ.pop("TROPCOUNT_PURE", None)
    proc = subprocess.run([sys.executable, "-c", SELECT], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("cc, reason", [
    ("false", "false exited 1"),
    ("tropcount-no-such-cc", "cannot run tropcount-no-such-cc"),
])
def test_failed_build_selects_pure_and_says_why(tmp_path, cc, reason):
    pkg = copy_package(tmp_path)
    *log, lane = select_lane(tmp_path, CC=cc)
    assert lane == "pure"
    assert len(log) == 1 and reason in log[0]
    assert not list((pkg / "_kernel").glob("_search-*"))


def test_missing_source_selects_pure_and_says_why(tmp_path):
    pkg = copy_package(tmp_path)
    (pkg / "_kernel" / "search.c").unlink()
    *log, lane = select_lane(tmp_path)
    assert lane == "pure"
    assert len(log) == 1 and "search.c" in log[0]


def test_quiet_without_logging_config(tmp_path):
    copy_package(tmp_path)
    environ = dict(os.environ, PYTHONPATH=str(tmp_path), CC="false")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tropcount import _kernel; _kernel.implementation()"],
        env=environ, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "" and proc.stdout == ""


@needs_gcc
def test_first_use_builds_once(tmp_path):
    pkg = copy_package(tmp_path)
    assert select_lane(tmp_path) == ["compiled"]
    built = list((pkg / "_kernel").glob("_search-*"))
    assert [p.name for p in built] == [build.library_name()]
    stamp = built[0].stat().st_mtime_ns
    # a fresh library is loaded as it is, even with no compiler
    assert select_lane(tmp_path, CC="false") == ["compiled"]
    assert built[0].stat().st_mtime_ns == stamp
    # an edited source gets a new name, so it is rebuilt
    with open(pkg / "_kernel" / "search.c", "a") as fp:
        fp.write("\n")
    assert select_lane(tmp_path) == ["compiled"]
    assert len(list((pkg / "_kernel").glob("_search-*"))) == 2


@needs_gcc
def test_concurrent_first_uses_share_one_library(tmp_path):
    """Processes that all find the library missing build it at once;
    each loads a whole library and no temporary file is left behind."""
    pkg = copy_package(tmp_path)
    environ = dict(os.environ, PYTHONPATH=str(tmp_path))
    environ.pop("TROPCOUNT_PURE", None)
    procs = [subprocess.Popen([sys.executable, "-c", SELECT], env=environ,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [out.split() for out in outs] == [["compiled"]] * 4
    assert [p.name for p in (pkg / "_kernel").glob("_search-*")] == \
        [build.library_name()]


def test_pure_env_skips_the_build(tmp_path):
    pkg = copy_package(tmp_path)
    environ = dict(os.environ, PYTHONPATH=str(tmp_path), TROPCOUNT_PURE="1")
    proc = subprocess.run([sys.executable, "-c", SELECT], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["pure"]
    assert not list((pkg / "_kernel").glob("_search-*"))
