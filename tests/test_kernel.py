"""Search kernel lanes: agreement, overflow fallback, build and selection."""

import functools
import logging
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcount import _kernel, curves, degrees, engine
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
    degs += degrees.degree_set_degrees(degrees.preset_flag3(1, 2))
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


def synthetic_inputs(shape, draw_int):
    """Search inputs of a given shape with entries from draw_int()."""
    n, nb, ne, r = shape
    u_n = n + nb
    l = u_n // r

    def draw(*dims):
        if not dims:
            return draw_int()
        return tuple(draw(*dims[1:]) for _ in range(dims[0]))

    tdata = tuple((0, draw(), draw(u_n)) for _ in range(ne))
    lbounded = tuple(e if e < nb else -1 for e in range(ne))
    return (n, nb, draw(ne, r, u_n), draw(ne, l, r), lbounded, tdata,
            draw(ne, l))


# (n, nb, edges, r): past the fixed limits of the old compiled kernel,
# 40 edges, 20 unknowns and 4 block rows (the fourth, 12 constraints,
# is below); the last is small enough to reach candidates.  Entries up
# to 1000 overflow the C search once there are 10 unknowns or more.
SHAPES = [(2, 2, 45, 2), (4, 6, 4, 5), (7, 14, 4, 7), (2, 1, 5, 1)]


@needs_compiled
@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.sampled_from(SHAPES),
       size=st.sampled_from([3, 10, 1000]))
def test_lanes_agree_beyond_old_limits(data, shape, size):
    inputs = synthetic_inputs(
        shape, lambda: data.draw(st.integers(-size, size)))
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
