"""Search kernel selection.

search_points has two lanes with identical results: the C search in
search.c, loaded with ctypes, and its pure Python twin in pure.py.  The
lane is selected on the first call of implementation() or
search_points().  The C library is found beside this file under a name
hashed from search.c; when it is missing it is compiled there first
(see build.py).  Without a compiler, with an unwritable directory or
after a failed build the pure lane is used, and the reason is logged to
the "tropcount" logger.  Setting TROPCOUNT_PURE=1 in the environment
forces the pure lane.

The C search works in 128-bit integers over entries kept within 2^62;
a call that would leave that range is rerun in the pure lane, which is
also logged.
"""

import functools
import logging
import os
from array import array
from pathlib import Path

from . import build, pure

log = logging.getLogger("tropcount")

STATUS_OK = pure.OK
STATUS_NON_GENERAL = pure.NON_GENERAL
# the C search's further statuses
OVERFLOW, BAD_INPUT, NO_MEMORY = 2, 3, 4


@functools.cache
def _library():
    """The loaded C library, or None for the pure lane."""
    if os.environ.get("TROPCOUNT_PURE"):
        return None
    try:
        path = Path(__file__).with_name(build.library_name())
        if not path.exists():
            build.build_library(path)
    except (build.BuildError, OSError) as exc:
        log.warning("compiled kernel not built, using the pure lane: %s", exc)
        return None
    # imported here, so that processes which never select a lane (counts
    # with line or plane conditions, and their pool workers) stay smaller
    import ctypes

    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        log.warning("compiled kernel not loaded, using the pure lane: %s",
                    exc)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.tc_search_points.argtypes = ([i64] * 5 + [ptr] * 6 +
                                     [ctypes.POINTER(ctypes.POINTER(i64)),
                                      ctypes.POINTER(i64)])
    lib.tc_search_points.restype = i64
    lib.tc_free.argtypes = [ctypes.POINTER(i64)]
    lib.tc_free.restype = None
    return lib


def implementation():
    return "pure" if _library() is None else "compiled"


def search_points(n, nb, blocks, rhs, lbounded, tdata, pj):
    """Candidate (edges, sigma) pairs of one type; see pure.search_points."""
    lib = _library()
    if lib is not None:
        result = _search_compiled(lib, n, nb, blocks, rhs, lbounded, tdata,
                                  pj)
        if result is not None:
            return result
        log.info("compiled kernel overflowed 2^62 on a type with %d edges; "
                 "rerunning it in the pure lane", len(blocks))
    return pure.search_points(n, nb, blocks, rhs, lbounded, tdata, pj)


def _search_compiled(lib, n, nb, blocks, rhs, lbounded, tdata, pj):
    """pure.search_points in the C library; None on overflow."""
    import ctypes

    u_n = n + nb
    ne = len(blocks)
    r = len(blocks[0])
    l = len(rhs[0])
    if l * r != u_n:
        raise ValueError("row count does not match unknown count")
    try:
        arrays = [
            array("q", [x for block in blocks for row in block for x in row]),
            array("q", [x for er in rhs for row in er for x in row]),
            array("q", lbounded),
            array("q", [t[1] for t in tdata]),
            array("q", [x for t in tdata for x in t[2]]),
            array("q", [x for row in pj for x in row]),
        ]
    except OverflowError:  # beyond int64, so beyond 2^62 as well
        return None
    sizes = (ne * r * u_n, ne * l * r, ne, ne, ne * u_n, ne * l)
    if tuple(len(a) for a in arrays) != sizes:
        raise ValueError("kernel input is not rectangular")
    out = ctypes.POINTER(ctypes.c_int64)()
    count = ctypes.c_int64()
    status = lib.tc_search_points(n, nb, ne, r, l,
                                  *(a.buffer_info()[0] for a in arrays),
                                  ctypes.byref(out), ctypes.byref(count))
    if status == OVERFLOW:
        return None
    if status == BAD_INPUT:
        raise ValueError("kernel input out of range")
    if status == NO_MEMORY:
        raise MemoryError("compiled kernel ran out of memory")
    if status == STATUS_NON_GENERAL:
        return STATUS_NON_GENERAL, []
    try:
        flat = out[:count.value * 2 * l]
    finally:
        lib.tc_free(out)
    return STATUS_OK, [(tuple(flat[i:i + l]), tuple(flat[i + l:i + 2 * l]))
                       for i in range(0, len(flat), 2 * l)]
