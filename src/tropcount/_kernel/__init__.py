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
    # imported here, so that processes which never select a lane (every
    # count does, whatever its conditions; listing types or checking a
    # certificate does not) stay smaller
    import ctypes

    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        log.warning("compiled kernel not loaded, using the pure lane: %s",
                    exc)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.tc_search.argtypes = ([i64] * 4 + [ptr] * 5 +
                              [ctypes.POINTER(ctypes.POINTER(i64)),
                               ctypes.POINTER(i64)])
    lib.tc_search.restype = i64
    lib.tc_free.argtypes = [ctypes.POINTER(i64)]
    lib.tc_free.restype = None
    return lib


def implementation():
    return "pure" if _library() is None else "compiled"


def search_points(n, nb, groups):
    """Candidate (edges, sigma) pairs of one type; see pure.search_points."""
    lib = _library()
    if lib is not None:
        result = _search_compiled(lib, n, nb, groups)
        if result is not None:
            return result
        log.info("compiled kernel overflowed 2^62 on a type with %d edges; "
                 "rerunning it in the pure lane", len(groups[0][1]))
    return pure.search_points(n, nb, groups)


def _search_compiled(lib, n, nb, groups):
    """pure.search_points in the C library; None on overflow."""
    import ctypes

    u_n = n + nb
    ne = len(groups[0][1])
    shape = [(len(g[1][0]) - 1, len(g[0])) for g in groups]
    l = sum(lg for _, lg in shape)
    if sum(r * lg for r, lg in shape) != u_n:
        raise ValueError("row count does not match unknown count")
    try:
        arrays = [
            array("q", [x for sh in shape for x in sh]),
            array("q", [c for g in groups for c in g[0]]),
            array("q", [x for g in groups for rows in g[1]
                        for row in rows for x in row]),
            array("q", [x for g in groups for er in g[2]
                        for row in er for x in row]),
            array("q", [uj for g in groups for uj in g[3]]),
        ]
    except OverflowError:  # beyond int64, so beyond 2^62 as well
        return None
    ng = len(groups)
    sizes = (2 * ng, l, ne * u_n * sum(r + 1 for r, _ in shape),
             ne * (u_n + l), ng * ne)
    if tuple(len(a) for a in arrays) != sizes:
        raise ValueError("kernel input is not rectangular")
    out = ctypes.POINTER(ctypes.c_int64)()
    count = ctypes.c_int64()
    status = lib.tc_search(n, nb, ne, ng,
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
