"""Build of the compiled search library from search.c.

This module uses the standard library only, so setup.py can load it by
path before the package is importable.  The library is named by a hash
of the C source, so an edited search.c gets a new name and is rebuilt
instead of loading a stale binary.  The hash is CRC-32 and the length,
not a cryptographic digest: it only tells edits apart, and hashlib
would add the 3-4 MB of OpenSSL to every process that selects a lane.
"""

import os
from pathlib import Path

SOURCE = Path(__file__).with_name("search.c")
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")
COMPILE_TIMEOUT_S = 120


class BuildError(Exception):
    pass


def library_name():
    """File name of the library built from the current SOURCE."""
    import zlib

    source = SOURCE.read_bytes()
    return "_search-%08x-%x.so" % (zlib.crc32(source), len(source))


def build_library(path):
    """Compile SOURCE into the shared library at path.

    The compiler is $CC, else the one Python was built with, as
    setuptools chooses it.  Output goes to a temporary file beside path
    that is renamed into place, so a process loading path concurrently
    never sees a half-written library.  Raises BuildError with the cause:
    an unwritable directory, a missing compiler, or the compiler's last
    line of error output.
    """
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(os.environ.get("CC")
                     or sysconfig.get_config_var("CC") or "") or ["cc"]
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
    except OSError as exc:
        raise BuildError("cannot write to %s: %s"
                         % (path.parent, exc.strerror)) from None
    os.close(fd)
    try:
        try:
            proc = subprocess.run(cc + [*CFLAGS, "-o", tmp, str(SOURCE)],
                                  capture_output=True, text=True,
                                  timeout=COMPILE_TIMEOUT_S)
        except OSError as exc:
            raise BuildError("cannot run %s: %s"
                             % (cc[0], exc.strerror)) from None
        except subprocess.TimeoutExpired:
            raise BuildError("%s ran past %d s"
                             % (cc[0], COMPILE_TIMEOUT_S)) from None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise BuildError("%s exited %d%s" % (
                cc[0], proc.returncode, ": " + lines[-1] if lines else ""))
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
