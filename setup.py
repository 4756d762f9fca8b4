"""Build of tropcount with its compiled search kernel.

The kernel is one C file, src/tropcount/_kernel/search.c, built into a
plain shared library that the package loads with ctypes; it is not a
Python extension module.  The library takes the file name the package
looks for (see _kernel/build.py).  Without a working C compiler the
package still installs, and the first use tries the build again or runs
the pure Python kernel, with identical results.  The library is compiled
by build_library with the flags of that first-use build, so an
installed library and one built on first use are the same binary.
"""

import os
import runpy
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

KERNEL = runpy.run_path(os.path.join("src", "tropcount", "_kernel", "build.py"))


class build_kernel(build_ext):
    def get_ext_filename(self, fullname):
        return os.path.join(*fullname.split(".")[:-1],
                            KERNEL["library_name"]())

    def build_extension(self, ext):
        path = Path(self.get_ext_fullpath(ext.name))
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            KERNEL["build_library"](path)
        except KERNEL["BuildError"] as exc:
            self.warn("compiled kernel not built, the package will retry on "
                      "first use or run the pure lane: %s" % exc)


setup(
    ext_modules=[Extension(
        "tropcount._kernel._search",
        [os.path.join("src", "tropcount", "_kernel", "search.c")],
        # an in-place build then skips copying a library that was not built
        optional=True,
    )],
    cmdclass={"build_ext": build_kernel},
)
