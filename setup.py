"""Build of tropcount with its compiled search kernel.

The kernel is one C file, src/tropcount/_kernel/search.c, built into a
plain shared library that the package loads with ctypes; it is not a
Python extension module.  The library takes the file name the package
looks for (see _kernel/build.py).  Without a working C compiler the
package still installs, and the first use tries the build again or runs
the pure Python kernel, with identical results.
"""

import os
import runpy

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

KERNEL = runpy.run_path(os.path.join("src", "tropcount", "_kernel", "build.py"))


class build_kernel(build_ext):
    def get_ext_filename(self, fullname):
        return os.path.join(*fullname.split(".")[:-1],
                            KERNEL["library_name"]())


setup(
    ext_modules=[Extension(
        "tropcount._kernel._search",
        [os.path.join("src", "tropcount", "_kernel", "search.c")],
        extra_compile_args=["-std=c99"],
        optional=True,
    )],
    cmdclass={"build_ext": build_kernel},
)
