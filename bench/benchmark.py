"""Timing comparison of the compiled and pure search kernels.

The kernel lane is selected once per process, so each lane runs in a
fresh subprocess with TROPCOUNT_PURE set accordingly.  Every case is checked
against its known count before timing is reported.
"""

import json
import os
import subprocess
import sys

WORKER = r'''
import json, sys, time
from tropcount import curves, engine
from tropcount._kernel import implementation

def plane(d):
    return curves.make_degree([((-1, 0), 1)] * d + [((0, -1), 1)] * d +
                              [((1, 1), 1)] * d)

def flag3(s, t):
    from tropcount import degrees
    return degrees.degree_set_degrees(degrees.preset_flag3(s, t))

def octa(a):
    from tropcount import degrees
    return degrees.degree_set_degrees(degrees.preset_octahedron(a))

CASES = {
    "plane d=2 (5 points)": (2, (plane(2),), 5, 1),
    "plane d=3 (8 points)": (2, (plane(3),), 8, 12),
    "flag3 (1,1) (2 points)": (3, flag3(1, 1), 2, 1),
    "octahedron a=1 (1 point)": (3, octa(1), 1, 4),
}

name = sys.argv[1]
n, degs, npts, want = CASES[name]
prob = engine.Problem(n=n, degrees=degs, constraint_bases=((),) * npts)
t0 = time.perf_counter()
rep = engine.count_invariant(prob, seed=0, workers=1)
dt = time.perf_counter() - t0
assert rep.total == want, (name, rep.total, want)
print(json.dumps({"kernel": implementation(), "seconds": dt,
                  "total": rep.total}))
'''

CASE_NAMES = [
    "plane d=2 (5 points)",
    "flag3 (1,1) (2 points)",
    "octahedron a=1 (1 point)",
    "plane d=3 (8 points)",
]


def run_case(name, pure):
    env = dict(os.environ)
    if pure:
        env["TROPCOUNT_PURE"] = "1"
    else:
        env.pop("TROPCOUNT_PURE", None)
    out = subprocess.run([sys.executable, "-c", WORKER, name],
                         capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise RuntimeError(out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    skip_long = "--fast" in sys.argv
    print("%-28s %12s %12s %9s" % ("case", "pure [s]", "compiled [s]",
                                   "speedup"))
    for name in CASE_NAMES:
        if skip_long and "d=3" in name:
            continue
        pure = run_case(name, True)
        comp = run_case(name, False)
        if comp["kernel"] != "compiled":
            print("%-28s compiled kernel unavailable, pure %0.2fs"
                  % (name, pure["seconds"]))
            continue
        print("%-28s %12.3f %12.3f %8.1fx"
              % (name, pure["seconds"], comp["seconds"],
                 pure["seconds"] / comp["seconds"]))


if __name__ == "__main__":
    main()
