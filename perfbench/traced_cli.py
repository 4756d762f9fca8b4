"""Run the tropcount command line with layer tracing installed.

    python3 perfbench/traced_cli.py SPANS_OUT <tropcount arguments...>

The CLI's own output is unchanged; the spans of the run are written to
SPANS_OUT when it ends.  run.py uses this for the traced pass of the
points-cold workload, where every count is a fresh process.
"""

import sys

from tracer import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from tropcount import cli

    tracer.begin_count()
    try:
        code = cli.main(argv)
    finally:
        tracer.end_count()
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
