"""Command line front end.

Subcommands: count a problem file, list canonical types of a degree,
emit a validated constraint tuple, query the plane-curve oracle, verify
a toric refinement certificate, and emit preset problem skeletons.
"""

import argparse
import contextlib
import json
import sys

from . import curves, engine, matching


def _load(path):
    """The JSON in the file at path, or a ValueError naming the file."""
    try:
        with open(path) as fp:
            return json.load(fp)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror)) from None
    except json.JSONDecodeError as exc:
        raise ValueError("%s:%d:%d: not JSON: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from None


def _emit(data, out=None):
    """Write data as indented JSON and a newline, to the file out or
    else to standard output, chunk by chunk rather than as one string."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fp:
        json.dump(data, fp, sort_keys=True, indent=2)
        fp.write("\n")


def _cmd_count(args):
    try:
        data = _load(args.problem)
        problem = engine.problem_from_json(data)
    except ValueError as exc:
        print("tropcount count: bad problem file: %s" % exc, file=sys.stderr)
        return 2
    if data.get("options", {}).get("long") and not args.long:
        print("problem is marked long; pass --long to run it",
              file=sys.stderr)
        return 2
    try:
        report = engine.count_invariant(problem, seed=args.seed,
                                        workers=args.workers)
    except (ValueError, engine.GeneralPositionError) as exc:
        print("tropcount count: %s" % exc, file=sys.stderr)
        return 2
    _emit(engine.report_to_json(report), args.out)
    return 0


def _cmd_types(args):
    try:
        if args.marks < 0:
            raise ValueError("--marks must be >= 0, not %d" % args.marks)
        deg = engine.degree_from_json(_load(args.degree))
    except ValueError as exc:
        print("tropcount types: %s" % exc, file=sys.stderr)
        return 2
    out = [engine.comb_type_to_json(t)
           for t in curves.enumerate_types(deg, args.marks)]
    _emit({"degree": engine.degree_to_json(deg), "marks": args.marks,
           "count": len(out), "types": out}, args.out)
    return 0


def _cmd_constraints(args):
    try:
        rank, bases, bound = engine.constraint_spec_from_json(
            _load(args.spec))
    except ValueError as exc:
        print("tropcount constraints: %s" % exc, file=sys.stderr)
        return 2
    cons = matching.generate_constraints(rank, bases, args.seed, bound)
    _emit({"constraints": [{"offset": list(c.offset),
                            "basis": [list(v) for v in c.basis]}
                           for c in cons]}, args.out)
    return 0


def _cmd_oracle(args):
    print(engine.kontsevich_oracle(args.plane_degree))
    return 0


def _cmd_toric_verify(args):
    from . import toric  # not needed to start the command line

    fan = toric.fan_from_json(_load(args.fan))
    cert = toric.certificate_from_json(_load(args.cert))
    ok, report = toric.verify_small_resolution(fan, cert)
    _emit({"ok": ok, "report": report}, args.out)
    return 0 if ok else 1


def _preset_problem(kind, cls):
    from . import degrees  # not needed to start the command line

    # in rank 3 a class with e ends meets e + n - 3 = e codimensions of
    # conditions, and each point has codimension 2
    npts = degrees.end_count(engine.PRESET_FACETS[kind], cls) // 2
    return {
        "rank": 3,
        "degree_source": {"kind": kind,
                          "class": cls if len(cls) > 1 else cls[0]},
        "constraints": {"kind": "generate", "bases": [[] for _ in range(npts)]},
        "options": {},
    }


def _cmd_preset(args):
    try:
        cls = [int(x) for x in args.cls.split(",")]
        if args.preset == "flag3" and len(cls) != 2:
            raise ValueError("flag3 wants --class S,T")
        data = _preset_problem(args.preset, cls)
    except ValueError as exc:
        print("tropcount preset: bad class: %s" % exc, file=sys.stderr)
        return 2
    _emit(data, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="tropcount",
        description="Count rational tropical curves under incidence "
                    "constraints.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="run a counting problem")
    c.add_argument("--problem", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--long", action="store_true",
                   help="allow problems marked long")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_count)

    t = sub.add_parser("types", help="list canonical combinatorial types")
    t.add_argument("--degree", required=True)
    t.add_argument("--marks", type=int, required=True)
    t.add_argument("--out")
    t.set_defaults(func=_cmd_types)

    g = sub.add_parser("constraints", help="emit a validated constraint tuple")
    g.add_argument("--spec", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_constraints)

    o = sub.add_parser("oracle", help="plane curve counts by recursion")
    o.add_argument("--plane-degree", type=int, required=True)
    o.set_defaults(func=_cmd_oracle)

    tor = sub.add_parser("toric", help="toric support tools")
    tsub = tor.add_subparsers(dest="toric_command", required=True)
    v = tsub.add_parser("verify", help="check a small-resolution certificate")
    v.add_argument("--fan", required=True)
    v.add_argument("--cert", required=True)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_toric_verify)

    pre = sub.add_parser("preset", help="emit a preset problem skeleton")
    pre.add_argument("preset", choices=("flag3", "octahedron"))
    pre.add_argument("--class", dest="cls", required=True,
                     help="S,T for flag3, A for octahedron")
    pre.add_argument("--out")
    pre.set_defaults(func=_cmd_preset)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
