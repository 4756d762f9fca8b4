"""Reports pinned in full: a small set of counts at seed 1 against
tests/data/reference_reports.json.

Each report is compared whole, apart from timing and kernel (the lane),
so a change that is meant to keep every total, curve, multiplicity and
solution shows here when it does not.  After a change that is meant to
alter reports, regenerate the file from the root of the checkout with

    PYTHONPATH=src python tests/test_reference_reports.py
"""

import json
from pathlib import Path

from test_acceptance import LINE_DIRECTIONS
from tropcount import degrees, engine

DATA = Path(__file__).resolve().parent / "data" / "reference_reports.json"


def problems():
    """name -> problem JSON: the ten point-and-two-lines distributions
    of octahedron class 2 (criterion 6), flag3 (1,0), (0,1) and (1,1)
    and octahedron classes 1 and 2 through points, and plane conics."""
    out = {}
    dirs = LINE_DIRECTIONS
    for i in range(len(dirs)):
        for j in range(i, len(dirs)):
            out["octahedron 2, point, lines %d %d" % (i, j)] = {
                "rank": 3,
                "degree_source": {"kind": "octahedron", "class": 2},
                "constraints": {"kind": "generate",
                                "bases": [[], [list(dirs[i])],
                                          [list(dirs[j])]]}}
    for s, t in ((1, 0), (0, 1), (1, 1)):
        out["flag3 %d,%d, points" % (s, t)] = {
            "rank": 3, "degree_source": {"kind": "flag3", "class": [s, t]},
            "constraints": {"kind": "generate", "bases": [[]] * (s + t)}}
    for a in (1, 2):
        out["octahedron %d, points" % a] = {
            "rank": 3, "degree_source": {"kind": "octahedron", "class": a},
            "constraints": {"kind": "generate", "bases": [[]] * a}}
    out["plane 2, points"] = {
        "rank": 2, "degree_source": {"kind": "explicit", "degrees": [
            engine.degree_to_json(degrees.plane_degree(2))]},
        "constraints": {"kind": "generate", "bases": [[]] * 5}}
    return out


def report(data):
    """The report of a problem at seed 1, as JSON data without timing and
    kernel."""
    rep = engine.report_to_json(
        engine.count_invariant(engine.problem_from_json(data), seed=1))
    del rep["timing"], rep["kernel"]
    return json.loads(json.dumps(rep))


def test_reports_match_the_reference():
    reference = json.loads(DATA.read_text())
    cases = problems()
    assert sorted(reference) == sorted(cases)
    for name, data in cases.items():
        assert reference[name]["problem"] == data, name
        assert report(data) == reference[name]["report"], name


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w") as fp:
        json.dump({name: {"problem": data, "report": report(data)}
                   for name, data in problems().items()},
                  fp, sort_keys=True, indent=1)
        fp.write("\n")
