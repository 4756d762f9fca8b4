"""Counting engine: axioms, oracle, JSON schemas, lanes, regressions."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcount import _kernel, curves, degrees, engine


def octahedron_problem(a, bases, **kw):
    degs = degrees.degree_set_degrees(degrees.octahedron_class_set(a))
    return engine.Problem(n=3, degrees=degs, constraint_bases=bases, **kw)


def test_kontsevich_oracle():
    assert [engine.kontsevich_oracle(d) for d in range(1, 6)] == \
        [1, 1, 12, 620, 87304]
    with pytest.raises(ValueError):
        engine.kontsevich_oracle(0)


def test_apply_divisor_axiom():
    assert engine.apply_divisor_axiom(3, [(2, 2), (5, 1)]) == 60
    assert engine.apply_divisor_axiom(3, []) == 3
    assert engine.apply_divisor_axiom(
        1, [(Fraction(1, 2), 2)]) == Fraction(1, 4)
    assert engine.apply_divisor_axiom(7, [(2, 3)], balanced=False) == 0
    assert engine.odd_class_vanishing() == 0


def test_odd_insertion_short_circuit():
    prob = octahedron_problem(1, ((),), odd_insertions=True)
    rep = engine.count_invariant(prob)
    assert rep.total == 0
    assert all(not r.active for r in rep.per_degree)
    assert rep.note == engine.ODD_VANISHING_NOTE


def test_dimension_gate_marks_inactive():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), (), ()))
    rep = engine.count_invariant(prob)
    assert rep.total == 0
    (r,) = rep.per_degree
    assert not r.active and r.note == engine.DIMENSION_NOTE


def test_rank_mismatch_raises():
    prob = engine.Problem(n=3, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()))
    with pytest.raises(ValueError):
        engine.count_invariant(prob)


def test_octahedron_line_against_two_lines():
    distinct = octahedron_problem(1, (((0, 0, 1),), ((0, 1, 0),)))
    assert engine.count_invariant(distinct, seed=1).total == 2
    repeated = octahedron_problem(1, (((0, 0, 1),), ((0, 0, 1),)))
    assert engine.count_invariant(repeated, seed=1).total == 0


def test_octahedron_conics_through_two_points():
    prob = octahedron_problem(2, ((), ()))
    rep = engine.count_invariant(prob, seed=1)
    assert rep.total == 2
    # only the mass-four refinements carry the right dimension
    for r in rep.per_degree:
        assert r.active == (r.degree.e == 4)


def test_workers_match_serial():
    prob = octahedron_problem(1, ((),))
    serial = engine.count_invariant(prob, seed=2, workers=1)
    parallel = engine.count_invariant(prob, seed=2, workers=2)
    assert serial.total == parallel.total == 4
    assert [r.subtotal for r in serial.per_degree] == \
        [r.subtotal for r in parallel.per_degree]
    assert parallel.workers == 2


def test_count_report_fields():
    prob = octahedron_problem(1, ((),))
    rep = engine.count_invariant(prob, seed=5)
    assert rep.seeds_used == (5,)
    assert rep.genericity_retries >= 0
    assert rep.kernel in ("compiled", "pure")
    assert rep.timing > 0


def test_compiled_kernel_is_available():
    assert _kernel.implementation() == "compiled"


def test_pure_lane_subprocess_matches():
    script = (
        "import json\n"
        "from tropcount import _kernel, degrees, engine\n"
        "degs = degrees.degree_set_degrees(degrees.octahedron_class_set(1))\n"
        "prob = engine.Problem(n=3, degrees=degs, constraint_bases=((),))\n"
        "rep = engine.count_invariant(prob, seed=3)\n"
        "print(json.dumps({'kernel': rep.kernel, 'total': rep.total}))\n")
    env = dict(os.environ, TROPCOUNT_PURE="1")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    data = json.loads(out.stdout)
    assert data["kernel"] == "pure"
    here = engine.count_invariant(
        engine.Problem(
            n=3,
            degrees=degrees.degree_set_degrees(
                degrees.octahedron_class_set(1)),
            constraint_bases=((),)), seed=3)
    assert data["total"] == here.total == 4


def test_fraction_strings():
    assert engine._frac_str(Fraction(3, 2)) == "3/2"
    assert engine._frac_str(Fraction(4, 2)) == "2"
    assert engine.parse_frac("3/2") == Fraction(3, 2)


def test_degree_json_round_trip():
    deg = degrees.plane_degree(2)
    data = json.loads(json.dumps(engine.degree_to_json(deg)))
    assert engine.degree_from_json(data) == deg


def test_problem_json_explicit_round_trip():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)), bound=77)
    data = json.loads(json.dumps(engine.problem_to_json(prob)))
    back = engine.problem_from_json(data)
    assert back == prob
    assert back.bound == 77


def test_problem_json_sources():
    flag = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "flag3", "class": [1, 1]},
        "constraints": {"kind": "generate", "bases": [[], []]},
    })
    ds = degrees.preset_flag3(1, 1)
    assert flag.degrees == degrees.degree_set_degrees(ds)

    octa = engine.problem_from_json({
        "rank": 3,
        "degree_source": {"kind": "octahedron", "class": 2},
        "constraints": {"kind": "generate", "bases": [[], []]},
    })
    assert octa.degrees == degrees.degree_set_degrees(
        degrees.octahedron_class_set(2))

    coarse = engine.problem_from_json({
        "rank": 3,
        "degree_source": {
            "kind": "coarse",
            "coarse_degrees": degrees.degree_set_to_json(
                degrees.preset_octahedron(1)),
            "max_weight": 1,
        },
        "constraints": {"kind": "generate", "bases": [[]]},
    })
    assert coarse.degrees == degrees.degree_set_degrees(
        degrees.preset_octahedron(1), max_weight=1)

    with pytest.raises(ValueError):
        engine.problem_from_json({
            "rank": 2,
            "degree_source": {"kind": "mystery"},
            "constraints": {"kind": "generate", "bases": []},
        })
    with pytest.raises(ValueError):
        engine.problem_from_json({
            "rank": 2,
            "degree_source": {"kind": "explicit", "degrees": []},
            "constraints": {"kind": "nope", "bases": []},
        })


PLANE_LINE = {
    "rank": 2,
    "degree_source": {"kind": "explicit", "degrees": [
        {"entries": [[[-1, 0], 1], [[0, -1], 1], [[1, 1], 1]]}]},
    "constraints": {"kind": "explicit", "bases": [[], []],
                    "offsets": [[0, 0], [5, 7]]},
}


def without(data, path):
    """A deep copy of data with the field at path (a dotted name) gone."""
    data = json.loads(json.dumps(data))
    *parents, last = path.split(".")
    obj = data
    for key in parents:
        obj = obj[key]
    del obj[last]
    return data


@pytest.mark.parametrize("path, named", [
    ("rank", "'rank'"),
    ("degree_source", "'degree_source'"),
    ("degree_source.kind", "'kind'"),
    ("constraints", "'constraints'"),
    ("constraints.bases", "'bases'"),
    ("constraints.offsets", "'offsets'"),
])
def test_problem_json_missing_field_is_named(path, named):
    assert engine.problem_from_json(PLANE_LINE).n == 2
    with pytest.raises(ValueError, match=named):
        engine.problem_from_json(without(PLANE_LINE, path))


def test_problem_json_offsets_must_fit():
    data = json.loads(json.dumps(PLANE_LINE))
    data["constraints"]["offsets"] = [[0, 0]]
    with pytest.raises(ValueError, match="offsets has 1 entries for 2"):
        engine.problem_from_json(data)
    data["constraints"]["offsets"] = [[0, 0], [5, 7, 1]]
    with pytest.raises(ValueError, match=r"offsets\[1\] has 3 coordinates"):
        engine.problem_from_json(data)


def test_mixed_count_leaves_the_lane_unselected(monkeypatch):
    def selected():
        raise AssertionError("the lane was selected")

    monkeypatch.setattr(_kernel, "implementation", selected)
    prob = octahedron_problem(1, (((0, 0, 1),), ((0, 1, 0),)))
    assert engine.count_invariant(prob, seed=1).kernel == "pure"


def test_report_json_and_dump():
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    rep = engine.count_invariant(prob)
    data = json.loads(engine.dump_report(rep))
    assert data["total"] == 1
    assert data["kernel"] in ("compiled", "pure")
    (drep,) = data["per_degree"]
    assert drep["active"] and drep["subtotal"] == 1
    (curve,) = drep["curves"]
    assert curve["multiplicity"]["total"] == 1
    assert curve["solution"]["root"] == ["0", "2"]
    t = curve["type"]
    assert t["vertices"] == 1 and t["bounded"] == [] and not t["degenerate"]
    assert sorted(w for _, w, _ in t["ends"]) == [1, 1, 1]
    assert len(t["markings"]) == 2


def test_comb_type_json_degenerate():
    deg = curves.make_degree([((1, 0, 0), 1), ((-1, 0, 0), 1)])
    ((t, _),) = curves.unmarked_types(deg)
    data = engine.comb_type_to_json(t)
    assert data["degenerate"] and data["vertices"] == 0
