"""End-to-end command line checks, in process via main()."""

import contextlib
import copy
import io
import inspect
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_degrees import OCTAHEDRON_PAIRS
from tropcount import cli, curves, degrees, engine


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read(path):
    return json.loads(path.read_text())


def plane_line(offsets=((0, 0), (5, 7))):
    """The problem file of the plane lines through two points: at these
    fixed offsets, or at generated ones when offsets is None."""
    cons = {"kind": "generate", "bases": [[], []]}
    if offsets is not None:
        cons.update(kind="explicit", offsets=[list(o) for o in offsets])
    return {"rank": 2,
            "degree_source": {"kind": "explicit", "degrees": [
                engine.degree_to_json(degrees.plane_degree(1))]},
            "constraints": cons, "options": {}}


def test_preset_count_flag3_line(tmp_path):
    prob = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    assert cli.main(["preset", "flag3", "--class", "1,0",
                     "--out", str(prob)]) == 0
    data = read(prob)
    assert data["degree_source"] == {"kind": "flag3", "class": [1, 0]}
    assert data["constraints"]["bases"] == [[]]
    assert cli.main(["count", "--problem", str(prob), "--seed", "1",
                     "--out", str(out)]) == 0
    assert read(out)["total"] == 1


def test_preset_count_octahedron(tmp_path):
    prob = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    assert cli.main(["preset", "octahedron", "--class", "1",
                     "--out", str(prob)]) == 0
    assert read(prob)["constraints"]["bases"] == [[]]
    assert cli.main(["count", "--problem", str(prob),
                     "--out", str(out)]) == 0
    rep = read(out)
    assert rep["total"] == 4
    assert sum(1 for r in rep["per_degree"] if r["active"]) == 4


# the total of each registered table's all-ones class through points at
# seed 1; a table added to degrees.FACET_TABLES fails until pinned here
ALL_ONES_TOTALS = {"flag3": 1, "octahedron": 4}


@pytest.mark.parametrize("kind", sorted(degrees.FACET_TABLES))
def test_preset_serves_every_table(tmp_path, kind):
    """The skeleton of the all-ones class has the table's rank and
    (e + n - 3) / (n - 1) point conditions for e ends in rank n, and
    counts to the pinned total."""
    facets = degrees.FACET_TABLES[kind]
    n, ones = len(facets[0][0]), [1] * len(facets[0][1])
    prob = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    assert cli.main(["preset", kind, "--class", ",".join(map(str, ones)),
                     "--out", str(prob)]) == 0
    data = read(prob)
    assert data["rank"] == n
    codim = degrees.end_count(facets, ones) + n - 3
    assert codim % (n - 1) == 0
    assert data["constraints"]["bases"] == [[]] * (codim // (n - 1))
    assert cli.main(["count", "--problem", str(prob), "--seed", "1",
                     "--out", str(out)]) == 0
    assert read(out)["total"] == ALL_ONES_TOTALS[kind]


# The Gelfand-Cetlin table of Gr(2,4) in the coordinates (x12, x21, x22,
# x31): class d has 4d ends in rank 4
GR24_TABLE = (((0, -1, 0, 0), (1,)), ((-1, 1, 0, 0), (0,)),
              ((1, 0, -1, 0), (0,)), ((0, 0, 1, 0), (0,)),
              ((0, 1, 0, -1), (0,)), ((0, 0, -1, 1), (0,)))


def test_preset_refuses_a_class_whose_points_do_not_divide(
        tmp_path, monkeypatch, capsys):
    """Gr(2,4) class 1 needs codimension 4 + 4 - 3 = 5, which points of
    codimension 3 do not divide: one line naming the class and the 2
    left over, and exit 2.  Class 2 needs 9, three points."""
    monkeypatch.setitem(degrees.FACET_TABLES, "gr24", GR24_TABLE)
    out = tmp_path / "problem.json"
    assert cli.main(["preset", "gr24", "--class", "1",
                     "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "gr24 class 1 " in err and "leave 2 over" in err
    assert cli.main(["preset", "gr24", "--class", "2",
                     "--out", str(out)]) == 0
    data = read(out)
    assert data["rank"] == 4
    assert data["constraints"]["bases"] == [[]] * 3


@pytest.mark.parametrize("preset, cls", [("flag3", "0,0"), ("flag3", "2,-1"),
                                         ("flag3", "1,x"), ("octahedron", "0"),
                                         ("octahedron", "1,1"),
                                         ("flag3", "1")])
def test_preset_bad_class_exits_2(capsys, preset, cls):
    assert cli.main(["preset", preset, "--class", cls]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad class" in err


def test_count_long_gate(tmp_path):
    data = plane_line()
    data["options"]["long"] = True
    path = write(tmp_path / "long.json", data)
    out = tmp_path / "report.json"
    assert cli.main(["count", "--problem", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(["count", "--problem", path, "--long",
                     "--out", str(out)]) == 0
    assert read(out)["total"] == 1


@pytest.mark.parametrize("edit, named", [
    ("degree_source", "'degree_source'"),
    ("rank", "'rank'"),
    ('options.odd_insertions="no"', "options.odd_insertions"),
    ("options.long=1", "options.long"),
    ("options=[]", "options"),
    ('degree_source={"kind": "flag3", "class": [1]}', "degree_source.class"),
    ('degree_source={"kind": "flag3", "class": [1, 1, 0]}',
     "degree_source.class"),
    ('degree_source={"kind": "flag3", "class": [1.0, 1]}',
     "degree_source.class"),
    ('degree_source={"kind": "flag3", "class": [true, 0]}',
     "degree_source.class"),
    ('degree_source={"kind": "flag3", "class": [0, 0]}',
     "degree_source.class"),
    ('degree_source={"kind": "flag3", "class": [-1, 2]}',
     "degree_source.class"),
    ('degree_source={"kind": "octahedron", "class": 0}',
     "degree_source.class"),
    ('degree_source={"kind": "octahedron", "class": 2.0}',
     "degree_source.class"),
    ('degree_source={"kind": "octahedron", "class": "2"}',
     "degree_source.class"),
    ('degree_source={"kind": "octahedron", "class": 2, "max_weight": 1.0}',
     "degree_source.max_weight"),
    ('constraints={"kind": "generate", "bases": [[], []], "bound": 0}',
     "with bound 0"),
    ("constraints.offsets=[[0, 0], [0, 0]]", "fixed offsets"),
    ('constraints={"kind": "generate", "bases": [[], []], "bound": "x"}',
     "constraints.bound"),
    ('constraints={"kind": "generate", "bases": [[], []], "bound": 2.5}',
     "constraints.bound"),
    ("constraints.offsets=[[0.5, 0], [5, 7]]", "constraints.offsets[0][0]"),
    ("constraints.bases=[[], [[1, 0.5]]]", "constraints.bases[1][0][1]"),
    ('degree_source={"kind": "coarse", "coarse_degrees": "x"}',
     "degree_source.coarse_degrees"),
    ('degree_source.degrees=[{"entries": [[[-1, 0], "a"], [[0, -1], 1], '
     '[[1, 1], 1]]}]', "degree_source.degrees[0].entries[0][1]"),
    ('<{"rank": 2,\n "x": }', "bad.json:2:7: not JSON"),
    ("--problem=no-such-problem.json", "cannot read no-such-problem.json"),
    ("--workers=0", "workers must be a positive integer"),
    ("--workers=-3", "workers must be a positive integer"),
])
def test_count_bad_problem_exits_2(tmp_path, capsys, edit, named):
    """edit names a field to drop, sets the field at path with
    path=JSON, replaces the whole file with the text after a leading <,
    or passes a count option with --option=value."""
    data = plane_line()
    options = []
    if edit.startswith("--"):
        options = edit.split("=", 1)
    elif not edit.startswith("<"):
        path, _, value = edit.partition("=")
        *parents, last = path.split(".")
        obj = data
        for key in parents:
            obj = obj[key]
        if value:
            obj[last] = json.loads(value)
        else:
            del obj[last]
    path = write(tmp_path / "bad.json", data)
    if edit.startswith("<"):
        (tmp_path / "bad.json").write_text(edit[1:])
    assert cli.main(["count", "--problem", path, *options]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err


# three small valid problems: a preset class, an explicit degree at fixed
# offsets, and a coarse source (octahedron class 1, through one point)
VALID_PROBLEMS = (
    {"rank": 3, "degree_source": {"kind": "flag3", "class": [1, 1]},
     "constraints": {"kind": "generate", "bases": [[], []]}, "options": {}},
    plane_line(),
    {"rank": 3,
     "degree_source": {"kind": "coarse", "max_weight": 1, "coarse_degrees": [
         [{"ray": [-x for x in u], "count": 1}, {"ray": list(u), "count": 1}]
         for u in OCTAHEDRON_PAIRS]},
     "constraints": {"kind": "generate", "bases": [[]], "bound": 1000}},
)


def field_paths(data, prefix=()):
    """The path of every field and list entry below data."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@st.composite
def mutated_problems(draw):
    """A valid problem with one field or list entry dropped, retyped to
    a float, bool, string, list or null, or (an integer) moved by at
    most 2.  No mutation counts more than flag3 (1, 1): a moved class
    keeps its two point conditions, so none of its degrees is active."""
    data = copy.deepcopy(draw(st.sampled_from(VALID_PROBLEMS)))
    *parents, last = draw(st.sampled_from(list(field_paths(data))))
    obj = data
    for key in parents:
        obj = obj[key]
    value = obj[last]
    how = draw(st.sampled_from(
        ["drop", "float", "bool", "string", "list", "null"]
        + ["perturb"] * (type(value) is int)))
    if how == "drop":
        del obj[last]
    elif how == "perturb":
        obj[last] = value + draw(st.sampled_from((-2, -1, 1, 2)))
    else:
        obj[last] = {"float": float(value) if type(value) is int else 0.5,
                     "bool": not value, "string": str(value),
                     "list": [value], "null": None}[how]
    return data


@given(mutated_problems())
@settings(max_examples=300, deadline=None)
def test_mutated_problem_counts_or_exits_2(data):
    """A mutated problem file gives a JSON report and exit 0, or one line
    on stderr and exit 2: never a traceback, and never exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "problem.json", data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["count", "--problem", path, "--seed", "1"])
    if code == 0:
        assert type(json.loads(out.getvalue())["total"]) is int
    else:
        assert code == 2 and err.getvalue().count("\n") == 1, err.getvalue()


def test_count_explicit_offsets_wrong_length(tmp_path, capsys):
    data = plane_line()
    data["constraints"]["offsets"].pop()
    path = write(tmp_path / "bad.json", data)
    assert cli.main(["count", "--problem", path]) == 2
    assert "constraints.offsets" in capsys.readouterr().err


def set_bases(bases):
    return lambda data: data["constraints"].update(bases=bases)


@pytest.mark.parametrize("change, named", [
    (set_bases([[[2, 0]], []]), "constraints.bases[0]"),
    (set_bases([[[0, 0]], []]), "constraints.bases[0]"),
    (set_bases([[], [[1, 0, 0]]]), "constraints.bases[1]"),
    (lambda data: data.update(rank=3), "degree_source"),
    (lambda data: data.update(rank="2"), "rank"),
], ids=["not-saturated", "dependent", "wrong-length", "degree-rank",
        "rank-not-int"])
def test_count_bad_problem_is_rejected_before_counting(tmp_path, capsys,
                                                       change, named):
    data = plane_line(offsets=None)
    change(data)
    path = write(tmp_path / "bad.json", data)
    assert cli.main(["count", "--problem", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err


def test_types_listing(tmp_path):
    degfile = write(tmp_path / "degree.json",
                    engine.degree_to_json(degrees.plane_degree(1)))
    out = tmp_path / "types.json"
    assert cli.main(["types", "--degree", degfile, "--marks", "1",
                     "--out", str(out)]) == 0
    data = read(out)
    assert data["count"] == 3 and len(data["types"]) == 3
    assert all(len(t["markings"]) == 1 for t in data["types"])


@pytest.mark.parametrize("to_file", [True, False])
def test_output_is_indented_json_text(tmp_path, capsys, to_file):
    """Output is streamed, and its bytes are json.dumps(sort_keys=True,
    indent=2) and a newline, for a count report and a types listing."""
    runs = [["count", "--problem",
             write(tmp_path / "problem.json", plane_line())],
            ["types", "--marks", "1", "--degree",
             write(tmp_path / "degree.json",
                   engine.degree_to_json(degrees.plane_degree(2)))]]
    for i, args in enumerate(runs):
        out = tmp_path / ("out%d.json" % i)
        assert cli.main(args + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_bytes().decode() if to_file else \
            capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"
        assert json.loads(text)["total" if i == 0 else "count"] > 0


def test_constraints_deterministic(tmp_path):
    spec = write(tmp_path / "spec.json",
                 {"rank": 3, "bases": [[], [[0, 0, 1]]], "bound": 9})
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    for out, seed in ((a, "4"), (b, "4"), (c, "5")):
        assert cli.main(["constraints", "--spec", spec, "--seed", seed,
                         "--out", str(out)]) == 0
    assert read(a) == read(b)
    assert read(a) != read(c)
    cons = read(a)["constraints"]
    assert cons[0]["basis"] == [] and cons[1]["basis"] == [[0, 0, 1]]
    assert all(abs(x) <= 9 for c_ in cons for x in c_["offset"])


LINE = '{"entries": [[[-1, 0], 1], [[0, -1], 1], [[1, 1], 1]]}'


@pytest.mark.parametrize("args, named", [
    ("types --degree missing.json --marks 0", "cannot read missing.json"),
    ("types --degree <[] --marks 0", "degree must be a JSON object"),
    ('types --degree <{"entries":3} --marks 0', "degree.entries"),
    ("types --degree <%s --marks -1" % LINE.replace(" ", ""), "--marks"),
    ("constraints --spec missing.json", "cannot read missing.json"),
    ("constraints --spec <{", "input.json:1:2: not JSON"),
    ('constraints --spec <{"rank":3}', "spec is missing 'bases'"),
    ('constraints --spec <{"bases":[]}', "spec is missing 'rank'"),
    ('constraints --spec <{"rank":"3","bases":[]}', "spec.rank"),
    ('constraints --spec <{"rank":3,"bases":[[[1,0]]]}', "spec.bases[0]"),
    ('constraints --spec <{"rank":3,"bases":[[[1,0.5,0]]]}',
     "spec.bases[0][0][1]"),
    ('constraints --spec <{"rank":3,"bases":[],"bound":-1}', "spec.bound"),
])
def test_types_and_constraints_bad_input_exits_2(tmp_path, monkeypatch,
                                                 capsys, args, named):
    """An argument <text stands for a file input.json holding text."""
    monkeypatch.chdir(tmp_path)
    argv = args.split()
    for i, arg in enumerate(argv):
        if arg.startswith("<"):
            (tmp_path / "input.json").write_text(arg[1:])
            argv[i] = "input.json"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert err.startswith("tropcount %s: " % argv[0])


def test_oracle_prints_value(capsys):
    assert cli.main(["oracle", "--plane-degree", "3"]) == 0
    assert capsys.readouterr().out.strip() == "12"


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_oracle_degree_below_one_exits_2(capsys, degree):
    assert cli.main(["oracle", "--plane-degree", degree]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "degree must be positive" in err
    assert err.startswith("tropcount oracle: --plane-degree: ")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int to str conversion")
def test_oracle_prints_a_long_value(capsys):
    """N_120 has 654 digits: printed in full under a digit limit of 640
    (the least allowed) and a recursion limit that leaves 50 frames."""
    digits, depth = sys.get_int_max_str_digits(), sys.getrecursionlimit()
    sys.set_int_max_str_digits(640)
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        assert cli.main(["oracle", "--plane-degree", "120"]) == 0
    finally:
        sys.set_int_max_str_digits(digits)
        sys.setrecursionlimit(depth)
    out = capsys.readouterr().out
    assert out == "%d\n" % engine.kontsevich_oracle(120) and len(out) == 655


def fan_files(tmp_path, break_cert=False):
    from test_toric import split_square_cones, table_fan

    fan = table_fan("octahedron")
    cones = list(split_square_cones(fan).simplicial_cones)
    if break_cert:
        cones[-1] = (cones[-1][0], cones[-1][1], (9, 9, 9))
    fanfile = write(tmp_path / "fan.json",
                    {"rays": fan.rays, "cones": fan.cones})
    certfile = write(tmp_path / "cert.json", {"cones": cones})
    return fanfile, certfile


def test_toric_verify_accepts(tmp_path):
    fanfile, certfile = fan_files(tmp_path)
    out = tmp_path / "verdict.json"
    assert cli.main(["toric", "verify", "--fan", fanfile, "--cert", certfile,
                     "--out", str(out)]) == 0
    assert read(out)["ok"] is True


def test_toric_verify_rejects(tmp_path):
    fanfile, certfile = fan_files(tmp_path, break_cert=True)
    out = tmp_path / "verdict.json"
    assert cli.main(["toric", "verify", "--fan", fanfile, "--cert", certfile,
                     "--out", str(out)]) == 1
    verdict = read(out)
    assert verdict["ok"] is False
    assert any(line.startswith("(a)") for line in verdict["report"])


@pytest.mark.parametrize("which, data, named", [
    ("fan", None, "cannot read"),
    ("fan", {"cones": [[0, 1, 2]]}, "fan is missing 'rays'"),
    ("cert", {"simplicial_cones": [[0, 1, 2]]}, "cert is missing 'cones'"),
    ("fan", {"rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
             "cones": [[0, 1, 2]]}, "fan rays must be primitive"),
    ("fan", {"rays": [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]],
             "cones": [[0, 1, 2]]}, "fan.rays[0][0]"),
    ("fan", {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "cones": [[0, "1", 2]]}, "fan.cones[0][1]"),
    ("fan", {"rays": [], "cones": []}, "fan rays must be a nonempty"),
    ("cert", {"cones": [[0, None, 2]]}, "cert.cones[0][1]"),
    ("fan", {"rays": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]],
             "cones": [[0, 1, 2]]}, "vectors of one length"),
])
def test_toric_verify_bad_input_exits_2(tmp_path, capsys, which, data,
                                        named):
    """A bad input file is exit 2, apart from a rejected certificate's 1."""
    files = dict(zip(("fan", "cert"), fan_files(tmp_path)))
    if data is None:
        files[which] = str(tmp_path / "missing.json")
    else:
        write(tmp_path / (which + ".json"), data)
    assert cli.main(["toric", "verify", "--fan", files["fan"],
                     "--cert", files["cert"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert err.startswith("tropcount toric verify: ")


@pytest.mark.parametrize("bad", ["missing/out.json", "."])
@pytest.mark.parametrize("command", [
    "count", "types", "constraints", "toric verify", "preset"])
def test_unopenable_out_exits_2(tmp_path, monkeypatch, capsys, command,
                                bad):
    """An --out in a missing directory, or a directory, is one line
    naming it and exit 2, in every subcommand that writes a file.
    `types` says so before it enumerates."""
    def no_types(*args, **kwargs):
        raise AssertionError("the types were enumerated")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(curves, "enumerate_types", no_types)
    fanfile, certfile = fan_files(tmp_path)
    argv = {
        "count": ["count", "--problem", write(tmp_path / "p.json",
                                              plane_line())],
        "types": ["types", "--marks", "1", "--degree", write(
            tmp_path / "d.json",
            engine.degree_to_json(degrees.plane_degree(1)))],
        "constraints": ["constraints", "--spec", write(
            tmp_path / "s.json", {"rank": 2, "bases": [[]]})],
        "toric verify": ["toric", "verify", "--fan", fanfile,
                         "--cert", certfile],
        "preset": ["preset", "flag3", "--class", "1,1"],
    }[command]
    assert cli.main(argv + ["--out", bad]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("tropcount %s: cannot write %s: " % (command, bad))


@pytest.mark.parametrize("bad", ["missing/out.json", "."])
def test_count_checks_out_before_counting(tmp_path, monkeypatch, capsys,
                                          bad):
    """An --out that cannot be written ends the count before it starts,
    and a writable one is neither created nor truncated by the check."""
    def no_count(*args, **kwargs):
        raise AssertionError("the count ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "count_invariant", no_count)
    problem = write(tmp_path / "p.json", plane_line())
    assert cli.main(["count", "--problem", problem, "--out", bad]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("tropcount count: cannot write %s: " % bad)

    def failed_count(*args, **kwargs):
        raise ValueError("no count")

    monkeypatch.setattr(engine, "count_invariant", failed_count)
    assert cli.main(["count", "--problem", problem, "--out", "new.json"]) == 2
    assert not (tmp_path / "new.json").exists()
    (tmp_path / "old.json").write_text("kept")
    assert cli.main(["count", "--problem", problem, "--out", "old.json"]) == 2
    assert (tmp_path / "old.json").read_text() == "kept"


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main([])
