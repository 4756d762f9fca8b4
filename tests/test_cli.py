"""End-to-end command line checks, in process via main()."""

import json

import pytest

from tropcount import cli, degrees, engine, toric


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read(path):
    return json.loads(path.read_text())


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


def test_preset_flag3_wants_two_numbers(capsys):
    assert cli.main(["preset", "flag3", "--class", "1"]) == 2
    assert "flag3 wants" in capsys.readouterr().err


@pytest.mark.parametrize("preset, cls", [("flag3", "0,0"), ("flag3", "2,-1"),
                                         ("flag3", "1,x"), ("octahedron", "0"),
                                         ("octahedron", "1,1")])
def test_preset_bad_class_exits_2(capsys, preset, cls):
    assert cli.main(["preset", preset, "--class", cls]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad class" in err


def test_count_long_gate(tmp_path):
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    data = engine.problem_to_json(prob)
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
    data = engine.problem_to_json(engine.Problem(
        n=2, degrees=(degrees.plane_degree(1),), constraint_bases=((), ()),
        offsets=((0, 0), (5, 7))))
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


def test_count_explicit_offsets_wrong_length(tmp_path, capsys):
    data = engine.problem_to_json(engine.Problem(
        n=2, degrees=(degrees.plane_degree(1),), constraint_bases=((), ()),
        offsets=((0, 0), (5, 7))))
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
    data = engine.problem_to_json(engine.Problem(
        n=2, degrees=(degrees.plane_degree(1),), constraint_bases=((), ())))
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
    prob = engine.Problem(n=2, degrees=(degrees.plane_degree(1),),
                          constraint_bases=((), ()),
                          offsets=((0, 0), (5, 7)))
    runs = [["count", "--problem",
             write(tmp_path / "problem.json", engine.problem_to_json(prob))],
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


def fan_files(tmp_path, break_cert=False):
    from test_toric import split_square_cones

    fan = toric.normal_fan(toric.builtin_octahedron(1))
    cones = list(split_square_cones(fan).simplicial_cones)
    if break_cert:
        cones[-1] = (cones[-1][0], cones[-1][1], (9, 9, 9))
    fanfile = write(tmp_path / "fan.json", toric.fan_to_json(fan))
    certfile = write(tmp_path / "cert.json", toric.certificate_to_json(
        toric.make_certificate(cones)))
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


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main([])
