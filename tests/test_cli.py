import gc
import io
import json
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pseudovis import (
    DegenerateInput,
    IndexOutOfRange,
    geometric_blockers,
    random_simple_polygon,
    validate_polygon,
    visibility_graph,
)
from pseudovis import all_candidates, cli, geometry, recognizer, separable_pairs, validate_graph
from pseudovis.blockers import candidate_table
from pseudovis.conditions import nc4_partners
from pseudovis.cli import (
    CORPUS_CHECKS,
    assignment_to_json,
    check_polygon,
    graph_to_json,
    main,
    polygon_to_json,
)
from pseudovis.geometry import _designated_blockers, _exit_table
from pseudovis.graph_core import MAX_VERTICES, rows
from pseudovis.vertex_edge import CharacterizationFailure
from conftest import DENT5_VERTICES
from support import complete_graph, cycle_graph


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_one_error_line(err):
    """The input-error contract: stderr is one line, the error: line."""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


@pytest.fixture
def dent5_file(tmp_path):
    return write(tmp_path, "dent5.json", polygon_to_json(validate_polygon(DENT5_VERTICES)))


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_recognize_accepts(tmp_path, capsys):
    path = write(tmp_path, "k5.json", graph_to_json(complete_graph(5)))
    code, out = run(capsys, ["recognize", path])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "accepted"
    assert obj["ve_check"]["ok"] is True


def test_recognize_reports_characterization_failures(monkeypatch, tmp_path, capsys):
    failures = [CharacterizationFailure(1, 0, 2), CharacterizationFailure(3, 2, 0)]
    monkeypatch.setattr(cli, "check_ve_characterization", lambda ve, g: failures)
    path = write(tmp_path, "k4.json", graph_to_json(complete_graph(4)))
    code, out = run(capsys, ["recognize", path])
    assert code == 1  # accepted, but check_polygon would count it as not recognized
    assert out == """{
  "assignment": {
    "blockers": []
  },
  "ve_check": {
    "failures": [
      {
        "edge_after": 2,
        "edge_before": 0,
        "vertex": 1
      },
      {
        "edge_after": 0,
        "edge_before": 2,
        "vertex": 3
      }
    ],
    "ok": false
  },
  "verdict": "accepted"
}
"""


def test_recognize_rejects(tmp_path, capsys):
    path = write(tmp_path, "c4.json", graph_to_json(cycle_graph(4)))
    code, out = run(capsys, ["recognize", path])
    obj = json.loads(out)
    assert code == 1
    assert obj["verdict"] == "rejected"
    assert obj["certificate"]["kind"] == "exhausted_search"


def test_recognize_bad_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"n": 4, "edges": [[0, 1], [1, 2], [3, 0]]}')
    code, _ = run(capsys, ["recognize", path])
    assert code == 2


def test_recognize_budget(tmp_path, capsys):
    path = write(tmp_path, "c6.json", graph_to_json(cycle_graph(6)))
    code, _ = run(capsys, ["recognize", path, "--budget", "1"])
    assert code == 3


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_recognize_rejects_nonpositive_budget(tmp_path, capsys, budget):
    path = write(tmp_path, "k5.json", graph_to_json(complete_graph(5)))
    code = main(["recognize", path, "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--budget >= 1" in captured.err
    assert_one_error_line(captured.err)


def test_oracle_visgraph(tmp_path, capsys, dent5_file):
    code, out = run(capsys, ["oracle", "visgraph", dent5_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5
    assert [0, 2] in obj["edges"] and [1, 3] not in obj["edges"]


def test_oracle_blockers(tmp_path, capsys, dent5_file):
    code, out = run(capsys, ["oracle", "blockers", dent5_file])
    assert code == 0
    rows = json.loads(out)["blockers"]
    assert all(row["blocker"] == 2 for row in rows)
    assert len(rows) == 4


def test_oracle_ve(tmp_path, capsys, dent5_file):
    code, out = run(capsys, ["oracle", "ve", dent5_file])
    assert code == 0
    sees = {tuple(e) for e in json.loads(out)["sees"]}
    assert (1, 4) in sees and (1, 2) not in sees


def test_oracle_lemmas(tmp_path, capsys, dent5_file):
    code, out = run(capsys, ["oracle", "lemmas", dent5_file])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_oracle_rejects_collinear(tmp_path, capsys):
    path = write(
        tmp_path,
        "collinear.json",
        json.dumps({"vertices": [[0, 0], [2, 0], [4, 0], [2, 3]]}),
    )
    code, _ = run(capsys, ["oracle", "visgraph", path])
    assert code == 2


TRIANGLE = '{"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}'
QUAD_EDGES = "[0, 1], [1, 2], [2, 3], [3, 0]"
NESTED = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser recurses


def repeated_pair_case() -> list[str]:
    """The graph of gen --n 7 --seed 3 and its oracle blockers, led by a
    second row for (1, 4) that names p1 where the oracle names p0."""
    p = random_simple_polygon(7, 3)
    rows = json.loads(assignment_to_json(geometric_blockers(p)))["blockers"]
    rows.insert(0, {"from": 1, "to": 4, "blocker": 1})
    return [graph_to_json(visibility_graph(p)), json.dumps({"blockers": rows})]


@pytest.mark.parametrize(
    "command, texts",
    [
        (["recognize"], ["[[0, 1], [1, 2], [2, 0]]"]),
        (["oracle", "visgraph"], ["[[0, 0], [4, 0], [0, 4]]"]),
        (["check"], ["[]", '{"blockers": []}']),
        (["check"], [TRIANGLE, "[]"]),
        (["check"], [TRIANGLE, '{"blockers": [[0, 2, 1]]}']),
        (["check"], [TRIANGLE, '{"blockers": [{"from": "0", "to": 2, "blocker": 1}]}']),
        (["recognize"], ['{"n": 3, "edges": [["0", 1], [1, 2], [2, 0]]}']),
        (["recognize"], ['{"n": 4, "edges": [[0, 1.5], ' + QUAD_EDGES + "]}"]),
        (["recognize"], ['{"n": 4, "edges": [[true, 3], ' + QUAD_EDGES + "]}"]),
        (["recognize"], ['{"n": 3.0, "edges": [[0, 1], [1, 2], [2, 0]]}']),
        (["recognize"], ['{"n": 3, "edges": {"0": 1}}']),
        (["recognize"], ['{"n": 3, "edges": [[0, 1, 2], [1, 2], [2, 0]]}']),
        (["oracle", "visgraph"], ['{"vertices": [[true, 3], [0, 0], [5, 0], [4, 4]]}']),
        (["oracle", "visgraph"], ['{"vertices": [[0, 0], [5, 0], 4]}']),
        (["check"], repeated_pair_case()),
        (["recognize"], [NESTED]),
        (["oracle", "visgraph"], [NESTED]),
        (["check"], [TRIANGLE, NESTED]),
    ],
    ids=[
        "recognize-list", "oracle-list", "check-graph-list", "check-assignment-list",
        "assignment-row-list", "assignment-string-field", "edge-string", "edge-float",
        "edge-bool", "n-float", "edges-object", "edge-triple", "coordinate-bool",
        "vertex-int", "assignment-repeated-pair", "graph-nested", "polygon-nested",
        "assignment-nested",
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, command, texts):
    paths = [write(tmp_path, f"in{k}.json", text) for k, text in enumerate(texts)]
    code = main(command + paths)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "command, texts, key",
    [
        (["recognize"], ['{"edges": [[0, 1], [1, 2], [2, 0]]}'], "n"),
        (["recognize"], ['{"n": 3}'], "edges"),
        (["check"], [TRIANGLE, '{"blockers": [{"from": 0, "to": 2}]}'], "blocker"),
        (["oracle", "visgraph"], ["{}"], "vertices"),
    ],
)
def test_missing_field_is_named_input_error(tmp_path, capsys, command, texts, key):
    paths = [write(tmp_path, f"in{k}.json", text) for k, text in enumerate(texts)]
    code = main(command + paths)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: missing field {key!r}\n"


# Valid documents for the fuzzer below to break: a polygon, its graph and
# its oracle blockers.
FUZZ_POLYGON = random_simple_polygon(7, 3)
FUZZ_BASES = {
    "graph": json.loads(graph_to_json(visibility_graph(FUZZ_POLYGON))),
    "polygon": json.loads(polygon_to_json(FUZZ_POLYGON)),
    "assignment": json.loads(assignment_to_json(geometric_blockers(FUZZ_POLYGON))),
}
FUZZ_FIELDS = {
    "graph": {"n": int, "edges": list},
    "polygon": {"vertices": list},
    "assignment": {"blockers": list},
}
FUZZ_ITEMS = {"graph": "edges", "polygon": "vertices", "assignment": "blockers"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def is_int_pair(v) -> bool:
    return type(v) is list and len(v) == 2 and all(type(x) is int for x in v)


def is_row(v) -> bool:
    return type(v) is dict and all(type(v.get(k)) is int for k in ("from", "to", "blocker"))


def break_semantics(draw, kind: str, doc: dict) -> None:
    """One mutation that keeps doc well-typed but invalid for its loader."""
    items = doc[FUZZ_ITEMS[kind]]
    pick = draw(st.integers(0, len(items) - 1))
    if kind == "graph":
        n, v = doc["n"], draw(st.integers(0, doc["n"] - 1))
        way = draw(st.sampled_from(["small-n", "large-n", "range", "loop", "cycle"]))
        if way == "small-n":
            doc["n"] = draw(st.integers(-3, 2))
        elif way == "large-n":
            doc["n"] = n + draw(st.integers(1, 3))
        elif way == "range":
            items.append(draw(st.sampled_from([[v, n + pick], [-1 - pick, v]])))
        elif way == "loop":
            items.append([v, v])
        else:
            items.remove(sorted((v, (v + 1) % n)))
    elif kind == "polygon":
        way = draw(st.sampled_from(["few", "duplicate", "clockwise", "collinear", "crossing"]))
        if way == "crossing":  # joined to a shifted copy: the joins are crossing diagonals
            items.extend([x + 100, y + 100] for x, y in list(items))
        elif way == "few":
            del items[draw(st.integers(0, 2)):]
        elif way == "duplicate":
            items.insert(draw(st.integers(0, len(items))), list(items[pick]))
        elif way == "clockwise":
            items.reverse()
        else:  # on the line through a vertex and the next, or a duplicate
            (x0, y0), (x1, y1) = items[pick - 1], items[pick]
            items.append([2 * x1 - x0, 2 * y1 - y0])
    else:
        row = dict(items[pick], blocker=draw(st.integers(-1, 7)))
        items.insert(draw(st.integers(0, len(items))), row)


@st.composite
def broken_input(draw, kind: str):
    """The text (or bytes) of a FUZZ_BASES document broken in one way
    that its loader must reject."""
    text = json.dumps(FUZZ_BASES[kind])
    doc = json.loads(text)
    way = draw(st.sampled_from(
        ["truncate", "bytes", "root", "drop", "retype", "item", "semantic"]
    ))
    if way == "truncate":  # an object without its closing brace
        return text[:draw(st.integers(0, len(text) - 1))]
    if way == "bytes":  # not UTF-8
        cut = draw(st.integers(0, len(text)))
        return text[:cut].encode() + b"\xff" + text[cut:].encode()
    fields = FUZZ_FIELDS[kind]
    if way == "root":
        doc = draw(json_values.filter(lambda v: type(v) is not dict))
    elif way == "drop":
        del doc[draw(st.sampled_from(sorted(fields)))]
    elif way == "retype":
        key = draw(st.sampled_from(sorted(fields)))
        doc[key] = draw(json_values.filter(lambda v: type(v) is not fields[key]))
    elif way == "item":
        items = doc[FUZZ_ITEMS[kind]]
        fine = is_row if kind == "assignment" else is_int_pair
        bad = draw(json_values.filter(lambda v: not fine(v)))
        items[draw(st.integers(0, len(items) - 1))] = bad
    else:
        break_semantics(draw, kind, doc)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_inputs_are_input_errors(data):
    """Malformed graph, polygon and assignment files exit 2 through the
    CLI with one error line, never a traceback or a verdict."""
    command = data.draw(st.sampled_from(["recognize", "check graph", "check blockers", "oracle"]))
    if command == "recognize":
        argv, inputs = ["recognize"], [data.draw(broken_input("graph"))]
    elif command == "oracle":
        what = data.draw(st.sampled_from(["visgraph", "blockers", "ve", "lemmas"]))
        argv, inputs = ["oracle", what], [data.draw(broken_input("polygon"))]
    else:
        graph, blockers = json.dumps(FUZZ_BASES["graph"]), json.dumps(FUZZ_BASES["assignment"])
        if command == "check graph":
            graph = data.draw(broken_input("graph"))
        else:
            blockers = data.draw(broken_input("assignment"))
        argv, inputs = ["check"], [graph, blockers]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, body in enumerate(inputs):
            path = Path(tmp) / f"in{k}.json"
            path.write_bytes(body if isinstance(body, bytes) else body.encode())
            paths.append(str(path))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + paths)
    assert (code, out.getvalue()) == (2, ""), (argv, inputs, err.getvalue())
    assert err.getvalue().startswith("error: "), err.getvalue()
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


def test_key_error_from_a_bug_is_not_an_input_error(monkeypatch, tmp_path):
    def broken(g, node_budget):
        raise KeyError("bug")

    monkeypatch.setattr(recognizer, "find_assignment", broken)
    path = write(tmp_path, "k5.json", graph_to_json(complete_graph(5)))
    with pytest.raises(KeyError):
        main(["recognize", path])


def test_check_polygon_keeps_no_reference():
    p = random_simple_polygon(8, 5)
    assert all(check_polygon(p).values())
    g = visibility_graph(p)
    assert rows in g.tables  # the bitset rows are freed with the graph too
    assert _designated_blockers in p.tables and _exit_table in p.tables
    polygon, graph = weakref.ref(p), weakref.ref(g)
    del p, g
    gc.collect()
    assert polygon() is None and graph() is None


def test_search_and_battery_build_only_the_compiled_tables():
    """find_assignment, verify and the corpus battery read the candidate
    table and the NC4 partners compiled over entry codes; the dict and
    the list that decode them are built only for their own callers."""
    for n in range(5, 13):
        p = random_simple_polygon(n, 40 + n)
        g = visibility_graph(p)
        assert all(check_polygon(p).values())
        others = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) not in g.edges]
        mutant = validate_graph(n, sorted(g.edges | {others[0]})) if others else g
        recognizer.find_assignment(mutant)
        for graph in (g, mutant):
            assert all_candidates not in graph.tables
            assert separable_pairs not in graph.tables
        assert candidate_table in g.tables and nc4_partners in g.tables


def test_gen_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["gen", "--n", "8", "--seed", "42", "--out", str(out_a)]) == 0
    assert main(["gen", "--n", "8", "--seed", "42", "--out", str(out_b)]) == 0
    name = "polygon_n8_seed42.json"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    capsys.readouterr()


def test_gen_count(tmp_path, capsys):
    assert main(["gen", "--n", "5", "--seed", "3", "--count", "2",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "polygon_n5_seed3.json").exists()
    assert (tmp_path / "polygon_n5_seed4.json").exists()
    capsys.readouterr()


def test_gen_rejects_small_n(tmp_path, capsys):
    assert main(["gen", "--n", "2", "--seed", "1", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_rejects_nonpositive_count(tmp_path, capsys, count):
    code = main(["gen", "--n", "5", "--count", count, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--count >= 1" in captured.err
    assert_one_error_line(captured.err)
    assert not (tmp_path / "out").exists()


def test_vertex_count_above_the_bound_is_an_input_error(tmp_path, capsys):
    # n = MAX_VERTICES + 1 is refused before any n-by-n table is built.
    # The validators come first, so a missing bound fails here before a
    # command could allocate; the polygon's points are all collinear, so
    # only a bound checked before the collinearity scan names the count.
    n = MAX_VERTICES + 1
    cycle = [[i, (i + 1) % n] for i in range(n)]
    points = [[i, 0] for i in range(n)]
    with pytest.raises(IndexOutOfRange, match=f"got {n}"):
        validate_graph(n, cycle)
    with pytest.raises(DegenerateInput, match=f"more than {MAX_VERTICES} vertices"):
        validate_polygon(points)
    assert validate_graph(MAX_VERTICES, cycle[:-2] + [[n - 2, 0]]).n == MAX_VERTICES
    graph = write(tmp_path, "big.json", json.dumps({"n": n, "edges": cycle}))
    polygon = write(tmp_path, "big-poly.json", json.dumps({"vertices": points}))
    assignment = write(tmp_path, "a.json", json.dumps({"blockers": []}))
    for argv in (
        ["recognize", graph],
        ["check", graph, assignment],
        *(["oracle", what, polygon] for what in ("visgraph", "blockers", "ve", "lemmas")),
        ["gen", "--n", str(n), "--out", str(tmp_path / "out")],
        ["corpus", "--count", "1", "--n", f"5..{n}"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert_one_error_line(captured.err)
    assert not (tmp_path / "out").exists()


def test_corpus_deterministic(capsys):
    code, first = run(capsys, ["corpus", "--count", "6", "--n", "5..7", "--seed", "11"])
    assert code == 0
    code, second = run(capsys, ["corpus", "--count", "6", "--n", "5..7", "--seed", "11"])
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["failures"] == []
    assert report["first_failing_seed"] is None


def test_corpus_single_n(capsys):
    code, out = run(capsys, ["corpus", "--count", "2", "--n", "8", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["n_range"] == "8..8"
    assert run(capsys, ["corpus", "--count", "2", "--n", "8..8", "--seed", "3"]) == (0, out)


def test_corpus_lists_failures_by_seed(monkeypatch, capsys):
    # a polygon is its (n, seed); (7, 13) fails two checks, (5, 14) one
    failing = {(7, 13): ("ve_match", "edge_vertex"), (5, 14): ("nc_clean",)}
    monkeypatch.setattr(geometry, "random_simple_polygon", lambda n, seed: (n, seed))
    monkeypatch.setattr(
        cli, "check_polygon", lambda p: {c: c not in failing.get(p, ()) for c in CORPUS_CHECKS})
    code, out = run(capsys, ["corpus", "--count", "4", "--n", "5..7", "--seed", "11"])
    report = json.loads(out)
    assert code == 1
    assert report["failures"] == [
        {"check": "edge_vertex", "n": 7, "seed": 13},
        {"check": "ve_match", "n": 7, "seed": 13},
        {"check": "nc_clean", "n": 5, "seed": 14},
    ]
    assert report["first_failing_seed"] == 13
    fails = {"ve_match": 1, "edge_vertex": 1, "nc_clean": 1}
    assert report["checks"] == {
        c: {"pass": 4 - fails.get(c, 0), "fail": fails.get(c, 0)} for c in CORPUS_CHECKS
    }


def test_corpus_rejects_small_n(capsys):
    code = main(["corpus", "--count", "1", "--n", "2..2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "3 <= n_lo" in captured.err
    assert_one_error_line(captured.err)


def test_check_clean(tmp_path, capsys, dent5_file):
    graph = write(
        tmp_path, "g.json",
        graph_to_json(cycle_graph(5, [(0, 2), (0, 3), (2, 4)])),
    )
    _, blockers = run(capsys, ["oracle", "blockers", dent5_file])
    assignment = write(tmp_path, "a.json", blockers)
    code, out = run(capsys, ["check", graph, assignment])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["violations"] == []


def test_check_corrupted(tmp_path, capsys):
    graph = write(
        tmp_path, "g.json",
        graph_to_json(cycle_graph(5, [(0, 2), (0, 3), (2, 4)])),
    )
    rows = [
        {"from": 1, "to": 3, "blocker": 0},
        {"from": 1, "to": 4, "blocker": 2},
        {"from": 3, "to": 1, "blocker": 2},
        {"from": 4, "to": 1, "blocker": 2},
    ]
    assignment = write(tmp_path, "a.json", json.dumps({"blockers": rows}))
    code, out = run(capsys, ["check", graph, assignment])
    assert code == 1
    assert any(v["condition"] == "NC1a" for v in json.loads(out)["violations"])


def test_export_dot(tmp_path, capsys):
    path = write(
        tmp_path, "quad.json",
        graph_to_json(cycle_graph(4, [(1, 3)])),
    )
    code, first = run(capsys, ["export-dot", path])
    assert code == 0
    assert first.count(" -- ") == 5
    assert first.count("dashed") == 1
    _, second = run(capsys, ["export-dot", path])
    assert first == second


def test_round_trip_between_commands(tmp_path, capsys, dent5_file):
    _, graph_json = run(capsys, ["oracle", "visgraph", dent5_file])
    graph = write(tmp_path, "g.json", graph_json)
    code, out = run(capsys, ["recognize", graph])
    assert code == 0
    assert json.loads(out)["verdict"] == "accepted"
