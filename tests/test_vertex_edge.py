import ast
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pseudovis import (
    IndexOutOfRange,
    InvalidAssignment,
    MalformedInput,
    VEGraph,
    VertexOutsideInterval,
    all_candidates,
    build_ve,
    check_conditions,
    check_ve_characterization,
    find_assignment,
    geometric_blockers,
    invisible_pairs,
    is_articulation,
    random_simple_polygon,
    seen_edge_gaps,
    ve_graph_geo,
    visibility_graph,
)
from support import (
    articulation_by_incidence,
    cycle_graph,
    naive_build_ve,
    naive_seen_edge_gaps,
)


def test_k5_all_true(k5):
    ve = build_ve(k5, {})
    assert all(ve.sees(i, m) for i in range(5) for m in range(5))


def test_dent5_rows(dent5_graph, dent5_poly):
    a = geometric_blockers(dent5_poly)
    ve = build_ve(dent5_graph, a)
    assert ve.rows[1] == 0b10011  # edges 0, 1 and 4
    assert ve.rows[3] == 0b11101  # edges 0, 2, 3 and 4


def test_matches_geometric_relation(dent5_graph, dent5_poly, sample_polygons):
    assert build_ve(dent5_graph, geometric_blockers(dent5_poly)) == ve_graph_geo(
        dent5_poly
    )
    for p in sample_polygons:
        g = visibility_graph(p)
        assert build_ve(g, geometric_blockers(p)) == ve_graph_geo(p)


def test_incident_edges_always_seen(sample_polygons):
    for p in sample_polygons:
        g = visibility_graph(p)
        ve = build_ve(g, geometric_blockers(p))
        n = g.n
        for i in range(n):
            assert ve.sees(i, i) and ve.sees(i, (i - 1) % n)
            assert ve.rows[i].bit_count() >= 2


def test_edge_vertex_echo(sample_polygons):
    # seeing both edges at a vertex implies seeing the vertex, and seeing
    # a vertex implies seeing one of its edges
    for p in sample_polygons:
        g = visibility_graph(p)
        ve = build_ve(g, geometric_blockers(p))
        n = g.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                before, after = (j - 1) % n, j
                if ve.sees(i, before) and ve.sees(i, after):
                    assert g.visible(i, j)
                if g.visible(i, j):
                    assert ve.sees(i, before) or ve.sees(i, after)


def test_build_ve_single_entries_match_restatement():
    # build_ve reads only g.n, so one cycle per n serves
    for n in range(3, 11):
        g = cycle_graph(n)
        for i, t, b in itertools.permutations(range(n), 3):
            a = {(i, t): b}
            assert build_ve(g, a, check=False) == naive_build_ve(g, a), a


@st.composite
def partial_assignments(draw):
    # Any entries at all, several per viewer, each with a blocker distinct
    # from its viewer and target; no graph constrains them.
    n = draw(st.integers(3, 14))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])))
    return n, {
        p: draw(st.sampled_from([b for b in range(n) if b not in p]))
        for p in sorted(pairs)
    }


@settings(max_examples=200)
@given(partial_assignments())
def test_build_ve_matches_restatement(na):
    n, a = na
    g = cycle_graph(n)
    assert build_ve(g, a, check=False) == naive_build_ve(g, a)
    assert build_ve(g, a) == build_ve(g, a, check=False)


@pytest.mark.parametrize("a", [{(0, 2): 2}, {(0, 2): 0}])
def test_unchecked_entry_blocked_by_its_own_end_rejected(a):
    with pytest.raises(InvalidAssignment):
        build_ve(cycle_graph(5), a, check=False)


@pytest.mark.parametrize("module", ["geometry", "vertex_edge"])
def test_oracle_layer_imports_no_search(module):
    """The oracle and the vertex-edge layer are the ground truth the
    recognizer is checked against, so neither may import the search or
    the condition checker."""
    path = Path(__file__).resolve().parents[1] / "src" / "pseudovis" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    leaves = {name.rsplit(".", 1)[-1] for name in imported}
    assert not leaves & {"recognizer", "conditions"}, sorted(imported)


JSON_HELPERS = {"json", "canonical_json", "parse_json", "json_field", "json_ints"}
FORMAT_SUFFIXES = ("_to_json", "_from_json", "_to_dict")
SOURCES = sorted(Path(__file__).resolve().parents[1].glob("src/pseudovis/*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.stem)
def test_only_the_cli_reads_or_writes_json(path):
    """Every file format lives in cli.py: no other module imports json, a
    JSON helper or a reader or writer, nor defines a reader or writer."""
    imported, defined = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
    assert not {x for x in imported if x in JSON_HELPERS or x.endswith(FORMAT_SUFFIXES)}
    assert not {x for x in defined if x.endswith(FORMAT_SUFFIXES)}


def test_is_articulation_examples(dent5_graph, k5):
    assert is_articulation(dent5_graph, 1, 4, 2)
    with pytest.raises(VertexOutsideInterval):
        is_articulation(dent5_graph, 1, 4, 1)
    with pytest.raises(VertexOutsideInterval):
        articulation_by_incidence(build_ve(dent5_graph, {}, check=False), 1, 4, 4)
    assert not is_articulation(k5, 0, 3, 1)


@pytest.mark.parametrize("call, args, error, message", [
    (is_articulation, ("g", 0, 3, 9), IndexOutOfRange, r"^index 9 outside \[0,8\)$"),
    (is_articulation, ("g", 0, 3, True), MalformedInput, "^index must be an integer, got True$"),
    (seen_edge_gaps, ("ve", 8), IndexOutOfRange, r"^index 8 outside \[0,8\)$"),
    (seen_edge_gaps, ("ve", -1), IndexOutOfRange, r"^index -1 outside \[0,8\)$"),
    (check_ve_characterization, ("ve9", "g"), MalformedInput,
     "^vertex-edge relation needs 8 vertices and rows, got 9 and 9$"),
], ids=["articulation-past-n", "articulation-bool", "gaps-past-n", "gaps-negative",
        "characterization-nine-rows"])
def test_vertex_edge_queries_refuse_what_is_no_vertex(call, args, error, message):
    # at n 8, 9 passed strictly_inside modulo n, True read vertex 1, 8
    # indexed past the rows, -1 read vertex 7 and the relation of a 9-gon
    # gave eight bogus failures
    p = random_simple_polygon(8, 1)
    named = {"g": visibility_graph(p), "ve": ve_graph_geo(p),
             "ve9": ve_graph_geo(random_simple_polygon(9, 1))}
    with pytest.raises(error, match=message):
        call(*(named.get(x, x) for x in args))


def test_gap_enumeration(dent5_graph, dent5_poly):
    ve = build_ve(dent5_graph, geometric_blockers(dent5_poly))
    assert seen_edge_gaps(ve, 1) == [(1, 4)]
    assert seen_edge_gaps(ve, 0) == []
    # the gap from the last seen edge wraps around to the first
    assert seen_edge_gaps(VEGraph(5, (0b01010,)), 0) == [(1, 3), (3, 1)]


def test_seen_edge_gaps_matches_restatement_on_every_row():
    for n in range(1, 11):
        for row in range(1 << n):
            ve = VEGraph(n, (row,))
            assert seen_edge_gaps(ve, 0) == naive_seen_edge_gaps(ve, 0), (n, bin(row))
    # zero or one seen edge bounds no gap
    for n in range(3, 11):
        for row in (0, *(1 << m for m in range(n))):
            assert seen_edge_gaps(VEGraph(n, (row,)), 0) == []


def test_characterization_passes_on_dent5(dent5_graph, dent5_poly):
    ve = ve_graph_geo(dent5_poly)
    assert check_ve_characterization(ve, dent5_graph) == []


def test_characterization_detects_mutation(dent5_graph, dent5_poly):
    ve = ve_graph_geo(dent5_poly)
    rows = list(ve.rows)
    rows[2] &= ~(1 << 4)  # drop sees(2, e4): the near branch loses its witness
    broken = VEGraph(ve.n, tuple(rows))
    failures = check_ve_characterization(broken, dent5_graph)
    assert any((f.vertex, f.edge_before, f.edge_after) == (1, 1, 4) for f in failures)


def test_articulation_cross_check(sample_polygons):
    # the candidate-blocker rule and the incidence cut-vertex computation
    # must agree on every instance whose branch the characterization
    # check actually decides (the articulation value is irrelevant when
    # the accompanying sees() test already fails)
    checked = 0
    for p in sample_polygons:
        g = visibility_graph(p)
        ve = ve_graph_geo(p)
        n = g.n
        for k in range(n):
            for i, j in seen_edge_gaps(ve, k):
                if (i - j) % n == 1:
                    continue
                if ve.sees((i + 1) % n, j):
                    assert is_articulation(g, k, j, (i + 1) % n) == \
                        articulation_by_incidence(ve, k, j, (i + 1) % n)
                    checked += 1
                if ve.sees(j, i):
                    assert is_articulation(g, (i + 1) % n, k, j) == \
                        articulation_by_incidence(ve, (i + 1) % n, k, j)
                    checked += 1
    assert checked > 0


def test_characterization_on_accepted_assignments(quad4, sample_polygons):
    v = find_assignment(quad4)
    ve = build_ve(quad4, v.assignment)
    assert check_ve_characterization(ve, quad4) == []
    for p in sample_polygons[:12]:
        g = visibility_graph(p)
        v = find_assignment(g)
        assert v.accepted
        assert check_ve_characterization(build_ve(g, v.assignment), g) == []


def test_characterization_is_necessary_not_sufficient():
    """On the chordless 5-cycle, which the recognizer rejects, 21 of the
    1,024 total candidate assignments pass the vertex-edge check; each
    breaks an NC condition, so the check alone does not decide recognition."""
    g = cycle_graph(5)
    assert not find_assignment(g).accepted
    cand, pairs = all_candidates(g), invisible_pairs(g)
    domains = [cand[p].members() for p in pairs]
    assignments = [dict(zip(pairs, values)) for values in itertools.product(*domains)]
    passing = [a for a in assignments if not check_ve_characterization(build_ve(g, a), g)]
    assert (len(assignments), len(passing)) == (1024, 21)
    violations = [check_conditions(g, a) for a in passing]
    assert all(violations)
    assert violations[0][0].narrative == "NC1a: p3 on (2,0) requires p3 on (2,4), found p1"


@pytest.mark.parametrize("n, accepted, rejected, rejected_passing", [
    (5, 16, 16, 6),
    (6, 134, 378, 37),
])
def test_characterization_census(n, accepted, rejected, rejected_passing):
    """Every graph on the n-cycle: does some total candidate assignment pass
    the vertex-edge check?  Every accepted graph has one, as the paper's
    reduction says, and so do some rejected graphs."""
    chords = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    tally = Counter()
    for picked in itertools.product((False, True), repeat=len(chords)):
        g = cycle_graph(n, list(itertools.compress(chords, picked)))
        cand, pairs = all_candidates(g), invisible_pairs(g)
        passing = any(
            not check_ve_characterization(build_ve(g, dict(zip(pairs, values))), g)
            for values in itertools.product(*(cand[p].members() for p in pairs))
        )
        tally[find_assignment(g).accepted, passing] += 1
    assert tally == {
        (True, True): accepted,
        (False, True): rejected_passing,
        (False, False): rejected - rejected_passing,
    }


def test_row_missing_an_incident_edge_is_malformed_input():
    # Without its own incident edge a row's gap would hold the viewer,
    # which is_articulation refuses (VertexOutsideInterval); the rows are
    # checked before any gap.  Every row of 29 polygons, either edge.
    for seed in range(1, 30):
        p = random_simple_polygon(8, seed)
        g, ve = visibility_graph(p), ve_graph_geo(p)
        assert check_ve_characterization(ve, g) == []
        for k in range(8):
            for m in ((k - 1) % 8, k):
                rows = list(ve.rows)
                rows[k] &= ~(1 << m)
                with pytest.raises(MalformedInput, match=f"^vertex {k} misses incident edge {m}$"):
                    check_ve_characterization(VEGraph(8, tuple(rows)), g)


def test_row_with_an_edge_at_or_above_n_is_malformed_input():
    # Bit 9 of an 8-vertex row is no edge: seen_edge_gaps reported gaps
    # such as (9, 0), and the characterization returned [] for rows 0, 1
    # and 7 and raised IndexError for the others.  A negative row has
    # every bit from some point up.  Every row of 3 polygons.
    for seed in range(1, 4):
        p = random_simple_polygon(8, seed)
        g, ve = visibility_graph(p), ve_graph_geo(p)
        for k in range(8):
            for row in (ve.rows[k] | 1 << 8, ve.rows[k] | 1 << 9, -1):
                bad = VEGraph(8, ve.rows[:k] + (row,) + ve.rows[k + 1:])
                message = rf"^vertex {k} sees an edge outside \[0,8\)$"
                with pytest.raises(MalformedInput, match=message):
                    seen_edge_gaps(bad, k)
                with pytest.raises(MalformedInput, match=message):
                    check_ve_characterization(bad, g)
