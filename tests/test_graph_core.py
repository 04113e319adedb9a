import json
import pickle

import pytest
from hypothesis import given, strategies as st

from pseudovis import (
    IndexOutOfRange,
    MalformedInput,
    MissingCycleEdge,
    SelfLoop,
    all_candidates,
    geometric_blockers,
    invisible_pairs,
    separable_pairs,
    validate_graph,
    visibility_graph,
)
from pseudovis.cli import graph_from_json, graph_to_json
from pseudovis.geometry import _designated_blockers
from pseudovis.graph_core import arc_mask, rows, strictly_inside
from support import (
    complete_graph,
    cycle_graph,
    in_interval,
    interval_edges,
    interval_vertices,
)


def test_interval_predicates_match_walks():
    for n in range(3, 9):
        for a in range(n):
            for b in range(n):
                walk = interval_vertices(n, a, b)
                for x in range(n):
                    assert in_interval(n, a, b, x) == (x in walk)
                    assert strictly_inside(n, a, b, x) == (x in walk[1:-1])


def test_interval_basic():
    assert interval_vertices(5, 1, 3) == [1, 2, 3]
    assert interval_edges(5, 1, 3) == [1, 2]


def test_interval_wraparound():
    assert interval_vertices(5, 3, 1) == [3, 4, 0, 1]
    assert interval_edges(5, 3, 1) == [3, 4, 0]


def test_interval_degenerate():
    assert interval_vertices(5, 2, 2) == [2]
    assert interval_edges(5, 2, 2) == []


def test_validate_complete_graph():
    g = complete_graph(5)
    assert invisible_pairs(g) == []


def test_validate_quad4(quad4):
    assert quad4.visible(1, 3)
    assert not quad4.visible(0, 2)


def test_missing_cycle_edge():
    with pytest.raises(MissingCycleEdge):
        validate_graph(4, [[0, 1], [1, 2], [3, 0]])


def test_self_loop():
    with pytest.raises(SelfLoop):
        validate_graph(4, [[0, 1], [1, 2], [2, 3], [3, 0], [2, 2]])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate_graph(4, [[0, 1], [1, 2], [2, 3], [3, 4]])
    with pytest.raises(IndexOutOfRange):
        validate_graph(2, [[0, 1]])


@pytest.mark.parametrize(
    "n, pairs",
    [
        (4, [[0, 1.0], [1, 2], [2, 3], [3, 0]]),  # find_assignment would fail in rows
        (4, [[0, True], [1, 2], [2, 3], [3, 0]]),  # graph_to_json would write true
        (4.0, [[0, 1], [1, 2], [2, 3], [3, 0]]),  # range would fail
        (True, [[0, 1], [1, 0]]),
        (5, [1, 2]),  # items that are no pair
        (4, [[0, 1, 2], [1, 2], [2, 3], [3, 0]]),
        (5, None),  # no pair list at all
        (5, 7),
    ],
)
def test_non_integer_graph_is_malformed(n, pairs):
    with pytest.raises(MalformedInput, match="integer"):
        validate_graph(n, pairs)


def test_duplicates_ignored():
    g = validate_graph(3, [[0, 1], [1, 0], [1, 2], [2, 0], [0, 2]])
    assert len(g.edges) == 3


def test_invisible_pairs_quad4(quad4):
    assert invisible_pairs(quad4) == [(0, 2), (2, 0)]


def test_invisible_pairs_dent5(dent5_poly, dent5_graph):
    # the graph fixture is exactly what the geometric oracle derives
    assert visibility_graph(dent5_poly) == dent5_graph
    assert invisible_pairs(dent5_graph) == [(1, 3), (1, 4), (3, 1), (4, 1)]


@given(st.integers(3, 12), st.data())
def test_interval_partitions(n, data):
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if i != j:
        edges = interval_edges(n, i, j) + interval_edges(n, j, i)
        assert sorted(edges) == list(range(n))
        if (j + 1) % n != i:
            verts = interval_vertices(n, i, j) + interval_vertices(
                n, (j + 1) % n, (i - 1) % n
            )
            assert sorted(verts) == list(range(n))


@st.composite
def graphs(draw):
    n = draw(st.integers(4, 8))
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    picked = draw(st.frozensets(st.sampled_from(chords)))
    return cycle_graph(n, picked)


def test_arc_mask_matches_interval_vertices():
    for n in range(3, 14):
        for a in range(n):
            for b in range(n):
                expected = sum(1 << v for v in interval_vertices(n, a, b))
                assert arc_mask(n, a, b) == expected, (n, a, b)


@given(graphs())
def test_rows_match_visible(g):
    r = rows(g)
    assert len(r) == g.n
    for s in range(g.n):
        for t in range(g.n):
            assert bool(r[s] >> t & 1) == g.visible(s, t)


@given(graphs())
def test_invisible_pairs_symmetric(g):
    pairs = invisible_pairs(g)
    assert len(pairs) % 2 == 0
    as_set = set(pairs)
    for i, j in pairs:
        assert (j, i) in as_set
        assert not g.visible(i, j)


def test_json_round_trip(dent5_graph):
    text = graph_to_json(dent5_graph)
    assert graph_from_json(text) == dent5_graph
    obj = json.loads(text)
    assert obj["edges"] == sorted(obj["edges"])
    assert all(i < j for i, j in obj["edges"])


def test_inputs_pickle_with_derived_tables(dent5_poly):
    g = visibility_graph(dent5_poly)
    all_candidates(g)
    blockers = geometric_blockers(dent5_poly)
    assert _designated_blockers in dent5_poly.tables and rows in g.tables
    restored = pickle.loads(pickle.dumps(dent5_poly))
    assert restored == dent5_poly and geometric_blockers(restored) == blockers
    n = dent5_poly.n
    assert {divmod(c, n): k for c, k in restored.tables[_designated_blockers].items()} == blockers
    assert rows(visibility_graph(restored)) == rows(g)


def test_derived_tables_are_shared():
    # Readers get the graph's own tables, not a copy per call.
    g = cycle_graph(6)
    assert all_candidates(g) is all_candidates(g)
    assert separable_pairs(g) is separable_pairs(g)
