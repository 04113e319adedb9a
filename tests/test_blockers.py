import pytest
from hypothesis import given, strategies as st

from pseudovis import (
    all_candidates,
    assignment_from_json,
    assignment_to_json,
    geometric_blockers,
    invisible_pairs,
    visibility_graph,
)
from pseudovis.blockers import entry_arcs, first_seen
from pseudovis.graph_core import arc_mask
from support import (
    arc_walk,
    complete_graph,
    cycle_graph,
    interval_vertices,
    naive_candidates,
    naive_entry_arcs,
    naive_first_seen,
)


def test_quad4_candidates(quad4):
    table = all_candidates(quad4)
    assert (table[(0, 2)].cw, table[(0, 2)].ccw) == (1, 3)
    assert (table[(2, 0)].cw, table[(2, 0)].ccw) == (3, 1)


def test_dent5_candidates(dent5_graph):
    table = all_candidates(dent5_graph)
    assert (table[(1, 3)].cw, table[(1, 3)].ccw) == (2, 0)
    for pair in invisible_pairs(dent5_graph):
        assert set(table[pair].members()) == {0, 2}


def test_all_candidates_empty_for_complete(k5):
    assert all_candidates(k5) == {}
    for n in range(3, 10):
        assert all_candidates(complete_graph(n)) == {}


@pytest.mark.parametrize("n", range(3, 10))
def test_chordless_cycles_match_naive_definition_scan(n):
    """n = 3 is the triangle, whose table is empty; each longer chordless
    cycle makes every target of a viewer one run between its neighbours."""
    g = cycle_graph(n)
    table = all_candidates(g)
    assert list(table) == invisible_pairs(g)
    for pair in table:
        assert table[pair] == naive_candidates(g, pair)


def test_empty_candidate_set_representable():
    g = cycle_graph(6, [(0, 2), (1, 3), (0, 4), (3, 5)])
    cs = all_candidates(g)[(0, 3)]
    assert cs.is_empty
    assert cs.members() == ()


def test_entry_arcs_split_the_walk_holding_the_blocker():
    """Near arc, far arc and k partition the walk between viewer and
    target that holds k; the other walk belongs to neither arc."""
    for n in range(4, 14):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) < 3:
                        continue
                    near0, near_mask, far0, far_mask = entry_arcs(n, (i, j), k)
                    near, far = arc_walk(n, near0, near_mask), arc_walk(n, far0, far_mask)
                    walk = interval_vertices(n, i, j)
                    if k not in walk:
                        walk = interval_vertices(n, j, i)
                    case = (n, i, j, k)
                    # each mask is one walk, from its returned start
                    assert near_mask == arc_mask(n, near0, near[-1]), case
                    assert far_mask == arc_mask(n, far0, far[-1]), case
                    assert sorted(near + far + [k]) == sorted(walk), case
                    assert i in near and j in far, case
                    assert (set(near), set(far)) == naive_entry_arcs(n, (i, j), k), case


@st.composite
def graphs(draw):
    n = draw(st.integers(3, 14))
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    picked = draw(st.frozensets(st.sampled_from(chords))) if chords else ()
    return cycle_graph(n, picked)


@given(graphs())
def test_matches_naive_definition_scan(g):
    table = all_candidates(g)
    for pair in invisible_pairs(g):
        assert table[pair] == naive_candidates(g, pair)
    assert list(table) == invisible_pairs(g)


@given(graphs())
def test_candidate_always_sees_viewer(g):
    for pair, cs in all_candidates(g).items():
        for v in cs.members():
            assert g.visible(pair[0], v)


def test_geometric_blocker_is_candidate(sample_polygons):
    for p in sample_polygons:
        g = visibility_graph(p)
        table = all_candidates(g)
        for pair, blocker in geometric_blockers(p).items():
            assert table[pair].contains(blocker)


def test_assignment_json_round_trip():
    a = {(1, 3): 2, (3, 1): 2, (1, 4): 2, (4, 1): 2}
    text = assignment_to_json(a)
    assert assignment_from_json(text) == a
    assert text.index('"from": 1') < text.index('"from": 3')


def test_first_seen_matches_walk_on_every_row():
    # every row, target and step for n <= 10 in which some bit other than
    # the target's is set (the walk's precondition), one-bit rows included
    for n in range(2, 11):
        for row in range(1 << n):
            for target in range(n):
                if row & ~(1 << target):
                    for step in (-1, 1):
                        assert first_seen(n, row, target, step) == \
                            naive_first_seen(n, row, target, step), (n, bin(row), target, step)
