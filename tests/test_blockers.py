import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from pseudovis import (
    all_candidates,
    geometric_blockers,
    invisible_pairs,
    random_simple_polygon,
    validate_graph,
    visibility_graph,
)
from pseudovis.blockers import candidate_table, entry_arcs, first_seen
from pseudovis.cli import assignment_from_json, assignment_to_json
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


def table_fields(g) -> tuple:
    t = candidate_table(g)
    return t.inv, t.cw, t.ccw, t.mask, t.cw_mask


def naive_table_fields(g) -> tuple:
    """The five fields of candidate_table(g) as naive_candidates implies
    them, pair by pair: the invisible codes, the cw and ccw candidate of
    each code, the codes each vertex is a candidate of, and the codes
    each vertex is the cw candidate of."""
    n = g.n
    inv, cw, ccw, mask, cw_mask = 0, [None] * (n * n), [None] * (n * n), [0] * n, [0] * n
    for i, j in invisible_pairs(g):
        c = i * n + j
        inv |= 1 << c
        cs = naive_candidates(g, (i, j))
        cw[c], ccw[c] = cs.cw, cs.ccw
        for k in cs.members():
            mask[k] |= 1 << c
        if cs.cw is not None:
            cw_mask[cs.cw] |= 1 << c
    return inv, cw, ccw, mask, cw_mask


def hidden_runs(g):
    """Each maximal run of targets that a viewer does not see, found by a
    walk: (viewer, u, run, v), with run in counterclockwise order from
    u + 1 and u, v the seen vertices just before and after it."""
    n = g.n
    for i in range(n):
        walk = [(i + d) % n for d in range(1, n)]
        d = 0
        while d < n - 1:
            if g.visible(i, walk[d]):
                d += 1
                continue
            start = d
            while not g.visible(i, walk[d]):
                d += 1  # the viewer sees its cw neighbour, the walk's end
            yield i, walk[start - 1], walk[start:d], walk[d]


def table_golden_graphs() -> list:
    """Complete graphs and chordless cycles at n 3..12, seeded random
    chord graphs at n 3..14, and polygon graphs with one non-edge added,
    at n 8..12 and at n 24 and 32."""
    rng = random.Random(20261020)
    graphs = [f(n) for n in range(3, 13) for f in (complete_graph, cycle_graph)]
    for _ in range(120):
        n, density = rng.randint(3, 14), rng.random()
        graphs.append(cycle_graph(n, [
            (i, j) for i in range(n) for j in range(i + 2, n)
            if not (i == 0 and j == n - 1) and rng.random() < density
        ]))
    for n, seed in [(8 + s % 5, 80000 + s) for s in range(40)] + [(24, 1), (32, 1)]:
        g = visibility_graph(random_simple_polygon(n, seed))
        non = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.visible(i, j)]
        graphs.append(validate_graph(n, sorted(g.edges | {rng.choice(non)})) if non else g)
    return graphs


# sha256 of repr of candidate_table's five fields over
# table_golden_graphs(), recorded before the sweep walked hidden runs.
TABLE_GOLDEN_DIGEST = "66d8dd175b6c9bfb605fa2dca5b1db2153038e3872b761d530499b5da2a3a1d1"


@given(graphs())
def test_table_fields_match_naive_definition_scan(g):
    assert table_fields(g) == naive_table_fields(g)


def test_table_golden_fields():
    digest = hashlib.sha256()
    wrapping = 0
    for g in table_golden_graphs():
        fields = table_fields(g)
        assert fields == naive_table_fields(g), g
        digest.update(repr(fields).encode())
        wrapping += any(run[0] > run[-1] for _, _, run, _ in hidden_runs(g))
    # runs that pass from vertex n - 1 to vertex 0 occur
    assert wrapping >= 20, wrapping
    assert digest.hexdigest() == TABLE_GOLDEN_DIGEST


def test_closed_form_near_arcs_are_entry_arcs():
    """A run's near arcs depend only on the viewer and the run's ends:
    the cw candidate u's is the walk i .. u - 1 and the ccw candidate
    v's the walk v + 1 .. i, for every target of the run."""
    runs = 0
    for g in table_golden_graphs():
        n = g.n
        for i, u, run, v in hidden_runs(g):
            runs += 1
            for j in run:
                assert entry_arcs(n, (i, j), u)[1] == arc_mask(n, i, (u - 1) % n), (g, i, j)
                assert entry_arcs(n, (i, j), v)[1] == arc_mask(n, (v + 1) % n, i), (g, i, j)
    assert runs > 1000, runs
