import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pseudovis import (
    DegenerateInput,
    GenerationBudgetExceeded,
    NotInvisible,
    OracleContradiction,
    Polygon,
    VEGraph,
    VisGraph,
    build_ve,
    check_blocker_uniqueness,
    check_edge_vertex_visibility,
    check_gap_witness_cases,
    check_ve_characterization,
    designated_blocker_geo,
    find_assignment,
    geometric_blockers,
    invisible_pairs,
    random_simple_polygon,
    sees_edge,
    sees_vertex,
    separable_pairs,
    validate_polygon,
    ve_graph_geo,
    visibility_graph,
)
from pseudovis import geometry
from pseudovis.cli import (
    assignment_to_json,
    graph_to_json,
    polygon_from_json,
    polygon_to_json,
    ve_to_json,
)
from pseudovis.geometry import _exit_table
from pseudovis.graph_core import MAX_VERTICES
from support import (
    naive_collinear_triple,
    naive_crossing_edges,
    naive_edge_vertex_visibility,
    naive_first_exit,
    naive_gap_witness_cases,
    naive_sees_vertex,
    naive_ve_characterization,
    reflect_polygon,
)


def test_polygon_predicates_match_restatements():
    """The first crossing edge pair and the first collinear triple are
    those of the plain restatements, on small point lists with a planted
    crossing, a repeated point (so edges meet at a shared endpoint) or a
    planted collinear triple; every tour's first and last edges share
    pts[0] as well."""
    rng = random.Random(22)
    outcomes = Counter()
    for trial in range(800):
        pts = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(3, 8))]
        at, way = rng.randint(0, len(pts)), trial % 4
        if way == 1:  # segments c - d .. c + d and c - e .. c + e cross at c
            c, d, e = (rng.randint(0, 9), rng.randint(0, 9)), (0, 0), (0, 0)
            while d[0] * e[1] == d[1] * e[0]:
                d, e = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
            pts[at:at] = [(c[0] + s * v[0], c[1] + s * v[1]) for v in (d, e) for s in (-1, 1)]
        elif way == 2:
            pts.insert(at, pts[rng.randrange(len(pts))])
        elif way == 3:  # the reflection of p0 in p1 lies on their line
            (x0, y0), (x1, y1) = rng.sample(pts, 2)
            pts.insert(at, (2 * x1 - x0, 2 * y1 - y0))
        crossing, triple = geometry._crossing_edges(pts), geometry._collinear_triple(pts)
        assert (crossing, triple) == (naive_crossing_edges(pts), naive_collinear_triple(pts)), pts
        outcomes.update([("crossing", crossing is not None), ("collinear", triple is not None)])
    assert len(outcomes) == 4, outcomes


def test_sees_vertex_convex(unit_square):
    assert sees_vertex(unit_square, 0, 2)


def test_sees_vertex_dent(dent5_poly):
    assert not sees_vertex(dent5_poly, 1, 3)
    assert sees_vertex(dent5_poly, 0, 3)
    assert sees_vertex(dent5_poly, 2, 4)


def test_collinear_rejected():
    with pytest.raises(DegenerateInput):
        validate_polygon([(0, 0), (2, 0), (4, 0), (2, 3)])


def test_non_simple_rejected():
    with pytest.raises(DegenerateInput):  # zero area: refused as clockwise
        validate_polygon([(0, 0), (4, 5), (4, 0), (0, 5)])
    # positive area and no collinear triple, so only the crossing test refuses it
    with pytest.raises(DegenerateInput, match="^edges 0 and 3 cross: not simple$"):
        validate_polygon([(0, 0), (10, 0), (10, 10), (0, 10), (5, -5)])


def test_clockwise_rejected():
    with pytest.raises(DegenerateInput):
        validate_polygon([(0, 0), (1, 3), (5, 1)])


def test_non_integer_rejected():
    with pytest.raises(DegenerateInput):
        validate_polygon([(0, 0), (1.5, 0), (1, 1)])
    # True == 1, but the polygon's JSON would hold true and not read back
    with pytest.raises(DegenerateInput, match=r"^non-integer coordinate \(True, 0\)$"):
        validate_polygon([(True, 0), (4, 0), (0, 3)])
    # vertices that are no pair
    with pytest.raises(DegenerateInput, match="^vertex must be 2 integers, got 1$"):
        validate_polygon([1, 2, 3])
    with pytest.raises(DegenerateInput, match=r"^vertex must be 2 integers, got \(0, 0, 1\)$"):
        validate_polygon([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    # no vertex list at all: the vertex bound needs its length
    with pytest.raises(DegenerateInput, match="^vertices must be a list or tuple, got None$"):
        validate_polygon(None)
    with pytest.raises(DegenerateInput, match="^vertices must be a list or tuple, got <list_iterator"):
        validate_polygon(iter([(0, 0), (4, 0), (0, 3)]))


def test_visibility_graph_fixtures(unit_square, dent5_poly, dent5_graph):
    square_graph = visibility_graph(unit_square)
    assert len(square_graph.edges) == 6  # complete on four vertices
    assert visibility_graph(dent5_poly) == dent5_graph


def test_ray_exact_hits(dent5_poly):
    table = _exit_table(dent5_poly)
    edge, num, den = table[(2, 1)]  # p2 + 1 * (p2 - p1) = (0, 4)
    assert (edge, Fraction(num, den)) == (4, 1)
    edge, num, den = table[(2, 3)]  # p2 + 1/2 * (p2 - p3) = (3/2, 0)
    assert (edge, Fraction(num, den)) == (0, Fraction(1, 2))


def test_ray_immediate_exit(unit_square):
    assert _exit_table(unit_square)[(2, 0)] is None


def test_exit_table_matches_restatement(sample_polygons):
    for p in sample_polygons:
        g = visibility_graph(p)
        table = _exit_table(p)
        assert sorted(table) == [
            (k, a) for k in range(p.n) for a in range(p.n) if g.visible(a, k)
        ]
        for (k, away), hit in table.items():
            exact = None if hit is None else (hit[0], Fraction(hit[1], hit[2]))
            assert exact == naive_first_exit(p, k, away), (p.vertices, k, away)


def test_sees_vertex_matches_restatement(sample_polygons):
    random_polygons = [random_simple_polygon(n, 500 + n) for n in range(5, 41)]
    for p in sample_polygons + random_polygons:
        for i in range(p.n):
            for j in range(p.n):
                if i != j:
                    expected = naive_sees_vertex(p, i, j)
                    assert sees_vertex(p, i, j) == expected, (p.vertices, i, j)


def test_ve_graph_matches_sees_edge():
    for n in range(4, 17):
        for seed in range(3):
            p = random_simple_polygon(n, 1000 * n + seed)
            ve = ve_graph_geo(p)
            for i in range(n):
                for m in range(n):
                    assert ve.sees(i, m) == sees_edge(p, i, m)[0], (n, seed, i, m)


def test_designated_blocker_geo_reads_the_table(sample_polygons):
    # one pair's blocker is the per-polygon table's entry for it
    for p in sample_polygons:
        blockers = geometric_blockers(p)
        assert sorted(blockers) == invisible_pairs(visibility_graph(p))
        for pair, blocker in blockers.items():
            assert designated_blocker_geo(p, pair) == blocker, (p.vertices, pair)


def test_designated_blockers_fetch_each_table_once(monkeypatch):
    """The per-polygon table reads the polygon's tables once, not once per
    invisible pair."""
    p = random_simple_polygon(10, 17)
    g = visibility_graph(p)
    ve_graph_geo(p), geometry.candidate_table(g)  # built before counting
    fetched = Counter()

    def counting(name, table):
        def fetch(source):
            fetched[name] += 1
            return table(source)
        return fetch

    for name in ("visibility_graph", "rows", "ve_graph_geo", "candidate_table"):
        monkeypatch.setattr(geometry, name, counting(name, getattr(geometry, name)))
    outcomes = geometry._designated_blockers(p)
    assert len(outcomes) == len(invisible_pairs(g)) > 1
    assert fetched == Counter(visibility_graph=1, rows=1, ve_graph_geo=1, candidate_table=1)


def test_designated_contradiction_reaches_every_reader(dent5_poly):
    # (1, 3) has entry code 1 * 5 + 3; dent5's other invisible pairs keep blocker 2
    p = dent5_poly
    table = {**geometry._designated_blockers(p), 8: "forced"}  # a stored message
    q = _planted(p, geometry._designated_blockers, table)
    assert check_blocker_uniqueness(q) == ["pair (1,3): forced"]
    with pytest.raises(OracleContradiction, match="^forced$"):
        geometric_blockers(q)
    with pytest.raises(OracleContradiction, match="^forced$"):
        designated_blocker_geo(q, (1, 3))
    for pair in [(1, 4), (3, 1), (4, 1)]:
        assert designated_blocker_geo(q, pair) == 2


def test_designated_blocker_geo_refuses_every_other_pair():
    # out-of-range, negative and non-int ends never reach the extraction,
    # where they indexed past the rows, shifted by a negative count or read
    # another pair's bits; (2.0, 5) shifted by a float and (False, 2) read
    # the invisible pair (0, 2)
    p = random_simple_polygon(8, 1)
    g = visibility_graph(p)
    others = [(-1, 2), (2, 10), (8, 2), (-8, 3), (2, -6), (2, 13), (3, 3)]
    others += [(2.0, 5), (False, 2)]
    others += [(i, j) for i in range(8) for j in range(8) if i != j and g.visible(i, j)]
    for pair in others:
        with pytest.raises(NotInvisible, match=r"^\({},{}\) is not an invisible pair$".format(*pair)):
            designated_blocker_geo(p, pair)


def test_sees_edge_witnesses(dent5_poly):
    ok, witnesses = sees_edge(dent5_poly, 1, 4)
    assert ok and witnesses == [0, 2]
    ok, witnesses = sees_edge(dent5_poly, 1, 2)
    assert not ok and witnesses == [2]
    for p in (dent5_poly,):
        for i in range(p.n):
            ok, witnesses = sees_edge(p, i, i)
            assert ok and set(witnesses) == {i, (i + 1) % p.n}


def test_designated_blockers_dent5(dent5_poly):
    assert designated_blocker_geo(dent5_poly, (1, 3)) == 2
    assert designated_blocker_geo(dent5_poly, (4, 1)) == 2
    with pytest.raises(NotInvisible):
        designated_blocker_geo(dent5_poly, (0, 2))


def test_designated_blockers_blocked_quad(blocked_quad):
    assert geometric_blockers(blocked_quad) == {(0, 2): 3, (2, 0): 3}


def test_geometric_blockers_convex(unit_square):
    assert geometric_blockers(unit_square) == {}
    hexagon = validate_polygon([(4, 0), (2, 3), (-2, 3), (-4, 0), (-2, -3), (2, -3)])
    assert geometric_blockers(hexagon) == {}
    assert len(visibility_graph(hexagon).edges) == 15  # complete


def test_ve_rows(dent5_poly):
    ve = ve_graph_geo(dent5_poly)
    assert ve.rows[1] == 0b10011  # edges 0, 1 and 4
    assert ve.rows[3] == 0b11101  # edges 0, 2, 3 and 4


def test_generator_deterministic():
    a = random_simple_polygon(8, 42)
    b = random_simple_polygon(8, 42)
    assert a == b
    assert a != random_simple_polygon(8, 43)


def test_generator_output_valid():
    p = random_simple_polygon(8, 42)
    assert validate_polygon(p.vertices) == p
    tri = random_simple_polygon(3, 0)
    assert tri.n == 3


def test_generator_widens_its_grid():
    # Every sample of (64, 2) in the [0, 256]^2 grid has three collinear
    # points; the same rng then finds this polygon in [0, 512]^2.
    p = random_simple_polygon(64, 2)
    assert max(max(v) for v in p.vertices) > 4 * 64
    digest = hashlib.sha256(polygon_to_json(p).encode()).hexdigest()
    assert digest == "346bc9abd0354920f064e674427fa86cca095bc4c87f7917688bab1bd258b3f6"


def test_generator_bounds_n_before_sampling():
    # 2,000 points would take minutes to sample and uncross; the bound is
    # the one validate_polygon and validate_graph enforce.
    for n in (2, MAX_VERTICES + 1, 2000):
        with pytest.raises(ValueError, match=f"need 3 <= n <= {MAX_VERTICES}, got {n}$"):
            random_simple_polygon(n, 1)


def test_generator_budget_bounds_its_grids(monkeypatch):
    monkeypatch.setattr(geometry, "GRID_ROUNDS", 1)
    with pytest.raises(GenerationBudgetExceeded):
        random_simple_polygon(64, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(0, 10_000))
def test_generator_always_valid(n, seed):
    p = random_simple_polygon(n, seed)
    assert p.n == n
    assert validate_polygon(p.vertices) == p


def test_sees_vertex_symmetric(sample_polygons):
    for p in sample_polygons:
        for i in range(p.n):
            for j in range(p.n):
                if i != j:
                    assert sees_vertex(p, i, j) == sees_vertex(p, j, i)


def test_property_suites_on_fixtures(unit_square, dent5_poly, blocked_quad):
    for p in (unit_square, dent5_poly, blocked_quad):
        assert check_edge_vertex_visibility(p) == []
        assert check_gap_witness_cases(p) == []
        assert check_blocker_uniqueness(p) == []


def _lemma_outputs(p):
    ve, g = ve_graph_geo(p), visibility_graph(p)
    return (check_edge_vertex_visibility(p), check_gap_witness_cases(p),
            check_ve_characterization(ve, g))


def _naive_lemma_outputs(p):
    ve, g = ve_graph_geo(p), visibility_graph(p)
    return (naive_edge_vertex_visibility(p), naive_gap_witness_cases(p),
            naive_ve_characterization(ve, g))


def _planted(p, table, value):
    """A copy of p sharing its cached tables but with one entry replaced;
    a planted visibility graph gets an exit table built from it."""
    q = Polygon(p.vertices)
    q.tables.update(p.tables)
    q.tables[table] = value
    if table is visibility_graph:
        del q.tables[_exit_table]
    return q


def test_oracle_contradictions_on_planted_tables(dent5_poly):
    """Each failure message of the designated-blocker extraction and of
    the ray scan, from one table planted on a copy of dent5, whose
    invisible pairs (1,3), (1,4), (3,1) and (4,1) all have blocker 2."""
    p = dent5_poly
    ve, g, exits = ve_graph_geo(p), visibility_graph(p), _exit_table(p)
    viewer1 = VEGraph(p.n, (ve.rows[0], ve.rows[1] ^ 1 << 2, *ve.rows[2:]))
    assert check_blocker_uniqueness(_planted(p, ve_graph_geo, viewer1)) == [
        f"pair (1,{j}): viewer 1 sees 2 edges between p2 and p0, expected 1" for j in (3, 4)
    ]
    chord = _planted(p, visibility_graph, VisGraph(p.n, g.edges | {(1, 3)}))
    assert check_blocker_uniqueness(chord) == [
        "pair (1,4): geometric blocker p3 of (1,4) is not a candidate",
        "pair (4,1): geometric blocker p2 of (4,1) is not a candidate",
    ]
    with pytest.raises(OracleContradiction, match=r"^geometric blocker p3 of \(1,4\) is"):
        geometric_blockers(chord)
    # the caught raise left no traceback, so no frame, in the stored table
    stored = chord.tables[geometry._designated_blockers].values()
    assert not any(getattr(o, "__traceback__", None) for o in stored)
    # the ray from p2 away from p1 leaves at once, so no vertex blocks (1,3)
    # or (1,4) by the ray rule
    assert check_blocker_uniqueness(_planted(p, _exit_table, {**exits, (2, 1): None})) == [
        f"pair (1,{j}): ray scan found [], extraction found 2" for j in (3, 4)
    ]
    # p2 is on the far side of (3,1); its ray away from p3 now exits through
    # edge 3, on the walk from p3 to p1 but not on the edges from p0 (the
    # first vertex p3 sees clockwise from p1) to p2
    assert exits[(2, 3)][0] == 0
    far = _planted(p, _exit_table, {**exits, (2, 3): (3, 1, 1)})
    assert check_blocker_uniqueness(far) == ["pair (3,1): exit conventions disagree at p2"]


# "both case holds" is not among them: case A needs the viewer to see va
# and not b, case B the reverse, so no table makes both hold
LEMMA_MESSAGES = ("but not vertex", "but neither incident edge", "neither case holds")


def test_lemma_checks_match_restatements():
    # on polygons every lemma holds, so both sides report nothing
    for n in range(5, 41):
        p = random_simple_polygon(n, 4000 + n)
        assert _lemma_outputs(p) == _naive_lemma_outputs(p) == ([], [], [])
    # one row bit flipped in a cached table makes every failure kind fire;
    # messages and their order must match the pair-by-pair restatements.
    # Each vertex keeps its two incident edges, as every relation does.
    fired = Counter()
    for idx in range(16):
        p = random_simple_polygon(5 + idx % 8, 4100 + idx)
        n, ve, g = p.n, ve_graph_geo(p), visibility_graph(p)
        _exit_table(p)  # cached, so that every copy shares it
        planted = [
            _planted(p, ve_graph_geo, VEGraph(n, tuple(
                row ^ 1 << m if v == i else row for v, row in enumerate(ve.rows))))
            for i in range(n) for m in range(n) if m not in (i, (i - 1) % n)
        ] + [
            _planted(p, visibility_graph, VisGraph(n, g.edges ^ {(i, j)}))
            for i in range(n) for j in range(i + 2, n - (i == 0))
        ]
        for q in planted:
            got = _lemma_outputs(q)
            assert got == _naive_lemma_outputs(q), q.vertices
            fired.update(kind for msg in got[0] + got[1] for kind in LEMMA_MESSAGES if kind in msg)
            fired["CharacterizationFailure"] += bool(got[2])
    assert set(fired) == {*LEMMA_MESSAGES, "CharacterizationFailure"}, fired


def test_gap_cases_fire_on_dent5(dent5_poly):
    # the dent produces exactly one non-trivial gap instance, at vertex 1
    ve = ve_graph_geo(dent5_poly)
    from pseudovis import seen_edge_gaps

    assert seen_edge_gaps(ve, 1) == [(1, 4)]
    assert check_gap_witness_cases(dent5_poly) == []


def test_reflection_preserves_recognition(dent5_poly, blocked_quad):
    for p in (dent5_poly, blocked_quad):
        mirrored = reflect_polygon(p)
        assert check_blocker_uniqueness(mirrored) == []
        g = visibility_graph(mirrored)
        assert find_assignment(g).accepted


def test_polygon_json_round_trip(dent5_poly):
    assert polygon_from_json(polygon_to_json(dent5_poly)) == dent5_poly


# sha256 of polygon_to_json over random_simple_polygon(n, seed) for n 3..40,
# seeds 1..3, then (64, 1), recorded before the polygon predicates were
# inlined into their loops.
GENERATION_GOLDEN_DIGEST = "afddc99dbef0511944d6f52269de73cc0d92308e234cd61a467414467613f219"


def test_golden_generated_polygons():
    digest = hashlib.sha256()
    for n, seed in [(n, s) for n in range(3, 41) for s in (1, 2, 3)] + [(64, 1)]:
        p = random_simple_polygon(n, seed)
        assert validate_polygon(p.vertices) == p, (n, seed)  # the generator skips this
        digest.update(polygon_to_json(p).encode())
    assert digest.hexdigest() == GENERATION_GOLDEN_DIGEST


# sha256 of the oracle and table outputs below over 160 seeded polygons,
# recorded before the candidate and separable tables stopped being copied.
ORACLE_GOLDEN_DIGEST = "141955a3675ebd81f13229abb90e6fcca8ec4ffb1b8b86f5b2ab58e148cecebc"


def test_golden_oracle_outputs():
    digest = hashlib.sha256()
    for idx in range(160):
        p = random_simple_polygon(5 + idx % 8, 70000 + idx)
        g = visibility_graph(p)
        a = geometric_blockers(p)
        for text in (
            graph_to_json(g),
            assignment_to_json(a),
            ve_to_json(ve_graph_geo(p)),
            ve_to_json(build_ve(g, a)),
            repr(separable_pairs(g)),
            repr(check_blocker_uniqueness(p)),
        ):
            digest.update(text.encode())
    assert digest.hexdigest() == ORACLE_GOLDEN_DIGEST
