import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from pseudovis import (
    CandidateSet,
    NotACandidate,
    SeparablePair,
    UnknownPair,
    VerifyReport,
    VisGraph,
    all_candidates,
    check_conditions,
    geometric_blockers,
    invisible_pairs,
    random_simple_polygon,
    separable_pairs,
    validate_graph,
    verify,
    visibility_graph,
)
from pseudovis.conditions import (
    EntryIndex,
    _nc4,
    _nc5_violations,
    _Requirement,
    entry_requirements,
    first_violation,
    residual_violations,
)
from pseudovis.cli import canonical_json, violation_to_dict
from pseudovis.graph_core import bits_from
from support import (
    cycle_graph,
    entry_index,
    full_scan_nc5,
    naive_entry_requirements,
    naive_pinched_quadruples,
    naive_readers,
    naive_residual_violations,
    naive_separable_pairs,
    pairs_of,
    reflect_graph,
    reflect_index,
)

# Hand-built six-cycle assignment whose quadruple (0,1,3,4) is pinched
# both ways (targets 5 and 2), with every shadow pinned by the extra
# entries so the double pinch certifies two sightline crossings.
C6_DOUBLE_PINCH = {
    (1, 5): 0, (3, 5): 4, (0, 2): 1, (4, 2): 3,
    (1, 3): 2, (1, 4): 2, (3, 0): 2, (3, 1): 2,
    (4, 0): 5, (4, 1): 5, (0, 3): 5, (0, 4): 5,
}


def test_ground_truth_clean(dent5_poly, dent5_graph):
    a = geometric_blockers(dent5_poly)
    assert a == {(1, 3): 2, (1, 4): 2, (3, 1): 2, (4, 1): 2}
    assert check_conditions(dent5_graph, a) == []


def test_empty_assignment_vacuous(k5, quad4):
    assert check_conditions(k5, {}) == []
    assert check_conditions(quad4, {}) == []


def test_c4_forced_visible_pair_breaks_nc3():
    g = cycle_graph(4)
    a = {(0, 2): 1, (2, 0): 1, (1, 3): 0, (3, 1): 0}
    conditions = {v.condition for v in check_conditions(g, a)}
    assert "NC3case1" in conditions


def test_dent5_mirrored_nc1(dent5_graph):
    # p0 on the far-side arc of (1,3) must also be assigned to (1,4)
    a = {(1, 3): 0, (1, 4): 2, (3, 1): 2, (4, 1): 2}
    violations = check_conditions(dent5_graph, a)
    nc1 = [v for v in violations if v.condition == "NC1a"]
    assert any({(1, 3), (1, 4)} <= set(v.pairs) for v in nc1)


def test_unknown_pair(quad4):
    with pytest.raises(UnknownPair):
        check_conditions(quad4, {(1, 3): 0})


def test_not_a_candidate(dent5_graph):
    with pytest.raises(NotACandidate):
        check_conditions(dent5_graph, {(1, 3): 4})


@pytest.mark.parametrize("pair, k, error, problem", [
    # at n = 8 the code 1 * 8 + 13 is that of the invisible pair (2, 5)
    ((1, 13), 4, UnknownPair, "(1,13) is not an invisible pair"),
    ((3, -2), 4, UnknownPair, "(3,-2) is not an invisible pair"),  # code of (2, 6)
    ((-1, 29), 4, UnknownPair, "(-1,29) is not an invisible pair"),  # code of (2, 5)
    ((-1, 3), 4, UnknownPair, "(-1,3) is not an invisible pair"),  # a negative code
    ((2, 5), -1, NotACandidate, "p-1 is not a candidate blocker for (2,5)"),
    ((2, 5), 8, NotACandidate, "p8 is not a candidate blocker for (2,5)"),
    ((2.0, 5), 4, UnknownPair, "(2.0,5) is not an invisible pair"),  # no vertex 2.0
    ((False, 2), 1, UnknownPair, "(False,2) is not an invisible pair"),  # not (0, 2)
    ((0, 2), True, NotACandidate, "pTrue is not a candidate blocker for (0,2)"),  # not p1
    ((2, 5), 4.0, NotACandidate, "p4.0 is not a candidate blocker for (2,5)"),  # not p4
], ids=["alias", "alias-negative-target", "alias-negative-viewer", "negative-code",
        "blocker-minus-1", "blocker-n", "float-end", "bool-end", "bool-blocker",
        "float-blocker"])
def test_out_of_range_entries_are_rejected(pair, k, error, problem):
    """Entries outside the graph are unknown pairs or not candidates, to
    the checker and to verify alike, never a code of another pair."""
    g = visibility_graph(random_simple_polygon(8, 1))
    assert all_candidates(g)[(2, 5)].members() == (4,)
    a = {pair: k}
    with pytest.raises(error):
        check_conditions(g, a)
    with pytest.raises(error):
        first_violation(g, a)
    # (2, 5) == (2.0, 5) and (0, 2) == (False, 2), so match pairs as printed
    unassigned = [f"({i},{j}) is unassigned" for i, j in invisible_pairs(g)
                  if f"({i},{j})" != "({},{})".format(*pair)]
    assert verify(g, a) == VerifyReport(False, (problem, *unassigned), ())


def test_first_violation_checks_the_candidate_table_only():
    """A candidate dict passed to first_violation is not trusted: an entry
    that it admits but the graph's candidate table does not still raises."""
    g = visibility_graph(random_simple_polygon(8, 1))
    cand = dict(all_candidates(g))
    assert cand[(2, 5)] == CandidateSet(4, None)
    cand[(2, 5)] = CandidateSet(4, 1)  # 1 is not a candidate of (2, 5)
    with pytest.raises(NotACandidate):
        first_violation(g, {(2, 5): 1}, cand)


def test_partial_assignment_suspends(dent5_graph):
    assert check_conditions(dent5_graph, {(1, 3): 2}) == []


@st.composite
def graph_and_assignment(draw):
    n = draw(st.integers(4, 7))
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    g = cycle_graph(n, draw(st.frozensets(st.sampled_from(chords))))
    cand = all_candidates(g)
    assignable = [p for p in invisible_pairs(g) if not cand[p].is_empty]
    a = {}
    for pair in draw(st.sets(st.sampled_from(assignable))) if assignable else []:
        a[pair] = draw(st.sampled_from(cand[pair].members()))
    return g, a


@settings(max_examples=120)
@given(graph_and_assignment(), st.data())
def test_monotone_under_extension(ga, data):
    g, a = ga
    if not a:
        return
    keep = data.draw(st.sets(st.sampled_from(sorted(a)), max_size=len(a)))
    sub = {p: a[p] for p in keep}
    sub_violations = set(check_conditions(g, sub))
    full_violations = set(check_conditions(g, a))
    assert sub_violations <= full_violations


def test_separable_trivial(k5, quad4, dent5_graph):
    assert separable_pairs(k5) == []
    assert separable_pairs(quad4) == []
    assert separable_pairs(dent5_graph) == []


def test_separable_on_chordless_six_cycle():
    g = cycle_graph(6)
    recs = separable_pairs(g)
    assert SeparablePair(1, (2, 4), (0, 4)) in recs
    for rec in recs:
        cand = all_candidates(g)
        assert cand[rec.pair_a].contains(rec.blocker)
        assert cand[rec.pair_b].contains(rec.blocker)


@st.composite
def chord_graphs(draw):
    n = draw(st.integers(4, 8))
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    return cycle_graph(n, draw(st.frozensets(st.sampled_from(chords))))


@st.composite
def polygon_graphs(draw, lo=5, hi=14):
    """A random polygon's visibility graph, and half the time that graph
    with one of its non-edges added (the benchmark's mutants shape)."""
    n = draw(st.integers(lo, hi))
    g = visibility_graph(random_simple_polygon(n, draw(st.integers(0, 10**6))))
    non = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.visible(i, j)]
    if non and draw(st.booleans()):
        g = validate_graph(n, sorted(g.edges) + [draw(st.sampled_from(non))])
    return g


@given(st.one_of(chord_graphs(), polygon_graphs()))
def test_separable_matches_definition_scan(g):
    # On polygon graphs most blockers have fewer than two candidate
    # entries, which nc4_partners skips.
    assert separable_pairs(g) == naive_separable_pairs(g)


@settings(max_examples=300)
@given(st.one_of(chord_graphs(), polygon_graphs(4, 12)), st.data())
def test_assign_returns_exactly_the_entries_that_read_it(g, data):
    # A candidate-drawn partial assignment and one more candidate entry:
    # assign's readers are the entries whose requirements read it.
    cand = all_candidates(g)
    assignable = [p for p, cs in cand.items() if not cs.is_empty]
    if not assignable:
        return
    pairs = data.draw(st.lists(st.sampled_from(assignable), min_size=1, unique=True))
    a = {p: data.draw(st.sampled_from(cand[p].members())) for p in pairs}
    pair, b = a.popitem()
    readers = entry_index(g, a).assign(pair[0] * g.n + pair[1], b)
    assert set(bits_from(readers, 0)) == naive_readers(g, a, pair, b)


def test_nc4_fires_on_shared_separable_blocker():
    g = cycle_graph(6)
    a = {(2, 4): 1, (0, 4): 1}
    violations = check_conditions(g, a)
    assert {v.condition for v in violations} == {"NC4"}


def test_pinched_trivial(k5, dent5_graph, dent5_poly):
    assert naive_pinched_quadruples(k5, {}) == []
    assert naive_pinched_quadruples(dent5_graph, geometric_blockers(dent5_poly)) == []


def test_pinched_hand_built():
    g = cycle_graph(6)
    quads = naive_pinched_quadruples(g, {(1, 5): 0, (2, 5): 3})
    assert quads == [(0, 1, 2, 3, 5)]


@st.composite
def arbitrary_partial_assignments(draw):
    # Any vertex may stand as a blocker, including the pair's own ends.
    n = draw(st.integers(4, 11))
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    g = cycle_graph(n, draw(st.frozensets(st.sampled_from(chords))))
    pool = invisible_pairs(g)
    pairs = draw(st.sets(st.sampled_from(pool))) if pool else []
    return g, {pair: draw(st.integers(0, n - 1)) for pair in sorted(pairs)}


@settings(max_examples=200)
@given(st.one_of(graph_and_assignment(), arbitrary_partial_assignments()))
def test_requirements_are_open(ga):
    g, a = ga
    idx = entry_index(g, a)
    for (i, j), k in a.items():
        if k in (i, j):
            continue  # entry_requirements assumes k is neither end
        for req in entry_requirements(idx, i * g.n + j, k):
            if isinstance(req, _Requirement):
                assert a.get(req.pair) != req.value, ((i, j), k, req)


# Near arc (3,0)->2 and far arc (2,4)->1 both wrap past vertex 0.
WRAPPED_ARCS = (cycle_graph(5, [(1, 4)]), {(1, 3): 2, (2, 4): 1, (3, 0): 2, (4, 2): 1})


@settings(max_examples=200)
@given(st.one_of(graph_and_assignment(), arbitrary_partial_assignments()), st.booleans())
@example(WRAPPED_ARCS, False)
@example(WRAPPED_ARCS, True)
def test_entry_requirements_match_vertex_scans(ga, assign):
    """The index-based scans yield what the vertex-by-vertex scans yield,
    in the same order; with assign, every requirement on an unassigned
    pair is assigned before the generator resumes, as propagation does."""
    g, a = ga
    n = g.n

    def run(reqs, has, put):
        out = []
        for req in reqs:
            out.append(req)
            if assign and isinstance(req, _Requirement) and not has(req.pair):
                put(req.pair, req.value)
        return out

    for (i, j), k in sorted(a.items()):
        if k in (i, j):
            continue  # entry_requirements assumes k is neither end
        idx, b_ref = entry_index(g, a), dict(a)
        got = run(
            entry_requirements(idx, i * n + j, k),
            lambda p: p[0] * n + p[1] in idx.a,
            lambda p, b: idx.assign(p[0] * n + p[1], b),
        )
        want = run(naive_entry_requirements(g, b_ref, (i, j), k), b_ref.__contains__,
                   b_ref.__setitem__)
        assert got == want
        assert pairs_of(idx) == b_ref


def random_chord_graph(rng: random.Random) -> VisGraph:
    """A cycle on 4..11 vertices with each chord drawn at a random density."""
    n = rng.randint(4, 11)
    density = rng.random()
    return cycle_graph(n, [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1) and rng.random() < density
    ])


def nc4_with_a_fresh_entry(g, a, fresh, separable, hits):
    """residual_violations' NC4 part with the entries of fresh pushed last,
    against every record of separable (in its order) whose two pairs carry
    its blocker, one of them fresh; hits counts which pair that is."""
    found = list(residual_violations(entry_index(g, a), len(a) - len(fresh)))
    new = {pair for pair, _ in fresh}
    recs = [
        rec for rec in separable
        if a.get(rec.pair_a) == rec.blocker == a.get(rec.pair_b)
        and (rec.pair_a in new or rec.pair_b in new)
    ]
    assert [v for v in found if v.condition == "NC4"] == [
        _nc4(rec.blocker, rec.pair_a, rec.pair_b) for rec in recs
    ], (a, fresh)
    hits["NC4, fresh pair_a"] += sum(rec.pair_a in new for rec in recs)
    hits["NC4, fresh pair_b only"] += sum(rec.pair_a not in new for rec in recs)
    return found


def test_residual_on_fresh_entries_matches_full_scan():
    """On an assignment whose entries before the fresh ones have no NC1b
    or NC4 violation, checking NC1b and NC4 on the fresh entries alone
    finds the first violation of the full residual scans.  On any
    assignment, the NC4 violations found are those with a fresh entry."""
    rng = random.Random(6)
    hits = Counter()
    for _ in range(600):
        g = random_chord_graph(rng)
        separable = naive_separable_pairs(g)
        entries = [
            (pair, rng.choice(cs.members()))
            for pair, cs in all_candidates(g).items()
            if not cs.is_empty
        ]
        rng.shuffle(entries)
        a, rest = {}, []
        for pair, k in entries:  # a clean base, built greedily
            a[pair] = k
            if next(residual_violations(entry_index(g, a), 0), None) is not None:
                del a[pair]
                rest.append((pair, k))
        fresh = rng.sample(rest, min(len(rest), rng.randint(1, 3)))
        a.update(fresh)
        found = nc4_with_a_fresh_entry(g, a, fresh, separable, hits)
        got = found[0] if found else None
        want = naive_residual_violations(g, a, separable)
        assert got == (want[0] if want else None), (a, fresh)
        hits[got and got.condition] += 1
        # a base with violations of its own: they are not reported
        cut = rng.randint(0, len(entries))
        dirty = dict(entries[:cut] + entries[cut + 2:] + entries[cut:cut + 2])
        nc4_with_a_fresh_entry(g, dirty, entries[cut:cut + 2], separable, hits)
    assert hits["NC1b"] and hits["NC4"], hits
    assert hits["NC4, fresh pair_a"] and hits["NC4, fresh pair_b only"], hits


def test_residual_nc5_matches_full_pinch_scan():
    """The checker's residual check, every entry fresh, and its NC5 check
    on random candidate-drawn partial assignments: each must find exactly
    what the full scans find, in the same order.  That is NC1b over the
    sorted entries and NC4 over the separable pairs and, although NC5
    scans only mutual entries, NC5 over every pinched quadruple."""
    rng = random.Random(2)
    hits = Counter()
    for _ in range(2000):
        g = random_chord_graph(rng)
        share = rng.random()
        a = {
            pair: rng.choice(cs.members())
            for pair, cs in all_candidates(g).items()
            if not cs.is_empty and rng.random() < share
        }
        idx = entry_index(g, a)
        residual = list(residual_violations(idx, 0))
        assert residual == naive_residual_violations(g, a, naive_separable_pairs(g)), a
        nc5 = list(_nc5_violations(idx))
        assert nc5 == full_scan_nc5(g, a), a
        hits.update(v.condition for v in residual + nc5)
    assert hits["NC1b"] and hits["NC4"] and hits["NC5"], hits


def test_residual_nc5_on_the_trail_matches_full_pinch_scan():
    """NC5 read from the search state's index, which assign and undo keep
    in step, finds exactly what the dict-based scan of every pinched
    quadruple finds, in the same order."""
    rng = random.Random(11)
    hits = 0
    for _ in range(300):
        g = random_chord_graph(rng)
        cand = all_candidates(g)
        entries = [(i * g.n + j, cs.members()) for (i, j), cs in cand.items() if not cs.is_empty]
        idx = EntryIndex(g)
        for _ in range(60):
            free = [(c, values) for c, values in entries if c not in idx.a]
            if free and rng.random() < 0.85:
                c, values = rng.choice(free)
                idx.assign(c, rng.choice(values))
            else:
                idx.undo(rng.randint(max(0, len(idx.a) - 8), len(idx.a)))
            nc5 = list(_nc5_violations(idx))
            assert nc5 == full_scan_nc5(g, pairs_of(idx)), idx.a
            hits += len(nc5)
    assert hits > 0


def test_nc5_fires_on_certified_double_pinch():
    g = cycle_graph(6)
    violations = check_conditions(g, C6_DOUBLE_PINCH)
    nc5 = [v for v in violations if v.condition == "NC5"]
    assert len(nc5) == 1
    assert nc5[0].vertices == (0, 1, 3, 4)


def test_nc5_suspended_until_shadows_pinned():
    g = cycle_graph(6)
    a = {(1, 5): 0, (3, 5): 4, (0, 2): 1, (4, 2): 3}
    assert naive_pinched_quadruples(g, a) != []
    assert not any(v.condition == "NC5" for v in check_conditions(g, a))


def test_nested_pockets_are_not_a_double_pinch():
    # Real polygon whose ground-truth blockers contain both pinch
    # templates on (0,1,6,7); one pocket nests inside the other, so no
    # sightline crossing is forced and the assignment must stay clean.
    p = random_simple_polygon(11, 117)
    g = visibility_graph(p)
    a = geometric_blockers(p)
    quads = {q[:4] for q in naive_pinched_quadruples(g, a)}
    assert (0, 1, 6, 7) in quads
    assert a[(0, 2)] == 1 and a[(7, 2)] == 6  # the swapped-role template
    assert check_conditions(g, a) == []


def test_reflection_preserves_verdict_and_flips_sides(dent5_poly, dent5_graph):
    from support import reflect_polygon

    mirrored = reflect_polygon(dent5_poly)
    mg = visibility_graph(mirrored)
    assert mg == reflect_graph(dent5_graph)
    assert check_conditions(mg, geometric_blockers(mirrored)) == []
    n = dent5_graph.n
    mirrored_table = all_candidates(mg)
    for pair, cs in all_candidates(dent5_graph).items():
        mirror_pair = (reflect_index(n, pair[0]), reflect_index(n, pair[1]))
        ms = mirrored_table[mirror_pair]
        assert ms.cw == (None if cs.ccw is None else reflect_index(n, cs.ccw))
        assert ms.ccw == (None if cs.cw is None else reflect_index(n, cs.cw))


def test_violations_are_recheckable(dent5_graph):
    a = {(1, 3): 0, (1, 4): 2, (3, 1): 2, (4, 1): 2}
    for v in check_conditions(dent5_graph, a):
        cited = {p: a[p] for p in v.pairs if p in a}
        assert v in check_conditions(dent5_graph, cited)


CHECKER_GOLDEN_DIGEST = "f0dd83ba8bbacf8c90b642f246eef665ffd3f89c85f11e1763d01e511ab38c1f"


def checker_golden_inputs():
    """Seeded candidate-drawn partial assignments: on chord graphs, and on
    polygon graphs with one non-edge added."""
    rng = random.Random(20261019)
    graphs = [random_chord_graph(rng) for _ in range(160)]
    for seed in range(40):
        n = 8 + seed % 3
        g = visibility_graph(random_simple_polygon(n, 60000 + seed))
        others = sorted(
            (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in g.edges
        )
        graphs.append(cycle_graph(n, sorted(g.edges | {rng.choice(others)})))
    for g in graphs:
        entries = [(p, cs.members()) for p, cs in all_candidates(g).items() if not cs.is_empty]
        for _ in range(4):
            share = rng.random()
            yield g, {p: rng.choice(values) for p, values in entries if rng.random() < share}


def test_checker_golden_violations():
    # Pins the exact violation lists of check_conditions and the first
    # violation of first_violation (order, pairs, vertices, narratives),
    # which is the same against a given candidate table.
    digest = hashlib.sha256()
    hits = Counter()
    for g, a in checker_golden_inputs():
        found = check_conditions(g, a)
        first = first_violation(g, a)
        assert first_violation(g, a, all_candidates(g)) == first
        hits.update(v.condition for v in found)
        digest.update(canonical_json({
            "all": [violation_to_dict(v) for v in found],
            "first": first and violation_to_dict(first),
        }).encode())
    assert set(hits) == {"NC1a", "NC1b", "NC2", "NC3case1", "NC3case2", "NC4", "NC5"}, hits
    assert digest.hexdigest() == CHECKER_GOLDEN_DIGEST
