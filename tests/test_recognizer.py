import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pseudovis import (
    EmptyCandidateSet,
    ExhaustedSearch,
    SearchBudgetExceeded,
    check_conditions,
    conditions,
    find_assignment,
    geometric_blockers,
    random_simple_polygon,
    recognizer,
    validate_graph,
    verify,
    visibility_graph,
)
from pseudovis.blockers import candidate_table
from pseudovis.cli import verdict_to_json
from pseudovis.conditions import EntryIndex, Violation
from pseudovis.graph_core import bits_from
import support
from support import (
    brute_force_accepts,
    complete_graph,
    cycle_graph,
    entry_index,
    naive_find_assignment,
    pairs_of,
)


def cycle_chords(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1)]


def test_complete_graphs_accept_empty():
    for n in range(4, 9):
        v = find_assignment(complete_graph(n))
        assert v.accepted and v.assignment == {}


def test_quad4_deterministic_first(quad4):
    v = find_assignment(quad4)
    assert v.accepted
    assert v.assignment == {(0, 2): 1, (2, 0): 1}
    # the all-3 assignment also satisfies the conditions
    assert check_conditions(quad4, {(0, 2): 3, (2, 0): 3}) == []


def test_dent5_accepts_with_verifiable_assignment(dent5_graph):
    v = find_assignment(dent5_graph)
    assert v.accepted
    assert verify(dent5_graph, v.assignment).ok
    assert v.assignment == {(1, 3): 2, (1, 4): 2, (3, 1): 2, (4, 1): 2}


def test_chordless_cycles_reject(chordless_cycle):
    v = find_assignment(chordless_cycle)
    assert not v.accepted
    assert isinstance(v.certificate, ExhaustedSearch)
    assert v.certificate.conflicts
    assert not brute_force_accepts(chordless_cycle)


def test_empty_candidate_set_certificate():
    g = cycle_graph(6, [(0, 2), (1, 3), (0, 4), (3, 5)])
    v = find_assignment(g)
    assert not v.accepted
    assert v.certificate == EmptyCandidateSet((0, 3))


def test_conflict_log_recheckable():
    g = cycle_graph(4)
    v = find_assignment(g)
    for depth, violation in v.certificate.conflicts:
        assert depth >= 1
        assert violation.condition in {
            "NC1a", "NC1b", "NC2", "NC3case1", "NC3case2", "NC4", "NC5",
        }


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded):
        find_assignment(cycle_graph(6), node_budget=1)


# (n, seed, edge flipped, nodes): polygon graphs, some with one edge added
# or removed, and the number of nodes each search visits, recorded before
# the search picked its variables from code masks.  Five are accepted,
# three exhausted at their only conflict and four after many.
NODE_COUNTS = [
    (9, 1, None, 5), (12, 4, None, 20), (10, 27, None, 16), (10, 37, (3, 5), 15),
    (10, 16, (1, 8), 17), (10, 7, (2, 6), 7), (11, 8, (1, 6), 3), (12, 9, (3, 11), 10),
    (8, 5, (2, 5), 69), (10, 12, (2, 6), 25), (12, 286, (2, 4), 306), (12, 127, (8, 10), 423),
]


def test_node_counts_are_pinned():
    # a budget of K nodes gives the verdict and K - 1 raises, so the search
    # visits exactly K: variable and value order are unchanged
    conflicts = []
    for n, seed, flip, nodes in NODE_COUNTS:
        g = visibility_graph(random_simple_polygon(n, seed))
        if flip is not None:
            g = validate_graph(n, sorted(g.edges ^ {flip}))
        v = find_assignment(g, node_budget=nodes)
        conflicts.append(None if v.accepted else len(v.certificate.conflicts))
        with pytest.raises(SearchBudgetExceeded):
            find_assignment(g, node_budget=nodes - 1)
    assert conflicts == [None] * 5 + [1] * 3 + [35, 12, 150, 210]


def test_determinism(dent5_graph):
    a = find_assignment(dent5_graph)
    b = find_assignment(dent5_graph)
    assert verdict_to_json(a) == verdict_to_json(b)


def test_verify_examples(k5, dent5_graph, dent5_poly):
    assert verify(k5, {}).ok
    assert verify(dent5_graph, geometric_blockers(dent5_poly)).ok
    report = verify(dent5_graph, {(1, 3): 0, (1, 4): 2, (3, 1): 2, (4, 1): 2})
    assert not report.ok
    assert any(v.condition == "NC1a" for v in report.violations)


def test_verify_structural_problems(dent5_graph):
    report = verify(dent5_graph, {(1, 3): 2})
    assert not report.ok
    assert any("unassigned" in p for p in report.problems)
    report = verify(dent5_graph, {(0, 1): 2})
    assert not report.ok and report.problems
    report = verify(dent5_graph, {(1, 3): 4})
    assert not report.ok and report.problems


def test_accepted_implies_verify(sample_polygons):
    for p in sample_polygons:
        g = visibility_graph(p)
        v = find_assignment(g)
        assert v.accepted
        assert verify(g, v.assignment).ok


@st.composite
def graphs(draw):
    n = draw(st.integers(4, 7))
    picked = draw(st.frozensets(st.sampled_from(cycle_chords(n))))
    return cycle_graph(n, picked)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_search_agrees_with_brute_force(g):
    assert find_assignment(g).accepted == brute_force_accepts(g)


@settings(max_examples=100)
@given(st.data())
def test_trail_keeps_index_in_step(data):
    # After every assign or undo, the index equals one rebuilt from its
    # assignment, and the assignment holds the pushed codes in push order,
    # undo dropping the latest.
    n = data.draw(st.integers(3, 9))
    g = cycle_graph(n)
    idx, pushed = EntryIndex(g), []
    for _ in range(data.draw(st.integers(1, 40))):
        free = [v * n + t for v in range(n) for t in range(n) if v != t and v * n + t not in idx.a]
        if free and data.draw(st.booleans()):
            pushed.append(data.draw(st.sampled_from(free)))
            idx.assign(pushed[-1], data.draw(st.integers(0, n - 1)))
        else:
            del pushed[data.draw(st.integers(0, len(idx.a))):]
            idx.undo(len(pushed))
        rebuilt = entry_index(g, pairs_of(idx))
        for field in EntryIndex.__slots__:
            assert getattr(idx, field) == getattr(rebuilt, field), field
        assert list(idx.a) == pushed


def test_mutated_polygon_graphs():
    # flipping one non-cycle pair of a realizable graph produces a mix of
    # accepted and rejected instances; the search must match brute force
    # on every one of them
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    for idx in range(48):
        n = 5 + idx % 3
        g = visibility_graph(random_simple_polygon(n, 40000 + idx))
        edges = set(g.edges)
        edges.symmetric_difference_update({rng.choice(cycle_chords(n))})
        mutated = validate_graph(n, [list(e) for e in edges])
        v = find_assignment(mutated)
        assert v.accepted == brute_force_accepts(mutated)
        verdicts[v.accepted] += 1
        if v.accepted:
            assert verify(mutated, v.assignment).ok
    assert verdicts[True] and verdicts[False]


def test_triangle_pipeline():
    from pseudovis import build_ve, check_ve_characterization

    g = complete_graph(3)
    v = find_assignment(g)
    assert v.accepted and v.assignment == {}
    ve = build_ve(g, {})
    assert all(ve.sees(i, m) for i in range(3) for m in range(3))
    assert check_ve_characterization(ve, g) == []


# sha256 of the concatenated verdict_to_json output of golden_graphs(),
# recorded before propagation became incremental.
GOLDEN_DIGEST = "1529f4ad05af42f0a2a7e2a776a84207a976ede7de4d3f37b830a38a1a6b9e0f"


def golden_graphs() -> list:
    rng = random.Random(20261018)
    graphs = []
    for idx in range(240):
        n = 5 + idx % 4
        graphs.append(cycle_graph(n, [c for c in cycle_chords(n) if rng.random() < 0.5]))
    for idx in range(60):
        n = 8 + idx % 3
        g = visibility_graph(random_simple_polygon(n, 50000 + idx))
        others = sorted(
            (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in g.edges
        )
        graphs.append(validate_graph(n, sorted(g.edges | {rng.choice(others)})))
    return graphs


def test_golden_verdicts_and_certificates():
    # Pins the exact bytes of accepted assignments and of rejection
    # certificates (conflict order, depths and narratives), not just the
    # accept/reject bit.
    digest = hashlib.sha256()
    kinds = {"accepted": 0, EmptyCandidateSet: 0, ExhaustedSearch: 0}
    for g in golden_graphs():
        v = find_assignment(g)
        kinds["accepted" if v.accepted else type(v.certificate)] += 1
        digest.update(verdict_to_json(v).encode())
    assert kinds == {"accepted": 83, EmptyCandidateSet: 83, ExhaustedSearch: 134}
    assert digest.hexdigest() == GOLDEN_DIGEST


@pytest.mark.parametrize("n, accepted", [(4, 3), (5, 16), (6, 134)])
def test_small_n_census(n, accepted):
    # Every Hamiltonian-cycle graph on n vertices: the verdict is invariant
    # under rotation and reflection, and agrees with brute force for n <= 5.
    chords = cycle_chords(n)
    verdicts = {}
    for picked in itertools.product((False, True), repeat=len(chords)):
        g = cycle_graph(n, [c for c, keep in zip(chords, picked) if keep])
        verdicts[g.edges] = find_assignment(g).accepted
        if n <= 5:
            assert verdicts[g.edges] == brute_force_accepts(g)
    assert len(verdicts) == 2 ** len(chords)
    assert sum(verdicts.values()) == accepted
    for edges, ok in verdicts.items():
        for shift, sign in itertools.product(range(n), (1, -1)):
            image = frozenset(
                tuple(sorted(((sign * i + shift) % n, (sign * j + shift) % n)))
                for i, j in edges
            )
            assert verdicts[image] == ok


@st.composite
def chord_graphs_and_mutants(draw):
    n = draw(st.integers(5, 10))
    if draw(st.booleans()):
        return cycle_graph(n, draw(st.frozensets(st.sampled_from(cycle_chords(n)))))
    g = visibility_graph(random_simple_polygon(n, draw(st.integers(0, 10_000))))
    non = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.visible(i, j)]
    if non:  # a convex polygon's graph has none
        g = validate_graph(n, sorted(g.edges | {draw(st.sampled_from(non))}))
    return g


@settings(max_examples=25, deadline=None)
@given(chord_graphs_and_mutants())
def test_verdicts_survive_relabelling(g):
    # Under each of the 2n rotations and reflections the verdict kind is the
    # same, and an accepted assignment, relabelled, passes verify on the
    # relabelled graph: a reflection swaps each pair's cw and ccw sides.
    n, v = g.n, find_assignment(g)
    for shift, flip in itertools.product(range(n), (False, True)):
        image = [(i + shift) % n for i in range(n)]
        if flip:
            image = [support.reflect_index(n, i) for i in image]
        h = validate_graph(n, [[image[i], image[j]] for i, j in g.edges])
        w = find_assignment(h)
        assert type(w.certificate) is type(v.certificate), (shift, flip)
        if v.accepted:
            a = {(image[i], image[j]): image[b] for (i, j), b in v.assignment.items()}
            assert verify(h, a).ok, (shift, flip)


def test_search_depth_uses_no_recursion():
    # A search that spends a Python frame per decision reaches ~95
    # frames here; the search must not need them.
    g = visibility_graph(random_simple_polygon(32, 1))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        v = find_assignment(g)
    finally:
        sys.setrecursionlimit(limit)
    assert v.accepted


def test_search_matches_copying_search():
    # The trail search against the recursive search that copies the
    # assignment per node and checks every residual condition on every
    # closure: verdicts, conflict order and depths must be identical.
    rng = random.Random(4)
    kinds = {"accepted": 0, EmptyCandidateSet: 0, ExhaustedSearch: 0}

    def check(g):
        v = find_assignment(g)
        assert verdict_to_json(v) == verdict_to_json(naive_find_assignment(g))
        kinds["accepted" if v.accepted else type(v.certificate)] += 1

    for _ in range(2000):
        n = rng.randint(4, 11)
        density = rng.random()
        check(cycle_graph(n, [c for c in cycle_chords(n) if rng.random() < density]))
    for idx in range(100):
        n = 7 + idx % 5
        g = visibility_graph(random_simple_polygon(n, 60000 + idx))
        chord = rng.choice(sorted(e for e in g.edges if (e[1] - e[0]) % n not in (1, n - 1)))
        check(validate_graph(n, sorted(g.edges - {chord})))
    seeds = itertools.count(70000)
    for _ in range(100):  # the benchmark's mutants: one non-edge added
        non = []
        while not non:  # a convex polygon's graph has none
            seed = next(seeds)
            n = 8 + seed % 5
            g = visibility_graph(random_simple_polygon(n, seed))
            non = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.visible(i, j)]
        check(validate_graph(n, sorted(g.edges | {rng.choice(non)})))
    assert all(kinds.values()), kinds


def polygon_graphs(seeds) -> list:
    return [visibility_graph(random_simple_polygon(7 + s % 4, s)) for s in seeds]


def test_search_checks_nc5_only_at_total_assignments(monkeypatch):
    # NC5 is left to the leaves of the search: every NC5 scan that
    # find_assignment makes, its own or the final verify's, sees every
    # invisible pair assigned.
    nc5 = conditions._nc5_violations
    seen = []

    def spy(idx):
        seen.append(len(idx.a) == total)
        return nc5(idx)

    monkeypatch.setattr(recognizer, "_nc5_violations", spy)
    monkeypatch.setattr(conditions, "_nc5_violations", spy)
    # chordless cycles (exhausted searches) and polygon graphs (accepted)
    for g in [cycle_graph(n) for n in range(4, 8)] + polygon_graphs(range(70000, 70012)):
        total = candidate_table(g).inv.bit_count()
        find_assignment(g)
    assert seen and all(seen), seen.count(False)


def test_nc5_hit_at_a_total_assignment_backtracks(monkeypatch):
    # NC5 made to reject the total assignments in which a two-candidate
    # pair takes its cw value, the value the unpatched search accepted:
    # the search must backtrack past them exactly as the copying search
    # does under the same rejection, with the same verdict bytes.  These
    # seeds' graphs are those of 70000..70011 whose accepted assignment
    # gives some two-candidate pair its cw value.
    nc5, full_scan_nc5 = conditions._nc5_violations, support.full_scan_nc5
    kinds = {True: 0, False: 0}
    for g in polygon_graphs((70000, 70003, 70005, 70006, 70008, 70009, 70010, 70011)):
        unpatched = find_assignment(g)
        t, n = candidate_table(g), g.n
        total, fired = t.inv.bit_count(), 0
        pair, cw = next(
            (divmod(c, n), t.cw[c]) for c in bits_from(t.inv, 0)
            if t.ccw[c] is not None and unpatched.assignment[divmod(c, n)] == t.cw[c]
        )
        fake = Violation("NC5", (pair,), (cw,), f"NC5: p{cw} on {pair} rejected at a leaf")

        def rejects(a):
            return len(a) == total and a.get(pair) == cw

        def patched_nc5(idx):
            nonlocal fired
            if rejects(pairs_of(idx)):
                fired += 1
                yield fake
            yield from nc5(idx)

        monkeypatch.setattr(recognizer, "_nc5_violations", patched_nc5)
        monkeypatch.setattr(conditions, "_nc5_violations", patched_nc5)
        monkeypatch.setattr(
            support, "full_scan_nc5", lambda h, a: [fake] * rejects(a) + full_scan_nc5(h, a)
        )
        v = find_assignment(g)
        assert fired, pair
        assert verdict_to_json(v) == verdict_to_json(naive_find_assignment(g))
        if v.accepted:
            assert v.assignment[pair] != cw and verify(g, v.assignment).ok
        kinds[v.accepted] += 1
        monkeypatch.undo()
    assert kinds[True] and kinds[False], kinds
