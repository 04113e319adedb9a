"""Independent oracles and helpers shared by the test modules.

The implementations here deliberately restate definitions from scratch
(plain scans, product enumeration) so they can cross-check the package's
optimized paths.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from pseudovis import (
    CandidateSet,
    Polygon,
    VEGraph,
    VertexOutsideInterval,
    VisGraph,
    validate_graph,
    validate_polygon,
)
from pseudovis.blockers import all_candidates, entry_arcs
from pseudovis.conditions import (
    EntryIndex,
    SeparablePair,
    Violation,
    _mismatch,
    _must_be_invisible,
    _nc1b,
    _nc4,
    _Requirement,
    check_conditions,
    first_violation,
)
from pseudovis.geometry import _exit_table, orient, ve_graph_geo, visibility_graph
from pseudovis.recognizer import (
    EmptyCandidateSet,
    ExhaustedSearch,
    Verdict,
    verify,
)
from pseudovis.graph_core import invisible_pairs, strictly_inside
from pseudovis.vertex_edge import CharacterizationFailure, is_articulation


def cycle_graph(n: int, chords=()) -> VisGraph:
    return validate_graph(n, [[i, (i + 1) % n] for i in range(n)] + [list(c) for c in chords])


def complete_graph(n: int) -> VisGraph:
    return validate_graph(n, [[i, j] for i in range(n) for j in range(i + 1, n)])


def entry_index(g: VisGraph, a: dict) -> EntryIndex:
    """An EntryIndex holding the pair-keyed assignment a, pushed in a's
    order."""
    idx = EntryIndex(g)
    for (v, t), b in a.items():
        idx.assign(v * g.n + t, b)
    return idx


def pairs_of(idx: EntryIndex) -> dict:
    """idx's assignment keyed by pairs, in trail order."""
    return {divmod(c, idx.n): b for c, b in idx.a.items()}


def ccw_dist(n: int, a: int, b: int) -> int:
    """Number of counterclockwise steps from a to b."""
    return (b - a) % n


def interval_vertices(n: int, i: int, j: int) -> list[int]:
    """Vertices of the inclusive counterclockwise walk from i to j, in
    walk order; the degenerate walk from i to itself contains just i."""
    if i <= j:
        return list(range(i, j + 1))
    return [*range(i, n), *range(j + 1)]


def interval_edges(n: int, i: int, j: int) -> list[int]:
    """Boundary-edge indices of the counterclockwise walk from i to j, in
    walk order (edge m joins vertices m and m+1); the walk from i to
    itself has no edges."""
    return [(i + d) % n for d in range(ccw_dist(n, i, j))]


def in_interval(n: int, a: int, b: int, x: int) -> bool:
    """True iff x lies on the inclusive counterclockwise walk from a to b."""
    return (x - a) % n <= (b - a) % n


def naive_candidates(g: VisGraph, pair) -> CandidateSet:
    """Literal definition scan, independent of the package implementation."""
    i, j = pair
    n = g.n

    def first_seen(walk):
        for v in walk:
            if g.visible(i, v):
                return v
        raise AssertionError("walk ended before a visible vertex")

    cw_walk = [(j - d) % n for d in range(1, n)]
    ccw_walk = [(j + d) % n for d in range(1, n)]
    k = first_seen(cw_walk)
    k2 = first_seen(ccw_walk)

    def clean(side_a, side_b):
        return not any(g.visible(s, t) for s in side_a for t in side_b)

    cw = k if clean(
        interval_vertices(n, i, (k - 1) % n), interval_vertices(n, (k + 1) % n, j)
    ) else None
    ccw = k2 if clean(
        interval_vertices(n, j, (k2 - 1) % n), interval_vertices(n, (k2 + 1) % n, i)
    ) else None
    return CandidateSet(cw, ccw)


def naive_entry_arcs(n: int, pair, k: int) -> tuple[set[int], set[int]]:
    """Near and far vertex sets of an entry (pair -> k) from the
    definition: k lies on one of the two walks between viewer i and
    target j; the near arc is the rest of the walk between i and k that
    avoids j, the far arc the rest of the walk between k and j that
    avoids i."""
    i, j = pair

    def walk(a, b):
        return {v for v in range(n) if in_interval(n, a, b, v)} - {k}

    if in_interval(n, i, j, k):
        return walk(i, k), walk(k, j)
    return walk(k, i), walk(j, k)


def arc_walk(n: int, start: int, mask: int) -> list[int]:
    """The vertices of mask in counterclockwise order from start, by a
    plain scan: for an arc returned by entry_arcs, its walk."""
    return [(start + d) % n for d in range(n) if mask >> (start + d) % n & 1]


def naive_readers(g: VisGraph, a: dict, pair, b: int) -> set[int]:
    """The codes of the entries of a that read the new entry pair -> b,
    restated from entry_requirements' read sites: an entry (i, j) -> k
    reads (s, k) for each s on its near arc (NC2's a[s*n+k]), (j, k)
    (NC3 case 2's a.get(j*n+k)) and each entry (k, .) -> i (the reverse
    scan's by_viewer[k][i])."""
    n = g.n
    v, t = pair
    out = set()
    for (i, j), k in a.items():
        near = naive_entry_arcs(n, (i, j), k)[0]
        if k == t and v in near or (j, k) == pair or (k, i) == (v, b):
            out.add(i * n + j)
    return out


def naive_build_ve(g: VisGraph, a: dict) -> VEGraph:
    """Vertex-edge relation of an assignment, edge by edge: entry
    (i, t) -> b hides edge m from viewer i iff both ends of m lie on the
    walk between b and t that avoids i."""
    n = g.n

    def hides(i, t, b, m):
        lo, hi = (t, b) if in_interval(n, b, t, i) else (b, t)
        return in_interval(n, lo, hi, m) and in_interval(n, lo, hi, (m + 1) % n)

    return VEGraph(n, tuple(
        sum(
            1 << m for m in range(n)
            if not any(v == i and hides(i, t, b, m) for (v, t), b in a.items())
        )
        for i in range(n)
    ))


def articulation_by_incidence(ve: VEGraph, start: int, end: int, v: int) -> bool:
    """Cut-vertex cross-check of is_articulation on the incidence
    structure of the walk from start to end.

    Nodes are the walk's vertices and boundary edges, with an arc for
    every sees(vertex, edge) relation between them; v is an articulation
    point iff removing its node disconnects the rest.
    """
    n = ve.n
    if not strictly_inside(n, start, end, v):
        raise VertexOutsideInterval(f"p{v} is not strictly inside the walk {start}..{end}")
    verts = interval_vertices(n, start, end)
    edges = interval_edges(n, start, end)
    nodes = [("v", x) for x in verts if x != v] + [("e", m) for m in edges]
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {x: [] for x in nodes}
    for x in verts:
        if x == v:
            continue
        for m in edges:
            if ve.sees(x, m):
                adj[("v", x)].append(("e", m))
                adj[("e", m)].append(("v", x))
    if not nodes:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) != len(nodes)


def naive_separable_pairs(g: VisGraph) -> list[SeparablePair]:
    """Every ordered pair of invisible pairs checked against the
    definition: pair_b shares the candidate blocker k of pair_a and both
    its ends lie on the walk from k to pair_a's target away from the
    viewer (k and the target included)."""
    n = g.n
    cand = {p: naive_candidates(g, p).members() for p in invisible_pairs(g)}
    out = []
    for (i, j), ks_a in cand.items():
        for k in ks_a:
            step = 1 if k in interval_vertices(n, i, j) else -1
            arc = {k}
            v = k
            while v != j:
                v = (v + step) % n
                arc.add(v)
            for (s, t), ks_b in cand.items():
                if (s, t) != (i, j) and k in ks_b and {s, t} <= arc:
                    out.append(SeparablePair(k, (i, j), (s, t)))
    return sorted(out, key=lambda r: (r.blocker, r.pair_a, r.pair_b))


def naive_pinched_quadruples(g: VisGraph, a: dict) -> list[tuple[int, int, int, int, int]]:
    """Every pair of entries (j, m) -> i and (s, m) -> t with a shared
    target m checked against the definition: i, j, s, t are four distinct
    vertices in counterclockwise order and m lies on the walk from t to i.
    Each pinched quadruple is the tuple (i, j, s, t, m)."""
    n = g.n
    out = set()
    for (j, m), i in a.items():
        for (s, m2), t in a.items():
            if m2 != m or len({i, j, s, t}) != 4:
                continue
            if not 0 < ccw_dist(n, i, j) < ccw_dist(n, i, s) < ccw_dist(n, i, t):
                continue
            if in_interval(n, t, i, m):
                out.add((i, j, s, t, m))
    return sorted(out)


def naive_cap_spans_exactly(
    g: VisGraph, a: dict, viewer: int, blocker: int, stretch: list[int], excluded
) -> bool:
    """True iff every stretch vertex is visible from the viewer or
    assigned this blocker, and each excluded vertex is visible from the
    viewer or assigned some other blocker, looked up vertex by vertex."""
    for u in stretch:
        if not g.visible(viewer, u) and a.get((viewer, u)) != blocker:
            return False
    for x in excluded:
        if not g.visible(viewer, x) and a.get((viewer, x)) in (None, blocker):
            return False
    return True


def naive_pinch_certified(g: VisGraph, a: dict, q: tuple, m2: int) -> bool:
    """The four shadows of a double pinch via m and m2, each pinned on
    its stretch between a quadruple vertex and a shared target."""
    n = g.n
    i, j, s, t, m = q
    return all(
        naive_cap_spans_exactly(g, a, viewer, blocker, interval_vertices(n, lo, hi), excluded)
        for viewer, blocker, lo, hi, excluded in (
            (j, i, (t + 1) % n, m, (s, t)),
            (s, t, m, (i - 1) % n, (i, j)),
            (i, j, m2, (s - 1) % n, (s, t)),
            (t, s, (j + 1) % n, m2, (i, j)),
        )
    )


def full_scan_nc5(g: VisGraph, a: dict) -> list[Violation]:
    """NC5 violations from every quadruple of naive_pinched_quadruples(g,
    a), with no filter on the entries scanned: each quadruple is tried
    with every m2 on the walk from j to s, and certified by dict lookups."""
    out = []
    for q in naive_pinched_quadruples(g, a):
        i, j, s, t, m = q
        for m2 in interval_vertices(g.n, j, s):
            if a.get((i, m2)) != j or a.get((t, m2)) != s:
                continue
            if not naive_pinch_certified(g, a, q, m2):
                continue
            out.append(Violation(
                "NC5",
                tuple(sorted(((j, m), (s, m), (i, m2), (t, m2)))),
                tuple(sorted((i, j, s, t))),
                f"NC5: quadruple ({i},{j},{s},{t}) is pinched "
                f"both ways, via p{m} and p{m2}",
            ))
    return out


def naive_residual_violations(
    g: VisGraph, a: dict, separable: list[SeparablePair]
) -> list[Violation]:
    """The NC1b and NC4 violations of a candidate-drawn assignment by full
    scans: NC1b at every entry (i, j) -> k with (k, j) -> i, in sorted
    order; NC4 at every record of separable (the graph's
    naive_separable_pairs) whose two pairs both carry its blocker."""
    nc1b = [_nc1b(i, j, k) for (i, j), k in sorted(a.items()) if a.get((k, j)) == i]
    nc4 = [
        _nc4(rec.blocker, rec.pair_a, rec.pair_b) for rec in separable
        if a.get(rec.pair_a) == rec.blocker and a.get(rec.pair_b) == rec.blocker
    ]
    return nc1b + nc4


def naive_entry_requirements(g: VisGraph, a: dict, pair, k: int):
    """entry_requirements restated vertex by vertex on the assignment
    dict alone: each scan walks its arc and looks every pair up."""
    n = g.n
    i, j = pair
    near0, near_mask, far0, far_mask = entry_arcs(n, pair, k)
    near, far = arc_walk(n, near0, near_mask), arc_walk(n, far0, far_mask)
    for t in far:
        if a.get((i, t)) != k:
            yield _Requirement((i, t), k, "NC1a", pair, k)
    for s in near:
        if g.visible(s, k):
            if a.get((s, j)) != k:
                yield _Requirement((s, j), k, "NC2", pair, k)
        else:
            t = a.get((s, k))
            if t is not None and a.get((s, j)) != t:
                yield _Requirement((s, j), t, "NC2", pair, k, via=((s, k),))
    if g.visible(j, k):
        cond, value, via, reach = "NC3case1", k, (), near
    else:
        value = a.get((j, k))
        if value is None:
            return
        cond, via, reach = "NC3case2", ((j, k),), near + [k]
        if g.visible(i, value):
            yield _must_be_invisible(cond, pair, k, (j, k), (i, value))
        elif a.get((i, value)) != k:
            yield _Requirement((i, value), k, cond, pair, k, via=via)
    for s in reach:
        if a.get((j, s)) != value:
            yield _Requirement((j, s), value, cond, pair, k, via=via)
    for t in range(n):
        if t != j and a.get((k, t)) == i:
            if g.visible(j, t):
                yield _must_be_invisible(cond, pair, k, (k, t), (j, t))
            elif a.get((j, t)) != value:
                yield _Requirement((j, t), value, cond, pair, k, via=via + ((k, t),))


def naive_find_assignment(g: VisGraph) -> Verdict:
    """find_assignment as a recursive search that copies the assignment
    at every node.  Propagation walks the sorted entries in passes,
    visiting the dirty ones, and every closure is checked with the full
    naive_residual_violations and full_scan_nc5, in that order.  The
    package's search must match it byte for byte (verdict_to_json)."""
    cand = all_candidates(g)
    for p, cs in cand.items():
        if cs.is_empty:
            return Verdict(False, certificate=EmptyCandidateSet(p))
    order = sorted(cand, key=lambda p: (len(cand[p].members()), p))
    separable = naive_separable_pairs(g)
    conflicts = []

    def propagate(a: dict, new: tuple) -> Violation | None:
        by_blocker = defaultdict(set)
        for pair, k in a.items():
            by_blocker[k].add(pair)
        dirty = set()

        def added(pair):
            (x, y), b = pair, a[pair]
            dirty.add(pair)
            dirty.update(by_blocker[y], (p for p in by_blocker[x] if p[0] == b))
            by_blocker[b].add(pair)

        for pair in new:
            added(pair)
        while dirty:
            for pair in sorted(a):
                if pair not in dirty:
                    continue
                dirty.discard(pair)
                for req in naive_entry_requirements(g, a, pair, a[pair]):
                    if isinstance(req, Violation):
                        return req
                    cur = a.get(req.pair)
                    if cur is not None:
                        return _mismatch(req, cur)
                    if not cand[req.pair].contains(req.value):
                        return _mismatch(req, None)
                    a[req.pair] = req.value
                    added(req.pair)
        residual = naive_residual_violations(g, a, separable) + full_scan_nc5(g, a)
        return residual[0] if residual else None

    def solve(a: dict, new: tuple) -> dict | None:
        bad = propagate(a, new)
        if bad is not None:
            conflicts.append((len(a), bad))
            return None
        var = next((p for p in order if p not in a), None)
        if var is None:
            return a
        for value in cand[var].members():
            result = solve({**a, var: value}, (var,))
            if result is not None:
                return result
        return None

    found = solve({}, ())
    if found is None:
        return Verdict(False, certificate=ExhaustedSearch(tuple(conflicts)))
    assert verify(g, found).ok
    return Verdict(True, assignment=found)


def brute_force_accepts(g: VisGraph) -> bool:
    """Exhaustive verdict over all total candidate assignments.

    Small domain products are enumerated outright; larger ones use a
    depth-first product walk pruned only by the (separately tested)
    monotonicity of the condition checker.
    """
    cand = all_candidates(g)
    pairs = invisible_pairs(g)
    if any(cand[p].is_empty for p in pairs):
        return False
    total = 1
    for p in pairs:
        total *= len(cand[p].members())
    if total <= 4096:
        for values in itertools.product(*(cand[p].members() for p in pairs)):
            a = dict(zip(pairs, values))
            if not check_conditions(g, a):
                return True
        return False

    def extend(idx: int, a: dict) -> bool:
        if first_violation(g, a, cand) is not None:
            return False
        if idx == len(pairs):
            return True
        p = pairs[idx]
        return any(extend(idx + 1, {**a, p: v}) for v in cand[p].members())

    return extend(0, {})


def _inside(p: Polygon, x: Fraction, y: Fraction) -> bool:
    """Even-odd crossing count of a horizontal ray from (x, y); the point
    must not lie on the boundary."""
    inside = False
    n = p.n
    for m in range(n):
        (ax, ay), (bx, by) = p.vertices[m], p.vertices[(m + 1) % n]
        if (ay > y) != (by > y) and x < ax + (y - ay) * Fraction(bx - ax, by - ay):
            inside = not inside
    return inside


def naive_sees_vertex(p: Polygon, i: int, j: int) -> bool:
    """Vertex visibility as a segment test: adjacent vertices see each
    other; otherwise j must lie strictly inside the interior angle at i
    and the segment ij must cross no edge avoiding both i and j, a proper
    crossing read from four orientation signs."""
    n = p.n
    if (j - i) % n in (1, n - 1):
        return True
    pts = p.vertices
    a, b = pts[i], pts[j]
    before, after = pts[i - 1], pts[(i + 1) % n]
    left_of_after = orient(a, after, b) > 0
    right_of_before = orient(a, b, before) > 0
    if orient(a, after, before) > 0:  # convex angle at i
        if not (left_of_after and right_of_before):
            return False
    elif not (left_of_after or right_of_before):
        return False
    for m in range(n):
        c, d = pts[m], pts[(m + 1) % n]
        if {i, j} & {m, (m + 1) % n}:
            continue
        o1, o2 = orient(a, b, c), orient(a, b, d)
        o3, o4 = orient(c, d, a), orient(c, d, b)
        if o1 * o2 < 0 and o3 * o4 < 0:
            return False
    return True


def naive_first_exit(p: Polygon, k: int, away: int) -> tuple[int, Fraction] | None:
    """Nearest proper crossing of the ray from vertex k directed away from
    vertex ``away`` with any edge not incident to k, solved in Fractions,
    as (edge, t): the ray meets the edge at k + t * (k - away).

    None when the ray starts outside: its nearest crossing is missing or
    the midpoint between k and that crossing is outside the polygon (the
    open segment between them meets no boundary)."""
    n = p.n
    ox, oy = p.vertices[k]
    dx, dy = ox - p.vertices[away][0], oy - p.vertices[away][1]
    crossings = []
    for m in range(n):
        if k in (m, (m + 1) % n):
            continue
        (ax, ay), (bx, by) = p.vertices[m], p.vertices[(m + 1) % n]
        ex, ey = bx - ax, by - ay
        den = dx * ey - dy * ex
        if den == 0:
            continue
        # o + t d = a + u e
        t = Fraction((ax - ox) * ey - (ay - oy) * ex, den)
        u = Fraction((ax - ox) * dy - (ay - oy) * dx, den)
        if t > 0 and 0 < u < 1:
            crossings.append((t, m))
    if not crossings:
        return None
    t, m = min(crossings)
    if not _inside(p, ox + t / 2 * dx, oy + t / 2 * dy):
        return None
    return m, t


def naive_crossing_edges(pts: list) -> tuple[int, int] | None:
    """First pair i < j of non-adjacent tour edges that cross properly:
    each edge's ends lie strictly on opposite sides of the other's line,
    read from four orientation signs, all nonzero."""
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # edges 0 and n - 1 share pts[0]
            c, d = pts[j], pts[(j + 1) % n]
            o1, o2 = orient(a, b, c), orient(a, b, d)
            o3, o4 = orient(c, d, a), orient(c, d, b)
            if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0
                    and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0):
                return i, j
    return None


def naive_collinear_triple(pts: list) -> tuple[int, int, int] | None:
    """First index triple i < j < k, in lexicographic order, whose points
    have orientation zero."""
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        if orient(pts[i], pts[j], pts[k]) == 0:
            return i, j, k
    return None


def reflect_polygon(p: Polygon) -> Polygon:
    """Mirror a polygon (negate x) and relabel so order stays counterclockwise.

    New vertex m is the mirror image of old vertex (-m mod n); vertex 0 is
    fixed.
    """
    n = p.n
    mirrored = [(-x, y) for (x, y) in p.vertices]
    return validate_polygon([mirrored[(-m) % n] for m in range(n)])


def reflect_index(n: int, i: int) -> int:
    return (-i) % n


def reflect_graph(g: VisGraph) -> VisGraph:
    n = g.n
    edges = []
    for i, j in g.edges:
        edges.append([reflect_index(n, i), reflect_index(n, j)])
    return validate_graph(n, edges)


def naive_first_seen(n: int, row: int, target: int, step: int) -> int:
    """blockers.first_seen as a walk from the target, one step at a time,
    to the first set bit; some bit other than the target's must be set."""
    k = (target + step) % n
    while not row >> k & 1:
        k = (k + step) % n
    return k


def naive_seen_edge_gaps(ve: VEGraph, k: int) -> list[tuple[int, int]]:
    """vertex_edge.seen_edge_gaps from the list of seen edges: each seen
    edge paired with the next one, the last with the first, kept when at
    least one unseen edge lies between them."""
    seen = [m for m in range(ve.n) if ve.sees(k, m)]
    return [(a, b) for a, b in zip(seen, seen[1:] + seen[:1]) if (b - a) % ve.n >= 2]


def naive_is_witness(p: Polygon, i: int, w: int, m: int) -> bool:
    """geometry._is_witness read pair by pair from the polygon's tables."""
    n = p.n
    ends = (m, (m + 1) % n)
    if i in ends:
        return w in ends
    if not visibility_graph(p).visible(i, w):
        return False
    if w in ends:
        return True
    hit = _exit_table(p)[(w, i)]
    return hit is not None and hit[0] == m


def naive_edge_vertex_visibility(p: Polygon) -> list[str]:
    """geometry.check_edge_vertex_visibility, vertex pair by vertex pair."""
    g = visibility_graph(p)
    ve = ve_graph_geo(p)
    n = p.n
    failures = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            before, after = (j - 1) % n, j
            if ve.sees(i, before) and ve.sees(i, after) and not g.visible(i, j):
                failures.append(
                    f"vertex {i} sees edges {before} and {after} but not vertex {j}"
                )
            if g.visible(i, j) and not (ve.sees(i, before) or ve.sees(i, after)):
                failures.append(
                    f"vertex {i} sees vertex {j} but neither incident edge"
                )
    return failures


def naive_gap_witness_cases(p: Polygon) -> list[str]:
    """geometry.check_gap_witness_cases, both cases spelled out gap by
    gap with pair-by-pair lookups."""
    g = visibility_graph(p)
    ve = ve_graph_geo(p)
    n = p.n
    failures = []
    for k in range(n):
        for a, b in naive_seen_edge_gaps(ve, k):
            if (a - b) % n == 1:
                continue  # bounding edges share a vertex
            va = (a + 1) % n  # far endpoint of e_a
            vb = b  # near endpoint of e_b
            case_a = (
                g.visible(k, va)
                and not g.visible(k, vb)
                and naive_is_witness(p, k, va, b)
                and ve.sees(va, b)
                and not ve.sees(vb, a)
            )
            case_b = (
                g.visible(k, vb)
                and not g.visible(k, va)
                and naive_is_witness(p, k, vb, a)
                and ve.sees(vb, a)
                and not ve.sees(va, b)
            )
            if case_a == case_b:
                which = "both" if case_a else "neither"
                failures.append(
                    f"vertex {k}, gap between edges {a} and {b}: {which} case holds"
                )
    return failures


def naive_ve_characterization(ve: VEGraph, g: VisGraph) -> list[CharacterizationFailure]:
    """vertex_edge.check_ve_characterization, gap by gap with sees()."""
    n = g.n
    failures = []
    for k in range(n):
        for i, j in naive_seen_edge_gaps(ve, k):
            if (i - j) % n == 1:
                continue  # bounding edges share a vertex
            near = ve.sees((i + 1) % n, j) and is_articulation(g, k, j, (i + 1) % n)
            far = ve.sees(j, i) and is_articulation(g, (i + 1) % n, k, j)
            if near == far:
                failures.append(CharacterizationFailure(k, i, j))
    return failures
