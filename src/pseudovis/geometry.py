"""Exact straight-line oracle on integer-coordinate simple polygons.

Every predicate reduces to integer cross-product signs, and a ray's
boundary hit is an exact rational parameter num/den.  Polygons must be
simple, counterclockwise and in general position (no three vertices
collinear), which keeps sightlines and witness rays away from vertices
and makes every boundary interaction a proper crossing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .blockers import candidate_table, first_seen
from .errors import (
    DegenerateInput,
    GenerationBudgetExceeded,
    IndexOutOfRange,
    MalformedInput,
    NotInvisible,
    OracleContradiction,
)
from .graph_core import (
    MAX_VERTICES,
    Pair,
    VisGraph,
    arc_mask,
    bits_from,
    derived_table,
    rows,
)
from .vertex_edge import VEGraph, seen_edge_gaps

Point = tuple[int, int]
Ray = tuple[int, int, int]  # (edge, num, den), den > 0: the ray meets the edge at t = num/den
_NO_RAYS = (None, None)  # shared by the many lines that cross no edge past either end

MAX_ATTEMPTS = 64  # point samples random_simple_polygon draws per grid width
GRID_ROUNDS = 4  # grid widths random_simple_polygon tries before giving up


@dataclass(frozen=True)
class Polygon:
    """Simple counterclockwise polygon on integer coordinates, no three
    vertices collinear.  ``tables`` holds the tables derived from it."""

    vertices: tuple[Point, ...]
    tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)


def orient(a: Point, b: Point, c: Point) -> int:
    """Twice the signed area of triangle abc; >0 for a left turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def signed_area2(vertices: tuple[Point, ...]) -> int:
    total = 0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def validate_polygon(vertices) -> Polygon:
    """Check all polygon invariants and return the validated value."""
    if not isinstance(vertices, (list, tuple)):
        raise DegenerateInput(f"vertices must be a list or tuple, got {vertices!r:.60}")
    if len(vertices) > MAX_VERTICES:
        raise DegenerateInput(f"more than {MAX_VERTICES} vertices, got {len(vertices)}")
    pts = []
    for v in vertices:
        try:
            x, y = v
        except (TypeError, ValueError):
            raise DegenerateInput(f"vertex must be 2 integers, got {v!r:.60}") from None
        if type(x) is not int or type(y) is not int:
            raise DegenerateInput(f"non-integer coordinate {v!r}")
        pts.append((x, y))
    n = len(pts)
    if n < 3:
        raise DegenerateInput(f"need at least 3 vertices, got {n}")
    if len(set(pts)) != n:
        raise DegenerateInput("duplicate vertices")
    triple = _collinear_triple(pts)
    if triple is not None:
        raise DegenerateInput("vertices {},{},{} are collinear".format(*triple))
    if signed_area2(tuple(pts)) <= 0:
        raise DegenerateInput("vertices are not in counterclockwise order")
    crossing = _crossing_edges(pts)
    if crossing is not None:
        raise DegenerateInput("edges {} and {} cross: not simple".format(*crossing))
    return Polygon(tuple(pts))


def _crossing_edges(pts: list[Point]) -> tuple[int, int] | None:
    """First pair i < j of non-adjacent tour edges (edge i joins pts[i] and
    pts[i+1]) that cross: both orientation products are negative."""
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n - (i == 0)):  # edges 0 and n - 1 share pts[0]
            c, d = pts[j], pts[(j + 1) % n]
            if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
                return i, j
    return None


def _cone_contains(p: Polygon, v: int, dx: int, dy: int) -> bool:
    """True iff direction (dx, dy) from vertex v points strictly into the
    interior angle at v.

    Directions along an incident edge line resolve by strictness: at a
    convex vertex the extension leaves the polygon, at a reflex vertex it
    enters.
    """
    pts = p.vertices
    px, py = pts[v]
    ax, ay = pts[(v + 1) % p.n]
    bx, by = pts[v - 1]
    ax, ay, bx, by = ax - px, ay - py, bx - px, by - py
    cad = ax * dy - ay * dx
    cdb = dx * by - dy * bx
    if ax * by - ay * bx > 0:
        return cad > 0 and cdb > 0
    return cad > 0 or cdb > 0


def _sight_line(p: Polygon, i: int, j: int) -> tuple[bool, tuple[Ray | None, Ray | None]]:
    """One scan of the line pi + s * (pj - pi): with side[x] = cross(pj - pi,
    px - pi), only an edge m whose ends lie strictly on opposite sides
    crosses it, at s = orient(pi, pm, pm+1) / (side[m+1] - side[m]).  Returns
    whether an edge crosses the open segment (0 < s < 1), then the nearest
    crossings of the rays from j away from i and from i away from j, as a pair."""
    pts = p.vertices
    pi = xi, yi = pts[i]
    dx, dy = pts[j][0] - xi, pts[j][1] - yi
    side = [dx * (y - yi) - dy * (x - xi) for x, y in pts]
    crossed, rays = False, _NO_RAYS  # nearest crossing past j, past i
    for m, a, b in zip(range(len(pts)), side, side[1:] + side[:1]):
        if a * b < 0:
            o = orient(pi, pts[m], pts[m + 1 - len(pts)])
            num, den = (o, b - a) if b > a else (-o, a - b)
            if 0 < num < den:
                crossed = True
                continue
            hit = (m, -num, den) if num < 0 else (m, num - den, den)
            best = rays[num < 0]
            if best is None or hit[1] * best[2] < best[1] * den:
                rays = (rays[0], hit) if num < 0 else (hit, rays[1])
    return crossed, rays


def _check_indices(p: Polygon, *indices) -> None:
    """Refuse a vertex or edge index of p that is no int or outside [0, n)."""
    for x in indices:
        if type(x) is not int:
            raise MalformedInput(f"index must be an integer, got {x!r:.60}")
        if not 0 <= x < p.n:
            raise IndexOutOfRange(f"index {x} outside [0,{p.n})")


def sees_vertex(p: Polygon, i: int, j: int) -> bool:
    """True iff the open segment between vertices i and j stays inside:
    i and j are adjacent, or j lies in the interior cone at i and no edge
    crosses the open segment."""
    _check_indices(p, i, j)
    if i == j:
        raise ValueError("sees_vertex needs two distinct vertices")
    if (j - i) % p.n in (1, p.n - 1):
        return True
    (ax, ay), (bx, by) = p.vertices[i], p.vertices[j]
    return _cone_contains(p, i, bx - ax, by - ay) and not _sight_line(p, i, j)[0]


@derived_table
def _sight_lines(p: Polygon) -> dict[Pair, tuple[Ray | None, Ray | None]]:
    """For each visible non-adjacent pair i < j, _sight_line's rays past j and
    past i.  Only pairs inside the interior cones at both ends are scanned."""
    n, pts = p.n, p.vertices
    lines = {}
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            if _cone_contains(p, i, dx, dy) and _cone_contains(p, j, -dx, -dy):
                crossed, rays = _sight_line(p, i, j)
                if not crossed:
                    lines[i, j] = rays
    return lines


@derived_table
def visibility_graph(p: Polygon) -> VisGraph:
    """Ground-truth visibility graph: the cycle edges and _sight_lines' pairs."""
    cycle = [(i, i + 1) for i in range(p.n - 1)] + [(0, p.n - 1)]
    return VisGraph(p.n, frozenset({*_sight_lines(p), *cycle}))


@derived_table
def _exit_table(p: Polygon) -> dict[Pair, Ray | None]:
    """For every ordered pair (k, a) where a sees k, keyed (k, a): the nearest
    crossing of the ray from k away from a, or None when it leaves the cone at
    k at once.  Pairs _sight_lines lacks (cycle edges, planted pairs) scan anew."""
    r, pts, lines = rows(visibility_graph(p)), p.vertices, _sight_lines(p)
    table: dict[Pair, Ray | None] = {}
    for k in range(p.n):
        for a in bits_from(r[k], 0):
            if not _cone_contains(p, k, pts[k][0] - pts[a][0], pts[k][1] - pts[a][1]):
                table[k, a] = None
                continue
            pair = (a, k) if a < k else (k, a)
            rays = lines.get(pair) or _sight_line(p, *pair)[1]
            table[k, a] = rays[k < a]  # the ray past k
            if table[k, a] is None:  # an interior direction must cross the boundary
                raise OracleContradiction(f"ray from p{k} away from p{a} never exits")
    return table


def _is_witness(r: tuple, exits: dict, i: int, w: int, m: int) -> bool:
    """Witness rule for the vertex-edge pair (i, e_m), read from the
    polygon's rows(visibility_graph(p)) and _exit_table(p)."""
    ends = (m, (m + 1) % len(r))
    if i in ends:
        return w in ends
    if not r[i] >> w & 1:
        return False
    if w in ends:
        return True
    hit = exits[(w, i)]
    return hit is not None and hit[0] == m


def sees_edge(p: Polygon, i: int, m: int) -> tuple[bool, list[int]]:
    """Whether vertex i sees edge m, plus the witness list.

    A vertex on the edge is witnessed by both endpoints; otherwise a
    witness is a vertex seen from i that either ends the edge or whose
    continuation ray away from i first exits through it.  Two witnesses
    are required.
    """
    _check_indices(p, i, m)
    r, exits = rows(visibility_graph(p)), _exit_table(p)
    witnesses = [w for w in range(p.n) if _is_witness(r, exits, i, w, m)]
    return len(witnesses) >= 2, witnesses


@derived_table
def ve_graph_geo(p: Polygon) -> VEGraph:
    """Ground-truth vertex-edge visibility relation: sees_edge for every
    (vertex, edge), with the witnesses counted in one pass over the
    visible pairs.  A vertex w that i sees witnesses its two incident
    edges and the edge its ray away from i exits through (never one of
    those two); the edges incident to i have two witnesses by rule."""
    n = p.n
    counts = [[0] * n for _ in range(n)]
    for (w, i), hit in _exit_table(p).items():
        row = counts[i]
        row[w] += 1
        row[w - 1] += 1
        if hit is not None:
            row[hit[0]] += 1
    for i, row in enumerate(counts):
        row[i] = row[i - 1] = 2
    return VEGraph(
        n, tuple(sum(1 << m for m, c in enumerate(row) if c >= 2) for row in counts)
    )


@derived_table
def _designated_blockers(p: Polygon) -> dict[int, int | str]:
    """The unique vertex geometrically responsible for each ordered
    invisible pair (i, j), by entry code i * n + j.

    Walks from the target to the first vertex the viewer sees on each
    side; the viewer must see exactly one boundary edge between those two
    vertices, and the side of the target that edge falls on selects the
    blocker, which must be a candidate.  Any other outcome is stored as
    its OracleContradiction message, so the table holds no exception.
    """
    g = visibility_graph(p)
    r, ve_rows, t, n = rows(g), ve_graph_geo(p).rows, candidate_table(g), p.n
    outcomes: dict[int, int | str] = {}
    for c in bits_from(t.inv, 0):
        i, j = divmod(c, n)
        k, k2 = first_seen(n, r[i], j, -1), first_seen(n, r[i], j, 1)
        seen = ve_rows[i] & arc_mask(n, k, (k2 - 1) % n)
        blocker = k if seen & arc_mask(n, j, (k2 - 1) % n) else k2
        if seen.bit_count() != 1:
            outcomes[c] = (f"viewer {i} sees {seen.bit_count()} edges"
                           f" between p{k} and p{k2}, expected 1")
        elif not t.admits(c, blocker):
            outcomes[c] = f"geometric blocker p{blocker} of ({i},{j}) is not a candidate"
        else:
            outcomes[c] = blocker
    return outcomes


def designated_blocker_geo(p: Polygon, pair: Pair) -> int:
    """_designated_blockers' blocker of one ordered invisible pair; raises
    NotInvisible for any other pair and its OracleContradiction if any."""
    c = candidate_table(visibility_graph(p)).code(pair)
    if c is None:
        raise NotInvisible("({},{}) is not an invisible pair".format(*pair))
    return _raised(_designated_blockers(p)[c])


def _raised(outcome: int | str) -> int:
    """A stored outcome's blocker; a stored message is raised as a new
    OracleContradiction, so no raise leaves a traceback in the table."""
    if isinstance(outcome, str):
        raise OracleContradiction(outcome)
    return outcome


def geometric_blockers(p: Polygon) -> dict[Pair, int]:
    """Designated blocker of every ordered invisible pair; raises the
    first OracleContradiction."""
    return {divmod(c, p.n): _raised(k) for c, k in _designated_blockers(p).items()}


def check_blocker_uniqueness(p: Polygon) -> list[str]:
    """Exactly-one-blocker scan over all ordered invisible pairs.

    Independently of the seen-edge extraction, a vertex v qualifies as a
    blocker of (i, j) by the ray rule: i sees v and the continuation ray
    beyond v away from i first exits through the walk between viewer and
    target avoiding v.  The scan must find exactly the extracted blocker,
    which must also be a combinatorial candidate; for far-side blockers
    the hit edge must also fall between target and blocker (the two exit
    conventions must agree).
    """
    r = rows(visibility_graph(p))
    table = _exit_table(p)
    n = p.n
    # rays[i]: (v, exit edge) for each v that i sees whose ray away from i
    # exits somewhere, in increasing v.
    rays: list[list[Pair]] = [[] for _ in range(n)]
    for (v, i), hit in table.items():
        if hit is not None:
            rays[i].append((v, hit[0]))
    failures = []
    for c, algo in _designated_blockers(p).items():
        i, j = divmod(c, n)
        if isinstance(algo, str):
            failures.append(f"pair ({i},{j}): {algo}")
            continue
        by_ray = []
        walk = arc_mask(n, i, (j - 1) % n)  # the edges of the walk from i to j
        inside = arc_mask(n, (i + 1) % n, (j - 1) % n)  # its vertices strictly between
        for v, m in rays[i]:
            away = ~walk if inside >> v & 1 else walk
            if away >> m & 1:
                by_ray.append(v)
        if by_ray != [algo]:
            failures.append(
                f"pair ({i},{j}): ray scan found {by_ray}, extraction found {algo}"
            )
            continue
        if not inside >> algo & 1:
            # Second convention for far-side blockers: the ray must exit
            # between the first vertex the viewer sees walking clockwise
            # from the target and the blocker itself.
            hit = table[(algo, i)]
            k = first_seen(n, r[i], j, -1)
            if hit is None or not arc_mask(n, k, (algo - 1) % n) >> hit[0] & 1:
                failures.append(
                    f"pair ({i},{j}): exit conventions disagree at p{algo}"
                )
    return failures


def check_edge_vertex_visibility(p: Polygon) -> list[str]:
    """Both directions of the incident-edge rule: seeing both edges at a
    vertex implies seeing the vertex; seeing a vertex implies seeing at
    least one of its edges.  With rot the edge row turned by one (bit j:
    sees edge j - 1), viewer i fails the first at the bits of
    ve & rot & ~row & ~(1 << i) and the second at row & ~(ve | rot)."""
    r, ve_rows, n = rows(visibility_graph(p)), ve_graph_geo(p).rows, p.n
    failures = []
    for i in range(n):
        row, ve = r[i], ve_rows[i]
        rot = (ve << 1 | ve >> n - 1) & (1 << n) - 1
        unseen = ve & rot & ~row & ~(1 << i)
        for j in bits_from(unseen | row & ~(ve | rot), 0):
            failures.append(
                f"vertex {i} sees edges {(j - 1) % n} and {j} but not vertex {j}"
                if unseen >> j & 1
                else f"vertex {i} sees vertex {j} but neither incident edge"
            )
    return failures


def check_gap_witness_cases(p: Polygon) -> list[str]:
    """Exactly-one-case rule across every unseen-edge gap.

    When a vertex k sees non-adjacent edges e_a and e_b with nothing
    between, exactly one holds:
      case A: k sees the far endpoint of e_a but not the near endpoint of
        e_b, that endpoint witnesses (k, e_b), sees e_b, and the near
        endpoint of e_b does not see e_a;
      case B: the mirror image.
    Case A needs k to see va and not b, case B the reverse, so at most one
    holds: the check reports each gap where neither does.
    """
    r, ve, exits, n = rows(visibility_graph(p)), ve_graph_geo(p), _exit_table(p), p.n

    def case(k, u, v, m, o):  # k sees u, not v; u witnesses and sees e_m; v misses e_o
        return (r[k] >> u & ~r[k] >> v & 1 and _is_witness(r, exits, k, u, m)
                and ve.rows[u] >> m & ~ve.rows[v] >> o & 1)

    failures = []
    for k in range(n):
        for a, b in seen_edge_gaps(ve, k):
            if (a - b) % n == 1:
                continue  # bounding edges share a vertex
            va = (a + 1) % n  # far endpoint of e_a; b is the near endpoint of e_b
            if not (case(k, va, b, b, a) or case(k, b, va, a, b)):
                failures.append(f"vertex {k}, gap between edges {a} and {b}: neither case holds")
    return failures


def _collinear_triple(pts: list[Point]) -> tuple[int, int, int] | None:
    """First index triple i < j < k of collinear points, if any: each test is
    orient(pts[i], pts[j], pts[k]) == 0, with dx, dy taken once per pair."""
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            for k in range(j + 1, n):
                xk, yk = pts[k]
                if dx * (yk - yi) == dy * (xk - xi):
                    return i, j, k
    return None


def _uncross_tour(pts: list[Point]) -> bool:
    """Repeatedly reverse tour sections to remove crossing edge pairs.

    Each swap strictly shortens the tour, so this terminates; the cap of
    50 n^2 swaps is a defensive bound only.  Returns False if it is hit.
    """
    for _ in range(50 * len(pts) ** 2 + 1):
        crossing = _crossing_edges(pts)
        if crossing is None:
            return True
        i, j = crossing
        pts[i + 1 : j + 1] = reversed(pts[i + 1 : j + 1])
    return False


def random_simple_polygon(n: int, seed: int) -> Polygon:
    """Deterministic random simple polygon in the grid [0, 4n]^2.

    Samples n distinct grid points (resampling until no three are
    collinear), walks them in random order and uncrosses the tour, then
    fixes the orientation.  After MAX_ATTEMPTS samples the same rng
    carries on in a grid of twice the extent, [0, 8n]^2, and so on for
    GRID_ROUNDS grids; GenerationBudgetExceeded when the last is spent.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"need 3 <= n <= {MAX_VERTICES}, got {n}")
    rng = random.Random(f"{n}:{seed}")
    width = 4 * n + 1
    for _ in range(GRID_ROUNDS):
        for _ in range(MAX_ATTEMPTS):
            cells = rng.sample(range(width * width), n)
            pts = [(c % width, c // width) for c in cells]
            if _collinear_triple(pts) is not None:
                continue
            rng.shuffle(pts)
            if not _uncross_tour(pts):
                continue
            if signed_area2(tuple(pts)) < 0:
                pts.reverse()
            return Polygon(tuple(pts))
        width = 2 * width - 1
    raise GenerationBudgetExceeded(
        f"no valid polygon for n={n} seed={seed} in {GRID_ROUNDS} grids"
        f" of {MAX_ATTEMPTS} attempts"
    )
