"""Candidate-blocker computation and the blocker-assignment data model.

For an invisible ordered pair (i, j) the candidate blockers are found by
walking from j toward i along each side of the cycle and taking the first
vertex that i sees, provided no visible pair bridges the two arcs the
candidate separates.  There is at most one candidate per side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import NotACandidate, NotInvisible
from .graph_core import (
    Pair,
    VisGraph,
    arc_mask,
    derived_table,
    interval_vertices,
    invisible_pairs,
    json_field,
    rows,
    strictly_inside,
)

Assignment = dict[Pair, int]


@dataclass(frozen=True)
class CandidateSet:
    """The at-most-two admissible blockers of an ordered invisible pair.

    ``cw`` lies on the walk from viewer to target (found walking clockwise
    from the target); ``ccw`` lies on the opposite arc.
    """

    cw: int | None
    ccw: int | None

    def members(self) -> tuple[int, ...]:
        return tuple(v for v in (self.cw, self.ccw) if v is not None)

    def contains(self, v: int) -> bool:
        return v == self.cw or v == self.ccw

    @property
    def is_empty(self) -> bool:
        return self.cw is None and self.ccw is None


def _arc_pair_visible(g: VisGraph, a0: int, a1: int, b0: int, b1: int) -> bool:
    """True if any vertex of the walk a0..a1 sees any vertex of the walk
    b0..b1."""
    r, far = rows(g), arc_mask(g.n, b0, b1)
    return any(r[s] & far for s in interval_vertices(g.n, a0, a1))


def first_seen(g: VisGraph, viewer: int, target: int, step: int) -> int:
    """First vertex the viewer sees walking from the target, one step of
    -1 (clockwise) or +1 (counterclockwise) at a time.  The viewer sees
    both its neighbours, so the walk always ends."""
    row = rows(g)[viewer]
    k = (target + step) % g.n
    while not row >> k & 1:
        k = (k + step) % g.n
    return k


def candidate_blockers(g: VisGraph, pair: Pair) -> CandidateSet:
    """Compute the candidate set of an ordered invisible pair.

    Clockwise side: walk j-1, j-2, ... until the first vertex k that i
    sees; k qualifies unless some visible pair joins the walk-from-i arc
    before k to the arc from k+1 through j.  The counterclockwise side is
    symmetric.
    """
    i, j = pair
    n = g.n
    if i == j or g.visible(i, j):
        raise NotInvisible(f"({i},{j}) is not an invisible pair")

    k = first_seen(g, i, j, -1)
    cw: int | None = k
    if _arc_pair_visible(g, i, (k - 1) % n, (k + 1) % n, j):
        cw = None

    k2 = first_seen(g, i, j, 1)
    ccw: int | None = k2
    if _arc_pair_visible(g, j, (k2 - 1) % n, (k2 + 1) % n, i):
        ccw = None

    return CandidateSet(cw, ccw)


@derived_table
def all_candidates(g: VisGraph) -> dict[Pair, CandidateSet]:
    """Candidate table over every ordered invisible pair, keyed in
    lexicographic order.

    The dict is the graph's shared table: callers must not mutate it.
    Pairs whose candidate set is empty are representable here and make
    recognition fail immediately downstream, since assignments may only
    draw from candidate sets.
    """
    return {p: candidate_blockers(g, p) for p in invisible_pairs(g)}


def blocker_side(n: int, pair: Pair, k: int) -> str:
    """'cw' if k lies strictly between viewer and target counterclockwise,
    'ccw' if strictly on the opposite arc."""
    i, j = pair
    if strictly_inside(n, i, j, k):
        return "cw"
    if strictly_inside(n, j, i, k):
        return "ccw"
    raise NotACandidate(f"p{k} coincides with an endpoint of ({i},{j})")


def near_side_vertices(n: int, pair: Pair, k: int) -> list[int]:
    """Vertices on the arc between viewer and blocker that avoids the
    target, excluding the blocker (the viewer is included)."""
    i, j = pair
    if blocker_side(n, pair, k) == "cw":
        return interval_vertices(n, i, (k - 1) % n)
    return interval_vertices(n, (k + 1) % n, i)


def far_side_vertices(n: int, pair: Pair, k: int) -> list[int]:
    """Vertices on the arc between blocker and target that avoids the
    viewer, excluding the blocker (the target is included)."""
    i, j = pair
    if blocker_side(n, pair, k) == "cw":
        return interval_vertices(n, (k + 1) % n, j)
    return interval_vertices(n, j, (k - 1) % n)


def blocking_far_arc(n: int, pair: Pair, k: int) -> int:
    """Bitmask of the arc between blocker and target that avoids the
    viewer, including both arc endpoints."""
    i, j = pair
    if blocker_side(n, pair, k) == "cw":
        return arc_mask(n, k, j)
    return arc_mask(n, j, k)


def assignment_to_dict(a: Assignment) -> dict:
    rows = [{"from": i, "to": j, "blocker": b} for (i, j), b in sorted(a.items())]
    return {"blockers": rows}


def assignment_to_json(a: Assignment) -> str:
    return json.dumps(assignment_to_dict(a), sort_keys=True, indent=2) + "\n"


def assignment_from_json(text: str) -> Assignment:
    out: Assignment = {}
    for row in json_field(json.loads(text), "blockers", list):
        i, j, k = (json_field(row, key, int) for key in ("from", "to", "blocker"))
        out[(i, j)] = k
    return out
