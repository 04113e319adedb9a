"""Candidate-blocker computation and the blocker-assignment data model.

For an invisible ordered pair (i, j) the candidate blockers are found by
walking from j toward i along each side of the cycle and taking the first
vertex that i sees, provided no visible pair bridges the two arcs the
candidate separates.  There is at most one candidate per side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MalformedInput, NotInvisible
from .graph_core import (
    Pair,
    VisGraph,
    arc_mask,
    canonical_json,
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


def entry_arcs(n: int, pair: Pair, k: int) -> tuple[Pair, Pair]:
    """The two arcs of an entry (pair -> k): k splits the walk between
    viewer and target that holds it into the near arc, from the viewer to
    the blocker, and the far arc, from the blocker to the target.  Each
    is returned as the endpoints of an inclusive counterclockwise walk
    and excludes k.

    Precondition, not checked: k is neither viewer nor target.  A
    candidate of the pair never is, and the other callers skip both
    endpoints before calling.
    """
    i, j = pair
    if strictly_inside(n, i, j, k):
        return (i, (k - 1) % n), ((k + 1) % n, j)
    return ((k + 1) % n, i), (j, (k - 1) % n)


def _arc_pair_visible(g: VisGraph, a: Pair, b: Pair) -> bool:
    """True if any vertex of the walk a[0]..a[1] sees any vertex of the
    walk b[0]..b[1].  It scans b, on the whole the shorter (far) arc, in
    a plain loop, which is faster here than any() over a generator."""
    r, mask = rows(g), arc_mask(g.n, *a)
    for s in interval_vertices(g.n, *b):
        if r[s] & mask:
            return True
    return False


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
    sees; k qualifies unless some visible pair joins the near and far
    arcs of the entry pair -> k (entry_arcs).  The counterclockwise side
    is symmetric.
    """
    i, j = pair
    if i == j or g.visible(i, j):
        raise NotInvisible(f"({i},{j}) is not an invisible pair")
    cw, ccw = [
        None if _arc_pair_visible(g, *entry_arcs(g.n, pair, k)) else k
        for k in (first_seen(g, i, j, -1), first_seen(g, i, j, 1))
    ]
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


def assignment_to_dict(a: Assignment) -> dict:
    rows = [{"from": i, "to": j, "blocker": b} for (i, j), b in sorted(a.items())]
    return {"blockers": rows}


def assignment_to_json(a: Assignment) -> str:
    return canonical_json(assignment_to_dict(a))


def assignment_from_json(text: str) -> Assignment:
    out: Assignment = {}
    for row in json_field(json.loads(text), "blockers", list):
        i, j, k = (json_field(row, key, int) for key in ("from", "to", "blocker"))
        if (i, j) in out:
            raise MalformedInput(f"pair ({i},{j}) is listed more than once")
        out[(i, j)] = k
    return out
