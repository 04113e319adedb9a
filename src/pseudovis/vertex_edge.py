"""Vertex-edge visibility implied by a blocker assignment, and the
characterization check for such relations.

An entry (i, t) -> b hides from viewer i exactly the boundary edges
between b and t on the walk that avoids i; a vertex sees every edge that
none of its entries hides.  Its two incident edges lie on no such walk,
so a vertex always sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockers import Assignment, candidate_table, first_seen
from .errors import InvalidAssignment, MalformedInput, VertexOutsideInterval
from .graph_core import (
    VisGraph,
    arc_mask,
    bits_from,
    check_indices,
    strictly_inside,
)


@dataclass(frozen=True)
class VEGraph:
    """Boolean vertex-sees-edge relation; bit m of rows[i] is set iff
    vertex i sees edge m."""

    n: int
    rows: tuple[int, ...]

    def sees(self, i: int, m: int) -> bool:
        return self.rows[i] >> m & 1 == 1


@dataclass(frozen=True)
class CharacterizationFailure:
    vertex: int
    edge_before: int
    edge_after: int


def build_ve(g: VisGraph, a: Assignment, check: bool = True) -> VEGraph:
    """Vertex-edge relation determined by (graph, assignment).

    Defined for any candidate-drawn assignment, partial or total: callers
    that need a verified one run recognizer.verify first.  Only an entry
    whose blocker is its own viewer or target raises InvalidAssignment.
    check is ignored.
    """
    n = g.n
    hidden = [0] * n  # bit m of hidden[i]: some entry of viewer i hides edge m
    for (i, t), b in a.items():
        if b == i or b == t:
            raise InvalidAssignment(f"p{b} cannot block ({i},{t}): it is an end")
        # edges lo..hi-1, with blocker and target taken counterclockwise from i
        lo, hi = (b, t) if strictly_inside(n, i, t, b) else (t, b)
        hidden[i] |= arc_mask(n, lo, (hi - 1) % n)
    full = (1 << n) - 1
    return VEGraph(n, tuple(full & ~h for h in hidden))


def is_articulation(g: VisGraph, start: int, end: int, v: int) -> bool:
    """True iff v is a candidate blocker for some invisible pair that
    straddles it within the walk from start to end (viewer before v,
    target after)."""
    check_indices(g.n, start, end, v)
    if not strictly_inside(g.n, start, end, v):
        raise VertexOutsideInterval(f"p{v} is not strictly inside the walk {start}..{end}")
    return _is_articulation(g.n, candidate_table(g).mask[v], start, end, v)


def _is_articulation(n: int, mask: int, start: int, end: int, v: int) -> bool:
    """is_articulation unchecked, with mask v's candidate_table mask: one
    AND of the straddling pairs' codes with mask.  viewers sets bit s * n
    for each s on the walk start .. v - 1: the walk's rows of the n-by-n
    code square, all ones, divided by one row of ones."""
    viewers = arc_mask(n * n, start * n, (v - 1) % n * n + n - 1) // ((1 << n) - 1)
    return mask & viewers * arc_mask(n, (v + 1) % n, end) != 0


def _check_row(n: int, k: int, row: int) -> None:
    """Refuse a vertex-edge row that sets a bit at or above n, no edge."""
    if row >> n:
        raise MalformedInput(f"vertex {k} sees an edge outside [0,{n})")


def seen_edge_gaps(ve: VEGraph, k: int) -> list[tuple[int, int]]:
    """Maximal runs of unseen edges in row k, each reported as the pair
    (seen edge before the run, seen edge after the run) in cyclic order:
    each seen edge a whose successor is unseen, and the next seen edge b
    after it, which is a itself only when a is the one seen edge."""
    check_indices(ve.n, k)
    _check_row(ve.n, k, ve.rows[k])
    return _seen_edge_gaps(ve.n, ve.rows[k])


def _seen_edge_gaps(n: int, row: int) -> list[tuple[int, int]]:
    """seen_edge_gaps' body, on the row itself and with nothing checked."""
    starts = bits_from(row & ~(row >> 1 | row << n - 1), 0)
    return [(a, b) for a in starts if (b := first_seen(n, row, a, 1)) != a]


def check_ve_characterization(
    ve: VEGraph, g: VisGraph, candidates: object = None
) -> list[CharacterizationFailure]:
    """Exactly-one-branch rule over every unseen-edge gap.

    For each vertex k and maximal gap between seen non-adjacent edges
    e_i (before) and e_j (after): exactly one of
      (1) vertex i+1 sees e_j and is an articulation vertex of the walk
          from k to j, or
      (2) vertex j sees e_i and is an articulation vertex of the walk
          from i+1 to k.
    Both or neither holding is a failure.  The rule is necessary but does
    not decide recognition: 21 of the chordless 5-cycle's 1,024 candidate
    assignments pass it, and each breaks an NC condition.  A row in which
    its vertex misses an incident edge, or a relation on another vertex
    count, or an edge at or above n, raises MalformedInput.  The relation
    is checked once, here, and no gap or articulation query checks it
    again.  candidates is unused: every reader takes the graph's own
    candidate_table.
    """
    n, ve_rows = g.n, ve.rows
    if ve.n != n or len(ve_rows) != n:
        raise MalformedInput(f"vertex-edge relation needs {n} vertices and rows,"
                             f" got {ve.n} and {len(ve_rows)}")
    for k, row in enumerate(ve_rows):
        _check_row(n, k, row)
        if missing := (1 << k | 1 << (k - 1) % n) & ~row:
            raise MalformedInput(f"vertex {k} misses incident edge {missing.bit_length() - 1}")
    mask, failures = candidate_table(g).mask, []
    for k in range(n):
        for i, j in _seen_edge_gaps(n, ve_rows[k]):
            if (i - j) % n == 1:
                continue  # bounding edges share a vertex
            v = (i + 1) % n  # k, v, j in walk order, as row k sees k's incident edges
            near = ve_rows[v] >> j & 1 and _is_articulation(n, mask[v], k, j, v)
            far = ve_rows[j] >> i & 1 and _is_articulation(n, mask[j], v, k, j)
            if near == far:
                failures.append(CharacterizationFailure(k, i, j))
    return failures
