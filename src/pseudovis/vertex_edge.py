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
    target after): one AND of those pairs' codes with mask[v].  viewers
    sets bit s * n for each s on the walk start .. v - 1: the walk's rows
    of the n-by-n code square, all ones, divided by one row of ones."""
    n = g.n
    if not strictly_inside(n, start, end, v):
        raise VertexOutsideInterval(f"p{v} is not strictly inside the walk {start}..{end}")
    viewers = arc_mask(n * n, start * n, (v - 1) % n * n + n - 1) // ((1 << n) - 1)
    return candidate_table(g).mask[v] & viewers * arc_mask(n, (v + 1) % n, end) != 0


def seen_edge_gaps(ve: VEGraph, k: int) -> list[tuple[int, int]]:
    """Maximal runs of unseen edges in row k, each reported as the pair
    (seen edge before the run, seen edge after the run) in cyclic order:
    each seen edge a whose successor is unseen, and the next seen edge b
    after it, which is a itself only when a is the one seen edge."""
    n, row = ve.n, ve.rows[k]
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
    its vertex misses an incident edge raises MalformedInput.  candidates
    is unused: every reader takes the graph's own candidate_table.
    """
    n, ve_rows = g.n, ve.rows
    for k in range(n):
        if missing := (1 << k | 1 << (k - 1) % n) & ~ve_rows[k]:
            raise MalformedInput(f"vertex {k} misses incident edge {missing.bit_length() - 1}")
    failures = []
    for k in range(n):
        for i, j in seen_edge_gaps(ve, k):
            if (i - j) % n == 1:
                continue  # bounding edges share a vertex
            v = (i + 1) % n
            near = ve_rows[v] >> j & 1 and is_articulation(g, k, j, v)
            far = ve_rows[j] >> i & 1 and is_articulation(g, v, k, j)
            if near == far:
                failures.append(CharacterizationFailure(k, i, j))
    return failures
