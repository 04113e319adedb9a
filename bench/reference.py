"""Reference answers that do not depend on the code under test.

Candidate sets are restated from their definition with plain scans, and
the brute-force verdict enumerates every candidate assignment, using only
the condition checker (never the recognizer's search or propagation) to
prune partial assignments that already break a condition.
"""

from __future__ import annotations

from pseudovis import CandidateSet, VisGraph
from pseudovis.conditions import first_violation


def arc(n: int, a: int, b: int) -> list[int]:
    """Vertices of the inclusive counterclockwise walk from a to b."""
    return [(a + d) % n for d in range((b - a) % n + 1)]


def invisible(g: VisGraph) -> list[tuple[int, int]]:
    return [(i, j) for i in range(g.n) for j in range(g.n)
            if i != j and not g.visible(i, j)]


def candidates(g: VisGraph, pair: tuple[int, int]) -> CandidateSet:
    """Candidate blockers of an ordered invisible pair, by definition.

    On each side, walk from the target toward the viewer to the first
    vertex the viewer sees; it is a candidate unless a visible pair joins
    the arc before it to the arc beyond it.
    """
    i, j = pair
    n = g.n

    def first_seen(step: int) -> int:
        v = (j + step) % n
        while not g.visible(i, v):
            v = (v + step) % n
        return v

    def bridged(side_a: list[int], side_b: list[int]) -> bool:
        return any(g.visible(s, t) for s in side_a for t in side_b)

    k = first_seen(-1)
    cw = None if bridged(arc(n, i, k - 1), arc(n, k + 1, j)) else k
    k2 = first_seen(1)
    ccw = None if bridged(arc(n, j, k2 - 1), arc(n, k2 + 1, i)) else k2
    return CandidateSet(cw, ccw)


def brute_force_accepts(g: VisGraph) -> bool:
    """True iff some total candidate assignment satisfies NC1-NC5.

    Depth-first over the invisible pairs in lexicographic order; a partial
    assignment with a violation is cut, which is exact because the
    checker's violations persist under every extension.
    """
    pairs = invisible(g)
    cand = {p: candidates(g, p) for p in pairs}
    if any(c.is_empty for c in cand.values()):
        return False

    def extend(idx: int, a: dict) -> bool:
        if first_violation(g, a, cand) is not None:
            return False
        if idx == len(pairs):
            return True
        p = pairs[idx]
        return any(extend(idx + 1, {**a, p: v}) for v in cand[p].members())

    return extend(0, {})
