"""Candidate-blocker computation and the blocker-assignment data model.

For an invisible ordered pair (i, j) the candidate blockers are found by
walking from j toward i along each side of the cycle and taking the first
vertex that i sees, provided no visible pair bridges the two arcs the
candidate separates.  There is at most one candidate per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph_core import (
    Pair,
    VisGraph,
    arc_mask,
    bits_from,
    derived_table,
    rows,
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


def entry_arcs(n: int, pair: Pair, k: int) -> tuple[int, int, int, int]:
    """The two arcs of an entry (pair -> k): k splits the walk between
    viewer and target that holds it into the near arc, from the viewer to
    the blocker, and the far arc, from the blocker to the target.  Each
    excludes k and is returned as the first vertex of its
    counterclockwise walk and its arc_mask: (near0, near, far0, far).

    Precondition, not checked: k is neither viewer nor target.  A
    candidate of the pair never is, and the other callers skip both
    endpoints before calling.
    """
    i, j = pair
    if (k - i) % n < (j - i) % n:  # strictly_inside(n, i, j, k), as k != i
        return i, arc_mask(n, i, (k - 1) % n), (k + 1) % n, arc_mask(n, (k + 1) % n, j)
    return (k + 1) % n, arc_mask(n, (k + 1) % n, i), j, arc_mask(n, j, (k - 1) % n)


def first_seen(n: int, row: int, target: int, step: int) -> int:
    """First vertex the viewer with rows(g) mask row sees walking from the
    target, one step of -1 (clockwise) or +1 (counterclockwise) at a time:
    the highest set bit below the target or the lowest above it, wrapping
    around.  The viewer sees both its neighbours; a row with no bit but the
    target's gives the target."""
    if step < 0:
        return (row & (1 << target) - 1 or row).bit_length() - 1
    above = row & -(2 << target) or row
    return (above & -above).bit_length() - 1


class CandidateTable:
    """Candidates by entry code c = v * n + t, conditions.EntryIndex's codes:
    bit c of inv is set iff (v, t) is an invisible pair, bit c of mask[k]
    iff k is one of its candidates, of cw_mask[k] iff k is its cw one, and
    of empty iff it has none."""

    __slots__ = ("n", "inv", "mask", "cw_mask", "empty")

    def __init__(self, n: int, inv: int, mask: list, cw_mask: list, empty: int) -> None:
        self.n, self.inv, self.mask, self.cw_mask, self.empty = n, inv, mask, cw_mask, empty

    def code(self, pair: object) -> int | None:
        """pair's code if it is an ordered invisible pair, else None, as for
        anything but a 2-tuple.  Its ends are type- and range-checked, so no
        other pair aliases a code: a float or bool end is no vertex."""
        if type(pair) is not tuple or len(pair) != 2:
            return None
        i, j = pair
        n = self.n
        if type(i) is type(j) is int and 0 <= i < n and 0 <= j < n and self.inv >> i * n + j & 1:
            return i * n + j
        return None

    def admits(self, c: int, k: int) -> bool:
        return type(k) is int and 0 <= k < self.n and self.mask[k] >> c & 1 == 1

    def candidates(self, row: int, c: int) -> CandidateSet:
        """c's candidate set: the first vertex its viewer, whose rows(g) mask
        is row, sees each way from the target, if mask admits it."""
        ends = first_seen(self.n, row, c % self.n, -1), first_seen(self.n, row, c % self.n, 1)
        return CandidateSet(*(k if self.mask[k] >> c & 1 else None for k in ends))


def pair_text(pair: object) -> str:
    """A pair as messages print it: (i,j) for a 2-tuple, else its repr, as
    "ab" unpacks too but would print as (a,b)."""
    return "({},{})".format(*pair) if type(pair) is tuple and len(pair) == 2 else repr(pair)


def candidate_sweep(g: VisGraph) -> Iterator[CandidateTable]:
    """candidate_table's sweep: the table so far after each viewer with a
    pair that has no candidate, and the complete table after the last, so
    a reader that wants no table with an empty pair may stop at the first.

    One sweep per viewer i over its hidden runs, peeled off its hidden
    mask turned so that bit p is vertex i + 1 + p (i is never hidden, so
    no run wraps).  A run between seen vertices u and v has cw candidate
    u and ccw candidate v unless a visible pair joins the entry's near
    arc, i .. u - 1 or v + 1 .. i (exactly entry_arcs' near arcs), to its
    far arc, which grows by one target at a time: one pass from each end
    ORs up the far arc's neighbours and decides the whole run; the
    targets no pass reaches have no candidate.
    """
    n, r = g.n, rows(g)
    cw_mask, ccw_mask = [0] * n, [0] * n
    inv, empty, full = 0, 0, (1 << n) - 1
    for i in range(n):
        base, hid = i * n, full & ~r[i] & ~(1 << i)
        inv |= hid << base
        rot = (hid >> i + 1 | hid << n - i - 1) & full
        covered = 0  # the targets with a candidate
        while rot:
            low = rot & -rot
            run = rot & ~(rot + low)
            rot ^= run
            lo, hi = low.bit_length() + i, run.bit_length() + i  # the run's ends, unreduced
            u, v = (lo - 1) % n, (hi + 1) % n
            for k, masks, walk, near in (
                (u, cw_mask, range(lo, hi + 1), arc_mask(n, i, (u - 1) % n)),
                (v, ccw_mask, range(hi, lo - 1, -1), arc_mask(n, (v + 1) % n, i)),
            ):
                far_sees = got = 0
                for j in walk:
                    j %= n
                    far_sees |= r[j]
                    if far_sees & near:
                        break
                    got |= 1 << j
                masks[k] |= got << base
                covered |= got
        if hid & ~covered or i == n - 1:
            empty |= (hid & ~covered) << base
            mask = [x | y for x, y in zip(cw_mask, ccw_mask)]
            yield CandidateTable(n, inv, mask, cw_mask, empty)


@derived_table
def candidate_table(g: VisGraph) -> CandidateTable:
    """The graph's candidate table, compiled over entry codes: the sweep
    run to its end, so a cached table is always complete."""
    *_, t = candidate_sweep(g)
    return t


def all_candidates(g: VisGraph) -> dict[Pair, CandidateSet]:
    """candidate_table decoded: the candidate set of every ordered
    invisible pair, keyed in lexicographic order.  A fresh dict per call."""
    t, r = candidate_table(g), rows(g)
    return {divmod(c, g.n): t.candidates(r[c // g.n], c) for c in bits_from(t.inv, 0)}
