"""Checkers for the five necessary conditions on a blocker assignment.

A (possibly partial) assignment maps ordered invisible pairs to blockers
drawn from their candidate sets.  Conditions NC1-NC3 have implicational
form ("this entry forces that entry"); NC4 forbids one blocker from
serving both halves of a separable invisible pair; NC5 forbids a
quadruple from being pinched both ways.

Checks are monotone: a violation only ever cites assigned entries, so it
persists under any extension of the assignment.  Requirements whose
target pair is still unassigned are suspended, not violated (the
recognizer applies them as forced assignments instead).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .blockers import Assignment, candidate_table, entry_arcs
from .errors import NotACandidate, UnknownPair
from .graph_core import (
    Pair,
    VisGraph,
    arc_mask,
    bits_from,
    derived_table,
    rows,
)


@dataclass(frozen=True)
class Violation:
    condition: str
    pairs: tuple[Pair, ...]
    vertices: tuple[int, ...]
    narrative: str


@dataclass(frozen=True)
class SeparablePair:
    blocker: int
    pair_a: Pair
    pair_b: Pair


class _Requirement(NamedTuple):
    """pair must be assigned value, implied by trigger (+ via entries)."""

    pair: Pair
    value: int
    condition: str
    trigger: Pair
    blocker: int
    via: tuple[Pair, ...] = ()


def _mismatch(req: _Requirement, actual: int | None) -> Violation:
    """req broken by the value actual found on its pair, or, with actual
    None, by a required value that is not a candidate there."""
    i, j = req.trigger
    x, y = req.pair
    found = "which is not a candidate there" if actual is None else f"found p{actual}"
    return Violation(
        condition=req.condition,
        pairs=(req.trigger,) + req.via + (req.pair,),
        vertices=(req.blocker, req.value) + (() if actual is None else (actual,)),
        narrative=(
            f"{req.condition}: p{req.blocker} on ({i},{j}) requires "
            f"p{req.value} on ({x},{y}), {found}"
        ),
    )


def _must_be_invisible(
    condition: str, trigger: Pair, blocker: int, other: Pair, bad: Pair
) -> Violation:
    i, j = trigger
    x, y = bad
    return Violation(
        condition=condition,
        pairs=(trigger, other),
        vertices=(blocker,),
        narrative=(
            f"{condition}: p{blocker} on ({i},{j}) forces ({x},{y}) "
            f"invisible, but {{{x},{y}}} is a visible pair"
        ),
    )


class EntryIndex:
    """The search state over a graph: an assignment a from entry codes
    v * n + t to blockers, kept in the order its entries were pushed (so
    a is also the trail), and bitmask tables over it, kept in step by
    assign and undo:

    - by_viewer[v][b]: bit t is set iff (v, t) -> b;
    - by_target[t][b]: bit v is set iff (v, t) -> b;
    - viewers[t]: bit v is set iff (v, t) has an entry;
    - by_blocker[b]: bit v * n + t is set iff (v, t) -> b, so ascending
      bits are the entries in lexicographic order;
    - assigned: bit v * n + t is set iff (v, t) has an entry.

    rows, mask, cw_mask and partners are the graph's rows(g),
    candidate_table(g).mask and .cw_mask and nc4_partners(g), read once
    here; column has bit v * n set for every vertex v.
    """

    __slots__ = ("n", "rows", "mask", "cw_mask", "partners", "column", "a",
                 "by_viewer", "by_target", "viewers", "by_blocker", "assigned")

    def __init__(self, g: VisGraph) -> None:
        n, t = g.n, candidate_table(g)
        self.n, self.rows, self.mask, self.cw_mask = n, rows(g), t.mask, t.cw_mask
        self.partners = nc4_partners(g)
        self.column = sum(1 << v * n for v in range(n))
        self.a: dict[int, int] = {}
        self.by_viewer = [[0] * n for _ in range(n)]
        self.by_target = [[0] * n for _ in range(n)]
        self.viewers = [0] * n
        self.by_blocker = [0] * n
        self.assigned = 0

    def assign(self, c: int, b: int) -> int:
        """Push the entry c -> b, code c unassigned, and return the codes
        of its readers, the only entries whose requirements read it: for
        c = v * n + t, NC2 of (i, j) -> t with v on its near arc (i on the
        walk t + 1 .. v if t is i's cw candidate, else on v .. t - 1), NC3
        case 2 of (i, v) -> t and the NC3 reverse scan of (b, .) -> v."""
        n = self.n
        v, t = divmod(c, n)
        self.a[c] = b
        self.by_viewer[v][b] |= 1 << t
        self.by_target[t][b] |= 1 << v
        self.viewers[t] |= 1 << v
        bit = 1 << c
        self.by_blocker[b] |= bit
        self.assigned |= bit
        readers, mine = self.by_viewer[b][v] << b * n, self.by_blocker[t]
        if mine:  # the codes of the viewers on the walks t + 1 .. v and v .. t - 1
            nn, cw = n * n, self.cw_mask[t]
            after = arc_mask(nn, (t + 1) % n * n, v * n + n - 1)
            before = arc_mask(nn, v * n, (t - 1) % n * n + n - 1)
            readers |= mine & (cw & after | ~cw & before | self.column << v)
        return readers

    def undo(self, mark: int) -> None:
        """Unassign every entry pushed since a had mark entries."""
        a = self.a
        while len(a) > mark:
            c, b = a.popitem()
            v, t = divmod(c, self.n)
            self.by_viewer[v][b] &= ~(1 << t)
            self.by_target[t][b] &= ~(1 << v)
            self.viewers[t] &= ~(1 << v)
            bit = 1 << c  # set in both masks, as a[c] was b
            self.by_blocker[b] ^= bit
            self.assigned ^= bit


def entry_requirements(
    idx: EntryIndex, c: int, k: int
) -> Iterator[_Requirement | Violation]:
    """Everything a single entry (c -> k) implies under NC1-NC3.

    Yields _Requirement records for forced assignments that are still
    open (the code of req.pair does not map to req.value in idx.a at the
    yield; a met one stays met under any extension, so nothing is lost)
    and ready-made Violation records for requirements that the graph
    itself already breaks (a pair that must be invisible is visible).
    Pairs appear only in these records.

    Each scan takes its open targets from idx with a few mask operations,
    skips bits_from on an empty mask (most are), and yields them in
    counterclockwise order from the start of its arc; the reverse scan
    yields in ascending order.  A caller may assign each yielded
    requirement before resuming: that changes only the bit of the pair
    just yielded.
    """
    n, r, a = idx.n, idx.rows, idx.a
    i, j = pair = divmod(c, n)
    by_viewer, by_target = idx.by_viewer, idx.by_target
    near0, near, far0, far = entry_arcs(n, pair, k)

    # NC1 part (1): the blocker of (i,j) blocks i from the whole far arc.
    todo = far & ~by_viewer[i][k]
    for t in bits_from(todo, far0) if todo else ():
        yield _Requirement((i, t), k, "NC1a", pair, k)

    # NC2: vertices between viewer and blocker are blocked from the target
    # either by the blocker itself (if they see it) or by whatever blocks
    # them from the blocker.
    sees_k = r[k]
    todo = near & (sees_k & ~by_target[j][k] | ~sees_k & idx.viewers[k])
    for s in bits_from(todo, near0) if todo else ():
        if sees_k >> s & 1:
            yield _Requirement((s, j), k, "NC2", pair, k)
        else:
            t = a[s * n + k]
            if not by_target[j][t] >> s & 1:
                yield _Requirement((s, j), t, "NC2", pair, k, via=((s, k),))

    # NC3: constraints on the reverse direction, viewed from the target:
    # the value forced is k if j sees k (case 1), else the blocker of (j, k).
    # Case 2 also reaches k itself, but (j, k) -> value is then met.
    if sees_k >> j & 1:
        cond, value, via = "NC3case1", k, ()
    else:
        value = a.get(j * n + k)
        if value is None:
            return
        cond, via = "NC3case2", ((j, k),)
        if r[i] >> value & 1:
            yield _must_be_invisible(cond, pair, k, (j, k), (i, value))
        elif not by_viewer[i][k] >> value & 1:
            yield _Requirement((i, value), k, cond, pair, k, via=via)
    todo = near & ~by_viewer[j][value]
    for s in bits_from(todo, near0) if todo else ():
        yield _Requirement((j, s), value, cond, pair, k, via=via)
    todo = by_viewer[k][i] & ~(1 << j)
    for t in bits_from(todo, 0) if todo else ():
        if r[j] >> t & 1:
            yield _must_be_invisible(cond, pair, k, (k, t), (j, t))
        elif not by_viewer[j][value] >> t & 1:
            yield _Requirement((j, t), value, cond, pair, k, via=via + ((k, t),))


@derived_table
def nc4_partners(g: VisGraph) -> dict[int, tuple[int, int]]:
    """NC4's separable pairs as masks over entry codes, in closed form.

    The entry c -> k with a partner has the key k * n * n + c, keys
    ascending.  Its ahead holds the c2 of the separable pairs (c, c2) of
    k, those k is a candidate of with both ends on c's far arc A, that is
    mask[k] & A * spread(A) (spread(A) sets bit x * n for each x in A, and
    A < 2**n: no carries); its behind holds the codes whose ahead holds c.
    Far arcs at k run from k + 1 (k a cw candidate) or to k - 1 (a ccw
    one), so every mask is a walk grown from k: c lies on the far arc of
    a cw-candidate pair of k iff that pair lies on the walk from c's end
    before k to k - 1, and of a ccw-candidate one iff it lies on the walk
    from k + 1 to c's end after k.
    """
    n, t = g.n, candidate_table(g)
    nn, cycle = n * n, list(range(n)) * 2
    partners = {}
    for k, mk in enumerate(t.mask):
        if mk & (mk - 1) == 0:
            continue  # fewer than two candidate entries: no separable pair
        # after[x], before[x]: mk's codes on the walk k + 1 .. x, x .. k - 1
        after, before = [0] * n, [0] * n
        for grown, walk in ((after, cycle[k + 1:k + n]), (before, cycle[k + n - 1:k:-1])):
            arc = spread = 0
            for x in walk:
                arc |= 1 << x
                spread |= 1 << x * n
                grown[x] = arc * spread & mk
        cws = t.cw_mask[k]
        ccws = mk & ~cws
        for c in bits_from(mk, 0):
            i, j = divmod(c, n)
            if cws >> c & 1:  # i before k, j after it
                ahead, behind = after[j], cws & before[i] | ccws & after[j]
            else:  # j before k, i after it
                ahead, behind = before[j], cws & before[j] | ccws & after[i]
            if ahead or behind:
                partners[k * nn + c] = ahead, behind
    return partners


@derived_table
def separable_pairs(g: VisGraph) -> list[SeparablePair]:
    """nc4_partners decoded: every separable pair of invisible pairs, a
    shared candidate blocker with one pair entirely on the arc beyond it,
    by (blocker, pair_a, pair_b).  The graph's shared list: do not mutate."""
    n = g.n
    return [
        SeparablePair(key // (n * n), divmod(key % (n * n), n), divmod(c2, n))
        for key, (ahead, _) in nc4_partners(g).items()
        for c2 in bits_from(ahead, 0)
    ]


def _cap_spans_exactly(
    idx: EntryIndex,
    viewer: int,
    blocker: int,
    lo: int,
    hi: int,
    excluded: tuple[int, int],
) -> bool:
    """True iff the blocker's shadow for this viewer provably pins its
    boundary within the stretch, the walk from lo to hi.

    Every stretch vertex must be visible from the viewer or assigned this
    blocker, and neither excluded vertex may be hidden behind it.  Facts
    that depend on a still-unassigned pair leave the span undetermined,
    which reports False (monotone: once determined, it stays determined).
    """
    seen, shadow = idx.rows[viewer], idx.by_viewer[viewer][blocker]
    if arc_mask(idx.n, lo, hi) & ~(seen | shadow):
        return False
    for x in excluded:
        if not (seen >> x & 1 or idx.viewers[x] >> viewer & 1 and not shadow >> x & 1):
            return False
    return True


def _pinch_certified(idx: EntryIndex, i: int, j: int, s: int, t: int, m: int) -> bool:
    """The pinch of j and s toward m by i and t, (j, m) -> i beside
    (s, m) -> t, certifies a genuine crossing of the two sightlines.

    A pinch only witnesses a crossing when each blocking ray's shadow is
    pinned between the quadruple vertex beside it and the shared target;
    a shadow swallowing the opposite sightline (nested pockets) blocks
    without crossing, which real polygons can realize.
    """
    n = idx.n
    return (
        _cap_spans_exactly(idx, j, i, (t + 1) % n, m, (s, t))
        and _cap_spans_exactly(idx, s, t, m, (i - 1) % n, (i, j))
    )


def _violations_iter(g: VisGraph, a: Assignment) -> Iterator[Violation]:
    t, idx = candidate_table(g), EntryIndex(g)
    for pair, k in a.items():
        c = t.code(pair)
        if c is None:
            raise UnknownPair(f"{pair} is not an invisible pair")
        if not t.admits(c, k):
            raise NotACandidate(f"p{k} is not a candidate for {pair}")
        idx.assign(c, k)

    for c, k in sorted(idx.a.items()):
        for req in entry_requirements(idx, c, k):
            if isinstance(req, Violation):
                yield req
                continue
            actual = a.get(req.pair)
            if actual is not None:
                yield _mismatch(req, actual)
    yield from residual_violations(idx, 0)
    yield from _nc5_violations(idx)


def _nc1b(i: int, j: int, k: int) -> Violation:
    return Violation(
        "NC1b",
        ((i, j), (k, j)),
        (k, i),
        f"NC1b: p{k} blocks ({i},{j}) while p{i} blocks ({k},{j})",
    )


def _nc4(b: int, pair_a: Pair, pair_b: Pair) -> Violation:
    lo, hi = sorted((pair_a, pair_b))
    return Violation(
        "NC4",
        (lo, hi),
        (b,),
        f"NC4: p{b} assigned to both separable pairs "
        f"({lo[0]},{lo[1]}) and ({hi[0]},{hi[1]})",
    )


def residual_violations(idx: EntryIndex, mark: int) -> Iterator[Violation]:
    """The NC1b and NC4 violations of idx's assignment of invisible pairs
    that involve a fresh entry, one pushed since idx.a had mark entries:
    the checks that are not a requirement of a single entry, so forcing
    never reports them, and that can fail before the assignment is total.

    With mark 0 this is all of them, in the order of the entries (NC1b)
    and of the separable table (NC4).  Where the other entries have no
    NC1b or NC4 violation among them, the violations are the same as with
    every entry fresh.  NC5 is not checked here: the
    checker appends it, and the search checks it at total assignments.
    """
    a, n, by_blocker = idx.a, idx.n, idx.by_blocker
    partners, nn = idx.partners, n * n
    # NC1 part (2): the roles of viewer and blocker cannot swap.  Both
    # entries of a swap report it.  The same pass collects NC4's pairs
    # (b, c, c2) of blocker b with c or c2 fresh; codes ascend as pairs
    # do, so sorted they are in the order of separable_pairs.
    swapped = set()
    shared = set()
    for c, k in islice(reversed(a.items()), len(a) - mark):
        ahead_behind = partners.get(k * nn + c)
        if ahead_behind and (ahead_behind[0] | ahead_behind[1]) & by_blocker[k]:
            ahead, behind = ahead_behind
            mine = by_blocker[k]
            shared.update((k, c, c2) for c2 in bits_from(ahead & mine, 0))
            shared.update((k, c1, c) for c1 in bits_from(behind & mine, 0))
        x, y = divmod(c, n)
        if a.get(k * n + y) == x:
            swapped.update((c, k * n + y))
    for c in sorted(swapped):
        yield _nc1b(*divmod(c, n), a[c])
    for b, c, c2 in sorted(shared):
        yield _nc4(b, divmod(c, n), divmod(c2, n))


def _nc5_violations(idx: EntryIndex) -> Iterator[Violation]:
    """The NC5 violations of idx's assignment: quadruples (i,j,s,t) in
    counterclockwise order whose outer vertices i and t block j and s
    from a shared target m on the walk from t to i, (j, m) -> i beside
    (s, m) -> t, and block them the other way from some m2, (i, m2) -> j
    beside (t, m2) -> s.

    The scan covers mutual entries only: it skips each entry (v, x) -> b
    with no entry (b, .) -> v, which is by_viewer[b][v] empty.  The m2 of
    a quadruple are read from idx.  A double pinch is certified as two
    pinches, each by mask tests on idx: the one toward m once per
    quadruple, then the one toward m2, which is the pinch of
    (s, t, i, j), for each m2."""
    n, by_viewer = idx.n, idx.by_viewer
    by_target: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for c, b in idx.a.items():
        v, m = divmod(c, n)
        if by_viewer[b][v]:
            by_target[m].append((v, b))
    quads = []
    for m, entries in by_target.items():
        for j, i in entries:
            dj = (j - i) % n
            for s, t in entries:
                # ccw distances from i; 0 < dj < ds < dt makes all four
                # distinct, and each (viewer, m) entry is unique, so each
                # quadruple arises once.
                ds, dt = (s - i) % n, (t - i) % n
                if 0 < dj < ds < dt and (m - t) % n <= n - dt:
                    quads.append((i, j, s, t, m))
    quads.sort()
    for i, j, s, t, m in quads:
        both = by_viewer[i][j] & by_viewer[t][s] & arc_mask(n, j, s)
        if not both or not _pinch_certified(idx, i, j, s, t, m):
            continue
        for m2 in bits_from(both, j):
            if _pinch_certified(idx, s, t, i, j, m2):
                yield Violation(
                    "NC5",
                    tuple(sorted(((j, m), (s, m), (i, m2), (t, m2)))),
                    tuple(sorted((i, j, s, t))),
                    f"NC5: quadruple ({i},{j},{s},{t}) is pinched "
                    f"both ways, via p{m} and p{m2}",
                )


def check_conditions(g: VisGraph, a: Assignment) -> list[Violation]:
    """All NC1-NC5 violations present in a (possibly partial) assignment.

    Empty result means the assignment is consistent so far.  Entries not
    drawn from the candidate table raise, they are never reported as
    violations.
    """
    seen = set()
    out = []
    for v in _violations_iter(g, a):
        key = (v.condition, v.pairs, v.vertices)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return sorted(out, key=lambda v: (v.condition, v.pairs, v.vertices))


def first_violation(
    g: VisGraph, a: Assignment, candidates: object = None
) -> Violation | None:
    """Cheapest witness that the assignment is inconsistent, if any.
    candidates is unused: entries are checked against candidate_table(g)
    alone, so one drawn from anywhere else raises NotACandidate."""
    return next(_violations_iter(g, a), None)
