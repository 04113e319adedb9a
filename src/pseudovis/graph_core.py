"""Core data model: cyclically indexed graphs with a labeled boundary cycle.

Vertices are 0..n-1 in counterclockwise order around the boundary cycle;
all index arithmetic is modulo n.  "Clockwise" means decreasing index,
"counterclockwise" means increasing index.  Boundary edge e_m joins
vertices m and m+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Iterable

from .errors import IndexOutOfRange, MalformedInput, MissingCycleEdge, SelfLoop

Pair = tuple[int, int]

MAX_VERTICES = 1024  # largest n accepted: candidate_table's n * n lists hold ~2 M slots


def derived_table(build: Callable) -> Callable:
    """Memoize a one-argument table builder in its argument's ``tables``
    field, so each table lives exactly as long as the graph or polygon it
    is derived from.  The key is the decorated function (pickle finds it)."""

    @wraps(build)
    def table(source):
        result = source.tables.get(table)
        if result is None:
            result = source.tables[table] = build(source)
        return result

    return table


def strictly_inside(n: int, a: int, b: int, x: int) -> bool:
    """True iff x lies on the walk from a to b excluding both endpoints."""
    return 0 < (x - a) % n < (b - a) % n


def arc_mask(n: int, a: int, b: int) -> int:
    """Bit v is set iff v lies on the inclusive counterclockwise walk from
    a to b; the walk from a to itself is just a.  Read as edges, bits
    a..b are the edges of the walk from a to b + 1."""
    if a <= b:
        return (1 << (b + 1)) - (1 << a)
    return ((1 << n) - (1 << a)) | ((1 << (b + 1)) - 1)


def bits_from(mask: int, start: int) -> list[int]:
    """The set bits of mask from bit start upward, then from bit 0 up to
    start: for an arc_mask, its vertices in counterclockwise order from
    start."""
    if not mask:
        return []
    out = []
    high = mask >> start << start
    for m in (high, mask ^ high):
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
    return out


@dataclass(frozen=True)
class VisGraph:
    """Graph on cycle-labeled vertices with a symmetric visibility relation.

    ``edges`` holds normalized (i < j) visible pairs and always contains
    every cycle edge.  Instances are immutable and hashable; ``tables``
    holds the tables derived from the graph (see ``derived_table``).
    """

    n: int
    edges: frozenset[Pair]
    tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def visible(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return ((i, j) if i < j else (j, i)) in self.edges


def validate_graph(n: int, pairs: Iterable[Iterable[int]]) -> VisGraph:
    """Build a VisGraph from an unordered pair list, enforcing the invariants.

    The relation is the symmetric closure of the input; duplicates are
    ignored.  Every cycle edge {i, i+1 mod n} must be listed explicitly.
    n and the indices must be ints, not values that only compare equal.
    """
    if type(n) is not int:
        raise MalformedInput(f"vertex count must be an integer, got {n!r:.60}")
    if not 3 <= n <= MAX_VERTICES:
        raise IndexOutOfRange(f"vertex count must be in [3, {MAX_VERTICES}], got {n}")
    edges = set()
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            i = j = None
        if type(i) is not int or type(j) is not int:
            raise MalformedInput(f"pair must be 2 integers, got {pair!r:.60}")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside [0,{n})")
        if i == j:
            raise SelfLoop(f"pair ({i},{j})")
        edges.add((i, j) if i < j else (j, i))
    for i in range(n):
        j = (i + 1) % n
        if ((i, j) if i < j else (j, i)) not in edges:
            raise MissingCycleEdge(f"cycle edge {{{i},{j}}} missing")
    return VisGraph(n, frozenset(edges))


@derived_table
def rows(g: VisGraph) -> tuple[int, ...]:
    """Per-vertex neighbour bitmasks: bit t of rows(g)[s] is set iff s
    sees t."""
    masks = [0] * g.n
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def invisible_pairs(g: VisGraph) -> list[Pair]:
    """All ordered non-visible pairs, lexicographic."""
    return [
        (i, j)
        for i in range(g.n)
        for j in range(g.n)
        if i != j and not g.visible(i, j)
    ]
