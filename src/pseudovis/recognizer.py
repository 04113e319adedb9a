"""Decision procedure: search for a blocker assignment satisfying NC1-NC5.

Variables are the ordered invisible pairs, domains their candidate sets
(at most two values).  The search is chronological backtracking with
forward propagation: conditions NC1-NC3 have implicational form, so each
tentative entry forces further entries until a fixpoint.  NC4 (and NC1
part 2) are checked on every closure, NC5 on every total assignment: an
NC5 violation cites only assigned entries, so it persists in every total
extension of a closure.  Rejection comes with a re-checkable certificate.

The whole search works on one EntryIndex, which owns the assignment: a
dict from entry codes v * n + t to blockers in push order, so also the
trail, and the code mask `assigned` of its keys.  A search node branches
on the lowest unassigned one-candidate code, else two-candidate code,
and records the trail's length as its mark; backtracking undoes every
entry pushed since.  Pairs are decoded only for output.  The nodes are
an explicit stack, so depth costs no Python recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockers import Assignment, candidate_sweep, candidate_table
from .conditions import (
    EntryIndex,
    Violation,
    _mismatch,
    _nc5_violations,
    entry_requirements,
    index_violations,
    load_assignment,
    residual_violations,
)
from .errors import SearchBudgetExceeded
from .graph_core import Pair, VisGraph, bits_from

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class EmptyCandidateSet:
    pair: Pair


@dataclass(frozen=True)
class ExhaustedSearch:
    conflicts: tuple[tuple[int, Violation], ...]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    problems: tuple[str, ...]
    violations: tuple[Violation, ...]


@dataclass
class Verdict:
    accepted: bool
    assignment: Assignment | None = None
    certificate: EmptyCandidateSet | ExhaustedSearch | None = None


def _propagate(idx: EntryIndex, c: int, b: int) -> Violation | None:
    """Push the entry c -> b onto idx's closed assignment and close it
    again under NC1-NC3 forcing, assigning on its trail.

    Only dirty entries are visited: an entry is dirty from its assignment
    or from a change to an entry it reads (EntryIndex.assign returns
    exactly those readers) until its next visit, and a clean entry's
    requirements are all assigned and met, so its visit would yield
    nothing.  Visits come in passes.  A pass visits, in increasing order,
    the dirty entries that existed when it started; an entry dirtied at
    or behind the pass's cursor, or assigned during the pass, waits for
    the next pass.  So the bitmask `now` holds the dirty entries still
    ahead in this pass and `later` the rest, the entry codes being the
    bits.  An entry assigned during the pass goes to `later` at once and
    stays dirty until visited, so the cursor decides only for entries
    that existed when the pass started.  The first pass visits c and its
    readers.

    Returns the first violation hit (forced value outside the candidate
    set, contradiction with an existing entry, or any residual NC1b / NC4
    breach on the closure), or None if consistent.  The closure before c
    was violation-free, so NC1b and NC4 are checked only on the entries
    pushed since.  NC5 is left to the caller, at total assignments.
    """
    n, a, mask, mark = idx.n, idx.a, idx.mask, len(idx.a)
    now, later = 1 << c | idx.assign(c, b), 0
    while now:
        while now:
            low = now & -now
            now ^= low
            ahead = -low << 1  # the codes above the entry being visited
            c = low.bit_length() - 1
            for req in entry_requirements(idx, c, a[c]):
                if isinstance(req, Violation):
                    return req
                (x, y), b = req.pair, req.value
                forced = x * n + y
                cur = a.get(forced)  # req is open: unassigned or clashing
                if cur is not None:
                    return _mismatch(req, cur)
                if not mask[b] >> forced & 1:
                    return _mismatch(req, None)
                later |= 1 << forced
                readers = idx.assign(forced, b) & ~(now | later)
                now |= readers & ahead
                later |= readers & ~ahead
        now, later = later, 0
    return next(residual_violations(idx, mark), None)


def find_assignment(
    g: VisGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Complete search for an NC-satisfying total assignment.

    Deterministic: variables are ordered by candidate-set size then
    lexicographically, values clockwise-side first.  Every dead end is
    logged as (assignment depth, violation) in the rejection certificate.
    Raises SearchBudgetExceeded past node_budget branch extensions.
    """
    # the sweep stops at the first viewer with a pair that has no candidate,
    # and only a table without one, so complete, is cached
    t, n = g.tables.get(candidate_table) or next(candidate_sweep(g)), g.n
    for c in bits_from(t.empty, 0):  # the first pair without a candidate
        return Verdict(False, certificate=EmptyCandidateSet(divmod(c, n)))
    g.tables[candidate_table] = t
    once = twice = 0  # the codes with a candidate, and with two
    for m in t.mask:
        once, twice = once | m, twice | once & m

    single = t.inv & ~twice  # the one-candidate codes
    conflicts: list[tuple[int, Violation]] = []
    nodes = 0
    idx = EntryIndex(g)
    # One frame per decided variable: (its code, the trail's length before
    # it was assigned, its untried values, cw first as it is tried first).
    stack: list[tuple[int, int, list[int]]] = []
    bad: Violation | None = None  # the empty root closure is consistent
    while True:
        if bad is None:
            free = single & ~idx.assigned or twice & ~idx.assigned
            if free:
                c = (free & -free).bit_length() - 1
                stack.append((c, len(idx.a), [*t.candidates(idx.rows[c // n], c).members()]))
            else:  # a total assignment: only NC5 is left to check
                bad = next(_nc5_violations(idx), None)
                if bad is None:
                    break
        if bad is not None:
            conflicts.append((len(idx.a), bad))
        while stack:
            c, mark, values = stack[-1]
            idx.undo(mark)
            if values:
                nodes += 1
                if nodes > node_budget:
                    raise SearchBudgetExceeded(
                        f"no verdict within {node_budget} search nodes"
                    )
                bad = _propagate(idx, c, values.pop(0))
                break
            stack.pop()
        else:
            return Verdict(False, certificate=ExhaustedSearch(tuple(conflicts)))

    found = {divmod(c, n): idx.a[c] for c in sorted(idx.a)}  # in code order
    report = verify(g, found)
    if not report.ok:  # propagation and the checker disagree: a bug
        raise AssertionError(f"accepted assignment failed verification: {report}")
    return Verdict(True, assignment=found)


def verify(g: VisGraph, a: Assignment) -> VerifyReport:
    """True iff the assignment is total, candidate-respecting and NC-clean.
    a is read once, by load_assignment: the problems are its bad entries in
    insertion order, then its unassigned pairs; with none, the NC checks
    run on the loader's index."""
    idx, listed, bad = load_assignment(g, a)
    unassigned = ("({},{}) is unassigned".format(*divmod(c, g.n))
                  for c in bits_from(candidate_table(g).inv & ~listed, 0))
    problems = (*map(str, bad), *unassigned)
    violations = () if problems else tuple(index_violations(idx))
    return VerifyReport(not (problems or violations), problems, violations)
