"""Decision procedure: search for a blocker assignment satisfying NC1-NC5.

Variables are the ordered invisible pairs, domains their candidate sets
(at most two values).  The search is chronological backtracking with
forward propagation: conditions NC1-NC3 have implicational form, so each
tentative entry forces further entries until a fixpoint.  Only dirty
entries, whose premises changed, are revisited: a clean entry's
requirements are all assigned and met.  NC4/NC5 (and NC1 part 2) are
checked on every closure.  Rejection comes with a re-checkable certificate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .blockers import Assignment, CandidateSet, all_candidates, assignment_to_dict
from .conditions import (
    Violation,
    _mismatch,
    check_conditions,
    entry_requirements,
    residual_violations,
    violation_to_dict,
)
from .errors import SearchBudgetExceeded
from .graph_core import Pair, VisGraph, canonical_json

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


def _propagate(
    g: VisGraph,
    cand: dict[Pair, CandidateSet],
    a: Assignment,
    new: tuple[Pair, ...],
) -> Violation | None:
    """Close the assignment under NC1-NC3 forcing; mutate a in place.

    a is closed apart from the entries in new.  Each pass walks the sorted
    entries but visits only the dirty ones: a clean entry's requirements
    are all assigned and met, so visiting it would change nothing.

    Returns the first violation hit (forced value outside the candidate
    set, contradiction with an existing entry, or any residual NC1b /
    NC4 / NC5 breach on the closure), or None if consistent.
    """
    by_blocker: dict[int, set[Pair]] = defaultdict(set)
    for pair, k in a.items():
        by_blocker[k].add(pair)
    dirty: set[Pair] = set()

    def added(pair: Pair) -> None:
        # Dirty (x, y) -> b and its readers: NC2 and NC3 case 2 of the
        # entries blocked by y, the NC3 reverse scan of (b, .) -> x.
        (x, y), b = pair, a[pair]
        dirty.add(pair)
        dirty.update(by_blocker[y], (p for p in by_blocker[x] if p[0] == b))
        by_blocker[b].add(pair)

    for pair in new:
        added(pair)
    while dirty:
        for pair in sorted(a):
            if pair not in dirty:
                continue
            dirty.discard(pair)
            for req in entry_requirements(g, a, pair, a[pair]):
                if isinstance(req, Violation):
                    return req
                cur = a.get(req.pair)  # req is open: unassigned or clashing
                if cur is not None:
                    return _mismatch(req, cur)
                if not cand[req.pair].contains(req.value):
                    return _mismatch(req, None)
                a[req.pair] = req.value
                added(req.pair)
    return next(residual_violations(g, a), None)


def find_assignment(
    g: VisGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Complete search for an NC-satisfying total assignment.

    Deterministic: variables are ordered by candidate-set size then
    lexicographically, values clockwise-side first.  Every dead end is
    logged as (assignment depth, violation) in the rejection certificate.
    Raises SearchBudgetExceeded past node_budget branch extensions.
    """
    cand = all_candidates(g)  # keyed by the invisible pairs, lexicographic
    for p, cs in cand.items():
        if cs.is_empty:
            return Verdict(False, certificate=EmptyCandidateSet(p))

    order = sorted(cand, key=lambda p: (len(cand[p].members()), p))
    conflicts: list[tuple[int, Violation]] = []
    nodes = 0

    def solve(a: Assignment, new: tuple[Pair, ...]) -> Assignment | None:
        nonlocal nodes
        bad = _propagate(g, cand, a, new)
        if bad is not None:
            conflicts.append((len(a), bad))
            return None
        var = next((p for p in order if p not in a), None)
        if var is None:
            return a
        for value in cand[var].members():
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(
                    f"no verdict within {node_budget} search nodes"
                )
            result = solve({**a, var: value}, (var,))
            if result is not None:
                return result
        return None

    found = solve({}, ())
    if found is None:
        return Verdict(False, certificate=ExhaustedSearch(tuple(conflicts)))
    report = verify(g, found)
    if not report.ok:  # propagation and the checker disagree: a bug
        raise AssertionError(f"accepted assignment failed verification: {report}")
    return Verdict(True, assignment=found)


def verify(g: VisGraph, a: Assignment) -> VerifyReport:
    """True iff the assignment is total, candidate-respecting and NC-clean."""
    cand = all_candidates(g)  # keyed by the invisible pairs, lexicographic
    problems = []
    for pair in sorted(a):
        if pair not in cand:
            problems.append(f"({pair[0]},{pair[1]}) is not an invisible pair")
        elif not cand[pair].contains(a[pair]):
            problems.append(
                f"p{a[pair]} is not a candidate blocker for ({pair[0]},{pair[1]})"
            )
    for pair in cand:
        if pair not in a:
            problems.append(f"({pair[0]},{pair[1]}) is unassigned")
    if problems:
        return VerifyReport(False, tuple(problems), ())
    violations = check_conditions(g, a, cand)
    return VerifyReport(not violations, (), tuple(violations))


def verdict_to_json(v: Verdict, extra: dict | None = None) -> str:
    obj: dict = {"verdict": "accepted" if v.accepted else "rejected"}
    if v.accepted:
        obj["assignment"] = assignment_to_dict(v.assignment or {})
    elif isinstance(v.certificate, EmptyCandidateSet):
        obj["certificate"] = {
            "kind": "empty_candidate_set",
            "pair": list(v.certificate.pair),
        }
    else:
        assert isinstance(v.certificate, ExhaustedSearch)
        obj["certificate"] = {
            "kind": "exhausted_search",
            "conflicts": [
                {"depth": d, "violation": violation_to_dict(viol)}
                for d, viol in v.certificate.conflicts
            ],
        }
    if extra:
        obj.update(extra)
    return canonical_json(obj)
