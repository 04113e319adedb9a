"""The benchmark's workloads: input streams, timed calls, traced replicas
and reference checks.

Each workload yields a deterministic stream of distinct inputs from its
seed.  ``run`` is the untraced timed call into the package's public API.
``replica`` makes the same calls in the same order, one span per layer:
the package caches results per graph and per polygon, so the cost of a
call depends on what ran before it and the replica must keep that order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from pseudovis import Polygon, Verdict, VisGraph, cli, geometry, recognizer
from pseudovis.blockers import all_candidates
from pseudovis.conditions import check_conditions, separable_pairs
from pseudovis.graph_core import validate_graph
from pseudovis.recognizer import EmptyCandidateSet, ExhaustedSearch
from pseudovis.vertex_edge import build_ve, check_ve_characterization

import reference


@dataclass
class Item:
    id: int
    n: int
    polygon: Polygon
    graph: VisGraph | None = None
    mutation: str = ""


@dataclass
class Out:
    graph: VisGraph | None = None
    verdict: Verdict | None = None
    results: dict | None = None


def polygon_seed(seed: int, j: int) -> int:
    return seed * 1_000_000 + j


def find_assignment_traced(g: VisGraph, tr) -> Out:
    """find_assignment, preceded by the two tables it builds first, each
    in its own span (find_assignment then reads them from the cache)."""
    cand = tr.call("blockers.all_candidates", all_candidates, g)
    if not any(c.is_empty for c in cand.values()):
        tr.call("conditions.separable_pairs", separable_pairs, g)
    verdict = tr.call("recognizer.find_assignment", recognizer.find_assignment, g)
    return Out(graph=g, verdict=verdict)


def check_accepted(g: VisGraph, v: Verdict, tr) -> str | None:
    a = v.assignment or {}
    report = tr.call("recognizer.verify", recognizer.verify, g, a)
    if not report.ok:
        return "accepted assignment fails verify"
    ve = tr.call("vertex_edge.build_ve", build_ve, g, a, check=False)
    if tr.call("vertex_edge.check_ve_characterization",
               check_ve_characterization, ve, g):
        return "accepted assignment fails the vertex-edge characterization"
    return None


COUNTS = (
    "work.invisible_pairs", "work.two_candidate_pairs",
    "work.empty_candidate_pairs", "work.separable_pairs", "verdicts.accepted",
    "verdicts.empty_candidate_set", "verdicts.exhausted_search",
    "search.conflicts",
)


def work_counts(out: Out) -> dict[str, int]:
    """Work counts read from public return values, after the timed call."""
    g, v = out.graph, out.verdict
    cand = all_candidates(g)
    exhausted = isinstance(v.certificate, ExhaustedSearch)
    return {
        "work.invisible_pairs": len(cand),
        "work.two_candidate_pairs": sum(len(c.members()) == 2 for c in cand.values()),
        "work.empty_candidate_pairs": sum(c.is_empty for c in cand.values()),
        "work.separable_pairs": len(separable_pairs(g)),
        "verdicts.accepted": int(v.accepted),
        "verdicts.empty_candidate_set": int(isinstance(v.certificate, EmptyCandidateSet)),
        "verdicts.exhausted_search": int(exhausted),
        "search.conflicts": len(v.certificate.conflicts) if exhausted else 0,
    }


def check_polygon_traced(p: Polygon, tr) -> Out:
    """cli.check_polygon's calls, in its order, one span per call."""
    g = tr.call("geometry.visibility_graph", geometry.visibility_graph, p)
    results = {}
    results["unique_blockers"] = not tr.call(
        "geometry.check_blocker_uniqueness", geometry.check_blocker_uniqueness, p)
    a_geo = tr.call("geometry.geometric_blockers", geometry.geometric_blockers, p)
    results["nc_clean"] = not tr.call(
        "conditions.check_conditions", check_conditions, g, a_geo)
    ve_geo = tr.call("geometry.ve_graph_geo", geometry.ve_graph_geo, p)
    results["ve_match"] = tr.call(
        "vertex_edge.build_ve", build_ve, g, a_geo, check=False) == ve_geo
    cand = tr.call("blockers.all_candidates", all_candidates, g)
    results["ve_characterization"] = not tr.call(
        "vertex_edge.check_ve_characterization", check_ve_characterization,
        ve_geo, g, cand)
    results["edge_vertex"] = not tr.call(
        "geometry.check_edge_vertex_visibility",
        geometry.check_edge_vertex_visibility, p)
    results["gap_cases"] = not tr.call(
        "geometry.check_gap_witness_cases", geometry.check_gap_witness_cases, p)
    verdict = tr.call("recognizer.find_assignment", recognizer.find_assignment, g)
    recognized = verdict.accepted
    if recognized:
        ve_found = tr.call("vertex_edge.build_ve", build_ve, g,
                           verdict.assignment or {}, check=False)
        recognized = not tr.call(
            "vertex_edge.check_ve_characterization", check_ve_characterization,
            ve_found, g, cand)
    results["recognized"] = recognized
    return Out(graph=g, verdict=verdict, results=results)


class Corpus:
    """Random simple polygons, n cycling 5..12, through the full
    cli.check_polygon battery: the acceptance suite's shape."""

    name = "corpus"
    sizes = tuple(range(5, 13))
    batch = 64
    trace_rate = 10.0
    rss_inputs = 320

    def items(self, seed: int, tr):
        seen = set()
        for j in itertools.count():
            n = self.sizes[j % len(self.sizes)]
            p = geometry.random_simple_polygon(n, polygon_seed(seed, j))
            if p not in seen:
                seen.add(p)
                yield Item(j, n, p)

    def run(self, item: Item) -> Out:
        return Out(results=cli.check_polygon(item.polygon))

    def replica(self, item: Item, tr) -> Out:
        return tr.call("cli.check_polygon", check_polygon_traced, item.polygon, tr)

    def check(self, item: Item, out: Out, tr) -> str | None:
        # Every simple polygon is a pseudo-polygon, so every check holds.
        if set(out.results) != set(cli.CORPUS_CHECKS):
            return f"checks reported: {sorted(out.results)}"
        failed = sorted(k for k, ok in out.results.items() if not ok)
        return f"failed checks: {failed}" if failed else None


class Mutants:
    """Polygon visibility graphs with one non-edge added: the recognizer's
    two rejection paths (empty candidate set, exhausted search) mixed with
    acceptances.

    Removing a chord instead gives rare exhausted searches of seconds to
    tens of seconds at n >= 11, which a closed loop of a few tens of
    seconds cannot measure steadily, so this workload adds edges only.
    """

    name = "mutants"
    sizes = (8, 9, 10, 11, 12)
    batch = 64
    trace_rate = 25.0
    rss_inputs = 640
    brute_force_max_n = 9

    def items(self, seed: int, tr):
        seen = set()
        for j in itertools.count():
            n = self.sizes[j % len(self.sizes)]
            p = geometry.random_simple_polygon(n, polygon_seed(seed, j))
            tr.input_id = j
            g = tr.call("geometry.visibility_graph", geometry.visibility_graph, p)
            others = sorted((a, b) for a in range(n) for b in range(a + 1, n)
                            if (a, b) not in g.edges)
            if not others:
                continue
            added = random.Random(f"mutant:{seed}:{j}").choice(others)
            m = validate_graph(n, sorted(g.edges | {added}))
            if m not in seen:
                seen.add(m)
                yield Item(j, n, p, m, f"added {added}")

    def run(self, item: Item) -> Out:
        return Out(graph=item.graph, verdict=recognizer.find_assignment(item.graph))

    def replica(self, item: Item, tr) -> Out:
        return find_assignment_traced(item.graph, tr)

    def check(self, item: Item, out: Out, tr) -> str | None:
        g, v = item.graph, out.verdict
        if g.n <= self.brute_force_max_n:
            expected = tr.call("reference.brute_force", reference.brute_force_accepts, g)
            if v.accepted != expected:
                return f"verdict accepted={v.accepted}, brute force says {expected}"
        if v.accepted:
            return check_accepted(g, v, tr)
        cert = v.certificate
        if isinstance(cert, EmptyCandidateSet):
            i, j = cert.pair
            if i == j or g.visible(i, j):
                return f"certificate pair {cert.pair} is not invisible"
            if not reference.candidates(g, cert.pair).is_empty:
                return f"certificate pair {cert.pair} has candidates"
            return None
        if not isinstance(cert, ExhaustedSearch) or not cert.conflicts:
            return f"rejection without a certificate: {cert!r}"
        return None


WORKLOADS = {w.name: w for w in (Corpus(), Mutants())}
