"""Command-line surface: recognition, oracle extraction, generation,
verification, corpus runs and exports, and every file format they use.

Exit codes: 0 accepted/pass, 1 rejected/fail, 2 input error, 3 budget
exceeded.  All output is canonical JSON (sorted keys, sorted lists), so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import geometry, recognizer
from .blockers import Assignment
from .conditions import Violation, check_conditions
from .errors import (
    GenerationBudgetExceeded,
    MalformedInput,
    PseudovisError,
    SearchBudgetExceeded,
)
from .graph_core import MAX_VERTICES, VisGraph, bits_from, validate_graph
from .recognizer import EmptyCandidateSet, ExhaustedSearch, Verdict
from .vertex_edge import VEGraph, build_ve, check_ve_characterization

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# File formats: the only code in the package that reads or writes JSON.


def canonical_json(obj) -> str:
    """The one JSON text form of every document the package writes:
    sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_json(text: str):
    """json.loads, reporting nesting too deep to parse as MalformedInput."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedInput("JSON nested too deeply") from None


def json_field(obj, key: str, kind: type):
    """obj[key] of a parsed JSON object, which must be of exactly the
    given type (so an int field rejects true and 1.5)."""
    if type(obj) is not dict:
        raise MalformedInput(f"expected a JSON object, got {obj!r:.60}")
    if key not in obj:
        raise MalformedInput(f"missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise MalformedInput(f"{key!r} must be {kind.__name__}, got {value!r:.60}")
    return value


def json_ints(row, count: int, what: str) -> tuple[int, ...]:
    """A parsed JSON list of exactly count integers, as a tuple."""
    if type(row) is not list or len(row) != count or any(type(x) is not int for x in row):
        raise MalformedInput(f"{what} must be {count} integers, got {row!r:.60}")
    return tuple(row)


def graph_to_json(g: VisGraph) -> str:
    return canonical_json({"n": g.n, "edges": sorted(list(e) for e in g.edges)})


def graph_from_json(text: str) -> VisGraph:
    obj = parse_json(text)
    edges = [json_ints(e, 2, "edge") for e in json_field(obj, "edges", list)]
    return validate_graph(json_field(obj, "n", int), edges)


def assignment_to_dict(a: Assignment) -> dict:
    rows = [{"from": i, "to": j, "blocker": b} for (i, j), b in sorted(a.items())]
    return {"blockers": rows}


def assignment_to_json(a: Assignment) -> str:
    return canonical_json(assignment_to_dict(a))


def assignment_from_json(text: str) -> Assignment:
    out: Assignment = {}
    for row in json_field(parse_json(text), "blockers", list):
        i, j, k = (json_field(row, key, int) for key in ("from", "to", "blocker"))
        if (i, j) in out:
            raise MalformedInput(f"pair ({i},{j}) is listed more than once")
        out[(i, j)] = k
    return out


def violation_to_dict(v: Violation) -> dict:
    return {
        "condition": v.condition,
        "pairs": [list(p) for p in v.pairs],
        "vertices": list(v.vertices),
        "narrative": v.narrative,
    }


def verdict_to_dict(v: Verdict) -> dict:
    if v.accepted:
        return {"verdict": "accepted", "assignment": assignment_to_dict(v.assignment or {})}
    if isinstance(v.certificate, EmptyCandidateSet):
        certificate = {"kind": "empty_candidate_set", "pair": list(v.certificate.pair)}
    else:
        assert isinstance(v.certificate, ExhaustedSearch)
        conflicts = [{"depth": d, "violation": violation_to_dict(viol)}
                     for d, viol in v.certificate.conflicts]
        certificate = {"kind": "exhausted_search", "conflicts": conflicts}
    return {"verdict": "rejected", "certificate": certificate}


def verdict_to_json(v: Verdict) -> str:
    return canonical_json(verdict_to_dict(v))


def ve_to_json(ve: VEGraph) -> str:
    entries = [[i, m] for i in range(ve.n) for m in bits_from(ve.rows[i], 0)]
    return canonical_json({"n": ve.n, "sees": entries})


def polygon_to_json(p: geometry.Polygon) -> str:
    return canonical_json({"vertices": [list(v) for v in p.vertices]})


def polygon_from_json(text: str) -> geometry.Polygon:
    vertices = json_field(parse_json(text), "vertices", list)
    return geometry.validate_polygon([json_ints(v, 2, "vertex") for v in vertices])


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_recognize(args) -> int:
    if args.budget < 1:
        raise ValueError("recognize: need --budget >= 1")
    g = graph_from_json(_read(args.graph))
    verdict = recognizer.find_assignment(g, node_budget=args.budget)
    obj = verdict_to_dict(verdict)
    if verdict.accepted:
        failures = check_ve_characterization(build_ve(g, verdict.assignment or {}), g)
        obj["ve_check"] = {"ok": not failures, "failures": [asdict(f) for f in failures]}
    sys.stdout.write(canonical_json(obj))
    return EXIT_PASS if verdict.accepted and obj["ve_check"]["ok"] else EXIT_FAIL


def cmd_check(args) -> int:
    g = graph_from_json(_read(args.graph))
    a = assignment_from_json(_read(args.assignment))
    report = recognizer.verify(g, a)
    violations = [violation_to_dict(v) for v in report.violations]
    obj = {"ok": report.ok, "problems": list(report.problems), "violations": violations}
    sys.stdout.write(canonical_json(obj))
    return EXIT_PASS if report.ok else EXIT_FAIL


def _lemma_report(p: geometry.Polygon) -> dict:
    return {
        "unique_blockers": geometry.check_blocker_uniqueness(p),
        "edge_vertex": geometry.check_edge_vertex_visibility(p),
        "gap_cases": geometry.check_gap_witness_cases(p),
    }


def cmd_oracle(args) -> int:
    p = polygon_from_json(_read(args.polygon))
    if args.what == "visgraph":
        sys.stdout.write(graph_to_json(geometry.visibility_graph(p)))
        return EXIT_PASS
    if args.what == "blockers":
        sys.stdout.write(assignment_to_json(geometry.geometric_blockers(p)))
        return EXIT_PASS
    if args.what == "ve":
        sys.stdout.write(ve_to_json(geometry.ve_graph_geo(p)))
        return EXIT_PASS
    checks = _lemma_report(p)
    ok = not any(checks.values())
    sys.stdout.write(canonical_json({"checks": checks, "ok": ok}))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gen(args) -> int:
    if not 3 <= args.n <= MAX_VERTICES or args.count < 1:
        raise ValueError(f"gen: need 3 <= --n <= {MAX_VERTICES} and --count >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for offset in range(args.count):
        seed = args.seed + offset
        p = geometry.random_simple_polygon(args.n, seed)
        path = out_dir / f"polygon_n{args.n}_seed{seed}.json"
        path.write_text(polygon_to_json(p))
        sys.stdout.write(f"{path}\n")
    return EXIT_PASS


CORPUS_CHECKS = (
    "unique_blockers",
    "nc_clean",
    "ve_match",
    "ve_characterization",
    "edge_vertex",
    "gap_cases",
    "recognized",
)


def check_polygon(p: geometry.Polygon) -> dict[str, bool]:
    """Run the full ground-truth property battery on one polygon."""
    g = geometry.visibility_graph(p)
    results = {name: not failures for name, failures in _lemma_report(p).items()}
    a_geo = geometry.geometric_blockers(p)
    results["nc_clean"] = not check_conditions(g, a_geo)
    ve_geo = geometry.ve_graph_geo(p)
    results["ve_match"] = build_ve(g, a_geo) == ve_geo
    results["ve_characterization"] = not check_ve_characterization(ve_geo, g)
    verdict = recognizer.find_assignment(g)
    recognized = verdict.accepted
    if recognized:
        ve_found = build_ve(g, verdict.assignment or {})
        recognized = not check_ve_characterization(ve_found, g)
    results["recognized"] = recognized
    return results


def run_corpus(count: int, n_lo: int, n_hi: int, seed: int) -> dict:
    """Generate `count` polygons cycling n through [n_lo, n_hi] and run
    every check; aggregate per-check pass/fail counts."""
    span = n_hi - n_lo + 1
    tally = {name: {"pass": 0, "fail": 0} for name in CORPUS_CHECKS}
    failures = []
    for idx in range(count):
        n = n_lo + idx % span
        poly_seed = seed + idx
        p = geometry.random_simple_polygon(n, poly_seed)
        results = check_polygon(p)
        for name in CORPUS_CHECKS:
            ok = results[name]
            tally[name]["pass" if ok else "fail"] += 1
            if not ok:
                failures.append({"check": name, "n": n, "seed": poly_seed})
    failures.sort(key=lambda f: (f["seed"], f["check"]))
    return {
        "checks": tally,
        "count": count,
        "failures": failures,
        "first_failing_seed": failures[0]["seed"] if failures else None,
        "n_range": f"{n_lo}..{n_hi}",
        "seed": seed,
    }


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def cmd_corpus(args) -> int:
    n_lo, n_hi = _parse_range(args.n)
    if not 3 <= n_lo <= n_hi <= MAX_VERTICES or args.count < 1:
        raise ValueError(f"corpus: need 3 <= n_lo <= n_hi <= {MAX_VERTICES} and count >= 1")
    report = run_corpus(args.count, n_lo, n_hi, args.seed)
    sys.stdout.write(canonical_json(report))
    return EXIT_PASS if not report["failures"] else EXIT_FAIL


def cmd_export_dot(args) -> int:
    g = graph_from_json(_read(args.graph))
    lines = ["graph visibility {"]
    for i in range(g.n):
        lines.append(f"  {i};")
    for i, j in sorted(g.edges):
        if (j - i) % g.n == 1 or (i - j) % g.n == 1:
            lines.append(f"  {i} -- {j};")
        else:
            lines.append(f"  {i} -- {j} [style=dashed];")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudovis",
        description="Recognize visibility graphs of pseudo-polygons and "
        "validate them against an exact polygon oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="decide a graph file")
    rec.add_argument("graph")
    rec.add_argument("--budget", type=int, default=recognizer.DEFAULT_NODE_BUDGET)
    rec.set_defaults(func=cmd_recognize)

    chk = sub.add_parser("check", help="verify an assignment against a graph")
    chk.add_argument("graph")
    chk.add_argument("assignment")
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="ground-truth extraction from a polygon")
    orc.add_argument("what", choices=("visgraph", "blockers", "ve", "lemmas"))
    orc.add_argument("polygon")
    orc.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="generate random simple polygons")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_gen)

    cor = sub.add_parser("corpus", help="run the property battery on a corpus")
    cor.add_argument("--count", type=int, required=True)
    cor.add_argument("--n", required=True, help="vertex count or range a..b")
    cor.add_argument("--seed", type=int, default=0)
    cor.set_defaults(func=cmd_corpus)

    dot = sub.add_parser("export-dot", help="DOT rendering of a graph file")
    dot.add_argument("graph")
    dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenerationBudgetExceeded, SearchBudgetExceeded) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (PseudovisError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
