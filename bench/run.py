"""pseudovis benchmark: one closed-loop caller, one input at a time.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Inputs are generated from --seed in setup; the loop then times one input
at a time for --seconds seconds of wall time, and checks each output
against a reference outside the timed section.  The last line of
standard output is the result as JSON; the line before it records the
environment.  With --trace 0 the result holds the end-to-end metrics,
their times scaled to a reference machine speed by a calibration kernel
timed beside each measurement (see calibrate.py).
With --trace 1 a fixed number of inputs runs with a span around every
call into the package, the spans are written to bench/out/, and the
result holds the per-layer metrics; tracing overhead is that run's timed
wall time minus an untraced run of the same calls on the same inputs in
a fresh process (started with --baseline).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict, deque
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5


class NoTrace:
    input_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans in memory: [input id, name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input_id = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        span = [self.input_id, name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[3] = time.perf_counter()

    def layer_metrics(self, layers: list[str]) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for layer in layers:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["cli.check_polygon.self_s"] = sum(
            end - start - child_time[idx]
            for idx, (_, name, start, end, _) in enumerate(self.spans)
            if name == "cli.check_polygon")
        return out

    def write(self, path: Path, header: dict) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, (input_id, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": idx, "id": input_id, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "parent": parent}) + "\n")


IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
t = time.perf_counter()
import workloads
t = time.perf_counter() - t
import calibrate
print(t, calibrate.warm_kernel_s())
"""


def import_times(src: Path) -> list[float]:
    """Time to import the package and the workloads, in fresh interpreters,
    each scaled by the kernel timed in the same interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        t, k = map(float, subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src), str(BENCH)],
            capture_output=True, text=True, check=True, timeout=60).stdout.split())
        times.append(t * calibrate.REFERENCE_S / k)
    return times


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=int, default=None,
                    help="run exactly this many inputs instead of --seconds")
    ap.add_argument("--baseline", action="store_true",
                    help="traced calls with spans off, no checks (overhead baseline)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pseudovis" / "__init__.py").is_file():
        sys.stderr.write(f"bench: package source not found under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    from workloads import COUNTS, WORKLOADS, work_counts
    meta = json.loads((BENCH / "meta.json").read_text())
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    wl = WORKLOADS[args.workload]
    traced = args.trace == 1 and not args.baseline
    replica = args.trace == 1 or args.baseline
    tr = Tracer() if traced else NoTrace()
    limit = args.inputs
    if args.trace == 1 and limit is None:
        limit = max(len(wl.sizes), round(args.seconds * wl.trace_rate))

    stream = wl.items(args.seed, tr)
    pool: deque = deque()
    gen_times = []
    for _ in range(SETUP_REPS):
        k = calibrate.warm_kernel_s()
        t0 = time.perf_counter()
        pool.extend(itertools.islice(stream, wl.batch))
        gen_times.append((time.perf_counter() - t0) * calibrate.REFERENCE_S / k)

    calibrated = args.trace == 0
    latencies: list[float] = []
    scaled: list[float] = []  # latencies at the reference machine speed
    kernel_times: list[float] = []
    by_n: dict[int, list[float]] = defaultdict(list)
    rss_mb = None
    counts: Counter = Counter()
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while (len(latencies) < limit if limit is not None
           else len(latencies) < len(wl.sizes) or time.perf_counter() < deadline):
        if not pool:
            pool.extend(itertools.islice(stream, wl.batch))
        item = pool.popleft()
        tr.input_id = item.id
        t0 = time.perf_counter()
        try:
            out = tr.call("input", wl.replica, item, tr) if replica else wl.run(item)
        except Exception:  # any error fails this input; the loop goes on
            out = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        latencies.append(dt)
        if calibrated:
            kernel_times.append(calibrate.kernel_s())
            dt *= calibrate.REFERENCE_S / kernel_times[-1]
            scaled.append(dt)
        by_n[item.n].append(dt)
        if len(latencies) == wl.rss_inputs:
            rss_mb = peak_rss_mb()
        if args.baseline:
            continue
        try:
            problem = ("raised an error" if out is None
                       else tr.call("check", wl.check, item, out, tr))
        except Exception:
            problem = "reference check raised an error"
            traceback.print_exc()
        if problem:
            failed += 1
            sys.stderr.write(f"bench: {wl.name} input {item.id} (n={item.n} "
                             f"{item.mutation}): {problem}\n")
        if traced and out is not None:
            counts.update(work_counts(out))

    timed_s = sum(latencies)
    attempted = len(latencies)
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": attempted, "timed_s": timed_s,
        "error_rate": failed / attempted, "held_out_seed": meta["held_out_seed"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "kernel_ms_p50": (statistics.median(kernel_times) * 1000.0
                          if kernel_times else None),
        "latency_p50_ms_by_n": {n: statistics.median(v) * 1000.0
                                for n, v in sorted(by_n.items())},
    }
    if args.baseline:
        metrics = {}
    elif traced:
        base = baseline_timed_s(args, attempted)
        metrics = tr.layer_metrics(list(meta["layer_map"]))
        metrics.update({k: counts[k] for k in COUNTS})
        exhausted = counts["verdicts.exhausted_search"]
        metrics["search.conflicts_per_exhausted"] = (
            counts["search.conflicts"] / exhausted if exhausted else 0.0)
        metrics["trace.traced_s"] = timed_s
        metrics["trace.untraced_s"] = base
        metrics["trace.overhead_s"] = timed_s - base
        trace_path = BENCH / "out" / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tr.write(trace_path, {"info": info})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(import_times(src)) + statistics.median(gen_times),
            "throughput_per_s": attempted / sum(scaled),
            "latency_geomean_ms": statistics.geometric_mean(scaled) * 1000.0,
            "latency_p90_ms": statistics.quantiles(
                scaled, n=10, method="inclusive")[-1] * 1000.0,
            "peak_rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def baseline_timed_s(args, inputs: int) -> float:
    """Timed wall time of the same calls on the same inputs, spans off,
    in a fresh process so that no cache is warm."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1",
           "--inputs", str(inputs), "--baseline"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=ROOT, timeout=170)
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    return info["timed_s"]


if __name__ == "__main__":
    sys.exit(main())
