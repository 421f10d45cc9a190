"""Benchmark of hardpair: one workload per run, end-to-end or per-layer metrics.

    python3 hpbench/run.py --workload collide|invariants|contact \
        --seed N --seconds S --trace 0|1

With --trace 0 the run sets the program up SETUP_REPEATS times (import,
bodies, families, one warm-up call) and reports the median as setup_s, then
calls the workload's entry point in whole rounds until S seconds have passed
and at least MIN_CALLS calls were made, checking every output apart from
the timing.  With --trace 1 it runs a fixed number of rounds, set by the
seed and S alone, making each call twice: once plain and once with spans
around the calls between layers.  It reports the per-layer metrics of the
traced calls and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results, and spans of traced runs, are also
written under hpbench/out/.  Everything runs in this one process on one
thread.
"""

from __future__ import annotations

import os

# one thread of computation: set before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WARMUP_SEED, WORKLOADS, import_program

SETUP_REPEATS = 9
MIN_CALLS = 100
# ops_per_s and call_p90_ms are medians over windows of whole rounds, each
# holding at least WINDOW_CALLS calls and WINDOW_S seconds of call time.
WINDOW_CALLS = 100
WINDOW_S = 0.25
REF_UNIT_S = 1e-4
REF_UNITS = 3
# Rounds of a traced run per second of --seconds, chosen so that the run
# takes about half of --seconds on a 2-core x86 host.
TRACE_ROUNDS_PER_S = {"collide": 2.5, "invariants": 6.0, "contact": 20.0}
OUT = Path(__file__).resolve().parent / "out"


def reference_unit() -> float:
    """Wall time of a fixed piece of scalar and small-array work.

    The work is independent of hardpair but of the same kind (math-module
    calls in a Python loop, small NumPy arrays), so on a shared host it
    slows down with the program when the CPU is contended.  REF_UNIT_S
    defines the reference speed; on the 2-core host of the figures in
    README.md a unit took 80 to 145 us.
    """
    t0 = time.perf_counter()
    s = 0.0
    m = np.eye(3)
    for i in range(120):
        x = 0.01 * i
        s += math.cos(x) * math.sin(x) + math.atan2(x, 1.0 + x) + math.sqrt(1.0 + x * x)
        if i % 8 == 0:
            s += float(np.linalg.norm(m @ np.array([x, 1.0, -x])))
    return time.perf_counter() - t0


def reference_point() -> float:
    """Fastest of REF_UNITS reference units: the host's speed at this moment."""
    return min(reference_unit() for _ in range(REF_UNITS))


def speed_scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two reference points to reference speed."""
    return 2.0 * REF_UNIT_S / (before + after)


class Tally:
    """Calls made, their wall times, work done and what went wrong."""

    def __init__(self):
        self.times: list[float] = []
        self.works: list[int] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.problems: list[str] = []
        self.extra: dict = {}

    def note(self, what: str):
        if len(self.problems) < 20:
            self.problems.append(what)


def call_once(wl, inp, tally: Tally):
    """Time one call; returns its output, or None if it raised."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = wl.call(inp)
    except Exception as exc:  # a raising call is a failed operation
        tally.failed += 1
        tally.note(f"call raised {type(exc).__name__}: {exc}")
        return None
    tally.times.append(time.perf_counter() - t0)
    tally.works.append(wl.work(out))
    tally.work += tally.works[-1]
    return out


def check_once(wl, inp, out, tally: Tally):
    if out is None:
        return
    problems = wl.check(inp, out)
    if problems:
        tally.failed += 1
        tally.rejected += 1
        tally.note("; ".join(problems[:3]))


def setup_once(wl) -> float:
    t0 = time.perf_counter()
    hp = import_program()
    wl.setup(hp)
    wl.call(next(wl.rounds(WARMUP_SEED))[0])
    return time.perf_counter() - t0


def percentile(xs, q) -> float:
    return float(np.percentile(np.asarray(xs), q)) if len(xs) else 0.0


def windows(times, work, round_ends) -> list[tuple[np.ndarray, int]]:
    """Split the calls into windows of whole rounds: (call times, work done).

    A window closes at the first round end that gives it WINDOW_CALLS calls
    and WINDOW_S seconds of call time; calls left over join the last window.
    """
    times, work = np.asarray(times), np.asarray(work)
    cuts, begin = [0], 0
    for end in round_ends:
        if end - begin >= WINDOW_CALLS and times[begin:end].sum() >= WINDOW_S:
            cuts.append(end)
            begin = end
    if len(cuts) > 1:
        cuts[-1] = len(times)
    else:
        cuts.append(len(times))
    return [(times[b:e], int(work[b:e].sum())) for b, e in zip(cuts, cuts[1:])]


def measure(wl, seed: int, seconds: float):
    """End-to-end metrics of one plain run, at reference speed.

    The host's speed drifts by tens of percent within a second when other
    work shares it.  A reference point is taken before and after every
    round and every set-up, and the times in between are scaled by
    speed_scale of the two.  Unscaled figures go to the results file.
    Throughput and the 90th percentile are medians over windows (see
    `windows`), so that a burst of contention moves few of them.
    """
    setups, raw_setups = [], []
    after = reference_point()
    for _ in range(SETUP_REPEATS):
        before = after
        raw_setups.append(setup_once(wl))
        after = reference_point()
        setups.append(raw_setups[-1] * speed_scale(before, after))
    tally = Tally()
    rounds = wl.rounds(seed)
    scaled: list[float] = []
    scales: list[float] = []
    round_ends: list[int] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or tally.attempted < MIN_CALLS:
        before, first = after, len(tally.times)
        for inp in next(rounds):
            check_once(wl, inp, call_once(wl, inp, tally), tally)
        after = reference_point()
        scales.append(speed_scale(before, after))
        scaled += [t * scales[-1] for t in tally.times[first:]]
        round_ends.append(len(scaled))

    def figures(times, setup):
        parts = windows(times, tally.works, round_ends) if times else []
        rates = [work / t.sum() for t, work in parts if t.sum() > 0]
        return {
            "setup_s": (setup, "s"),
            "ops_per_s": (statistics.median(rates) if rates else 0.0, "op/s"),
            "call_p50_ms": (percentile(times, 50) * 1e3, "ms"),
            "call_p90_ms": (statistics.median(percentile(t, 90) for t, _ in parts) * 1e3
                            if parts else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    unscaled = figures(tally.times, statistics.median(raw_setups))
    tally.extra = {"unscaled": {k: v for k, (v, _) in unscaled.items()},
                   "speed_scale_median": statistics.median(scales),
                   "windows": len(windows(scaled, tally.works, round_ends)) if scaled else 0}
    return figures(scaled, statistics.median(setups)), tally


def measure_traced(wl, seed: int, seconds: float, spans_path: Path):
    """Per-layer metrics from a fixed set of rounds, each call made twice.

    Every input is run once plain and once traced, alternating which goes
    first, so that drift in machine speed cancels out of the overhead.
    """
    setup_once(wl)
    n_rounds = max(1, math.ceil(seconds * TRACE_ROUNDS_PER_S[wl.name]))
    rounds = wl.rounds(seed)
    inputs = [inp for _ in range(n_rounds) for inp in next(rounds)]
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    for k, inp in enumerate(inputs):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.install(wl.hp)
                try:
                    out = call_once(wl, inp, traced)
                finally:
                    tracer.uninstall()
            else:
                out = call_once(wl, inp, plain)
            check_once(wl, inp, out, traced if on else plain)

    events = traced.work if wl.name == "collide" else 0
    samples = traced.work if wl.name == "invariants" else 0
    metrics = tracing.layer_metrics(tracer.spans, events, samples)
    base = sum(plain.times)
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(traced.times) / base - 1.0) if base else 0.0, "%")
    tracer.write(spans_path)
    for attr in ("attempted", "failed", "rejected", "problems"):
        setattr(traced, attr, getattr(traced, attr) + getattr(plain, attr))
    return metrics, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]()
    try:
        import_program()
    except FileNotFoundError as exc:
        print(f"hpbench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, tally = measure_traced(wl, args.seed, args.seconds,
                                        stem.with_suffix(".spans.csv.gz"))
    else:
        metrics, tally = measure(wl, args.seed, args.seconds)

    result = {
        "correct": tally.rejected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": wl.hp.hardpair.BACKEND,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "calls_timed": len(tally.times),
        "problems": tally.problems, **tally.extra,
    }
    stem.with_suffix(".json").write_text(json.dumps({**context, "result": result}, indent=1))
    for line in tally.problems:
        print(f"hpbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
