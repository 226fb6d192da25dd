"""One workload run in a fresh interpreter; started by run.py.

Prints "ready" once sosq is imported and the first inputs exist, so the
parent can time set-up from outside, together with a speed probe taken
just before the imports; then (unless --mode setup) runs the loop and
prints one JSON line with its counts and timings.

Modes:
  setup   -- import and generate, then exit (a set-up sample only);
  measure -- time calls for --seconds seconds, tracing off;
  prefix  -- run exactly --ops calls, optionally with --traced.

Input generation, the answer checks and the speed probes (speed.py) run
between batches and are not part of any timed interval.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from array import array
from collections import Counter
from itertools import islice
from time import perf_counter

import speed
from oracle import WrongAnswer
from workloads import WORKLOADS


class Histogram:
    """Log-spaced latency histogram: fixed memory, ~0.3% resolution.

    Keeping every sample would make the process grow with the number of
    calls and bias peak_rss_mib on fast workloads.
    """

    _PER_OCTAVE = 256
    _FLOOR = 1e-8  # seconds
    _BINS = _PER_OCTAVE * 40

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * self._BINS))
        self.n = 0

    def add(self, seconds: float) -> None:
        k = int(math.log2(max(seconds, self._FLOOR) / self._FLOOR) * self._PER_OCTAVE)
        self.counts[min(k, self._BINS - 1)] += 1
        self.n += 1

    def quantile(self, q: float) -> float:
        """Value at rank q*(n-1), interpolated geometrically inside its bin."""
        rank = q * (self.n - 1)
        seen = 0
        for k, c in enumerate(self.counts):
            if c and seen + c > rank:
                frac = (rank - seen + 0.5) / c
                return self._FLOOR * 2.0 ** ((k + frac) / self._PER_OCTAVE)
            seen += c
        raise ValueError("empty histogram")


SEGMENT_S = 0.05


def run_loop(workload, batch, gen, *, seconds=None, ops=None, tracer=None):
    """Call the workload for `seconds` of timed calls, or for `ops` calls.

    Timed calls are grouped into segments of about SEGMENT_S, each between
    two speed probes; a segment's latencies and duration are also recorded
    scaled by REFERENCE_S over the mean of its two probes.
    """
    raw, scaled = Histogram(), Histogram()
    failed_by: Counter = Counter()
    done = 0
    wall = scaled_wall = 0.0
    segment = array("d")
    segment_wall = 0.0
    before = speed.probe_s()
    while True:
        results = []
        start = perf_counter()
        for x in batch:
            if tracer is not None:
                tracer.op_id = done
            t0 = perf_counter()
            try:
                out, failure = workload.call(x), None
            except Exception as exc:  # a failed call: counted by type
                # keep only the name: a held traceback would make a
                # reference cycle per failure for the collector
                out, failure = None, type(exc).__name__
            t1 = perf_counter()
            segment.append(t1 - t0)
            results.append((x, out, failure))
            done += 1
            if (ops is not None and done >= ops) or (
                seconds is not None and wall + (t1 - start) >= seconds
            ):
                break
        elapsed = perf_counter() - start
        wall += elapsed
        segment_wall += elapsed
        finished = (ops is not None and done >= ops) or (
            seconds is not None and wall >= seconds
        )
        if finished or segment_wall >= SEGMENT_S:
            after = speed.probe_s()
            factor = speed.REFERENCE_S / ((before + after) / 2)
            for t in segment:
                raw.add(t)
                scaled.add(t * factor)
            scaled_wall += segment_wall * factor
            segment = array("d")
            segment_wall = 0.0
            before = after
        for x, out, failure in results:
            if failure:
                failed_by[failure] += 1
            else:
                workload.check(x, out)
        if finished:
            timings = {
                "timed_s": wall,
                "scaled": summary(scaled, scaled_wall, done),
                "raw": summary(raw, wall, done),
            }
            return timings, failed_by, done
        batch = list(islice(gen, workload.chunk))


def summary(hist: Histogram, seconds: float, done: int) -> dict:
    return {
        "ops_per_s": done / seconds,
        **{
            f"latency_{name}_ms": 1e3 * hist.quantile(q)
            for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "prefix"), required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    start = perf_counter()
    probe = speed.probe_s()
    probe_wall = perf_counter() - start
    workload = WORKLOADS[args.workload](args.seed)
    gen = workload.inputs()
    batch = list(islice(gen, workload.chunk))
    # the parent times set-up until this line, less the probe's own time
    print(f"ready {probe!r} {probe_wall!r}", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = {"correct": True, "error": None}
    try:
        if args.mode == "measure":
            timings, failed_by, done = run_loop(workload, batch, gen, seconds=args.seconds)
        else:
            timings, failed_by, done = run_loop(
                workload, batch, gen, ops=args.ops, tracer=tracer
            )
        if tracer is not None:
            # snapshot before finish(), whose repeat calls are not ops
            out["stats"] = {
                name: [st.calls, st.busy_ns / 1e9, st.self_ns / 1e9, st.failed, st.failed_by]
                for name, st in tracer.stats.items()
            }
            if args.spans:
                tracer.write_spans(args.spans)
        workload.finish()
    except WrongAnswer as exc:
        print(json.dumps({"correct": False, "error": str(exc)}), flush=True)
        return 1
    out.update(
        attempted=done,
        failed=sum(failed_by.values()),
        failed_by=dict(sorted(failed_by.items())),
        **timings,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        counters=workload.counters(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
