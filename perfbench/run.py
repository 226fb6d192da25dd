"""sosq benchmark: one workload run, end to end or per layer.

    python3 perfbench/run.py --workload {sweep,solve,decompose_large,decompose_smooth}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src.  The
workload runs in fresh interpreters (worker.py), so set-up time, peak
memory and the package's caches start cold, as they do for a CLI user.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters), calls per second over --seconds of timed calls, the
p50/p90/p99 call latency, and the measuring process's peak RSS.  Times are
scaled to a reference machine speed measured next to them (speed.py); the
stamp line also carries them unscaled.

--trace 1 runs a fixed prefix of the input stream (about a quarter of
--seconds of calls) twice, untraced and then traced, and prints the
per-layer metrics of the traced run plus the share of throughput the
tracing cost.  Spans go to perfbench/out/spans-<workload>.jsonl.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is an environment stamp.
A wrong answer from sosq prints correct=false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
# Not used while writing a change; re-check a claimed gain on it.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 7
# every worker is killed once the whole run has taken this long
RUN_DEADLINE_S = 170.0
_STARTED = perf_counter()

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

_CASES = {"solve_two": ("U0_VPOS", "U0_VNEG", "UNZ"), "solve_four": ("A", "B", "C", "D")}
_FAILURES = ("ResidualExceededError", "ZeroDivisionError")

PER_LAYER = (
    "sampling.tuples.count", "sampling.tuples.busy_s",
    "solutions.evaluate.calls", "solutions.evaluate.busy_s",
    "solutions.verify.calls", "solutions.verify.self_s",
    "identities.compose_raw.calls", "identities.compose_raw.busy_s",
    "identities.compose.calls", "identities.compose.busy_s",
    "stability.excess.calls", "stability.excess.self_s",
    "stability.classify.calls", "stability.classify.busy_s",
    "exprs.parse.calls", "exprs.parse.busy_s",
    "exprs.bound.calls", "exprs.bound.busy_s",
    *(
        f"systems.{fn}.{part}"
        for fn, cases in _CASES.items()
        for part in (
            "calls", "busy_s", "screened", "failed",
            *(f"failed.{e}" for e in _FAILURES),
            *(f"case.{c}.{m}" for c in cases for m in ("calls", "busy_s")),
        )
    ),
    "sumsquares.factorize.calls", "sumsquares.factorize.busy_s",
    "sumsquares.decompose.calls", "sumsquares.decompose.self_s",
    "sumsquares.criterion.calls", "sumsquares.criterion.busy_s",
    "sumsquares.representable_ratio",
    "jsonfmt.dumps.calls", "jsonfmt.dumps.busy_s",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_share",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


_NOT_CALLED = (0, 0.0, 0.0, 0, {})


def layer_value(stats: dict, counters: dict, name: str) -> float:
    """Read one per-layer metric from the traced worker's stats."""
    if name in counters:
        return counters[name]
    if ".failed." in name:
        layer, kind = name.split(".failed.")
        return stats.get(layer, _NOT_CALLED)[4].get(kind, 0)
    layer, field = name.rsplit(".", 1)
    calls, busy, self_time, failed, _ = stats.get(layer, _NOT_CALLED)
    return {
        "calls": calls, "count": calls, "busy_s": busy,
        "self_s": self_time, "failed": failed,
    }[field]


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def spawn(args: list[str]) -> tuple[float, float, dict | None]:
    """Start a worker; return its set-up time, its speed probe and its result.

    Set-up time runs from the spawn until the worker reports ready, less
    the time the worker spent on its probe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # fixed string hashing, so dict and set layouts do not vary between runs
    env["PYTHONHASHSEED"] = "0"
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(RUN_DEADLINE_S - (start - _STARTED), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = first.split()
    if len(fields) != 3 or fields[0] != "ready":
        raise BenchError(f"worker {args} failed before set-up finished (exit {code})")
    probe, probe_wall = float(fields[1]), float(fields[2])
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if code not in (0, 1) or (code == 1 and (result or {}).get("correct", True)):
        raise BenchError(f"worker {args} exited with {code}")
    return ready - probe_wall, probe, result


def git_commit() -> str:
    """HEAD of a git checkout; "unknown" in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_sosq_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "sosq").glob("*.py"))
        ),
    }


def end_to_end(args, base: list[str]) -> tuple[dict, dict]:
    setups, probes = [], []
    for _ in range(SETUP_SAMPLES):
        ready, probe, _ = spawn(base + ["--mode", "setup"])
        setups.append(ready)
        probes.append(probe)
    _, _, res = spawn(base + ["--mode", "measure", "--seconds", str(args.seconds)])
    if not res["correct"]:
        return res, {}
    setup = statistics.median(setups)
    res["raw"]["setup_s"] = setup
    values = {
        # one probe is noisy; the median of the children's probes is not
        "setup_s": setup * speed.REFERENCE_S / statistics.median(probes),
        **res["scaled"],
        "peak_rss_mib": res["peak_rss_mib"],
    }
    return res, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, base: list[str]) -> tuple[dict, dict]:
    ops = max(1, round(WORKLOADS[args.workload].trace_rate * args.seconds / 4))
    prefix = base + ["--mode", "prefix", "--ops", str(ops)]
    _, _, plain = spawn(prefix)
    if not plain["correct"]:
        return plain, {}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.jsonl"
    _, _, traced = spawn(prefix + ["--traced", "--spans", str(spans)])
    if not traced["correct"]:
        return traced, {}
    if (traced["attempted"], traced["failed_by"]) != (plain["attempted"], plain["failed_by"]):
        traced["correct"] = False
        traced["error"] = "traced and untraced runs disagree on outcomes"
        return traced, {}
    counters = {
        "sumsquares.representable_ratio": 0.0,
        # only solve screens its inputs (workloads.Solve.solvable)
        **{name: 0 for name in PER_LAYER if name.endswith(".screened")},
        **traced["counters"],
    }
    counters["trace.overhead_share"] = (
        1.0 - traced["scaled"]["ops_per_s"] / plain["scaled"]["ops_per_s"]
    )
    metrics = {
        name: {"value": layer_value(traced["stats"], counters, name), "unit": layer_unit(name)}
        for name in PER_LAYER
    }
    return traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sosq" / "__init__.py").is_file():
        print(f"error: no sosq package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, base)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = {"stamp": stamp(args)}
    if res["correct"]:
        info.update(
            failed_by_type=res["failed_by"],
            counters=res["counters"],
            failed_share=res["failed"] / res["attempted"],
            latency_samples=res["attempted"],
            timed_s=res["timed_s"],
            unscaled=res["raw"],
        )
    else:
        info["error"] = res["error"]
        print(f"error: wrong answer: {res['error']}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res.get("attempted", 1),
        "failed": res.get("failed", 0),
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
