"""Bit-for-bit pins of solve_two and solve_four.

INPUTS is a seeded set of right-hand sides: log-uniform values over
1e-300..1e300, every case label, the cancellation regions, subnormals,
signed zeros, the edge of the double range, tolerances too small to meet,
non-finite inputs and bad zero_eps.  tests/data/solver_golden.txt holds,
one JSON record per line, the repr of each call's solution, case, residual,
norm_residual and alpha, or the type and message of what it raised.

Regenerate the data file after an intended change of the solvers with

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import json
import math
import random
from pathlib import Path

import pytest

from sosq.systems import solve_four, solve_two

DATA = Path(__file__).parent / "data" / "solver_golden.txt"
SOLVERS = {"solve_two": solve_two, "solve_four": solve_four}

TINY = 5e-324           # the least subnormal
SUB = 2.5e-310          # a subnormal well above it
HUGE = 1.7976931348623157e308


def _inputs():
    rng = random.Random(20260)
    log_uniform = lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
    pos = lambda: abs(log_uniform())
    two, four = [], []
    for _ in range(100):
        two.append((log_uniform(), log_uniform()))
        four.append(tuple(log_uniform() for _ in range(4)))
    for _ in range(15):
        two += [(0.0, pos()), (0.0, -pos())]
        four += [
            (0.0, -pos(), 0.0, 0.0),                  # A
            (log_uniform(), pos(), log_uniform(), 0.0),   # B
            (log_uniform(), -pos(), log_uniform(), 0.0),  # C
            (log_uniform(), log_uniform(), log_uniform(), log_uniform()),  # D
        ]
    for _ in range(25):
        # |v| >> |u| with v < 0, and b << 0 dominating a, c and d
        e = rng.uniform(-100, 300)
        small = lambda: rng.choice((-1.0, 1.0)) * 10.0 ** (e - rng.uniform(8, 200))
        two.append((small(), -(10.0**e)))
        four.append((small(), -(10.0**e), small(), small()))
    # subnormals, signed zeros and the ends of the double range
    edges = (0.0, -0.0, TINY, -TINY, SUB, -SUB, 1.0, -1.0, HUGE, -HUGE)
    two += [(u, v) for u in edges for v in edges]
    for _ in range(60):
        four.append(tuple(rng.choice(edges) for _ in range(4)))
    four += [
        (0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0), (0.0, -0.0, 0.0, -0.0),
        (6.242860920368655e-05, -2.154589341872986e201, -HUGE, -HUGE),
        (-3.2805988059568653e+76, -1.5827434674871792e+201,
         -5.144581422464274e-197, -2.5331356772152737e+25),
    ]
    calls = [("solve_two", rhs, {}) for rhs in two]
    calls += [("solve_four", rhs, {}) for rhs in four]
    # tolerances too small to meet, or met only by an exact solution
    for rhs in two[:10] + [(3.0, 4.0), (1e-300, 1e300)]:
        calls.append(("solve_two", rhs, {"tol": 1e-30}))
        calls.append(("solve_two", rhs, {"tol": 0.0}))
    for rhs in four[:10] + [(1.0, 2.0, 3.0, 4.0)]:
        calls.append(("solve_four", rhs, {"tol": 1e-30}))
        calls.append(("solve_four", rhs, {"tol": 0.0}))
    # zero_eps widens the case labels; a negative or NaN one raises
    for eps in (1e-200, 1.0, 1e300, -1.0, math.nan):
        calls.append(("solve_two", (1e-250, 1e10), {"zero_eps": eps}))
        calls.append(("solve_four", (1e-250, 4.0, 1e-250, 1e-250), {"zero_eps": eps}))
        calls.append(("solve_four", (1e-250, -4.0, 1e-250, 0.0), {"zero_eps": eps}))
    # non-finite inputs, in every position
    for bad in (math.nan, math.inf, -math.inf):
        calls += [("solve_two", (bad, 1.0), {}), ("solve_two", (1.0, bad), {})]
        for k in range(4):
            calls.append(("solve_four", tuple(bad if i == k else 1.0 for i in range(4)), {}))
    calls.append(("solve_two", (math.nan, math.inf), {}))
    return calls


INPUTS = _inputs()


def run_solver(name, rhs, kwargs):
    record = {
        "solver": name,
        "rhs": [repr(t) for t in rhs],
        "kwargs": {k: repr(v) for k, v in kwargs.items()},
    }
    try:
        report = SOLVERS[name](*rhs, **kwargs)
    except Exception as exc:
        record["raised"] = [type(exc).__name__, str(exc)]
        if hasattr(exc, "residual"):
            record["raised"].append(repr(exc.residual))
        return record
    record["report"] = {
        "solution": repr(report.solution),
        "case": repr(report.case_label),
        "residual": repr(report.residual),
        "norm_residual": repr(report.norm_residual),
        "alpha": repr(report.alpha),
        "tol": repr(report.tol),
    }
    return record


@pytest.fixture(scope="module")
def golden():
    with DATA.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_golden_covers_every_input(golden):
    keys = [(rec["solver"], rec["rhs"], rec["kwargs"]) for rec in golden]
    assert keys == [
        (name, [repr(t) for t in rhs], {k: repr(v) for k, v in kw.items()})
        for name, rhs, kw in INPUTS
    ]


def test_golden_reaches_every_outcome(golden):
    seen = {rec["report"]["case"] for rec in golden if "report" in rec}
    raised = {rec["raised"][0] for rec in golden if "raised" in rec}
    assert {c.split(":")[0].strip("<") for c in seen} == {
        f"Case{k}.{c}"
        for k, cases in (("Two", ("U0_VPOS", "U0_VNEG", "UNZ")), ("Four", "ABCD"))
        for c in cases
    }
    assert raised == {"NonFiniteInputError", "ResidualExceededError", "ValueError"}


@pytest.mark.parametrize("index", range(len(INPUTS)))
def test_solver_bits(index, golden):
    assert run_solver(*INPUTS[index]) == golden[index]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        for call in INPUTS:
            fh.write(json.dumps(run_solver(*call)) + "\n")
