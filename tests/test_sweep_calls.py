"""A regular sweep folds each block once, column by column.

On the benchmark's sweep mix (2,000 samples, no error and no non-finite
value in any block) f.columns runs 3 times a block in verify (at p1, at
p2 and at p1 o p2) and 4 times in run_stability (also at p1 o p1), and
the per-point f never runs in a sweep.  Each bound's column form runs once
per slot and block, and once more per odd slot and block for the
conclusion.  check_conclusion_* sweeps the hypothesis at (p, p) alone:
3 f.columns calls a block, and one column call per slot and block.  A
block folded again one sample at a time would show here as extra calls;
the equivalence tests against the per-sample reference loops cannot see
it, since the refold gives the same report.
"""

import math

import pytest

from sosq import stability
from sosq.sampling import UniformSampler
from sosq.solutions import (
    Arity,
    MultiplicativeFamily,
    SolutionModel,
    verify_equation_four,
    verify_equation_two,
)

SAMPLES = 2000
BLOCKS = math.ceil(SAMPLES / 256)


class Counted:
    """fn with counts of its per-point and column-form calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.column_calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)

    def columns(self, *cols):
        self.column_calls += 1
        return self.fn.columns(*cols)


def model(arity, c, sign=1):
    family = MultiplicativeFamily.power(c)
    return Counted(SolutionModel(Arity(arity), family, sign))


@pytest.mark.parametrize("verify, arity, sign", [
    (verify_equation_two, 2, 1),
    (verify_equation_four, 4, 1),
    (verify_equation_two, 2, -1),
])
def test_verify_folds_each_block_once(verify, arity, sign):
    f = model(arity, 2.0, sign)
    report = verify(f, UniformSampler(3, SAMPLES))
    assert report.failure_reason is None
    assert f.column_calls == 3 * BLOCKS
    assert f.calls == 0


@pytest.mark.parametrize("arity, c, spec", [
    (2, 2.0, "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1"),
    (4, 1.0, "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1;"
             "abs(x)+3;min(x*x+1,100);1;x*x+abs(x)+1"),
    # valid caps whose column sum overflows stay on the column path
    (4, 2.0, "1.5e308"),
])
def test_run_stability_folds_each_block_once(arity, c, spec, monkeypatch):
    f = model(arity, c)
    parsed = stability.BoundSpec.from_expressions(Arity(arity), spec.split(";"))
    slots = tuple(map(Counted, parsed.bounds))
    bounds = stability.BoundSpec(Arity(arity), slots)
    # the counts as the sweep ends, before the diagonal classification
    # evaluates f and the bounds point by point
    at_sweep_end = []
    sweep = stability._run_excess_sweep

    def counted_sweep(*args):
        reports = sweep(*args)
        at_sweep_end.append((f.calls, f.column_calls, [
            (slot.calls, slot.column_calls) for slot in slots
        ]))
        return reports

    monkeypatch.setattr(stability, "_run_excess_sweep", counted_sweep)
    stability.run_stability(f, bounds, seed=3, samples=SAMPLES)
    assert at_sweep_end == [(0, 4 * BLOCKS, [
        (0, BLOCKS * (1 + k % 2)) for k in range(2 * arity)
    ])]


@pytest.mark.parametrize("check, arity, spec", [
    (stability.check_conclusion_two, 2, "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1"),
    (stability.check_conclusion_four, 4, "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1;"
                                         "abs(x)+3;min(x*x+1,100);1;x*x+abs(x)+1"),
])
def test_conclusion_folds_each_block_once(check, arity, spec):
    f = model(arity, 1.0)
    parsed = stability.BoundSpec.from_expressions(Arity(arity), spec.split(";"))
    slots = tuple(map(Counted, parsed.bounds))
    report = check(f, stability.BoundSpec(Arity(arity), slots), UniformSampler(3, SAMPLES))
    assert report.passed and len(report.worst_point) == arity
    assert (f.calls, f.column_calls) == (0, 3 * BLOCKS)
    assert [(slot.calls, slot.column_calls) for slot in slots] == [(0, BLOCKS)] * (2 * arity)
