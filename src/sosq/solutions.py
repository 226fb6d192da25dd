"""Candidate solutions of the square-composition functional equations.

A two-variable function f satisfies

    f(x1, y1) f(x2, y2) = f(x1 x2 + y1 y2, x1 y2 - y1 x2)

exactly when it has the shape sigma(point) * m(||point||) for a
multiplicative m and a sign map sigma, and analogously in four variables
with the four-square composition.  The shape is necessary; it is
sufficient for sigma identically +1 with any multiplicative m.  A
SolutionModel takes sigma as the constant sign +1 or -1; any other
candidate is a plain callable f.  verify_equation_two/four re-check the
equation for any f on a seeded sample sweep.  A sweep takes any sampler
with seed, count and blocks(width), its samples in blocks of columns
(one that fails at a sample yields the samples before it first):
sosq.sampling.UniformSampler, or the StreamSampler, FixedSampler and
DiagonalSampler in tests/oracles.py, which also holds builtin_families and
extract_structure, the (m, sigma) tables read off a black-box f.

evaluate(model, point) is the reference evaluation, and a model is its
own function: model(*coords) is evaluate(model, coords), values and errors
alike.  model.columns(*cols) is its column form, which computes
sign * t**c over a block of norms t at once and maps the model point by
point wherever a norm is 0 or non-finite or a power overflows.

A sweep folds each block of sampler.blocks with one kernel: f.columns
(a model's column form) or else f point by point, then the
residuals and the block's max at its first index; the first sample with
a non-finite value fails the sweep.  f may return float, complex or
Fraction values, as in sosq.stability: a block whose values have a finite
sum is finite, and only another block is tested value by value.  The
kernel folds a whole block or raises and changes nothing, and a block
that raises is folded again by the same kernel one sample at a time.  So
every report, FAIL sample, tie and error is a per-sample sweep's; f must
be deterministic.
"""

from __future__ import annotations

import cmath
import math
from math import hypot, isfinite
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum, IntEnum
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv

from .identities import compose_two_raw, compose_four_raw

__all__ = [
    "Arity",
    "FamilyKind",
    "MultiplicativeFamily",
    "SolutionModel",
    "VerificationReport",
    "evaluate",
    "verify_equation_two",
    "verify_equation_four",
]


class Arity(IntEnum):
    TWO = 2
    FOUR = 4


class FamilyKind(Enum):
    POWER = "power"
    SIGNED_POWER = "signedpower"
    ZERO = "zero"


class MultiplicativeFamily(namedtuple(
    "MultiplicativeFamily", "kind exponent", defaults=(0.0,)
)):
    """A map m on the reals with m(s*t) = m(s)*m(t).

    Every kind satisfies the law identically (POWER with exponent 0 is the
    constant 1, including at 0).  Negative-exponent powers are undefined at
    0 and evaluate to 0 there by convention.
    """

    __slots__ = ()

    @classmethod
    def power(cls, c: float) -> "MultiplicativeFamily":
        return cls(FamilyKind.POWER, float(c))

    @classmethod
    def signed_power(cls, c: float) -> "MultiplicativeFamily":
        return cls(FamilyKind.SIGNED_POWER, float(c))

    @classmethod
    def zero(cls) -> "MultiplicativeFamily":
        return cls(FamilyKind.ZERO)

    def __call__(self, t: float) -> float:
        kind = self.kind
        if kind is FamilyKind.ZERO:
            return 0.0
        if t == 0.0:
            return 1.0 if kind is FamilyKind.POWER and self.exponent == 0.0 else 0.0
        # A power past the double range is inf, not an OverflowError, so
        # sweeps report it as a non-finite value.
        try:
            mag = abs(t) ** self.exponent
        except OverflowError:
            mag = math.inf
        if kind is FamilyKind.POWER:
            return mag
        return mag if t > 0.0 else -mag


class SolutionModel(namedtuple("SolutionModel", "arity m sign")):
    """Candidate solution f(point) = sign * m(||point||), sign +1 or -1."""

    __slots__ = ()

    def __new__(cls, arity: Arity, m: MultiplicativeFamily, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign is {sign!r}; must be +1 or -1")
        return tuple.__new__(cls, (arity, m, sign))

    # namedtuple's _make (and _replace, built on it) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __call__(self, *coords) -> float:
        return evaluate(self, coords)

    def columns(self, *cols) -> list:
        """list(map(self, *cols)), bit for bit, for the sweeps' block pass."""
        arity, m, sign = self
        # every hypot finite and nonzero: each point's evaluate takes
        # sign * m(t) with t > 0, so |t|^c is t^c and a signed power is on
        # its positive branch
        if len(cols) == arity:
            ts = list(map(hypot, *cols))
            if all(ts) and isfinite(sum(ts)):
                if m.kind is FamilyKind.ZERO:
                    return [sign * 0.0] * len(ts)
                try:
                    # 1 * x is x bit for bit
                    powers = map(pow, ts, repeat(m.exponent))
                    return list(powers if sign == 1 else map(mul, repeat(sign), powers))
                except OverflowError:
                    pass
        return list(map(self, *cols))


def evaluate(model: SolutionModel, point: Iterable[float]) -> float:
    """Evaluate the model at a point of matching arity."""
    point = tuple(point)
    if len(point) != model.arity:
        raise ValueError(
            f"point has {len(point)} coordinates; model arity is {int(model.arity)}"
        )
    # a finite sum means finite coordinates, and an overflowing sum of
    # finite ones passes the per-coordinate test
    if not math.isfinite(sum(point)) and not all(math.isfinite(t) for t in point):
        raise ValueError(f"point {point!r} has non-finite coordinates")
    return model.sign * model.m(math.hypot(*point))


class VerificationReport(namedtuple(
    "VerificationReport",
    "arity sample_count seed tol max_abs_residual max_rel_residual worst_point verdict"
    " failure_reason",
    defaults=(None,),
)):
    """Result of a seeded equation sweep.

    worst_point is the sample attaining max_abs_residual; the verdict
    compares max_rel_residual against tol.  A non-finite f value fails the
    sweep outright, with the offending sample recorded.
    """

    __slots__ = ()


def _columns_of(f):
    """f's column form: f.columns if it has one, else f mapped point by point."""
    return getattr(f, "columns", None) or (lambda *cols: list(map(f, *cols)))


def _fold_blocks(fold, sampler, width: int):
    """fold(cols) over sampler.blocks(width); the first result that is not
    None ends the sweep and is returned.

    fold folds a whole block or raises and changes nothing.  A block that
    raises is folded again one sample at a time, each as a block of one, so
    the error comes again at its sample, after every sample before it: the
    outcome of a per-sample sweep.
    """
    for cols in sampler.blocks(width):
        try:
            result = fold(cols)
        except Exception:
            for sample in zip(*cols):
                result = fold(list(zip(sample)))
                if result is not None:
                    break
        if result is not None:
            return result


def _finite_sum(lhs, rhs) -> bool:
    """Whether sum(lhs) + sum(rhs) is finite, for float, complex and
    Fraction values alike; an exact sum past the double range is not."""
    try:
        return cmath.isfinite(sum(lhs) + sum(rhs))
    except OverflowError:
        return False


def _run_equation_sweep(f, sampler, tol: float, arity: int) -> VerificationReport:
    compose = compose_two_raw if arity == 2 else compose_four_raw
    columns = _columns_of(f)
    max_abs = -1.0
    max_rel = 0.0
    worst: tuple[float, ...] = ()

    def fold(cols):
        nonlocal max_abs, max_rel, worst
        lhs = list(map(mul, columns(*cols[:arity]), columns(*cols[arity:])))
        rhs = columns(*zip(*map(compose, *cols)))
        # a non-finite value makes the sum non-finite, but so can finite
        # values near DBL_MAX; only then is each value tested
        if not _finite_sum(lhs, rhs):
            finite = [cmath.isfinite(a) and cmath.isfinite(b) for a, b in zip(lhs, rhs)]
            if not all(finite):
                # the first sample with a non-finite value fails the sweep
                sample = tuple(map(itemgetter(finite.index(False)), cols))
                return VerificationReport(
                    arity, sampler.count, sampler.seed, tol,
                    math.inf, math.inf, sample, "FAIL",
                    failure_reason=f"non-finite value at sample {sample!r}",
                )
        r = list(map(abs, map(sub, lhs, rhs)))
        top_abs = max(r)
        top_rel = max(map(truediv, r, map(
            add, repeat(1.0), map(max, map(abs, lhs), map(abs, rhs))
        )))
        # the first index of the max: ties go to the earliest sample
        if top_abs > max_abs:
            max_abs = top_abs
            worst = tuple(map(itemgetter(r.index(top_abs)), cols))
        if top_rel > max_rel:
            max_rel = top_rel

    failed = _fold_blocks(fold, sampler, 2 * arity)
    if failed is not None:
        return failed
    verdict = "PASS" if max_rel <= tol else "FAIL"
    return VerificationReport(
        arity, sampler.count, sampler.seed, tol, max(max_abs, 0.0), max_rel,
        worst, verdict,
    )


def verify_equation_two(f, sampler, tol: float = 1e-9) -> VerificationReport:
    """Check f(p1) f(p2) = f(p1 o p2) over seeded samples (two variables).

    The sampler yields quadruples (x1, y1, x2, y2); PASS means the maximum
    relative residual stays within tol.
    """
    return _run_equation_sweep(f, sampler, tol, 2)


def verify_equation_four(f, sampler, tol: float = 1e-9) -> VerificationReport:
    """Four-variable analog of verify_equation_two over 8-tuples."""
    return _run_equation_sweep(f, sampler, tol, 4)
