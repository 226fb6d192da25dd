"""Candidate solutions of the square-composition functional equations.

A two-variable function f satisfies

    f(x1, y1) f(x2, y2) = f(x1 x2 + y1 y2, x1 y2 - y1 x2)

exactly when it has the shape sigma(point) * m(||point||) for a
multiplicative m and a sign map sigma, and analogously in four variables
with the four-square composition.  The shape is necessary; it is
sufficient for sigma identically +1 with any multiplicative m, and other
sign maps are treated as candidates only.  verify_equation_two/four
therefore re-check the equation on a seeded sample sweep, and the
extract_structure_* helpers recover (m, sigma) tables from a black-box f.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from .identities import compose_two_raw, compose_four_raw

__all__ = [
    "Arity",
    "FamilyKind",
    "MultiplicativeFamily",
    "SignumMap",
    "SolutionModel",
    "VerificationReport",
    "StructureReport",
    "builtin_families",
    "evaluate",
    "verify_equation_two",
    "verify_equation_four",
    "extract_structure_two",
    "extract_structure_four",
    "probe_ladder",
    "default_probes_two",
    "default_probes_four",
]


class Arity(IntEnum):
    TWO = 2
    FOUR = 4


class FamilyKind(Enum):
    POWER = "power"
    SIGNED_POWER = "signedpower"
    CONSTANT_ONE = "one"
    ZERO = "zero"


@dataclass(frozen=True)
class MultiplicativeFamily:
    """A map m on the reals with m(s*t) = m(s)*m(t).

    Every kind satisfies the law identically (POWER with exponent 0 is the
    constant 1, including at 0).  Negative-exponent powers are undefined at
    0 and evaluate to 0 there by convention; `undefined_at_zero` exposes
    that so callers can flag it.
    """

    kind: FamilyKind
    exponent: float = 0.0

    @classmethod
    def power(cls, c: float) -> "MultiplicativeFamily":
        return cls(FamilyKind.POWER, float(c))

    @classmethod
    def signed_power(cls, c: float) -> "MultiplicativeFamily":
        return cls(FamilyKind.SIGNED_POWER, float(c))

    @classmethod
    def one(cls) -> "MultiplicativeFamily":
        return cls(FamilyKind.CONSTANT_ONE)

    @classmethod
    def zero(cls) -> "MultiplicativeFamily":
        return cls(FamilyKind.ZERO)

    @property
    def undefined_at_zero(self) -> bool:
        return (
            self.kind in (FamilyKind.POWER, FamilyKind.SIGNED_POWER)
            and self.exponent < 0
        )

    def __call__(self, t: float) -> float:
        # A power past the double range is inf, not an OverflowError, so
        # sweeps report it as a non-finite value.
        kind = self.kind
        if kind is FamilyKind.POWER:
            if t == 0.0:
                return 1.0 if self.exponent == 0.0 else 0.0
            try:
                return abs(t) ** self.exponent
            except OverflowError:
                return math.inf
        if kind is FamilyKind.SIGNED_POWER:
            if t == 0.0:
                return 0.0
            try:
                mag = abs(t) ** self.exponent
            except OverflowError:
                mag = math.inf
            return mag if t > 0.0 else -mag
        if kind is FamilyKind.CONSTANT_ONE:
            return 1.0
        return 0.0


def builtin_families() -> tuple[MultiplicativeFamily, ...]:
    """Representative built-in families, used by sweeps and tests."""
    return (
        MultiplicativeFamily.power(0.0),
        MultiplicativeFamily.power(1.0),
        MultiplicativeFamily.power(2.0),
        MultiplicativeFamily.power(3.0),
        MultiplicativeFamily.signed_power(1.0),
        MultiplicativeFamily.signed_power(2.0),
        MultiplicativeFamily.one(),
        MultiplicativeFamily.zero(),
    )


@dataclass(frozen=True)
class SignumMap:
    """Sign map into {+1, -1}; fn=None means constantly +1."""

    fn: Callable[[tuple[float, ...]], int] | None = None

    @classmethod
    def constant_plus(cls) -> "SignumMap":
        return cls()

    @classmethod
    def constant_minus(cls) -> "SignumMap":
        return cls(lambda point: -1)

    @classmethod
    def from_function(cls, fn: Callable[[tuple[float, ...]], int]) -> "SignumMap":
        return cls(fn)

    def __call__(self, point: tuple[float, ...]) -> int:
        if self.fn is None:
            return 1
        s = self.fn(point)
        if s == 1:
            return 1
        if s == -1:
            return -1
        raise ValueError(f"signum map returned {s!r}; must be +1 or -1")


@dataclass(frozen=True)
class SolutionModel:
    """Candidate solution f(point) = sigma(point) * m(||point||)."""

    arity: Arity
    m: MultiplicativeFamily
    sigma: SignumMap = field(default_factory=SignumMap)

    def as_function(self) -> Callable[..., float]:
        return lambda *coords: evaluate(self, coords)


def evaluate(model: SolutionModel, point: Iterable[float]) -> float:
    """Evaluate the model at a point of matching arity."""
    point = tuple(point)
    # a finite sum means every coordinate is finite; an overflowing sum of
    # finite coordinates takes the checks below and passes them
    if len(point) == model.arity and math.isfinite(sum(point)):
        return model.sigma(point) * model.m(math.hypot(*point))
    if len(point) != int(model.arity):
        raise ValueError(
            f"point has {len(point)} coordinates; model arity is {int(model.arity)}"
        )
    if not all(math.isfinite(t) for t in point):
        raise ValueError(f"point {point!r} has non-finite coordinates")
    return model.sigma(point) * model.m(math.hypot(*point))


@dataclass(frozen=True)
class VerificationReport:
    """Result of a seeded equation sweep.

    worst_point is the sample attaining max_abs_residual; the verdict
    compares max_rel_residual against tol.  A non-finite f value fails the
    sweep outright, with the offending sample recorded.
    """

    arity: int
    sample_count: int
    seed: int
    tol: float
    max_abs_residual: float
    max_rel_residual: float
    worst_point: tuple[float, ...]
    verdict: str
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "tol": self.tol,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "worst_point": list(self.worst_point),
            "verdict": self.verdict,
            "failure_reason": self.failure_reason,
        }


def _run_equation_sweep(f, sampler, tol: float, arity: int, compose) -> VerificationReport:
    width = 2 * arity
    max_abs = -1.0
    max_rel = 0.0
    worst: tuple[float, ...] = ()
    for sample in sampler.tuples(width):
        p1, p2 = sample[:arity], sample[arity:]
        lhs = f(*p1) * f(*p2)
        rhs = f(*compose(*sample))
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            return VerificationReport(
                arity, sampler.count, sampler.seed, tol,
                math.inf, math.inf, sample, "FAIL",
                failure_reason=f"non-finite value at sample {sample!r}",
            )
        r = abs(lhs - rhs)
        rel = r / (1.0 + max(abs(lhs), abs(rhs)))
        if r > max_abs:
            max_abs = r
            worst = sample
        if rel > max_rel:
            max_rel = rel
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
    return _run_equation_sweep(f, sampler, tol, 2, compose_two_raw)


def verify_equation_four(f, sampler, tol: float = 1e-9) -> VerificationReport:
    """Four-variable analog of verify_equation_two over 8-tuples."""
    return _run_equation_sweep(f, sampler, tol, 4, compose_four_raw)


def probe_ladder() -> tuple[float, ...]:
    """Signed powers of two spanning 2^-4 .. 2^6, ascending."""
    ks = range(-4, 7)
    return tuple(sorted([-(2.0 ** k) for k in ks] + [2.0 ** k for k in ks]))


def default_probes_two() -> tuple[tuple[float, float], ...]:
    axis = probe_ladder() + (0.0,)
    return tuple((u, v) for u in axis for v in axis)


def default_probes_four() -> tuple[tuple[float, ...], ...]:
    ladder = probe_ladder()
    sub = (-16.0, -4.0, -1.0, -0.25, 0.25, 1.0, 4.0, 16.0)
    points: dict[tuple[float, ...], None] = {(0.0, 0.0, 0.0, 0.0): None}
    for i in range(4):
        for t in ladder:
            p = [0.0] * 4
            p[i] = t
            points[tuple(p)] = None
    for t in ladder:
        points[(t, t, t, t)] = None
    for i in range(4):
        for j in range(i + 1, 4):
            for s in sub:
                for t in sub:
                    p = [0.0] * 4
                    p[i], p[j] = s, t
                    points[tuple(p)] = None
    return tuple(points)


@dataclass(frozen=True)
class StructureReport:
    """(m, sigma) tables read off a black-box f, with diagnostics.

    m_table holds (t, f on the first axis at t); sigma_table holds
    (point, f(point) / m(||point||)) wherever |m| clears tol, with the
    convention sigma = +1 where m vanishes (those points are listed in
    zero_m_points).  violations collects probes where |sigma| strays from 1
    by more than tol -- evidence that f does not have the product shape.
    consistent means no violations; it does not by itself certify that f
    solves the functional equation.
    """

    arity: int
    tol: float
    m_table: tuple[tuple[float, float], ...]
    sigma_table: tuple[tuple[tuple[float, ...], float], ...]
    violations: tuple[tuple[tuple[float, ...], float], ...]
    zero_m_points: tuple[tuple[float, ...], ...]
    consistent: bool


def _extract_structure(f, probes, tol: float, arity: int) -> StructureReport:
    pad = (0.0,) * (arity - 1)
    m_table = tuple((t, f(t, *pad)) for t in probe_ladder() + (0.0,))
    sigma_table = []
    violations = []
    zero_m = []
    for point in probes:
        m_at_norm = f(math.hypot(*point), *pad)
        if abs(m_at_norm) <= tol:
            zero_m.append(point)
            sigma = 1.0
        else:
            sigma = f(*point) / m_at_norm
            if abs(abs(sigma) - 1.0) > tol:
                violations.append((point, sigma))
        sigma_table.append((point, sigma))
    return StructureReport(
        arity=arity,
        tol=tol,
        m_table=m_table,
        sigma_table=tuple(sigma_table),
        violations=tuple(violations),
        zero_m_points=tuple(zero_m),
        consistent=not violations,
    )


def extract_structure_two(f, probes=None, tol: float = 1e-9) -> StructureReport:
    """Recover m(t) = f(t, 0) and sigma = f / (m o norm) on a probe grid."""
    return _extract_structure(f, probes or default_probes_two(), tol, 2)


def extract_structure_four(f, probes=None, tol: float = 1e-9) -> StructureReport:
    """Four-variable analog of extract_structure_two (axis is f(t, 0, 0, 0))."""
    return _extract_structure(f, probes or default_probes_four(), tol, 4)
