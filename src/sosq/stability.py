"""Stability checks for the square-composition functional equations.

Given nonnegative bound functions, the hypothesis checks measure how far a
sampled f strays from the equation relative to the pointwise cap

    |f(p1) f(p2) - f(p1 o p2)|  <=  min(bounds at the sample coordinates),

and the conclusion checks do the same for the diagonal consequence
|f(p)^2 - f(||p||^2 on the first axis)|.  A function satisfying the
hypothesis has a first-axis restriction that is either bounded or
multiplicative; classify_diagonal renders that verdict empirically, with
INCONCLUSIVE as the honest third answer (a finite sample sweep cannot
prove the dichotomy, only exhibit evidence).

f may return float, complex, or Fraction values; the checks never coerce,
so exact inputs stay exact.  Real-valued f is simply the complex case with
zero imaginary part.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .exprs import parse_bound_expression
from .identities import compose_two_raw, compose_four_raw
from .sampling import UniformSampler
from .solutions import Arity, probe_ladder

__all__ = [
    "InvalidBoundError",
    "BoundSpec",
    "ExcessReport",
    "DiagonalVerdict",
    "DiagonalReport",
    "StabilityReport",
    "check_hypothesis_two",
    "check_conclusion_two",
    "check_hypothesis_four",
    "check_conclusion_four",
    "classify_diagonal",
    "run_stability",
    "DEFAULT_GROWTH_THRESHOLD",
    "DEFAULT_MULT_TOL",
]

DEFAULT_GROWTH_THRESHOLD = 1e6
DEFAULT_MULT_TOL = 1e-6


class InvalidBoundError(ValueError):
    """A bound function raised, or returned a value outside [0, inf), at a probe."""


@dataclass(frozen=True)
class BoundSpec:
    """Per-coordinate nonnegative bound functions of one real variable.

    There are 2 * arity slots, one per sample coordinate: (M1, M2, N1, N2)
    for two variables, (K1, K2, L1, L2, M1, M2, N1, N2) for four.
    """

    arity: Arity
    bounds: tuple[Callable[[float], float], ...]

    def __post_init__(self) -> None:
        want = 2 * self.arity
        if len(self.bounds) != want:
            raise ValueError(
                f"arity {int(self.arity)} needs {want} bounds, got {len(self.bounds)}"
            )

    @classmethod
    def constant(cls, arity: Arity, value: float) -> "BoundSpec":
        if value < 0:
            raise InvalidBoundError(f"constant bound {value!r} is negative")
        fn = lambda x: value
        return cls(arity, (fn,) * (2 * arity))

    @classmethod
    def from_expressions(cls, arity: Arity, exprs: Sequence[str]) -> "BoundSpec":
        """Build from expression strings; a single string is used for all slots."""
        want = 2 * arity
        if len(exprs) == 1:
            exprs = list(exprs) * want
        if len(exprs) != want:
            raise ValueError(
                f"arity {int(arity)} needs 1 or {want} expressions, got {len(exprs)}"
            )
        return cls(arity, tuple(parse_bound_expression(e) for e in exprs))


def _bound_at(fn: Callable[[float], float], t: float):
    # NaN fails the range test too; complex values raise TypeError there
    try:
        value = fn(t)
        if 0 <= value < math.inf:
            return value
        problem = f"bound value {value!r} is not in [0, inf)"
    except (ArithmeticError, TypeError) as exc:
        problem = f"bound raised {type(exc).__name__}: {exc}"
    raise InvalidBoundError(f"{problem} at probe {t!r}")


@dataclass(frozen=True)
class ExcessReport:
    """Worst positive excess of the defect over the pointwise bound cap.

    max_excess is 0 when the inequality holds on every sample.  worst_point
    is the sample with the largest raw defect-minus-cap, recorded together
    with the defect and cap there.
    """

    max_excess: float
    worst_point: tuple[float, ...] | None
    defect_at_worst: float
    bound_at_worst: float
    sample_count: int
    seed: int
    tol: float
    passed: bool


def _caps(fns, probes) -> list:
    """fns[k](probes[k]) for every slot k, checked like _bound_at.

    The slots are evaluated and checked together.  If anything is off, they
    are re-run one by one through _bound_at, which raises what a slot-by-slot
    evaluation raises first, whatever the fast pass tripped on.
    """
    try:
        caps = [fn(t) for fn, t in zip(fns, probes)]
        # a NaN or inf anywhere makes the sum non-finite; an overflowing sum
        # of valid caps only costs the re-run
        if 0 <= min(caps) and sum(caps) < math.inf:
            return caps
    except Exception:
        pass
    return [_bound_at(fn, t) for fn, t in zip(fns, probes)]


class _Worst:
    """Running worst excess of the defect over the pointwise cap."""

    __slots__ = ("excess", "point", "defect", "cap")

    def __init__(self) -> None:
        self.excess = None
        self.point = None
        self.defect = 0.0
        self.cap = 0.0

    def add(self, point, lhs, rhs, caps) -> None:
        defect = abs(lhs - rhs)
        if defect != defect:
            # NaN from an overflowed value (inf - inf, 0 * inf): no cap bounds it
            defect = math.inf
        cap = min(caps)
        excess = defect - cap
        if self.excess is None or excess > self.excess:
            self.excess = excess
            self.point = point
            self.defect = defect
            self.cap = cap

    def report(self, sampler, tol) -> ExcessReport:
        excess = max(0.0, float(self.excess)) if self.excess is not None else 0.0
        return ExcessReport(
            max_excess=excess,
            worst_point=self.point,
            defect_at_worst=float(self.defect),
            bound_at_worst=float(self.cap),
            sample_count=sampler.count,
            seed=sampler.seed,
            tol=tol,
            passed=excess <= tol,
        )


def _run_excess_sweep(f, bounds: BoundSpec, sampler, tol, compose, hypothesis, conclusion):
    """One sweep feeding the hypothesis and/or the conclusion accumulator.

    With the hypothesis the samples are (p1, p2), else p1 alone.  The
    conclusion pairs p1 with itself, so it shares f(p1) and the even bound
    slots (all at p1) with the hypothesis.  When both run, a conclusion-side
    exception is held until the sweep ends: a hypothesis exception anywhere
    in the sweep wins, as it would in two sweeps run one after the other.
    Returns the (hypothesis, conclusion) reports, None for a side not run.
    """
    arity = int(bounds.arity)
    slots = bounds.bounds
    odd_slots = slots[1::2]
    n = len(slots)
    # coordinate i of p1 feeds slot 2i, of p2 slot 2i+1
    hyp_probes = itemgetter(*[k // 2 + k % 2 * arity for k in range(n)])
    # p1 paired with itself: coordinate i feeds slots 2i and 2i+1
    con_probes = itemgetter(*[k // 2 for k in range(n)])
    hyp = _Worst() if hypothesis else None
    con = _Worst() if conclusion else None
    held = None
    for sample in sampler.tuples(2 * arity if hyp else arity):
        p1 = sample[:arity]
        if hyp is not None:
            caps = _caps(slots, hyp_probes(sample))
            f1 = f(*p1)
            hyp.add(sample, f1 * f(*sample[arity:]), f(*compose(*sample)), caps)
        if con is None or held is not None:
            continue
        try:
            if hyp is None:
                con_caps = _caps(slots, con_probes(p1))
                f1 = f(*p1)
            else:
                con_caps = caps.copy()
                con_caps[1::2] = _caps(odd_slots, p1)
            con.add(p1, f1 * f1, f(*compose(*p1, *p1)), con_caps)
        except Exception as exc:
            if hyp is None:
                raise
            held = exc
    if held is not None:
        raise held
    return (
        hyp.report(sampler, tol) if hyp else None,
        con.report(sampler, tol) if con else None,
    )


def check_hypothesis_two(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x1,y1) f(x2,y2) - f(composed pair)| over
    min(M1(x1), M2(x2), N1(y1), N2(y2)), swept over 4-tuples."""
    _require_arity(bounds, Arity.TWO)
    return _run_excess_sweep(f, bounds, sampler, tol, compose_two_raw, True, False)[0]


def check_conclusion_two(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x,y)^2 - f(x^2+y^2, 0)| over min(M1(x), M2(x), N1(y), N2(y)).

    Computed by pairing each sample with itself, so on shared samples it
    agrees bit for bit with check_hypothesis_two restricted to the diagonal.
    """
    _require_arity(bounds, Arity.TWO)
    return _run_excess_sweep(f, bounds, sampler, tol, compose_two_raw, False, True)[1]


def check_hypothesis_four(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Eight-bound analog of check_hypothesis_two, swept over 8-tuples."""
    _require_arity(bounds, Arity.FOUR)
    return _run_excess_sweep(f, bounds, sampler, tol, compose_four_raw, True, False)[0]


def check_conclusion_four(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x,y,z,w)^2 - f(x^2+y^2+z^2+w^2, 0, 0, 0)| over the
    eight-bound cap at the sample coordinates."""
    _require_arity(bounds, Arity.FOUR)
    return _run_excess_sweep(f, bounds, sampler, tol, compose_four_raw, False, True)[1]


def _require_arity(bounds: BoundSpec, arity: Arity) -> None:
    if bounds.arity is not arity:
        raise ValueError(f"bounds have arity {int(bounds.arity)}, expected {int(arity)}")


class DiagonalVerdict(Enum):
    BOUNDED = "BOUNDED"
    MULTIPLICATIVE = "MULTIPLICATIVE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class DiagonalReport:
    """Empirical bounded-vs-multiplicative classification with its evidence."""

    verdict: DiagonalVerdict
    max_mult_residual: float
    worst_pair: tuple[float, float] | None
    sup_abs: float
    sup_at: float
    decades: float
    growth_threshold: float
    mult_tol: float


def classify_diagonal(
    m: Callable[[float], float],
    ladder: Sequence[float] | None = None,
    growth_threshold: float = DEFAULT_GROWTH_THRESHOLD,
    mult_tol: float = DEFAULT_MULT_TOL,
) -> DiagonalReport:
    """Classify a one-variable map as BOUNDED, MULTIPLICATIVE, or neither.

    MULTIPLICATIVE requires the relative product residual
    |m(s) m(t) - m(st)| / (1 + |m(st)|) to stay within mult_tol over all
    ladder pairs, with the ladder spanning at least three magnitude decades;
    it wins outright when both hold (the constant 1 is multiplicative, not
    merely bounded).  Otherwise BOUNDED requires sup |m| on the ladder to
    stay within growth_threshold, and anything else is INCONCLUSIVE.
    """
    ladder = tuple(ladder) if ladder is not None else probe_ladder()
    values = {t: m(t) for t in ladder}

    sup_abs = -1.0
    sup_at = 0.0
    for t, val in values.items():
        mag = abs(val)
        if mag > sup_abs:
            sup_abs = mag
            sup_at = t
    magnitudes = [abs(t) for t in ladder if t != 0.0]
    decades = (
        math.log10(max(magnitudes) / min(magnitudes)) if len(magnitudes) > 1 else 0.0
    )

    max_residual = 0.0
    worst_pair = None
    for s in ladder:
        for t in ladder:
            prod_value = m(s * t)
            residual = abs(values[s] * values[t] - prod_value) / (1.0 + abs(prod_value))
            if residual > max_residual:
                max_residual = residual
                worst_pair = (s, t)

    if max_residual <= mult_tol and decades >= 3.0:
        verdict = DiagonalVerdict.MULTIPLICATIVE
    elif sup_abs <= growth_threshold:
        verdict = DiagonalVerdict.BOUNDED
    else:
        verdict = DiagonalVerdict.INCONCLUSIVE
    return DiagonalReport(
        verdict=verdict,
        max_mult_residual=max_residual,
        worst_pair=worst_pair,
        sup_abs=sup_abs,
        sup_at=sup_at,
        decades=decades,
        growth_threshold=growth_threshold,
        mult_tol=mult_tol,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Hypothesis excess, conclusion excess, and the diagonal verdict."""

    arity: int
    seed: int
    sample_count: int
    tol: float
    hypothesis_max_violation: float
    conclusion_max_violation: float
    diagonal_classification: str
    evidence: dict

    @property
    def passed(self) -> bool:
        return (
            self.hypothesis_max_violation <= self.tol
            and self.conclusion_max_violation <= self.tol
        )

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "tol": self.tol,
            "hypothesis_max_violation": self.hypothesis_max_violation,
            "conclusion_max_violation": self.conclusion_max_violation,
            "diagonal_classification": self.diagonal_classification,
            "evidence": self.evidence,
        }


def run_stability(
    f,
    bounds: BoundSpec,
    *,
    seed: int = 42,
    samples: int = 10000,
    low: float = -10.0,
    high: float = 10.0,
    tol: float = 1e-9,
    growth_threshold: float = DEFAULT_GROWTH_THRESHOLD,
    mult_tol: float = DEFAULT_MULT_TOL,
) -> StabilityReport:
    """Hypothesis + conclusion sweeps plus the diagonal classification.

    The arity is bounds.arity: f takes that many coordinates, and the
    diagonal verdict is on its first-axis restriction t -> f(t, 0, ...).

    Both sweeps run as one pass over one UniformSampler.  Its draws for a
    sample index are a prefix of one counter stream, so the conclusion's
    sample i is the first arity coordinates of the hypothesis's sample i,
    and the reports equal those of check_hypothesis_* and
    check_conclusion_* run on two such samplers.  The pass reuses f(p1)
    and the even bound slots at p1, so f and the bounds must be
    deterministic.
    """
    arity = int(bounds.arity)
    compose = compose_two_raw if bounds.arity is Arity.TWO else compose_four_raw
    hyp, con = _run_excess_sweep(
        f, bounds, UniformSampler(seed, samples, low, high), tol, compose, True, True
    )
    pad = (0.0,) * (arity - 1)
    diag = classify_diagonal(lambda t: f(t, *pad), None, growth_threshold, mult_tol)
    evidence = {
        "hypothesis_worst_point": list(hyp.worst_point) if hyp.worst_point else None,
        "hypothesis_defect": hyp.defect_at_worst,
        "hypothesis_bound": hyp.bound_at_worst,
        "conclusion_worst_point": list(con.worst_point) if con.worst_point else None,
        "conclusion_defect": con.defect_at_worst,
        "conclusion_bound": con.bound_at_worst,
        "sup_abs": diag.sup_abs,
        "sup_at": diag.sup_at,
        "max_mult_residual": diag.max_mult_residual,
        "worst_pair": list(diag.worst_pair) if diag.worst_pair else None,
        "decades": diag.decades,
        "growth_threshold": diag.growth_threshold,
        "mult_tol": diag.mult_tol,
    }
    return StabilityReport(
        arity=arity,
        seed=seed,
        sample_count=samples,
        tol=tol,
        hypothesis_max_violation=hyp.max_excess,
        conclusion_max_violation=con.max_excess,
        diagonal_classification=diag.verdict.value,
        evidence=evidence,
    )
