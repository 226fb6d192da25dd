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

The BOUNDED line is Baker's (Baker, Lawrence & Zorzitto, Proc. AMS 74,
1979; Baker, Proc. AMS 80, 1980): a g with |g(s) g(t) - g(st)| <= delta is
multiplicative or |g| <= (1 + sqrt(1 + 4 delta))/2.  classify_diagonal
draws it from its delta.  run_stability passes the least zero-coordinate
slot at 0, which bounds g(t) = f(t, 0, ...) so, as (s, 0, ...) o
(t, 0, ...) = (st, 0, ...).

f may return float, complex, or Fraction values; the checks never coerce,
so exact inputs stay exact.  Real-valued f is simply the complex case with
zero imaginary part.

The sweeps take 256 samples at a time as columns and fold each block with
one kernel, as those of sosq.solutions do: each bound slot over its
column, the caps as the min across the slots, the defects (a NaN one
counts as inf), and the block's worst excess at its first index.  A block
that raises, as on a cap outside [0, inf), is folded again by the same
kernel one sample at a time, so errors and ties are the per-sample
sweep's: the first sample that fails decides, on either side.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import Enum
from operator import itemgetter, mul, sub

from .exprs import parse_bound_expression
from .identities import compose_two_raw, compose_four_raw
from .sampling import UniformSampler
from .solutions import Arity, _columns_of, _fold_blocks

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
    "DEFAULT_MULT_TOL",
]

DEFAULT_MULT_TOL = 1e-6

# classify_diagonal's probes: the signed powers of two 2^-4 .. 2^6,
# ascending, and their pairwise products, which hold the ladder (1 is on it)
_LADDER = tuple(sorted(s * 2.0 ** k for k in range(-4, 7) for s in (-1.0, 1.0)))
_PRODUCTS = tuple(sorted({s * t for s in _LADDER for t in _LADDER}))


class InvalidBoundError(ValueError):
    """A bound function raised, or returned a value outside [0, inf), at a
    probe; or a constant bound is outside [0, inf)."""


class BoundSpec(namedtuple("BoundSpec", "arity bounds")):
    """Per-coordinate nonnegative bound functions of one real variable.

    There are 2 * arity slots, one per sample coordinate: (M1, M2, N1, N2)
    for two variables, (K1, K2, L1, L2, M1, M2, N1, N2) for four.
    """

    __slots__ = ()

    def __new__(cls, arity: Arity, bounds: tuple[Callable[[float], float], ...]):
        want = 2 * arity
        if len(bounds) != want:
            raise ValueError(f"arity {int(arity)} needs {want} bounds, got {len(bounds)}")
        return tuple.__new__(cls, (arity, bounds))

    # namedtuple's _make (and _replace, built on it) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def constant(cls, arity: Arity, value: float) -> "BoundSpec":
        if not 0 <= value < math.inf:
            raise InvalidBoundError(f"constant bound {value!r} is not in [0, inf)")
        fn = lambda x: value
        return cls(arity, (fn,) * (2 * arity))

    @classmethod
    def from_expressions(cls, arity: Arity, exprs: Sequence[str]) -> "BoundSpec":
        """Build from expression strings; a single string is parsed once and
        its callable fills every slot."""
        want = 2 * arity
        if len(exprs) not in (1, want):
            raise ValueError(
                f"arity {int(arity)} needs 1 or {want} expressions, got {len(exprs)}"
            )
        fns = tuple(map(parse_bound_expression, exprs))
        return cls(arity, fns * (want // len(fns)))


def _bound_at(fn: Callable[[float], float], t: float):
    # NaN fails the range test too; a complex value (pow of a negative
    # base) is out of range without being compared
    try:
        value = fn(t)
    except (ArithmeticError, TypeError) as exc:
        problem = f"bound raised {type(exc).__name__}: {exc}"
    else:
        if not isinstance(value, complex) and 0 <= value < math.inf:
            return value
        problem = f"bound value {value!r} is not in [0, inf)"
    raise InvalidBoundError(f"{problem} at probe {t!r}")


class ExcessReport(namedtuple(
    "ExcessReport",
    "max_excess worst_point defect_at_worst bound_at_worst sample_count seed tol passed",
)):
    """Worst positive excess of the defect over the pointwise bound cap.

    max_excess is 0 when the inequality holds on every sample.  worst_point
    is the sample with the largest raw defect-minus-cap, recorded together
    with the defect and cap there.
    """

    __slots__ = ()


class _Worst:
    """Running worst excess of the defect over the pointwise cap."""

    __slots__ = ("excess", "point", "defect", "cap")

    def __init__(self) -> None:
        self.excess = None
        self.point = None
        self.defect = 0.0
        self.cap = 0.0

    def add_block(self, point_cols, defects, caps, excess) -> None:
        """Fold a block's _excesses, each sample's point read from
        point_cols.  Ties go to the earliest sample."""
        top = max(excess)
        if self.excess is None or top > self.excess:
            i = excess.index(top)
            self.excess = top
            self.point = tuple(map(itemgetter(i), point_cols))
            self.defect = defects[i]
            self.cap = caps[i]

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


def _block_caps(fns, cols) -> list:
    """fns[k] over the column cols[k] for every slot k.  If anything is off
    (a raise, or a value outside [0, inf)), each column goes through
    _bound_at again, which raises at the first bad value; on a block of one
    sample, at the first bad slot."""
    try:
        capcols = [_columns_of(fn)(col) for fn, col in zip(fns, cols)]
        # a NaN or inf makes the sum non-finite, but so can finite caps
        # near DBL_MAX; only then is each value tested
        if all(
            0 <= min(col) and (sum(col) < math.inf or all(map(math.isfinite, col)))
            for col in capcols
        ):
            return capcols
    except Exception:
        pass
    return [[_bound_at(fn, t) for t in col] for fn, col in zip(fns, cols)]


def _excesses(lhs, rhs, capcols) -> tuple[list, list, list]:
    """The defects |lhs - rhs|, the caps (the min across the cap columns)
    and the excesses of one side over a block.  A NaN defect (inf - inf,
    0 * inf) becomes inf: no cap bounds it."""
    defects = list(map(abs, map(sub, lhs, rhs)))
    total = sum(defects)
    if total != total:
        defects = [math.inf if d != d else d for d in defects]
    caps = list(map(min, *capcols))
    return defects, caps, list(map(sub, defects, caps))


def _run_excess_sweep(f, bounds: BoundSpec, sampler, tol, conclusion):
    """One sweep of the hypothesis over the samples (p1, p2), and of the
    conclusion too when asked, on p1 paired with itself.

    The conclusion shares f(p1) and the even bound slots (all at p1) with
    the hypothesis.  The first sample that fails decides, and within a
    sample the hypothesis side fails first.  Returns the (hypothesis,
    conclusion) reports, None for a conclusion not run.
    """
    arity = int(bounds.arity)
    compose = compose_two_raw if arity == 2 else compose_four_raw
    slots = bounds.bounds
    odd_slots = slots[1::2]
    # coordinate i of p1 feeds slot 2i, of p2 slot 2i+1
    index = [k // 2 + k % 2 * arity for k in range(len(slots))]
    columns = _columns_of(f)
    hyp = _Worst()
    con = _Worst() if conclusion else None

    def fold(cols):
        # the caps before f(p1), as in a per-sample sweep
        p1 = cols[:arity]
        capcols = _block_caps(slots, [cols[i] for i in index])
        f1 = columns(*p1)
        hyp_side = _excesses(
            list(map(mul, f1, columns(*cols[arity:]))),
            columns(*zip(*map(compose, *cols))), capcols,
        )
        if con is not None:
            capcols[1::2] = _block_caps(odd_slots, p1)
            con.add_block(p1, *_excesses(
                list(map(mul, f1, f1)), columns(*zip(*map(compose, *p1, *p1))), capcols
            ))
        hyp.add_block(cols, *hyp_side)

    _fold_blocks(fold, sampler, 2 * arity)
    return hyp.report(sampler, tol), con.report(sampler, tol) if con else None


class _Paired:
    """A sampler's samples, each p1 paired with itself as (p1, p1)."""

    __slots__ = ("seed", "count", "_sampler")

    def __init__(self, sampler) -> None:
        self.seed, self.count, self._sampler = sampler.seed, sampler.count, sampler

    def blocks(self, width: int):
        return (cols + cols for cols in self._sampler.blocks(width // 2))


def check_hypothesis_two(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x1,y1) f(x2,y2) - f(composed pair)| over
    min(M1(x1), M2(x2), N1(y1), N2(y2)), swept over 4-tuples."""
    _require_arity(bounds, Arity.TWO)
    return _run_excess_sweep(f, bounds, sampler, tol, False)[0]


def check_conclusion_two(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x,y)^2 - f(x^2+y^2, 0)| over min(M1(x), M2(x), N1(y), N2(y)).

    Computed by pairing each sample with itself, so on shared samples it
    agrees bit for bit with check_hypothesis_two restricted to the diagonal.
    """
    _require_arity(bounds, Arity.TWO)
    return _run_excess_sweep(f, bounds, _Paired(sampler), tol, True)[1]


def check_hypothesis_four(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Eight-bound analog of check_hypothesis_two, swept over 8-tuples."""
    _require_arity(bounds, Arity.FOUR)
    return _run_excess_sweep(f, bounds, sampler, tol, False)[0]


def check_conclusion_four(f, bounds: BoundSpec, sampler, tol: float = 0.0) -> ExcessReport:
    """Excess of |f(x,y,z,w)^2 - f(x^2+y^2+z^2+w^2, 0, 0, 0)| over the
    eight-bound cap at the sample coordinates."""
    _require_arity(bounds, Arity.FOUR)
    return _run_excess_sweep(f, bounds, _Paired(sampler), tol, True)[1]


def _require_arity(bounds: BoundSpec, arity: Arity) -> None:
    if bounds.arity is not arity:
        raise ValueError(f"bounds have arity {int(bounds.arity)}, expected {int(arity)}")


class DiagonalVerdict(Enum):
    BOUNDED = "BOUNDED"
    MULTIPLICATIVE = "MULTIPLICATIVE"
    INCONCLUSIVE = "INCONCLUSIVE"


class DiagonalReport(namedtuple(
    "DiagonalReport",
    "verdict delta max_mult_residual worst_pair sup_abs sup_at growth_threshold mult_tol",
)):
    """Empirical bounded-vs-multiplicative classification with its evidence."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The evidence, without the verdict."""
        return dict(zip(self._fields[1:], self[1:]))


def classify_diagonal(
    m: Callable[[float], float],
    delta: float = 0.0,
    mult_tol: float = DEFAULT_MULT_TOL,
) -> DiagonalReport:
    """Classify a one-variable map as BOUNDED, MULTIPLICATIVE, or neither.

    MULTIPLICATIVE requires the relative product residual
    |m(s) m(t) - m(st)| / (1 + |m(st)|) to stay within mult_tol over all
    pairs of ladder points (+-2^-4 .. +-2^6); it wins outright (the
    constant 1 is multiplicative, not merely bounded).  Otherwise BOUNDED
    requires |m| to stay within Baker's line (1 + sqrt(1 + 4 delta))/2,
    reported as growth_threshold (1 at the default delta = 0), both on the
    ladder, where sup_abs and sup_at are taken, and at +-2^k for
    k = -64 .. 64, probed only then.  Anything else is INCONCLUSIVE.  A NaN
    value, and a NaN residual (from an infinite value), counts as infinite
    where it occurs, so the first pair with an infinite or NaN residual
    is worst_pair.
    m is called once at each distinct probe.  A negative or non-finite
    delta raises ValueError.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    line = (1.0 + math.sqrt(1.0 + 4.0 * delta)) / 2.0
    values = {t: m(t) for t in _PRODUCTS}
    # a NaN value bounds nothing: count it as inf; ties go to the first
    mags = [abs(values[t]) for t in _LADDER]
    mags = [math.inf if mag != mag else mag for mag in mags]
    sup_abs = max(mags)
    sup_at = _LADDER[mags.index(sup_abs)]

    max_residual = 0.0
    worst_pair = None
    for s in _LADDER:
        for t in _LADDER:
            prod_value = values[s * t]
            residual = abs(values[s] * values[t] - prod_value) / (1.0 + abs(prod_value))
            if residual != residual:
                # NaN, from inf * 0 or inf - inf: no finite residual bounds it
                residual = math.inf
            if residual > max_residual:
                max_residual = residual
                worst_pair = (s, t)

    if max_residual <= mult_tol:
        verdict = DiagonalVerdict.MULTIPLICATIVE
    elif sup_abs <= line and all(
        abs(m(t)) <= line for k in range(-64, 65) for t in (-(2.0 ** k), 2.0 ** k)
    ):
        verdict = DiagonalVerdict.BOUNDED
    else:
        verdict = DiagonalVerdict.INCONCLUSIVE
    return DiagonalReport(
        verdict=verdict,
        delta=delta,
        max_mult_residual=max_residual,
        worst_pair=worst_pair,
        sup_abs=sup_abs,
        sup_at=sup_at,
        growth_threshold=line,
        mult_tol=mult_tol,
    )


class StabilityReport(namedtuple(
    "StabilityReport",
    "arity seed sample_count tol hypothesis_max_violation conclusion_max_violation"
    " diagonal_classification evidence",
)):
    """Hypothesis excess, conclusion excess, and the diagonal verdict."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.hypothesis_max_violation <= self.tol
            and self.conclusion_max_violation <= self.tol
        )


def run_stability(
    f,
    bounds: BoundSpec,
    *,
    seed: int = 42,
    samples: int = 10000,
    tol: float = 1e-9,
    mult_tol: float = DEFAULT_MULT_TOL,
) -> StabilityReport:
    """Hypothesis + conclusion sweeps plus the diagonal classification.

    The arity is bounds.arity: f takes that many coordinates, and the
    diagonal verdict is classify_diagonal's on t -> f(t, 0, ...) at delta
    the least of the slots fed by a zero coordinate (slots 2 onward) at 0.
    They are evaluated after the sweep, so a bound invalid at a sample
    still raises first; one invalid only at 0 raises InvalidBoundError at
    probe 0.0.

    Both sweeps run as one pass over one UniformSampler.  Its draws for a
    sample index are a prefix of one counter stream, so the conclusion's
    sample i is the first arity coordinates of the hypothesis's sample i,
    and the reports equal those of check_hypothesis_* and
    check_conclusion_* run on two such samplers.  An error is that of the
    first sample that fails, on its hypothesis side first.  The pass
    reuses f(p1) and the even bound slots at p1, so f and the bounds must
    be deterministic.
    """
    arity = int(bounds.arity)
    hyp, con = _run_excess_sweep(f, bounds, UniformSampler(seed, samples), tol, True)
    delta = float(min(_bound_at(fn, 0.0) for fn in bounds.bounds[2:]))
    pad = (0.0,) * (arity - 1)
    diag = classify_diagonal(lambda t: f(t, *pad), delta, mult_tol)
    evidence = {
        "hypothesis_worst_point": list(hyp.worst_point) if hyp.worst_point else None,
        "hypothesis_defect": hyp.defect_at_worst,
        "hypothesis_bound": hyp.bound_at_worst,
        "conclusion_worst_point": list(con.worst_point) if con.worst_point else None,
        "conclusion_defect": con.defect_at_worst,
        "conclusion_bound": con.bound_at_worst,
        **diag.to_dict(),
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
