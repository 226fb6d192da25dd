"""Independent oracles used to pin expected test values, and shared fixtures.

The oracles deliberately avoid the library's code paths: factorization by
the plain trial-division wheel, primality by the 6k-1, 6k+1 wheel,
representability by exhaustive search, system checks by direct
substitution, multiplicativity by direct evaluation, the sampler's
draws by one SplitMix64 object per sample index (stream_for), the
equation and stability sweeps by the per-sample loops that the block pass
replaced (run_equation_sweep, run_excess_sweep), the closed-form solvers
by their bodies from before the flattening (reference_solve_two,
reference_solve_four), four squares of an n with no prime factor past the
table by a fold over the wheel's factors, the two-square part first
(reference_four_square_fold), and the f = sigma * m(||.||) shape by reading
(m, sigma) tables off a black-box f on a probe grid (extract_structure,
default_probes).  The fixtures are the samplers
the tests sweep with -- StreamSampler over any box, integer-valued or
not, FixedSampler over explicit points and DiagonalSampler, which pairs
each sample with itself -- and the representative multiplicative
families.  The reference sweeps and DiagonalSampler read samples through
tuples(width), which only these samplers have; the library's
UniformSampler yields blocks alone.
"""

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from math import isqrt
from operator import itemgetter

from sosq.identities import compose_four, compose_four_raw, compose_two, compose_two_raw
from sosq.sampling import _BLOCK, HIGH, LOW
from sosq.solutions import MultiplicativeFamily, VerificationReport
from sosq.stability import BoundSpec, ExcessReport, InvalidBoundError
from sosq.sumsquares import _cofactor_four_square, _prime_two_square
from sosq.systems import (
    DEFAULT_TOL_FOUR,
    DEFAULT_TOL_TWO,
    CaseFour,
    CaseTwo,
    NonFiniteInputError,
    ResidualExceededError,
    SolveReport,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self, low: float, high: float) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def randint(self, low: int, high: int) -> int:
        return low + self.next_u64() % (high - low + 1)


def stream_for(seed: int, index: int) -> SplitMix64:
    """Independent generator for one sample index: the draws that
    UniformSampler.blocks must reproduce for that index."""
    return SplitMix64(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))


def column_blocks(samples):
    """Sample tuples as blocks of columns, as UniformSampler.blocks gives
    them.  An error of the samples' comes after a block of the samples
    drawn before it, as a per-sample sweep folds those first."""
    while True:
        block = []
        try:
            block.extend(islice(samples, _BLOCK))
        except Exception:
            if block:
                yield list(zip(*block))
            raise
        if not block:
            return
        yield list(zip(*block))


def flatten(sampler, width: int) -> list[tuple[float, ...]]:
    """A sampler's samples, one tuple each, read off its blocks."""
    return [t for block in sampler.blocks(width) for t in zip(*block)]


@dataclass(frozen=True)
class StreamSampler:
    """Seeded sweep of `count` tuples over [low, high], one stream_for per
    sample: at the defaults, the samples of UniformSampler(seed, count).

    With integer=True the coordinates are integer-valued floats, which keeps
    small polynomial arithmetic exact in IEEE doubles.
    """

    seed: int
    count: int
    low: float = LOW
    high: float = HIGH
    integer: bool = False

    def tuples(self, width: int) -> Iterator[tuple[float, ...]]:
        for i in range(self.count):
            rng = stream_for(self.seed, i)
            if self.integer:
                low, high = int(self.low), int(self.high)
                yield tuple(float(rng.randint(low, high)) for _ in range(width))
            else:
                yield tuple(rng.uniform(self.low, self.high) for _ in range(width))

    def blocks(self, width: int):
        return column_blocks(self.tuples(width))


@dataclass(frozen=True)
class FixedSampler:
    """Sweep over an explicit point list; useful for targeted checks."""

    points: tuple[tuple[float, ...], ...]
    seed: int = 0

    @property
    def count(self) -> int:
        return len(self.points)

    def tuples(self, width: int) -> Iterator[tuple[float, ...]]:
        for p in self.points:
            if len(p) != width:
                raise ValueError(f"expected width-{width} tuples, got {p!r}")
            yield tuple(p)

    def blocks(self, width: int):
        return column_blocks(self.tuples(width))


@dataclass(frozen=True)
class DiagonalSampler:
    """Lift a width-w sampler to width-2w by pairing each tuple with itself."""

    inner: StreamSampler | FixedSampler

    @property
    def seed(self) -> int:
        return self.inner.seed

    @property
    def count(self) -> int:
        return self.inner.count

    def tuples(self, width: int) -> Iterator[tuple[float, ...]]:
        if width % 2:
            raise ValueError("diagonal sweeps need an even tuple width")
        for t in self.inner.tuples(width // 2):
            yield t + t

    def blocks(self, width: int):
        return column_blocks(self.tuples(width))


def builtin_families() -> tuple[MultiplicativeFamily, ...]:
    """Representative built-in families, used by sweeps and tests."""
    return (
        MultiplicativeFamily.power(0.0),
        MultiplicativeFamily.power(1.0),
        MultiplicativeFamily.power(2.0),
        MultiplicativeFamily.power(3.0),
        MultiplicativeFamily.signed_power(1.0),
        MultiplicativeFamily.signed_power(2.0),
        # the constant 1 again, by a signed-zero exponent
        MultiplicativeFamily.power(-0.0),
        MultiplicativeFamily.zero(),
    )


# the signed powers of two 2^-4 .. 2^6, ascending: the probes of the axis
LADDER = tuple(sorted(
    [-(2.0 ** k) for k in range(-4, 7)] + [2.0 ** k for k in range(-4, 7)]
))


def default_probes(arity: int) -> tuple[tuple[float, ...], ...]:
    """Probe points over the axis LADDER + (0.0,).

    Every point with at most two nonzero coordinates, in itertools.product
    order, then the diagonal (t, ..., t); duplicates are dropped.
    """
    axis = LADDER + (0.0,)
    points = dict.fromkeys(
        p for p in product(axis, repeat=arity) if arity - p.count(0.0) <= 2
    )
    points.update(dict.fromkeys((t,) * arity for t in axis))
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


def extract_structure(f, arity: int, probes=None, tol: float = 1e-9) -> StructureReport:
    """Recover m(t) = f(t, 0, ...) and sigma = f / (m o norm) on a probe grid.

    f takes arity coordinates; probes defaults to default_probes(arity).
    """
    pad = (0.0,) * (arity - 1)
    m_table = tuple((t, f(t, *pad)) for t in LADDER + (0.0,))
    sigma_table = []
    violations = []
    zero_m = []
    for point in probes or default_probes(arity):
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


def is_prime(n: int) -> bool:
    """Primality by trial division over 2, 3, then 6k-1, 6k+1."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def two_square_witnesses(n: int) -> list[tuple[int, int]]:
    """All (a, b) with a <= b and a^2 + b^2 = n."""
    out = []
    for a in range(isqrt(n // 2) + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b >= a and b * b == b2:
            out.append((a, b))
    return out


def is_two_square(n: int) -> bool:
    return bool(two_square_witnesses(n))


def wheel_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division: 2, 3, then 6k-1, 6k+1."""
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            factors.append((p, e))
        p = 3 if p == 2 else 5 if p == 3 else p + 2 if p % 6 == 5 else p + 4
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def reference_four_square_fold(n: int) -> tuple[int, int, int, int]:
    """four_square_decompose(n).components for n >= 1 with no prime factor
    past the table.  From the wheel's factors, 2 and the primes 1 mod 4, one
    two-square part per exponent, fold in ascending order through
    compose_two, and the pair, scaled by p^(e//2) per prime p = 3 mod 4 and
    padded with zeros, starts a fold through compose_four of the four
    squares of each such p of odd exponent, as _cofactor_four_square finds
    them, sorted descending.  (1, 0) and (1, 0, 0, 0) are left identities
    of the two laws, so starting from them changes no value."""
    pairs, scale, quads = [], 1, []
    for p, e in wheel_factors(n):
        if p % 4 == 3:
            scale *= p ** (e // 2)
            quads += [tuple(sorted(_cofactor_four_square(p), reverse=True))] * (e % 2)
        else:
            pairs += [_prime_two_square(p)] * e
    x, y = reduce(compose_two, pairs, (1, 0))
    folded = reduce(compose_four, quads, (x * scale, y * scale, 0, 0))
    return tuple(sorted(map(abs, folded), reverse=True))


def four_square_witness(n: int) -> tuple[int, int, int, int] | None:
    """Some (a, b, c, d) with a >= b >= c >= d >= 0 and squared sum n."""
    for a in range(isqrt(n), -1, -1):
        r1 = n - a * a
        for b in range(min(a, isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            for c in range(min(b, isqrt(r2)), -1, -1):
                r3 = r2 - c * c
                d = isqrt(r3)
                if d * d == r3 and d <= c:
                    return (a, b, c, d)
    return None


def system_two_defects(u: float, v: float, x: float, y: float) -> tuple[float, float]:
    """Raw defects of the two-variable system at (x, y); exact on Fractions."""
    return (2 * x * y - u, x * x - y * y - v)


def system_four_defects(a, b, c, d, x, y, z, w) -> tuple[float, float, float, float]:
    """Raw defects of the four-variable system at (x, y, z, w); exact on Fractions."""
    return (
        (x + z) * (y + w) - a,
        2 * x * z - y * y - w * w - b,
        (x + z) * (w - y) - c,
        x * x - z * z - d,
    )


# The closed-form solvers as they were before their bodies were flattened,
# helpers and all: the reference that the shipped solve_two and solve_four
# must equal, field for field and error for error.

def _require_finite(**values: float) -> None:
    # the solvers call it only past a failed isfinite chain, for its message
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteInputError(f"{name} = {value!r} is not finite")


def _require_zero_eps(zero_eps: float) -> None:
    # a negative (or NaN) zero_eps would call no input zero, not even 0.0
    if not zero_eps >= 0.0:
        raise ValueError(f"zero_eps = {zero_eps!r} must be >= 0")


def _unsign_zero(t: float) -> float:
    return 0.0 if t == 0.0 else t


def _even_exponent(maxabs: float) -> int:
    """Even e with maxabs * 2^-e in [0.5, 2); 0 for a zero input."""
    if maxabs == 0.0:
        return 0
    _, ex = math.frexp(maxabs)
    return 2 * (ex // 2)


def _one_in_scaled_units(e2: int) -> float:
    # 2^-e2; infinite for deeply subnormal scales, which correctly drives
    # the relative residual to zero there
    try:
        return math.ldexp(1.0, -e2)
    except OverflowError:
        return math.inf


def _residual_two(us: float, vs: float, xs: float, ys: float, one: float) -> float:
    # inputs and solution in 2^-e2 / 2^(-e2/2) scaled units, one = 2^-e2;
    # the returned ratio equals the plain-unit relative residual
    defect = max(abs(2.0 * xs * ys - us), abs(xs * xs - ys * ys - vs))
    return defect / (one + abs(us) + abs(vs))


def _residual_four(as_, bs, cs, ds, xs, ys, zs, ws, one: float) -> float:
    sxz = xs + zs
    defect = max(
        abs(sxz * (ys + ws) - as_),
        abs(2.0 * xs * zs - ys * ys - ws * ws - bs),
        abs(sxz * (ws - ys) - cs),
        abs(xs * xs - zs * zs - ds),
    )
    return defect / (one + abs(as_) + abs(bs) + abs(cs) + abs(ds))


def reference_solve_two(
    u: float,
    v: float,
    *,
    tol: float = DEFAULT_TOL_TWO,
    zero_eps: float = 0.0,
) -> SolveReport:
    """Solve 2xy = u, x^2 - y^2 = v for one canonical (x, y).

    The case split on u is structural, so it compares against exact zero by
    default; zero_eps >= 0 widens the test for callers with computed inputs
    (a negative or NaN zero_eps raises ValueError).

    For u != 0 the textbook closed form x = sqrt((v + s)/2) with
    s = sqrt(u^2 + v^2) cancels catastrophically when v < 0 and |v| >> |u|.
    Instead, whichever of x and y is large is computed by its own square
    root -- x = sqrt((v + s)/2) for v >= 0, y = sign(u) sqrt((s - v)/2)
    for v < 0 -- and the small component comes from 2xy = u by division.
    The two forms are algebraically identical.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        _require_finite(u=u, v=v)
    _require_zero_eps(zero_eps)
    e2 = _even_exponent(max(abs(u), abs(v)))
    half = e2 // 2
    us, vs = math.ldexp(u, -e2), math.ldexp(v, -e2)
    s = math.hypot(us, vs)
    if abs(u) > zero_eps:
        case = CaseTwo.UNZ
    else:
        case = CaseTwo.U0_VPOS if v >= 0.0 else CaseTwo.U0_VNEG
    if abs(u) <= zero_eps or us == 0.0:
        # a u that underflowed below v's scale is indistinguishable from 0
        xs, ys = (math.sqrt(vs), 0.0) if v >= 0.0 else (0.0, math.sqrt(-vs))
    elif v >= 0.0:
        xs = math.sqrt((vs + s) / 2.0)
        ys = us / (2.0 * xs)
    else:
        ys = math.copysign(math.sqrt((s - vs) / 2.0), us)
        xs = us / (2.0 * ys)

    xs, ys = _unsign_zero(xs), _unsign_zero(ys)
    one = _one_in_scaled_units(e2)
    residual = _residual_two(us, vs, xs, ys, one)
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_two residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (u, v) = ({u!r}, {v!r})",
            residual,
        )
    norm_residual = abs(xs * xs + ys * ys - s) / (one + abs(us) + abs(vs))
    solution = (math.ldexp(xs, half), math.ldexp(ys, half))
    return SolveReport(solution, case, residual, norm_residual, tol)


def reference_solve_four(
    a: float,
    b: float,
    c: float,
    d: float,
    *,
    tol: float = DEFAULT_TOL_FOUR,
    zero_eps: float = 0.0,
) -> SolveReport:
    """Solve the four-variable system for one canonical (x, y, z, w).

    With p = x + z, q = x - z, s = y + w and t = w - y the system reads

        a = p s,   c = p t,   d = p q,   2b = p^2 - q^2 - s^2 - t^2,

    so p^2 = b + r with r = sqrt(a^2 + b^2 + c^2 + d^2), and
    (s, t, q) = (a, c, d)/p.  As in solve_two, the root is taken in the
    form free of cancellation: p = sqrt(b + r) for b >= 0, and for b < 0
    m = |(s, t, q)| = sqrt(r - b), p = |(a, c, d)|/m and (s, t, q) = m
    times the direction of (a, c, d).  That direction is found at the own
    power-of-two scale of (a, c, d), which can be subnormal at b's.  Where
    p = 0 (a, c and d vanish at b's scale) the solution is case A's
    (0, t, 0, t) with t = m/2.

    Canonical sign: p is the nonnegative root, so of the pair
    +/-(x, y, z, w) the solver returns the one with x + z > 0, or
    x = z = 0 and y = w >= 0.  (Where p is below the rounding error of q,
    x + z rounds to 0; x - z still has the sign of d.)

    The case label records the structure of the input, with zero_eps >= 0
    widening its zero tests; it does not change the formula:

    * A: a = c = d = 0 and b <= 0; the solution is
      (0, sqrt(-b/2), 0, sqrt(-b/2)) and alpha is None.
    * B (d = 0, b > 0) and C (d = 0, b <= 0, (a, c) != (0, 0)): q = 0, so
      x = z, reported as alpha.
    * D (d != 0): alpha is z^2 = x^2 - d, so alpha >= 0 and alpha >= -d;
      it is inf when z^2 passes DBL_MAX, while the solution stays finite.
    """
    if not (
        math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)
    ):
        _require_finite(a=a, b=b, c=c, d=d)
    _require_zero_eps(zero_eps)
    e2 = _even_exponent(max(abs(a), abs(b), abs(c), abs(d)))
    half = e2 // 2
    as_, bs = math.ldexp(a, -e2), math.ldexp(b, -e2)
    cs, ds = math.ldexp(c, -e2), math.ldexp(d, -e2)

    r = math.hypot(as_, bs, cs, ds)
    if b >= 0.0:
        p = math.sqrt(bs + r)
        # p = 0 only for the all-zero input
        s, t, q = (as_ / p, cs / p, ds / p) if p else (0.0, 0.0, 0.0)
    else:
        # direction of (a, c, d) at its own scale: at b's it can be subnormal
        e3 = _even_exponent(max(abs(a), abs(c), abs(d)))
        a3, c3, d3 = math.ldexp(a, -e3), math.ldexp(c, -e3), math.ldexp(d, -e3)
        n3 = math.hypot(a3, c3, d3)
        m = math.sqrt(r - bs)
        p = math.ldexp(n3, e3 - e2) / m
        s, t, q = (m * a3 / n3, m * c3 / n3, m * d3 / n3) if p else (m, 0.0, 0.0)
    xs, ys = _unsign_zero((p + q) / 2.0), _unsign_zero((s - t) / 2.0)
    zs, ws = _unsign_zero((p - q) / 2.0), _unsign_zero((s + t) / 2.0)
    one = _one_in_scaled_units(e2)
    residual = _residual_four(as_, bs, cs, ds, xs, ys, zs, ws, one)
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_four residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (a, b, c, d) = ({a!r}, {b!r}, {c!r}, {d!r})",
            residual,
        )
    norm_residual = abs(xs * xs + ys * ys + zs * zs + ws * ws - r) / (
        one + abs(as_) + abs(bs) + abs(cs) + abs(ds)
    )
    x, z = math.ldexp(xs, half), math.ldexp(zs, half)
    solution = (x, math.ldexp(ys, half), z, math.ldexp(ws, half))
    if abs(d) > zero_eps:
        # z^2 = x^2 - d >= -d; max() absorbs the rounding of z^2 near x = 0
        case, alpha = CaseFour.D, max(z * z, -d)
    elif abs(a) <= zero_eps and abs(c) <= zero_eps and b <= 0.0:
        case, alpha = CaseFour.A, None
    else:
        case, alpha = (CaseFour.B if b > 0.0 else CaseFour.C), x
    return SolveReport(solution, case, residual, norm_residual, tol, alpha)


# The per-sample sweeps, as they were before the block pass: the reference
# that the shipped _run_equation_sweep and _run_excess_sweep must equal,
# report for report and error for error.

def run_equation_sweep(f, sampler, tol: float, arity: int) -> VerificationReport:
    compose = compose_two_raw if arity == 2 else compose_four_raw
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


def _bound_at(fn: Callable[[float], float], t: float):
    # NaN fails the range test too; a complex value is out of range
    try:
        value = fn(t)
    except (ArithmeticError, TypeError) as exc:
        raise InvalidBoundError(
            f"bound raised {type(exc).__name__}: {exc} at probe {t!r}"
        ) from None
    if isinstance(value, complex) or not 0 <= value < math.inf:
        raise InvalidBoundError(f"bound value {value!r} is not in [0, inf) at probe {t!r}")
    return value


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


def run_excess_sweep(f, bounds: BoundSpec, sampler, tol, conclusion):
    """One sweep of the hypothesis over the samples (p1, p2), and of the
    conclusion too when asked, on p1 paired with itself.

    The first sample that fails raises, on its hypothesis side first.
    Returns the (hypothesis, conclusion) reports, None for a conclusion not
    run.  The conclusion alone is this sweep's conclusion over a
    DiagonalSampler.
    """
    arity = int(bounds.arity)
    compose = compose_two_raw if arity == 2 else compose_four_raw
    slots = bounds.bounds
    n = len(slots)
    # coordinate i of p1 feeds slot 2i, of p2 slot 2i+1
    hyp_probes = itemgetter(*[k // 2 + k % 2 * arity for k in range(n)])
    # p1 paired with itself: coordinate i feeds slots 2i and 2i+1
    con_probes = itemgetter(*[k // 2 for k in range(n)])
    hyp = _Worst()
    con = _Worst() if conclusion else None
    for sample in sampler.tuples(2 * arity):
        p1 = sample[:arity]
        caps = _caps(slots, hyp_probes(sample))
        f1 = f(*p1)
        hyp.add(sample, f1 * f(*sample[arity:]), f(*compose(*sample)), caps)
        if con is not None:
            # the caps before f(p1 o p1); the even slots read p1 as in the
            # hypothesis, so only an odd one can raise here
            caps = _caps(slots, con_probes(p1))
            con.add(p1, f1 * f1, f(*compose(*p1, *p1)), caps)
    return hyp.report(sampler, tol), con.report(sampler, tol) if con else None
