"""Closed-form solvers for the two nonlinear systems behind the square
composition laws.

solve_two finds (x, y) with

    2xy = u,        x^2 - y^2 = v,

and solve_four finds (x, y, z, w) with

    (x+z)(y+w) = a,   2xz - y^2 - w^2 = b,
    (x+z)(w-y) = c,   x^2 - z^2 = d.

Both systems are solvable for every finite right-hand side, and each
solver is one closed-form stable square root.  With p = x + z, q = x - z,
s = y + w and t = w - y the four-variable system reads a = ps, c = pt,
d = pq and 2b = p^2 - q^2 - s^2 - t^2, so p^2 = b + sqrt(a^2 + b^2 + c^2 +
d^2) and (s, t, q) = (a, c, d)/p: the analogue of the complex square root
that solve_two is.  The solvers return one canonical solution of each +/-
pair -- x >= 0 for solve_two, x + z = p >= 0 for solve_four -- together
with the achieved residual; callers can also ask for every sign variant
that satisfies the system.

Every equation is homogeneous of degree 2 in the solution, so the solvers
normalize the inputs by an even power of two, solve in a well-conditioned
regime, and scale the solution back by half that exponent.  The scaling is
exact in IEEE arithmetic and makes the full finite double range safe from
intermediate overflow and underflow.

A useful consequence of either system: the squared norm of the solution
equals the Euclidean norm of the right-hand side, i.e. x^2 + y^2 =
sqrt(u^2 + v^2) and x^2 + y^2 + z^2 + w^2 = sqrt(a^2 + b^2 + c^2 + d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

__all__ = [
    "CaseTwo",
    "CaseFour",
    "SolveReport",
    "NonFiniteInputError",
    "ResidualExceededError",
    "DEFAULT_TOL_TWO",
    "DEFAULT_TOL_FOUR",
    "solve_two",
    "solve_four",
]

DEFAULT_TOL_TWO = 1e-9
DEFAULT_TOL_FOUR = 1e-6


class CaseTwo(Enum):
    """Branch taken by solve_two."""

    U0_VPOS = "U0_VPOS"  # u = 0, v >= 0
    U0_VNEG = "U0_VNEG"  # u = 0, v < 0
    UNZ = "UNZ"          # u != 0


class CaseFour(Enum):
    """Branch taken by solve_four."""

    A = "A"  # a = c = d = 0, b <= 0
    B = "B"  # d = 0, b > 0
    C = "C"  # d = 0, b <= 0, (a, c) != (0, 0)
    D = "D"  # d != 0


class NonFiniteInputError(ValueError):
    """An input was NaN or infinite."""


class ResidualExceededError(RuntimeError):
    """The solution's residual exceeds the configured tolerance.

    Indicates a solver defect or extreme conditioning; carries the achieved
    residual so callers can report it.
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveReport:
    """Solution plus diagnostics.

    residual is the maximum equation defect divided by (1 + sum of absolute
    inputs); norm_residual measures the squared-norm consequence on the same
    scale.  alpha is set by solve_four alone: x (= z) in cases B and C, z^2
    in plain units in case D (inf past DBL_MAX), None in case A.  variants
    (when requested) lists every sign pattern of the canonical solution that
    satisfies the system within tol.
    """

    solution: tuple[float, ...]
    case_label: CaseTwo | CaseFour
    residual: float
    norm_residual: float
    tol: float
    alpha: float | None = None
    variants: tuple[tuple[float, ...], ...] | None = None


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteInputError(f"{name} = {value!r} is not finite")


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


def _residual_two(us: float, vs: float, xs: float, ys: float, e2: int) -> float:
    # inputs and solution in 2^-e2 / 2^(-e2/2) scaled units; the returned
    # ratio equals the plain-unit relative residual
    defect = max(abs(2.0 * xs * ys - us), abs(xs * xs - ys * ys - vs))
    return defect / (_one_in_scaled_units(e2) + abs(us) + abs(vs))


def _residual_four(as_, bs, cs, ds, xs, ys, zs, ws, e2: int) -> float:
    sxz = xs + zs
    defect = max(
        abs(sxz * (ys + ws) - as_),
        abs(2.0 * xs * zs - ys * ys - ws * ws - bs),
        abs(sxz * (ws - ys) - cs),
        abs(xs * xs - zs * zs - ds),
    )
    return defect / (_one_in_scaled_units(e2) + abs(as_) + abs(bs) + abs(cs) + abs(ds))


def _sign_variants(
    canonical: tuple[float, ...],
    residual_of,
    tol: float,
    half: int,
) -> tuple[tuple[float, ...], ...]:
    found = set()
    for signs in product((1.0, -1.0), repeat=len(canonical)):
        cand = tuple(_unsign_zero(s * t) for s, t in zip(signs, canonical))
        if residual_of(*cand) <= tol:
            found.add(tuple(math.ldexp(t, half) for t in cand))
    return tuple(sorted(found))


def solve_two(
    u: float,
    v: float,
    *,
    tol: float = DEFAULT_TOL_TWO,
    zero_eps: float = 0.0,
    enumerate_signs: bool = False,
) -> SolveReport:
    """Solve 2xy = u, x^2 - y^2 = v for one canonical (x, y).

    The case split on u is structural, so it compares against exact zero by
    default; zero_eps widens the test for callers with computed inputs.

    For u != 0 the textbook closed form x = sqrt((v + s)/2) with
    s = sqrt(u^2 + v^2) cancels catastrophically when v < 0 and |v| >> |u|.
    Instead, whichever of x and y is large is computed by its own square
    root -- x = sqrt((v + s)/2) for v >= 0, y = sign(u) sqrt((s - v)/2)
    for v < 0 -- and the small component comes from 2xy = u by division.
    The two forms are algebraically identical.
    """
    _require_finite(u=u, v=v)
    e2 = _even_exponent(max(abs(u), abs(v)))
    half = e2 // 2
    us, vs = math.ldexp(u, -e2), math.ldexp(v, -e2)
    s = math.hypot(us, vs)
    if abs(u) <= zero_eps:
        if v >= 0.0:
            xs, ys = math.sqrt(vs), 0.0
            case = CaseTwo.U0_VPOS
        else:
            xs, ys = 0.0, math.sqrt(-vs)
            case = CaseTwo.U0_VNEG
    else:
        case = CaseTwo.UNZ
        if us == 0.0:
            # u underflowed below v's scale; indistinguishable from u = 0
            xs, ys = (math.sqrt(vs), 0.0) if vs >= 0.0 else (0.0, math.sqrt(-vs))
        elif v >= 0.0:
            xs = math.sqrt((vs + s) / 2.0)
            ys = us / (2.0 * xs)
        else:
            ys = math.copysign(math.sqrt((s - vs) / 2.0), us)
            xs = us / (2.0 * ys)

    xs, ys = _unsign_zero(xs), _unsign_zero(ys)
    residual = _residual_two(us, vs, xs, ys, e2)
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_two residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (u, v) = ({u!r}, {v!r})",
            residual,
        )
    norm_residual = abs(xs * xs + ys * ys - s) / (
        _one_in_scaled_units(e2) + abs(us) + abs(vs)
    )

    variants = None
    if enumerate_signs:
        variants = _sign_variants(
            (xs, ys), lambda *t: _residual_two(us, vs, *t, e2), tol, half
        )
    solution = (math.ldexp(xs, half), math.ldexp(ys, half))
    return SolveReport(solution, case, residual, norm_residual, tol, None, variants)


def solve_four(
    a: float,
    b: float,
    c: float,
    d: float,
    *,
    tol: float = DEFAULT_TOL_FOUR,
    zero_eps: float = 0.0,
    enumerate_signs: bool = False,
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

    The case label records the structure of the input, with zero_eps
    widening its zero tests; it does not change the formula:

    * A: a = c = d = 0 and b <= 0; the solution is
      (0, sqrt(-b/2), 0, sqrt(-b/2)) and alpha is None.
    * B (d = 0, b > 0) and C (d = 0, b <= 0, (a, c) != (0, 0)): q = 0, so
      x = z, reported as alpha.
    * D (d != 0): alpha is z^2 = x^2 - d, so alpha >= 0 and alpha >= -d;
      it is inf when z^2 passes DBL_MAX, while the solution stays finite.
    """
    _require_finite(a=a, b=b, c=c, d=d)
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
    scaled = tuple(
        _unsign_zero(v)
        for v in ((p + q) / 2.0, (s - t) / 2.0, (p - q) / 2.0, (s + t) / 2.0)
    )
    residual = _residual_four(as_, bs, cs, ds, *scaled, e2)
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_four residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (a, b, c, d) = ({a!r}, {b!r}, {c!r}, {d!r})",
            residual,
        )
    xs, ys, zs, ws = scaled
    norm_residual = abs(xs * xs + ys * ys + zs * zs + ws * ws - r) / (
        _one_in_scaled_units(e2) + abs(as_) + abs(bs) + abs(cs) + abs(ds)
    )

    variants = None
    if enumerate_signs:
        variants = _sign_variants(
            scaled, lambda *t: _residual_four(as_, bs, cs, ds, *t, e2), tol, half
        )
    solution = tuple(math.ldexp(t, half) for t in scaled)
    x, _, z, _ = solution
    if abs(d) > zero_eps:
        # z^2 = x^2 - d >= -d; max() absorbs the rounding of z^2 near x = 0
        case, alpha = CaseFour.D, max(z * z, -d)
    elif abs(a) <= zero_eps and abs(c) <= zero_eps and b <= 0.0:
        case, alpha = CaseFour.A, None
    else:
        case, alpha = (CaseFour.B if b > 0.0 else CaseFour.C), x
    return SolveReport(solution, case, residual, norm_residual, tol, alpha, variants)
