"""Closed-form solvers for the two nonlinear systems behind the square
composition laws.

solve_two finds (x, y) with

    2xy = u,        x^2 - y^2 = v,

and solve_four finds (x, y, z, w) with

    (x+z)(y+w) = a,   2xz - y^2 - w^2 = b,
    (x+z)(w-y) = c,   x^2 - z^2 = d.

Both systems are solvable for every finite right-hand side.  The solvers
return one canonical solution (every +/- family resolved to the + branch)
together with the achieved residual; callers can also ask for every sign
variant that satisfies the system.

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
    scale.  alpha is the quadratic-branch parameter when one was used, and
    variants (when requested) lists every sign pattern of the canonical
    solution that satisfies the system within tol.
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


def _larger_quadratic_root(qa: float, qb: float, qc: float) -> float:
    """Larger root of qa*t^2 + qb*t + qc with qa > 0 and qc <= 0.

    The coefficients are first brought to a common power-of-two scale (roots
    are invariant, the scaling is exact) so the discriminant neither
    overflows nor underflows.  Because qc <= 0 the discriminant is at least
    qb^2, the roots are real and straddle zero, and the two-branch formula
    avoids cancellation on either sign of qb.
    """
    _, ex = math.frexp(max(abs(qa), abs(qb), abs(qc)))
    qa, qb, qc = (math.ldexp(q, -ex) for q in (qa, qb, qc))
    disc = qb * qb - 4.0 * qa * qc
    root = math.sqrt(max(disc, 0.0))
    if qb <= 0.0:
        return (-qb + root) / (2.0 * qa)
    return -2.0 * qc / (qb + root)


def _d_zero_shape(b: float, as_: float, bs: float, cs: float, half: int):
    """Branch B/C solution for d = 0 in scaled units (see solve_four), with
    alpha in plain units; alpha is None where a and c vanish at b's scale
    with b <= 0 and the limiting (0, t, 0, t) shape is taken.  The sign of
    the unscaled b picks the form of the inner sum, since bs may underflow."""
    r = math.hypot(as_, bs, cs)
    inner = bs + r if b >= 0.0 else (as_ * as_ + cs * cs) / (r - bs)
    alpha = math.sqrt(inner) / 2.0
    if alpha == 0.0:
        t = math.sqrt(max(-bs, 0.0) / 2.0)
        return (0.0, t, 0.0, t), None
    scaled = (alpha, (as_ - cs) / (4.0 * alpha), alpha, (as_ + cs) / (4.0 * alpha))
    return scaled, math.ldexp(alpha, half)


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

    Branches:

    * A: a = c = d = 0 and b <= 0 -> (0, sqrt(-b/2), 0, sqrt(-b/2)).
    * B (d = 0, b > 0) and C (d = 0, b <= 0, (a, c) != (0, 0)): set
      x = z = alpha with alpha = sqrt(b + sqrt(a^2 + b^2 + c^2)) / 2 and
      y = (a - c)/(4 alpha), w = (a + c)/(4 alpha).  In branch C the inner
      sum is evaluated as (a^2 + c^2)/(sqrt(a^2+b^2+c^2) - b) to dodge
      cancellation for b < 0; it is strictly positive there, so alpha > 0.
    * D (d != 0): set x = sqrt(d + alpha), z = +/- sqrt(alpha) where alpha
      is the larger root of

          16(a^2+c^2+d^2) t^2 + 8(2d(a^2+c^2+d^2) - b(a^2+c^2)) t
              - (a^2 + c^2 + 2bd)^2 = 0,

      which is admissible (alpha >= 0 and alpha >= -d) because the
      quadratic has a positive leading coefficient and is <= 0 at both
      t = 0 and t = -d.  Squaring loses the relative sign of x and z, so
      both orientations are formed and the one with the smaller residual
      wins (ties keep the same-sign orientation).

    Nonzero components whose magnitudes span more than roughly 140 orders
    of magnitude can exhaust double precision in the branch-D quadratic
    setup; the solver then raises ResidualExceededError rather than
    returning an inaccurate solution.
    """
    _require_finite(a=a, b=b, c=c, d=d)
    e2 = _even_exponent(max(abs(a), abs(b), abs(c), abs(d)))
    half = e2 // 2
    as_, bs = math.ldexp(a, -e2), math.ldexp(b, -e2)
    cs, ds = math.ldexp(c, -e2), math.ldexp(d, -e2)

    def near_zero(t: float) -> bool:
        return abs(t) <= zero_eps

    # alpha is a coordinate (x = z = alpha) in branches B/C but a squared
    # coordinate (z^2) in branch D, so it converts back to plain units with
    # 2^half and 2^e2 respectively
    alpha_report: float | None = None
    if near_zero(d):
        if near_zero(a) and near_zero(c) and b <= 0.0:
            t = math.sqrt(max(-bs, 0.0) / 2.0)
            scaled = (0.0, t, 0.0, t)
            case = CaseFour.A
        else:
            case = CaseFour.B if b > 0.0 else CaseFour.C
            scaled, alpha_report = _d_zero_shape(b, as_, bs, cs, half)
    else:
        case = CaseFour.D
        s2 = as_ * as_ + cs * cs
        qa = 16.0 * (s2 + ds * ds)
        if qa == 0.0:
            # the squares of a, c and d all underflow at b's scale, so the
            # d = 0 shape applies in the limit
            scaled, alpha_report = _d_zero_shape(b, as_, bs, cs, half)
        else:
            qb = 8.0 * (2.0 * ds * (s2 + ds * ds) - bs * s2)
            qc = -((s2 + 2.0 * bs * ds) ** 2)
            alpha = _larger_quadratic_root(qa, qb, qc)
            # The true larger root clears both bounds; max() only absorbs the
            # last-ulp rounding of the quadratic formula.
            alpha = max(alpha, 0.0, -ds)
            x_mag = math.sqrt(max(ds + alpha, 0.0))
            z_mag = math.sqrt(alpha)
            sum_same = x_mag + z_mag
            if sum_same == 0.0:
                # alpha vanished with d, which underflowed at b's scale;
                # the d = 0 shape applies in the limit
                scaled, alpha_report = _d_zero_shape(b, as_, bs, cs, half)
            else:
                try:
                    alpha_report = math.ldexp(alpha, e2)
                except OverflowError:
                    # alpha is a squared coordinate: it can pass DBL_MAX
                    # while the solution stays in range
                    alpha_report = math.inf
                candidates = [
                    (x_mag, (as_ - cs) / (2.0 * sum_same),
                     z_mag, (as_ + cs) / (2.0 * sum_same))
                ]
                # Opposite orientation: x + z = x_mag - z_mag = d/(x_mag + z_mag),
                # computed in the stable quotient form.  sum_opp only vanishes
                # when ds underflowed, and then the orientations coincide.
                sum_opp = ds / sum_same
                if sum_opp != 0.0:
                    candidates.append(
                        (x_mag, (as_ - cs) / (2.0 * sum_opp),
                         -z_mag, (as_ + cs) / (2.0 * sum_opp))
                    )
                scaled = min(
                    candidates, key=lambda t: _residual_four(as_, bs, cs, ds, *t, e2)
                )

    scaled = tuple(_unsign_zero(t) for t in scaled)
    residual = _residual_four(as_, bs, cs, ds, *scaled, e2)
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_four residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (a, b, c, d) = ({a!r}, {b!r}, {c!r}, {d!r})",
            residual,
        )
    xs, ys, zs, ws = scaled
    norm_residual = abs(
        xs * xs + ys * ys + zs * zs + ws * ws - math.hypot(as_, bs, cs, ds)
    ) / (_one_in_scaled_units(e2) + abs(as_) + abs(bs) + abs(cs) + abs(ds))

    variants = None
    if enumerate_signs:
        variants = _sign_variants(
            scaled, lambda *t: _residual_four(as_, bs, cs, ds, *t, e2), tol, half
        )
    solution = tuple(math.ldexp(t, half) for t in scaled)
    return SolveReport(
        solution, case, residual, norm_residual, tol, alpha_report, variants
    )
