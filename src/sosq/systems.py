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
with the achieved residual; the other member of the pair is its negation.
The report is a SolveReport, an immutable named tuple, read as a dict
through _asdict() and copied with changes through _replace().

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

from collections import namedtuple
from enum import Enum
from math import copysign, frexp, hypot, inf, isfinite, ldexp, sqrt

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


class SolveReport(namedtuple(
    "SolveReport", "solution case_label residual norm_residual tol alpha", defaults=(None,)
)):
    """Solution plus diagnostics, an immutable named tuple.

    residual is the maximum equation defect divided by (1 + sum of absolute
    inputs); norm_residual measures the squared-norm consequence on the same
    scale.  alpha is set by solve_four alone: x (= z) in cases B and C, z^2
    in plain units in case D (inf past DBL_MAX), None in case A.
    """

    __slots__ = ()


def _require_finite(**values: float) -> None:
    # the solvers call it only past a failed isfinite chain, for its message
    for name, value in values.items():
        if not isfinite(value):
            raise NonFiniteInputError(f"{name} = {value!r} is not finite")


_U0_VPOS, _U0_VNEG, _UNZ = CaseTwo.U0_VPOS, CaseTwo.U0_VNEG, CaseTwo.UNZ
_A, _B, _C, _D = CaseFour.A, CaseFour.B, CaseFour.C, CaseFour.D

# Each solver is one flat body with no helper calls: a solve costs a few
# dozen float operations, so a Python call per step would be most of it.


def solve_two(
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
    if not (isfinite(u) and isfinite(v)):
        _require_finite(u=u, v=v)
    # a negative (or NaN) zero_eps would call no input zero, not even 0.0
    if not zero_eps >= 0.0:
        raise ValueError(f"zero_eps = {zero_eps!r} must be >= 0")
    au = abs(u)
    # even e2 with max(|u|, |v|) * 2^-e2 in [0.5, 2), so that half of it
    # scales the solution back; frexp(0.0) gives 0
    e2 = frexp(max(au, abs(v)))[1] & -2
    us, vs = ldexp(u, -e2), ldexp(v, -e2)
    s = hypot(us, vs)
    if au > zero_eps:
        case = _UNZ
    else:
        case = _U0_VPOS if v >= 0.0 else _U0_VNEG
    # + 0.0 unsigns a zero component (-0.0 + 0.0 is +0.0) and leaves every
    # other value as it is
    if au <= zero_eps or us == 0.0:
        # a u that underflowed below v's scale is indistinguishable from 0
        if v >= 0.0:
            xs, ys = sqrt(vs) + 0.0, 0.0
        else:
            xs, ys = 0.0, sqrt(-vs) + 0.0
    elif v >= 0.0:
        xs = sqrt((vs + s) / 2.0) + 0.0
        ys = us / (2.0 * xs) + 0.0
    else:
        ys = copysign(sqrt((s - vs) / 2.0), us) + 0.0
        xs = us / (2.0 * ys) + 0.0

    # 2^-e2; infinite for deeply subnormal scales (ldexp overflows exactly
    # when e2 <= -1024), which correctly drives the relative residual to
    # zero there
    one = ldexp(1.0, -e2) if e2 > -1024 else inf
    # inputs and solution in 2^-e2 / 2^(-e2/2) scaled units, one = 2^-e2;
    # the ratio to scale equals the plain-unit relative residual
    scale = one + abs(us) + abs(vs)
    residual = max(abs(2.0 * xs * ys - us), abs(xs * xs - ys * ys - vs)) / scale
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_two residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (u, v) = ({u!r}, {v!r})",
            residual,
        )
    half = e2 // 2
    return SolveReport._make((
        (ldexp(xs, half), ldexp(ys, half)),
        case,
        residual,
        abs(xs * xs + ys * ys - s) / scale,
        tol,
        None,
    ))


def solve_four(
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
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        _require_finite(a=a, b=b, c=c, d=d)
    # a negative (or NaN) zero_eps would call no input zero, not even 0.0
    if not zero_eps >= 0.0:
        raise ValueError(f"zero_eps = {zero_eps!r} must be >= 0")
    aa, ac, ad = abs(a), abs(c), abs(d)
    # even exponents as in solve_two
    e2 = frexp(max(aa, abs(b), ac, ad))[1] & -2
    as_, bs = ldexp(a, -e2), ldexp(b, -e2)
    cs, ds = ldexp(c, -e2), ldexp(d, -e2)

    r = hypot(as_, bs, cs, ds)
    if b >= 0.0:
        p = sqrt(bs + r)
        # p = 0 only for the all-zero input
        s, t, q = (as_ / p, cs / p, ds / p) if p else (0.0, 0.0, 0.0)
    else:
        # direction of (a, c, d) at its own scale: at b's it can be subnormal
        e3 = frexp(max(aa, ac, ad))[1] & -2
        a3, c3, d3 = ldexp(a, -e3), ldexp(c, -e3), ldexp(d, -e3)
        n3 = hypot(a3, c3, d3)
        m = sqrt(r - bs)
        p = ldexp(n3, e3 - e2) / m
        s, t, q = (m * a3 / n3, m * c3 / n3, m * d3 / n3) if p else (m, 0.0, 0.0)
    # + 0.0 unsigns zeros as in solve_two; p + q or p - q can be -2^-1074
    xs, ys = (p + q) / 2.0 + 0.0, (s - t) / 2.0 + 0.0
    zs, ws = (p - q) / 2.0 + 0.0, (s + t) / 2.0 + 0.0

    # one and the residuals' scale as in solve_two
    one = ldexp(1.0, -e2) if e2 > -1024 else inf
    scale = one + abs(as_) + abs(bs) + abs(cs) + abs(ds)
    sxz = xs + zs
    residual = max(
        abs(sxz * (ys + ws) - as_),
        abs(2.0 * xs * zs - ys * ys - ws * ws - bs),
        abs(sxz * (ws - ys) - cs),
        abs(xs * xs - zs * zs - ds),
    ) / scale
    if not residual <= tol:
        raise ResidualExceededError(
            f"solve_four residual {residual:.3e} exceeds tol {tol:.3e} "
            f"for (a, b, c, d) = ({a!r}, {b!r}, {c!r}, {d!r})",
            residual,
        )
    norm_residual = abs(xs * xs + ys * ys + zs * zs + ws * ws - r) / scale
    half = e2 // 2
    x, z = ldexp(xs, half), ldexp(zs, half)
    solution = (x, ldexp(ys, half), z, ldexp(ws, half))
    if ad > zero_eps:
        # z^2 = x^2 - d >= -d; max() absorbs the rounding of z^2 near x = 0
        case, alpha = _D, max(z * z, -d)
    elif aa <= zero_eps and ac <= zero_eps and b <= 0.0:
        case, alpha = _A, None
    else:
        case, alpha = (_B if b > 0.0 else _C), x
    return SolveReport._make((solution, case, residual, norm_residual, tol, alpha))
