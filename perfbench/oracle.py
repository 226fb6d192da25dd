"""Answer checks that share no code with the package under test.

Each check raises WrongAnswer when an output is wrong.

The solver check decides exactly whether a solution's relative residual is
within the solver's tol.  A float evaluation with a proven rounding bound
settles almost every case; the rest are evaluated exactly: every double is
a dyadic rational, so scaling all of them by one power of two gives integer
arithmetic with the same value as the fractions.Fraction computation, at a
fraction of its cost.

The number-theory checks use each input's factorization, known by
construction or found here (trial division by the primes below 2000, then
Miller-Rabin and Pollard-Brent rho).
"""

from __future__ import annotations

import math


class WrongAnswer(AssertionError):
    """An output of the package failed an independent check."""


def primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


SMALL_PRIMES = primes_below(2000)

# Deterministic Miller-Rabin bases for n < 3.3e24 (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int) -> int:
    """A nontrivial factor of the odd composite n."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent(m)
            stack += [d, m // d]
    return out


def representable(fac: dict[int, int]) -> bool:
    """Sum of two squares iff every prime 3 (mod 4) has an even exponent."""
    return all(e % 2 == 0 for p, e in fac.items() if p % 4 == 3)


def check_squares(n: int, comps, width: int) -> None:
    comps = tuple(comps)
    if len(comps) != width or not all(type(c) is int and c >= 0 for c in comps):
        raise WrongAnswer(f"{width}-square components for {n} malformed: {comps!r}")
    if sum(c * c for c in comps) != n:
        raise WrongAnswer(f"{comps!r} squared sum is not {n}")


def check_two_square(n: int, fac: dict[int, int], rep) -> None:
    if rep is None:
        if representable(fac):
            raise WrongAnswer(f"{n} is a sum of two squares but None was returned")
        return
    check_squares(n, rep.components, 2)


def check_criterion(n: int, fac: dict[int, int], verdict: bool) -> None:
    if verdict is not representable(fac):
        raise WrongAnswer(f"criterion says {verdict} for {n}")


def _defects(rhs, sol):
    if len(rhs) == 2:
        u, v = rhs
        x, y = sol
        return (2 * x * y - u, x * x - y * y - v)
    a, b, c, d = rhs
    x, y, z, w = sol
    return (
        (x + z) * (y + w) - a,
        2 * x * z - y * y - w * w - b,
        (x + z) * (w - y) - c,
        x * x - z * z - d,
    )


def _dyadic(values, shift: int) -> list[int]:
    out = []
    for t in values:
        num, den = t.as_integer_ratio()
        out.append(num << (shift - den.bit_length() + 1))
    return out


def _shift_for(values) -> int:
    return max(t.as_integer_ratio()[1].bit_length() - 1 for t in values)


def solve_residual(rhs, solution) -> tuple[int, int]:
    """Exact relative residual of a solve_two/solve_four solution.

    Returns (numerator, denominator) of max|equation defect| divided by
    (1 + sum |rhs|): the solver's documented residual, evaluated exactly.
    """
    rhs, solution = tuple(rhs), tuple(solution)
    s = max(_shift_for(rhs + solution), 0)
    # rhs terms are quadratic in the solution, so they carry twice the scale
    rhs_i = [v << s for v in _dyadic(rhs, s)]
    sol_i = _dyadic(solution, s)
    defects = _defects(rhs_i, sol_i)
    return max(abs(t) for t in defects), (1 << 2 * s) + sum(abs(t) for t in rhs_i)


_EPS = 2.0**-53


def _clearly_within(rhs, solution, tol: float) -> bool:
    """Float evaluation with a rigorous rounding bound; True only if it proves
    the residual is within tol.  Anything else goes to the exact test.

    Scaling by powers of two keeps the products in range; values it pushes
    into the subnormals lose at most 2^-1074 each, which the absolute term
    of the bound covers.  Every defect is at most six roundings of terms no
    larger than m = 2 (sum |solution|)^2 + sum |rhs|, so 32 eps m bounds its
    rounding error with room to spare.
    """
    top = max(abs(t) for t in rhs)
    k = math.frexp(top)[1] // 2 if top else 0
    try:
        rhs_s = [math.ldexp(t, -2 * k) for t in rhs]
        sol_s = [math.ldexp(t, -k) for t in solution]
    except OverflowError:  # a solution far too large for its rhs
        return False
    size = sum(abs(t) for t in sol_s)
    m = 2.0 * size * size + sum(abs(t) for t in rhs_s)
    worst = max(abs(t) for t in _defects(rhs_s, sol_s)) + 32 * _EPS * m + 1e-300
    try:
        one = math.ldexp(1.0, -2 * k)
    except OverflowError:
        one = math.inf
    return worst <= tol * (one + sum(abs(t) for t in rhs_s)) * (1 - 16 * _EPS)


def check_solution(rhs, solution, tol: float) -> None:
    if len(solution) != len(rhs) or not all(math.isfinite(t) for t in solution):
        raise WrongAnswer(f"malformed solution {solution!r} for {rhs!r}")
    if _clearly_within(rhs, solution, tol):
        return
    num, den = solve_residual(rhs, solution)
    tn, td = float(tol).as_integer_ratio()
    if num * td > tn * den:
        raise WrongAnswer(
            f"solution {solution!r} for {rhs!r} has residual above tol {tol:.1e}"
        )


def expected_case(rhs) -> str:
    """Case label the solver documents for exact-zero structure."""
    if len(rhs) == 2:
        u, v = rhs
        if u != 0.0:
            return "UNZ"
        return "U0_VPOS" if v >= 0.0 else "U0_VNEG"
    a, b, c, d = rhs
    if d != 0.0:
        return "D"
    if a == 0.0 and c == 0.0 and b <= 0.0:
        return "A"
    return "B" if b > 0.0 else "C"
