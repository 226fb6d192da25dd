"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's code paths: factorization by the
plain trial-division wheel, representability by exhaustive search, system
checks by direct substitution, multiplicativity by direct evaluation.
"""

from math import isqrt


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
