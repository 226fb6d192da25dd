"""Sum-of-squares representability and constructive decompositions.

A positive integer is a sum of two squares exactly when every prime factor
congruent to 3 mod 4 occurs to an even power, and every nonnegative integer
is a sum of four squares.  Decompositions are assembled constructively:
factorize n, represent each prime by bounded brute force, and fold the
parts together through the exact composition laws, so the squared-sum
identity holds with no rounding anywhere.

Factorization is trial division: by a table of the primes below 2048,
sieved once at import, then by the 6k-1, 6k+1 wheel past the table,
stopping once the divisor's square exceeds the unfactored rest.  Products
of small primes factor quickly at any size, but a large prime factor p
costs O(sqrt p) steps, which keeps this at desk scale (n up to ~1e12).
The prime searches sit behind two helpers so a faster method could be
swapped in without touching the folding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import isqrt

from .identities import IntPair, IntQuad, compose_two, compose_four

__all__ = [
    "Factorization",
    "SquareRep",
    "factorize",
    "is_sum_of_two_squares",
    "two_square_brute_force",
    "two_square_decompose",
    "four_square_decompose",
]


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization of n >= 1, factors ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]


def _primes_below(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


_TABLE_LIMIT = 2048
_SMALL_PRIMES = _primes_below(_TABLE_LIMIT)
# first 6k-1 candidate above the table; the wheel tests it and its 6k+1
_WHEEL_START = _TABLE_LIMIT + (5 - _TABLE_LIMIT) % 6


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors = []
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    else:
        f = _WHEEL_START
        while f * f <= rest:
            for p in (f, f + 2):
                if rest % p == 0:
                    e = 0
                    while rest % p == 0:
                        rest //= p
                        e += 1
                    factors.append((p, e))
            f += 6
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def _factors_of(n: int, factorization: Factorization | None):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if factorization is None:
        return factorize(n).factors
    if factorization.n != n:
        raise ValueError(f"factorization is of {factorization.n}, not of {n}")
    return factorization.factors


def is_sum_of_two_squares(n: int, *, factorization: Factorization | None = None) -> bool:
    """True iff every prime factor of n congruent to 3 mod 4 has even exponent.

    Equivalently: in the split n = m*m * s with s squarefree, no prime of s
    is 3 mod 4.  A factorization of n, when given, is used instead of
    factoring n again.
    """
    return all(e % 2 == 0 for p, e in _factors_of(n, factorization) if p % 4 == 3)


def two_square_brute_force(n: int) -> tuple[int, int] | None:
    """Direct search for a*a + b*b == n, independent of the factorization path.

    Returns components sorted descending, or None when no representation
    exists.  Used as the cross-check route; O(sqrt n).
    """
    if n < 0:
        return None
    for a in range(isqrt(n // 2) + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            return (b, a)
    return None


@dataclass(frozen=True)
class SquareRep:
    """n as an exact sum of two or four squares, components nonnegative descending."""

    n: int
    components: tuple[int, ...]


@lru_cache(maxsize=None)
def _prime_two_square(p: int) -> tuple[int, int]:
    # p = 2 or p = 1 mod 4; a representation always exists.
    found = two_square_brute_force(p)
    if found is None:
        raise ArithmeticError(f"no two-square representation found for prime {p}")
    return found[::-1]


@lru_cache(maxsize=None)
def _prime_four_square(n: int) -> tuple[int, int, int, int]:
    # Descending nested search for a >= b >= c >= d >= 0; always succeeds.
    # Each loop stops once its value is too small to carry its share of
    # what is left (a*a >= n/4, b*b >= r1/3, c*c >= r2/2); the last bound
    # also makes d <= c.
    for a in range(isqrt(n), -1, -1):
        if 4 * a * a < n:
            break
        r1 = n - a * a
        for b in range(min(a, isqrt(r1)), -1, -1):
            if 3 * b * b < r1:
                break
            r2 = r1 - b * b
            for c in range(min(b, isqrt(r2)), -1, -1):
                if 2 * c * c < r2:
                    break
                r3 = r2 - c * c
                d = isqrt(r3)
                if d * d == r3:
                    return (a, b, c, d)
    raise ArithmeticError(f"no four-square representation found for {n}")


def two_square_decompose(
    n: int, *, factorization: Factorization | None = None
) -> SquareRep | None:
    """Exact two-square representation of n >= 1, or None if none exists.

    Primes 3 mod 4 (even exponents only) contribute p^(e/2) as a common
    multiplier; 2 and primes 1 mod 4 contribute brute-forced prime
    representations, one copy per exponent, folded through the two-square
    composition law.  A factorization of n, when given, is used instead of
    factoring n again.
    """
    multiplier = 1
    parts: list[IntPair] = []
    for p, e in _factors_of(n, factorization):
        if p % 4 == 3:
            if e % 2:
                return None
            multiplier *= p ** (e // 2)
        else:
            parts.extend([IntPair(*_prime_two_square(p))] * e)
    x, y = reduce(compose_two, parts) if parts else IntPair(1, 0)
    a, b = sorted((abs(x) * multiplier, abs(y) * multiplier), reverse=True)
    return SquareRep(n, (a, b))


def four_square_decompose(n: int) -> SquareRep:
    """Exact four-square representation of any n >= 0.

    Each prime factor is brute-forced once and the copies are folded through
    the four-square composition law; components come back as absolute values
    sorted descending.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return SquareRep(0, (0, 0, 0, 0))
    parts: list[IntQuad] = []
    for p, e in factorize(n).factors:
        parts.extend([IntQuad(*_prime_four_square(p))] * e)
    folded = reduce(compose_four, parts) if parts else IntQuad(1, 0, 0, 0)
    return SquareRep(n, tuple(sorted(map(abs, folded), reverse=True)))
