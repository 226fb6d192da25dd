"""Sum-of-squares representability and constructive decompositions.

A positive integer is a sum of two squares exactly when every prime factor
congruent to 3 mod 4 occurs to an even power, and every nonnegative integer
is a sum of four squares.  Decompositions are assembled constructively:
factorize n, represent each prime on its own, and fold the parts together
through the exact composition laws, so the squared-sum identity holds with
no rounding anywhere.  Each prime is represented by Euler's descent on
the same laws, and each result is checked exactly before it is returned.

Factorization screens n against the 309 primes below 2048, sieved once at
import: one gcd with their product finds the table primes that divide n,
and runs of 32 primes whose gcd with it is 1 are skipped.  Past the table,
trial division by the 6k-1, 6k+1 wheel stops once the divisor's square
exceeds the unfactored rest, or once Miller-Rabin proves a rest between
2**40 and 3.3e24 prime.  The factors are produced lazily, in ascending
order, so the two-square criterion and decomposition stop at the first
prime 3 mod 4 with an odd exponent and never factor the rest of n.
Products of small primes factor quickly at any size, and so do they times
one prime below 3.3e24.  Otherwise the wheel must reach the second largest
prime factor, or the square root of a largest one above 3.3e24, one step
per 6 integers, which keeps such n at desk scale (~1e12).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import count
from math import gcd, isqrt, prod

from .identities import compose_two, compose_four, norm
from .identities import compose_two_raw, compose_four_raw

__all__ = [
    "Factorization",
    "SquareRep",
    "factorize",
    "is_sum_of_two_squares",
    "two_square_decompose",
    "four_square_decompose",
]


class Factorization(namedtuple("Factorization", "n factors")):
    """Complete prime factorization of n >= 1, factors (p, e) with p ascending."""

    __slots__ = ()


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
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_TABLE_PRODUCT = prod(_SMALL_PRIMES)
# the table in runs of 32 primes, each with its product
_RUNS = tuple(
    (prod(run), run)
    for run in (_SMALL_PRIMES[i : i + 32] for i in range(0, len(_SMALL_PRIMES), 32))
)
# first 6k-1 candidate above the table; the wheel tests it and its 6k+1
_WHEEL_START = _TABLE_LIMIT + (5 - _TABLE_LIMIT) % 6


# a rest below 2**40 is left to the wheel, whose divisors then stay below
# 2**20; from 2**40 up to psi_13 = 3.3e24 (Sorenson & Webster, Math. Comp.
# 86, 2017), Miller-Rabin to the first 13 primes proves a rest prime
_PRIME_TEST_FROM = 2**40
_MR_PROOF_LIMIT = 3317044064679887385961981
_MR_BASES = _SMALL_PRIMES[:13]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES; a base sharing a factor with n,
    or an even n, fails the test."""
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _proved_prime(rest: int) -> bool:
    """True if rest lies where Miller-Rabin is both needed and a proof, and passes."""
    return _PRIME_TEST_FROM <= rest < _MR_PROOF_LIMIT and _is_prime(rest)


def _prime_powers(n: int):
    """Yield the prime factorization of n >= 1 as (p, e), p ascending, each
    pair as soon as it is found: the gcd screen over the prime table, then
    the wheel.

    g = gcd(n, product of the table) is the product of the table primes
    dividing n.  A run whose gcd with g is 1 holds none of them; one whose
    gcd is a single table prime is that prime, with no scan of the run.
    What is left has no factor below 2048, so below 2051**2 it is 1 or a
    prime and the wheel does not start.  A rest that Miller-Rabin proves
    prime, tested before the wheel and after each factor it divides out,
    is the last factor.  A consumer that stops early leaves the rest of n
    unfactored.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rest = n
    g = gcd(n, _TABLE_PRODUCT)
    for run_product, run in _RUNS:
        if g == 1:
            break
        h = gcd(g, run_product)
        if h == 1:
            continue
        g //= h
        for p in (h,) if h in _SMALL_PRIME_SET else run:
            if h % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                yield p, e
    if _proved_prime(rest):
        yield rest, 1
        return
    f = _WHEEL_START
    while f * f <= rest:
        for p in (f, f + 2):
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                yield p, e
                if _proved_prime(rest):
                    yield rest, 1
                    return
        f += 6
    if rest > 1:
        yield rest, 1


def factorize(n: int) -> Factorization:
    """Factor n >= 1 completely; see _prime_powers for the method."""
    return Factorization(n, tuple(_prime_powers(n)))


def _factors_of(n: int, factorization: Factorization | None):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if factorization is None:
        return _prime_powers(n)
    if factorization.n != n:
        raise ValueError(f"factorization is of {factorization.n}, not of {n}")
    for p, e in factorization.factors:
        if e < 1:
            raise ValueError(f"factor {p} has exponent {e}; must be >= 1")
        if not _is_prime(p):
            raise ValueError(f"factor {p} is not prime")
    if prod(p**e for p, e in factorization.factors) != n:
        raise ValueError(f"factorization {factorization.factors} does not multiply to {n}")
    return factorization.factors


def is_sum_of_two_squares(n: int) -> bool:
    """True iff every prime factor of n congruent to 3 mod 4 has even exponent.

    Equivalently: in the split n = m*m * s with s squarefree, no prime of s
    is 3 mod 4.
    """
    return all(e % 2 == 0 for p, e in _prime_powers(n) if p % 4 == 3)


class SquareRep(namedtuple("SquareRep", "n components")):
    """n as an exact sum of two or four squares, components nonnegative descending."""

    __slots__ = ()


# per-prime representations kept: more than the 303 primes below 2000, yet
# bounded, so a long-lived process decomposing ever new primes stays small
_PRIME_CACHE_SIZE = 512


def _descend(v: tuple[int, ...], p: int, compose) -> tuple[int, ...]:
    """Euler's descent from sum(v*v) = m*p, 1 <= m < p, to a sum equal to p.

    w = v mod m, in [-m/2, m/2), makes compose(v, w) divisible by m, with
    norm p * sum(w*w)/m.  On a prime p that lowers m; a step that does not
    stops, and the result is checked.  Returns absolute values, ascending.
    """
    m = norm(v) // p
    while m > 1:
        w = [(c + m // 2) % m - m // 2 for c in v]
        if (r := norm(w) // m) >= m:
            break
        v, m = [c // m for c in compose(*v, *w)], r
    if norm(v) != p:
        raise ArithmeticError(f"descent found no representation of prime {p}")
    return tuple(sorted(map(abs, v)))


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def _prime_two_square(p: int) -> tuple[int, int]:
    """(a, b) with a <= b and a*a + b*b == p, for p = 2 or a prime 1 mod 4.

    For a quadratic non-residue c, s = c^((p-1)/4) is a square root of -1
    mod p, so the descent starts from s*s + 1.  A c^((p-1)/2) other than
    +-1 proves p composite (ValueError); c = the least prime factor of p
    gives one at the latest, so the search ends on any p.
    """
    for c in count(2):
        if (r := pow(c, (p - 1) // 2, p)) == p - 1:
            break
        if r != 1:
            raise ValueError(f"{p} is not prime")
    s = pow(c, (p - 1) // 4, p)
    return _descend((min(s, p - s), 1), p, compose_two_raw)


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def _prime_four_square(p: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) with a >= b >= c >= d >= 0 and squared sum p, for a prime p.

    p = 2 or 1 mod 4 is its two squares.  For p = 3 mod 4 the descent starts
    from x*x + y*y + 1, x the least with -1 - x*x = y*y a square mod p.
    """
    if p % 4 != 3:
        return (*_prime_two_square(p)[::-1], 0, 0)
    x = next(x for x in count() if pow((-1 - x * x) % p, (p - 1) // 2, p) == 1)
    y = pow((-1 - x * x) % p, (p + 1) // 4, p)
    return _descend((x, min(y, p - y), 1, 0), p, compose_four_raw)[::-1]


def two_square_decompose(
    n: int, *, factorization: Factorization | None = None
) -> SquareRep | None:
    """Exact two-square representation of n >= 1, or None if none exists.

    Primes 3 mod 4 (even exponents only) contribute p^(e/2) as a common
    multiplier; 2 and primes 1 mod 4 contribute their two-square
    representations, one copy per exponent, folded through the two-square
    composition law, and the result is checked.  A factorization of n, when
    given, is used instead of factoring n again; it must multiply to n, with
    exponents >= 1 and factors that Miller-Rabin finds prime (a proof below
    3.3e24), or it is a ValueError naming the bad factor.
    """
    multiplier = 1
    parts = []
    for p, e in _factors_of(n, factorization):
        if p % 4 == 3:
            if e % 2:
                return None
            multiplier *= p ** (e // 2)
        else:
            parts += [_prime_two_square(p)] * e
    x, y = reduce(compose_two, parts) if parts else (1, 0)
    a, b = sorted((abs(x) * multiplier, abs(y) * multiplier), reverse=True)
    if a * a + b * b != n:
        raise ArithmeticError(f"{a}^2 + {b}^2 is not {n}")
    return SquareRep(n, (a, b))


def four_square_decompose(n: int) -> SquareRep:
    """Exact four-square representation of any n >= 0.

    Each prime factor is represented once by the descent and the copies are
    folded through the four-square composition law; components come back
    as absolute values sorted descending, checked to square-sum to n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return SquareRep(0, (0, 0, 0, 0))
    parts = []
    for p, e in _prime_powers(n):
        parts += [_prime_four_square(p)] * e
    folded = reduce(compose_four, parts) if parts else (1, 0, 0, 0)
    components = tuple(sorted(map(abs, folded), reverse=True))
    if norm(components) != n:
        raise ArithmeticError(f"the squares of {components} do not sum to {n}")
    return SquareRep(n, components)
