"""Sum-of-squares representability and constructive decompositions.

A positive integer is a sum of two squares exactly when every prime factor
congruent to 3 mod 4 occurs to an even power, and every nonnegative integer
is a sum of four squares.  Decompositions are assembled constructively:
represent each prime factor on its own and fold the parts together through
the exact composition laws, so the squared-sum identity holds with no
rounding anywhere.  A prime 1 mod 4 is split into two squares by Euclid's
algorithm on p and a square root of -1 mod p.  Four squares factor out only
the table primes below and fold the part of n that is a sum of two squares
through the two-square law; the four-square law takes only the rest of n,
and each table prime 3 mod 4 of odd exponent, each represented whole as
x*x + y*y plus a prime 1 mod 4 that a search over x and y finds.  Table
primes are represented once, at import.  Each result is checked exactly
before it is returned.

Factorization screens n against the 309 primes below 2048, sieved once at
import, in runs of 32: one gcd a run with the rest as it shrinks, until
rest 1; an n with a factor past the table takes all 10.  Past the table,
trial division by the 6k-1, 6k+1 wheel stops once the divisor's square
exceeds the unfactored rest, or once Miller-Rabin proves a rest between
2**40 and 3.3e24 prime.  The factors come lazily, in ascending order, so
the two-square answers stop at the first prime 3 mod 4 with an odd
exponent; an n whose odd part is 3 mod 4 has one, and they answer no
before any factor.  Products of small primes factor quickly at any size,
and so do they times one prime below 3.3e24; otherwise the wheel must
reach the second largest prime factor, or the square root of a largest
one above 3.3e24, which keeps the two-square answers for such n at desk
scale (~1e12).  Four squares take milliseconds at 300 digits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import count
from math import gcd, isqrt, prod

from .identities import compose_two, compose_four, norm

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


def _table_screen(n: int, past):
    """Yield (p, e) per table prime p dividing n >= 1, p ascending, then what
    past(rest) yields for the rest of n.  Each run takes one gcd h with the
    rest as it shrinks: a run with h = 1 holds none, one whose h is a single
    table prime is that prime, with no scan of the run, and the scan of any
    other run stops once its primes have used up h.  The runs stop at rest 1,
    and past(1) yields nothing; a rest with a factor past the table meets all."""
    rest = n
    for run_product, run in _RUNS:
        if rest == 1:
            break
        h = gcd(rest, run_product)
        if h == 1:
            continue
        for p in (h,) if h in _TABLE_SQUARES else run:
            if h % p == 0:
                h, rest, e = h // p, rest // p, 1
                while rest % p == 0:
                    rest //= p
                    e += 1
                yield p, e
                if h == 1:
                    break
    yield from past(rest)


def _prime_powers(n: int):
    """The prime factorization of n >= 1 as (p, e), p ascending, each pair
    yielded as soon as it is found: the table screen, then _past_table.  A
    consumer that stops early leaves the rest of n unfactored."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _table_screen(n, _past_table)


def _past_table(rest: int):
    """Yield the prime factorization of a rest with no factor below 2048: below
    2051**2 it is 1 or a prime and the wheel does not start.  A rest that
    Miller-Rabin proves prime, tested before the wheel and after each factor
    it divides out, is the last factor."""
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


def _two_square_factors(n: int):
    """n's prime powers, lazily; None if n's odd part is 3 mod 4."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # 2(a*a + b*b) = (a+b)**2 + (a-b)**2, so n and its odd part are sums of
    # two squares together; squares are 0 or 1 mod 4, so an odd sum is 1 mod 4
    if (n // (n & -n)) % 4 == 3:
        return None
    return _prime_powers(n)


def is_sum_of_two_squares(n: int) -> bool:
    """True iff every prime factor of n congruent to 3 mod 4 has even exponent.

    Equivalently: in the split n = m*m * s with s squarefree, no prime of s
    is 3 mod 4.  An odd part 3 mod 4 answers False before any factoring.
    """
    factors = _two_square_factors(n)
    return factors is not None and all(e % 2 == 0 for p, e in factors if p % 4 == 3)


class SquareRep(namedtuple("SquareRep", "n components")):
    """n as an exact sum of two or four squares, components nonnegative descending."""

    __slots__ = ()


def _prime_two_square(p: int) -> tuple[int, int]:
    """(a, b) with a <= b and a*a + b*b == p, for p = 1, 2 or a prime 1 mod 4;
    _TABLE_SQUARES holds its answer for p = 1 and every table prime.

    For a quadratic non-residue c, s = c^((p-1)/4) is a square root of -1
    mod p.  Euclid's algorithm on p and s, stopped at the first remainder a
    with a*a < p, leaves p - a*a a square (Hermite-Serret; Brillhart, Math.
    Comp. 26, 1972), and the pair is checked.  A c^((p-1)/2) other than +-1
    proves p composite (ValueError); c = the least prime factor of p gives
    one at the latest, so the search ends on any p.
    """
    for c in count(2):
        if (r := pow(c, (p - 1) // 2, p)) == p - 1:
            break
        if r != 1:
            raise ValueError(f"{p} is not prime")
    r, a = p, pow(c, (p - 1) // 4, p)
    while a * a > p:
        r, a = a, r % a
    b = isqrt(p - a * a)
    if a * a + b * b != p:
        raise ArithmeticError(f"Euclid's algorithm found no two squares of prime {p}")
    return (min(a, b), max(a, b))


def two_square_decompose(n: int) -> SquareRep | None:
    """Exact two-square representation of n >= 1, or None if none exists.

    Primes 3 mod 4 (even exponents only) contribute p^(e/2) as a common
    multiplier; 2 and primes 1 mod 4 contribute their two-square
    representations, one copy per exponent, folded through the two-square
    composition law, and the result is checked.  An n whose odd part is
    3 mod 4 is None before any factoring.
    """
    factors = _two_square_factors(n)
    return None if factors is None else _two_squares_from(n, factors)


def _two_squares_from(n: int, factors) -> SquareRep | None:
    """two_square_decompose(n) from n's prime powers (p, e), p ascending."""
    multiplier = 1
    parts = []
    for p, e in factors:
        if p % 4 == 3:
            if e % 2:
                return None
            multiplier *= p ** (e // 2)
        else:
            parts += [_TABLE_SQUARES[p] if p < _TABLE_LIMIT else _prime_two_square(p)] * e
    x, y = reduce(compose_two, parts) if parts else (1, 0)
    a, b = sorted((abs(x) * multiplier, abs(y) * multiplier), reverse=True)
    if a * a + b * b != n:
        raise ArithmeticError(f"{a}^2 + {b}^2 is not {n}")
    return SquareRep(n, (a, b))


def _cofactor_four_square(m: int) -> tuple[int, int, int, int]:
    """(x, y, a, b) with x*x + y*y + a*a + b*b == m, for an odd m >= 1: x is the
    greatest with m - x*x = 1 or 2 mod 4, y the greatest with p = m - x*x - y*y
    = 1 mod 4, and y, then x, step down by 2 until p is a key of _TABLE_SQUARES,
    or coprime to the table and passes Miller-Rabin.  From psi_13 up that is only
    a probable prime, so a split by _prime_two_square that refutes it costs a
    retry, never a wrong answer."""
    x = isqrt(m)
    x -= (m - x * x) % 4 in (0, 3)
    while x >= 0:
        r = m - x * x
        y = isqrt(r)
        y -= (r - y * y) % 4 != 1
        while y >= 0:
            p = r - y * y
            if p in _TABLE_SQUARES:
                return (x, y, *_TABLE_SQUARES[p])
            if gcd(p, _TABLE_PRODUCT) == 1 and _is_prime(p):
                try:
                    return (x, y, *_prime_two_square(p))
                except (ValueError, ArithmeticError):
                    pass
            y -= 2
        x -= 2
    raise ArithmeticError(f"no four squares of {m} found")


# 1 and each table prime as squares: pairs first, for 1, 2 and the primes
# 1 mod 4, so that the search for a prime 3 mod 4 reads its p here
_TABLE_SQUARES = {p: _prime_two_square(p) for p in (1, *_SMALL_PRIMES) if p % 4 != 3}
_TABLE_SQUARES |= {p: tuple(sorted(_cofactor_four_square(p), reverse=True))
                   for p in _SMALL_PRIMES if p % 4 == 3}


def four_square_decompose(n: int) -> SquareRep:
    """Exact four-square representation of any n >= 0.

    n = a*b.  a holds 2, the table primes 1 mod 4 and the even part of the
    power of each table prime 3 mod 4: the first two fold through the
    two-square law, scaled by the square root m of the third.  b holds each
    table prime 3 mod 4 of odd exponent once, by its _TABLE_SQUARES, and a
    rest past the table whole, by _cofactor_four_square.  a's pair, padded
    with zeros, and b's parts, the rest last, fold through the four-square
    law; a = 1 is left out.  The components come back as absolute values
    sorted descending, checked to square-sum to n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return SquareRep(0, (0, 0, 0, 0))
    pairs, m, parts = [], 1, []
    for p, e in _table_screen(n, lambda rest: [(rest, 1)] if rest > 1 else []):
        if p >= _TABLE_LIMIT:
            parts.append(_cofactor_four_square(p))
        elif p % 4 != 3:
            pairs += [_TABLE_SQUARES[p]] * e
        else:
            m *= p ** (e // 2)
            if e % 2:
                parts.append(_TABLE_SQUARES[p])
    if pairs or m > 1 or not parts:
        x, y = reduce(compose_two, pairs) if pairs else (1, 0)
        parts.insert(0, (x * m, y * m, 0, 0))
    folded = reduce(compose_four, parts)
    components = tuple(sorted(map(abs, folded), reverse=True))
    if norm(components) != n:
        raise ArithmeticError(f"the squares of {components} do not sum to {n}")
    return SquareRep(n, components)
