"""Independent oracles used to pin expected test values, and shared fixtures.

The oracles deliberately avoid the library's code paths: factorization by
the plain trial-division wheel, primality by the 6k-1, 6k+1 wheel,
representability by exhaustive search, system checks by direct
substitution, multiplicativity by direct evaluation, and the sampler's
draws by one SplitMix64 object per sample index.  The fixtures are the
samplers over explicit points and the representative multiplicative
families the tests sweep over.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt

from sosq.sampling import UniformSampler
from sosq.solutions import MultiplicativeFamily

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
    UniformSampler.tuples must reproduce for that index."""
    return SplitMix64(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))


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


@dataclass(frozen=True)
class DiagonalSampler:
    """Lift a width-w sampler to width-2w by pairing each tuple with itself."""

    inner: UniformSampler | FixedSampler

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


def builtin_families() -> tuple[MultiplicativeFamily, ...]:
    """Representative built-in families, used by sweeps and tests."""
    return (
        MultiplicativeFamily.power(0.0),
        MultiplicativeFamily.power(1.0),
        MultiplicativeFamily.power(2.0),
        MultiplicativeFamily.power(3.0),
        MultiplicativeFamily.signed_power(1.0),
        MultiplicativeFamily.signed_power(2.0),
        MultiplicativeFamily.one(),
        MultiplicativeFamily.zero(),
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
