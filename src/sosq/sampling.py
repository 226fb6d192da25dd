"""Deterministic, index-addressable sample sweeps.

Every sample is derived from (seed, sample index) alone, so a sweep can be
partitioned across workers and still reproduce the serial stream bit for
bit.  The generator is a 64-bit splitmix: cheap to seed, stable across
platforms and Python versions.

UniformSampler.tuples inlines the generator: coordinate k of sample i is
mixed straight from the counter, with no SplitMix64 object per sample and
no method call per coordinate.  stream_for and SplitMix64 are the reference
it must match draw for draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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
    """Independent generator for one sample index."""
    return SplitMix64(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))


@dataclass(frozen=True)
class UniformSampler:
    """Seeded sweep of `count` tuples with coordinates in [low, high].

    With integer=True the coordinates are integer-valued floats, which keeps
    small polynomial arithmetic exact in IEEE doubles.
    """

    seed: int
    count: int
    low: float = -10.0
    high: float = 10.0
    integer: bool = False

    def tuples(self, width: int) -> Iterator[tuple[float, ...]]:
        # stream_for(seed, i) followed by `width` next_u64 calls, inlined:
        # the k-th draw mixes the stream's start state plus (k + 1) * _GOLDEN
        mask = _MASK64
        steps = [(k + 1) * _GOLDEN for k in range(width)]
        counter = self.seed & mask
        integer = self.integer
        if integer:
            low = int(self.low)
            span = int(self.high) - low + 1
        else:
            low = self.low
            span = self.high - low
        for _ in range(self.count):
            counter = (counter + _GOLDEN) & mask
            z = (counter ^ (counter >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            start = z ^ (z >> 31)
            out = []
            for step in steps:
                z = (start + step) & mask
                z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
                z ^= z >> 31
                if integer:
                    out.append(float(low + z % span))
                else:
                    out.append(low + span * ((z >> 11) * 2.0**-53))
            yield tuple(out)


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
