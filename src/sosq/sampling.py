"""Deterministic, index-addressable sample sweeps.

Every sample is derived from (seed, sample index) alone, so a sweep can be
partitioned across workers and still reproduce the serial stream bit for
bit.  The generator is a 64-bit splitmix: cheap to seed, stable across
platforms and Python versions.

UniformSampler.tuples inlines the generator: coordinate k of sample i is
mixed straight from the counter, with no generator object per sample and
no method call per coordinate.  The reference it must match draw for draw,
one SplitMix64 stream per sample index (stream_for), lives with the tests
in tests/oracles.py, as do the FixedSampler and DiagonalSampler fixtures.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
