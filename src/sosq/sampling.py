"""Deterministic, index-addressable sample sweeps.

Every sample is derived from (seed, sample index) alone, so a sweep can be
partitioned across workers and still reproduce the serial stream bit for
bit.  The generator is a 64-bit splitmix: cheap to seed, stable across
platforms and Python versions.

UniformSampler.blocks mixes a block of samples at a time in a few
big-integer operations.  Each 64-bit splitmix state sits in its own
128-bit lane of one Python int, in the low half with zeros above it.  A
lane's product with a 64-bit constant fits in its 128 bits, so it cannot
carry into the lane above, and what a right shift moves down from the
lane above lands in the zero half, where the mask clears it.  So each
lane goes through exactly the scalar mix: the draws are those of one
splitmix64 stream per sample index, draw for draw.  Lanes are
draw-major, draw k of sample i in lane k*n + i, so a block's column k is
one slice of its words.  Coordinates lie in the fixed box [LOW, HIGH],
whose span times 2**-53 is an exact, normal double, so LOW + scale * k
with that scale rounds the same real as LOW + span * (k * 2**-53), once.
Lanes are packed and unpacked little-endian whatever the host's byte
order.  The reference (stream_for), its StreamSampler and the
FixedSampler and DiagonalSampler fixtures live in tests/oracles.py.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# samples per block: 128-512 run equally fast, and at width 8 a block's
# lanes make one int of ~32 KB
_BLOCK = 256

# the box every coordinate is drawn from
LOW, HIGH = -10.0, 10.0


def _lanes(words) -> int:
    """One int with words[j] (< 2**64) in the low half of 128-bit lane j."""
    packed = array("Q", bytes(16 * len(words)))
    packed[::2] = array("Q", words)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _words(z: int, n: int) -> array:
    """The low halves of the lowest n lanes of z: the inverse of _lanes."""
    packed = array("Q", z.to_bytes(16 * n, "little"))
    if sys.byteorder == "big":
        packed.byteswap()
    return packed[::2]


def _mix(z: int, mask: int) -> int:
    """splitmix64's output function on every lane of z at once."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


@lru_cache(maxsize=4)
def _constants(n: int, width: int) -> tuple[int, int, int, int]:
    """ones, ramp, steps and mask for a block of n samples of width draws."""
    return (_lanes([1] * n), _lanes([i * _GOLDEN & _MASK64 for i in range(n)]),
            _lanes([(k + 1) * _GOLDEN & _MASK64 for k in range(width) for _ in range(n)]),
            _lanes([_MASK64] * (n * width)))


class UniformSampler(namedtuple("UniformSampler", "seed count")):
    """Seeded sweep of `count` tuples with coordinates in [LOW, HIGH].

    The field count shadows tuple.count.
    """

    __slots__ = ()

    def __new__(cls, seed: int, count: int):
        if count < 0:
            raise ValueError(f"sample count {count} is below 0")
        return tuple.__new__(cls, (seed, count))

    # namedtuple's _make (and _replace, built on it) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def blocks(self, width: int) -> Iterator[list[list[float]]]:
        """The samples _BLOCK at a time, each block as its width columns."""
        scale = (HIGH - LOW) * 2.0**-53
        for first in range(0, self.count, _BLOCK):
            n = min(_BLOCK, self.count - first)
            ones, ramp, steps, mask = _constants(n, width)
            # sample i's stream starts at mix(seed + (i + 1) * _GOLDEN), and
            # its k-th draw mixes that start plus (k + 1) * _GOLDEN
            # (a lane's sum of two words < 2**64 stays below 2**65, and the
            # mask reduces it mod 2**64)
            counter = (self.seed + (first + 1) * _GOLDEN) & _MASK64
            starts = _mix((counter * ones + ramp) & mask, mask)
            # the starts fill lanes 0..n-1; each OR doubles the copies above
            # them, and the mask drops those past lane n * width - 1
            span, copies = 128 * n, 1
            while copies < width:
                starts |= starts << (span * copies)
                copies *= 2
            draws = _mix((starts + steps) & mask, mask)
            # the shift leaves each lane's top 53 bits in its low half
            words = _words(draws >> 11, n * width)
            yield [[LOW + scale * k for k in words[j:j + n]] for j in range(0, n * width, n)]
