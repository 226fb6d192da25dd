import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import DiagonalSampler, FixedSampler, StreamSampler, flatten, stream_for
from sosq.sampling import _BLOCK as B
from sosq.sampling import HIGH, LOW, UniformSampler, _constants


def reference_draws(seed, count, width):
    """One SplitMix64 per sample, one method call per draw."""
    want = []
    for i in range(count):
        rng = stream_for(seed, i)
        want.append(tuple(rng.uniform(LOW, HIGH) for _ in range(width)))
    return want


class TestUniformSampler:
    def test_fields_and_box(self):
        assert UniformSampler._fields == ("seed", "count")
        assert (LOW, HIGH) == (-10.0, 10.0)

    def test_deterministic_replay(self):
        assert flatten(UniformSampler(42, 100), 4) == flatten(UniformSampler(42, 100), 4)

    def test_seed_changes_stream(self):
        assert flatten(UniformSampler(1, 50), 2) != flatten(UniformSampler(2, 50), 2)

    # sample i depends only on (seed, i), so any partition of the index range
    # reproduces the serial sweep; the counts straddle block boundaries
    @pytest.mark.parametrize("seed", [-17, 0, 2**64 - 1, 2**64 + 9])
    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_blocks_match_stream_for(self, seed, count, width):
        # repr compares bit for bit, the sign of zero included
        got = flatten(UniformSampler(seed, count), width)
        assert repr(got) == repr(reference_draws(seed, count, width))

    @given(
        seed=st.integers(-(2**70), -1) | st.integers(0, 2**64 - 1) | st.integers(2**64, 2**70),
        count=st.integers(0, 3 * B),
        width=st.integers(1, 8),
    )
    def test_blocks_match_stream_for_property(self, seed, count, width):
        got = flatten(UniformSampler(seed, count), width)
        assert repr(got) == repr(reference_draws(seed, count, width))
        info = _constants.cache_info()
        assert info.currsize <= info.maxsize

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="sample count -5 is below 0"):
            UniformSampler(1, -5)
        assert list(UniformSampler(1, 0).blocks(4)) == []

    def test_blocks_are_columns(self):
        blocks = list(UniformSampler(9, 2 * B + 3).blocks(5))
        assert [len(b) for b in blocks] == [5, 5, 5]
        assert [len(col) for b in blocks for col in b] == [B] * 10 + [3] * 5

    def test_constants_cache_is_bounded(self):
        # sweeps over 40 (block size, width) shapes leave at most maxsize
        # of them cached
        for width in range(1, 9):
            for count in (1, 3, B - 1, B + 2, 2 * B + 5):
                list(UniformSampler(width, count).blocks(width))
        info = _constants.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 8


class TestFixedSampler:
    def test_yields_points(self):
        points = ((1.0, 2.0), (3.0, 4.0))
        sampler = FixedSampler(points)
        assert list(sampler.tuples(2)) == list(points)
        assert sampler.count == 2

    def test_width_validated(self):
        with pytest.raises(ValueError):
            list(FixedSampler(((1.0, 2.0),)).tuples(3))

    def test_blocks_end_with_the_samples_before_a_bad_point(self):
        points = [(float(i), 1.0) for i in range(B + 2)] + [(1.0,)]
        blocks = FixedSampler(tuple(points)).blocks(2)
        assert next(blocks) == [tuple(map(float, range(B))), (1.0,) * B]
        assert next(blocks) == [(float(B), float(B + 1)), (1.0, 1.0)]
        with pytest.raises(ValueError, match="expected width-2 tuples"):
            next(blocks)


class TestDiagonalSampler:
    def test_repeats_each_tuple(self):
        inner = FixedSampler(((1.0, 2.0),), seed=5)
        lifted = DiagonalSampler(inner)
        assert list(lifted.tuples(4)) == [(1.0, 2.0, 1.0, 2.0)]
        assert lifted.seed == 5 and lifted.count == 1

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            list(DiagonalSampler(FixedSampler(((1.0,),))).tuples(3))
        with pytest.raises(ValueError):
            list(DiagonalSampler(FixedSampler(((1.0,),))).blocks(3))

    def test_blocks_are_columns_of_tuples(self):
        lifted = DiagonalSampler(StreamSampler(4, B + 1))
        assert flatten(lifted, 4) == list(lifted.tuples(4))
