import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import DiagonalSampler, FixedSampler, stream_for
from sosq.sampling import _BLOCK as B
from sosq.sampling import UniformSampler, _constants

MAX = 1.7976931348623157e308


def reference_draws(sampler, width):
    """One SplitMix64 per sample, one method call per draw."""
    want = []
    for i in range(sampler.count):
        rng = stream_for(sampler.seed, i)
        if sampler.integer:
            lo, hi = int(sampler.low), int(sampler.high)
            draws = (float(rng.randint(lo, hi)) for _ in range(width))
        else:
            draws = (rng.uniform(sampler.low, sampler.high) for _ in range(width))
        want.append(tuple(draws))
    return want


class TestUniformSampler:
    def test_deterministic_replay(self):
        a = list(UniformSampler(42, 100).tuples(4))
        b = list(UniformSampler(42, 100).tuples(4))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(UniformSampler(1, 50).tuples(2))
        b = list(UniformSampler(2, 50).tuples(2))
        assert a != b

    def test_bounds_respected(self):
        for t in UniformSampler(7, 500, -3.0, 5.0).tuples(3):
            assert all(-3.0 <= v <= 5.0 for v in t)

    def test_integer_mode(self):
        for t in UniformSampler(7, 500, -4, 4, integer=True).tuples(2):
            assert all(v == int(v) and -4 <= v <= 4 for v in t)

    def test_partition_equals_serial(self):
        # sample i depends only on (seed, i), so any partition of the index
        # range reproduces the serial sweep
        serial = list(UniformSampler(11, 100).tuples(4))
        by_index = []
        for i in range(100):
            rng = stream_for(11, i)
            by_index.append(tuple(rng.uniform(-10.0, 10.0) for _ in range(4)))
        assert serial == by_index

    @pytest.mark.parametrize(
        "sampler",
        [
            UniformSampler(42, 200),
            UniformSampler(-5, 150, -3.5, 1e3),
            UniformSampler(2**64 + 9, 100, 0.0, 1.0),
            UniformSampler(7, 150, -4, 9, integer=True),
            UniformSampler(3, 100, -100, 100, integer=True),
            UniformSampler(11, 1),
            UniformSampler(11, 0),
            UniformSampler(11, 1, -2, 2, integer=True),
            UniformSampler(11, 0, -2, 2, integer=True),
            # block boundaries
            UniformSampler(-17, B - 1),
            UniformSampler(-17, B),
            UniformSampler(-17, B + 1, -1.0, 1.0),
            UniformSampler(2**64 - 1, 2 * B + 3),
            UniformSampler(5, 2 * B + 3, -9, -2, integer=True),
            UniformSampler(-1, B + 1, -1000, 7, integer=True),
            # span * 2**-53 subnormal, 0 or past the double range; low >= high
            UniformSampler(4, 60, 0.0, 5e-324),
            UniformSampler(4, 60, 1e-310, -3e-310),
            UniformSampler(4, 60, -2.0**-969, 2.0**-969),
            UniformSampler(4, 60, -MAX, MAX),
            UniformSampler(4, 60, 3.0, 3.0),
            UniformSampler(4, 60, 2.0, -2.0),
        ],
        ids=repr,
    )
    def test_inlined_draws_match_stream_for(self, sampler):
        for width in range(1, 9):
            want = reference_draws(sampler, width)
            # repr compares bit for bit, the sign of zero included
            assert repr(list(sampler.tuples(width))) == repr(want), width

    def test_width_zero_yields_count_empty_tuples(self):
        assert list(UniformSampler(3, 5).tuples(0)) == [()] * 5
        assert list(UniformSampler(3, B + 1, -2, 2, integer=True).tuples(0)) == [()] * (B + 1)
        assert list(UniformSampler(3, 0).tuples(0)) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="sample count -5 is below 0"):
            UniformSampler(1, -5)
        assert list(UniformSampler(1, 0).tuples(4)) == []
        assert list(UniformSampler(1, 0).blocks(4)) == []

    def test_blocks_are_columns_of_tuples(self):
        sampler = UniformSampler(9, 2 * B + 3, -2.5, 7.0)
        blocks = list(sampler.blocks(5))
        assert [len(b) for b in blocks] == [5, 5, 5]
        assert [len(col) for b in blocks for col in b] == [B] * 10 + [3] * 5
        flat = [t for b in blocks for t in zip(*b)]
        assert repr(flat) == repr(list(sampler.tuples(5)))

    def test_constants_cache_is_bounded(self):
        # sweeps over 40 (block size, width) shapes leave at most maxsize
        # of them cached
        for width in range(1, 9):
            for count in (1, 3, B - 1, B + 2, 2 * B + 5):
                list(UniformSampler(width, count).blocks(width))
        info = _constants.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 8

    @given(
        seed=st.integers(-(2**70), -1) | st.integers(0, 2**64 - 1) | st.integers(2**64, 2**70),
        count=st.integers(0, 3 * B),
        width=st.integers(1, 8),
        data=st.data(),
    )
    def test_draws_match_stream_for_property(self, seed, count, width, data):
        kind = data.draw(
            st.sampled_from(["integer", "any", "equal", "tiny", "overflow"]), label="kind"
        )
        if kind == "integer":
            low = data.draw(st.integers(-(10**6), 10**6 - 1), label="low")
            high = data.draw(st.integers(low + 1, 10**6), label="high")
            sampler = UniformSampler(seed, count, low, high, integer=True)
        else:
            anywhere = st.floats(allow_nan=False, allow_infinity=False)
            finite = {
                # low > high and low == high included
                "any": anywhere,
                "equal": anywhere,
                # span * 2**-53 normal, or subnormal or 0 and inexact
                "tiny": st.floats(-1e-290, 1e-290) | st.floats(-1e-308, 1e-308),
                # a span past the double range: high - low is inf or -inf
                "overflow": st.floats(1e308, MAX) | st.floats(-MAX, -1e308),
            }[kind]
            low = data.draw(finite, label="low")
            if kind == "equal":
                high = low
            elif kind == "overflow":
                # opposite signs, each at least 1e308 away from 0
                far = st.floats(-MAX, -1e308) if low > 0 else st.floats(1e308, MAX)
                high = data.draw(far, label="high")
            else:
                high = data.draw(finite, label="high")
            sampler = UniformSampler(seed, count, low, high)
        want = repr(reference_draws(sampler, width))
        assert repr(list(sampler.tuples(width))) == want
        blocks = list(sampler.blocks(width))
        assert repr([t for b in blocks for t in zip(*b)]) == want
        info = _constants.cache_info()
        assert info.currsize <= info.maxsize


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
        lifted = DiagonalSampler(UniformSampler(4, B + 1))
        flat = [t for b in lifted.blocks(4) for t in zip(*b)]
        assert flat == list(lifted.tuples(4))
