import pytest

from sosq.sampling import DiagonalSampler, FixedSampler, UniformSampler, stream_for


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
        ],
        ids=repr,
    )
    def test_inlined_draws_match_stream_for(self, sampler):
        for width in range(1, 9):
            # the reference: one SplitMix64 per sample, one method call per draw
            want = []
            for i in range(sampler.count):
                rng = stream_for(sampler.seed, i)
                if sampler.integer:
                    lo, hi = int(sampler.low), int(sampler.high)
                    draws = (float(rng.randint(lo, hi)) for _ in range(width))
                else:
                    draws = (rng.uniform(sampler.low, sampler.high) for _ in range(width))
                want.append(tuple(draws))
            # repr compares bit for bit, the sign of zero included
            assert repr(list(sampler.tuples(width))) == repr(want), width


class TestFixedSampler:
    def test_yields_points(self):
        points = ((1.0, 2.0), (3.0, 4.0))
        sampler = FixedSampler(points)
        assert list(sampler.tuples(2)) == list(points)
        assert sampler.count == 2

    def test_width_validated(self):
        with pytest.raises(ValueError):
            list(FixedSampler(((1.0, 2.0),)).tuples(3))


class TestDiagonalSampler:
    def test_repeats_each_tuple(self):
        inner = FixedSampler(((1.0, 2.0),), seed=5)
        lifted = DiagonalSampler(inner)
        assert list(lifted.tuples(4)) == [(1.0, 2.0, 1.0, 2.0)]
        assert lifted.seed == 5 and lifted.count == 1

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            list(DiagonalSampler(FixedSampler(((1.0,),))).tuples(3))
