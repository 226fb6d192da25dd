import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import StreamSampler
from sosq.identities import (
    compose_two,
    compose_four,
    compose_two_raw,
    compose_four_raw,
    norm,
)

ints = st.integers()
small_ints = st.integers(min_value=-1000, max_value=1000)


class TestComposeTwo:
    def test_identity_element(self):
        assert compose_two((1, 0), (3, 4)) == (3, 4)

    # five components in all, once split 3 + 2: each operand is checked on
    # its own, not only the total
    @pytest.mark.parametrize(
        "p1, p2", [((1, 2, 3), (4,)), ((1, 2), (3,)), ((1,), (2, 3)), ((1, 2), (3, 4, 5))]
    )
    def test_operand_of_wrong_length_refused(self, p1, p2):
        with pytest.raises(ValueError):
            compose_two(p1, p2)

    def test_mixed_pair(self):
        # oracle: 5 * 5 = 25 = 4^2 + (-3)^2
        result = compose_two((1, 2), (2, 1))
        assert result == (4, -3)
        assert norm(result) == 25 == norm((1, 2)) * norm((2, 1))

    def test_equal_pairs(self):
        # oracle: 2 * 2 = 4 = 2^2 + 0^2
        result = compose_two((1, 1), (1, 1))
        assert result == (2, 0)
        assert norm(result) == 4

    @given(small_ints, small_ints)
    def test_identity_on_left(self, x, y):
        assert compose_two((1, 0), (x, y)) == (x, y)

    @given(ints, ints, ints, ints)
    def test_norm_law_exact(self, x1, y1, x2, y2):
        p1, p2 = (x1, y1), (x2, y2)
        assert norm(compose_two(p1, p2)) == norm(p1) * norm(p2)

    def test_norm_law_huge_integers(self):
        p1 = (10**60 + 7, -(10**59))
        p2 = (3**40, 7**33)
        assert norm(compose_two(p1, p2)) == norm(p1) * norm(p2)


class TestComposeFour:
    def test_identity_element(self):
        q = (2, 3, 5, 7)
        assert compose_four((1, 0, 0, 0), q) == q

    # eight components in all, once split 3 + 5
    @pytest.mark.parametrize(
        "q1, q2",
        [((1, 2, 3), (4, 5, 6, 7, 8)), ((1, 2, 3, 4), (5, 6, 7)), ((1, 2), (3, 4, 5, 6))],
    )
    def test_operand_of_wrong_length_refused(self, q1, q2):
        with pytest.raises(ValueError):
            compose_four(q1, q2)

    def test_all_ones_squared(self):
        result = compose_four((1, 1, 1, 1), (1, 1, 1, 1))
        assert result == (4, 0, 0, 0)
        assert norm(result) == 16

    def test_second_axis_squared(self):
        result = compose_four((0, 1, 0, 0), (0, 1, 0, 0))
        assert result == (1, 0, 0, 0)
        assert norm(result) == 1

    @given(*([small_ints] * 8))
    def test_norm_law_exact(self, x1, y1, z1, w1, x2, y2, z2, w2):
        q1, q2 = (x1, y1, z1, w1), (x2, y2, z2, w2)
        assert norm(compose_four(q1, q2)) == norm(q1) * norm(q2)

    @given(*([ints] * 8))
    def test_norm_law_unbounded(self, x1, y1, z1, w1, x2, y2, z2, w2):
        q1, q2 = (x1, y1, z1, w1), (x2, y2, z2, w2)
        assert norm(compose_four(q1, q2)) == norm(q1) * norm(q2)


class TestNorms:
    def test_zero(self):
        assert norm((0, 0)) == 0

    def test_pythagorean(self):
        assert norm((3, 4)) == 25

    def test_quad(self):
        assert norm((1, 1, 1, 1)) == 4

    @given(ints, ints)
    def test_nonnegative(self, x, y):
        assert norm((x, y)) >= 0


class TestRawHelpers:
    def test_raw_matches_wrapped(self):
        assert compose_two_raw(1, 2, 2, 1) == (4, -3)
        assert compose_four_raw(1, 1, 1, 1, 1, 1, 1, 1) == (4, 0, 0, 0)

    @given(*([st.floats(-100, 100)] * 4))
    def test_float_self_composition_zeroes_second_component(self, x, y, z, w):
        # on a self-composed tuple every component after the first is an
        # exact floating-point zero
        out = compose_four_raw(x, y, z, w, x, y, z, w)
        assert out[1] == 0.0 and out[2] == 0.0 and out[3] == 0.0

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_float_pair_self_composition(self, x, y):
        assert compose_two_raw(x, y, x, y)[1] == 0.0


def test_composition_returns_plain_tuples():
    assert type(compose_two((1, 2), (3, 4))) is tuple
    assert type(compose_four((1, 2, 3, 4), (5, 6, 7, 8))) is tuple
    # any two sequences of matching length compose, lists included
    assert compose_two([1, 2], [2, 1]) == (4, -3)


def test_seeded_sweep_norm_law():
    # smaller sibling of the acceptance sweep
    for sample in StreamSampler(3, 20000, -1000, 1000, integer=True).tuples(4):
        x1, y1, x2, y2 = (int(t) for t in sample)
        p1, p2 = (x1, y1), (x2, y2)
        assert norm(compose_two(p1, p2)) == norm(p1) * norm(p2)
