import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    four_square_witness,
    is_prime,
    is_two_square,
    two_square_witnesses,
    wheel_factors,
)
from sosq import sumsquares
from sosq.sumsquares import (
    factorize,
    four_square_decompose,
    is_sum_of_two_squares,
    two_square_brute_force,
    two_square_decompose,
)


def count_calls(monkeypatch, name):
    """Count calls of sumsquares.<name> made from here on."""
    calls = []
    inner = getattr(sumsquares, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sumsquares, name, counted)
    return calls


def next_prime(n):
    """Least prime >= n, found with the trial-division oracle."""
    while wheel_factors(n) != ((n, 1),):
        n += 1
    return n


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1).factors == ()

    def test_small_composites(self):
        assert factorize(45).factors == ((3, 2), (5, 1))
        assert factorize(9999).factors == ((3, 2), (11, 1), (101, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**8))
    def test_reconstructs_n_with_prime_factors(self, n):
        fac = factorize(n)
        product = 1
        for p, e in fac.factors:
            assert is_prime(p)
            assert e >= 1
            product *= p**e
        assert product == n
        assert list(fac.factors) == sorted(fac.factors)

    @pytest.mark.parametrize(
        "n",
        [2039, 2053, 2039 * 2053, 2053**2, 4194301**2, 2**11 * 2053, 3 * 2039**3],
        ids=str,
    )
    def test_matches_wheel_at_table_edge(self, n):
        # 2039 is the last prime in the table, 2053 the first past it
        assert factorize(n).factors == wheel_factors(n)

    def test_matches_wheel_below_30000(self):
        for n in range(1, 30000):
            assert factorize(n).factors == wheel_factors(n), n

    @given(st.integers(min_value=10**11, max_value=10**12))
    def test_matches_wheel_large(self, n):
        assert factorize(n).factors == wheel_factors(n)


class TestRepresentabilityCriterion:
    def test_examples(self):
        assert is_sum_of_two_squares(5)       # 1 + 4
        assert not is_sum_of_two_squares(21)  # 3 * 7, both odd exponents
        assert is_sum_of_two_squares(45)      # 36 + 9

    def test_oracle_agreement_small_range(self):
        for n in range(1, 2001):
            assert is_sum_of_two_squares(n) == is_two_square(n), n

    @given(st.integers(min_value=1, max_value=10**6))
    def test_oracle_agreement_random(self, n):
        assert is_sum_of_two_squares(n) == (two_square_brute_force(n) is not None)


class TestTwoSquareDecompose:
    def test_two(self):
        assert two_square_decompose(2).components == (1, 1)

    def test_65_matches_fold_of_prime_parts(self):
        # (1,2) and (2,3) compose to (8, -1); oracle accepts any valid pair
        rep = two_square_decompose(65)
        assert rep.components == (8, 1)
        assert (1, 8) in two_square_witnesses(65)

    def test_one_and_squares(self):
        assert two_square_decompose(1).components == (1, 0)
        assert two_square_decompose(9).components == (3, 0)
        assert two_square_decompose(49).components == (7, 0)

    def test_absent_for_unrepresentable(self):
        assert two_square_decompose(21) is None
        assert two_square_decompose(3) is None

    def test_exactness_sweep(self):
        for n in range(1, 2001):
            rep = two_square_decompose(n)
            if rep is None:
                assert not is_two_square(n)
            else:
                a, b = rep.components
                assert a >= b >= 0
                assert a * a + b * b == n

    def test_fold_path_taken_for_composite(self, monkeypatch):
        folds = count_calls(monkeypatch, "compose_two")
        rep = two_square_decompose(5 * 13 * 17)
        assert len(folds) == 2  # three prime parts, two folds
        a, b = rep.components
        assert a * a + b * b == 1105

    def test_single_prime_needs_no_fold(self, monkeypatch):
        folds = count_calls(monkeypatch, "compose_two")
        two_square_decompose(13)
        assert len(folds) == 0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_random_exactness(self, n):
        rep = two_square_decompose(n)
        if rep is not None:
            a, b = rep.components
            assert a * a + b * b == n
        else:
            assert not is_sum_of_two_squares(n)


    def test_prime_parts_match_oracle(self):
        # the first (smallest-first) witness of each prime p = 2 or 1 mod 4
        for p in range(2, 10**4):
            if is_prime(p) and p % 4 != 3:
                assert sumsquares._prime_two_square(p) == two_square_witnesses(p)[0], p


class TestFourSquareDecompose:
    def test_zero(self):
        assert four_square_decompose(0).components == (0, 0, 0, 0)

    def test_seven(self):
        assert four_square_decompose(7).components == (2, 1, 1, 1)

    def test_fifteen_composed_from_primes(self, monkeypatch):
        # parts (1,1,1,0) and (2,1,0,0) compose to (3,-1,-2,-1)
        folds = count_calls(monkeypatch, "compose_four")
        rep = four_square_decompose(15)
        assert rep.components == (3, 2, 1, 1)
        assert len(folds) == 1

    def test_components_sorted_descending(self):
        for n in (12, 56, 99, 360):
            comps = four_square_decompose(n).components
            assert list(comps) == sorted(comps, reverse=True)

    def test_totality_sweep(self):
        for n in range(2001):
            comps = four_square_decompose(n).components
            assert sum(c * c for c in comps) == n

    def test_prime_search_matches_unpruned_oracle(self):
        for n in range(3000):
            assert sumsquares._prime_four_square(n) == four_square_witness(n), n

    # primes only, as the library passes them: on a composite such as 2**29
    # both nested searches scan almost every (a, b, c) and run for minutes
    @given(st.integers(min_value=3000, max_value=10**9).map(next_prime))
    def test_prime_search_matches_unpruned_oracle_random(self, n):
        assert sumsquares._prime_four_square(n) == four_square_witness(n)

    def test_oracle_agrees_some_representation_exists(self):
        for n in (7, 15, 28, 31, 112):
            assert four_square_witness(n) is not None

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_exactness(self, n):
        comps = four_square_decompose(n).components
        assert sum(c * c for c in comps) == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            four_square_decompose(-1)


class TestBruteForceRoute:
    def test_witness_matches_oracle(self):
        for n in range(1, 500):
            mine = two_square_brute_force(n)
            oracle = two_square_witnesses(n)
            if oracle:
                assert mine is not None
                a, b = mine
                assert a * a + b * b == n
            else:
                assert mine is None
