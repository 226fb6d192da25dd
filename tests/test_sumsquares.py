import signal
from contextlib import contextmanager
from itertools import count, islice
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    four_square_witness,
    is_prime,
    is_two_square,
    two_square_witnesses,
    wheel_factors,
)
from sosq import sumsquares
from sosq.identities import compose_four_raw, norm
from sosq.sumsquares import (
    Factorization,
    _prime_powers,
    factorize,
    four_square_decompose,
    is_sum_of_two_squares,
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


# the primes below 2048, which factorize screens for with one gcd
TABLE = [p for p in range(2048) if is_prime(p)]


def prime_at_most(n, residue):
    """Greatest prime p = residue mod 4 with p <= n; n >= 5 for residue 1, 3 for 3."""
    while n % 4 != residue or not is_prime(n):
        n -= 1
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

    @given(
        st.dictionaries(
            st.sampled_from(TABLE), st.integers(min_value=1, max_value=60),
            min_size=1, max_size=40,
        ),
        st.sampled_from([1, 2053, 2053**2, 2053 * 2063, 1000003]),
    )
    def test_matches_wheel_smooth(self, powers, cofactor):
        # the gcd screen over the table, then the wheel on the cofactor
        n = prod(p**e for p, e in powers.items()) * cofactor
        assert factorize(n).factors == wheel_factors(n)

    @pytest.mark.parametrize(
        "n", [prod(TABLE), prod(TABLE) ** 2], ids=["table", "table squared"]
    )
    def test_matches_wheel_on_the_whole_table(self, n):
        assert factorize(n).factors == wheel_factors(n)

    def test_matches_wheel_on_table_prime_squares(self):
        for p in TABLE:
            assert factorize(p * p).factors == ((p, 2),) == wheel_factors(p * p)


# primes from 2**40, where a rest is tested by Miller-Rabin, up to the last
# prime below psi_13 = 3317044064679887385961981, where that test ends
LARGE_PRIMES = [
    2**40 + 15, 2**61 - 1, 10**18 + 3, 10**24 + 7, 3317044064679887385961813,
]


@contextmanager
def deadline(seconds):
    """Fail the block, instead of hanging, once it runs past seconds; where
    the platform has no SIGALRM, run it unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still factoring after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        # the interrupted frames can carry no line number, which pytest's
        # traceback report cannot format
        pytest.fail(str(exc), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPrimePowers:
    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_factorize_and_wheel(self, n):
        assert tuple(_prime_powers(n)) == factorize(n).factors == wheel_factors(n)

    @given(
        st.one_of(
            st.integers(min_value=1, max_value=10**6),
            st.sampled_from([2053, 2053**2 * 1000003, 2**10 * 3**5 * 2039 * 1000003]),
        ),
        st.sampled_from(LARGE_PRIMES),
    )
    @example(1, 2**40 + 15)
    @example(7 * 1000003, 10**18 + 3)
    def test_prime_cofactor_above_2_40(self, small, q):
        # q is proved prime before the wheel, or once the wheel has divided
        # out the last factor of small past the table; every factor of small
        # is below q, so q comes last
        expected = wheel_factors(small) + ((q, 1),)
        with deadline(10):
            assert tuple(_prime_powers(small * q)) == factorize(small * q).factors == expected

    def test_prime_rest_below_the_gate(self):
        # 2**40 - 87 is the last prime below the gate: the wheel proves it
        q = 2**40 - 87
        for small in (1, 3, 2053):
            assert factorize(small * q).factors == wheel_factors(small * q)

    def test_gate_ends_below_psi_13(self):
        # psi_13 passes Miller-Rabin to the 13 bases but is composite, so a
        # rest there is not taken as prime
        psi_13 = 3317044064679887385961981
        assert psi_13 == 1287836182261 * 2575672364521
        assert sumsquares._is_prime(psi_13)
        assert not sumsquares._proved_prime(psi_13)
        assert sumsquares._proved_prime(LARGE_PRIMES[-1])

    @pytest.mark.parametrize("n", [0, -1])
    def test_criterion_refuses_n_below_one(self, n):
        # the generator checks n when first asked for a factor
        with pytest.raises(ValueError, match="n must be >= 1"):
            is_sum_of_two_squares(n)


def pull_at_most(monkeypatch, limit=None):
    """Record the pairs sumsquares._prime_powers yields from here on; asking
    for one past the first limit fails at once, before the wheel goes on."""
    pulled = []
    inner = sumsquares._prime_powers

    def recorded(n):
        for pair in inner(n):
            pulled.append(pair)
            yield pair
            if len(pulled) == limit:
                raise AssertionError(f"asked for a factor of {n} past {pulled}")

    monkeypatch.setattr(sumsquares, "_prime_powers", recorded)
    return pulled


class TestLazyFactors:
    # 3 (10^9+7)(10^9+9): 3 to an odd power settles "no", while the wheel
    # would take minutes to reach 10^9+7
    N = 3 * 1000000016000000063

    def test_criterion_stops_at_the_first_odd_q(self, monkeypatch):
        pulled = pull_at_most(monkeypatch, 1)
        assert is_sum_of_two_squares(self.N) is False
        assert pulled == [(3, 1)]

    def test_decompose_stops_at_the_first_odd_q(self, monkeypatch):
        pulled = pull_at_most(monkeypatch, 1)
        assert two_square_decompose(self.N) is None
        assert pulled == [(3, 1)]

    def test_even_powers_of_q_are_read_past(self, monkeypatch):
        # 3^2 * 7: the even power of 3 decides nothing, the 7 settles it
        pulled = pull_at_most(monkeypatch, 2)
        assert is_sum_of_two_squares(63 * 1000000016000000063) is False
        assert pulled == [(3, 2), (7, 1)]

    def test_four_squares_read_every_factor(self, monkeypatch):
        pulled = pull_at_most(monkeypatch)
        rep = four_square_decompose(3 * 7 * 10**18 + 63)
        assert norm(rep.components) == 21 * (10**18 + 3)
        assert pulled == [(3, 1), (7, 1), (10**18 + 3, 1)]


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
        assert is_sum_of_two_squares(n) == is_two_square(n)


class TestCallerFactorization:
    # a factorization whose prime powers do not multiply to n is refused,
    # naming its factors; before, each of these gave a wrong answer
    def test_wrong_prime_for_square(self):
        with pytest.raises(ValueError, match=r"\(\(3, 2\),\) does not multiply to 25"):
            two_square_decompose(25, factorization=Factorization(25, ((3, 2),)))

    def test_missing_factor(self):
        with pytest.raises(ValueError, match=r"\(\(5, 1\),\) does not multiply to 45"):
            two_square_decompose(45, factorization=Factorization(45, ((5, 1),)))

    @pytest.mark.parametrize("n, factors, bad", [
        # a negative factor once gave the component -1; -3 once raised from
        # inside the descent; 15 once read as "45 is not representable"
        (1, ((-1, 2),), -1),
        (9, ((-3, 2),), -3),
        (45, ((15, 1), (3, 1)), 15),
        (1, ((1, 1),), 1),
        (1, ((0, 1),), 0),
        (9, ((9, 1),), 9),
        (29341, ((29341, 1),), 29341),
    ])
    def test_factor_that_is_not_prime_refused(self, n, factors, bad):
        with pytest.raises(ValueError, match=rf"^factor {bad} is not prime$"):
            two_square_decompose(n, factorization=Factorization(n, factors))

    @pytest.mark.parametrize("e", [0, -1])
    def test_exponent_below_one_refused(self, e):
        # 3 * 3^-1 multiplies to 1 as a float
        with pytest.raises(ValueError, match=rf"^factor 3 has exponent {e}; must be >= 1$"):
            two_square_decompose(1, factorization=Factorization(1, ((3, 1), (3, e))))

    @given(st.integers(min_value=1, max_value=10**9))
    def test_true_factorization_changes_nothing(self, n):
        given_factors = Factorization(n, wheel_factors(n))
        assert two_square_decompose(n, factorization=given_factors) == two_square_decompose(n)

    def test_composite_factor_ends(self, monkeypatch):
        # a composite listed as a prime; before, 9 hung the non-residue
        # search.  29341 is a Carmichael number whose descent finds
        # 10^2 + 171^2.  The search stops by c = the least prime factor q of
        # n, so with the call for the root of -1 it makes at most q calls
        calls = []

        def bounded_pow(*args):
            calls.append(args)
            assert len(calls) <= q, f"more than {q} calls of pow for {n}"
            return pow(*args)

        monkeypatch.setattr(sumsquares, "pow", bounded_pow, raising=False)
        for n in [*range(4, 5000), 29341]:
            if n % 4 == 3 or is_prime(n):
                continue
            q = wheel_factors(n)[0][0]
            calls.clear()
            try:
                rep = sumsquares._prime_two_square.__wrapped__(n)
            except ValueError as exc:
                assert str(exc) == f"{n} is not prime"
            except ArithmeticError as exc:
                assert str(exc) == f"descent found no representation of prime {n}"
            else:
                assert rep[0] ** 2 + rep[1] ** 2 == n
            calls.clear()
            try:
                rep = two_square_decompose(n, factorization=Factorization(n, ((n, 1),)))
            except (ValueError, ArithmeticError):
                continue
            assert norm(rep.components) == n


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

    # 2029 is the last prime 1 mod 4 in the factor table
    @given(st.integers(min_value=5, max_value=10**12).map(lambda n: prime_at_most(n, 1)))
    @example(2)
    @example(2029)
    def test_descent_matches_oracle(self, p):
        assert sumsquares._prime_two_square.__wrapped__(p) == two_square_witnesses(p)[0]

    def test_descent_checks_its_pair(self, monkeypatch):
        # a "root" of -1 that is wrong (p - 1 squares to 1) must not come back
        # as a pair; any c passes the non-residue test under this pow
        monkeypatch.setattr(sumsquares, "pow", lambda c, e, p: p - 1, raising=False)
        with pytest.raises(ArithmeticError, match="prime 13"):
            sumsquares._prime_two_square.__wrapped__(13)

    def test_wrong_prime_part_fails_the_final_check(self, monkeypatch):
        monkeypatch.setattr(sumsquares, "_prime_two_square", lambda p: (1, 2))
        with pytest.raises(ArithmeticError, match="is not 13"):
            two_square_decompose(13)


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

    def test_prime_parts_below_10000(self):
        for p in range(2, 10**4):
            if is_prime(p):
                comps = sumsquares._prime_four_square(p)
                assert min(comps) >= 0 and list(comps) == sorted(comps, reverse=True), p
                assert sum(c * c for c in comps) == p, p

    def test_prime_parts_pad_the_two_square_pair(self):
        for p in range(2, 10**4):
            if is_prime(p) and p % 4 != 3:
                a, b = two_square_witnesses(p)[0]
                assert sumsquares._prime_four_square(p) == (b, a, 0, 0), p

    # 999999999959 = 7 mod 8, so it needs four nonzero squares
    @given(st.integers(min_value=3, max_value=10**12).map(lambda n: prime_at_most(n, 3)))
    @example(3)
    @example(7)
    @example(999999999959)
    @example(2**61 - 1)
    def test_descent_for_primes_3_mod_4(self, p):
        comps = sumsquares._prime_four_square.__wrapped__(p)
        assert min(comps) >= 0 and list(comps) == sorted(comps, reverse=True)
        assert sum(c * c for c in comps) == p

    def test_descent_checks_its_quadruple(self, monkeypatch):
        # under this pow every x passes and the "root" y = 1 is wrong, so
        # x*x + y*y + 1 = 2 is no multiple of p: no step runs, the check fails
        monkeypatch.setattr(sumsquares, "pow", lambda c, e, p: 1, raising=False)
        with pytest.raises(ArithmeticError, match="prime 7"):
            sumsquares._prime_four_square.__wrapped__(7)

    def test_step_that_does_not_lower_m_stops(self):
        # 1 + 1 + 1 + 9 = 2 * 6, all residues mod 2 are 1: m stays 2 on the
        # composite 6, so the descent stops instead of looping
        with pytest.raises(ArithmeticError, match="prime 6"):
            sumsquares._descend((1, 1, 1, 3), 6, compose_four_raw)

    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=4, max_size=4),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_descent_ends_on_any_input(self, v, p):
        try:
            comps = sumsquares._descend(tuple(v), p, compose_four_raw)
        except ArithmeticError:
            return
        assert sum(c * c for c in comps) == p

    def test_wrong_prime_part_fails_the_final_check(self, monkeypatch):
        monkeypatch.setattr(sumsquares, "_prime_four_square", lambda p: (2, 1, 0, 0))
        with pytest.raises(ArithmeticError, match="do not sum to 7"):
            four_square_decompose(7)

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


@pytest.mark.parametrize("name", ["_prime_two_square", "_prime_four_square"])
def test_prime_cache_is_bounded(name):
    cached = getattr(sumsquares, name)
    bound = cached.cache_info().maxsize
    assert bound == sumsquares._PRIME_CACHE_SIZE
    # every prime factor of a smooth n (all primes below 2000) fits at once
    assert bound >= sum(map(is_prime, range(2000)))
    # the four-square parts take every prime, the two-square parts none 3 mod 4
    admits = (lambda p: True) if name == "_prime_four_square" else (lambda p: p % 4 != 3)
    primes = list(islice((p for p in count(2) if admits(p) and is_prime(p)), bound + 100))
    cached.cache_clear()
    got = [cached(p) for p in primes]
    assert cached.cache_info().currsize == bound
    # the evicted ones are recomputed, and every answer is the uncached one
    assert [cached(p) for p in primes] == got == list(map(cached.__wrapped__, primes))
    assert cached.cache_info().currsize == bound


class TestIsPrime:
    """Miller-Rabin to the first 13 prime bases, exact below 3.3e24."""

    def test_agrees_with_trial_division(self):
        assert [n for n in range(-10, 30000) if sumsquares._is_prime(n) != is_prime(n)] == []

    @given(st.integers(min_value=30000, max_value=10**12))
    def test_agrees_with_trial_division_at_random(self, n):
        assert sumsquares._is_prime(n) == is_prime(n)

    @pytest.mark.parametrize("n", [
        # Carmichael numbers
        561, 1105, 29341, 172081,
        # the least strong pseudoprimes to the bases 2-7, 2-23 and 2-37:
        # the bases up to 41 are what refuses them
        3215031751, 3825123056546413051, 318665857834031151167461,
        (2**31 - 1) ** 2, (10**9 + 7) * (10**12 + 39),
    ])
    def test_composites_refused(self, n):
        assert not sumsquares._is_prime(n)

    @pytest.mark.parametrize("n", [2, 3, 41, 43, 2**61 - 1, 10**12 + 39, 2**89 - 1])
    def test_primes_accepted(self, n):
        assert sumsquares._is_prime(n)
