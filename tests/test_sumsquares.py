import signal
from contextlib import contextmanager
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    four_square_witness,
    is_prime,
    is_two_square,
    reference_four_square_fold,
    two_square_witnesses,
    wheel_factors,
)
from sosq import sumsquares
from sosq.identities import norm
from sosq.sumsquares import (
    SquareRep,
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


# the primes below 2048, which factorize screens for with one gcd a run
TABLE = [p for p in range(2048) if is_prime(p)]
# the table in the runs of 32 primes that the screen takes one gcd with
RUNS = [TABLE[i : i + 32] for i in range(0, len(TABLE), 32)]


def sorted_search(m):
    """The cofactor search's four squares of an odd m, sorted descending."""
    return tuple(sorted(sumsquares._cofactor_four_square(m), reverse=True))


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
    # two and three primes of one run, its first and last among them, in the
    # first run and in the last, whose 21 primes are 1879 to 2039: the scan
    # of a run stops once the gcd of n with the run is used up
    @example({RUNS[0][0]: 5, RUNS[0][1]: 2}, 1)
    @example({RUNS[0][0]: 3, RUNS[0][-1]: 2}, 2053)
    @example({RUNS[0][0]: 2, RUNS[0][9]: 4, RUNS[0][-1]: 3}, 1000003)
    @example({RUNS[-1][0]: 2, RUNS[-1][1]: 2}, 2053 * 2063)
    @example({RUNS[-1][0]: 2, RUNS[-1][-1]: 2}, 1)
    @example({RUNS[-1][0]: 3, RUNS[-1][10]: 2, RUNS[-1][-1]: 6}, 2053**2)
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


def pull_at_most(monkeypatch, limit=None):
    """Record the pairs sumsquares._prime_powers yields from here on; asking
    for one past the first limit (for 0, for any) fails at once, before the
    wheel goes on."""
    pulled = []
    inner = sumsquares._prime_powers

    def recorded(n):
        if limit == 0:
            raise AssertionError(f"asked for a factor of {n}")
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

    # 3 * 7 * (10^18+3), whose 3 and 7 the table screen takes, and
    # (10^9+7)(10^9+9), which the wheel would take minutes to split: four
    # squares represent the rest past the table whole, with no factor of it
    @pytest.mark.parametrize("n", [3 * 7 * 10**18 + 63, 1000000016000000063])
    def test_four_squares_pull_no_factor(self, monkeypatch, n):
        pull_at_most(monkeypatch, 0)
        with deadline(5):
            rep = four_square_decompose(n)
        assert norm(rep.components) == n


# the screen takes one gcd a run with the rest as it shrinks, none with the
# whole table, and none once the rest is 1: 3 settles "no" in the first run,
# 2^5 3^2 is used up there, and the product of the table meets all 10 runs
@pytest.mark.parametrize(
    "call,n,gcds",
    [
        (is_sum_of_two_squares, 3 * 1000000016000000063, 1),
        (factorize, 2**5 * 3**2, 1),
        (factorize, prod(TABLE), 10),
    ],
    ids=["first odd q", "used up in the first run", "whole table"],
)
def test_screen_takes_one_gcd_a_run(monkeypatch, call, n, gcds):
    calls = count_calls(monkeypatch, "gcd")
    call(n)
    assert len(calls) == gcds


# primes below 10^6, drawn as the greatest prime at most a uniform draw
PRIMES_BELOW_10_6 = st.integers(min_value=2, max_value=10**6 - 1).map(
    lambda n: next(p for p in range(n, 1, -1) if is_prime(p))
)


class TestOddPartScreen:
    # (10^9+7)(10^9+9) is 3 mod 4, and so is the odd part of 2^k times it:
    # the wheel would take minutes to reach 10^9+7
    N = 1000000016000000063

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("entry, no", [(is_sum_of_two_squares, False),
                                           (two_square_decompose, None)])
    def test_answers_no_before_any_factor(self, monkeypatch, entry, no, k):
        pull_at_most(monkeypatch, 0)
        with deadline(5):
            assert entry(2**k * self.N) is no

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("entry", [is_sum_of_two_squares, two_square_decompose])
    def test_n_below_one_refused_first(self, entry, n):
        # -1 is 3 mod 4, and 0 has no odd part: n is checked before the screen
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            entry(n)

    @given(st.lists(st.tuples(PRIMES_BELOW_10_6, st.integers(1, 3)), min_size=1, max_size=4))
    @example([(2, 1), (3, 1)])
    @example([(2, 3), (999983, 1), (999979, 1)])
    @example([(999983, 2), (999979, 1)])
    def test_agrees_with_the_exponent_rule(self, powers):
        exponents = {}
        for p, e in powers:
            exponents[p] = exponents.get(p, 0) + e
        expected = all(e % 2 == 0 for p, e in exponents.items() if p % 4 == 3)
        n = prod(p**e for p, e in exponents.items())
        assert is_sum_of_two_squares(n) is expected
        assert (two_square_decompose(n) is None) is not expected


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
        assert sumsquares._prime_two_square(p) == two_square_witnesses(p)[0]

    # p - 1 is no square for these, so Euclid stops at a = 1 with 1 + b*b != p
    @pytest.mark.parametrize("p", [13, 29, 41])
    def test_euclid_checks_its_pair(self, monkeypatch, p):
        # a "root" of -1 that is wrong (p - 1 squares to 1) must not come back
        # as a pair; any c passes the non-residue test under this pow
        monkeypatch.setattr(sumsquares, "pow", lambda c, e, p: p - 1, raising=False)
        message = f"^Euclid's algorithm found no two squares of prime {p}$"
        with pytest.raises(ArithmeticError, match=message):
            sumsquares._prime_two_square(p)

    # the cofactor search splits p = 1; 2 is the one even prime; 5 and 13
    # take one and two steps of Euclid's algorithm
    @pytest.mark.parametrize("p, pair", [(1, (0, 1)), (2, (1, 1)), (5, (1, 2)), (13, (2, 3))])
    def test_one_and_two(self, p, pair):
        assert sumsquares._prime_two_square(p) == pair

    @given(st.integers(min_value=1, max_value=10**6))
    @example(3)
    @example(4)
    @example(29341)
    def test_split_ends_on_any_input(self, p):
        # a pair that comes back is checked; anything else is refused
        try:
            a, b = sumsquares._prime_two_square(p)
        except ValueError as exc:
            assert str(exc) == f"{p} is not prime"
        except ArithmeticError as exc:
            assert str(exc) == f"Euclid's algorithm found no two squares of prime {p}"
        else:
            assert 0 <= a <= b and a * a + b * b == p

    def test_composite_split_ends(self, monkeypatch):
        # a composite passed as a prime, as a refuted probable prime is;
        # 29341 is a Carmichael number.  The search stops by c = the least
        # prime factor q of n, so with the call for the root of -1 it makes
        # at most q calls
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
                rep = sumsquares._prime_two_square(n)
            except ValueError as exc:
                assert str(exc) == f"{n} is not prime"
            except ArithmeticError as exc:
                assert str(exc) == f"Euclid's algorithm found no two squares of prime {n}"
            else:
                assert rep[0] ** 2 + rep[1] ** 2 == n

    @given(st.integers(min_value=1, max_value=10**9))
    @example(21)
    @example(9 * 7 * 7 * 13)
    def test_fold_of_given_factors_matches(self, n):
        # rep-check folds the factors it has already found
        assert sumsquares._two_squares_from(n, factorize(n).factors) == two_square_decompose(n)

    # past the table, the Miller-Rabin range and the hypothesis range above:
    # 999953 * 999961 is wheel-bound, 10**20 + 129 a prime 1 mod 4, and
    # 3 * (2**61 - 1) passes the odd-part screen yet is no sum of two squares;
    # 6 and 7 are the screen's, so the fold must find their None itself
    @pytest.mark.parametrize("n", [
        1,
        2**64,
        3 * 2**64,
        7**2 * 2**64,
        999953 * 999961,
        3 * (2**61 - 1),
        2 * 5 * 13 * (10**20 + 129),
        3**2 * 7**2 * 13,
        6,
        7,
    ])
    def test_fold_of_given_factors_matches_at_scale(self, n):
        rep = sumsquares._two_squares_from(n, factorize(n).factors)
        assert rep == two_square_decompose(n)
        assert rep is None or norm(rep.components) == n

    def test_wrong_prime_part_fails_the_final_check(self, monkeypatch):
        monkeypatch.setitem(sumsquares._TABLE_SQUARES, 13, (1, 2))
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
        # the search represents every odd prime, of either residue, whole
        for p in range(3, 10**4):
            if is_prime(p):
                comps = sorted_search(p)
                assert min(comps) >= 0 and list(comps) == sorted(comps, reverse=True), p
                assert sum(c * c for c in comps) == p, p

    def test_every_table_prime_uncached(self):
        # computed again, each table prime's squares are the ones held
        assert len(TABLE) == 309
        for p in TABLE:
            split = sorted_search if p % 4 == 3 else sumsquares._prime_two_square
            assert sumsquares._TABLE_SQUARES[p] == split(p), p

    def test_table_primes_3_mod_4_are_searched_whole(self, monkeypatch):
        # a prime 3 mod 4 has no two squares: its four come from one search
        # of p itself, which reads the pair of a smaller p 1 mod 4 or 1 from
        # the table squares and splits nothing
        searched = count_calls(monkeypatch, "_cofactor_four_square")
        splits = count_calls(monkeypatch, "_prime_two_square")
        for p in TABLE:
            if p % 4 == 3:
                searched.clear()
                x, y, a, b = sumsquares._cofactor_four_square(p)
                q = p - x * x - y * y
                assert searched == [(p,)], p
                assert q < p and (a, b) == sumsquares._TABLE_SQUARES[q], p
        assert splits == []

    def test_prime_parts_pad_the_two_square_pair(self):
        # a table prime 2 or 1 mod 4 is its two squares, padded with zeros
        for p in TABLE:
            if p % 4 != 3:
                a, b = two_square_witnesses(p)[0]
                assert sumsquares._TABLE_SQUARES[p] == (a, b), p
                assert four_square_decompose(p).components == (b, a, 0, 0), p

    # 999999999959 = 7 mod 8, so it needs four nonzero squares
    @given(st.integers(min_value=3, max_value=10**12).map(lambda n: prime_at_most(n, 3)))
    @example(3)
    @example(7)
    @example(999999999959)
    @example(2**61 - 1)
    def test_search_for_primes_3_mod_4(self, p):
        comps = sorted_search(p)
        assert min(comps) >= 0 and list(comps) == sorted(comps, reverse=True)
        assert sum(c * c for c in comps) == p

    def test_wrong_prime_part_fails_the_final_check(self, monkeypatch):
        monkeypatch.setitem(sumsquares._TABLE_SQUARES, 7, (2, 1, 0, 0))
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


TABLE_PRODUCT = prod(TABLE)

# 2063 * 2083 is 1 mod 4 and has no table factor, but its primes are 3 mod 4:
# it is no sum of two squares, and the Euler test in _prime_two_square
# refutes it
PSEUDOPRIME = 2063 * 2083


def meeting_first(p):
    """An odd m with no table factor whose cofactor search meets p = 1 mod 4
    as its first candidate: y*y + p < (y+2)**2 and m < (x+2)**2, so x and y
    are the greatest of their parities."""
    y = p // 4 + 1
    x = (y * y + p) // 4
    while gcd(x * x + y * y + p, TABLE_PRODUCT) != 1:
        x += 1
    return x * x + y * y + p


class TestCofactorSearch:
    """_cofactor_four_square: x*x + y*y plus a prime 1 mod 4, no factoring."""

    def test_every_odd_m_below_2_18(self):
        search = sumsquares._cofactor_four_square
        bad = [m for m in range(3, 2**18, 2) if norm(v := search(m)) != m or min(v) < 0]
        assert bad == []

    def test_candidates_are_screened_before_miller_rabin(self, monkeypatch):
        # 1 and table primes are looked up, other p below 2048 and every p
        # sharing a factor with the table are refused before the test; every
        # p is 1 mod 4, and below psi_13 the first that passes splits, so a
        # search splits at most once and never below the table
        tested = count_calls(monkeypatch, "_is_prime")
        splits = count_calls(monkeypatch, "_prime_two_square")
        odd_m = range(10**12 + 1, 10**12 + 2001, 2)
        for m in odd_m:
            assert norm(sumsquares._cofactor_four_square(m)) == m
        assert tested
        assert all(p >= 2048 and gcd(p, TABLE_PRODUCT) == 1 for (p,) in tested)
        assert 0 < len(splits) <= len(odd_m)
        assert all(p >= 2048 and p % 4 == 1 for (p,) in splits)

    def test_the_rest_is_composed_last(self, monkeypatch):
        folds = count_calls(monkeypatch, "compose_four")
        rep = four_square_decompose(3 * 7 * 10**18 + 63)
        assert norm(rep.components) == 21 * (10**18 + 3)
        assert len(folds) == 2
        assert folds[-1][1] == sumsquares._cofactor_four_square(10**18 + 3)

    # the split's own refutation, the Euler test's ValueError, and the
    # ArithmeticError of a Euclid pair that does not check
    @pytest.mark.parametrize("euclid_fails", [False, True])
    def test_a_refuted_probable_prime_costs_a_retry(self, monkeypatch, euclid_fails):
        split = sumsquares._prime_two_square
        with pytest.raises(ValueError, match=f"{PSEUDOPRIME} is not prime"):
            split(PSEUDOPRIME)
        if euclid_fails:

            def failed(p):
                if p == PSEUDOPRIME:
                    raise ArithmeticError(f"Euclid's algorithm found no two squares of prime {p}")
                return split(p)

            monkeypatch.setattr(sumsquares, "_prime_two_square", failed)
        splits = count_calls(monkeypatch, "_prime_two_square")
        is_prime = sumsquares._is_prime
        monkeypatch.setattr(sumsquares, "_is_prime", lambda q: q == PSEUDOPRIME or is_prime(q))
        m = meeting_first(PSEUDOPRIME)
        rep = four_square_decompose(m)
        assert norm(rep.components) == m
        assert splits[0] == (PSEUDOPRIME,) and len(splits) > 1

    def test_an_exhausted_search_is_an_arithmetic_error(self, monkeypatch):
        # not the ValueError that the CLI would report as a usage error; with
        # no table squares to read, every candidate must split, and each split
        # is refuted
        def refuted(p):
            raise ValueError(f"{p} is not prime")

        monkeypatch.setattr(sumsquares, "_TABLE_SQUARES", {})
        monkeypatch.setattr(sumsquares, "_prime_two_square", refuted)
        with pytest.raises(ArithmeticError, match="no four squares of 2053 found"):
            four_square_decompose(2053)

    def test_table_smooth_n_take_no_search(self, monkeypatch):
        # the rest is 1, so nothing is searched: 2039**2 only scales the
        # two-square part of 2**3, and the one fold composes that part with
        # the table squares of 3, which the final check reads through
        n = 2**3 * 3 * 2039**2
        searched = count_calls(monkeypatch, "_cofactor_four_square")
        folds = count_calls(monkeypatch, "compose_four")
        assert norm(four_square_decompose(n).components) == n
        assert searched == [] and len(folds) == 1
        monkeypatch.setitem(sumsquares._TABLE_SQUARES, 3, (1, 1, 0, 0))
        with pytest.raises(ArithmeticError, match=f"do not sum to {n}"):
            four_square_decompose(n)

    @given(st.lists(st.tuples(st.sampled_from(TABLE), st.integers(1, 4)), max_size=30))
    @example([])
    @example([(2, 3), (3, 2), (2039, 2), (2029, 1)])
    def test_table_smooth_n_keep_the_fold(self, powers):
        n = prod(p**e for p, e in powers)
        assert four_square_decompose(n).components == reference_four_square_fold(n)

    # the strategy of test_table_smooth_n_keep_the_fold, each prime 3 mod 4
    # raised to the even exponent at or above its draw
    @given(st.lists(st.tuples(st.sampled_from(TABLE), st.integers(1, 4)), max_size=30))
    @example([])
    @example([(3, 1), (2039, 3), (2, 1)])
    @example([(5, 2), (13, 1), (2029, 1)])
    def test_table_smooth_sums_of_two_squares_pad_their_pair(self, powers):
        # the four-square law takes nothing: the two squares and two zeros
        n = prod(p ** (e + e % 2 * (p % 4 == 3)) for p, e in powers)
        pair = two_square_decompose(n).components
        assert four_square_decompose(n).components == pair + (0, 0)

    @given(st.integers(min_value=0, max_value=10**300))
    @example(10**300)
    @example(2**607 - 1)
    @example(3 * 7 * 10**18 + 63)
    @example(LARGE_PRIMES[-1] * (2**61 - 1))
    def test_any_n_up_to_10_300(self, n):
        rep = four_square_decompose(n)
        assert type(rep) is SquareRep and rep.n == n
        assert min(rep.components) >= 0
        assert list(rep.components) == sorted(rep.components, reverse=True)
        assert norm(rep.components) == n


def test_table_squares():
    # 1 and each table prime: a pair ascending for 1, 2 and the primes
    # 1 mod 4, four squares descending, as the search sorts them, for the rest
    squares = sumsquares._TABLE_SQUARES
    assert set(squares) == {1, *TABLE}
    for p, comps in squares.items():
        assert norm(comps) == p, p
        if p % 4 == 3:
            assert len(comps) == 4 and min(comps) >= 0, p
            assert comps == sorted_search(p), p
        else:
            assert len(comps) == 2 and 0 <= comps[0] <= comps[1], p


@pytest.mark.parametrize("n", [
    1,
    2**10,
    prod(TABLE),
    prod(p**3 for p in TABLE),
    2**3 * 3 * 2039**2,
    5**2 * 13 * 2029 * 7**2,
])
def test_table_smooth_n_compute_no_split(monkeypatch, n):
    # the table squares are computed at import, so no split or search is
    # made for an n with no prime factor past the table
    splits = count_calls(monkeypatch, "_prime_two_square")
    searched = count_calls(monkeypatch, "_cofactor_four_square")
    assert norm(four_square_decompose(n).components) == n
    rep = two_square_decompose(n)
    assert (rep is not None) == is_sum_of_two_squares(n)
    assert rep is None or norm(rep.components) == n
    assert splits == [] and searched == []


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
