import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nonelliptic
from conftest import hasse_interval
from nonelliptic import arith
from nonelliptic.arith import (
    _NARROW,
    MILLER_RABIN_LIMIT,
    Factorization,
    is_prime,
    legendre,
    primes_in_range,
    trial_factor,
)

ODD_PRIMES_TO_100 = [p for p in primes_in_range(3, 100)]


# --- independent oracles -----------------------------------------------------

def naive_pow(base, exp, m):
    r = 1 % m
    for _ in range(exp):
        r = (r * base) % m
    return r


def squares_mod(ell):
    return {(x * x) % ell for x in range(1, ell)}


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- modular powers and inverses ---------------------------------------------
# The scan and check() use the built-in three-argument pow; these pin the
# behaviour they rely on against the naive oracle.

@pytest.mark.parametrize(
    "base,exp,ell,expected",
    [
        (2, 4, 11, 5),   # 16 = 11 + 5
        (7, 0, 13, 1),   # empty product
        (2, 8, 11, 3),   # 256 = 23*11 + 3
    ],
)
def test_mod_pow_examples(base, exp, ell, expected):
    assert naive_pow(base, exp, ell) == expected
    assert pow(base, exp, ell) == expected


def test_mod_pow_zero_exponent_convention():
    # 0^0 = 1 by the empty-product convention
    assert pow(0, 0, 11) == 1
    assert pow(11, 0, 11) == 1


def test_mod_pow_agrees_with_naive_everywhere():
    for ell in (3, 7, 11, 41, 97):
        for base in range(0, 50, 3):
            for exp in range(0, 50, 7):
                assert pow(base, exp, ell) == naive_pow(base, exp, ell)


def test_mod_pow_rejects_bad_input():
    # The odd-prime guard lives in legendre; pow refuses what has no value.
    with pytest.raises(ValueError):
        legendre(2, 10)  # composite modulus
    with pytest.raises(ValueError):
        legendre(2, 2)  # even prime
    with pytest.raises(ValueError):
        pow(2, -1, 22)  # 2 has no inverse mod 22


@pytest.mark.parametrize("a,ell,expected", [(4, 11, 3), (1, 11, 1), (1, 13, 1), (4, 7, 2)])
def test_mod_inv_examples(a, ell, expected):
    assert (a * expected) % ell == 1
    assert pow(a, -1, ell) == expected


def test_mod_inv_of_zero_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        pow(0, -1, 11)
    with pytest.raises(ValueError, match="not invertible"):
        pow(22, -1, 11)


def test_mod_inv_inverts_everything():
    for ell in (7, 11, 13):
        for a in range(1, ell):
            assert (a * pow(a, -1, ell)) % ell == 1


# --- is_prime ------------------------------------------------------------------

# psi_t, the least strong pseudoprime to all of the first t prime bases, for
# t = 1..7, 9 and 12 (Jaeschke 1993; Jiang & Deng 2014; Sorenson & Webster
# 2017), with its factorization.
STRONG_PSEUDOPRIMES = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
]

SMALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_equals_the_sieve_below_one_million():
    limit = 10**6
    primes = set(primes_in_range(2, limit - 1))
    assert len(primes) == 78498
    for n in range(-2, limit):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize("n,factors", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n, factors):
    prod = 1
    for q in factors:
        assert q > 1
        prod *= q
    assert prod == n
    # every psi_t passes the strong test to base 2
    assert strong_probable_prime(n, 2)
    assert is_prime(n) is False


def test_is_prime_on_large_primes():
    assert is_prime(2**61 - 1) is True
    assert is_prime(2**61 + 1) is False  # divisible by 3
    # A Proth prime just below the bound: p = k*2^60 + 1 with k < 2^60 is prime
    # iff some a has a^((p-1)/2) = -1 (mod p) (Proth 1878); a = 5 works.
    k = 2877021
    p = k * 2**60 + 1
    assert k < 2**60 and p < MILLER_RABIN_LIMIT
    assert pow(5, (p - 1) // 2, p) == p - 1
    assert is_prime(p) is True
    assert is_prime(p + 2) is False


@pytest.mark.parametrize("n", [7.0, 26.5, True])
def test_is_prime_rejects_non_ints(n):
    # a float or bool equal to a prime or non-prime int is still refused
    assert is_prime(7) and not is_prime(1)
    with pytest.raises(TypeError):
        is_prime(n)


def test_is_prime_raises_above_the_proven_bound():
    assert MILLER_RABIN_LIMIT == 3317044064679887385961981
    # the bound is psi_13, itself a strong pseudoprime to the first 13 bases
    assert 1287836182261 * 2575672364521 == MILLER_RABIN_LIMIT
    assert all(strong_probable_prime(MILLER_RABIN_LIMIT, a) for a in SMALL_BASES)
    for n in (MILLER_RABIN_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="Miller-Rabin"):
            is_prime(n)
    # multiples of a small prime are decided before the bound applies
    assert is_prime(2**100) is False


# --- legendre ----------------------------------------------------------------

def test_legendre_paper_value():
    # -31 = 2 (mod 11) and 2 is not among the squares mod 11
    assert (-31) % 11 == 2
    assert 2 not in squares_mod(11)
    assert legendre(2, 11) == -1
    assert legendre(-31, 11) == -1


def test_legendre_zero_and_square_cases():
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0
    assert 2 in squares_mod(7)
    assert legendre(2, 7) == 1


@pytest.mark.parametrize("ell", ODD_PRIMES_TO_100)
def test_legendre_matches_square_enumeration(ell):
    sq = squares_mod(ell)
    for a in range(ell):
        expected = 0 if a == 0 else (1 if a in sq else -1)
        assert legendre(a, ell) == expected


def test_legendre_euler_criterion_up_to_1000():
    # -1 read as ell-1: legendre(a, ell) = a^((ell-1)/2) mod ell
    for ell in primes_in_range(3, 1000):
        for a in (-7, 0, 1, 2, 3, 5, ell - 1, ell + 2, 2 * ell):
            sym = legendre(a, ell)
            assert sym % ell == pow(a % ell, (ell - 1) // 2, ell)


@given(
    a=st.integers(min_value=-(10**6), max_value=10**6),
    b=st.integers(min_value=-(10**6), max_value=10**6),
    ell=st.sampled_from(ODD_PRIMES_TO_100),
)
def test_legendre_multiplicativity(a, b, ell):
    assert legendre(a * b, ell) == legendre(a, ell) * legendre(b, ell)


# --- trial_factor -------------------------------------------------------------

def test_trial_factor_examples():
    assert trial_factor(1375).factors == ((5, 3), (11, 1))
    assert trial_factor(512).factors == ((2, 9),)
    assert trial_factor(2).factors == ((2, 1),)


def test_trial_factor_rejects_small():
    assert trial_factor(1).factors == ()  # the empty product
    with pytest.raises(ValueError):
        trial_factor(0)


@given(st.integers(min_value=2, max_value=10**6))
def test_trial_factor_reconstructs_with_prime_increasing_factors(n):
    fac = trial_factor(n)
    assert fac.n == n
    prod = 1
    prev = 1
    for q, e in fac.factors:
        assert naive_is_prime(q)
        assert q > prev and e >= 1
        prev = q
        prod *= q**e
    assert prod == n


def test_trial_factor_cofactor_above_the_bound():
    big = 2**61 - 1  # prime, accepted by is_prime
    assert trial_factor(2 * big).factors == ((2, 1), (big, 1))
    assert trial_factor(999983**2).factors == ((999983, 2),)  # the largest prime below 10^6
    assert trial_factor(1000003).factors == ((1000003, 1),)  # the least prime above it


@pytest.mark.parametrize("n", [1000000007 * 1000000009])
def test_trial_factor_splits_two_factors_above_the_bound(n):
    # two primes above 10^6: trial division would take 10^9 steps, rho 10^4
    start = time.perf_counter()
    assert trial_factor(n).factors == ((1000000007, 1), (1000000009, 1))
    assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=2**64))
def test_trial_factor_factors_every_n_up_to_the_guard(n):
    # Factorization itself proves each factor prime and checks the product
    assert trial_factor(n).n == n
    with pytest.raises(ValueError, match=r"^18446744073709551617 exceeds the trial-division "
                                         r"guard 2\*\*64$"):
        trial_factor(2**64 + 1)


# a square or a cube of a prime above 10^6
PRIME_POWERS = {
    1000003**2: ((1000003, 2),),
    1000003**3: ((1000003, 3),),
    6 * 1000003**2: ((2, 1), (3, 1), (1000003, 2)),
    4294967291**2: ((4294967291, 2),),  # the largest prime square below 2**64
}


@pytest.mark.parametrize("n", list(PRIME_POWERS))
def test_trial_factor_factors_prime_powers_above_the_bound(n):
    start = time.perf_counter()
    assert trial_factor(n).factors == PRIME_POWERS[n]
    assert time.perf_counter() - start < 1.0


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((4, 1), (3, 1)))  # 4 not prime
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (2, 1), (3, 1)))  # a prime split in two
    with pytest.raises(ValueError):
        Factorization(12, ((2, 0), (2, 2), (3, 1)))  # exponent 0
    with pytest.raises(ValueError):
        Factorization(4, ((2, 2.0),))  # exponent not an int


def test_factorization_refuses_a_huge_exponent_before_the_power():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        Factorization(512, ((3, 10**8),))
    with pytest.raises(ValueError, match="exceeds"):
        Factorization(2**64, ((2, 65),))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q", [2, 3, 5, 7, 31, 127, 1000003])
def test_factorization_accepts_every_exact_prime_power(q):
    for e in range(1, 70):
        assert Factorization(q**e, ((q, e),)).factors == ((q, e),)


# --- hasse_interval -----------------------------------------------------------

@pytest.mark.parametrize(
    "p,expected",
    [
        (2, {-2, -1, 0, 1, 2}),
        (3, set(range(-3, 4))),
        (5, set(range(-4, 5))),
    ],
)
def test_hasse_interval_examples(p, expected):
    assert hasse_interval(p) == expected


@pytest.mark.parametrize("p", primes_in_range(2, 60))
def test_hasse_interval_symmetric_contains_zero(p):
    interval = hasse_interval(p)
    assert 0 in interval
    assert interval == {-t for t in interval}
    for t in interval:
        assert t * t <= 4 * p
    bound = max(interval)
    assert (bound + 1) ** 2 > 4 * p


def test_primes_in_range(monkeypatch):
    assert primes_in_range(6, 20) == [7, 11, 13, 17, 19]
    assert primes_in_range(2, 2) == [2]
    assert primes_in_range(20, 6) == []
    # the sieve spans [lo, hi] alone: windows that start below, at and above
    # the square of a sieving prime
    for lo, hi in [(-5, 1), (0, 3), (3, 4), (4, 4), (24, 50), (25, 49), (49, 49),
                   (97, 97), (1000, 1100), (9409, 9999), (999_000, 1_000_100)]:
        assert primes_in_range(lo, hi) == [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]
    # a window narrower than isqrt(hi) / _NARROW is proved by is_prime, a
    # wider one sieved: both sides of the rule, each ending at a prime
    windows = [(MILLER_RABIN_LIMIT - 1168, MILLER_RABIN_LIMIT - 168, True)]
    for hi in (10**8 + 7, 10**12 + 39):
        edge = math.isqrt(hi) // _NARROW
        windows += [(hi - edge + 1, hi, True), (hi - edge - 1, hi, False)]
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for lo, hi, narrow in windows:
        calls.clear()
        expected = [n for n in range(lo, hi + 1) if is_prime(n)]
        assert primes_in_range(lo, hi) == expected
        assert expected[-1] == hi
        assert bool(calls) == narrow
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"exceeds the proven Miller-Rabin range"):
        primes_in_range(MILLER_RABIN_LIMIT - 100, MILLER_RABIN_LIMIT)
    # the sieve's width is refused before the bytearray overflows
    with pytest.raises(ValueError, match=r"too wide to sieve: its width passes the index size"):
        primes_in_range(6, 10**20)


def test_the_odd_only_sieve_equals_is_prime_on_random_windows():
    # seeded: lo and hi of both parities, widths 0..5000, so both the
    # is_prime and the sieve side of _NARROW run
    rng = random.Random(20041)
    windows = []
    for _ in range(500):
        lo = rng.randint(-5, 2 * 10**4)
        windows.append((lo, lo + rng.randint(0, 5000)))
    # windows starting at p^2 - 1, p^2 and p^2 + 1, where crossing off begins
    windows += [(p * p + e, p * p + e + w) for p in (3, 5, 7, 97) for e in (-1, 0, 1)
                for w in (0, 1, 2, 3, 50, 1001)]
    assert {lo % 2 for lo, _ in windows} == {hi % 2 for _, hi in windows} == {0, 1}
    # past 10^12, just wider than its _NARROW edge: the sieve side
    hi = 10**12 + 10**4
    lo = hi - math.isqrt(hi) // _NARROW - 1
    assert (hi - lo) * _NARROW >= math.isqrt(hi)
    windows.append((lo, hi))
    for lo, hi in windows:
        assert primes_in_range(lo, hi) == [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_wide_window_sieves_its_base_primes_in_window_sized_pieces():
    # A child inherits its spawner's peak RSS across exec, and pytest's peak
    # is large, so a fresh interpreter spawns the one that measures. Sieving
    # the base primes up to 10^7 at once grew the peak by 39.5 MiB; in pieces
    # of the window's 2*10^5, by about 1 MiB.
    measure = (
        "import resource\n"
        "from nonelliptic.arith import primes_in_range\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "primes_in_range(10**14, 10**14 + 2 * 10**5)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    helper = "import subprocess, sys\nsubprocess.run([sys.executable, '-c', sys.argv[1]])\n"
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", helper, measure], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert int(proc.stdout) < 8 * 1024, proc.stderr
