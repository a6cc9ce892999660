import itertools
import random
import time

import pytest

from conftest import hasse_interval, stored_at
from nonelliptic.arith import legendre, primes_in_range
from nonelliptic.ecoracle import (
    ENUMERATION_BUDGET,
    POINT_COUNT_BUDGET,
    CurveQ,
    falsify_curve,
    trace_of_frobenius,
    trace_set,
    weierstrass_discriminant,
)
from nonelliptic.repmodel import NewformData, QuadInt


# --- trace_of_frobenius --------------------------------------------------------

def brute_count(p, a1, a2, a3, a4, a6):
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                n += 1
    return n


def test_count_points_supersingular_at_2():
    curve = CurveQ(0, 0, 1, 0, 0)  # y^2 + y = x^3
    assert trace_of_frobenius(curve, 2) == 0  # 3 points


def test_count_points_short_curve_at_5():
    curve = CurveQ(0, 0, 0, 1, 0)  # y^2 = x^3 + x
    assert trace_of_frobenius(curve, 5) == 2  # 4 points
    # character-sum cross-check: #E = p + 1 + sum_x legendre(x^3 + x)
    assert trace_of_frobenius(curve, 5) == -sum(legendre(x**3 + x, 5) for x in range(5))


def test_count_points_trace_in_hasse_interval_at_3():
    assert trace_of_frobenius(CurveQ(0, 0, 0, 2, 1), 3) in hasse_interval(3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_character_sum_identity_short_curves(p):
    rng = random.Random(p)
    found = 0
    while found < 8:
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4**3 + 27 * a6**2) % p == 0:
            continue
        found += 1
        trace = trace_of_frobenius(CurveQ(0, 0, 0, a4, a6), p)
        assert trace == -sum(legendre(x**3 + a4 * x + a6, p) for x in range(p))
        assert trace**2 <= 4 * p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_count_matches_bruteforce(p):
    for coeffs in itertools.islice(itertools.product(range(p), repeat=5), 0, None, 7):
        if weierstrass_discriminant(*coeffs) % p == 0:
            continue
        assert trace_of_frobenius(CurveQ(*coeffs), p) == p + 1 - brute_count(p, *coeffs)


def test_singular_curves_rejected():
    with pytest.raises(ValueError, match="singular curve over F_3"):
        trace_of_frobenius(CurveQ(0, 0, 1, 0, 0), 3)  # disc -27
    with pytest.raises(ValueError, match="singular"):
        CurveQ(0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="singular"):
        CurveQ(0, 0, 0, -3, 2)  # disc = -16(4*(-27) + 27*4) = 0


def test_trace_of_frobenius_needs_a_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        trace_of_frobenius(CurveQ(0, 0, 1, 0, 0), 4)


def test_trace_of_frobenius_refuses_primes_past_the_budget():
    curve = CurveQ(0, 0, 1, 0, 0)
    assert POINT_COUNT_BUDGET == 500
    # 499 is the largest prime it counts at: p + 1 - #E(F_p) is within Hasse
    assert trace_of_frobenius(curve, 499) ** 2 <= 4 * 499
    start = time.perf_counter()
    for p in (500, 503, 2**61 - 1):
        with pytest.raises(ValueError, match=f"point count budget exceeded: p = {p} "):
            trace_of_frobenius(curve, p)
    assert time.perf_counter() - start < 0.1


# --- trace_set -------------------------------------------------------------------

def test_trace_set_at_2_by_full_enumeration():
    # independent census of all 32 tuples over F_2
    expected = set()
    n_nonsingular = 0
    for coeffs in itertools.product(range(2), repeat=5):
        if weierstrass_discriminant(*coeffs) % 2 == 0:
            continue
        n_nonsingular += 1
        expected.add(2 + 1 - brute_count(2, *coeffs))
    assert expected == {-2, -1, 0, 1, 2}
    assert n_nonsingular > 0
    assert trace_set(2) == expected


def census_over_all_tuples(p):
    """Traces p + 1 - #E over all nonsingular tuples (a1, ..., a6) in F_p^5.

    The O(p^6) reference census: an independent check of the short-model
    census in trace_set. The y-census is hoisted into a table
    ytab[c][v] = #{y : y^2 + c*y = v}, so each curve's point count is a sum
    of table entries over x.
    """
    ytab = [[0] * p for _ in range(p)]
    for c in range(p):
        for y in range(p):
            ytab[c][(y * y + c * y) % p] += 1
    traces = set()
    for a1, a2, a3, a4 in itertools.product(range(p), repeat=4):
        crow = [ytab[(a1 * x + a3) % p] for x in range(p)]
        mid = [(x**3 + a2 * x * x + a4 * x) % p for x in range(p)]
        for a6 in range(p):
            if weierstrass_discriminant(a1, a2, a3, a4, a6) % p == 0:
                continue
            n = sum(crow[x][(mid[x] + a6) % p] for x in range(p))
            traces.add(p - n)  # p + 1 - (n + 1)
    return traces


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_trace_set_equals_census_over_all_tuples(p):
    assert trace_set(p) == census_over_all_tuples(p)


@pytest.mark.parametrize("p", primes_in_range(2, ENUMERATION_BUDGET))
def test_trace_set_equals_hasse_interval(p):
    assert trace_set(p) == hasse_interval(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_short_model_gives_trace_and_discriminant(p):
    # the two facts the short-model census rests on, on random general tuples:
    # A = -27*c4 and B = -54*c6 give a curve with the tuple's singularity and trace
    rng = random.Random(1000 + p)
    singular = 0
    for _ in range(200):
        a1, a2, a3, a4, a6 = (rng.randrange(p) for _ in range(5))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        a, b = -27 * c4, -54 * c6
        is_singular = weierstrass_discriminant(a1, a2, a3, a4, a6) % p == 0
        assert is_singular == ((4 * a**3 + 27 * b * b) % p == 0)
        if is_singular:
            singular += 1
            continue
        charsum = sum(legendre(x**3 + a * x + b, p) for x in range(p))
        assert trace_of_frobenius(CurveQ(a1, a2, a3, a4, a6), p) == -charsum
    assert 0 < singular < 200  # both sides of the equivalence are drawn


def test_trace_set_budget():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        trace_set(53)
    with pytest.raises(ValueError, match="not prime"):
        trace_set(10)


# --- falsify_curve ------------------------------------------------------------------

def test_falsify_supersingular_curve_at_2(schoen_form):
    result = falsify_curve(CurveQ(0, 0, 1, 0, 0), schoen_form, 11)
    assert result.found
    assert result.witness.p == 2
    assert result.witness.curve_trace == 0
    assert result.witness.rep_trace == 5  # a_2 = 1 twisted by chi^4: 2^4 = 5 (mod 11)
    # the emitted witness re-verifies by recomputation
    trace = trace_of_frobenius(CurveQ(0, 0, 1, 0, 0), 2)
    assert trace % 11 == result.witness.curve_trace % 11
    assert trace % 11 != 1 * 2**4 % 11


def test_falsify_requires_det_chi(schoen_form):
    # det exponent 3 at ell = 11 is twisted to chi (above); weight 3 gives the
    # even exponent 2 at ell = 7, which no twist takes to chi
    form = NewformData("t", 25, 3, None, {2: QuadInt(1)})
    with pytest.raises(ValueError, match="^no determinant-chi twist exists: exponent 2 is even$"):
        falsify_curve(CurveQ(0, 0, 1, 0, 0), form, 7)
    # the smaller root names the reduction unless one is given
    sqrt2 = NewformData("t", 512, 2, 2, {5: QuadInt(0, 1)})  # the curve: trace 0 at 5
    assert falsify_curve(CurveQ(0, 0, 1, 0, 0), sqrt2, 7).witness.rep_trace == 3
    assert falsify_curve(CurveQ(0, 0, 1, 0, 0), sqrt2, 7, 4).witness.rep_trace == 4


def test_falsify_insufficient_overlap(schoen_form):
    # disc of y^2 = x^3 + 77^2 is -432*77^4... divisible by 2, 3, 7, 11
    curve = CurveQ(0, 0, 0, 0, 77**2)
    assert all(curve.disc % p == 0 for p in (2, 3, 7, 11))
    with pytest.raises(ValueError, match="insufficient overlap"):
        falsify_curve(curve, schoen_form, 11)


def test_falsify_skips_bad_reduction_primes(schoen_form):
    form = stored_at(schoen_form, (2, 3, 7))
    curve = CurveQ(0, 0, 1, 0, 0)  # disc -27: bad at 3 only
    result = falsify_curve(curve, form, 11)
    assert 3 not in result.compared


def test_falsify_consistency_with_trace_test(schoen_form):
    # criterion-2 logic: any curve with good reduction at 2 has trace in the
    # Hasse set mod 11, and the twisted representation trace 5 is outside it
    form = stored_at(schoen_form, (2,))
    rng = random.Random(11)
    found = 0
    while found < 10:
        coeffs = [rng.randint(-5, 5) for _ in range(5)]
        disc = weierstrass_discriminant(*coeffs)
        if disc == 0 or disc % 2 == 0:
            continue
        found += 1
        result = falsify_curve(CurveQ(*coeffs), form, 11)
        assert result.found and result.witness.p == 2
