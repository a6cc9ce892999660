import dataclasses
import functools
import io
import itertools
import json
import math
import random
import re
import time
import tracemalloc
import warnings

import pytest
from conftest import certify_report, written_certificates
from hypothesis import assume, example, given, settings, strategies as st

from nonelliptic.arith import legendre, primes_in_range, trial_factor
from nonelliptic import certify, paper
from nonelliptic.cli import main
from nonelliptic.certify import (
    EXCLUDED_SET_LIMIT,
    certify_form,
    certify_range,
    conductor_bound_test,
    excluded_trace_set,
    family_trace_obstruction,
    reducibility_obstruction,
    serre_bound_predicate,
)
from nonelliptic.checker import (
    INCONCLUSIVE,
    IRREDUCIBLE,
    METHOD_CONDUCTOR,
    METHOD_DISCRIMINANT,
    METHOD_FAMILY_TRACE,
    METHOD_OBSTRUCTION,
    METHOD_TRACE,
    NON_ELLIPTIC,
    Certificate,
    check,
)
from nonelliptic.data_io import bundled_form, canonical_json, load_expectations
from nonelliptic.ecoracle import ENUMERATION_BUDGET, trace_set
from nonelliptic.paper import closed_form_scan, full_paper_verification
from nonelliptic.repmodel import (
    InsufficientDataError,
    NewformData,
    QuadInt,
    RamanujanBoundWarning,
    NotSplitError,
    admitted_ells,
    refusal,
)


def squares_mod(ell):
    return {(x * x) % ell for x in range(1, ell)}


def run_at(form, ell, p=None, root=None):
    """The first run of certify_form at ell alone, under `root` (by default
    the smaller square root of d), with the witness prime p when given."""
    return certify_form(form, [ell], root, p)[0]


# --- irreducibility by discriminant -------------------------------------------

def test_discriminant_weight4_ell11_p2(schoen_form):
    cert = run_at(schoen_form, 11, 2).irreducible
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["delta"] == 2  # -31 = 2 (mod 11)
    assert cert.witness["legendre"] == -1
    assert check(cert)


def test_discriminant_weight2_ell7_p29_both_roots(sqrt2_form):
    runs = certify_form(sqrt2_form, [7], witness_prime=29)
    assert [run.embedding_root for run in runs] == [3, 4]
    for run in runs:
        cert = run.irreducible
        assert cert.verdict == IRREDUCIBLE
        assert cert.witness["delta"] == 5  # -44 = 5 (mod 7)
        assert cert.witness["legendre"] == -1
        assert cert.inputs["embedding_root"] == run.embedding_root
        assert check(cert)


def test_discriminant_weight4_ell13_p3(schoen_form):
    # Delta = 49 - 108 = -59 = 6 (mod 13), and 6 is not a square mod 13
    assert (-59) % 13 == 6
    assert 6 not in squares_mod(13)
    cert = run_at(schoen_form, 13, 3).irreducible
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["delta"] == 6


def test_discriminant_inconclusive_when_square(schoen_form):
    # At ell=7 every stored witness gives delta = 4, a square
    for p in (2, 3, 11):
        cert = run_at(schoen_form, 7, p).irreducible
        assert cert.verdict == INCONCLUSIVE
        assert cert.witness["delta"] == 4
        assert check(cert)


def test_discriminant_missing_prime(schoen_form):
    # no a_13 is stored: the run says so and tests nothing there
    run = run_at(schoen_form, 11, 13)
    assert (run.irreducible, run.irreducible_tried, run.trace_tests) == (None, (), ())
    assert run.notes[0] == "no eigenvalue at p=13; discriminant test skipped"


# --- reducibility obstruction ---------------------------------------------------

def test_obstruction_at_11(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    exceptional = cert.witness["exceptional"]
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["M"] == 1375
    assert cert.witness["factors"] == [[5, 3], [11, 1]]
    assert sorted(exceptional) == [5, 11]
    assert cert.witness["exceptional"] == [5, 11]
    assert cert.ell is None  # a statement about every ell > 5 at once
    assert check(cert)


def test_obstruction_identically_satisfied_is_inconclusive():
    # a_31 = 1 + 31^3 makes M = 0: the congruence carries no information.
    # (Such an eigenvalue breaks the Ramanujan bound, which duly warns.)
    from nonelliptic.repmodel import RamanujanBoundWarning

    with pytest.warns(RamanujanBoundWarning):
        form = NewformData("t", 25, 4, None, {31: QuadInt(1 + 31**3)})
    cert = reducibility_obstruction(form, 31)
    exceptional = cert.witness["exceptional"]
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness["M"] == 0
    assert exceptional == []
    assert check(cert)


def test_obstruction_hypothetical_p41():
    form = NewformData("t", 25, 4, None, {41: QuadInt(2)})
    cert = reducibility_obstruction(form, 41)
    exceptional = cert.witness["exceptional"]
    assert cert.witness["M"] == 68920
    assert cert.witness["factors"] == [[2, 3], [5, 1], [1723, 1]]
    # every prime factor of M is kept, plus the witness prime itself
    assert sorted(exceptional) == [2, 5, 41, 1723]
    assert check(cert)


@pytest.mark.parametrize("level,weight,p,a_p,m_value,want", [
    (11, 2, 3, 3, 1, [3]),  # M = 1: only the witness prime is exceptional
    (1, 12, 2, -24, 2073, [2, 3, 691]),  # Ramanujan's Delta: 2073 = 3 * 691
], ids=["M=1", "delta"])
def test_obstruction_exceptional_set(level, weight, p, a_p, m_value, want):
    form = NewformData("t", level, weight, None, {p: QuadInt(a_p)})
    cert = reducibility_obstruction(form, p)
    exceptional = cert.witness["exceptional"]
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["M"] == m_value
    assert sorted(exceptional) == cert.witness["exceptional"] == want
    assert check(cert)


def test_obstruction_rejects_bad_witness(schoen_form):
    with pytest.raises(ValueError, match="witness prime invalid"):
        reducibility_obstruction(schoen_form, 7)  # 7 != 1 (mod 5)
    with pytest.raises(InsufficientDataError):
        reducibility_obstruction(schoen_form, 31)  # 31 = 1 (mod 5) but unknown


@pytest.mark.parametrize("p", [0, 1, 4, -11, True, 2.0], ids=repr)
def test_obstruction_refuses_a_witness_that_is_no_prime_int(schoen_form, p):
    # refused by name before the congruence or the eigenvalue lookup reads p:
    # 2.0 found a_2 through the float key and failed in bit_length, and 1 and
    # True reached the lookup on the level-25 form
    level_1 = NewformData("t", 1, 12, None, {2: QuadInt(-24)})
    for form in (schoen_form, level_1):
        with pytest.raises(ValueError, match=rf"^witness prime p={re.escape(repr(p))} is not prime$"):
            reducibility_obstruction(form, p)


def test_obstruction_needs_rational_eigenvalue():
    # level 512: witness must be 1 mod 16; a_p for p=17 not stored, so build one
    form = NewformData("t", 512, 2, 2, {17: QuadInt(0, 1)})
    with pytest.raises(ValueError, match="irrational"):
        reducibility_obstruction(form, 17)



@pytest.mark.parametrize("weight", [10**7, 10**12])
def test_obstruction_refuses_a_huge_weight_quickly(weight):
    # 3**(k-1) alone puts M past trial_factor's guard: refused before the
    # power is built
    form = NewformData("t", 1, weight, None, {3: QuadInt(1)})
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^M = \|1 \+ 3\^{weight - 1} - a_3\| exceeds "
                                         r"the trial-division guard 2\*\*64$"):
        reducibility_obstruction(form, 3)
    assert time.perf_counter() - start < 1.0


def test_obstruction_keeps_a_small_m_beside_a_huge_power():
    # a_p may cancel p**(k-1): M = |1 + 2**65 - (2**65 - 5)| = 6 is certified,
    # while a_p = 0 leaves M = 2**65 + 1, past the guard
    from nonelliptic.repmodel import RamanujanBoundWarning

    with pytest.warns(RamanujanBoundWarning):
        form = NewformData("t", 1, 66, None, {2: QuadInt(2**65 - 5)})
    assert reducibility_obstruction(form, 2).witness["M"] == 6
    with pytest.raises(ValueError, match="trial-division guard"):
        reducibility_obstruction(NewformData("t", 1, 66, None, {2: QuadInt(0)}), 2)


def test_certify_form_proves_ell_an_odd_prime_first(schoen_form):
    # ell = 2 is no odd prime; the rule's own refusals come after that proof
    with pytest.raises(ValueError, match="^modulus 2 is not an odd prime$"):
        certify_form(schoen_form, [2])


# --- non-elliptic trace test ----------------------------------------------------

def test_trace_test_ell11(schoen_form):
    cert = run_at(schoen_form, 11, 2).trace_tests[0]
    assert cert.verdict == NON_ELLIPTIC
    assert cert.witness["trace"] == 5
    assert cert.witness["excluded"] == [0, 1, 2, 3, 8, 9, 10]
    assert cert.inputs["extended"] is False
    assert check(cert)


def test_trace_test_ell7_inconclusive(schoen_form):
    cert = run_at(schoen_form, 7, 2).trace_tests[0]
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness["excluded"] == [0, 1, 2, 3, 4, 5, 6]  # all of F_7
    assert check(cert)


def test_trace_test_ell13(schoen_form):
    cert = run_at(schoen_form, 13, 2).trace_tests[0]
    assert cert.verdict == NON_ELLIPTIC
    assert cert.witness["trace"] == 6
    assert cert.witness["excluded"] == [0, 1, 2, 3, 10, 11, 12]


def test_trace_test_requires_det_chi(schoen_form):
    # det exponent 3 at ell = 11: the test reads a_2 = 1 twisted by chi^4,
    # which takes 3 to 3 + 2*4 = 1 (mod 10)
    run = run_at(schoen_form, 11, 2)
    assert run.twist_exponent == run.trace_tests[0].inputs["twist_exponent"] == 4
    assert run.trace_tests[0].witness["trace"] == 1 * 2**4 % 11 == 5
    # weight 3 gives the even exponent 2 at ell = 7, which no twist takes to 1
    form = NewformData("t", 25, 3, None, {2: QuadInt(1)})
    run = run_at(form, 7, 2)
    assert (run.twist_exponent, run.trace_tests) == (None, ())
    assert ("determinant exponent 2 is even: no determinant-chi twist exists, "
            "trace test skipped") in run.notes


def test_trace_test_p_congruent_1_rejected(sqrt2_form):
    run = run_at(sqrt2_form, 7, 29)  # 29 = 1 (mod 7)
    assert run.trace_tests == ()
    assert "p=29 = 1 (mod 7); trace test unavailable there" in run.notes


def test_trace_test_extended_flag(schoen_form):
    cert = run_at(schoen_form, 11, 3).trace_tests[0]
    assert cert.inputs["extended"] is True


@pytest.mark.parametrize("ell", primes_in_range(7, 60))
@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_excluded_set_closed_under_negation(ell, p):
    excluded = set(excluded_trace_set(p, ell))
    assert excluded == {(-t) % ell for t in excluded}


@settings(max_examples=500)
@given(p=st.integers(min_value=2, max_value=1999), ell=st.integers(min_value=2, max_value=199))
def test_excluded_set_equals_its_definition(p, ell):
    # every t with t^2 <= 4p (all lie within |t| <= p + 1), and ±(p + 1)
    hasse = [t for t in range(-p - 1, p + 2) if t * t <= 4 * p]
    literal = {t % ell for t in hasse} | {(p + 1) % ell, -(p + 1) % ell}
    assert excluded_trace_set(p, ell) == sorted(literal)


def test_excluded_set_refuses_a_list_past_its_limit():
    # the list holds at most min(ell, 2B + 3) residues, B = isqrt(4p)
    limit = EXCLUDED_SET_LIMIT
    assert limit == 10**6
    with pytest.raises(ValueError, match=f"p={10**18 + 9}, ell=1000003 .* limit of {limit}"):
        excluded_trace_set(10**18 + 9, 1000003)  # ell > limit < 2B + 3
    with pytest.raises(ValueError, match="limit"):
        excluded_trace_set(10**12 + 39, 10**10 + 19)  # 2B + 3 = 4000003
    assert len(excluded_trace_set(10**18 + 9, 999983)) == 999983  # fills F_ell
    assert len(excluded_trace_set(2, 10**10 + 19)) == 7  # {-2..2} and ±3


# --- closed-form scan ------------------------------------------------------------

def test_scan_full_range():
    report = closed_form_scan(7, 10000)
    assert report.holds == (7,)
    assert report.hold_residues == {7: 2}  # 2^4 = 16 = 2, and 9 = 2 (mod 7)
    assert report.fermat_ok


def test_scan_individual_values():
    assert pow(2, 8, 11) == 3 and 3 not in {1, 4, 9}
    assert pow(2, 10, 13) == 10 and 10 not in {1, 4, 9}
    report = closed_form_scan(11, 97)
    assert report.holds == ()


def test_scan_range_validation():
    with pytest.raises(ValueError):
        closed_form_scan(3, 5)
    with pytest.raises(ValueError):
        closed_form_scan(11, 7)


def test_scan_reports_a_failed_fermat_cross_check(monkeypatch, capsys):
    # every scanned ell is prime, so only a composite handed in reaches the
    # failure branch: 2^24 = 10 and 4 * 10 = 13, not 1 (mod 27), and 10 is
    # not in {1, 4, 9}, so 27 does not join the holds
    monkeypatch.setattr(paper, "primes_in_range", lambda lo, hi: [7, 27])
    report = closed_form_scan(7, 27)
    assert report.fermat_ok is False
    assert report.holds == (7,)
    assert report.to_text().endswith("FAILED")
    assert main(["scan", "7", "27"]) == 1
    assert capsys.readouterr().out.endswith("FAILED\n")


def test_scan_keeps_fermats_congruence_on_a_base_2_pseudoprime(monkeypatch):
    # 341 = 11 * 31 has 2^340 = 1 (mod 341), so 4 * 2^338 = 1: the cross-check
    # is Fermat's congruence and passes; 2^338 = 256 is not in {1, 4, 9}
    assert pow(2, 340, 341) == 1 and pow(2, 338, 341) == 256
    monkeypatch.setattr(paper, "primes_in_range", lambda lo, hi: [7, 341])
    report = closed_form_scan(7, 341)
    assert report.fermat_ok is True
    assert report.holds == (7,)


def scan_by_one_pow_per_n(ns):
    """(fermat_ok, holds, hold_residues) of the scan over ns, one pow per n."""
    residues = {n: pow(2, n - 3, n) for n in ns}
    fermat_ok = all(4 * r % n == 1 for n, r in residues.items())
    hold_residues = {n: r for n, r in residues.items() if r in {1, 4, 9 % n}}
    return fermat_ok, tuple(hold_residues), hold_residues


def odd_sample(rng, lo, hi, k):
    """k distinct odd integers in [lo, hi), ascending."""
    if hi - lo < 10**6:
        return sorted(rng.sample(range(lo | 1, hi, 2), k))
    picked = set()
    while len(picked) < k:
        picked.add(rng.randrange(lo, hi) | 1)
    return sorted(picked)


def test_scan_groups_powers_exactly_for_any_ascending_odd_integers(monkeypatch):
    # the scan takes one pow per group of ells; a composite at the start, in
    # the middle or at the end of a group (27, and the base-2 pseudoprimes
    # 341, 561 = 3*11*17 and 1105 = 5*13*17) must not change any residue
    composites = (27, 341, 561, 1105)
    seen = set()
    for seed in range(2):
        rng = random.Random(seed)
        for c, b in itertools.product(composites, (None, 24)):
            # the largest n, c itself or top, has b bits and sets the group size G;
            # b = 24 makes G = 10, small enough for 27 to end a group
            b = b or c.bit_length()
            G = paper._PRODUCT_BITS // b
            top = (1 << b) - 1
            for length, (slot, where) in itertools.product(
                    (1, G - 1, G, G + 1, 3 * G + 2),
                    ((0, "start"), (G // 2, "middle"), (G - 1, "end"))):
                j = slot + G * rng.randrange(max(1, (length - slot + G - 1) // G))
                between = length - j - 2  # how many ns lie strictly between c and top
                fits = (c.bit_length() == b if between == -1
                        else 0 <= between < (top - c) // 2)
                if j > (c - 7) // 2 or not fits:
                    continue
                ns = odd_sample(rng, 7, c, j) + [c]
                if between >= 0:
                    ns += odd_sample(rng, c + 2, top, between) + [top]
                assert len(ns) == length and ns == sorted(set(ns))
                assert paper._PRODUCT_BITS // ns[-1].bit_length() == G
                monkeypatch.setattr(paper, "primes_in_range", lambda lo, hi: ns)
                report = closed_form_scan(7, ns[-1])
                got = (report.fermat_ok, report.holds, report.hold_residues)
                assert got == scan_by_one_pow_per_n(ns), (ns, c, j)
                seen.add((c, where))
    assert seen == set(itertools.product(composites, ("start", "middle", "end")))


@pytest.mark.parametrize("lo", [10**9, 10**12, 10**18, 10**24])
def test_scan_groups_powers_exactly_on_consecutive_primes(lo):
    ells = primes_in_range(lo, lo + 3000)
    assert len(ells) > 3 * (paper._PRODUCT_BITS // ells[-1].bit_length())  # several groups
    report = closed_form_scan(lo, lo + 3000)
    assert report.scanned == len(ells)
    got = (report.fermat_ok, report.holds, report.hold_residues)
    assert got == scan_by_one_pow_per_n(ells) == (True, (), {})


@pytest.mark.parametrize("ell_max", [7, 100, 1009, 10**4])
def test_scan_holds_where_the_family_trace_certificate_excepts(schoen_form, ell_max):
    # the scan is "ell divides some D_s" for a_2 = 1, k = 4, p = 2
    cert = family_trace_obstruction(schoen_form, 2)
    assert cert.verdict == NON_ELLIPTIC
    exceptional = [ell for ell in cert.witness["exceptional"] if 7 <= ell <= ell_max]
    assert list(closed_form_scan(7, ell_max).holds) == exceptional


def test_scan_matches_trace_test(schoen_form):
    # Squaring the trace congruence: NonElliptic at p=2 iff 2^(ell-3) is
    # outside {1, 4, 9} mod ell. Check the equivalence across the range.
    holds = set(closed_form_scan(7, 1000).holds)
    for run in certify_form(schoen_form, primes_in_range(7, 1000), witness_prime=2):
        cert = run.trace_tests[0]
        if run.ell in holds:
            assert cert.verdict == INCONCLUSIVE
        else:
            assert cert.verdict == NON_ELLIPTIC


# --- family trace obstruction -----------------------------------------------------

@pytest.mark.parametrize("form_id, p, exceptional", [
    ("schoen_s4_25", 2, [2, 3, 5, 7]),
    ("schoen_s4_25", 3, [2, 3, 5, 7, 13, 19]),
    ("schoen_s4_25", 7, [2, 3, 5, 7, 11, 13, 17, 29, 31, 41]),
    ("schoen_s4_25", 11, [2, 3, 5, 7, 11, 13, 19, 23, 29, 43, 89, 109]),
    ("s2_512_sqrt2", 3, [2, 3, 7]),
    ("s2_512_sqrt2", 5, [2, 5, 7]),
    ("s2_512_sqrt2", 11, [2, 5, 7, 11, 17, 23, 71]),
    ("s2_512_sqrt2", 13, [2, 3, 7, 13, 17, 41, 47]),
    ("s2_512_sqrt2", 29, [2, 3, 7, 17, 23, 29, 47, 71]),
])
def test_family_trace_exceptional_sets_of_the_bundled_forms(form_id, p, exceptional):
    cert = family_trace_obstruction(bundled_form(form_id), p)
    assert (cert.method, cert.ell, cert.verdict) == (METHOD_FAMILY_TRACE, None, NON_ELLIPTIC)
    assert cert.witness["exceptional"] == exceptional
    assert check(cert)


def test_family_trace_at_2_on_the_weight_4_form(schoen_form):
    # a_2 = 1, B = 2: D_s = 1 - 4 s^2 for s = 0, 1, 2 and p + 1 = 3
    w = family_trace_obstruction(schoen_form, 2).witness
    assert w["D"] == [1, -3, -15, -35]
    assert w["factors"] == [[], [[3, 1]], [[3, 1], [5, 1]], [[5, 1], [7, 1]]]
    assert (w["a_p"], w["weight"], w["level"], w["d"]) == ([1, 0], 4, 25, None)


def test_family_trace_is_inconclusive_where_some_d_s_vanishes(sqrt2_form):
    # a_7 = -4 and B = 5 on the weight-2 form: D_4 = 16 - 16 = 0, so no ell is
    # ruled out at p = 7, as for ell = 7 in the paper
    cert = family_trace_obstruction(sqrt2_form, 7)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness["D"][4] == 0
    assert (cert.witness["factors"], cert.witness["exceptional"]) == ([], [])
    assert check(cert)


def test_family_trace_refuses_what_it_cannot_certify(schoen_form):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        weight3 = dataclasses.replace(schoen_form, weight=3)  # a_7 and a_11 break the bound
        big = NewformData("big", 25, 10**9, None, {2: QuadInt(1)})
        huge_p = NewformData("huge", 1, 2, None, {10**12 + 39: QuadInt(1)})
    with pytest.raises(ValueError, match="even weight, not 3"):
        family_trace_obstruction(weight3, 2)
    with pytest.raises(InsufficientDataError, match="p=13"):
        family_trace_obstruction(schoen_form, 13)
    with pytest.raises(ValueError, match="divides the level"):
        family_trace_obstruction(schoen_form, 5)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="trial-division guard"):
        family_trace_obstruction(big, 2)  # refused before 2^(10^9 - 2) is built
    with pytest.raises(ValueError, match="over the limit"):
        family_trace_obstruction(huge_p, 10**12 + 39)  # B = 2 * 10^6
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [0, 1, 4, 2.0, True])
def test_family_trace_refuses_a_witness_that_is_not_a_prime(schoen_form, p):
    # refused before the level is read: 0 raised ZeroDivisionError there, 1
    # and True "divided the level", 4 was looked up as a prime and 2.0 raised
    # TypeError
    with pytest.raises(ValueError, match=f"^witness prime p={p!r} is not prime$"):
        family_trace_obstruction(schoen_form, p)


@st.composite
def family_trace_cases(draw):
    """A form of even weight over Q or Q(sqrt(d)) with one eigenvalue, at a
    good prime p below 60, with every D_s under 2**64. a_p = s p^(k/2 - 1),
    drawn at times, makes D_s = 0."""
    d = draw(st.sampled_from([None, 2, 3, 5, 7, 13]))
    level = draw(st.sampled_from([1, 11, 25, 27, 512, 1375]))
    p = draw(st.sampled_from([q for q in SMALL_PRIMES if level % q]))
    k = draw(st.sampled_from([2, 4] if d else [2, 4, 6, 8]))
    root = st.integers(0, math.isqrt(4 * p)).map(lambda s: s * p ** (k // 2 - 1))
    x = draw(st.integers(-999, 999) | root)
    y = 0 if d is None else draw(st.integers(-30, 30) | st.just(0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        return NewformData("f", level, k, d, {p: QuadInt(x, y)}), p


@settings(max_examples=150, deadline=None)
@given(family_trace_cases())
def test_family_trace_agrees_with_the_trace_test_at_every_admitted_ell(case):
    """At every admitted ell, with p = 0 or 1 (mod ell) set aside (there the
    trace test is unavailable, and E holds ell): every reduction is
    NonElliptic at p iff the certificate is NonElliptic and ell is outside
    E. So E is exact, not only sound. The ells are those to 1000 and E's."""
    form, p = case
    cert = family_trace_obstruction(form, p)
    assert check(cert)
    exceptional = set(cert.witness["exceptional"])
    assert (cert.verdict == NON_ELLIPTIC) == all(cert.witness["D"])
    if cert.verdict == NON_ELLIPTIC:
        assert {p} | {q for q, _ in trial_factor(p - 1).factors} <= exceptional
    ells = {*primes_in_range(3, 1000), *(q for q in exceptional if 2 < q < 10**5)}
    ells = sorted(ell for ell in ells if refusal(form, ell) is None and p % ell > 1)
    verdicts: dict[int, list[str]] = {}
    for run in certify_form(form, ells, witness_prime=p):
        verdicts.setdefault(run.ell, []).append(run.trace_tests[0].verdict)
    for ell in ells:
        expected = cert.verdict == NON_ELLIPTIC and ell not in exceptional
        assert (set(verdicts[ell]) == {NON_ELLIPTIC}) == expected, ell


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(primes_in_range(2, 2000)), st.integers(-10**4, 10**4),
       st.sampled_from([None, 2, 3, 5, 6, 7]), st.sampled_from([2, 4]))
def test_family_trace_exceptional_set_holds_every_odd_prime_to_2b_plus_1(p, x, d, k):
    # there the Hasse interval fills F_ell: over Q always (so E holds 3 and 5),
    # over Q(sqrt(d)) unless ell is inert, as no embedding exists then. Over
    # Q(sqrt(d)) the weight is 2, which keeps each N(D_s) under 2**64.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        form = (NewformData("f", 1, k, None, {p: QuadInt(x)}) if d is None
                else NewformData("f", 1, 2, d, {p: QuadInt(x, 1)}))
    cert = family_trace_obstruction(form, p)
    assume(cert.verdict == NON_ELLIPTIC)
    exceptional = set(cert.witness["exceptional"])
    for ell in primes_in_range(3, 2 * math.isqrt(4 * p) + 1):
        assert ell in exceptional or isinstance(refusal(form, ell), NotSplitError), ell
    if d is None:
        assert {3, 5} <= exceptional


def test_check_rejects_a_tampered_family_trace_certificate(schoen_form, sqrt2_form):
    cert = family_trace_obstruction(schoen_form, 2)
    w = cert.witness
    assert check(cert)
    for tampered in (
        {"D": [1, -3, -15, -36]},  # a D_s
        {"D": w["D"] + [-35]},  # one D_s too many
        {"factors": [[], [[3, 1]], [[3, 1], [5, 1]], [[5, 1], [11, 1]]]},  # a factor
        {"exceptional": [2, 3, 5]},  # E
        {"exceptional": [2, 3, 5, 7, 11]},
        {"a_p": [3, 0]},  # an a_p; -1 would pass, as it gives the same D_s
    ):
        assert not check(_tampered(cert, **tampered)), tampered
    assert not check(_tampered(cert, a_p=[1, 1]))  # irrational a_p over Q
    assert not check(dataclasses.replace(cert, verdict=INCONCLUSIVE))
    assert not check(dataclasses.replace(cert, ell=7))
    quad = family_trace_obstruction(sqrt2_form, 5)
    assert check(quad)
    assert not check(_tampered(quad, a_p=[1, -2]))  # a_5 = -2 sqrt(2); +2 sqrt(2) would pass
    assert not check(_tampered(quad, d=3))


def test_check_refuses_a_family_trace_witness_it_cannot_bound():
    # p = 10^10 + 19 has B = 2 * 10^5: a witness listing 4 D_s is refused
    # before any D_s is built (a_p = 2^70 passes the power's guard), so the
    # check allocates next to nothing
    bogus = Certificate(NON_ELLIPTIC, METHOD_FAMILY_TRACE, None, {
        "p": 10**10 + 19, "a_p": [2**70, 0], "weight": 2, "level": 1, "d": None,
        "D": [1, 0, 0, 0], "factors": [], "exceptional": []})
    tracemalloc.start()
    try:
        assert not check(bogus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # x = 5 * 2^31 at p = 2, k = 64 gives D_s = 2^62 (25 - s^2): each factors
    # by hand, yet D_0 = 25 * 2^62 passes the 2**64 guard the producer keeps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        form = NewformData("big", 25, 64, None, {2: QuadInt(5 * 2**31)})
    with pytest.raises(ValueError, match="trial-division guard"):
        family_trace_obstruction(form, 2)
    values = [2**62 * (25 - s * s) for s in range(4)]
    factors = []
    for v in values:
        exponents = dict(trial_factor(v >> 62).factors)
        exponents[2] = exponents.get(2, 0) + 62
        factors.append([[q, e] for q, e in sorted(exponents.items())])
    past_the_guard = Certificate(NON_ELLIPTIC, METHOD_FAMILY_TRACE, None, {
        "p": 2, "a_p": [5 * 2**31, 0], "weight": 64, "level": 25, "d": None, "D": values,
        "factors": factors, "exceptional": [2, 3, 5, 7]})
    assert not check(past_the_guard)


# --- conductor bound --------------------------------------------------------------

def test_conductor_bound_examples():
    cert = conductor_bound_test(512)
    assert cert.verdict == NON_ELLIPTIC
    assert cert.witness["violation"] == {"p": 2, "exponent": 9, "bound": 8}
    assert check(cert)

    assert conductor_bound_test(256).verdict == INCONCLUSIVE
    cert = conductor_bound_test(2560)
    assert cert.witness["violation"] == {"p": 2, "exponent": 9, "bound": 8}

    assert conductor_bound_test(1).verdict == INCONCLUSIVE
    assert conductor_bound_test(3**6).witness["violation"] == {"p": 3, "exponent": 6, "bound": 5}
    assert conductor_bound_test(7**3).witness["violation"] == {"p": 7, "exponent": 3, "bound": 2}
    assert conductor_bound_test(7**2 * 11).verdict == INCONCLUSIVE


@pytest.mark.parametrize("call,message", [
    (lambda: conductor_bound_test(512, ell=2), "^ell=2 is not an odd prime$"),
    (lambda: conductor_bound_test(512, ell=9), "^ell=9 is not an odd prime$"),
    (lambda: conductor_bound_test(512, ell=7.0), "^ell=7.0 is not an odd prime$"),
    (lambda: conductor_bound_test(0), "^conductor must be positive$"),
    (lambda: conductor_bound_test(-512, ell=7), "^conductor must be positive$"),
    # True passed as 1 and 2.0 failed in trial_factor: neither is an exact conductor
    (lambda: conductor_bound_test(True, ell=7), "^conductor=True is not an int$"),
    (lambda: conductor_bound_test(2.0, ell=7), "^conductor=2.0 is not an int$"),
    (lambda: serre_bound_predicate(7, 4), "^4 is not prime$"),
    (lambda: serre_bound_predicate(7, 1), "^1 is not prime$"),
], ids=["ell-2", "ell-9", "ell-float", "conductor-0", "conductor-negative", "conductor-bool",
        "conductor-float", "p-4", "p-1"])
def test_conductor_and_serre_refuse_what_they_cannot_judge(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_certify_form_factors_the_level_once():
    trial_factor.cache_clear()
    # no eigenvalues: every ell falls through to the conductor bound
    form = NewformData(form_id="bare", level=2560, weight=2, d=None, eigenvalues={},
                       claimed_conductor_equality=True)
    runs = certify_form(form, [7, 11, 13, 17, 19])
    assert [r.conductor.witness["conductor"] for r in runs] == [2560] * 5
    assert trial_factor.cache_info().misses == 1


@pytest.mark.parametrize("n", [512, 2560, 3**6, 7**3])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 30])
def test_conductor_bound_monotone(n, k):
    assert conductor_bound_test(n).verdict == NON_ELLIPTIC
    assert conductor_bound_test(n * k).verdict == NON_ELLIPTIC


# --- Serre bound predicate ----------------------------------------------------------

def test_serre_predicate_quoted_cases():
    assert serre_bound_predicate(7, 3) == "applies"      # 7 != +-1 (mod 9)
    assert serre_bound_predicate(7, 2) == "does_not_apply"  # 7 = -1 (mod 8)
    assert serre_bound_predicate(17, 2) == "unknown"


def test_serre_predicate_other_cases():
    assert serre_bound_predicate(19, 3) == "does_not_apply"  # 19 = 1 (mod 9)
    assert serre_bound_predicate(17, 3) == "does_not_apply"  # 17 = -1 (mod 9)
    assert serre_bound_predicate(11, 5) == "does_not_apply"  # 11 = 1 (mod 5)
    assert serre_bound_predicate(13, 5) == "applies"
    assert serre_bound_predicate(11, 11) == "applies"
    assert serre_bound_predicate(23, 11) == "does_not_apply"  # 23 = 1 (mod 11)


# --- certificate closure and tamper resistance ---------------------------------------

def test_check_rejects_tampered_certificates(schoen_form):
    cert = run_at(schoen_form, 11, 2).irreducible
    assert check(cert)
    d = cert.to_dict()

    bad = json.loads(json.dumps(d))
    bad["witness"]["delta"] = 3
    assert not check(Certificate.from_dict(bad))

    bad = json.loads(json.dumps(d))
    bad["witness"]["legendre"] = 1
    assert not check(Certificate.from_dict(bad))

    bad = json.loads(json.dumps(d))
    bad["verdict"] = INCONCLUSIVE
    assert not check(Certificate.from_dict(bad))


def test_check_rejects_tampered_trace_certificates(schoen_form):
    cert = run_at(schoen_form, 11, 2).trace_tests[0]
    d = cert.to_dict()

    bad = json.loads(json.dumps(d))
    bad["witness"]["excluded"] = [0, 1, 2]  # shrunken excluded set
    assert not check(Certificate.from_dict(bad))

    bad = json.loads(json.dumps(d))
    bad["witness"]["trace"] = 3  # inside the excluded set
    assert not check(Certificate.from_dict(bad))


def test_check_rejects_tampered_obstruction(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    d = cert.to_dict()
    bad = json.loads(json.dumps(d))
    bad["witness"]["exceptional"] = [11]  # dropped a factor of M
    assert not check(Certificate.from_dict(bad))

    bad = json.loads(json.dumps(d))
    bad["witness"]["factors"] = [[5, 3], [11, 2]]
    assert not check(Certificate.from_dict(bad))


def test_check_rejects_tampered_conductor():
    cert = conductor_bound_test(512)
    d = cert.to_dict()
    bad = json.loads(json.dumps(d))
    bad["witness"]["violation"] = None
    bad["verdict"] = INCONCLUSIVE
    assert not check(Certificate.from_dict(bad))


def test_check_obstruction_with_unfactorable_level_is_false_quickly(schoen_form):
    d = reducibility_obstruction(schoen_form, 11).to_dict()
    semiprime = json.loads(json.dumps(d))
    semiprime["witness"]["level"] = 1000000007 * 1000000009  # split by rho
    # above 2**64 the producer cannot factor the level either
    too_large = json.loads(json.dumps(d))
    too_large["witness"]["level"] = 25 * (2**61 - 1)
    prime_cofactor = json.loads(json.dumps(d))
    prime_cofactor["witness"]["level"] = 4 * (2**61 - 1)  # 2^2 * a prime > 10^12
    start = time.perf_counter()
    assert check(Certificate.from_dict(semiprime))
    assert not check(Certificate.from_dict(too_large))
    assert check(Certificate.from_dict(prime_cofactor))
    assert time.perf_counter() - start < 1.0


def test_check_trace_at_a_huge_witness_prime_is_quick():
    p = 2**61 - 1  # p = 14 (mod 17): the trace test is available
    excluded = list(range(17))  # the Hasse interval covers every residue
    witness = {"p": p, "trace": 3, "excluded": excluded}
    start = time.perf_counter()
    assert check(Certificate(INCONCLUSIVE, "TraceObstruction", 17, witness))
    assert not check(Certificate(NON_ELLIPTIC, "TraceObstruction", 17, witness))
    assert time.perf_counter() - start < 1.0


def test_check_is_fast_at_huge_ell(schoen_form):
    # ell = 2^61 - 1: primality of ell is the only costly part of the check
    ell = 2**61 - 1
    cert = run_at(schoen_form, ell, 7).irreducible
    forged = cert.to_dict()
    forged["ell"] = 2**89 - 1  # beyond the proven primality range
    start = time.perf_counter()
    assert check(cert)
    assert not check(Certificate.from_dict(forged))
    assert time.perf_counter() - start < 1.0


def test_check_never_raises_on_garbage():
    assert not check(Certificate("Irreducible", "NoSuchMethod", 11, {}))
    assert not check(Certificate("Irreducible", "TraceObstruction", None, {}))



# --- check() rebuilds each witness and compares it whole --------------------------------

def _tampered(cert: Certificate, **witness) -> Certificate:
    d = json.loads(json.dumps(cert.to_dict()))
    d["witness"].update(witness)
    return Certificate.from_dict(d)


@functools.lru_cache(maxsize=None)
def bundled_certificates() -> tuple[Certificate, ...]:
    """Certificates of all five methods, with both verdicts, from the bundled
    forms (plus an M = 0 obstruction, a few conductors and a family trace
    certificate with D_2 = 0)."""
    schoen, sqrt2 = bundled_form("schoen_s4_25"), bundled_form("s2_512_sqrt2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degenerate = NewformData("t", 25, 4, None, {31: QuadInt(1 + 31**3)})
    certs = [reducibility_obstruction(f, p) for f, p in ((schoen, 11), (degenerate, 31))]
    certs += [c for r in certify_form(schoen, primes_in_range(7, 60)) for c in r.certificates()]
    certs += [c for r in certify_form(sqrt2, [7, 17, 23, 31, 41, 47]) for c in r.certificates()]
    certs += [conductor_bound_test(n) for n in (1, 275, 1375)]
    certs += [family_trace_obstruction(schoen, p) for p in (2, 7)]
    certs += [family_trace_obstruction(sqrt2, p) for p in (5, 7)]  # 7: D_4 = 0
    certs += [family_trace_obstruction(NewformData("11a", 11, 2, None, {2: QuadInt(-2)}), 2)]
    return tuple(certs)


def test_bundled_certificates_cover_every_method_and_verdict():
    kinds = {(c.method, c.verdict) for c in bundled_certificates()}
    assert kinds == {
        (METHOD_DISCRIMINANT, IRREDUCIBLE), (METHOD_DISCRIMINANT, INCONCLUSIVE),
        (METHOD_OBSTRUCTION, IRREDUCIBLE), (METHOD_OBSTRUCTION, INCONCLUSIVE),
        (METHOD_TRACE, NON_ELLIPTIC), (METHOD_TRACE, INCONCLUSIVE),
        (METHOD_CONDUCTOR, NON_ELLIPTIC), (METHOD_CONDUCTOR, INCONCLUSIVE),
        (METHOD_FAMILY_TRACE, NON_ELLIPTIC), (METHOD_FAMILY_TRACE, INCONCLUSIVE),
    }
    assert all(check(_tampered(c)) for c in bundled_certificates())


# The fields a producer takes as input, ell and witness fields; every other
# witness field is derived.
INPUT_FIELDS = {"ell", "p", "trace", "det_exponent", "a_p", "weight", "level", "conductor",
                "d"}


def _produced(cert: Certificate) -> Certificate | None:
    """What the producing code emits from the certificate's input fields, or
    None where it refuses them or emits no such certificate."""
    w = cert.witness
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if cert.method in (METHOD_DISCRIMINANT, METHOD_TRACE):
                # a level-1 probe form with a_p = trace: weight m + 1 gives the
                # determinant exponent m, weight 2 the determinant chi, which a
                # trace test reads untwisted
                discriminant = cert.method == METHOD_DISCRIMINANT
                weight = w["det_exponent"] + 1 if discriminant else 2
                form = NewformData("probe", 1, weight, None, {w["p"]: QuadInt(w["trace"])})
                run = run_at(form, cert.ell, w["p"])
                if discriminant:
                    return run.irreducible
                return run.trace_tests[0] if run.trace_tests else None
            if cert.method == METHOD_OBSTRUCTION:
                eigenvalues = {w["p"]: QuadInt(w["a_p"])}
                form = NewformData("probe", w["level"], w["weight"], None, eigenvalues)
                return reducibility_obstruction(form, w["p"])
            if cert.method == METHOD_FAMILY_TRACE:
                eigenvalues = {w["p"]: QuadInt(*w["a_p"])}
                form = NewformData("probe", w["level"], w["weight"], w["d"], eigenvalues)
                return family_trace_obstruction(form, w["p"])
            return conductor_bound_test(w["conductor"], ell=cert.ell)
    except Exception:
        return None


# Integers stay below 2**64, where trial_factor (and so the producer) works.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _near(value) -> st.SearchStrategy:
    """Values one small edit away from `value`, at any depth."""
    if type(value) is int:
        return st.one_of(
            st.integers(value - 40, value + 40),
            st.sampled_from(primes_in_range(2, 100)),
            st.integers(-3, 12).map(lambda m: m * value),
        )
    if isinstance(value, list) and value:
        at = st.integers(0, len(value) - 1)
        return st.one_of(
            st.permutations(value).map(list),
            at.map(lambda i: value[:i] + value[i + 1:]),
            st.tuples(at, JSON_VALUES).map(lambda t: value[: t[0]] + [t[1]] + value[t[0]:]),
            at.flatmap(lambda i: _near(value[i]).map(lambda v: value[:i] + [v] + value[i + 1:])),
        )
    if isinstance(value, dict) and value:
        return st.sampled_from(sorted(value)).flatmap(
            lambda k: _near(value[k]).map(lambda v: value | {k: v})
        )
    return JSON_VALUES


def _a_certificate(data) -> Certificate:
    method = data.draw(st.sampled_from(
        [METHOD_DISCRIMINANT, METHOD_OBSTRUCTION, METHOD_TRACE, METHOD_CONDUCTOR,
         METHOD_FAMILY_TRACE]))
    return data.draw(st.sampled_from([c for c in bundled_certificates() if c.method == method]))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_tampering_a_witness_field_fails_check(data):
    """Replace ell or one witness field by a different JSON value. A derived
    field then always fails; a changed input field passes only where the
    producer, run on the changed inputs, emits this very record (trace ->
    ell - trace leaves delta alone, for one)."""
    cert = _a_certificate(data)
    key = data.draw(st.sampled_from(sorted(cert.witness) + ["ell"]))
    old = cert.ell if key == "ell" else cert.witness[key]
    value = data.draw(_near(old) | JSON_VALUES)
    assume(value != old)
    if key == "ell":
        tampered = dataclasses.replace(_tampered(cert), ell=value)
    else:
        tampered = _tampered(cert, **{key: value})
    if check(tampered):
        assert key in INPUT_FIELDS
        produced = _produced(tampered)
        assert produced is not None
        assert (produced.verdict, produced.ell, produced.witness) == (
            tampered.verdict, tampered.ell, tampered.witness)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_extra_witness_key_fails_check(data):
    cert = _a_certificate(data)
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in cert.witness))
    assert not check(_tampered(cert, **{key: data.draw(JSON_VALUES)}))


def test_check_rejects_a_reordered_factor_list(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    assert cert.witness["factors"] == [[5, 3], [11, 1]]
    assert not check(_tampered(cert, factors=[[11, 1], [5, 3]]))
    assert not check(_tampered(conductor_bound_test(1375), factors=[[11, 1], [5, 3]]))


def test_check_rejects_a_split_factor_list(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    assert not check(_tampered(cert, factors=[[5, 1], [5, 2], [11, 1]]))
    assert not check(_tampered(conductor_bound_test(1375), factors=[[5, 1], [5, 2], [11, 1]]))


def test_check_accepts_changed_inputs_that_rebuild_the_same_record(schoen_form):
    # Internal consistency is all check() sees: a_11 = 2*(1 + 11^3) + 43 gives
    # the same M, and ell - trace the same discriminant. Binding a certificate
    # to its form's eigenvalues is a separate check.
    cert = reducibility_obstruction(schoen_form, 11)
    assert check(_tampered(cert, a_p=2 * (1 + 11**3) + 43))
    disc = run_at(schoen_form, 11, 2).irreducible
    assert check(_tampered(disc, trace=11 - disc.witness["trace"]))


def test_check_rejects_inputs_no_producer_emits(schoen_form):
    # Frobenius at a prime of bad reduction, or at ell itself, says nothing.
    cert = reducibility_obstruction(schoen_form, 11)
    assert not check(_tampered(cert, level=5 * 11))
    disc = run_at(schoen_form, 13, 3).irreducible
    tr, m = disc.witness["trace"], disc.witness["det_exponent"]
    at_ell = _tampered(disc, p=13, delta=tr * tr % 13, legendre=1).witness
    assert not check(Certificate(INCONCLUSIVE, METHOD_DISCRIMINANT, 13, at_ell))
    # p^(m ± 12) = p^m (mod 13), but det_exponent lives in [1, ell - 2]
    for exponent in (m + 12, m - 12):
        assert not check(_tampered(disc, det_exponent=exponent))
    trace = run_at(schoen_form, 7, 2).trace_tests[0]
    assert check(trace) and trace.witness["excluded"] == list(range(7))
    assert not check(_tampered(trace, p=7))


def test_check_rejects_non_integer_inputs(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    for level in (26.5, 25.0, True, "25"):
        assert not check(_tampered(cert, level=level))
    # integral-float exponents: 9.0 == 9, so the rebuilt witness would compare equal
    assert not check(_tampered(cert, factors=[[5, 3.0], [11, 1]]))
    assert not check(_tampered(conductor_bound_test(512), factors=[[2, 9.0]],
                               violation={"p": 2, "exponent": 9.0, "bound": 8}))
    run = run_at(schoen_form, 11, 2)
    trace = run.trace_tests[0]
    assert not check(_tampered(trace, trace=float(trace.witness["trace"])))
    # derived fields: the rebuilt witness compares equal to 2.0 or True unless
    # the comparison is type-exact
    disc = run.irreducible
    assert (disc.witness["delta"], disc.witness["legendre"]) == (2, -1)
    assert not check(_tampered(disc, delta=2.0))
    assert not check(_tampered(disc, legendre=-1.0))
    excluded = trace.witness["excluded"]
    assert check(trace) and excluded[1] == 1
    assert not check(_tampered(trace, excluded=[float(t) for t in excluded]))
    assert not check(_tampered(trace, excluded=[0, True, *excluded[2:]]))
    conductor = conductor_bound_test(512)
    assert conductor.witness["violation"] == {"p": 2, "exponent": 9, "bound": 8}
    assert not check(_tampered(conductor, violation={"p": 2, "exponent": 9, "bound": 8.0}))
    assert cert.witness["exceptional"] == [5, 11]
    assert not check(_tampered(cert, exceptional=[5.0, 11]))


def test_check_refuses_a_huge_weight_quickly(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    start = time.perf_counter()
    assert not check(_tampered(cert, weight=10**7))
    assert time.perf_counter() - start < 1.0


def test_check_refuses_a_huge_factor_exponent_quickly(schoen_form):
    cert = reducibility_obstruction(schoen_form, 11)
    start = time.perf_counter()
    assert not check(_tampered(conductor_bound_test(512), factors=[[3, 10**8]]))
    assert not check(_tampered(cert, factors=[[3, 10**8]]))
    assert time.perf_counter() - start < 1.0


def test_check_refuses_a_short_excluded_list_at_a_huge_prime_quickly():
    # excluded_trace_set(p, ell) has about 4*10^9 entries here
    p, ell = 10**18 + 9, 10**10 + 19
    witness = {"p": p, "trace": 5 * 10**9, "excluded": [0, 1, 2]}
    start = time.perf_counter()
    assert not check(Certificate(NON_ELLIPTIC, METHOD_TRACE, ell, witness))
    assert time.perf_counter() - start < 1.0


def test_check_accepts_every_genuine_trace_witness():
    # The size check before excluded_trace_set must agree with it everywhere.
    for p in primes_in_range(2, 3000):
        for ell in primes_in_range(3, 400):
            if p % ell > 1:
                excluded = excluded_trace_set(p, ell)
                witness = {"p": p, "trace": 0, "excluded": excluded}
                assert check(Certificate(INCONCLUSIVE, METHOD_TRACE, ell, witness)), (p, ell)


def test_certify_proves_d_square_free_once():
    d = 10**9 + 7  # prime, so square-free
    trial_factor.cache_clear()
    form = NewformData("t", 512, 2, d, {3: QuadInt(1, 1), 5: QuadInt(1)})
    runs = certify_form(form, [ell for ell in primes_in_range(7, 3000) if legendre(d, ell) == 1])
    assert len(runs) > 200
    assert trial_factor.cache_info().misses == 1
    assert trial_factor.cache_info().hits == 0  # no ell asks again


# --- full bundled verification --------------------------------------------------------

def test_full_verification_passes():
    report = full_paper_verification(ell_max=300)
    assert report.passed
    assert report.mismatches == ()
    written = io.StringIO()
    report.write_json(written)
    certs = written_certificates(written.getvalue())
    assert len(certs) == 65 and all(check(c) for c in certs)
    s4 = report.sections["weight4_level25"]
    assert s4["exceptional"] == [5, 11]
    entry11 = next(e for e in s4["per_ell"] if e["ell"] == 11)
    assert entry11["irreducible_route"] == "discriminant"
    assert entry11["discriminant"].witness["p"] == 2


def test_full_verification_detects_tampering():
    tampered = NewformData(
        "schoen_s4_25",
        25,
        4,
        None,
        {2: QuadInt(2), 3: QuadInt(7), 7: QuadInt(6), 11: QuadInt(-43)},
    )
    report = full_paper_verification(
        ell_max=100,
        forms={
            "weight4_level25": tampered,
            "weight2_level512": bundled_form("s2_512_sqrt2"),
        },
    )
    assert not report.passed
    assert report.mismatches


def test_a_conductor_with_no_violation_is_reported_inconclusive():
    # 256 = 2^8 is within an elliptic curve's bound at 2
    expectations = load_expectations()
    expectations["weight2_level512"]["conductor_violations"] = {"512": [2, 9, 8], "256": None}
    report = full_paper_verification(ell_max=30, expectations=expectations)
    assert report.passed
    text = report.to_text()
    assert "\n  conductor 256: -> Inconclusive\n  conductor 512: violates" in text


def missing_data_report(store_a29=True):
    """verify-paper up to 20 with witness primes 29 and 17. p = 29 = 1 (mod 7)
    leaves ell = 7 without a trace test, and the weight-2 form stores no a_17
    for the discriminant test. Without a stored a_29 no ell has a trace test,
    and the discriminant entry of ell = 11 is null."""
    expectations = load_expectations()
    expectations["weight4_level25"]["trace_test_witness_prime"] = 29
    expectations["weight2_level512"]["pinned_discriminant"]["witness_prime"] = 17
    schoen = bundled_form("schoen_s4_25")
    if store_a29:
        schoen = NewformData(schoen.form_id, 25, 4, None, schoen.eigenvalues | {29: QuadInt(0)})
    return full_paper_verification(
        ell_max=20,
        forms={"weight4_level25": schoen, "weight2_level512": bundled_form("s2_512_sqrt2")},
        expectations=expectations,
    )


def test_full_verification_reports_missing_tests_as_mismatches():
    report = missing_data_report()
    assert not report.passed
    assert "ell=7: no trace test at p=29" in report.mismatches
    assert "root_3: no discriminant certificate at p=17" in report.mismatches
    assert "root_4: no discriminant certificate at p=17" in report.mismatches
    assert "mismatches:" in report.to_text()
    assert json.loads(canonical_json(report))["passed"] is False


# Each leaf of the expectations table that the run does not read as an input,
# a value it must not match, and the path its mismatch starts with: the
# weight-2 discriminant is pinned once and compared under each root.
PERTURBED_LEAVES = [
    (("weight4_level25", "form"), "s4_125", "weight4_level25.form"),
    (("weight4_level25", "family_obstruction", "M"), 1289, "weight4_level25.family_obstruction.M"),
    (("weight4_level25", "family_obstruction", "factors"), [[1289, 1]],
     "weight4_level25.family_obstruction.factors"),
    (("weight4_level25", "family_obstruction", "exceptional"), [11],
     "weight4_level25.family_obstruction.exceptional"),
    (("weight4_level25", "pinned_discriminant", "11", "delta"), 3,
     "weight4_level25.pinned_discriminant.11.delta"),
    (("weight4_level25", "pinned_discriminant", "11", "legendre"), 1,
     "weight4_level25.pinned_discriminant.11.legendre"),
    (("weight4_level25", "scan", "holds"), [7, 11], "weight4_level25.scan.holds"),
    (("weight2_level512", "form"), "s2_256", "weight2_level512.form"),
    (("weight2_level512", "split", "d"), 3, "weight2_level512.split.d"),
    (("weight2_level512", "split", "roots"), [4, 3], "weight2_level512.split.roots"),
    (("weight2_level512", "pinned_discriminant", "delta"), 6,
     "weight2_level512.pinned_discriminant.root_3.delta"),
    (("weight2_level512", "pinned_discriminant", "legendre"), 1,
     "weight2_level512.pinned_discriminant.root_4.legendre"),
    (("weight2_level512", "conductor_violations", "512"), [2, 9, 7],
     "weight2_level512.conductor_violations.512"),
    (("weight2_level512", "conductor_violations", "2560"), None,
     "weight2_level512.conductor_violations.2560"),
    (("weight2_level512", "serre_predicate", "2"), "applies", "weight2_level512.serre_predicate.2"),
    (("weight2_level512", "serre_predicate", "3"), "unknown", "weight2_level512.serre_predicate.3"),
]


@pytest.mark.parametrize("keys,value,path", PERTURBED_LEAVES,
                         ids=[".".join(keys) for keys, _, _ in PERTURBED_LEAVES])
def test_every_expectations_leaf_is_compared(keys, value, path):
    expectations = load_expectations()
    assert full_paper_verification(ell_max=30, expectations=expectations).passed
    *parents, leaf = keys
    functools.reduce(dict.__getitem__, parents, expectations)[leaf] = value
    report = full_paper_verification(ell_max=30, expectations=expectations)
    assert not report.passed
    assert any(m.startswith(f"{path}: ") for m in report.mismatches), report.mismatches
    if keys == ("weight2_level512", "split", "d"):
        assert report.mismatches == ("weight2_level512.split.d: 2, expected 3",)


@pytest.mark.parametrize("make_report", [
    *(functools.partial(full_paper_verification, ell_max) for ell_max in (7, 11, 100, 2000)),
    missing_data_report, functools.partial(missing_data_report, store_a29=False),
], ids=["7", "11", "100", "2000", "missing data", "missing data, no a_29"])
def test_verify_paper_json_is_what_the_standard_library_writes(make_report):
    report = make_report()
    out = io.StringIO()
    report.write_json(out)
    assert out.getvalue() == canonical_json(report)
    assert out.getvalue() == json.dumps(report, default=lambda o: o.to_dict(), sort_keys=True,
                                        indent=2, ensure_ascii=True) + "\n"


def test_certify_form_pipeline(schoen_form, sqrt2_form):
    runs = certify_form(schoen_form, [13, 11, 13])  # sorted, each ell once
    assert all(r.proved for r in runs)
    assert [r.ell for r in runs] == [11, 13]
    assert all(check(c) for r in runs for c in r.certificates())

    assert not certify_form(schoen_form, [7])[0].proved

    runs = certify_form(sqrt2_form, [7])  # both embeddings
    assert all(r.proved for r in runs)
    assert [r.embedding_root for r in runs] == [3, 4]
    # non-ellipticity comes through the conductor route at ell = 7
    assert all(r.conductor.verdict == NON_ELLIPTIC for r in runs)


def test_certify_form_with_empty_eigenvalue_map():
    # a valid but empty record: everything comes back unproved, not an error
    form = NewformData("empty", 25, 4, None, {})
    (run,) = certify_form(form, [11])
    assert not run.proved
    assert run.irreducible is None
    assert run.trace_tests == ()


def test_certify_form_with_pinned_witness(sqrt2_form):
    (run,) = certify_form(sqrt2_form, [7], root=3, witness_prime=29)
    assert run.irreducible.witness["p"] == 29
    assert run.irreducible.witness["delta"] == 5
    assert run.proved_non_elliptic  # conductor route


def test_report_serialization_is_deterministic():
    a = canonical_json(full_paper_verification(ell_max=100))
    b = canonical_json(full_paper_verification(ell_max=100))
    assert a == b
    at = full_paper_verification(ell_max=100).to_text()
    bt = full_paper_verification(ell_max=100).to_text()
    assert at == bt


# --- the JSON of a certify range ------------------------------------------------------

SMALL_PRIMES = primes_in_range(2, 60)
# a form id the report must escape: a quote, a backslash, non-ASCII, a newline
FORM_IDS = st.text(alphabet='ab"\\\né✓\x00', min_size=1, max_size=6) | st.text(min_size=1)


@st.composite
def certify_cases(draw):
    """A form, its admitted ells in 7..60, a root and a witness prime for
    certify_form. Levels 1, 125, 512 and 1375 give a conductor bound with an
    empty factor list, a violation at 5 and at 2, and none; weights 2-6 give
    even and odd determinant exponents. A pinned root takes one ell. The
    witness prime is unset, any prime below 60 (stored or not, at times
    = 1 mod ell) or one of the ells."""
    d = draw(st.sampled_from([None, 2, 3, 5, 7]))
    level = draw(st.sampled_from([1, 11, 25, 125, 512, 1375]))
    good = [p for p in SMALL_PRIMES if level % p]
    ys = st.just(0) if d is None else st.integers(-9, 9)
    eigenvalues = {p: QuadInt(draw(st.integers(-99, 99)), draw(ys))
                   for p in draw(st.lists(st.sampled_from(good), unique=True, max_size=10))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        form = NewformData(draw(FORM_IDS), level, draw(st.integers(2, 6)), d, eigenvalues,
                           draw(st.booleans()))
    admitted = [ell for ell in primes_in_range(7, 60) if refusal(form, ell) is None]
    assume(admitted)
    ells = draw(st.lists(st.sampled_from(admitted), min_size=1, max_size=6, unique=True))
    root = None
    if d is not None and draw(st.booleans()):
        ells = ells[:1]
        root = draw(st.sampled_from([r for r in range(ells[0]) if (r * r - d) % ells[0] == 0]))
    return form, ells, root, draw(st.sampled_from([None, *SMALL_PRIMES, *ells]))


def renamed(form_id):
    """A case of certify_cases: the bundled weight-4 form under another id at 7 and 11."""
    return dataclasses.replace(bundled_form("schoen_s4_25"), form_id=form_id), [7, 11], None, None


@settings(max_examples=300, deadline=None)
@given(certify_cases())
# ids holding the token the report's runs are spliced in at, or a marker
@example(renamed('"runs": []'))
@example(renamed('x"], "runs": []'))
@example(renamed("\x00per_ell"))
def test_certify_range_json_is_what_the_standard_library_writes(case):
    form, ells, root, witness_prime = case
    runs = certify_form(form, ells, root, witness_prime)
    out = io.StringIO()
    proved = certify_range(form, ells, root, witness_prime, "json", out)
    assert proved == all(run.proved for run in runs)
    assert out.getvalue() == certify_report(form, ells, runs, "json")


def _runs_one_by_one(form, ells, root, witness_prime):
    """certify_form on each ell alone, in sorted order, the runs joined."""
    return tuple(run for ell in sorted(set(ells))
                 for run in certify_form(form, [ell], root, witness_prime))


def _outcome(f, *args):
    """("runs", f(*args)), or ("error", type, message) of what it raised."""
    try:
        return "runs", f(*args)
    except (ValueError, TypeError) as exc:
        return "error", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(certify_cases(), st.lists(st.integers(-3, 80), max_size=3))
@example(renamed("x"), [15])
@example(renamed("x"), [5, 9])
def test_certify_form_on_a_list_is_certify_form_on_each_ell(case, extra):
    # the list path (one sieve, one ask of the rule per ell, one conductor
    # witness) gives the runs of each ell alone, or the same error at the same
    # first ell when `extra` adds a composite or refused ell; every
    # certificate holds the traces reduced here from the form's eigenvalues
    form, ells, root, witness_prime = case
    ells = [*ells, *extra]
    outcome = _outcome(certify_form, form, ells, root, witness_prime)
    assert outcome == _outcome(_runs_one_by_one, form, ells, root, witness_prime)
    if outcome[0] == "error":
        return
    for run in outcome[1]:
        _assert_certificates_from_the_eigenvalues(form, run)


def _assert_certificates_from_the_eigenvalues(form, run):
    """Each certificate of `run` holds the trace x + y*root mod ell of the
    form's a_p = x + y*sqrt(d), twisted by p^t for a trace test, where chi^t
    takes the determinant exponent m to 1."""
    ell, root = run.ell, run.embedding_root
    m = (form.weight - 1) % (ell - 1)
    provenance = {"form": form.form_id, "embedding_root": root}

    def trace(p):
        a = form.eigenvalues[p]
        return (a.x + a.y * (root or 0)) % ell

    if run.irreducible is not None:
        p = run.irreducible.witness["p"]
        delta = (trace(p) ** 2 - 4 * p**m) % ell
        assert run.irreducible.witness == {"p": p, "trace": trace(p), "det_exponent": m,
                                           "delta": delta, "legendre": legendre(delta, ell)}
        assert run.irreducible.inputs == provenance | {"twist_exponent": 0, "assumed_odd": True}
    if run.conductor is not None:
        assert run.conductor == conductor_bound_test(form.level, ell, form.form_id)
    if m % 2 == 0:
        assert (run.twist_exponent, run.trace_tests) == (None, ())
        return
    t = ((1 - m) // 2) % ((ell - 1) // 2)
    assert (m + 2 * t) % (ell - 1) == 1
    assert run.twist_exponent == t
    for cert in run.trace_tests:
        p = cert.witness["p"]
        twisted = trace(p) * pow(p, t, ell) % ell
        assert cert.witness == {"p": p, "trace": twisted, "excluded": excluded_trace_set(p, ell)}
        assert cert.verdict == (INCONCLUSIVE if twisted in cert.witness["excluded"]
                                else NON_ELLIPTIC)
        assert cert.inputs == provenance | {"twist_exponent": t, "extended": p != 2}


@pytest.mark.parametrize("ells,sieved,error", [
    ([7, 11, 15], True, "modulus 15 is not an odd prime"),
    ([13, 2, 7], True, "modulus 2 is not an odd prime"),
    ([7, 11, 13, 16, 17, 9], True, "modulus 9 is not an odd prime"),
    ([25, 7, 5, 9], True, "bad reduction prime: 5 divides the level 25"),
    ([7, 10**12 + 40], False, "modulus 1000000000040 is not an odd prime"),
    ([7, 10**12 + 39, 10**12 + 61, 10**12 + 93], False, "modulus 1000000000093 is not an odd prime"),
    ([7, 11.0, 13], False, "is_prime needs an int, not float"),
], ids=["composite", "two", "first-of-two", "refused-first", "sparse", "sparse-last",
        "not-an-int"])
def test_a_library_ell_list_is_proved_and_its_first_error_wins(monkeypatch, schoen_form, ells,
                                                              sieved, error):
    # certify_form takes any list: a dense one is proved by one sieve, a sparse
    # one ell by ell, and the smallest ell that is not an odd prime or that
    # the rule refuses raises what certify_form raises on that ell alone
    sieves = []
    monkeypatch.setattr(certify, "primes_in_range", lambda lo, hi: sieves.append((lo, hi))
                        or primes_in_range(lo, hi))
    with pytest.raises((ValueError, TypeError)) as exc:
        certify_form(schoen_form, ells)
    assert str(exc.value) == error
    assert bool(sieves) == sieved
    assert _outcome(_runs_one_by_one, schoen_form, ells, None, None) == (
        "error", type(exc.value), error)


@pytest.mark.parametrize("form_id,n_runs,n_certs", [("schoen_s4_25", 427, 856),
                                                    ("s2_512_sqrt2", 420, 848)])
def test_every_certificate_a_certify_report_writes_passes_check(form_id, n_runs, n_certs):
    # the certificates read back from the written JSON are certify_form's,
    # each once, and each re-verifies
    form = bundled_form(form_id)
    ells = admitted_ells(form, primes_in_range(7, 3000), "[7, 3000]")
    out = io.StringIO()
    certify_range(form, ells, None, None, "json", out)
    certs = written_certificates(out.getvalue())
    runs = certify_form(form, ells)
    assert (len(runs), len(certs)) == (n_runs, n_certs)
    records = sorted(json.dumps(c.to_dict(), sort_keys=True)
                     for run in runs for c in run.certificates())
    assert sorted(json.dumps(c.to_dict(), sort_keys=True) for c in certs) == records
    assert all(check(c) for c in certs)


@functools.cache
def census(p):
    """trace_set(p), computed once per module: every p <= 50 takes about 1 s."""
    return trace_set(p)


@settings(max_examples=400, deadline=None)
@given(certify_cases())
def test_the_producer_the_checker_and_the_census_agree(case):
    # every emitted certificate passes check(), and a NonElliptic trace
    # verdict at a p the census covers avoids every trace of a curve over F_p
    # mod ell and the level-raising values ±(p+1)
    form, ells, root, witness_prime = case
    for run in certify_form(form, ells, root, witness_prime):
        assert all(check(cert) for cert in run.certificates())
        for cert in run.trace_tests:
            p, ell = cert.witness["p"], cert.ell
            if cert.verdict == NON_ELLIPTIC and p <= ENUMERATION_BUDGET:
                elliptic = {t % ell for t in census(p)} | {(p + 1) % ell, -(p + 1) % ell}
                assert cert.witness["trace"] not in elliptic


def test_a_run_with_a_certificate_of_another_method_has_no_json(schoen_form):
    (run,) = certify_form(schoen_form, [11])
    family = reducibility_obstruction(schoen_form, 11)
    with pytest.raises(ValueError, match="no JSON template for a ReducibilityObstruction"):
        certify._run_json(dataclasses.replace(run, irreducible=family), "    ")
