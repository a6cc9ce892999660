"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance (exactness, runtime budget) is pinned here.
"""

import random
import time

from conftest import hasse_interval, stored_at
from nonelliptic.arith import primes_in_range
from nonelliptic.certify import (
    conductor_bound_test,
    irreducibility_by_discriminant,
    non_elliptic_trace_test,
    reducibility_obstruction,
    serre_bound_predicate,
)
from nonelliptic.checker import INCONCLUSIVE, IRREDUCIBLE, NON_ELLIPTIC, check
from nonelliptic.data_io import canonical_json
from nonelliptic.ecoracle import (
    CurveQ,
    falsify_curve,
    trace_set,
    weierstrass_discriminant,
)
from nonelliptic.paper import closed_form_scan, full_paper_verification
from nonelliptic.repmodel import residual_rep, residual_reps, twist_to_det_chi


def test_criterion_1_irreducibility_reproduction(schoen_form):
    start = time.perf_counter()

    cert = reducibility_obstruction(schoen_form, 11)
    exceptional = cert.witness["exceptional"]
    assert cert.witness["M"] == 1375
    assert cert.witness["factors"] == [[5, 3], [11, 1]]
    assert sorted(exceptional) == [5, 11]

    disc_cert = irreducibility_by_discriminant(residual_rep(schoen_form, 11), 2)
    assert disc_cert.verdict == IRREDUCIBLE
    assert disc_cert.witness["delta"] == 2
    assert disc_cert.witness["legendre"] == -1

    for ell in primes_in_range(6, 10**4):
        if ell not in exceptional:
            certified = cert.verdict == IRREDUCIBLE  # family certificate covers ell
        else:
            certified = (
                irreducibility_by_discriminant(residual_rep(schoen_form, ell), 2).verdict
                == IRREDUCIBLE
            )
        assert certified, f"irreducibility not certified at ell={ell}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 PASS: M=1375=5^3*11, exceptional {{5,11}}, "
          f"discriminant at (11,2) delta=2; all ell in (5,10^4] certified "
          f"in {elapsed:.3f}s")


def test_criterion_2_non_ellipticity_reproduction(schoen_form):
    start = time.perf_counter()
    for ell in primes_in_range(6, 10**4 - 1):
        if ell == 7:
            continue
        tw = twist_to_det_chi(residual_rep(schoen_form, ell))
        cert = non_elliptic_trace_test(tw, 2)
        assert cert.verdict == NON_ELLIPTIC, f"ell={ell}: {cert.verdict}"

    cert7 = non_elliptic_trace_test(twist_to_det_chi(residual_rep(schoen_form, 7)), 2)
    assert cert7.verdict == INCONCLUSIVE
    assert cert7.witness["excluded"] == list(range(7))  # all of F_7

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 2 PASS: NonElliptic at p=2 for every prime 7 < ell < 10^4, "
          f"Inconclusive at ell=7 (excluded = F_7), in {elapsed:.3f}s")


def test_criterion_3_closed_form_equivalence():
    for ell in primes_in_range(6, 10**4 - 1):
        assert pow(2, ell - 3, ell) == pow(4, -1, ell)
        member = pow(2, ell - 3, ell) in {1 % ell, 4 % ell, 9 % ell}
        assert member == (ell == 7), f"membership at ell={ell}"
    report = closed_form_scan(7, 10**4 - 1)
    assert report.holds == (7,)
    assert report.fermat_ok
    print("ACCEPTANCE 3 PASS: 2^(ell-3) = 4^(-1) mod ell for every prime "
          "5 < ell < 10^4; membership in {1,4,9} holds iff ell = 7")


def test_criterion_4_weight2_reproduction(sqrt2_form):
    reps = residual_reps(sqrt2_form, 7)  # 7 splits: the rule admits it
    assert tuple(rep.root for rep in reps) == (3, 4)

    for rep in reps:
        cert = irreducibility_by_discriminant(rep, 29)
        assert cert.verdict == IRREDUCIBLE
        assert cert.witness["delta"] == 5
        assert cert.witness["legendre"] == -1

    for n in (512, 2560):
        cert = conductor_bound_test(n)
        assert cert.verdict == NON_ELLIPTIC
        assert cert.witness["violation"] == {"p": 2, "exponent": 9, "bound": 8}

    print("ACCEPTANCE 4 PASS: 7 splits with roots {3,4}; Delta_29 = 5 "
          "(non-residue) under both embeddings; conductor test fires (2,9,8) "
          "on 512 and 2560")


def test_criterion_5_oracle_cross_validation():
    start = time.perf_counter()
    assert trace_set(2) == {-2, -1, 0, 1, 2} == hasse_interval(2)
    for p in (2, 3, 5, 7, 11, 13):
        assert trace_set(p) == hasse_interval(p), f"p={p}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 5 PASS: trace_set(p) equals the full Hasse interval for "
          f"p in {{2,3,5,7,11,13}} by exhaustive enumeration, in {elapsed:.3f}s")


def test_criterion_6_falsification_consistency(schoen_form):
    tw = twist_to_det_chi(residual_rep(stored_at(schoen_form, (2,)), 11))
    rng = random.Random(20260810)
    sampled = 0
    while sampled < 50:
        coeffs = [rng.randint(-5, 5) for _ in range(5)]
        disc = weierstrass_discriminant(*coeffs)
        if disc == 0 or disc % 2 == 0:  # need nonsingular + good reduction at 2
            continue
        sampled += 1
        result = falsify_curve(CurveQ(*coeffs), tw)
        assert result.found, f"no witness for {coeffs}"
        assert result.witness.p == 2
    print("ACCEPTANCE 6 PASS: 50/50 sampled curves with good reduction at 2 "
          "falsified against the ell=11 twisted representation at p=2")


def test_criterion_7_serre_predicates():
    assert serre_bound_predicate(7, 3) == "applies"
    for p in primes_in_range(4, 100):
        assert serre_bound_predicate(7, p) == "applies", f"p={p}"
    assert serre_bound_predicate(7, 2) == "does_not_apply"
    print("ACCEPTANCE 7 PASS: (7,3) applies, (7,p) applies for all primes "
          "3 < p <= 100, (7,2) does_not_apply")


def test_criterion_8_certificate_closure_and_determinism():
    report1 = full_paper_verification(ell_max=600)
    assert report1.certificates, "no certificates emitted"
    failures = [c for c in report1.certificates if not check(c)]
    assert not failures, f"{len(failures)} certificates failed re-verification"

    report2 = full_paper_verification(ell_max=600)
    assert canonical_json(report1) == canonical_json(report2)
    assert report1.to_text() == report2.to_text()
    print(f"ACCEPTANCE 8 PASS: {len(report1.certificates)}/"
          f"{len(report1.certificates)} certificates re-verify; report bytes "
          f"identical across runs")
