"""`checker.covers`: the claim a certificate proves at each prime ell, as
code, against known answers and against the per-ell runs."""

import warnings

import pytest

from nonelliptic import covers
from nonelliptic.arith import primes_in_range
from nonelliptic.certify import (certify_form, conductor_bound_test, family_trace_obstruction,
                                 reducibility_obstruction)
from nonelliptic.checker import INCONCLUSIVE, IRREDUCIBLE, NON_ELLIPTIC, check
from nonelliptic.data_io import bundled_form
from nonelliptic.paper import full_paper_verification
from nonelliptic.repmodel import NewformData, QuadInt, RamanujanBoundWarning, refusal

# Ramanujan's tau(p) (Swinnerton-Dyer, LNM 350, 1973): Delta is the level-1,
# weight-12 eigenform
TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}
DELTA = NewformData("delta", 1, 12, None, {p: QuadInt(t) for p, t in TAU.items()})
ELLS = primes_in_range(7, 10**4)


def test_covers_keeps_to_what_is_known_of_delta():
    # rho-bar of Delta is reducible mod 7 and 691, and mod 11 it is 11a's
    reducibility = reducibility_obstruction(DELTA, 2)
    family = family_trace_obstruction(DELTA, 2)
    assert reducibility.witness["exceptional"] == [2, 3, 7, 691]
    assert family.witness["exceptional"] == [2, 3, 5, 7, 11]
    certs = [c for p in TAU for c in (reducibility_obstruction(DELTA, p),
                                      family_trace_obstruction(DELTA, p))]
    runs = certify_form(DELTA, [7, 11, 13, 691])
    certs += [c for run in runs for c in run.certificates()]
    assert all(map(check, certs))
    for cert in certs:
        assert covers(cert, 7) != IRREDUCIBLE and covers(cert, 691) != IRREDUCIBLE, cert
        assert covers(cert, 11) != NON_ELLIPTIC, cert
    assert (covers(reducibility, 13), covers(family, 13)) == (IRREDUCIBLE, NON_ELLIPTIC)
    assert [(run.ell, run.proved_irreducible, run.proved_non_elliptic) for run in runs] == [
        (7, False, False), (11, True, False), (13, True, True), (691, False, True)]


def _run_at(form_id, ell, p):
    return certify_form(bundled_form(form_id), [ell], witness_prime=p)[0]


@pytest.mark.parametrize("make, claims", [
    # D_4 = 0 at p = 7: Inconclusive, and so no claim anywhere
    (lambda: family_trace_obstruction(bundled_form("s2_512_sqrt2"), 7), {}),
    # a per-ell certificate holds at its own ell, not at the next prime
    (lambda: _run_at("schoen_s4_25", 11, 2).irreducible, {11: IRREDUCIBLE}),
    (lambda: _run_at("schoen_s4_25", 11, 2).trace_tests[0], {11: NON_ELLIPTIC}),
    # E = [2, 3, 7]: 17 splits in Q(sqrt(2)), 11 and 13 are inert
    (lambda: family_trace_obstruction(bundled_form("s2_512_sqrt2"), 3),
     {17: NON_ELLIPTIC, 23: NON_ELLIPTIC}),
    # 2^9 > 2^8, but for no named ell
    (lambda: conductor_bound_test(512), {}),
    # E = [5, 11]; 2 and 3 are no primes > 5
    (lambda: reducibility_obstruction(bundled_form("schoen_s4_25"), 11),
     {7: IRREDUCIBLE, 13: IRREDUCIBLE, 17: IRREDUCIBLE, 19: IRREDUCIBLE, 23: IRREDUCIBLE}),
], ids=["inconclusive-family", "discriminant", "trace", "split-only", "conductor-no-ell",
        "obstruction"])
def test_covers_at_the_edges(make, claims):
    cert = make()
    assert check(cert)
    # every prime below 25, and the composites 1, 4, 9, 21 and 91
    for ell in [*primes_in_range(2, 24), 1, 4, 9, 21, 91]:
        assert covers(cert, ell) == claims.get(ell), ell


def test_the_paper_obstruction_covers_all_but_its_exceptional_set():
    form = bundled_form("schoen_s4_25")
    cert = reducibility_obstruction(form, 11)
    assert [ell for ell in ELLS if covers(cert, ell) != IRREDUCIBLE] == [11]
    assert all(covers(cert, ell) in (IRREDUCIBLE, None) for ell in ELLS)
    [run] = certify_form(form, [11], witness_prime=2)
    assert covers(run.irreducible, 11) == IRREDUCIBLE


@pytest.mark.parametrize("form_id, p", [
    ("schoen_s4_25", 2), ("schoen_s4_25", 3), ("schoen_s4_25", 7), ("schoen_s4_25", 11),
    ("s2_512_sqrt2", 3), ("s2_512_sqrt2", 5), ("s2_512_sqrt2", 11), ("s2_512_sqrt2", 13),
    ("s2_512_sqrt2", 29),
])
def test_family_trace_covers_where_the_per_ell_runs_prove(form_id, p):
    # at an admitted ell with p = 0, 1 (mod ell) set aside, the certificate
    # covers ell iff every reduction's trace test at p is NonElliptic
    form = bundled_form(form_id)
    cert = family_trace_obstruction(form, p)
    assert cert.verdict == NON_ELLIPTIC and check(cert)
    admitted = [ell for ell in ELLS if refusal(form, ell) is None]
    assert all(covers(cert, ell) is None for ell in ELLS if ell not in admitted or p % ell < 2)
    proved: dict[int, set[str]] = {}
    ells = [ell for ell in admitted if p % ell > 1]
    for run in certify_form(form, ells, witness_prime=p):
        proved.setdefault(run.ell, set()).add(run.trace_tests[0].verdict)
    assert sorted(proved) == ells
    for ell in ells:
        assert (covers(cert, ell) == NON_ELLIPTIC) == (proved[ell] == {NON_ELLIPTIC}), ell


def test_verify_paper_routes_no_ell_to_an_inconclusive_family_certificate():
    # a_11 = 1 + 11^3 gives M = 0: the obstruction covers nothing, so every
    # ell rests on its run's discriminant test, which fails at 7 and 19
    form = bundled_form("schoen_s4_25")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        form = NewformData(form.form_id, 25, 4, None, form.eigenvalues | {11: QuadInt(1332)})
    report = full_paper_verification(30, forms={"weight4_level25": form,
                                                "weight2_level512": bundled_form("s2_512_sqrt2")})
    section = report.sections["weight4_level25"]
    assert section["family_obstruction"].verdict == INCONCLUSIVE
    assert [(e["ell"], e["irreducible_route"], e["irreducible"]) for e in section["per_ell"]] == [
        (7, "discriminant", False), (11, "discriminant", True), (13, "discriminant", True),
        (17, "discriminant", True), (19, "discriminant", False), (23, "discriminant", True),
        (29, "discriminant", True)]
    assert "ell=7: irreducibility not certified" in report.mismatches
