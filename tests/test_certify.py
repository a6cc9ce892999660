import dataclasses
import functools
import json
import time
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from nonelliptic.arith import legendre, primes_in_range, trial_factor
from nonelliptic.certify import (
    EXCLUDED_SET_LIMIT,
    certify_form,
    conductor_bound_test,
    excluded_trace_set,
    irreducibility_by_discriminant,
    non_elliptic_trace_test,
    reducibility_obstruction,
    serre_bound_predicate,
)
from nonelliptic.checker import (
    INCONCLUSIVE,
    IRREDUCIBLE,
    METHOD_CONDUCTOR,
    METHOD_DISCRIMINANT,
    METHOD_OBSTRUCTION,
    METHOD_TRACE,
    NON_ELLIPTIC,
    Certificate,
    check,
)
from nonelliptic.data_io import bundled_form, canonical_json, load_expectations
from nonelliptic.paper import closed_form_scan, full_paper_verification
from nonelliptic.repmodel import (
    InsufficientDataError,
    NewformData,
    QuadInt,
    ResidualRep,
    residual_rep,
    residual_reps,
    twist_to_det_chi,
)


def squares_mod(ell):
    return {(x * x) % ell for x in range(1, ell)}


# --- irreducibility by discriminant -------------------------------------------

def test_discriminant_weight4_ell11_p2(schoen_form):
    cert = irreducibility_by_discriminant(residual_rep(schoen_form, 11), 2)
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["delta"] == 2  # -31 = 2 (mod 11)
    assert cert.witness["legendre"] == -1
    assert check(cert)


def test_discriminant_weight2_ell7_p29_both_roots(sqrt2_form):
    for rep in residual_reps(sqrt2_form, 7):
        cert = irreducibility_by_discriminant(rep, 29)
        assert cert.verdict == IRREDUCIBLE
        assert cert.witness["delta"] == 5  # -44 = 5 (mod 7)
        assert cert.witness["legendre"] == -1
        assert cert.inputs["embedding_root"] == rep.root
        assert check(cert)


def test_discriminant_weight4_ell13_p3(schoen_form):
    # Delta = 49 - 108 = -59 = 6 (mod 13), and 6 is not a square mod 13
    assert (-59) % 13 == 6
    assert 6 not in squares_mod(13)
    cert = irreducibility_by_discriminant(residual_rep(schoen_form, 13), 3)
    assert cert.verdict == IRREDUCIBLE
    assert cert.witness["delta"] == 6


def test_discriminant_inconclusive_when_square(schoen_form):
    # At ell=7 every stored witness gives delta = 4, a square
    rep = residual_rep(schoen_form, 7)
    for p in (2, 3, 11):
        cert = irreducibility_by_discriminant(rep, p)
        assert cert.verdict == INCONCLUSIVE
        assert cert.witness["delta"] == 4
        assert check(cert)


def test_discriminant_missing_prime(schoen_form):
    rep = residual_rep(schoen_form, 11)
    with pytest.raises(InsufficientDataError):
        irreducibility_by_discriminant(rep, 13)


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
    tw = twist_to_det_chi(residual_rep(schoen_form, 11))
    cert = non_elliptic_trace_test(tw, 2)
    assert cert.verdict == NON_ELLIPTIC
    assert cert.witness["trace"] == 5
    assert cert.witness["excluded"] == [0, 1, 2, 3, 8, 9, 10]
    assert cert.inputs["extended"] is False
    assert check(cert)


def test_trace_test_ell7_inconclusive(schoen_form):
    tw = twist_to_det_chi(residual_rep(schoen_form, 7))
    cert = non_elliptic_trace_test(tw, 2)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness["excluded"] == [0, 1, 2, 3, 4, 5, 6]  # all of F_7
    assert check(cert)


def test_trace_test_ell13(schoen_form):
    tw = twist_to_det_chi(residual_rep(schoen_form, 13))
    cert = non_elliptic_trace_test(tw, 2)
    assert cert.verdict == NON_ELLIPTIC
    assert cert.witness["trace"] == 6
    assert cert.witness["excluded"] == [0, 1, 2, 3, 10, 11, 12]


def test_trace_test_requires_det_chi(schoen_form):
    rep = residual_rep(schoen_form, 11)  # det exponent 3
    with pytest.raises(ValueError, match="determinant chi"):
        non_elliptic_trace_test(rep, 2)


def test_trace_test_p_congruent_1_rejected(sqrt2_form):
    tw = twist_to_det_chi(residual_rep(sqrt2_form, 7))
    with pytest.raises(ValueError, match="ramification dichotomy"):
        non_elliptic_trace_test(tw, 29)  # 29 = 1 (mod 7)


def test_trace_test_extended_flag(schoen_form):
    tw = twist_to_det_chi(residual_rep(schoen_form, 11))
    cert = non_elliptic_trace_test(tw, 3)
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


def test_scan_matches_trace_test(schoen_form):
    # Squaring the trace congruence: NonElliptic at p=2 iff 2^(ell-3) is
    # outside {1, 4, 9} mod ell. Check the equivalence across the range.
    holds = set(closed_form_scan(7, 1000).holds)
    for ell in primes_in_range(7, 1000):
        tw = twist_to_det_chi(residual_rep(schoen_form, ell))
        cert = non_elliptic_trace_test(tw, 2)
        if ell in holds:
            assert cert.verdict == INCONCLUSIVE
        else:
            assert cert.verdict == NON_ELLIPTIC


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


def test_certify_form_factors_the_level_once():
    trial_factor.cache_clear()
    # no eigenvalues: every ell falls through to the conductor bound
    form = NewformData(form_id="bare", level=2560, weight=2, d=None, eigenvalues={},
                       claimed_conductor_equality=True)
    report = certify_form(form, [7, 11, 13, 17, 19])
    assert [r.conductor.witness["conductor"] for r in report.runs] == [2560] * 5
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
    cert = irreducibility_by_discriminant(residual_rep(schoen_form, 11), 2)
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
    tw = twist_to_det_chi(residual_rep(schoen_form, 11))
    cert = non_elliptic_trace_test(tw, 2)
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
    unfactorable = json.loads(json.dumps(d))
    unfactorable["witness"]["level"] = 1000000007 * 1000000009
    # above 2**64 the producer cannot factor the level either
    too_large = json.loads(json.dumps(d))
    too_large["witness"]["level"] = 25 * (2**61 - 1)
    prime_cofactor = json.loads(json.dumps(d))
    prime_cofactor["witness"]["level"] = 4 * (2**61 - 1)  # 2^2 * a prime > 10^12
    start = time.perf_counter()
    assert not check(Certificate.from_dict(unfactorable))
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
    cert = irreducibility_by_discriminant(residual_rep(schoen_form, ell), 7)
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
    """Certificates of all four methods, with both verdicts, from the bundled
    forms (plus an M = 0 obstruction and a few conductors)."""
    schoen, sqrt2 = bundled_form("schoen_s4_25"), bundled_form("s2_512_sqrt2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degenerate = NewformData("t", 25, 4, None, {31: QuadInt(1 + 31**3)})
    certs = [reducibility_obstruction(f, p) for f, p in ((schoen, 11), (degenerate, 31))]
    certs += [c for r in certify_form(schoen, primes_in_range(7, 60)).runs
              for c in r.certificates()]
    certs += [c for r in certify_form(sqrt2, [7, 17, 23, 31, 41, 47]).runs
              for c in r.certificates()]
    certs += [conductor_bound_test(n) for n in (1, 275, 1375)]
    return tuple(certs)


def test_bundled_certificates_cover_every_method_and_verdict():
    kinds = {(c.method, c.verdict) for c in bundled_certificates()}
    assert kinds == {
        (METHOD_DISCRIMINANT, IRREDUCIBLE), (METHOD_DISCRIMINANT, INCONCLUSIVE),
        (METHOD_OBSTRUCTION, IRREDUCIBLE), (METHOD_OBSTRUCTION, INCONCLUSIVE),
        (METHOD_TRACE, NON_ELLIPTIC), (METHOD_TRACE, INCONCLUSIVE),
        (METHOD_CONDUCTOR, NON_ELLIPTIC), (METHOD_CONDUCTOR, INCONCLUSIVE),
    }
    assert all(check(_tampered(c)) for c in bundled_certificates())


# The fields a producer takes as input, ell and witness fields; every other
# witness field is derived.
INPUT_FIELDS = {"ell", "p", "trace", "det_exponent", "a_p", "weight", "level", "conductor"}
_PROBE = NewformData("probe", 1, 2, None, {})


def _produced(cert: Certificate) -> Certificate | None:
    """What the producing code emits from the certificate's input fields, or
    None where it refuses them."""
    w = cert.witness
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if cert.method == METHOD_DISCRIMINANT:
                rep = ResidualRep(cert.ell, w["det_exponent"], {w["p"]: w["trace"]}, _PROBE)
                return irreducibility_by_discriminant(rep, w["p"])
            if cert.method == METHOD_TRACE:
                rep = ResidualRep(cert.ell, 1, {w["p"]: w["trace"]}, _PROBE)
                return non_elliptic_trace_test(rep, w["p"])
            if cert.method == METHOD_OBSTRUCTION:
                eigenvalues = {w["p"]: QuadInt(w["a_p"])}
                form = NewformData("probe", w["level"], w["weight"], None, eigenvalues)
                return reducibility_obstruction(form, w["p"])
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
        [METHOD_DISCRIMINANT, METHOD_OBSTRUCTION, METHOD_TRACE, METHOD_CONDUCTOR]))
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
    disc = irreducibility_by_discriminant(residual_rep(schoen_form, 11), 2)
    assert check(_tampered(disc, trace=11 - disc.witness["trace"]))


def test_check_rejects_inputs_no_producer_emits(schoen_form):
    # Frobenius at a prime of bad reduction, or at ell itself, says nothing.
    cert = reducibility_obstruction(schoen_form, 11)
    assert not check(_tampered(cert, level=5 * 11))
    disc = irreducibility_by_discriminant(residual_rep(schoen_form, 13), 3)
    tr, m = disc.witness["trace"], disc.witness["det_exponent"]
    at_ell = _tampered(disc, p=13, delta=tr * tr % 13, legendre=1).witness
    assert not check(Certificate(INCONCLUSIVE, METHOD_DISCRIMINANT, 13, at_ell))
    # p^(m ± 12) = p^m (mod 13), but det_exponent lives in [1, ell - 2]
    for exponent in (m + 12, m - 12):
        assert not check(_tampered(disc, det_exponent=exponent))
    tw = twist_to_det_chi(residual_rep(schoen_form, 7))
    trace = non_elliptic_trace_test(tw, 2)
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
    trace = non_elliptic_trace_test(twist_to_det_chi(residual_rep(schoen_form, 11)), 2)
    assert not check(_tampered(trace, trace=float(trace.witness["trace"])))
    # derived fields: the rebuilt witness compares equal to 2.0 or True unless
    # the comparison is type-exact
    disc = irreducibility_by_discriminant(residual_rep(schoen_form, 11), 2)
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
    report = certify_form(form, [ell for ell in primes_in_range(7, 3000) if legendre(d, ell) == 1])
    assert len(report.runs) > 200
    assert trial_factor.cache_info().misses == 1
    assert trial_factor.cache_info().hits == 0  # no ell asks again


# --- full bundled verification --------------------------------------------------------

def test_full_verification_passes():
    report = full_paper_verification(ell_max=300)
    assert report.passed
    assert report.mismatches == ()
    assert all(check(c) for c in report.certificates)
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


def test_full_verification_reports_missing_tests_as_mismatches():
    # p = 29 = 1 (mod 7) leaves ell = 7 without a trace test, and the
    # weight-2 form stores no a_17 for the discriminant test
    expectations = load_expectations()
    expectations["weight4_level25"]["trace_test_witness_prime"] = 29
    expectations["weight2_level512"]["pinned_discriminant"]["witness_prime"] = 17
    schoen = bundled_form("schoen_s4_25")
    with29 = NewformData(schoen.form_id, 25, 4, None, schoen.eigenvalues | {29: QuadInt(0)})
    report = full_paper_verification(
        ell_max=20,
        forms={"weight4_level25": with29, "weight2_level512": bundled_form("s2_512_sqrt2")},
        expectations=expectations,
    )
    assert not report.passed
    assert "ell=7: no trace test at p=29" in report.mismatches
    assert "root_3: no discriminant certificate at p=17" in report.mismatches
    assert "root_4: no discriminant certificate at p=17" in report.mismatches
    assert "mismatches:" in report.to_text()
    assert json.loads(canonical_json(report))["passed"] is False


def test_certify_form_pipeline(schoen_form, sqrt2_form):
    report = certify_form(schoen_form, [11, 13])
    assert report.all_proved
    assert [r.ell for r in report.runs] == [11, 13]
    assert all(check(c) for r in report.runs for c in r.certificates())

    report = certify_form(schoen_form, [7])
    assert not report.all_proved

    report = certify_form(sqrt2_form, [7])  # both embeddings
    assert report.all_proved
    assert [r.embedding_root for r in report.runs] == [3, 4]
    # non-ellipticity comes through the conductor route at ell = 7
    assert all(r.conductor.verdict == NON_ELLIPTIC for r in report.runs)


def test_certify_form_with_empty_eigenvalue_map():
    # a valid but empty record: everything comes back unproved, not an error
    form = NewformData("empty", 25, 4, None, {})
    report = certify_form(form, [11])
    assert not report.all_proved
    run = report.runs[0]
    assert run.irreducible is None
    assert run.trace_tests == ()


def test_certify_form_with_pinned_witness(sqrt2_form):
    report = certify_form(sqrt2_form, [7], root=3, witness_prime=29)
    assert len(report.runs) == 1
    run = report.runs[0]
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
