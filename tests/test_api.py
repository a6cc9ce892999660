"""The public surface of the package, pinned: a name added to or dropped from
`nonelliptic.__all__` must change this list too."""

import importlib
import json

import pytest

import nonelliptic
from nonelliptic.data_io import canonical_json

PUBLIC_API = [
    "Certificate",
    "CurveQ",
    "Factorization",
    "NewformData",
    "QuadInt",
    "__version__",
    "bundled_form",
    "certify_form",
    "certify_range",
    "check",
    "closed_form_scan",
    "conductor_bound_test",
    "covers",
    "dump_form",
    "falsify_curve",
    "family_trace_obstruction",
    "full_paper_verification",
    "is_prime",
    "legendre",
    "load_form",
    "parse_form",
    "primes_in_range",
    "reducibility_obstruction",
    "serre_bound_predicate",
    "trace_of_frobenius",
    "trace_set",
    "trial_factor",
    "write_report",
]

# Names the package no longer has: helpers that only tests used; dump_report,
# which returned the whole report as one string (write_report); and
# EmbeddingChoice and reduce_mod, since an embedding is named by its root
# (certify_form(form, ells, root) reduces under it); splits and
# QuadInt.square_if_rational, since a value has no field of its own (the form
# owns d, and repmodel.refusal decides whether ell splits); embeddings, since
# repmodel._reductions gives the reductions under them with one ask of the
# rule; and CertifyReport, since certify_form returns its runs and
# certify_range is the one writer of their report. ResidualRep went with the
# functions that built, twisted or took one (its constructors residual_reps
# and residual_rep, twist_to_det_chi, certify_at_ell and the one-certificate
# wrappers irreducibility_by_discriminant and non_elliptic_trace_test): a
# per-ell run is certify_form(form, [ell], root, witness_prime), and
# falsify_curve takes the form too.
# norm_discriminant, EmbeddingChoice, reduce_mod and splits were in quadfield,
# which is gone: they are looked for in repmodel, which took in its rest.
REMOVED = [
    ("nonelliptic.repmodel", "norm_discriminant"),
    ("nonelliptic.repmodel", "TwistSpec"),
    ("nonelliptic.repmodel", "available_witness_primes"),
    ("nonelliptic.certify", "_w4_ell_entry"),
    ("nonelliptic.arith", "Residue"),
    ("nonelliptic.arith", "mod_pow"),
    ("nonelliptic.arith", "mod_inv"),
    ("nonelliptic.certify", "_euler_legendre"),
    ("nonelliptic.arith", "isqrt"),
    ("nonelliptic.arith", "hasse_interval"),
    ("nonelliptic.repmodel", "twist"),
    ("nonelliptic.repmodel", "det_chi_twist_exponent"),
    ("nonelliptic.ecoracle", "CurveFp"),
    ("nonelliptic.ecoracle", "count_points"),
    ("nonelliptic.data_io", "dump_report"),
    ("nonelliptic.repmodel", "EmbeddingChoice"),
    ("nonelliptic.repmodel", "reduce_mod"),
    ("nonelliptic.repmodel", "splits"),
    ("nonelliptic.repmodel", "embeddings"),
    ("nonelliptic.certify", "CertifyReport"),
    ("nonelliptic.repmodel", "ResidualRep"),
    ("nonelliptic.repmodel", "residual_reps"),
    ("nonelliptic.repmodel", "residual_rep"),
    ("nonelliptic.repmodel", "twist_to_det_chi"),
    ("nonelliptic.certify", "certify_at_ell"),
    ("nonelliptic.certify", "irreducibility_by_discriminant"),
    ("nonelliptic.certify", "non_elliptic_trace_test"),
    ("nonelliptic.repmodel", "_det_chi_twist"),
]

REMOVED_MEMBERS = [
    ("QuadInt", "__add__"),
    ("QuadInt", "__sub__"),
    ("QuadInt", "__mul__"),
    ("QuadInt", "__neg__"),
    ("QuadInt", "_joint_d"),
    ("NewformData", "good_primes"),
    ("NewformData", "bad_primes"),
    ("Factorization", "exponent_of"),
    ("CurveQ", "reduce"),
    ("NewformData", "level_factorization"),
    ("Factorization", "primes"),
    ("QuadInt", "square_if_rational"),
]


def test_public_api_is_pinned():
    assert sorted(nonelliptic.__all__) == PUBLIC_API


def test_quadfield_is_gone():
    # QuadInt, the refusal errors and the root search live in repmodel
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("nonelliptic.quadfield")
    assert nonelliptic.QuadInt.__module__ == "nonelliptic.repmodel"
    assert len(nonelliptic.__all__) == 28


def test_parallel_is_gone():
    # the batch path and its forked workers live in certify, next to certify_range
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("nonelliptic.parallel")
    # a certify range writes its own report: no runs rendered ahead of it
    assert not hasattr(importlib.import_module("nonelliptic.certify"), "RenderedRuns")
    assert not hasattr(importlib.import_module("nonelliptic.data_io"), "Rendered")


def test_embedding_choices_is_internal():
    # certify_form(form, ells, root) is the public way to an embedding's roots
    assert "embedding_choices" not in nonelliptic.__all__
    assert not hasattr(nonelliptic, "embedding_choices")


@pytest.mark.parametrize("name", PUBLIC_API)
def test_public_name_resolves(name):
    assert getattr(nonelliptic, name) is not None


@pytest.mark.parametrize("module,name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_helper_does_not_import(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(nonelliptic, name)


@pytest.mark.parametrize("cls,member", REMOVED_MEMBERS,
                         ids=[f"{c}.{m}" for c, m in REMOVED_MEMBERS])
def test_removed_member_is_gone(cls, member):
    assert not hasattr(getattr(nonelliptic, cls), member)


# hasattr cannot see these: object.__str__ always exists.
@pytest.mark.parametrize("cls", ["Factorization", "QuadInt"])
def test_str_override_is_gone(cls):
    assert "__str__" not in vars(getattr(nonelliptic, cls))


def test_dir_lists_every_public_name():
    # the lazy exports are listed before any of them is loaded
    assert set(nonelliptic.__all__) <= set(dir(nonelliptic))


def test_verification_report_certificates_field_is_gone():
    # a report's certificates are in its sections and in the JSON it writes
    report = importlib.import_module("nonelliptic.paper").VerificationReport
    assert "certificates" not in report.__slots__


def test_quadint_holds_only_its_components():
    assert nonelliptic.QuadInt.__slots__ == ("x", "y")


def test_records_compare_hash_and_print_by_field():
    # slotted classes, not dataclasses: what a frozen dataclass gave is kept
    QuadInt, Factorization = nonelliptic.QuadInt, nonelliptic.Factorization
    assert QuadInt(1, 2) == QuadInt(1, 2) != QuadInt(1)
    assert QuadInt(3) != (3, 0) and QuadInt(3) != Factorization(3, ((3, 1),))
    assert len({QuadInt(1, 2), QuadInt(1, 2), Factorization(12, ((2, 2), (3, 1)))}) == 2
    assert repr(QuadInt(1, -2)) == "QuadInt(x=1, y=-2)"
    assert repr(Factorization(4, ((2, 2),))) == "Factorization(n=4, factors=((2, 2),))"
    curve = nonelliptic.CurveQ(0, -1, 1, -10, -20)
    assert curve == nonelliptic.CurveQ(0, -1, 1, -10, -20) and hash(curve) is not None
    with pytest.raises(AttributeError):
        curve.extra = 1  # no __dict__
    cert = nonelliptic.Certificate("Irreducible", "M", 7, {"p": 2})
    assert cert == nonelliptic.Certificate("Irreducible", "M", 7, {"p": 2}, {})
    with pytest.raises(TypeError):
        hash(cert)  # its witness is a dict, as it was


# One record of each kind that writes its fields as its JSON keys, made from
# the bundled forms: a certificate, a certify run and the verify-paper report.
REPORT_RECORDS = {
    "Certificate": lambda form: nonelliptic.reducibility_obstruction(form, 11),
    "EllCertification": lambda form: nonelliptic.certify_form(form, [11])[0],
    "VerificationReport": lambda form: nonelliptic.full_paper_verification(ell_max=50),
}


@pytest.mark.parametrize("make", REPORT_RECORDS.values(), ids=REPORT_RECORDS)
def test_a_report_record_writes_exactly_its_fields(schoen_form, make):
    # a record's dict is its slots: a field added to __slots__ is written too
    record = make(schoen_form)
    assert record.to_dict() == {name: getattr(record, name) for name in record.__slots__}
    assert sorted(json.loads(canonical_json(record))) == sorted(record.__slots__)
