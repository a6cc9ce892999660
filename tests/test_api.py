"""The public surface of the package, pinned: a name added to or dropped from
`nonelliptic.__all__` must change this list too."""

import importlib

import pytest

import nonelliptic

PUBLIC_API = [
    "Certificate",
    "CurveFp",
    "CurveQ",
    "EmbeddingChoice",
    "Factorization",
    "NewformData",
    "QuadInt",
    "ResidualRep",
    "__version__",
    "bundled_form",
    "certify_form",
    "check",
    "closed_form_scan",
    "conductor_bound_test",
    "count_points",
    "dump_form",
    "dump_report",
    "embedding_choices",
    "falsify_curve",
    "full_paper_verification",
    "hasse_interval",
    "irreducibility_by_discriminant",
    "is_prime",
    "isqrt",
    "legendre",
    "load_form",
    "non_elliptic_trace_test",
    "parse_form",
    "primes_in_range",
    "reduce_mod",
    "reducibility_obstruction",
    "residual_rep",
    "serre_bound_predicate",
    "splits",
    "trace_of_frobenius",
    "trace_set",
    "trial_factor",
    "twist",
    "twist_to_det_chi",
]

# Helpers that only tests used; the package no longer has them.
REMOVED = [
    ("nonelliptic.quadfield", "norm_discriminant"),
    ("nonelliptic.repmodel", "TwistSpec"),
    ("nonelliptic.repmodel", "available_witness_primes"),
    ("nonelliptic.certify", "_w4_ell_entry"),
    ("nonelliptic.arith", "Residue"),
    ("nonelliptic.arith", "mod_pow"),
    ("nonelliptic.arith", "mod_inv"),
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
]


def test_public_api_is_pinned():
    assert sorted(nonelliptic.__all__) == PUBLIC_API


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
