"""Certificate-producing toolkit for mod-ell Galois representations given by
newform eigenvalue data: proves irreducibility and non-ellipticity (the
representation is not the ell-torsion of any elliptic curve over Q) with
machine-checkable witnesses."""

from .arith import (
    Factorization,
    is_prime,
    legendre,
    primes_in_range,
    trial_factor,
)
from .certify import (
    Certificate,
    check,
    closed_form_scan,
    conductor_bound_test,
    certify_form,
    full_paper_verification,
    irreducibility_by_discriminant,
    non_elliptic_trace_test,
    reducibility_obstruction,
    serre_bound_predicate,
)
from .data_io import bundled_form, dump_form, load_form, parse_form, write_report
from .ecoracle import (
    CurveQ,
    falsify_curve,
    trace_of_frobenius,
    trace_set,
)
from .quadfield import (
    EmbeddingChoice,
    QuadInt,
    embedding_choices,
    reduce_mod,
    splits,
)
from .repmodel import (
    NewformData,
    ResidualRep,
    residual_rep,
    twist_to_det_chi,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CurveQ",
    "EmbeddingChoice",
    "Factorization",
    "NewformData",
    "QuadInt",
    "ResidualRep",
    "bundled_form",
    "certify_form",
    "check",
    "closed_form_scan",
    "conductor_bound_test",
    "dump_form",
    "embedding_choices",
    "falsify_curve",
    "full_paper_verification",
    "irreducibility_by_discriminant",
    "is_prime",
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
    "twist_to_det_chi",
    "write_report",
    "__version__",
]
