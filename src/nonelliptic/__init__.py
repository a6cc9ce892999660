"""Certificate-producing toolkit for mod-ell Galois representations given by
newform eigenvalue data: proves irreducibility and non-ellipticity (the
representation is not the ell-torsion of any elliptic curve over Q) with
machine-checkable witnesses.

The public names are loaded on first access (PEP 562): `import nonelliptic`
loads no submodule, so each CLI command compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Factorization": "arith",
    "is_prime": "arith",
    "legendre": "arith",
    "primes_in_range": "arith",
    "trial_factor": "arith",
    "conductor_bound_test": "certify",
    "certify_form": "certify",
    "certify_range": "certify",
    "family_trace_obstruction": "certify",
    "reducibility_obstruction": "certify",
    "serre_bound_predicate": "certify",
    "Certificate": "checker",
    "check": "checker",
    "covers": "checker",
    "bundled_form": "data_io",
    "dump_form": "data_io",
    "load_form": "data_io",
    "parse_form": "data_io",
    "write_report": "data_io",
    "CurveQ": "ecoracle",
    "falsify_curve": "ecoracle",
    "trace_of_frobenius": "ecoracle",
    "trace_set": "ecoracle",
    "closed_form_scan": "paper",
    "full_paper_verification": "paper",
    "NewformData": "repmodel",
    "QuadInt": "repmodel",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__all__ = [*_EXPORTS, "__version__"]
