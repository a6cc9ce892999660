import math

import pytest

from nonelliptic import bundled_form, is_prime


def hasse_interval(p: int) -> set[int]:
    """All integers t with t**2 <= 4p, i.e. [-floor(2*sqrt(p)), +floor(2*sqrt(p))].

    These are the Frobenius traces allowed for an elliptic curve over F_p: the
    reference trace_set is tested against.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound = math.isqrt(4 * p)
    return set(range(-bound, bound + 1))


@pytest.fixture(scope="session")
def schoen_form():
    return bundled_form("schoen_s4_25")


@pytest.fixture(scope="session")
def sqrt2_form():
    return bundled_form("s2_512_sqrt2")
