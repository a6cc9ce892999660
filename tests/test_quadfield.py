"""The coefficient field Q(sqrt(d)) as `repmodel` sees it: QuadInt values,
the roots of d mod ell that name the embeddings into F_ell, and the
reduction under them."""

import pytest
from hypothesis import given, strategies as st

from nonelliptic.arith import primes_in_range
from nonelliptic.repmodel import (
    FormDataError,
    NewformData,
    NotSplitError,
    QuadInt,
    RamifiedError,
    _reductions,
    _sqrt_mod,
    refusal,
)


def roots(d, ell):
    """Both square roots of d mod ell, smaller first, as the rule gives them
    for a level-1 form over Q(sqrt(d)) of weight 40, where no ell > 2 has a
    vanishing determinant exponent."""
    return tuple(root for root, _ in _reductions(NewformData("t", 1, 40, d, {}), ell, None)[1])


def reduced(values, ell, root, d=2):
    """The images in F_ell of `values` under the embedding named by `root`,
    read off the one reduction _reductions gives of a level-1 form over
    Q(sqrt(d)) holding them as a_p at the primes 2, 3, 5, ... (skipping ell).
    Its weight, 40, is high enough that no value here breaks the Ramanujan
    bound."""
    primes = [p for p in primes_in_range(2, 100) if p != ell][:len(values)]
    form = NewformData("t", 1, 40, d, dict(zip(primes, values)))
    [(_, traces)] = _reductions(form, ell, root)[1]
    return [traces[p] for p in primes]


@pytest.mark.parametrize("root", range(7))
def test_embedding_choice_refuses_a_ramified_prime(root):
    # 0^2 = 7 (mod 7), yet 7 ramifies in Q(sqrt(7)): there is no embedding
    with pytest.raises(RamifiedError, match="7 divides d=7: ramified"):
        reduced([QuadInt(1, 1)], 7, root, d=7)


def test_embedding_choices_examples():
    assert roots(2, 7) == (3, 4)
    assert (3 * 3) % 7 == 2 and (4 * 4) % 7 == 2
    assert roots(2, 17) == (6, 11)
    with pytest.raises(NotSplitError, match="no rational embedding"):
        roots(2, 11)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10])
@pytest.mark.parametrize("ell", [7, 11, 13, 17, 19, 23])
def test_embedding_roots_sum_to_ell(d, ell):
    if d % ell == 0:
        return
    if refusal(NewformData("t", 1, 40, d, {}), ell) is not None:
        return
    r1, r2 = roots(d, ell)
    assert r1 + r2 == ell
    assert r1 < r2


def linear_search_roots(d, ell):
    """The square roots of d mod ell by exhaustive search, in increasing order."""
    return [r for r in range(ell) if (r * r - d) % ell == 0]


@pytest.mark.parametrize("d", [-7, -2, -1, 2, 3, 5, 6])
def test_sqrt_mod_equals_linear_search_below_3000(d):
    for ell in primes_in_range(3, 2999):
        search = linear_search_roots(d, ell)
        if len(search) != 2:
            continue  # ell ramified or inert for d
        r = _sqrt_mod(d, ell)
        assert sorted((r, ell - r)) == search, (d, ell)
        if d > 1:
            assert list(roots(d, ell)) == search, (d, ell)


def test_embedding_choices_rejects_non_real_d():
    # only real quadratic fields are supported: the form owning d refuses the
    # rest, so no such d reaches the root search
    for d in (-7, -2, -1):
        with pytest.raises(FormDataError, match="must be > 1"):
            NewformData("t", 1, 40, d, {})


def test_embedding_choices_at_a_large_split_prime():
    ell = 2**61 - 1  # 2**62 = 2 (mod ell), so 2**31 is a root of 2
    assert roots(2, ell) == (2**31, ell - 2**31)


def test_embedding_choice_validation():
    with pytest.raises(ValueError, match="--root 5 is not a square root of 2 mod 7"):
        reduced([QuadInt(1, 1)], 7, 5)  # 25 != 2 mod 7
    with pytest.raises(ValueError, match="--root 10 is not a square root of 2 mod 7"):
        reduced([QuadInt(1, 1)], 7, 10)  # out of range


def test_reduce_examples():
    # 18 = 4 (mod 7); a rational value reduces alike under any embedding
    assert reduced([QuadInt(0, 6), QuadInt(-4), QuadInt(0)], 7, 3) == [4, 3, 0]


def test_reduce_rejects_mismatched_field():
    # a value is read in its form's field: 1 + sqrt(3) under the root 5 of 3
    # mod 11 (25 = 3) is 6, but a form over Q(sqrt(2)) refuses that root, as
    # 11 is inert in Q(sqrt(2))
    assert reduced([QuadInt(1, 1)], 11, 5, d=3) == [6]
    with pytest.raises(ValueError, match="sqrt"):
        reduced([QuadInt(1, 1)], 11, 5, d=2)


quadints = st.builds(
    QuadInt,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@given(u=quadints, v=quadints)
def test_reduce_is_a_ring_homomorphism(u, v):
    # (x + y*sqrt2) + (x' + y'*sqrt2) and (x + y*sqrt2)(x' + y'*sqrt2), by components
    total = QuadInt(u.x + v.x, u.y + v.y)
    product = QuadInt(u.x * v.x + 2 * u.y * v.y, u.x * v.y + u.y * v.x)
    negated = QuadInt(-u.x, -u.y)
    for ell in (7, 17):
        for root in roots(2, ell):
            ru, rv, rtotal, rproduct, rnegated = reduced([u, v, total, product, negated],
                                                         ell, root)
            assert rtotal == (ru + rv) % ell
            assert rproduct == (ru * rv) % ell
            assert rnegated == (-ru) % ell


def test_quadint_invariants():
    # a value has no field of its own: the form holding it forces y = 0 over Q
    with pytest.raises(FormDataError, match="rational field with y != 0") as info:
        NewformData("t", 1, 40, None, {2: QuadInt(1, 2)})
    assert info.value.field == ("eigenvalues", 2)
    assert NewformData("t", 1, 40, 2, {2: QuadInt(1, 2)}).eigenvalues[2] == QuadInt(1, 2)
    # d itself is the NewformData's to check (tests/test_repmodel.py)


@pytest.mark.parametrize("a", [QuadInt(0, 6), QuadInt(0, -2), QuadInt(-4), QuadInt(7)])
def test_discriminant_residue_is_embedding_independent(a):
    # When a^2 is rational, both embeddings give the same discriminant mod ell.
    from nonelliptic.arith import legendre

    for ell, p, k in ((7, 29, 2), (17, 29, 2), (7, 13, 2)):
        delta = a.x * a.x + 2 * a.y * a.y - 4 * p ** (k - 1)  # a**2 in Q(sqrt(2))
        for root in roots(2, ell):
            [tr] = reduced([a], ell, root)
            assert (tr * tr - 4 * p ** (k - 1)) % ell == delta % ell
        assert legendre(delta, ell) in (-1, 0, 1)

