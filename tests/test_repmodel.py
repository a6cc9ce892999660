import pytest

from nonelliptic.arith import trial_factor
from nonelliptic.quadfield import NotSplitError, QuadInt, embedding_choices
from nonelliptic.repmodel import (
    BadReductionError,
    FormDataError,
    InsufficientDataError,
    NewformData,
    RamanujanBoundWarning,
    residual_rep,
    twist_to_det_chi,
)


def test_residual_rep_of_weight4_form_at_11(schoen_form):
    rep = residual_rep(schoen_form, 11)
    assert rep.traces == {2: 1, 3: 7, 7: 6}  # a_11 dropped: p = ell
    assert rep.det_exponent == 3
    assert rep.source.level == 25
    assert rep.source.claimed_conductor_equality is False
    assert rep.embedding is None


def test_residual_rep_of_weight2_form_at_7(sqrt2_form):
    rep = residual_rep(sqrt2_form, 7)  # defaults to the smaller root, 3
    assert rep.embedding.root == 3
    assert rep.traces[29] == 4  # 6*3 = 18 = 4 (mod 7)
    assert rep.det_exponent == 1
    assert 7 not in rep.traces  # a_7 dropped: p = ell
    assert rep.source.claimed_conductor_equality is True

    other = residual_rep(sqrt2_form, 7, embedding_choices(2, 7)[1])
    assert other.traces[29] == (6 * 4) % 7 == 3


def test_residual_rep_bad_reduction_prime(schoen_form):
    with pytest.raises(BadReductionError, match="bad reduction"):
        residual_rep(schoen_form, 5)
    level49 = NewformData("t", 49, 2, None, {2: QuadInt(1)})
    with pytest.raises(BadReductionError):
        residual_rep(level49, 7)
    # ell = 2 fails earlier: it is not an odd prime at all
    with pytest.raises(ValueError, match="odd prime"):
        residual_rep(level49, 2)


def test_residual_rep_inert_prime_rejected(sqrt2_form):
    with pytest.raises(NotSplitError):
        residual_rep(sqrt2_form, 11)  # 2 is a non-square mod 11


def test_rational_trace_values_do_not_depend_on_embedding(sqrt2_form):
    # at ell = 17 (split: 6^2 = 2) the rational a_7 = -4 survives in the
    # trace map and must reduce identically under both roots
    e1, e2 = embedding_choices(2, 17)
    r1 = residual_rep(sqrt2_form, 17, e1)
    r2 = residual_rep(sqrt2_form, 17, e2)
    assert r1.traces[7] == r2.traces[7] == (-4) % 17
    assert r1.traces[29] != r2.traces[29]  # the surd values do depend on it

    form = NewformData("t", 25, 4, None, {2: QuadInt(1), 3: QuadInt(7)})
    assert residual_rep(form, 13).traces == {2: 1, 3: 7}


@pytest.mark.parametrize("ell,k", [(7, 4), (11, 4), (13, 4), (7, 2), (11, 2), (97, 4)])
def test_det_exponent_is_weight_rule(ell, k, schoen_form, sqrt2_form):
    form = schoen_form if k == 4 else sqrt2_form
    if form.d is not None:
        try:
            rep = residual_rep(form, ell)
        except NotSplitError:
            return
    else:
        rep = residual_rep(form, ell)
    assert rep.det_exponent == (k - 1) % (ell - 1)


def test_twist_examples(schoen_form, sqrt2_form):
    rep11 = residual_rep(schoen_form, 11)
    tw11 = twist_to_det_chi(rep11)
    assert tw11.twist_exponent == 4 == (11 - 3) // 2
    assert tw11.traces[2] == 5  # 1 * 2^4 = 16 = 5 (mod 11)
    assert tw11.det_exponent == 1

    rep7 = residual_rep(sqrt2_form, 7)
    tw7 = twist_to_det_chi(rep7)
    assert tw7.twist_exponent == 0
    assert tw7.traces == rep7.traces  # determinant already chi

    rep13 = residual_rep(schoen_form, 13)
    tw13 = twist_to_det_chi(rep13)
    assert tw13.twist_exponent == 5
    assert tw13.traces[2] == 6  # 2^5 = 32 = 6 (mod 13)


@pytest.mark.parametrize("ell", [7, 11, 13, 17, 19, 23, 97])
def test_twist_normalizes_determinant(ell, schoen_form):
    rep = residual_rep(schoen_form, ell)
    m = rep.det_exponent
    tw = twist_to_det_chi(rep)
    assert tw.det_exponent == 1
    assert (m + 2 * tw.twist_exponent) % (ell - 1) == 1


def test_twist_of_even_exponent_rejected(sqrt2_form):
    rep = residual_rep(sqrt2_form, 7)
    from dataclasses import replace

    # every odd exponent mod 6 twists to determinant chi: t = (1-m)/2 mod 3
    for m, t in [(1, 0), (3, 2), (5, 1)]:
        tw = twist_to_det_chi(replace(rep, det_exponent=m))
        assert (tw.det_exponent, tw.twist_exponent) == (1, t)
        assert tw.traces == {p: tr * pow(p, t, 7) % 7 for p, tr in rep.traces.items()}
    # weight 3 would give even det exponent; simulate via a direct replace
    bad = replace(rep, det_exponent=2)
    with pytest.raises(ValueError, match="no determinant-chi twist"):
        twist_to_det_chi(bad)


def test_trace_at_missing_prime_is_insufficient_data(schoen_form):
    rep = residual_rep(schoen_form, 11)
    with pytest.raises(InsufficientDataError, match="insufficient data") as exc:
        rep.trace_at(13)
    # a ValueError: its str() is the message itself, with no KeyError quotes
    assert str(exc.value) == "insufficient data: no eigenvalue stored at p=13"


def test_newform_validation():
    # the form checks its own field d before anything else
    for d, message in [(8, "d=8 is not square-free"), (-3, "d=-3 must be > 1")]:
        with pytest.raises(FormDataError, match=message) as exc:
            NewformData("t", 25, 4, d, {2: QuadInt(1)})
        assert exc.value.field == ("field", "d")
    with pytest.raises(FormDataError, match="Miller-Rabin") as exc:
        NewformData("t", 25, 4, None, {3317044064679887385962123: QuadInt(1)})
    assert exc.value.field == ("eigenvalues", 3317044064679887385962123)
    with pytest.raises(ValueError, match="not prime"):
        NewformData("t", 25, 4, None, {4: QuadInt(1)})
    with pytest.raises(ValueError, match="dividing the level"):
        NewformData("t", 25, 4, None, {5: QuadInt(1)})
    with pytest.raises(ValueError, match="weight"):
        NewformData("t", 25, 1, None, {})


def test_ramanujan_violation_warns_but_loads():
    with pytest.warns(RamanujanBoundWarning):
        form = NewformData("t", 25, 2, None, {3: QuadInt(100)})
    assert form.eigenvalues[3].x == 100


def test_bad_primes(schoen_form, sqrt2_form):
    assert trial_factor(schoen_form.level).factors == ((5, 2),)
    assert trial_factor(sqrt2_form.level).factors == ((2, 9),)
