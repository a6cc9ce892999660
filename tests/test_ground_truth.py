"""Elliptic ground truth: the pipeline fed the eigenvalues of actual elliptic
curves over Q, where the truth is known.

For a curve E and a prime ell, the representation these eigenvalues give is
E[ell] (twisted by chi^j in weight 2j + 2), so no certify run may ever prove
it non-elliptic. Where E has a rational ell-torsion point, E[ell] is
reducible, so no run at that ell may prove it irreducible.

Curves: Tate normal form with a 7-torsion point (Kubert 1976), and seeded
random short Weierstrass curves. Eigenvalues: a_p = trace_of_frobenius at
every good p < 60. Form: level prod q^2 over the primes q of the model's
discriminant (a multiple of the conductor's prime-to-ell part, so the
conductor test stays off), in weights 2j + 2 with eigenvalues a_p * p^j for
j = 0, 1, 2. The ells are those the admissibility rule admits in [7, 2000].
About 11,700 certify runs in all, about 3 s on one CPU.
"""

import functools
import math
import random

import pytest

from nonelliptic.arith import primes_in_range, trial_factor
from nonelliptic.certify import certify_form, family_trace_obstruction, reducibility_obstruction
from nonelliptic.checker import INCONCLUSIVE, check
from nonelliptic.ecoracle import CurveQ, trace_of_frobenius
from nonelliptic.repmodel import NewformData, QuadInt, admitted_ells

ELLS = primes_in_range(7, 2000)
GOOD_BELOW = 60


def tate_normal_form(t: int) -> CurveQ:
    """y^2 + (1 - c)xy - by = x^3 - bx^2 with b = t^3 - t^2, c = t^2 - t: the
    point (0, 0) has order 7 (Kubert 1976)."""
    b, c = t**3 - t**2, t**2 - t
    return CurveQ(1 - c, -b, -b, 0, 0)


def random_short_weierstrass(count: int, seed: int) -> list[CurveQ]:
    """`count` nonsingular curves y^2 = x^3 + ax + b, |a|, |b| <= 30."""
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if 4 * a**3 + 27 * b**2:
            curves.append(CurveQ(0, 0, 0, a, b))
    return curves


TATE = {f"tate_t{t}": tate_normal_form(t) for t in range(2, 9)}
RANDOM = {f"random_{i}": curve for i, curve in enumerate(random_short_weierstrass(6, 2004))}
CURVES = {**TATE, **RANDOM}


def good_traces(curve: CurveQ) -> dict[int, int]:
    """a_p of `curve` at every prime p < GOOD_BELOW not dividing its discriminant."""
    return {p: trace_of_frobenius(curve, p)
            for p in primes_in_range(2, GOOD_BELOW - 1) if curve.disc % p}


def twisted_forms(name: str, curve: CurveQ) -> list[NewformData]:
    """The curve's eigenvalue system in weights 2, 4 and 6 (a_p * p^j), at
    level prod q^2 over the primes q of the discriminant."""
    level = math.prod(q * q for q, _ in trial_factor(abs(curve.disc)).factors)
    traces = good_traces(curve)
    return [NewformData(f"{name}_k{2 * j + 2}", level, 2 * j + 2, None,
                        {p: QuadInt(a * p**j) for p, a in traces.items()})
            for j in (0, 1, 2)]


@functools.cache
def runs(name: str) -> tuple:
    """Every certify run of the curve's three forms, over their admitted ells."""
    curve = CURVES[name]
    return tuple(run for form in twisted_forms(name, curve)
                 for run in certify_form(form, admitted_ells(form, ELLS, "[7, 2000]")))


@pytest.mark.parametrize("name", TATE)
def test_tate_normal_form_has_a_rational_7_torsion_point(name):
    # rational torsion prime to p injects into E(F_p) at a good p
    for p, a in good_traces(TATE[name]).items():
        if p != 7:
            assert (p + 1 - a) % 7 == 0, (name, p)


@pytest.mark.parametrize("name", CURVES)
def test_no_elliptic_curve_is_proved_non_elliptic(name):
    assert runs(name)  # every curve is admitted at some ell
    wrong = [(r.ell, r.twist_exponent, r.trace_tests[-1].witness)
             for r in runs(name) if r.proved_non_elliptic]
    assert wrong == [], f"{name}: {len(wrong)} runs proved non-elliptic, first {wrong[:3]}"


@pytest.mark.parametrize("name", CURVES)
def test_every_family_trace_certificate_of_a_curve_is_inconclusive(name):
    # a_p * p^j in weight 2j + 2 gives D_s = 0 at s = |a_p| <= 2 sqrt(p) (Hasse)
    for form in twisted_forms(name, CURVES[name]):
        for p in form.eigenvalues:
            cert = family_trace_obstruction(form, p)
            assert (cert.verdict, cert.witness["exceptional"]) == (INCONCLUSIVE, []), (form, p)
            assert check(cert)


@pytest.mark.parametrize("name", TATE)
def test_no_tate_form_is_proved_irreducible_at_7(name):
    wrong = [r.irreducible.witness for r in runs(name) if r.ell == 7 and r.proved_irreducible]
    assert wrong == [], f"{name}: irreducible at 7 with witness {wrong[0]}"


def test_reducibility_obstructions_of_tate_forms_leave_7_open():
    # M = #E(F_p) when j = 0, and 7 divides it; a witness p must be 1 modulo
    # the radical of the level, which only t = 2 meets below 60 (p = 53)
    certs = []
    for name, curve in TATE.items():
        form = twisted_forms(name, curve)[0]
        for p in form.eigenvalues:
            try:
                certs.append(reducibility_obstruction(form, p))
            except ValueError as exc:
                assert "witness prime invalid" in str(exc)
    assert [c.witness["p"] for c in certs] == [53]
    assert all(c.witness["M"] == 0 or 7 in c.witness["exceptional"] for c in certs)


def test_seven_is_admitted_for_most_tate_forms():
    # the ell = 7 property is not vacuous: of t = 2..8, 7 divides the
    # discriminant t^7 (t-1)^7 (t^3 - 8t^2 + 5t + 1) only at t = 5, 7, 8
    at7 = {name for name in TATE for r in runs(name) if r.ell == 7}
    assert at7 == {"tate_t2", "tate_t3", "tate_t4", "tate_t6"}
